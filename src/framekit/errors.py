"""Exception types shared across framekit."""

__all__ = [
    "FramekitError",
    "NumericalError",
    "DegenerateSpanError",
    "NotTightError",
    "AllocationError",
]


class FramekitError(Exception):
    """Base class for framekit errors."""


class NumericalError(FramekitError):
    """A numerical routine failed or an operator identity broke down.

    Raised when the underlying factorization does not converge, or when
    independently computed routes (pseudoinverse vs projector ranks, for
    example) disagree beyond the configured tolerance.
    """


class DegenerateSpanError(FramekitError):
    """The sequence spans only the zero subspace, so the request is undefined."""


class NotTightError(FramekitError):
    """The operation needs a tight sequence and this one is not."""


class AllocationError(FramekitError, MemoryError):
    """A dense operator or product does not fit in memory; the message names
    it and the allocation that failed. It is also a MemoryError."""
