"""Dense complex-matrix substrate: SVD, pseudoinverse, projectors, ranks.

Everything downstream works with 2-D complex128 arrays. The singular value
decomposition fixes the numerical rank and a deterministic phase convention;
the Moore-Penrose pseudoinverse, range projectors, operator norms and rank
queries are all derived from it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NumericalError

__all__ = [
    "Tolerance",
    "DEFAULT_TOLERANCE",
    "SvdFactors",
    "as_matrix",
    "as_vector",
    "svd",
    "pinv",
    "pinv_from_factors",
    "adjoint",
    "range_projector",
    "op_norm",
    "numerical_rank",
    "max_abs",
]


@dataclass(frozen=True)
class Tolerance:
    """Numerical thresholds used throughout the library.

    rank_rel      relative singular-value cutoff; sigma_i is kept iff
                  sigma_i > rank_rel * max(rows, cols) * sigma_max
    identity_abs  absolute ceiling for operator-identity residuals
    tightness_rel relative slack for declaring bounds equal (tight) or one
                  (Parseval)

    All three must be finite and positive, else ValueError names the field.
    """

    rank_rel: float = 1e-12
    identity_abs: float = 1e-10
    tightness_rel: float = 1e-8

    def __post_init__(self) -> None:
        if not 0.0 < self.rank_rel < 1.0:
            raise ValueError("rank_rel must lie strictly between 0 and 1")
        for name in ("identity_abs", "tightness_rel"):
            value = getattr(self, name)
            if value <= 0.0:
                raise ValueError(f"{name} must be positive")
            if not value < math.inf:  # inf passes every check; NaN fails every one
                raise ValueError(f"{name} must be finite")


DEFAULT_TOLERANCE = Tolerance()


def as_matrix(values) -> np.ndarray:
    """Coerce to a read-only 2-D complex128 array, rejecting non-finite entries."""
    m = _matrix_view(np.array(values, dtype=np.complex128, order="C"))
    m.setflags(write=False)
    return m


def _matrix_view(values) -> np.ndarray:
    """as_matrix's checks without its copy, for callers that only read the matrix.

    values is converted to complex128 only if it is not already.
    """
    m = np.asarray(values, dtype=np.complex128)
    if m.ndim != 2:
        raise ValueError(f"expected a 2-D matrix, got an array of dimension {m.ndim}")
    if m.shape[0] < 1 or m.shape[1] < 1:
        raise ValueError("matrix must have at least one row and one column")
    if not np.isfinite(m).all():
        raise ValueError("matrix entries must be finite")
    return m


def as_vector(values, length: int | None = None, name: str = "vector") -> np.ndarray:
    """Coerce to a read-only 1-D complex128 array of the given length."""
    v = np.array(values, dtype=np.complex128, order="C")
    if v.ndim != 1:
        raise ValueError(f"{name} must be 1-D, got an array of dimension {v.ndim}")
    if length is not None and v.shape[0] != length:
        raise ValueError(f"{name} has length {v.shape[0]}, expected {length}")
    if not (np.isfinite(v.real).all() and np.isfinite(v.imag).all()):
        raise ValueError(f"{name} entries must be finite")
    v.setflags(write=False)
    return v


@dataclass(frozen=True, eq=False)
class SvdFactors:
    """Rank-truncated SVD, M = left_vectors @ diag(singular_values) @ right_vectors*.

    left_vectors   (rows, rank), orthonormal columns
    singular_values (rank,), strictly positive, nonincreasing
    right_vectors  (cols, rank), orthonormal columns
    rank           numerical rank under the cutoff that produced the factors
    """

    left_vectors: np.ndarray
    singular_values: np.ndarray
    right_vectors: np.ndarray
    rank: int


def svd(matrix, tol: Tolerance | None = None) -> SvdFactors:
    """Rank-truncated SVD with a deterministic phase convention.

    Singular values at or below rank_rel * max(rows, cols) * sigma_max are
    dropped. Each kept right singular vector is rotated so its entry of
    largest modulus is real and positive (the paired left vector is rotated
    by the same phase, leaving the product unchanged); this makes repeated
    factorizations of equal inputs identical.
    """
    return _truncated(_phased_svd(_matrix_view(matrix)), tol or DEFAULT_TOLERANCE)


def _phased_svd(m: np.ndarray) -> SvdFactors:
    """svd's read-only factors, untruncated. The phase convention acts on each
    column pair alone, so truncating them afterwards gives svd's bits."""
    try:
        u, s, vh = np.linalg.svd(m, full_matrices=False)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"singular value decomposition failed to converge: {exc}") from exc
    v = np.conjugate(vh, out=vh).T
    pivots = np.argmax(np.abs(v), axis=0)
    z = v[pivots, np.arange(s.size)]
    # hypot rounds like the scalar abs(z) and np.abs does not; the phases
    # must match a column-by-column evaluation bit for bit
    phase = np.conj(z) / np.hypot(z.real, z.imag)
    v *= phase
    u *= phase
    for arr in (u, s, v):
        arr.setflags(write=False)
    return SvdFactors(left_vectors=u, singular_values=s, right_vectors=v, rank=s.size)


def _truncated(full: SvdFactors, tol: Tolerance) -> SvdFactors:
    """The leading factors of an untruncated SVD that survive tol's rank cutoff."""
    s = full.singular_values
    cutoff = tol.rank_rel * max(full.left_vectors.shape[0], full.right_vectors.shape[0]) * s[0]
    rank = int(np.count_nonzero(s > cutoff))
    return SvdFactors(left_vectors=full.left_vectors[:, :rank], singular_values=s[:rank],
                      right_vectors=full.right_vectors[:, :rank], rank=rank)


def _reciprocal_sigma_r(factors: SvdFactors) -> float:
    """1 / sigma_r for the smallest kept singular value of factors of rank >= 1.

    Raises NumericalError when that reciprocal overflows, which is when a
    pseudoinverse assembled from the factors would leave the double range.
    """
    sigma_r = float(factors.singular_values[-1])
    if not (sigma_r > 0.0 and 1.0 / sigma_r < math.inf):
        raise NumericalError(
            f"the pseudoinverse leaves the double range: 1/sigma_r overflows "
            f"for sigma_r {sigma_r:.3e}"
        )
    return 1.0 / sigma_r


def pinv_from_factors(factors: SvdFactors) -> np.ndarray:
    """Assemble the Moore-Penrose pseudoinverse from SVD factors.

    Every entry of the result is at most 1 / sigma_r in modulus, so when
    that reciprocal is finite the result stays in the double range; when it
    is not, NumericalError is raised before anything is divided.
    """
    rows = factors.left_vectors.shape[0]
    cols = factors.right_vectors.shape[0]
    if factors.rank == 0:
        out = np.zeros((cols, rows), dtype=np.complex128)
    else:
        _reciprocal_sigma_r(factors)
        scaled = factors.right_vectors / factors.singular_values[np.newaxis, :]
        out = scaled @ factors.left_vectors.conj().T
    out.setflags(write=False)
    return out


def pinv(matrix, tol: Tolerance | None = None) -> np.ndarray:
    """Moore-Penrose pseudoinverse via the rank-truncated SVD.

    Satisfies the four defining identities within tol.identity_abs for
    well-scaled inputs:

        M M+ M = M,  M+ M M+ = M+,  (M M+)* = M M+,  (M+ M)* = M+ M

    The all-zero matrix maps to the all-zero matrix of transposed shape.
    Raises NumericalError when the pseudoinverse leaves the double range,
    that is when 1 / sigma_r overflows for the smallest kept singular value.
    """
    return pinv_from_factors(svd(matrix, tol))


def adjoint(matrix) -> np.ndarray:
    """Conjugate transpose."""
    return np.conjugate(_matrix_view(matrix).T, order="C")


def _hermitize(m: np.ndarray) -> np.ndarray:
    out = m + m.conj().T
    out /= 2.0
    return out


def _projector(basis: np.ndarray) -> np.ndarray:
    """W W* for orthonormal columns W, symmetrized to be exactly self-adjoint."""
    return _hermitize(basis @ basis.conj().T)


def range_projector(matrix, tol: Tolerance | None = None) -> np.ndarray:
    """Orthogonal projector onto the column space.

    Built as W W* from the kept left singular vectors (equal to M M+), then
    symmetrized so the result is exactly self-adjoint.
    """
    return _projector(svd(matrix, tol).left_vectors)


def op_norm(matrix) -> float:
    """Largest singular value (spectral norm)."""
    m = _matrix_view(matrix)
    try:
        s = np.linalg.svd(m, compute_uv=False)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"singular value decomposition failed to converge: {exc}") from exc
    return float(s[0]) if s.size else 0.0


def numerical_rank(matrix, tol: Tolerance | None = None) -> int:
    """Count of singular values above the relative cutoff."""
    return svd(matrix, tol).rank


def max_abs(values) -> float:
    """Largest entry magnitude; 0.0 for an empty array."""
    a = np.asarray(values)
    return float(np.max(np.abs(a))) if a.size else 0.0
