"""Dense complex-matrix substrate: input checks, tolerances and kernels.

Everything downstream works with 2-D complex128 arrays. This module checks
input from outside and holds what the frame analysis (frame_ops) is built
from: the phased SVD and its rank cut, the pseudoinverse and projectors of
its factors, and norms that hold across the double range, each taken as
the two BLAS dots that np.linalg.norm runs, with its bits (_dot_norm).
"""

from __future__ import annotations

import math
import numbers
import sys
from dataclasses import dataclass

import numpy as np

from .errors import NumericalError

__all__ = [
    "Tolerance",
    "DEFAULT_TOLERANCE",
    "SvdFactors",
    "as_matrix",
    "as_vector",
    "adjoint",
    "max_abs",
]


@dataclass(frozen=True)
class Tolerance:
    """Numerical thresholds used throughout the library.

    rank_rel      relative singular-value cutoff; sigma_i is kept iff
                  sigma_i > rank_rel * max(rows, cols) * sigma_max; S and G
                  keep T's decision squared, floored at 10 max(n, m) eps
    identity_abs  absolute ceiling for operator-identity residuals
    tightness_rel relative slack for declaring bounds equal (tight) or one
                  (Parseval)

    All three must be finite and positive real numbers, not bools, else
    ValueError names the field; each is kept as a Python float.
    """

    rank_rel: float = 1e-12
    identity_abs: float = 1e-10
    tightness_rel: float = 1e-8

    def __post_init__(self) -> None:
        for name in ("rank_rel", "identity_abs", "tightness_rel"):
            object.__setattr__(self, name, _finite_real(getattr(self, name), name))
        if not 0.0 < self.rank_rel < 1.0:
            raise ValueError("rank_rel must lie strictly between 0 and 1")
        for name in ("identity_abs", "tightness_rel"):
            if getattr(self, name) <= 0.0:
                raise ValueError(f"{name} must be positive")


def _finite_real(value, name: str, must_be: str = "finite") -> float:
    """value, a real scalar from outside, as a Python float: its one check.
    ValueError names it for a bool (True would read as 1.0), a non-real, or a
    value past the double range ("{name} must be {must_be}"). float() is the
    one conversion and never warns, as a float32 compared with a float can."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ValueError(f"{name} must be a number, not {type(value).__name__}")
    try:
        out = float(value)
    except OverflowError:
        out = math.inf
    if not abs(out) <= sys.float_info.max:
        raise ValueError(f"{name} must be {must_be}")
    return out


DEFAULT_TOLERANCE = Tolerance()


def _tolerance(tol) -> Tolerance:
    """tol as passed to every public call: None reads as DEFAULT_TOLERANCE, a
    Tolerance as itself, and anything else raises ValueError naming tol."""
    if tol is None:
        return DEFAULT_TOLERANCE
    if not isinstance(tol, Tolerance):
        raise ValueError(f"tol must be a Tolerance, not {type(tol).__name__}")
    return tol


def _frozen(arr: np.ndarray) -> np.ndarray:
    """arr, made read-only in place."""
    arr.setflags(write=False)
    return arr


def _complex_array(values, name: str, copy: bool = False) -> np.ndarray:
    """values as complex128, a fresh C-ordered array when copy is set: the one
    conversion of array input. An entry past the double range, such as an
    integer of 400 digits, raises ValueError naming the input, where numpy
    raises a bare OverflowError."""
    try:
        if copy:
            return np.array(values, dtype=np.complex128, order="C")
        return np.asarray(values, dtype=np.complex128)
    except OverflowError:
        raise ValueError(f"{name} entries must be finite: an entry lies beyond "
                         "the double range") from None


def as_matrix(values) -> np.ndarray:
    """Coerce to a read-only 2-D complex128 array, rejecting non-finite entries."""
    return _frozen(_matrix_view(_complex_array(values, "matrix", copy=True)))


def _matrix_view(values) -> np.ndarray:
    """as_matrix's checks without its copy, for callers that only read the matrix.

    values is converted to complex128 only if it is not already.
    """
    m = _complex_array(values, "matrix")
    if m.ndim != 2:
        raise ValueError(f"expected a 2-D matrix, got an array of dimension {m.ndim}")
    if m.shape[0] < 1 or m.shape[1] < 1:
        raise ValueError("matrix must have at least one row and one column")
    if not np.isfinite(m).all():
        raise ValueError("matrix entries must be finite")
    return m


def as_vector(values, length: int | None = None, name: str = "vector") -> np.ndarray:
    """Coerce to a read-only 1-D complex128 array of the given length."""
    return _frozen(_vector_peak(_complex_array(values, name, copy=True), length, name)[0])


def _vector_peak(values, length: int | None, name: str) -> tuple:
    """as_vector's checks on values as a contiguous complex128 array, values
    itself where it is one (as_vector hands a fresh copy), and its largest
    real or imaginary part in modulus: one reduction that is both the
    finiteness check (an inf part makes it inf, a NaN part NaN) and the
    scale a caller reads, so nothing scans the vector twice. ValueError as
    as_vector."""
    v = _complex_array(values, name)
    if v.ndim != 1:
        raise ValueError(f"{name} must be 1-D, got an array of dimension {v.ndim}")
    if length is not None and v.shape[0] != length:
        raise ValueError(f"{name} has length {v.shape[0]}, expected {length}")
    v = np.ascontiguousarray(v)
    peak = max_abs(v.view(np.float64))
    if not peak < math.inf:
        raise ValueError(f"{name} entries must be finite")
    return v, peak


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


def _phased_svd(m: np.ndarray) -> SvdFactors:
    """An SVD of m, read-only and untruncated. Each right singular vector is
    rotated so its entry of largest modulus is real and positive, its left one
    by the same phase, so equal inputs give equal factors; the convention acts
    on each column pair alone, so a rank cut afterwards keeps it."""
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
    return SvdFactors(left_vectors=_frozen(u), singular_values=_frozen(s),
                      right_vectors=_frozen(v), rank=s.size)


def _gram_floor(dim: int) -> float:
    """Relative rounding level of fl(T T*) for max(n, m) = dim of T (Weyl's inequality)."""
    return 10.0 * dim * np.finfo(np.float64).eps


def _truncated(full: SvdFactors, tol: Tolerance, gram_dim: int | None = None) -> SvdFactors:
    """The leading factors of an untruncated SVD that survive tol's rank cutoff:
    sigma > c sigma_1, c = rank_rel * max(rows, cols). Factors of T T* or T* T,
    gram_dim = max(n, m) of T, keep T's decision squared, (rank_rel gram_dim)^2,
    floored at min(c, _gram_floor): the cap drops nothing that c would keep."""
    s = full.singular_values
    c = tol.rank_rel * max(full.left_vectors.shape[0], full.right_vectors.shape[0])
    if gram_dim is not None:
        c = max((tol.rank_rel * gram_dim) ** 2, min(c, _gram_floor(gram_dim)))
    rank = int(np.count_nonzero(s > c * s[0]))
    return SvdFactors(left_vectors=full.left_vectors[:, :rank], singular_values=s[:rank],
                      right_vectors=full.right_vectors[:, :rank], rank=rank)


def _reciprocal_sigma_r(factors: SvdFactors, name: str) -> float:
    """1 / sigma_r for the smallest kept singular value of factors of rank >= 1,
    the factors of the operator whose pseudoinverse is name ("T+", "U+", "S+"
    or "G+"; S's and G's singular values are their eigenvalues lambda).

    Raises NumericalError naming that pseudoinverse when the reciprocal
    overflows, which is when the pseudoinverse would leave the double range.
    """
    sigma_r = float(factors.singular_values[-1])
    if not (sigma_r > 0.0 and 1.0 / sigma_r < math.inf):
        value = "sigma_r" if name in ("T+", "U+") else "lambda_r"
        raise NumericalError(
            f"the pseudoinverse {name} leaves the double range: 1/{value} overflows "
            f"for {value} {sigma_r:.3e}"
        )
    return 1.0 / sigma_r


def _pinv_from_factors(factors: SvdFactors, name: str) -> np.ndarray:
    """Assemble the Moore-Penrose pseudoinverse name from SVD factors.

    Every entry of the result is at most 1 / sigma_r in modulus, so when
    that reciprocal is finite the result stays in the double range; when it
    is not, NumericalError names the pseudoinverse (see _reciprocal_sigma_r)
    before anything is divided.
    """
    rows = factors.left_vectors.shape[0]
    cols = factors.right_vectors.shape[0]
    if factors.rank == 0:
        out = np.zeros((cols, rows), dtype=np.complex128)
    else:
        _reciprocal_sigma_r(factors, name)
        scaled = factors.right_vectors / factors.singular_values[np.newaxis, :]
        out = scaled @ factors.left_vectors.conj().T
    return _frozen(out)


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


def max_abs(values) -> float:
    """Largest entry magnitude; 0.0 for an empty array, NaN for one with a NaN
    entry. argmax finds the first NaN, else the first largest magnitude, with
    no floating-point state to save and test, as np.max has."""
    a = np.asarray(values)
    if a.dtype.kind == "O":  # Python numbers numpy could not type, such as 10**400
        a = _complex_array(a, "values")
    a = np.abs(a)
    return float(a.item(a.argmax())) if a.size else 0.0


@np.errstate(over="ignore", under="ignore")
def _norm(x, factor: float = 1.0) -> float:
    """factor * |x|: the 2-norm of a vector or the Frobenius norm of a matrix,
    inf beyond the double range or for an inf entry, NaN for a NaN entry.

    np.linalg.norm sums squares, so the scaled route takes it on x scaled by
    a power of two 2^-e that brings every entry's modulus below 1, as
    LAPACK's xLASSQ scales: no square overflows, and none that underflows
    could show in the sum. e is one more than the exponent of the largest
    real or imaginary part, a scan that cannot overflow, and the one covers
    the sqrt(2) between that part and a modulus. factor is applied before 2^e
    is undone. Both scalings are exact, so in range the result is factor *
    np.linalg.norm(x) bit for bit.

    Most norms need neither the scan nor the scaled copy: the plain |x| is
    first taken on x as it is (_dot_norm, with np.linalg.norm's bits), and
    where it lies in [2^-400, 2^400] and factor in [2^-600, 2^600], factor *
    |x| is returned with the scaled route's bits. No square overflowed. One
    that underflowed is below 2^-1022, more than 2^222 below the sum of
    squares (at least 2^-800), so far below its last bit, as the scaled
    route's lost squares are. Every other step of that route is the plain one scaled by a power of
    two, and factor * |x| and factor * |2^-e x| are both normal, so no
    rounding moves. Every other x, inf and NaN included, takes the scaled
    route. np.errstate is entered once per call, so a square or a dot that
    leaves the double range does not warn."""
    x = np.asarray(x)
    if x.dtype.kind == "O":  # as in max_abs
        x = _complex_array(x, "factor")
    return _routed_norm(x, _dot_norm(x), factor)


def _routed_norm(x: np.ndarray, plain: float, factor: float) -> float:
    """_norm(x, factor) given x's plain |x| (_dot_norm), or NaN where the
    caller did not take it: factor * plain where both lie in _norm's range,
    else _norm's scaled route."""
    if 2.0**-400 <= plain <= 2.0**400 and 2.0**-600 <= factor <= 2.0**600:
        return factor * plain
    return _scaled_norm(x, factor)


def _dot_norm(x: np.ndarray) -> float:
    """np.linalg.norm(x), its steps without its wrapper: the entries, as
    floats if they are not, in memory order; a BLAS dot each of their real
    and imaginary parts; the square root of the sum in x's precision."""
    x = x.ravel(order="K")
    kind = x.dtype.kind
    if kind == "c":
        re, im = x.real, x.imag
        square = re.dot(re) + im.dot(im)
    else:
        x = x if kind == "f" else x.astype(float)
        square = x.dot(x)
    # math.sqrt rounds a double as np.sqrt does; float32 and wider stay numpy's
    return math.sqrt(square) if type(square) is np.float64 else float(np.sqrt(square))


def _scaled_norm(x: np.ndarray, factor: float) -> float:
    """_norm(x, factor) on _norm's scaled route, for any numeric array x. Its
    scaled entries are all below 1/2 in modulus, so no step overflows; an
    entry that underflows does so under numpy's own error state."""
    parts = np.ascontiguousarray(x).view(x.real.dtype) if np.iscomplexobj(x) else x
    scale = max_abs(parts)
    if not scale < math.inf:  # an inf or NaN entry
        return factor * scale
    # 2^-e stays finite for subnormal x
    exponent = max(math.frexp(scale)[1] + 1, -1022)
    try:
        return math.ldexp(factor * _dot_norm(x * 2.0**-exponent), exponent)
    except OverflowError:
        return math.inf
