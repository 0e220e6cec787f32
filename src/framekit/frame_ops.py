"""Operators attached to a finite frame sequence and their derived objects.

A sequence of m vectors in an n-dimensional complex space induces

    synthesis  T : coefficient space -> signal space, column k holds vector k
    analysis   U = T*                (inner products against the vectors)
    frame op   S = T U               (n x n, Hermitian positive semidefinite)
    gram       G = U T               (m x m)

together with the orthogonal projectors P onto the span of the vectors
(range of T) and Q onto the range of U (orthogonal complement of ker T).
The pseudoinverses of T, S and G tie these together. One table,
_OPERATORS, names each operator once, by the paper's name ("S+" for S's
pseudoinverse), and says how it is formed; identities between operators
are data, products of those names. Each frame is factored once, and keeps
all it keeps by one rule, FrameSequence._keep: a slot holds one value with
the tag it was formed under, a read whose tag matches returns it, and any
other read forms the value afresh and keeps it in the slot's place. The
slots hold T's factors (which give P, Q, T+ and the canonical dual (T+)*),
S = T T* and S's factors, and G's, each untruncated, one rank cut of each
by rank_rel, T's certificate, the gate's self-check deviations, one summary
of each gate by rank_rel, the bounds and one canonical dual by T's kept
rank, which is handed the frame's factors inverted and factors nothing of
its own. T's factorization is certified once per frame: its certificate
says how far the factors are from an SVD of T, and every call that reads
them, the bounds and the classification among them, first holds those
deviations against its own tolerance, else NumericalError. Each result is then gated on the routes it reads: T's
factorization must agree with S's or G's, or with both for the whole
bundle, in rank and in each self-check, else NumericalError. The gate
checks S and G on their factors in T's coordinates, so it forms no dense P,
Q, S+ or G+; how is set out in _FrameAnalysis. The frame keeps each
self-check's deviation, not its verdict: every call holds it against its
own tolerance, as it holds T's certificate.
"""

from __future__ import annotations

import math
import sys
from collections.abc import Callable
from dataclasses import dataclass
from functools import partial

import numpy as np

from .errors import AllocationError, DegenerateSpanError, NumericalError
from .matrix_core import (
    SvdFactors,
    Tolerance,
    _complex_array,
    _finite_real,
    _frozen,
    _gram_floor,
    _hermitize,
    _matrix_view,
    _norm,
    _phased_svd,
    _pinv_from_factors,
    _projector,
    _reciprocal_sigma_r,
    _tolerance,
    _truncated,
    adjoint,
    as_vector,
    max_abs,
)

__all__ = [
    "FrameSequence",
    "OperatorBundle",
    "FrameBounds",
    "FrameClassification",
    "RestrictedOperators",
    "build_bundle",
    "frame_bounds",
    "classify",
    "canonical_dual",
    "restricted",
    "pseudo_frame_operator",
    "pseudo_gram",
    "scaled_deviation",
    "svd",
    "pinv",
    "range_projector",
    "numerical_rank",
    "op_norm",
]


@dataclass(frozen=True, eq=False)
class FrameSequence:
    """A finite sequence of vectors in an n-dimensional complex space.

    The sequence may be linearly dependent, contain repeats, or even consist
    of zero vectors (a degenerate sequence with span dimension 0). It must
    contain at least one vector, and every vector must have exactly
    ambient_dim finite entries. The vectors are stored once, as the columns
    of one read-only (ambient_dim, m) matrix T; each entry of `vectors` is a
    read-only view of its column.

    All else the frame keeps, it keeps by one rule (see _keep): one dict of
    slots, each holding a value and the tag it was formed under. A read
    whose tag matches returns the kept value; any other read forms the
    value afresh and keeps it in the slot's place, so a slot never holds
    two. A slot's value is fixed by the frame and its tag, so a kept value
    has the bits a fresh one would. No lock is held: overlapping first
    reads on one frame may each form a value, and every such value has the
    same bits; calls on different frames never wait on each other. Each
    value is formed on the first call that reads it, read-only, and the
    factors untruncated, so they serve every later call under whatever
    tolerance it passes. With k = min(n, m):

        slot              value                                tag          bytes
        "T factors"       T's SVD (see _svd)                   -            16 (n + m) k + 8 k
        "certificate"     how far they are from an SVD of T    -            three floats
                          (see _certificate)
        "S"               S = T T*                             -            16 n^2
        "S factors"       an SVD of S of its own               -            32 n^2 + 8 n
        "G factors"       G's, lifted from an SVD of its       -            32 m k + 8 k
                          square core (see _gram_factors)
        route name        the route's rank cut (see _cut)      rank_rel     none: views
        (check, r)        a gate self-check's deviation        -            one float
        route set         a gate's summary: the routes' cuts   rank_rel     views, as
                          and their worst deviation, T's                    above, and
                          certificate rows among them (see                  one float
                          _FrameAnalysis.gate)
        "bounds"          the frame bounds                     rank_rel,    two floats,
                                                               tightness_rel  two flags
        "dual"            the canonical dual                   T's rank     16 n m

    A route set is the tuple of route names a gate reads, such as
    ("synthesis", "frame operator"). A tall frame (n > m) keeps an S larger
    than T only once a call reads S: every result that reads T's factors
    alone gates on G there (see _smaller_square). Every call holds the
    certificate and the deviations against its own tol.identity_abs (see
    _FrameAnalysis). A canonical dual of T's kept rank r is handed its
    factors, the frame's inverted (see _dual_factors), so its "S factors"
    take 32 n r + 8 r bytes and its "G factors" 32 m r + 8 r.
    """

    ambient_dim: int
    vectors: tuple

    def __post_init__(self) -> None:
        if isinstance(self.ambient_dim, bool) or not isinstance(self.ambient_dim, int):
            raise ValueError("ambient_dim must be an integer")
        if self.ambient_dim < 1:
            raise ValueError("ambient_dim must be at least 1")
        if len(self.vectors) < 1:
            raise ValueError("a frame sequence needs at least one vector")
        try:  # all vectors as the rows of one array, checked at once
            rows = np.array(self.vectors, dtype=np.complex128)
        except (TypeError, ValueError, OverflowError):
            rows = None
        if (rows is None or rows.ndim != 2 or rows.shape[1] != self.ambient_dim
                or not np.isfinite(rows).all()):
            # the vector-by-vector checks name the offending vector
            rows = np.stack([as_vector(v, self.ambient_dim, name=f"vector {k}")
                             for k, v in enumerate(self.vectors)])
        self._store(np.ascontiguousarray(rows.T))

    def _store(self, matrix: np.ndarray) -> None:
        # bundles hand this matrix out as T; a view of a read-only array
        # cannot be made writable again, so no holder can alter the frame
        matrix.setflags(write=False)
        matrix = matrix.view()
        object.__setattr__(self, "_matrix", matrix)
        object.__setattr__(self, "vectors", tuple(matrix[:, k] for k in range(matrix.shape[1])))
        object.__setattr__(self, "_kept", {})  # (tag, value) by slot; see _keep
        object.__setattr__(self, "_handed", {})  # forms by factor slot; see _factors

    @classmethod
    def _from_matrix(cls, matrix: np.ndarray, handed: dict | None = None) -> "FrameSequence":
        """The sequence of an (n, m) matrix's columns, stored without splitting it.
        handed, if given, maps factor slots ("T factors", "S factors", "G
        factors") to functions that form those factors in place of the
        frame's own factorizations, on their first read (see _factors); T's
        certificate and the gates' self-checks still check them against the
        matrix."""
        matrix = np.array(matrix, dtype=np.complex128, order="C")
        finite = np.isfinite(matrix).all(axis=0)
        if not finite.all():
            raise ValueError(f"vector {int(np.argmin(finite))} entries must be finite")
        frame = cls.__new__(cls)
        object.__setattr__(frame, "ambient_dim", matrix.shape[0])
        frame._store(matrix)
        frame._handed.update(handed or {})
        return frame

    def _keep(self, slot, form: Callable, tag=None):
        """The value kept in slot, if it was formed under tag; else form(),
        kept with tag in place of the slot's value. The slot is read once, as
        one tuple, so a read never returns a value formed under another tag.
        A form() that raises keeps nothing."""
        kept = self._kept.get(slot)
        if kept is not None and kept[0] == tag:
            return kept[1]
        value = form()
        self._kept[slot] = tag, value
        return value

    def _factors(self, slot: str, form: Callable[[], SvdFactors]) -> SvdFactors:
        """The factors kept in slot: those the function _from_matrix was handed
        for it forms, else form(). That function is dropped, with all it
        holds, once the factors are kept and not before: a read that overlaps
        the first either calls it too, or finds the factors kept."""
        handed = self._handed.get(slot)
        factors = self._keep(slot, handed or form)
        if handed is not None:
            self._handed.pop(slot, None)
        return factors

    @property
    def _svd(self) -> SvdFactors:
        """T's untruncated read-only factors, an SVD of T unless handed."""
        return self._factors("T factors", lambda: _phased_svd(self._matrix))

    @property
    def _frame_operator(self) -> np.ndarray:
        """S = T T*, formed once and read-only (see _frame_operator_of)."""
        return self._keep("S", lambda: _frame_operator_of(self._matrix))

    @property
    def _s_svd(self) -> SvdFactors:
        """S's untruncated read-only factors, an SVD of the kept S of its own
        unless handed."""
        return self._factors("S factors", lambda: _phased_svd(self._frame_operator))

    def _g_svd(self, analysis_u: Callable[[], np.ndarray]) -> SvdFactors:
        """G's untruncated read-only factors, _gram_factors of U unless handed.
        analysis_u() reads U = T* from the caller's analysis, whose gate reads
        that U again, so a first G-route call forms U once."""
        return self._factors("G factors", lambda: _gram_factors(analysis_u()))

    def _cut(self, route: str, tol: Tolerance, full: Callable[[], SvdFactors]) -> SvdFactors:
        """The route's kept factors, full(), cut under tol's rank cutoff
        (matrix_core._truncated): views of them, T's decision squared for S's
        and G's. tol.rank_rel is all the cut reads besides the frame, so it is
        the slot's tag, and memory does not grow with the number of
        tolerances."""
        gram_dim = None if route == "synthesis" else max(self._matrix.shape)
        return self._keep(route, lambda: _truncated(full(), tol, gram_dim), tol.rank_rel)

    @property
    def _certificate(self) -> tuple:
        """How far _svd's factors W, Sigma, V are from an SVD of T, taken once:
        the residual |T - W Sigma V*| of the whole T relative to sigma_1, then
        |W* W - I| and |V* V - I|, each the largest entry modulus (the test
        ratios of LAPACK's xBDT01 and xUNT01). T and Sigma are first scaled by
        the power of two that brings sigma_1 into [1/2, 1), so no product
        leaves the double range. The deviations are kept, not a verdict: each
        analysis holds them against its own tolerance (see _FrameAnalysis.f_t)."""
        def form():
            w, s, v = self._svd.left_vectors, self._svd.singular_values, self._svd.right_vectors
            residual = math.inf  # where |T| = sigma_1 itself leaves the double range
            if s[0] < math.inf:
                scale = 2.0**-max(math.frexp(s[0])[1], -1022)
                residual = max_abs(self._matrix * scale - (w * (s * scale)) @ v.conj().T)
                residual /= s[0] * scale or 1.0  # T = 0 has residual 0
            eye = np.eye(s.size)
            return residual, max_abs(w.conj().T @ w - eye), max_abs(v.conj().T @ v - eye)
        return self._keep("certificate", form)

    @property
    def size(self) -> int:
        """Number of vectors m."""
        return self._matrix.shape[1]

    def synthesis_matrix(self) -> np.ndarray:
        """Fresh (ambient_dim, m) matrix whose k-th column is vector k."""
        return self._matrix.copy()

    @classmethod
    def from_vectors(cls, vectors, ambient_dim: int | None = None) -> "FrameSequence":
        vectors = tuple(vectors)
        if not vectors:
            raise ValueError("a frame sequence needs at least one vector")
        if ambient_dim is None:
            first = np.atleast_1d(np.asarray(vectors[0]))
            ambient_dim = int(first.shape[0])
        return cls(ambient_dim=ambient_dim, vectors=vectors)

    @classmethod
    def truncated(cls, vectors, ambient_dim: int | None = None,
                  tail_energy: float = 0.0) -> tuple["FrameSequence", float]:
        """Finite prefix of a longer family, plus the caller-supplied tail energy.

        The library only models finite sequences. Callers holding an infinite
        family truncate it themselves and may pass the discarded energy
        sum(|f_k|^2) over the dropped tail here; it is validated and echoed
        for reporting. No convergence claims are made on the caller's behalf.
        """
        tail_energy = _finite_real(tail_energy, "tail_energy", "a finite number")
        if tail_energy < 0.0:
            raise ValueError("tail_energy cannot be negative")
        return cls.from_vectors(vectors, ambient_dim), tail_energy


@dataclass(frozen=True, eq=False)
class OperatorBundle:
    """All operators induced by one frame sequence, mutually consistent.

    synthesis            T, (n, m)
    analysis             U = T*, (m, n)
    frame_operator       S = T U, (n, n)
    gram                 G = U T, (m, m)
    span_projector       P, orthogonal projector onto range(T)
    coefficient_projector Q, orthogonal projector onto range(U)
    synthesis_pinv       T+, (m, n)
    frame_operator_pinv  S+, (n, n)
    gram_pinv            G+, (m, m)
    span_dim             numerical rank r of T
    tol                  thresholds the bundle was built and verified under
    """

    synthesis: np.ndarray
    analysis: np.ndarray
    frame_operator: np.ndarray
    gram: np.ndarray
    span_projector: np.ndarray
    coefficient_projector: np.ndarray
    synthesis_pinv: np.ndarray
    frame_operator_pinv: np.ndarray
    gram_pinv: np.ndarray
    span_dim: int
    tol: Tolerance

    @property
    def ambient_dim(self) -> int:
        return self.synthesis.shape[0]

    @property
    def size(self) -> int:
        return self.synthesis.shape[1]


@dataclass(frozen=True)
class FrameBounds:
    """Optimal (largest lower, smallest upper) bounds on the sequence's span.

    lower = smallest kept squared singular value of T = 1 / |T+|^2
    upper = largest squared singular value of T = |T|^2
    """

    lower: float
    upper: float
    tight: bool
    parseval: bool

    def __post_init__(self) -> None:
        if not 0.0 < self.lower <= self.upper:
            raise ValueError("bounds must satisfy 0 < lower <= upper")


@dataclass(frozen=True)
class FrameClassification:
    """Structured verdict on one sequence.

    is_frame_for_space  spans the whole ambient space (rank of T equals n)
    is_riesz_basis      linearly independent (rank of T equals m, Q = I)
    is_tight            both optimal bounds agree within tightness_rel
    is_parseval         tight with common bound 1
    span_dim            numerical rank r of T
    redundancy          m / r, or inf when the sequence is degenerate
    """

    is_frame_for_space: bool
    is_riesz_basis: bool
    is_tight: bool
    is_parseval: bool
    span_dim: int
    redundancy: float

    @property
    def is_degenerate(self) -> bool:
        return self.span_dim == 0


@dataclass(frozen=True, eq=False)
class RestrictedOperators:
    """The same operators viewed on the span V of the sequence.

    basis                W, (n, r), orthonormal columns spanning V
    synthesis_res        W* T, (r, m)
    analysis_res         adjoint of synthesis_res, (m, r)
    frame_operator_res   W* S W, (r, r), Hermitian positive definite
    frame_operator_res_inv  its inverse; on V the frame operator is invertible
    """

    basis: np.ndarray
    synthesis_res: np.ndarray
    analysis_res: np.ndarray
    frame_operator_res: np.ndarray
    frame_operator_res_inv: np.ndarray


def scaled_deviation(lhs, rhs, factors=()) -> float:
    """Max-abs residual of an identity, normalized by the factor norms.

    lhs and rhs must have one shape, else ValueError names both: broadcast,
    they would compare entries that the identity does not. A floating-point
    product carries absolute error on the order of eps * prod(|factor|), so
    the residual is divided by max(1, that product) to stay comparable with
    identity_abs across well and badly scaled inputs. Each factor's Frobenius
    norm is taken by matrix_core._norm, on entries scaled by an exact power of
    two, so no square overflows or underflows; the product is divided out
    exactly even past the double range, and a factor whose own norm is beyond
    it makes the deviation inf.
    """
    lhs, rhs = _complex_array(lhs, "lhs"), _complex_array(rhs, "rhs")
    if lhs.shape != rhs.shape:
        raise ValueError(f"lhs and rhs must have one shape, not {lhs.shape} and {rhs.shape}")
    return _deviation(lhs, rhs, [_norm(f) for f in factors])


def _deviation(lhs, rhs, norms) -> float:
    """scaled_deviation with the factors' norms already taken: the one residual
    rule of the gate, the identity suite and the reconstruction checks. The
    norms' product is kept as mantissa * 2^exponent, so the residual is divided
    by it in one rounding even where the product leaves the double range. A
    norm that is itself inf or NaN leaves nothing to divide by: the deviation
    reads inf (NaN for a NaN residual), and the check refuses. Each side is
    an array or the zero operator's 0.0, so they are subtracted as they are."""
    residual = max_abs(lhs - rhs)
    mantissa, exponent = 1.0, 0
    for norm in norms:
        m, e = math.frexp(norm)
        mantissa, exponent = mantissa * m, exponent + e
    if not mantissa < math.inf:
        return residual if math.isnan(residual) else math.inf
    mantissa, e = math.frexp(mantissa)
    exponent += e
    if mantissa == 0.0 or exponent < 1:  # the product is below 1, the floor
        return residual
    return math.ldexp(residual, -exponent) / mantissa


# the factorization each route names, and the one each of T, S, G is read from
_ROUTES = {"synthesis": "f_t", "frame operator": "f_s", "gram": "f_g"}
_FACTORED = dict(zip("TSG", _ROUTES.values()))

# every operator the paper names, by how the analysis `a` forms it from T, the
# routes' factors and other entries; a[name] forms each at most once
_OPERATORS = {
    "T": lambda a: a.frame._matrix,
    "U": lambda a: adjoint(a["T"]),
    "S": lambda a: a.frame._frame_operator,
    "G": lambda a: a["U"] @ a["T"],
    "P": lambda a: _projector(a.f_t.left_vectors),
    "Q": lambda a: _projector(a.f_t.right_vectors),
    "T+": lambda a: _pinv_from_factors(a.f_t, "T+"),
    "U+": lambda a: _pinv_from_factors(_adjoint_factors(a.f_t), "U+"),
    "S+": lambda a: _pinv_from_factors(a.f_s, "S+"),
    "G+": lambda a: _pinv_from_factors(a.f_g, "G+"),
    "T+*": lambda a: adjoint(a["T+"]),
    "I-P": lambda a: np.eye(a.frame.ambient_dim) - a["P"],
    "I-Q": lambda a: np.eye(a.frame.size) - a["Q"],
    "AP": lambda a: a.bounds.lower * a["P"],
    "AQ": lambda a: a.bounds.lower * a["Q"],
    # A is normal (see _bounds_from_factors), so 1/A and these entries are finite
    "P/A": lambda a: a["P"] / a.bounds.lower,
    "Q/A": lambda a: a["Q"] / a.bounds.lower,
    # each square's kept right vectors in T's kept singular vectors Y on its
    # side (see _SQUARES), r x r: two of its self-checks read them
    "Y*R_S": lambda a: a.f_t.left_vectors.conj().T @ a.f_s.right_vectors,
    "Y*R_G": lambda a: a.f_t.right_vectors.conj().T @ a.f_g.right_vectors,
}


def _in_range(name: str, form) -> np.ndarray:
    """form(), a product that squares the frame's entries, computed without an
    overflow warning; NumericalError names the operator if an entry overflows,
    and AllocationError if it does not fit in memory (see _unallocated)."""
    with np.errstate(over="ignore", invalid="ignore"):
        try:
            out = form()
        except MemoryError as exc:
            raise _unallocated(name, exc)
    if not np.isfinite(out).all():
        raise NumericalError(f"the {name} leaves the double range: an entry overflows")
    return out


def _frame_operator_of(t: np.ndarray) -> np.ndarray:
    """S = T T*, read-only, formed through a transient U = T*; NumericalError
    where an entry overflows."""
    return _frozen(_in_range("frame operator S", lambda: t @ adjoint(t)))


def _gram_factors(u: np.ndarray) -> SvdFactors:
    """G = U U*'s untruncated read-only factors, from an SVD of the min(n, m)
    square core of G, never of the m x m G: U = Q1 R1, G = Q1 (R1 R1*) Q1*,
    and Q1 lifts the core's factors. NumericalError where an entry of the
    core overflows."""
    q1, r1 = np.linalg.qr(u)  # Q1 is m x k, R1 k x k
    core = _phased_svd(_in_range("gram matrix G's core R1 R1*",
                                 lambda: _hermitize(r1 @ r1.conj().T)))
    left, right = (_frozen(q1 @ x) for x in (core.left_vectors, core.right_vectors))
    return SvdFactors(left, core.singular_values, right, core.rank)


def _adjoint_factors(f: SvdFactors) -> SvdFactors:
    """The factors of X* from those of X: the sides swapped."""
    return SvdFactors(f.right_vectors, f.singular_values, f.left_vectors, f.rank)


def _pinv_factors(f: SvdFactors, r: int) -> SvdFactors:
    """Read-only factors of X+ = R_r sigma_r^-1 L_r* from X's L sigma R*, cut or
    untruncated, read at rank r: the sides swapped, sigma -> 1/sigma, and the
    leading r columns in reverse order, so the singular values are
    nonincreasing. R keeps X's phase convention. A 1/sigma past the double
    range reads inf, so a rank cut of these factors keeps nothing."""
    with np.errstate(divide="ignore", over="ignore"):
        factors = (f.right_vectors[:, :r], 1.0 / f.singular_values[:r], f.left_vectors[:, :r])
    return SvdFactors(*(_frozen(x[..., ::-1].copy()) for x in factors), r)


def _unallocated(what: str, exc: MemoryError) -> AllocationError:
    """The error to raise where forming the dense operator or product `what`
    raised exc: an AllocationError naming `what` and numpy's failed
    allocation (its bytes, shape and dtype), or exc itself where it already
    is one, naming an operator that `what` reads."""
    if isinstance(exc, AllocationError):
        return exc
    return AllocationError(f"the {what} does not fit in memory: {exc}")


# T's two squares by name: the route that factors each, the names of its
# three self-checks (see _SELF_CHECKS), the side of T's kept factors whose
# singular vectors Y are its own (S = W Sigma^2 W*, G = V Sigma^2 V*), and
# how the analysis `a` applies it to the right vectors R of its factors f
# (G as U (T R), so no m x m G is formed)
_SQUARES = {
    "S": ("frame operator", ("S S+ = P", "S+ S = P", "T+ = T* S+"), "left_vectors",
          lambda a, f: a["S"] @ f.right_vectors),
    "G": ("gram", ("G G+ = Q", "G+ G = Q", "T+ = G+ T*"), "right_vectors",
          lambda a, f: a["U"] @ (a["T"] @ f.right_vectors)),
}


def _square_parts(x: str, a: "_FrameAnalysis") -> tuple:
    """The square X's cut factors L, lambda, R, T's kept singular vectors Y on
    its side, Y* R (r x r, the analysis's "Y*R_S" or "Y*R_G"), and |X| and
    |X+|, whose product kappa(X) = lambda_1 / lambda_r scales X's first two
    self-checks. |X+| refuses a 1/lambda_r that overflows, before any check
    divides by lambda_r."""
    kappa = [a.spectral_norm(x), a.spectral_norm(x + "+")]
    return getattr(a, _FACTORED[x]), getattr(a.f_t, _SQUARES[x][2]), a["Y*R_" + x], kappa


def _square_pinv(x: str, a: "_FrameAnalysis") -> float:
    """'X X+ = proj' on X's factors: X R / lambda = L."""
    f, _, _, kappa = _square_parts(x, a)
    return _deviation(_SQUARES[x][3](a, f) / f.singular_values, f.left_vectors, kappa)


def _pinv_square(x: str, a: "_FrameAnalysis") -> float:
    """'X+ X = proj' on X's factors: R = Y (Y* R)."""
    f, y, y_r, kappa = _square_parts(x, a)
    return _deviation(f.right_vectors, y @ y_r, kappa)


def _pinv_tie(x: str, a: "_FrameAnalysis") -> float:
    """X's T+ tie in T's coordinates. T+ = V Sigma^-1 W*, T* S+ = V Sigma (W*
    R_s) lambda_s^-1 L_s* and, as G+ is Hermitian, (T+)* = T G+ = W Sigma
    (V* R_g) lambda_g^-1 L_g*. W* W = I and V* V = I are certified, so either
    holds iff Sigma^-1 (Y* L) = Sigma (Y* R) lambda^-1, an r x r identity
    that reuses Y* R; its residual is scaled by |T| |X+| = sigma_1 / lambda_r."""
    f, y, y_r, (_, pinv_norm) = _square_parts(x, a)
    sigma = a.f_t.singular_values[:, np.newaxis]
    return _deviation(y.conj().T @ f.left_vectors / sigma, sigma * y_r / f.singular_values,
                      [a.spectral_norm("T"), pinv_norm])


# the self-checks in gate order: the route each reads besides T's, and the
# function that evaluates its deviation; a gate runs, in this order, those
# whose route it reads (see _FrameAnalysis._walk). Each square gets the same
# three: 'X X+ = proj' and 'X+ X = proj', S's then G's, then the two T+ ties,
# S's then G's. Each keeps the name of the dense identity it stands for,
# which the suite's rows evaluate, but reads the route's factors in T's
# coordinates (see _FrameAnalysis). A tie binds every result gated on its
# square to that square's route: the minimum-norm results, the series and
# the canonical dual apply T+ through the very factors W, Sigma, V it reads.
# T's own factors need no self-check here: every analysis holds their
# certificate against its tolerance before reading them (_FrameAnalysis.f_t).
_SELF_CHECKS = {
    **{name: (route, partial(check, x)) for x, (route, names, _, _) in _SQUARES.items()
       for name, check in zip(names, (_square_pinv, _pinv_square))},
    **{names[2]: (route, partial(_pinv_tie, x)) for x, (route, names, _, _) in _SQUARES.items()},
}

# the names of the three deviations in FrameSequence._certificate
_CERTIFICATE = ("T = W Sigma V*", "W* W = I", "V* V = I")


class _per_call:
    """A method read as an attribute: formed on the first read and stored in
    the instance's own __dict__, where every later read finds it as a plain
    attribute. The standard library's cached property does the same, but
    before Python 3.12 it holds one lock per attribute, shared by every
    instance, so reads on different frames would wait on each other."""

    def __init__(self, func: Callable):
        self.func = func

    def __set_name__(self, owner, name: str) -> None:
        self.name = name

    def __get__(self, instance, owner=None):
        if instance is None:
            return self
        value = instance.__dict__[self.name] = self.func(instance)
        return value


class _FrameAnalysis:
    """Every operator and factorization of one frame under one tolerance.

    T is the frame's stored matrix, and f_t is the frame's own factors of T
    (FrameSequence._svd) cut under this tolerance's rank_rel, read once their
    certificate holds under it: the residual |T - W Sigma V*| / sigma_1 and the
    orthonormality of W and V (FrameSequence._certificate), each at most
    identity_abs, else NumericalError names it. Every result that reads T's
    factors, the bounds and the classification among them, reads them
    certified. f_s and f_g are the frame's own factors of S and G
    (FrameSequence._s_svd and _g_svd), each taken independently of T's, their
    spectra cut at T's cutoff squared (see matrix_core._truncated). The
    frame keeps each route's cut by rank_rel, all the cut reads besides the
    frame (FrameSequence._cut), so a call at the rank_rel of the last cut
    cuts nothing, copies nothing and counts no ranks; the certificate is
    still held against every call's identity_abs before f_t is read.
    The analysis is one object per call, and keeps what it reads once per
    call (f_t, f_s, f_g, the bounds, the classification, the bundle and the
    dual) in its own attributes (see _per_call), behind no lock.
    G = U U* is factored through U = Q1 R1 as Q1 (R1 R1*) Q1*, an SVD of the
    min(n, m) square core, not of the m x m G.

    The gate checks S and G on their n x r and m x r factors L, lambda, R in
    T's coordinates, never on dense operators, and checks both squares the
    same way (see _SQUARES): Y is T's kept singular vectors on the square's
    side, W for S and V for G. 'X X+ = proj' ('S S+ = P', 'G G+ = Q')
    measures how far X R / lambda is from L (G R_g formed as U (T R_g),
    never from G), and 'X+ X = proj' how far R is from Y (Y* R); both are
    scaled by kappa(X) = |X| |X+| = lambda_1 / lambda_r of their route (see
    spectral_norm). X's T+ tie ('T+ = T* S+', 'T+ = G+ T*') is checked as
    the r x r identity Sigma^-1 (Y* L) = Sigma (Y* R) lambda^-1, which
    reuses Y* R and is scaled by sigma_1 / lambda_r. So no gate forms P, Q,
    S+ or G+: they are formed only where a result returns or reports them. S
    and G's core square the frame's entries, and an entry that overflows
    raises NumericalError naming the operator. U = T* gets no SVD of its
    own: its SVD is T's with the sides swapped, so the U route (Q and U+)
    reads T's factors. The canonical dual is U+ = (T+)* = W Sigma^-1 V*, and
    its FrameSequence is handed the frame's factors inverted (see
    _dual_factors), so the dual's analysis factors nothing; its certificate
    and self-checks still hold them to the dual's own T~, S~ and U~. T's
    kept rank fixes every bit of U+, so the frame keeps one dual, by that
    rank (its "dual" slot): a call at that rank returns it once the
    certificate and the gate on T and its smaller square hold under the
    call's tolerance, and a call at another rank forms its own and replaces
    it. A call that raises keeps nothing. The kept dual keeps its own
    factors and deviations.

    The gate first checks that the routes agree in rank. Once it holds, T's
    kept rank and the route's fix every operand a self-check reads: the
    truncated factors, S, U, T and the spectral norms. So the frame keeps
    each self-check's deviation in the slot (check name, rank) (see
    FrameSequence._keep), and a kept deviation has the bits a recomputed one
    would. A gate runs, in _SELF_CHECKS's order, the checks whose route it
    reads, and each kept deviation is read with one lookup. The verdict is
    not kept: each call holds the deviation against its own identity_abs. A
    check that raises keeps nothing, so it raises again on every call.

    A gate whose checks have all held under a rank_rel, T's certificate
    among them, leaves its summary on the frame, tagged with that rank_rel
    (see gate): the routes' cuts and their worst deviation. So on a warm
    call, a call on a frame whose gate has held under the call's rank_rel,
    the gate compares one kept number, the worst deviation, with the call's
    identity_abs, and on success sets the cuts as the analysis's f_t, f_s or
    f_g: it reads no certificate row, no rank and no single deviation.
    Where the worst exceeds identity_abs, it walks the checks again; they
    read only the kept certificate, cuts and deviations, so the walk forms
    nothing and raises the NumericalError a fresh frame's walk raises,
    naming the same first failing check. The bounds read T's cut and
    tightness_rel alone, so the frame keeps them by both; each call still
    holds T's certificate against its own identity_abs before it reads
    them.

    Operators are read by the paper's names, a["S+"] (see _OPERATORS); a
    name "~X" reads X from the analysis of the canonical dual, `dual`.
    Everything derived is computed at most once and kept in one dict: the
    operators by name, their Frobenius norms (see norm) and the deviation of
    each identity (see deviation). Spectral norms are read off the route
    factors (see spectral_norm). The identity suite's rows read the analysis
    directly. An operator or product that numpy cannot allocate raises
    AllocationError naming it (see _unallocated).
    """

    def __init__(self, frame: FrameSequence, tol: Tolerance | None = None):
        self.frame = frame
        self.tol = _tolerance(tol)
        # operators by name, norms by ("norm", name), deviations by identity
        self._formed = {}

    def __getitem__(self, name: str) -> np.ndarray:
        if name.startswith("~"):
            return self.dual[name[1:]]
        if name not in self._formed:
            try:
                self._formed[name] = _OPERATORS[name](self)
            except MemoryError as exc:
                raise _unallocated(f"operator {name}", exc)
        return self._formed[name]

    def norm(self, name: str) -> float:
        """Frobenius norm of the named operator, taken once (see matrix_core._norm)."""
        if name.startswith("~"):
            return self.dual.norm(name[1:])
        key = "norm", name
        if key not in self._formed:
            self._formed[key] = _norm(self[name])
        return self._formed[key]

    def _product(self, names: tuple):
        if not names:
            return 0.0
        out = self[names[0]]
        for name in names[1:]:
            try:
                out = out @ self[name]
            except MemoryError as exc:
                raise _unallocated(f"product {' '.join(names)}", exc)
        return out

    def deviation(self, identity) -> float:
        """Deviation of an identity, evaluated once.

        An identity is a triple (lhs, rhs, scale) of operator-name tuples.
        Each side is the product of its operators (none: the zero
        operator), and the residual is scaled by the Frobenius norms of the
        scale operators (see scaled_deviation).
        """
        if identity not in self._formed:
            lhs, rhs, scale = identity
            self._formed[identity] = _deviation(
                self._product(lhs), self._product(rhs), [self.norm(name) for name in scale])
        return self._formed[identity]

    @_per_call
    def f_t(self) -> SvdFactors:
        for name, dev in zip(_CERTIFICATE, self.frame._certificate):
            self._require(name, dev)
        return self.frame._cut("synthesis", self.tol, lambda: self.frame._svd)

    @_per_call
    def f_s(self) -> SvdFactors:
        return self.frame._cut("frame operator", self.tol, lambda: self.frame._s_svd)

    @_per_call
    def f_g(self) -> SvdFactors:
        return self.frame._cut("gram", self.tol, lambda: self.frame._g_svd(lambda: self["U"]))

    def spectral_norm(self, name: str) -> float:
        """Spectral norm of T, S, G (sigma_1) or T+, S+, G+ (1 / sigma_r), read off
        the route's own factors; 0 for a rank-0 route. 1 / sigma_r raises
        NumericalError naming the pseudoinverse where it overflows, as the
        pseudoinverse would."""
        factors = getattr(self, _FACTORED[name.rstrip("+")])
        if factors.rank == 0:
            return 0.0
        if name.endswith("+"):
            return _reciprocal_sigma_r(factors, name)
        return float(factors.singular_values[0])

    def gate(self, *routes: str) -> None:
        """Raise NumericalError unless T's certificate holds and the routes
        agree in rank and in each self-check on them, each deviation held
        against this call's identity_abs. A warm call compares the kept
        worst deviation alone, and walks the checks again only where it
        fails (see the class)."""
        cuts, worst = self.frame._keep(routes, partial(self._walk, routes), self.tol.rank_rel)
        if not worst <= self.tol.identity_abs:
            self._walk(routes)  # reads only kept values, and raises the first failing check
        vars(self).update(cuts)

    def _walk(self, routes: tuple) -> tuple:
        """The gate's checks in order: T's certificate (read with f_t), the
        routes' agreement in rank, then each self-check, its deviation taken
        once per frame and rank (see the class). Returns the gate summary
        once all have held: the cuts by attribute and the worst deviation."""
        # T's cut first, read once its certificate holds
        cuts = {_ROUTES[name]: getattr(self, _ROUTES[name]) for name in routes}
        ranks = [cut.rank for cut in cuts.values()]
        r = ranks[0]
        if ranks.count(r) != len(ranks):
            detail = ", ".join(f"{name} rank {rank}" for name, rank in zip(routes, ranks))
            raise NumericalError(
                f"rank thresholds disagree between operator routes ({detail}); S and G square "
                "T's singular values and resolve no sigma_r/sigma_1 below their resolution limit "
                f"sqrt(10 max(n, m) eps) = {math.sqrt(_gram_floor(max(self['T'].shape))):.3e}"
            )
        worst = max(self.frame._certificate)
        for name, (route, check) in _SELF_CHECKS.items():
            if route in routes:  # the routes agree in rank r
                dev = self.frame._keep((name, r), partial(check, self))
                self._require(name, dev)
                worst = max(worst, dev)
        return cuts, worst

    def _require(self, name: str, dev: float) -> None:
        """Raise NumericalError naming a self-check whose deviation exceeds identity_abs."""
        if not dev <= self.tol.identity_abs:  # a NaN deviation fails too
            raise NumericalError(
                f"operator bundle failed self-check '{name}': "
                f"deviation {dev:.3e} exceeds {self.tol.identity_abs:.3e}"
            )

    @_per_call
    def bundle(self) -> OperatorBundle:
        self.gate(*_ROUTES)
        return OperatorBundle(
            synthesis=_frozen(self["T"]),
            analysis=_frozen(self["U"]),
            frame_operator=_frozen(self["S"]),
            gram=_frozen(self["G"]),
            span_projector=_frozen(self["P"]),
            coefficient_projector=_frozen(self["Q"]),
            synthesis_pinv=_frozen(self["T+"]),
            frame_operator_pinv=_frozen(self["S+"]),
            gram_pinv=_frozen(self["G+"]),
            span_dim=self.f_t.rank,
            tol=self.tol,
        )

    @_per_call
    def bounds(self) -> FrameBounds:
        f_t = self.f_t
        if f_t.rank == 0:
            raise DegenerateSpanError("all vectors are numerically zero; bounds are undefined")
        # they read T's cut and tightness_rel alone, so the frame keeps them by both
        return self.frame._keep("bounds", lambda: _bounds_from_factors(f_t, self.tol),
                                (self.tol.rank_rel, self.tol.tightness_rel))

    @_per_call
    def classification(self) -> FrameClassification:
        r = self.f_t.rank
        m = self.frame.size
        n = self.frame.ambient_dim
        if r > 0:
            tight, parseval = self.bounds.tight, self.bounds.parseval
            redundancy = m / r
        else:
            tight = parseval = False
            redundancy = math.inf
        return FrameClassification(
            is_frame_for_space=(r == n),
            is_riesz_basis=(r == m),
            is_tight=tight,
            is_parseval=parseval,
            span_dim=r,
            redundancy=float(redundancy),
        )

    @_per_call
    def canonical_dual(self) -> FrameSequence:
        if self.f_t.rank == 0:
            raise DegenerateSpanError("a degenerate sequence has no canonical dual")
        self.gate("synthesis", _smaller_square(self.frame))
        # U+ = W Sigma^-1 V* is fixed by T's kept rank, so the frame keeps one
        # dual by that rank; a call at another rank forms its own and replaces it
        return self.frame._keep("dual", lambda: FrameSequence._from_matrix(
            self["U+"], _dual_factors(self.frame, self.f_t)), self.f_t.rank)

    @_per_call
    def dual(self) -> "_FrameAnalysis":
        """The canonical dual's analysis, under the same tolerance."""
        return _FrameAnalysis(self.canonical_dual, self.tol)


def _dual_factors(frame: FrameSequence, f_t: SvdFactors) -> dict:
    """The forms _from_matrix hands the canonical dual of T's cut f_t, of rank
    r, by factor slot. The dual's T~ = S+ T is U+ = W Sigma^-1 V*, its S~ =
    T~ T~* is S+ and its G~ = T~* T~ is G+, so each of its factors is the
    frame's of U, S or G at rank r, inverted (see _pinv_factors); none is
    formed until it is read. S's and G's are the frame's kept ones where it
    keeps them (the gate the dual is formed behind keeps those of T's
    smaller square), else formed from T on the dual's first read, as the
    frame forms its own, without a reference to the frame, so the frame and
    its kept dual never refer to each other."""
    r, t = f_t.rank, frame._matrix
    fresh = {"S factors": lambda: _phased_svd(_frame_operator_of(t)),
             "G factors": lambda: _gram_factors(adjoint(t))}
    squares = {slot: partial(_pinv_factors, frame._kept[slot][1], r) if slot in frame._kept
               else lambda form=form: _pinv_factors(form(), r) for slot, form in fresh.items()}
    return {"T factors": partial(_pinv_factors, _adjoint_factors(f_t), r), **squares}


def build_bundle(frame: FrameSequence, tol: Tolerance | None = None) -> OperatorBundle:
    """Construct every induced operator and verify their mutual consistency.

    T, S and G are each factored once per frame: S+ and G+ come from S's and
    G's own factors, P, Q and T+ from T's, read once their certificate holds. Rank
    decisions that disagree between the three routes, or self-check
    residuals above tol.identity_abs (or NaN), T's certificate among them,
    raise NumericalError: such a bundle would silently violate the relations
    everything downstream relies on. S and G keep T's rank decision squared
    (see Tolerance), so the routes disagree only past their resolution limit,
    sigma_r/sigma_1 below sqrt(10 max(n, m) eps), for any rank_rel >= 10 eps.
    """
    return _FrameAnalysis(frame, tol).bundle


def _bounds_from_factors(f_t: SvdFactors, tol: Tolerance) -> FrameBounds:
    sigma_max, sigma_min = f_t.singular_values[0], f_t.singular_values[f_t.rank - 1]
    with np.errstate(over="ignore"):
        upper, lower = float(sigma_max ** 2), float(sigma_min ** 2)
    # a subnormal A has lost bits, so it is refused like 0: 1/A <= 4.5e307
    if not (lower >= sys.float_info.min and upper < math.inf):
        raise NumericalError(
            f"the frame bounds leave the double range: sigma_max {sigma_max:.3e} and "
            f"sigma_min {sigma_min:.3e} square to {upper:.3e} and {lower:.3e}"
        )
    tight = upper / lower - 1.0 <= tol.tightness_rel
    parseval = tight and abs(lower - 1.0) <= tol.tightness_rel
    return FrameBounds(lower=lower, upper=upper, tight=tight, parseval=parseval)


def frame_bounds(frame: FrameSequence, tol: Tolerance | None = None) -> FrameBounds:
    """Optimal bounds A = 1/|T+|^2 and B = |T|^2 on the sequence's span.

    Every f in the span satisfies A |f|^2 <= sum |<f, f_k>|^2 <= B |f|^2,
    and no wider A or narrower B does. Raises DegenerateSpanError when the
    span is the zero subspace (no bounds exist), and NumericalError when a
    bound leaves the double range (its squared singular value is inf, or
    subnormal or 0, where it has lost bits)
    or when T's factors fail their certificate under tol.identity_abs (see
    FrameSequence), naming the failing check.
    """
    return _FrameAnalysis(frame, tol).bounds


def classify(frame: FrameSequence, tol: Tolerance | None = None) -> FrameClassification:
    """Classify the sequence; degenerate input is reported via flags, not errors.

    The verdict reads T's certified factors: NumericalError names the failing
    check when they fail their certificate under tol.identity_abs (see
    FrameSequence), and when a bound leaves the double range (see frame_bounds).
    """
    return _FrameAnalysis(frame, tol).classification


def canonical_dual(frame: FrameSequence, tol: Tolerance | None = None) -> FrameSequence:
    """Canonical dual sequence: vector k maps to S+ applied to vector k.

    The dual spans the same subspace, its optimal bounds are the reciprocals
    (1/upper, 1/lower) of the original's, and its own canonical dual is the
    original sequence again. It is formed as S+ T = (T+)* = W Sigma^-1 V*
    from T's certified kept factors, behind the gate on T and its smaller
    square, S where n <= m, else G (see build_bundle), so its error grows
    like eps kappa(T), not eps kappa(T)^2. The returned
    sequence is handed its factors of T, S and G, the frame's inverted, each
    formed on its first read: its own certificate and gate check them on
    first use, and no factorization of the dual is run. The
    frame keeps the dual, 16 n m bytes, by T's kept rank: every call that
    keeps the same rank returns that one object, once T's certificate and
    that gate hold under its own tol; a call that keeps another rank
    forms the dual afresh and keeps it in place of the first.
    """
    return _FrameAnalysis(frame, tol).canonical_dual


def restricted(frame: FrameSequence, tol: Tolerance | None = None) -> RestrictedOperators:
    """View the operators on the span V, where the frame operator is invertible.

    W's columns, T's kept left singular vectors, are an orthonormal basis of
    V. T's certificate holds T to W Sigma V* (see FrameSequence), so W* T =
    Sigma V*, and W* S W = diag(sigma^2), positive definite with condition
    number upper/lower, whose inverse diag(sigma^-2) realizes S's inversion
    on V. NumericalError names a failed check of the certificate, and refuses
    as frame_bounds does where sigma_1^2 overflows or sigma_r^2 is subnormal.
    """
    analysis = _FrameAnalysis(frame, tol)
    f_t = analysis.f_t
    if f_t.rank == 0:
        raise DegenerateSpanError("a degenerate sequence has no restriction to its span")
    analysis.bounds  # refuses a sigma_1^2 that overflows and a subnormal sigma_r^2
    sigma = f_t.singular_values
    analysis_res = f_t.right_vectors * sigma
    return RestrictedOperators(
        basis=_frozen(f_t.left_vectors.copy()),
        synthesis_res=_frozen(adjoint(analysis_res)),
        analysis_res=_frozen(analysis_res),
        frame_operator_res=_frozen(np.diag(sigma**2).astype(np.complex128)),
        frame_operator_res_inv=_frozen(np.diag(1.0 / sigma**2).astype(np.complex128)),
    )


def _pseudo_inverse(frame: FrameSequence, tol: Tolerance | None, route: str,
                    name: str) -> np.ndarray:
    """The pseudoinverse name from its route's own factors, behind the gate on
    T and that route, read after the classification (see pseudo_frame_operator)."""
    analysis = _FrameAnalysis(frame, tol)
    analysis.classification
    analysis.gate("synthesis", route)
    return analysis[name]


def pseudo_frame_operator(frame: FrameSequence, tol: Tolerance | None = None) -> np.ndarray:
    """Pseudoinverse S+ of the frame operator, from S's own factors behind the
    T/S gate (see build_bundle), tight frames included (there S+ = P / A, a
    row of the identity suite). A degenerate sequence yields the zero matrix.
    NumericalError where classify refuses the frame (a bound leaves the double
    range, or T's factors fail their certificate), where the gate refuses, or
    where 1/lambda_r overflows.
    """
    return _pseudo_inverse(frame, tol, "frame operator", "S+")


def pseudo_gram(frame: FrameSequence, tol: Tolerance | None = None) -> np.ndarray:
    """Pseudoinverse G+ of the gram matrix, from G's own factors behind the T/G
    gate (G+ = Q / A for a tight frame), refused as pseudo_frame_operator is.
    A degenerate sequence yields the zero matrix.
    """
    return _pseudo_inverse(frame, tol, "gram", "G+")


def _matrix_analysis(matrix, tol: Tolerance | None) -> _FrameAnalysis:
    """The analysis of a matrix's columns, checked by _matrix_view: the one path
    of the matrix helpers below, each certified as its matching entry point."""
    return _FrameAnalysis(FrameSequence._from_matrix(_matrix_view(matrix)), tol)


def _smaller_square(frame: FrameSequence) -> str:
    """The route of the smaller of T's two squares: S's where n <= m, else
    G's. Every gated result that reads only T's factors, T+ among them,
    gates on T and this route; one that returns or reads S+ or G+ gates on
    that square, and build_bundle and the suite on all three routes."""
    return "frame operator" if frame.ambient_dim <= frame.size else "gram"


def _square_gated(matrix, tol: Tolerance | None, name: str) -> np.ndarray:
    """The named operator behind the gate on the smaller of T's squares. It is
    formed first, so T+ refuses a 1/sigma_r that overflows by name before S or
    G, which square it to 0, disagree."""
    a = _matrix_analysis(matrix, tol)
    out = a[name]
    a.gate("synthesis", _smaller_square(a.frame))
    return out


def svd(matrix, tol: Tolerance | None = None) -> SvdFactors:
    """The matrix's rank-truncated SVD, T's factors as classify reads them: the
    phase convention of matrix_core._phased_svd, cut at rank_rel * max(rows,
    cols) * sigma_1, NumericalError where they fail their certificate."""
    return _matrix_analysis(matrix, tol).f_t


def pinv(matrix, tol: Tolerance | None = None) -> np.ndarray:
    """Moore-Penrose pseudoinverse, build_bundle's synthesis_pinv, from svd's
    factors behind the gate on the smaller square (S or G); 0 for a zero
    matrix. NumericalError where the routes disagree or 1 / sigma_r overflows."""
    return _square_gated(matrix, tol, "T+")


def range_projector(matrix, tol: Tolerance | None = None) -> np.ndarray:
    """Projector W W* onto the column space, build_bundle's span_projector, gated as pinv."""
    return _square_gated(matrix, tol, "P")


def numerical_rank(matrix, tol: Tolerance | None = None) -> int:
    """Count of singular values above the relative cutoff: svd's rank."""
    return _matrix_analysis(matrix, tol).f_t.rank


def op_norm(matrix) -> float:
    """Spectral norm, sigma_1 of svd's factors; 0.0 for 0. NumericalError where
    they fail their certificate under the default tolerance, which no tol loosens."""
    return _matrix_analysis(matrix, None).spectral_norm("T")
