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
are data, products of those names. Each result is gated on the routes it
reads: T's factorization (which gives P, Q and T+) must agree with S's or
G's, or with both for the whole bundle, else NumericalError. How G is
factored and its route checked without an m x m array is set out in
_FrameAnalysis.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import DegenerateSpanError, NumericalError
from .matrix_core import (
    DEFAULT_TOLERANCE,
    SvdFactors,
    Tolerance,
    _hermitize,
    _phased_svd,
    _projector,
    _reciprocal_sigma_r,
    _truncated,
    adjoint,
    as_vector,
    max_abs,
    pinv_from_factors,
    svd,
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
]


@dataclass(frozen=True, eq=False)
class FrameSequence:
    """A finite sequence of vectors in an n-dimensional complex space.

    The sequence may be linearly dependent, contain repeats, or even consist
    of zero vectors (a degenerate sequence with span dimension 0). It must
    contain at least one vector, and every vector must have exactly
    ambient_dim finite entries. The vectors are stored once, as the columns
    of one read-only (ambient_dim, m) matrix; each entry of `vectors` is a
    read-only view of its column. That matrix T is factored on first use,
    and its untruncated read-only factors (16 (n + m) min(n, m) bytes) serve
    every later call on the sequence, under whatever tolerance it passes.
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

    @classmethod
    def _from_matrix(cls, matrix: np.ndarray) -> "FrameSequence":
        """The sequence of an (n, m) matrix's columns, stored without splitting it."""
        matrix = np.array(matrix, dtype=np.complex128, order="C")
        finite = np.isfinite(matrix).all(axis=0)
        if not finite.all():
            raise ValueError(f"vector {int(np.argmin(finite))} entries must be finite")
        frame = cls.__new__(cls)
        object.__setattr__(frame, "ambient_dim", matrix.shape[0])
        frame._store(matrix)
        return frame

    @cached_property
    def _svd(self) -> SvdFactors:
        return _phased_svd(self._matrix)

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
        if not (isinstance(tail_energy, (int, float)) and math.isfinite(tail_energy)):
            raise ValueError("tail_energy must be a finite number")
        if tail_energy < 0.0:
            raise ValueError("tail_energy cannot be negative")
        return cls.from_vectors(vectors, ambient_dim), float(tail_energy)


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

    A floating-point product carries absolute error on the order of
    eps * prod(|factor|), so the residual is divided by max(1, that product)
    to stay comparable with identity_abs across well and badly scaled inputs.
    """
    return _deviation(lhs, rhs, [float(np.linalg.norm(f)) for f in factors])


def _deviation(lhs, rhs, norms) -> float:
    """scaled_deviation with the factors' Frobenius norms already taken."""
    scale = 1.0
    for norm in norms:
        scale *= norm
    return max_abs(np.asarray(lhs) - np.asarray(rhs)) / max(1.0, scale)


def _frozen(arr: np.ndarray) -> np.ndarray:
    arr.setflags(write=False)
    return arr


# the factorization each route names, and the one each of T, S, G is read from
_ROUTES = {"synthesis": "f_t", "frame operator": "f_s", "gram": "f_g"}
_FACTORED = dict(zip("TSG", _ROUTES.values()))

# every operator the paper names, by how the analysis `a` forms it from T, the
# routes' factors and other entries; a[name] forms each at most once
_OPERATORS = {
    "T": lambda a: a.frame._matrix,
    "U": lambda a: adjoint(a["T"]),
    "S": lambda a: _in_range("frame operator S", lambda: a["T"] @ a["U"]),
    "G": lambda a: a["U"] @ a["T"],
    "P": lambda a: _projector(a.f_t.left_vectors),
    "Q": lambda a: _projector(a.f_t.right_vectors),
    "T+": lambda a: pinv_from_factors(a.f_t),
    # U = T* factors as T does, with the sides swapped
    "U+": lambda a: pinv_from_factors(SvdFactors(a.f_t.right_vectors, a.f_t.singular_values,
                                                 a.f_t.left_vectors, a.f_t.rank)),
    "S+": lambda a: pinv_from_factors(a.f_s),
    "G+": lambda a: pinv_from_factors(a.f_g),
    "T+*": lambda a: adjoint(a["T+"]),
    "I-P": lambda a: np.eye(a.frame.ambient_dim) - a["P"],
    "I-Q": lambda a: np.eye(a.frame.size) - a["Q"],
    "AP": lambda a: a.bounds.lower * a["P"],
    "AQ": lambda a: a.bounds.lower * a["Q"],
    "P/A": lambda a: _over_lower_bound(a, "P"),
    "Q/A": lambda a: _over_lower_bound(a, "Q"),
}


def _in_range(name: str, form) -> np.ndarray:
    """form(), a product that squares the frame's entries, computed without an
    overflow warning; NumericalError names the operator if an entry overflows."""
    with np.errstate(over="ignore", invalid="ignore"):
        out = form()
    if not np.isfinite(out).all():
        raise NumericalError(f"the {name} leaves the double range: an entry overflows")
    return out


def _over_lower_bound(a: "_FrameAnalysis", name: str) -> np.ndarray:
    """A projector divided by the lower bound A, the tight frames' S+ or G+.

    Like pinv_from_factors it raises NumericalError before dividing when
    1/A overflows, since the result's entries reach 1/A in modulus.
    """
    lower = a.bounds.lower
    if not 1.0 / lower < math.inf:
        raise NumericalError(
            f"the pseudoinverse leaves the double range: 1/A overflows for the lower bound "
            f"A {lower:.3e}"
        )
    return a[name] / lower


def _g_route_factors_g(a: "_FrameAnalysis") -> float:
    """'G G+ = Q' on G's m x r factors: G R_g / lambda_g = L_g, G R_g formed as U (T R_g)."""
    # kappa(G) = |G| |G+| first: it refuses a 1/lambda_r that overflows
    f_g, kappa = a.f_g, [a.spectral_norm("G"), a.spectral_norm("G+")]
    lifted = a["U"] @ (a["T"] @ f_g.right_vectors) / f_g.singular_values
    return _deviation(lifted, f_g.left_vectors, kappa)


def _g_route_spans_range_q(a: "_FrameAnalysis") -> float:
    """'G+ G = Q' on G's m x r factors: R_g = V (V* R_g), V T's kept right vectors."""
    r_g, v = a.f_g.right_vectors, a.f_t.right_vectors
    return _deviation(r_g, v @ (v.conj().T @ r_g),
                      [a.spectral_norm("G"), a.spectral_norm("G+")])


# the self-checks in gate order: the route each reads besides T's, and its
# identity (see _FrameAnalysis.deviation). 'T+ = T* S+' is what ties every
# T/S-gated reconstruction to S's route: the minimum-norm results and the
# signal series are read off T+ itself. The two gram checks keep their dense
# names but read G's factors (see _FrameAnalysis); the suite's
# gram_pinv_projector row evaluates the two identities densely
_SELF_CHECKS = {
    "S S+ = P": ("frame operator", (("S", "S+"), ("P",), ("S", "S+"))),
    "S+ S = P": ("frame operator", (("S+", "S"), ("P",), ("S+", "S"))),
    "G G+ = Q": ("gram", _g_route_factors_g),
    "G+ G = Q": ("gram", _g_route_spans_range_q),
    "T+ = T* S+": ("frame operator", (("T+",), ("U", "S+"), ("U", "S+"))),
    "P T = T": ("synthesis", (("P", "T"), ("T",), ("P", "T"))),
}


class _FrameAnalysis:
    """Every operator and factorization of one frame under one tolerance.

    T is the frame's stored matrix, and f_t truncates the frame's own
    factors of T (FrameSequence._svd) under this tolerance. S and G are each
    factored on first use, once per analysis, so every result is still
    checked against a factorization made in its own call. G = U U* is
    factored through U = Q1 R1 as Q1 (R1 R1*) Q1*, an SVD of the min(n, m)
    square core, not of the m x m G. G's two self-checks read its m x r
    factors L_g, lambda_g, R_g: 'G G+ = Q' measures how far G R_g / lambda_g
    (G R_g formed as U (T R_g), never from G) is from L_g, and 'G+ G = Q'
    how far R_g is from V (V* R_g), V T's kept right singular vectors; both
    are scaled by kappa(G) = |G| |G+| = lambda_1 / lambda_r (see
    spectral_norm), so the T/G gate forms no m x m array: dense G, G+ and Q
    are formed only where a result returns or reports them. S and G's core
    square the frame's entries, and an entry that overflows raises
    NumericalError naming the operator. U = T* gets no SVD of its own: its
    SVD is T's with the sides swapped, so the U route (Q and U+) reads T's
    factors.

    Operators are read by the paper's names, a["S+"] (see _OPERATORS); a
    name "~X" reads X from the analysis of the canonical dual, `dual`.
    Everything derived is computed at most once: the operators, their
    Frobenius norms (see norm) and the deviation of each identity (see
    deviation), the gate's self-checks among them. Spectral norms are read
    off the route factors (see spectral_norm). The identity suite's rows
    read the analysis directly.
    """

    def __init__(self, frame: FrameSequence, tol: Tolerance | None = None):
        self.frame = frame
        self.tol = tol or DEFAULT_TOLERANCE
        self._operators, self._norms, self._deviations = {}, {}, {}

    def __getitem__(self, name: str) -> np.ndarray:
        if name.startswith("~"):
            return self.dual[name[1:]]
        if name not in self._operators:
            self._operators[name] = _OPERATORS[name](self)
        return self._operators[name]

    def norm(self, name: str) -> float:
        """Frobenius norm of the named operator, taken once."""
        if name.startswith("~"):
            return self.dual.norm(name[1:])
        if name not in self._norms:
            self._norms[name] = float(np.linalg.norm(self[name]))
        return self._norms[name]

    def _product(self, names: tuple):
        if not names:
            return 0.0
        out = self[names[0]]
        for name in names[1:]:
            out = out @ self[name]
        return out

    def deviation(self, identity) -> float:
        """Deviation of an identity, evaluated once.

        An identity is the name of a self-check, a triple (lhs, rhs, scale)
        of operator-name tuples, or a function of the analysis that
        evaluates a check on factors (the gram self-checks). In a triple
        each side is the product of its operators (none: the zero
        operator), and the residual is scaled by the Frobenius norms of the
        scale operators (see scaled_deviation).
        """
        if isinstance(identity, str):
            identity = _SELF_CHECKS[identity][1]
        if identity not in self._deviations:
            if callable(identity):
                self._deviations[identity] = identity(self)
            else:
                lhs, rhs, scale = identity
                self._deviations[identity] = _deviation(
                    self._product(lhs), self._product(rhs), [self.norm(name) for name in scale])
        return self._deviations[identity]

    @cached_property
    def f_t(self) -> SvdFactors:
        return _truncated(self.frame._svd, self.tol)

    @cached_property
    def f_s(self) -> SvdFactors:
        return svd(self["S"], self.tol)

    @cached_property
    def f_g(self) -> SvdFactors:
        # Q1 is m x k and the core k x k, k = min(n, m); the lifted factors
        # are m x k, so _truncated's cutoff still scales with m
        q1, r1 = np.linalg.qr(self["U"])
        core = _phased_svd(_in_range("gram matrix G's core R1 R1*",
                                     lambda: _hermitize(r1 @ r1.conj().T)))
        left, right = (_frozen(q1 @ x) for x in (core.left_vectors, core.right_vectors))
        return _truncated(SvdFactors(left, core.singular_values, right, core.rank), self.tol)

    def spectral_norm(self, name: str) -> float:
        """Spectral norm of T, S, G (sigma_1) or T+, S+, G+ (1 / sigma_r), read off
        the route's own factors; 0 for a rank-0 route. 1 / sigma_r raises
        NumericalError where it overflows, as the pseudoinverse would."""
        factors = getattr(self, _FACTORED[name.rstrip("+")])
        if factors.rank == 0:
            return 0.0
        if name.endswith("+"):
            return _reciprocal_sigma_r(factors)
        return float(factors.singular_values[0])

    def gate(self, *routes: str) -> None:
        """Raise NumericalError unless the routes agree in rank and in each self-check on them."""
        ranks = {name: getattr(self, _ROUTES[name]).rank for name in routes}
        if len(set(ranks.values())) != 1:
            detail = ", ".join(f"{name} rank {r}" for name, r in ranks.items())
            raise NumericalError(
                "rank thresholds disagree between operator routes "
                f"({detail}); tighten rank_rel for sequences conditioned this badly"
            )
        for name, (route, identity) in _SELF_CHECKS.items():
            if {"synthesis", route} <= set(routes):
                dev = self.deviation(identity)
                if not dev <= self.tol.identity_abs:  # a NaN deviation fails too
                    raise NumericalError(
                        f"operator bundle failed self-check '{name}': "
                        f"deviation {dev:.3e} exceeds {self.tol.identity_abs:.3e}"
                    )

    @cached_property
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

    @cached_property
    def bounds(self) -> FrameBounds:
        if self.f_t.rank == 0:
            raise DegenerateSpanError("all vectors are numerically zero; bounds are undefined")
        return _bounds_from_factors(self.f_t, self.tol)

    @cached_property
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

    @cached_property
    def canonical_dual(self) -> FrameSequence:
        if self.f_t.rank == 0:
            raise DegenerateSpanError("a degenerate sequence has no canonical dual")
        self.gate("synthesis", "frame operator")
        return FrameSequence._from_matrix(self["S+"] @ self["T"])

    @cached_property
    def dual(self) -> "_FrameAnalysis":
        """The canonical dual's analysis, under the same tolerance."""
        return _FrameAnalysis(self.canonical_dual, self.tol)


def build_bundle(frame: FrameSequence, tol: Tolerance | None = None) -> OperatorBundle:
    """Construct every induced operator and verify their mutual consistency.

    T, S and G are each factored once: S+ and G+ come from S's and G's own
    factors, P, Q and T+ from T's. Rank decisions that disagree between the
    three routes, or self-check residuals above tol.identity_abs (or NaN),
    raise NumericalError: such a bundle would silently violate the relations
    everything downstream relies on. A rank-threshold disagreement usually
    means the sequence is conditioned beyond what rank_rel resolves; tighten
    rank_rel to keep the routes aligned.
    """
    return _FrameAnalysis(frame, tol).bundle


def _bounds_from_factors(f_t: SvdFactors, tol: Tolerance) -> FrameBounds:
    sigma_max, sigma_min = f_t.singular_values[0], f_t.singular_values[f_t.rank - 1]
    with np.errstate(over="ignore"):
        upper, lower = float(sigma_max ** 2), float(sigma_min ** 2)
    if not (lower > 0.0 and upper < math.inf):
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
    bound leaves the double range (its squared singular value is 0 or inf).
    """
    return _FrameAnalysis(frame, tol).bounds


def classify(frame: FrameSequence, tol: Tolerance | None = None) -> FrameClassification:
    """Classify the sequence; degenerate input is reported via flags, not errors."""
    return _FrameAnalysis(frame, tol).classification


def canonical_dual(frame: FrameSequence, tol: Tolerance | None = None) -> FrameSequence:
    """Canonical dual sequence: vector k maps to S+ applied to vector k.

    The dual spans the same subspace, its optimal bounds are the reciprocals
    (1/upper, 1/lower) of the original's, and its own canonical dual is the
    original sequence again. S+ is gated on T's factors (see build_bundle).
    """
    return _FrameAnalysis(frame, tol).canonical_dual


def restricted(frame: FrameSequence, tol: Tolerance | None = None) -> RestrictedOperators:
    """View the operators on the span V, where the frame operator is invertible.

    W's columns are the kept left singular vectors of T, an orthonormal basis
    of V. The restricted frame operator W* S W is Hermitian positive definite
    with condition number upper/lower; its inverse realizes S's inversion on V.
    """
    analysis = _FrameAnalysis(frame, tol)
    f_t = analysis.f_t
    if f_t.rank == 0:
        raise DegenerateSpanError("a degenerate sequence has no restriction to its span")
    w = f_t.left_vectors
    t_res = w.conj().T @ analysis["T"]
    u_res = adjoint(t_res)
    s_res = _hermitize(t_res @ u_res)
    try:
        s_res_inv = np.linalg.inv(s_res)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"restricted frame operator is numerically singular: {exc}") from exc
    return RestrictedOperators(
        basis=_frozen(w.copy()),
        synthesis_res=_frozen(t_res),
        analysis_res=_frozen(u_res),
        frame_operator_res=_frozen(s_res),
        frame_operator_res_inv=_frozen(s_res_inv),
    )


def _pseudo_inverse(frame: FrameSequence, tol: Tolerance | None, on_span: bool) -> np.ndarray:
    """S+ (on_span) or G+, with the tight fast path P / A or Q / A."""
    analysis = _FrameAnalysis(frame, tol)
    if analysis.classification.is_tight:
        return analysis["P/A" if on_span else "Q/A"]
    analysis.gate("synthesis", "frame operator" if on_span else "gram")
    return analysis["S+" if on_span else "G+"]


def pseudo_frame_operator(frame: FrameSequence, tol: Tolerance | None = None) -> np.ndarray:
    """Pseudoinverse of the frame operator, with a fast path for tight frames.

    For a tight sequence with common bound A the pseudoinverse is P / A, a
    rescaled projector; otherwise it comes from S's factorization, gated on T's.
    Both routes agree within tol.identity_abs on tight input. A degenerate
    sequence yields the zero matrix (the pseudoinverse of the zero operator).
    """
    return _pseudo_inverse(frame, tol, on_span=True)


def pseudo_gram(frame: FrameSequence, tol: Tolerance | None = None) -> np.ndarray:
    """Pseudoinverse of the gram matrix, with the same tight fast path.

    Tight sequences give Q / A; everything else goes through G's own
    factorization, gated on T's. A degenerate sequence yields the zero matrix.
    """
    return _pseudo_inverse(frame, tol, on_span=False)
