"""Minimum-norm analysis and synthesis problems, and the projection series.

Coefficient vectors live in the m-dimensional complex coefficient space
(one slot per frame vector) and are plain 1-D arrays. Signals live in the
n-dimensional ambient space. Inner products are linear in the first
argument: <x, y> = sum_j x_j * conj(y_j).

Each entry point reads T's factors alone, so each gates on T and T's smaller
square, S where n <= m and G where n > m (frame_ops._smaller_square), and
returns what its gate already checked: T+ applied through T's certified kept
factors W, Sigma, V, whose r x r form the gate holds against T* S+, or
against G+ T*, in T's coordinates (so T+ f = (S+ T)* f = G+ U f), or the
projection Q c = V (V* c) through the same V (see project_coefficients). The
gate reads the factors of T and that square and the self-check deviations
that the frame keeps, held against the call's own tolerance, so a call on a
frame already seen factors nothing. On a warm call, one on a frame whose
gate has held under the call's rank_rel, the gate compares one kept number,
the worst of its deviations (T's certificate rows among them), with
identity_abs and reads the kept rank cuts; where that worst exceeds
identity_abs, it raises what a fresh frame's gate raises (see
frame_ops._FrameAnalysis).

Each call is one prologue (_prologue: the gate, the one scan of the input,
which is both its finiteness check and its scale, and the one unit-scale
copy), its products, and one epilogue (_epilogue: the call's norms, its
checks, the scale-back and the result). The products run in place, and the
norms and checks run the steps every norm and check of the library runs, so
a warm call costs its matrix-vector products and a fixed handful of vector
operations. The epilogue checks the call's defining identity on its own
input, by the gate's rule (frame_ops._deviation): a residual beyond
identity_abs, scaled by the norms that enter it, or NaN, raises
NumericalError. Each norm is taken once, with matrix_core._norm's bits and
route choice (_routed_norm): from the two BLAS dots that np.linalg.norm runs
where no square can leave the double range, which the kept sigma_1 and
sigma_r decide, so no np.errstate is entered; else on _norm's scaled route.
T+ f is applied as V (Sigma^-1 (W* f)) and (T+)* c as W (Sigma^-1 (V* c)),
so the m x n T+ is never formed, and the projectors share the first product:
P f = W (W* f) and Q c = V (V* c), never n x n or m x m matrices. W* f and
V* c are applied as (f* W)* and (c* V)*, which conjugate the vector and read
the kept W and V in place, with no copy of either. U f0 is applied as
(f0* T)*, so no m x n U is formed either. No result goes through S+ or G+ again,
so its error grows with T's condition number, not with its square.

The operators are linear, so each entry point solves on its input scaled to
unit size, as LAPACK's xLASCL scales: it writes the input as x = 2^e u, e
the exponent of x's largest real or imaginary part (math.frexp), so every
part of u is below 1 in modulus and |u| < sqrt(2 dim); u = 2^-e x, taken
by ldexp, is the one copy of the input. It gates, solves and checks on u,
with no guard on any product. The invariant that makes this
safe: after the gate, the square's 1/lambda_r = 1/sigma_r^2 is finite and
S, or G's core, is finite, so |T+ u| <= |u| / sigma_r < 2^513 sqrt(2 dim),
and the products T (T+ u) and U ((T+)* u) that the checks read stay within
kappa(T) |u|, which the square's rank cutoff keeps below 2^537 |u|
(kappa(S) = kappa(G) = kappa(T)^2 < 1 / min(rank_rel dim, 10 dim eps)); the
series V (V* u) is at most |u|, and sigma_1 < 2^512, so T u and
T (V (V* u)) stay below 2^512 |u|.
The result and residual_norm are scaled back by 2^e and norm_split by 2^2e;
a value that leaves the double range raises NumericalError naming it. Where
0 <= e <= 1000 and the result's norm, taken with the call's other norms,
rules out overflow, the result is multiplied by 2^e with no scan of it (see
_scaled_back). A result part or residual_norm that the scaling makes
subnormal with lost bits (2^-e (2^e u) != u) raises NumericalError too,
and an exact one, zero or subnormal, is returned. norm_split holds squares, which leave the normal range for any
input below about 2^-511 while the solution is still exact; they are
rounded to the nearest double there, as ldexp rounds. So result(2^k x) =
2^k result(x) bit for bit wherever it is returned, and a verdict does not
depend on |x|.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateSpanError, NumericalError
from .frame_ops import FrameSequence, _deviation, _FrameAnalysis, _smaller_square
from .matrix_core import Tolerance, _dot_norm, _routed_norm, _vector_peak

__all__ = [
    "MinNormSolution",
    "min_norm_coefficients",
    "min_norm_preimage",
    "project_signal",
    "project_coefficients",
]


@dataclass(frozen=True, eq=False)
class MinNormSolution:
    """Solution of a minimum-norm problem plus its orthogonal bookkeeping.

    solution       the minimizer (coefficient vector or signal)
    residual_norm  distance from the input to the subspace where the problem
                   is solvable exactly: |f - Pf| for signals, |c - Qc| for
                   coefficient input
    norm_split     squared norms of the input's component inside that
                   subspace and of the leftover; the two sum to the input's
                   squared norm
    """

    solution: np.ndarray
    residual_norm: float
    norm_split: tuple

    def __post_init__(self) -> None:
        a, b = self.norm_split
        if a < 0.0 or b < 0.0:
            raise ValueError("norm_split components must be nonnegative")


def _scaled(what: str, part: float, k: int) -> float:
    """2^k part, for one part computed from the unit input: the rule that
    _scaled_back holds every part to. NumericalError names what where the
    part leaves the double range, or where the scaling is inexact: the part
    became subnormal and lost bits, which only k < 0 can do. An exact part,
    zero or subnormal, is returned."""
    try:
        out = math.ldexp(part, k)
    except OverflowError:
        out = math.inf
    if not abs(out) < math.inf:  # NaN too
        raise NumericalError(f"{what} leaves the double range: an entry overflows")
    if math.ldexp(out, -k) != part:  # scaling up is exact wherever it stays finite
        raise NumericalError(f"{what} underflows: {part:.3e} * 2^{k} "
                             "lies below the normal range and loses bits")
    return out


def _scaled_back(what: str, values: np.ndarray, k: int, bound: float) -> np.ndarray:
    """2^k values, for real or complex values computed from the unit input,
    each part held to _scaled's rule. values is the call's own result, so
    the route below that multiplies scales it in place.

    bound is |values|, which the caller has taken (matrix_core._norm), so no
    part reaches 2^(b + 1) for b = frexp(bound)'s exponent; the margin covers
    the norm's rounding. Where 0 <= k <= 1000 (2^k stays a double) and
    b + k < 1023, no part can reach 2^1023 and 2^k values is exact: it is
    multiplied out with no scan of the result. Every other k, and an inf or
    NaN bound (whose frexp exponent reads 0), take the checked route: one
    scan finds the first part that _scaled refuses, a non-finite one before
    one that lost bits, and _scaled refuses it."""
    parts = values.view(np.float64)
    if 0 <= k <= 1000 and bound < math.inf and math.frexp(bound)[1] + k < 1023:
        parts *= 2.0**k
        return values
    with np.errstate(over="ignore"):
        out = np.ldexp(parts, k)
    refused = ~np.isfinite(out)
    if k < 0 and not refused.any():
        refused = np.ldexp(out, -k) != parts
    if refused.any():
        _scaled(what, float(parts[np.argmax(refused)]), k)
    return out.view(values.dtype)


def _prologue(frame: FrameSequence, tol: Tolerance | None, values, length: int,
              name: str) -> tuple:
    """(a, u, e, W, Sigma, V): the call's analysis, gated on T and T's smaller
    square, the input x as (u, e) with x = 2^e u, and the gate's kept cut of
    T's factors, the only factors the call's products read. e is the
    exponent of x's largest real or imaginary part, taken by the one scan
    that is also x's finiteness check, so every part of u, the one copy of x,
    is below 1 in modulus."""
    a = _FrameAnalysis(frame, tol)
    a.gate("synthesis", _smaller_square(frame))
    if a.f_t.rank == 0:
        raise DegenerateSpanError(
            "all vectors are numerically zero; reconstruction against a degenerate "
            "sequence is undefined"
        )
    x, peak = _vector_peak(values, length, name)
    e = math.frexp(peak)[1]
    return (a, np.ldexp(x.view(np.float64), -e).view(np.complex128), e, a.f_t.left_vectors,
            a.f_t.singular_values, a.f_t.right_vectors)


def _epilogue(a: _FrameAnalysis, s: np.ndarray, e: int, what: str, result: np.ndarray,
              terms: tuple, checks: tuple):
    """The result `what` of the unit input u, checked and scaled back by 2^e,
    for the gate's kept cut of T with singular values s.

    terms are (x, factor, ...) for |u|, |T| |z| and |result|, z the vector
    that T or U is applied to in the first of checks, and, for a
    minimum-norm solution, for |part| and |u - part|, part the input's
    component that the solution reproduces. Each x is a fresh 1-D complex128
    vector, and factor |x| takes matrix_core._norm's bits by _norm's own
    route choice (_routed_norm) from the plain |x|, np.linalg.norm's two
    BLAS dots (_dot_norm), taken outside np.errstate. No vector exceeds
    2 |u| max(1, |T|) |T+|, with |u| < sqrt(2 len(u)), so no dot can leave
    the double range, and warn, unless sigma_r is tiny; there every norm
    takes the scaled route, which cannot overflow.

    Each check (name, lhs, rhs) is then held to identity_abs in order by
    _deviation's rule, the first scaled by |u| + |T| |z|, a second by
    |result|: the largest entry modulus of lhs - rhs over the scale's
    mantissa and exponent, floored at 1. The result is scaled back, or
    refused, by _scaled_back, bounded by its norm. A minimum-norm solution is
    returned as a MinNormSolution: its residual is |u - part|, scaled back by
    _scaled's rule, and its split the squares of |part| and |u - part| scaled
    by 2^2e. A split component is refused where its square leaves the double
    range, and is rounded where it falls below the normal range: the squares
    of any input below about 2^-511 do, although the solution and residual
    are exact there. The residual cannot overflow unless the split does: its
    square is the leftover component."""
    dots = math.sqrt(len(terms[0][0])) * max(1.0, s.item(0)) * 2.0**-505 < s.item(-1)
    norms = []
    for x, *factors in terms:
        plain = _dot_norm(x) if dots else math.nan  # NaN takes the scaled route
        norms += [_routed_norm(x, plain, factor) for factor in factors]
    norm_u, norm_tz, bound, *split = norms
    for (name, lhs, rhs), scale in zip(checks, (norm_u + norm_tz, bound)):
        dev = _deviation(lhs, rhs, (scale,))
        if not dev <= a.tol.identity_abs:
            raise NumericalError(f"reconstruction self-check '{name}' deviates by {dev:.3e}, "
                                 f"beyond {a.tol.identity_abs:.3e}")
    result = _scaled_back(what, result, e, bound)
    if not split:
        return result
    squares = []
    for name, norm in zip(("inside", "leftover"), split):
        try:  # ldexp rounds a square below the normal range
            square = math.ldexp(norm * norm, 2 * e)
        except OverflowError:
            square = math.inf
        if not square < math.inf:
            raise NumericalError(f"norm_split's {name} component {norm:.3e} * 2^{e} "
                                 "squares beyond the double range")
        squares.append(square)
    return MinNormSolution(result, _scaled("residual_norm", split[1], e), tuple(squares))


def min_norm_coefficients(frame: FrameSequence, signal,
                          tol: Tolerance | None = None) -> MinNormSolution:
    """Smallest-norm coefficients reproducing the signal's component in the span.

    The solution c0 = T+ f has entries <f, S+ f_k>; it satisfies T c0 = P f,
    lies in the range of the analysis operator (Q c0 = c0), and among all
    coefficient vectors with the same synthesis it has strictly minimal norm.
    For f in the span, T c0 = f exactly and the residual is zero. P f is
    applied as W (W* f) from T's kept left singular vectors W, and the
    residual and norm split are read from it.
    """
    a, f, e, w, s, v = _prologue(frame, tol, signal, frame.ambient_dim, "signal")
    coordinates = np.conjugate(f.conj() @ w)
    c0, projected = v @ (coordinates / s), w @ coordinates
    return _epilogue(a, s, e, "the minimum-norm solution T+ f", c0,
                     ((f, 1.0), (c0, s.item(0), 1.0), (projected, 1.0),
                      (f - projected, 1.0)),
                     (("T c0 = P f", frame._matrix @ c0, projected),
                      ("Q c0 = c0", v @ np.conjugate(c0.conj() @ v), c0)))


def min_norm_preimage(frame: FrameSequence, coefficients,
                      tol: Tolerance | None = None) -> MinNormSolution:
    """Smallest-norm signal whose analysis matches the coefficients' Q-part.

    The solution f0 = (T+)* c = S+ T c analyzes to U f0 = Q c, and every
    signal f with U f = Q c splits as |f|^2 = |f0|^2 + |f - f0|^2, so f0 is
    the unique minimizer. The residual reports |c - Q c|, the part of the
    input no signal can reach; Q c is applied as V (V* c) from T's kept
    right singular vectors V.
    """
    a, c, e, w, s, v = _prologue(frame, tol, coefficients, frame.size, "coefficients")
    coordinates = np.conjugate(c.conj() @ v)
    f0, q_part = w @ (coordinates / s), v @ coordinates
    # U f0 = T* f0, so no m x n U is formed
    return _epilogue(a, s, e, "the minimum-norm solution (T+)* c", f0,
                     ((c, 1.0), (f0, s.item(0), 1.0), (q_part, 1.0),
                      (c - q_part, 1.0)),
                     (("U f0 = Q c", np.conjugate(f0.conj() @ frame._matrix), q_part),))


def project_signal(frame: FrameSequence, signal,
                   tol: Tolerance | None = None) -> np.ndarray:
    """Project a signal onto the span via the dual-coefficient series.

    Evaluates sum_k <f, S+ f_k> f_k as T (T+ f), the synthesis of the dual
    coefficients, and checks the result against P f, applied as W (W* f) from
    T's kept left singular vectors W; the two routes must agree within
    tol.identity_abs (scaled by |f| + |T| |T+ f|).
    """
    a, f, e, w, s, v = _prologue(frame, tol, signal, frame.ambient_dim, "signal")
    coordinates = np.conjugate(f.conj() @ w)
    dual = v @ (coordinates / s)
    series = frame._matrix @ dual
    return _epilogue(a, s, e, "the signal series T (T+ f)", series,
                     ((f, 1.0), (dual, s.item(0)), (series, 1.0)),
                     (("series equals P f", series, w @ coordinates),))


def project_coefficients(frame: FrameSequence, coefficients,
                         tol: Tolerance | None = None) -> np.ndarray:
    """Project coefficients onto the analysis range: Q c = sum_k <c, G+ U f_k> e_k.

    e_k is the k-th standard basis vector of the coefficient space. Q c is
    applied as V (V* c) from T's certified kept right singular vectors V, the
    Q c that min_norm_preimage reports. T Q c = W Sigma V* c is the part of
    T c in the kept span, so the result is checked as T Q c = P T c, its
    residual scaled by |c| + |T| |c|; a rank_rel that cuts drops the same
    W_perp Sigma_perp V_perp* c from both sides. P is applied as W (W* x)
    through T's kept left singular vectors W, and where r = n, P = I is not
    applied. The call gates on the smaller of T's two squares, as every
    result here does: on S's route where n <= m, on G's where n > m. Either
    gate pins V: the T/S gate ties W and Sigma to S, and the certificate
    (T = W Sigma V*, V* V = I) then pins V; the T/G gate's 'G+ G = Q' ties V
    to G directly. No m x m G, G+ or Q is formed.
    """
    a, c, e, w, s, v = _prologue(frame, tol, coefficients, frame.size, "coefficients")
    series = v @ np.conjugate(c.conj() @ v)
    synthesized = frame._matrix @ c
    if a.f_t.rank < frame.ambient_dim:  # P = I where r = n
        synthesized = w @ np.conjugate(synthesized.conj() @ w)
    return _epilogue(a, s, e, "the coefficient series Q c", series,
                     ((c, 1.0, s.item(0)), (series, 1.0)),
                     (("T Q c = P T c", frame._matrix @ series, synthesized),))
