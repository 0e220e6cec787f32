"""Minimum-norm analysis and synthesis problems, and the projection series.

Coefficient vectors live in the m-dimensional complex coefficient space
(one slot per frame vector) and are plain 1-D arrays. Signals live in the
n-dimensional ambient space. Inner products are linear in the first
argument: <x, y> = sum_j x_j * conj(y_j).

Each entry point gates on the frame routes it reads and returns what its
gate already checked: T+ from T's certified kept factors, which the T/S gate
holds against T* S+ in T's coordinates (so T+ f = (S+ T)* f and
(T+)* c = S+ T c), or an orthonormal basis of range(U) from the G route. It
then checks its defining identity by the gate's rule (frame_ops._deviation):
a residual beyond identity_abs, scaled by the norms that enter it
(matrix_core._norm), or NaN, raises NumericalError. The projectors are
applied through T's kept singular vectors, P f as W (W* f) and Q c as
V (V* c), never as n x n or m x m matrices. No result goes through S+ or G+
again, so its error grows with T's condition number, not with its square.
A product that a result or its check reads and that leaves the double range
raises NumericalError naming it, without an overflow warning.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateSpanError, NumericalError
from .frame_ops import FrameSequence, _deviation, _FrameAnalysis, _in_range
from .matrix_core import Tolerance, _norm, as_vector

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


def _check(a: _FrameAnalysis, what: str, lhs: np.ndarray, rhs: np.ndarray,
           v: np.ndarray, x: np.ndarray | None = None) -> None:
    """Refuse unless lhs = rhs within identity_abs, the residual scaled by
    |v| + |T| |x| for an identity whose sides carry v and, when x is given, T or
    U applied to x: rounding grows with the norms that enter the identity."""
    # the scale is taken 2^64 smaller and _deviation multiplies it back without
    # overflow, so a scale past the double range still refuses a wrong result
    lift = 2.0**64
    scale = _norm(v, 1.0 / lift) + (0.0 if x is None else _norm(x, a.spectral_norm("T") / lift))
    dev = _deviation(lhs, rhs, [scale, lift])
    if not dev <= a.tol.identity_abs:
        raise NumericalError(
            f"reconstruction self-check '{what}' deviates by {dev:.3e}, "
            f"beyond {a.tol.identity_abs:.3e}"
        )


def _range_part(basis: np.ndarray, x: np.ndarray) -> np.ndarray:
    """basis (basis* x): x projected onto the span of basis's orthonormal columns."""
    return basis @ (basis.conj().T @ x)


def _applied(what: str, form, x: np.ndarray) -> np.ndarray:
    """form(), the product `what` of an input or result x that a result or its
    check reads, computed without an overflow warning. Where x is finite and an
    entry of the product overflows, NumericalError names the product. A
    non-finite x, a result that itself left the double range, is passed on,
    and the check it enters refuses it."""
    if np.isfinite(x).all():
        return _in_range(what, form)
    return _result(form)


def _result(form) -> np.ndarray:
    """form(), a result such as T+ f, computed without an overflow warning: one
    beyond the double range is passed on, and the checks it enters refuse it."""
    with np.errstate(over="ignore", invalid="ignore"):
        return form()


def _span_part(a: _FrameAnalysis, f: np.ndarray) -> np.ndarray:
    """P f, applied as W (W* f) from T's kept left singular vectors W."""
    return _applied("projection P f", lambda: _range_part(a.f_t.left_vectors, f), f)


def _solution(solution: np.ndarray, inside: np.ndarray, leftover: np.ndarray) -> MinNormSolution:
    """The solution, with |leftover| as residual and the squared norms split."""
    norms = _norm(inside), _norm(leftover)
    split = tuple(x * x for x in norms)
    for name, norm, square in zip(("inside", "leftover"), norms, split):
        if square == math.inf:
            raise NumericalError(
                f"norm_split's {name} component {norm:.3e} squares beyond the double range"
            )
    return MinNormSolution(solution=solution, residual_norm=norms[1], norm_split=split)


def _gated_analysis(frame: FrameSequence, tol: Tolerance | None, route: str) -> _FrameAnalysis:
    """The frame's analysis, gated on T and the one other route a result reads."""
    a = _FrameAnalysis(frame, tol)
    a.gate("synthesis", route)
    if a.f_t.rank == 0:
        raise DegenerateSpanError(
            "all vectors are numerically zero; reconstruction against a degenerate "
            "sequence is undefined"
        )
    return a


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
    a = _gated_analysis(frame, tol, "frame operator")
    f = as_vector(signal, frame.ambient_dim, name="signal")
    c0 = _result(lambda: a["T+"] @ f)
    projected = _span_part(a, f)
    _check(a, "T c0 = P f", _applied("product T c0", lambda: a["T"] @ c0, c0), projected, f, c0)
    q_c0 = _applied("projection Q c0", lambda: _range_part(a.f_t.right_vectors, c0), c0)
    _check(a, "Q c0 = c0", q_c0, c0, c0)
    return _solution(c0, projected, f - projected)


def min_norm_preimage(frame: FrameSequence, coefficients,
                      tol: Tolerance | None = None) -> MinNormSolution:
    """Smallest-norm signal whose analysis matches the coefficients' Q-part.

    The solution f0 = (T+)* c = S+ T c analyzes to U f0 = Q c, and every
    signal f with U f = Q c splits as |f|^2 = |f0|^2 + |f - f0|^2, so f0 is
    the unique minimizer. The residual reports |c - Q c|, the part of the
    input no signal can reach; Q c is applied as V (V* c) from T's kept
    right singular vectors V.
    """
    a = _gated_analysis(frame, tol, "frame operator")
    c = as_vector(coefficients, frame.size, name="coefficients")
    f0 = _result(lambda: a["T+"].conj().T @ c)
    q_part = _applied("projection Q c", lambda: _range_part(a.f_t.right_vectors, c), c)
    _check(a, "U f0 = Q c", _applied("product U f0", lambda: a["U"] @ f0, f0), q_part, c, f0)
    return _solution(f0, q_part, c - q_part)


def project_signal(frame: FrameSequence, signal,
                   tol: Tolerance | None = None) -> np.ndarray:
    """Project a signal onto the span via the dual-coefficient series.

    Evaluates sum_k <f, S+ f_k> f_k as T (T+ f), the synthesis of the dual
    coefficients, and checks the result against P f, applied as W (W* f) from
    T's kept left singular vectors W; the two routes must agree within
    tol.identity_abs (scaled by |f| + |T| |T+ f|).
    """
    a = _gated_analysis(frame, tol, "frame operator")
    f = as_vector(signal, frame.ambient_dim, name="signal")
    coefficients = _result(lambda: a["T+"] @ f)
    series = _applied("signal series T (T+ f)", lambda: a["T"] @ coefficients, coefficients)
    _check(a, "series equals P f", series, _span_part(a, f), f, coefficients)
    return series


def project_coefficients(frame: FrameSequence, coefficients,
                         tol: Tolerance | None = None) -> np.ndarray:
    """Project coefficients onto the analysis range via the gram route.

    Evaluates Q c = sum_k <c, G+ U f_k> e_k (e_k the k-th standard basis
    vector of the coefficient space) as V_g (V_g* c), with V_g the G route's
    orthonormal basis of range(U), and checks it against V (V* c) from T's
    kept right singular vectors. The T/G gate before it reads only G's
    m x r factors (see frame_ops._FrameAnalysis), so no m x m G, G+ or Q is
    formed.
    """
    a = _gated_analysis(frame, tol, "gram")
    c = as_vector(coefficients, frame.size, name="coefficients")
    series = _range_part(a.f_g.right_vectors, c)
    direct = _range_part(a.f_t.right_vectors, c)
    _check(a, "series equals Q c", series, direct, c)
    return series
