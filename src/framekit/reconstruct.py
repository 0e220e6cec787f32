"""Minimum-norm analysis and synthesis problems, and the projection series.

Coefficient vectors live in the m-dimensional complex coefficient space
(one slot per frame vector) and are plain 1-D arrays. Signals live in the
n-dimensional ambient space. Inner products are linear in the first
argument: <x, y> = sum_j x_j * conj(y_j).

Each entry point gates on the frame routes it reads and returns what its
gate already checked: T+ from T's kept factors, which the T/S gate holds
against T* S+ (so T+ f = (S+ T)* f and (T+)* c = S+ T c), or an orthonormal
basis of range(U) from the G route. It then checks its defining identity: a
residual beyond tolerance, or NaN, raises NumericalError. No result goes
through S+ or G+ again, so its error grows with T's condition number, not
with its square.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateSpanError, NumericalError
from .frame_ops import FrameSequence, _FrameAnalysis
from .matrix_core import Tolerance, as_vector, max_abs

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


def _require(condition_dev: float, limit: float, what: str) -> None:
    if not condition_dev <= limit:
        raise NumericalError(
            f"reconstruction self-check '{what}' deviates by {condition_dev:.3e}, "
            f"beyond {limit:.3e}"
        )


def _norm(v: np.ndarray, factor: float = 1.0) -> float:
    """factor * |v|_2, taken on v scaled by its largest entry.

    np.linalg.norm squares the entries, so it overflows from entries of
    about 1.3e154 on even when the norm itself is in range. The factor is
    applied to the scale first, so a product in range stays finite even
    when |v| is not.
    """
    scale = max_abs(v)
    if not 0.0 < scale < math.inf:
        return factor * scale
    return factor * scale * float(np.linalg.norm(v / scale))


def _limit(a: _FrameAnalysis, v: np.ndarray) -> float:
    """Residual ceiling for an identity applied to the input v: identity_abs * max(1, |v|)."""
    return max(a.tol.identity_abs, _norm(v, a.tol.identity_abs))


def _range_part(basis: np.ndarray, x: np.ndarray) -> np.ndarray:
    """basis (basis* x): x projected onto the span of basis's orthonormal columns."""
    return basis @ (basis.conj().T @ x)


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
    For f in the span, T c0 = f exactly and the residual is zero.
    """
    a = _gated_analysis(frame, tol, "frame operator")
    f = as_vector(signal, frame.ambient_dim, name="signal")
    c0 = a["T+"] @ f
    projected = a["P"] @ f
    limit = _limit(a, f)
    _require(max_abs(a["T"] @ c0 - projected), limit, "T c0 = P f")
    _require(max_abs(_range_part(a.f_t.right_vectors, c0) - c0), limit, "Q c0 = c0")
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
    f0 = a["T+"].conj().T @ c
    q_part = _range_part(a.f_t.right_vectors, c)
    _require(max_abs(a["U"] @ f0 - q_part), _limit(a, c), "U f0 = Q c")
    return _solution(f0, q_part, c - q_part)


def project_signal(frame: FrameSequence, signal,
                   tol: Tolerance | None = None) -> np.ndarray:
    """Project a signal onto the span via the dual-coefficient series.

    Evaluates sum_k <f, S+ f_k> f_k as T (T+ f), the synthesis of the dual
    coefficients, and checks the result against the projector matrix P
    applied to f; the two routes must agree within tol.identity_abs (scaled
    by the signal's norm).
    """
    a = _gated_analysis(frame, tol, "frame operator")
    f = as_vector(signal, frame.ambient_dim, name="signal")
    series = a["T"] @ (a["T+"] @ f)
    _require(max_abs(series - a["P"] @ f), _limit(a, f), "series equals P f")
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
    _require(max_abs(series - direct), _limit(a, c), "series equals Q c")
    return series
