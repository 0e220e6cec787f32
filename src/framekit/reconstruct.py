"""Minimum-norm analysis and synthesis problems, and the projection series.

Coefficient vectors live in the m-dimensional complex coefficient space
(one slot per frame vector) and are plain 1-D arrays. Signals live in the
n-dimensional ambient space. Inner products are linear in the first
argument: <x, y> = sum_j x_j * conj(y_j).

Each entry point gates on the frame routes it reads and checks its defining
identity: a residual beyond tolerance, or NaN, raises NumericalError.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateSpanError, NumericalError
from .frame_ops import FrameSequence, _FrameAnalysis
from .matrix_core import Tolerance, adjoint, as_vector, max_abs

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


def _limit(a: _FrameAnalysis, v: np.ndarray) -> float:
    """Residual ceiling for an identity applied to the input v."""
    return a.tol.identity_abs * max(1.0, float(np.linalg.norm(v)))


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

    The solution c0 has entries <f, S+ f_k>; it satisfies T c0 = P f, lies in
    the range of the analysis operator (Q c0 = c0), and among all coefficient
    vectors with the same synthesis it has strictly minimal norm. For f in
    the span, T c0 = f exactly and the residual is zero.
    """
    a = _gated_analysis(frame, tol, "frame operator")
    f = as_vector(signal, frame.ambient_dim, name="signal")
    # column k of dual_cols is S+ f_k, the k-th canonical dual vector. The
    # dual matrix is formed on purpose: the matrix-vector form T* (S+ f)
    # raised the worst deviation/tolerance on 64x128 and 128x256 frames
    # from 0.0073 to 0.0257
    dual_cols = a.s_pinv @ a.t
    c0 = adjoint(dual_cols) @ f
    projected = a.p @ f
    limit = _limit(a, f)
    _require(max_abs(a.t @ c0 - projected), limit, "T c0 = P f")
    v = a.f_t.right_vectors  # Q = V V*, applied without forming the m x m Q
    _require(max_abs(v @ (v.conj().T @ c0) - c0), limit, "Q c0 = c0")
    residual = f - projected
    return MinNormSolution(
        solution=c0,
        residual_norm=float(np.linalg.norm(residual)),
        norm_split=(
            float(np.linalg.norm(projected) ** 2),
            float(np.linalg.norm(residual) ** 2),
        ),
    )


def min_norm_preimage(frame: FrameSequence, coefficients,
                      tol: Tolerance | None = None) -> MinNormSolution:
    """Smallest-norm signal whose analysis matches the coefficients' Q-part.

    The solution f0 = S+ T c analyzes to U f0 = Q c, and every signal f with
    U f = Q c splits as |f|^2 = |f0|^2 + |f - f0|^2, so f0 is the unique
    minimizer. The residual reports |c - Q c|, the part of the input no
    signal can reach.
    """
    a = _gated_analysis(frame, tol, "frame operator")
    c = as_vector(coefficients, frame.size, name="coefficients")
    f0 = a.s_pinv @ (a.t @ c)
    q_part = a.q @ c
    limit = _limit(a, c)
    _require(max_abs(a.u @ f0 - q_part), limit, "U f0 = Q c")
    leftover = c - q_part
    return MinNormSolution(
        solution=f0,
        residual_norm=float(np.linalg.norm(leftover)),
        norm_split=(
            float(np.linalg.norm(q_part) ** 2),
            float(np.linalg.norm(leftover) ** 2),
        ),
    )


def project_signal(frame: FrameSequence, signal,
                   tol: Tolerance | None = None) -> np.ndarray:
    """Project a signal onto the span via the dual-coefficient series.

    Evaluates sum_k <f, S+ f_k> f_k by direct summation in index order and
    checks the result against the projector matrix P applied to f; the two
    routes must agree within tol.identity_abs (scaled by the signal's norm).
    """
    a = _gated_analysis(frame, tol, "frame operator")
    f = as_vector(signal, frame.ambient_dim, name="signal")
    # summed term by term on purpose: the matrix-vector form T (T* (S+ f))
    # raised the worst deviation/tolerance on 64x128 and 128x256 frames
    # from 0.0137 to 0.0164
    dual_cols = a.s_pinv @ a.t
    series = np.zeros(frame.ambient_dim, dtype=np.complex128)
    for k in range(frame.size):
        # <f, S+ f_k>: vdot conjugates its first argument
        series = series + np.vdot(dual_cols[:, k], f) * a.t[:, k]
    direct = a.p @ f
    _require(max_abs(series - direct), _limit(a, f), "series equals P f")
    return series


def project_coefficients(frame: FrameSequence, coefficients,
                         tol: Tolerance | None = None) -> np.ndarray:
    """Project coefficients onto the analysis range via the gram series.

    Evaluates sum_k <c, G+ U f_k> e_k (e_k the k-th standard basis vector of
    the coefficient space) and checks it against Q applied to c.
    """
    a = _gated_analysis(frame, tol, "gram")
    c = as_vector(coefficients, frame.size, name="coefficients")
    # series_k = <c, G+ U f_k> = conj((c* G+ G)_k), as two vector-matrix
    # products instead of forming the m x m product G+ G
    series = np.conj((c.conj() @ a.g_pinv) @ a.g)
    direct = a.q @ c
    _require(max_abs(series - direct), _limit(a, c), "series equals Q c")
    return series
