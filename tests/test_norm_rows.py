"""The two norm rows read every spectral norm from its operator's own SVD.

|T|, |S| and |G| are the largest singular values of the factorizations of
T, S and G, and |T+|, |S+| and |G+| are one over their smallest kept ones.
Each row's deviation must equal that relative gap, written out here from
svd() of T and S and from the gram route's own factors (G is factored
through U's QR, not by svd() of G), and stay within 1e-12 of the gap taken
from the spectral norms (op_norm) of the six assembled operators.
"""

import pytest

from framekit import (
    GENERATOR_KINDS,
    GeneratorSpec,
    Tolerance,
    build_bundle,
    generate,
    op_norm,
    run_identity_suite,
    svd,
)
from framekit.frame_ops import _FrameAnalysis


def frame_and_tol(kind, n, m, seed):
    if kind == "ill_conditioned":
        return (generate(GeneratorSpec(kind, n, m, seed, condition_target=1e4)),
                Tolerance(identity_abs=1e-6))
    return generate(GeneratorSpec(kind, n, m, seed)), Tolerance()


def gap(values):
    """Largest distance to the first value, relative to the largest value."""
    return max(abs(v - values[0]) for v in values[1:]) / max(values)


@pytest.mark.parametrize("n, m", [(4, 6), (16, 32)])
@pytest.mark.parametrize("kind", GENERATOR_KINDS)
def test_norm_rows_read_sigma_from_the_route_factors(kind, n, m):
    for seed in range(2):
        frame, tol = frame_and_tol(kind, n, m, seed)
        records = {r.name: r for r in run_identity_suite(frame, tol).records}
        b = build_bundle(frame, tol)
        t, s = (svd(op, tol).singular_values for op in (b.synthesis, b.frame_operator))
        g = _FrameAnalysis(frame, tol).f_g.singular_values
        from_factors = {
            "operator_norms_agree": gap([float(t[0]) ** 2, float(s[0]), float(g[0])]),
            "pinv_norms_agree": gap([float(1.0 / t[-1]) ** 2, float(1.0 / s[-1]), float(1.0 / g[-1])]),
        }
        from_op_norm = {
            "operator_norms_agree":
                gap([op_norm(b.synthesis) ** 2, op_norm(b.frame_operator), op_norm(b.gram)]),
            "pinv_norms_agree":
                gap([op_norm(b.synthesis_pinv) ** 2, op_norm(b.frame_operator_pinv),
                     op_norm(b.gram_pinv)]),
        }
        for name, expected in from_factors.items():
            assert records[name].deviation == expected, name
            assert abs(records[name].deviation - from_op_norm[name]) <= 1e-12, name
            assert records[name].passed, name
