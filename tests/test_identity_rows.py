"""Each registry row that is an operator identity reports the written-out deviation.

The suite evaluates those rows from operand names, the dense forms of the
gate's factored self-checks among them. Here every such row is restated as a
direct scaled_deviation over the public bundles of the frame and of its
canonical dual, and the suite's record must equal it bit for bit.
"""

import numpy as np
import pytest

from framekit import (
    GENERATOR_KINDS,
    GeneratorSpec,
    SvdFactors,
    Tolerance,
    adjoint,
    build_bundle,
    canonical_dual,
    frame_bounds,
    generate,
    polarization_check,
    run_identity_suite,
    scaled_deviation,
    svd,
)
from framekit.matrix_core import _pinv_from_factors
from framekit.verifier import _REGISTRY


def analysis_pinv(b, tol):
    # U = T* factors as T does with the two sides swapped
    f = svd(b.synthesis, tol)
    return _pinv_from_factors(SvdFactors(f.right_vectors, f.singular_values,
                                         f.left_vectors, f.rank), "U+")


def direct(frame, tol):
    """Row name -> its deviation, each computed from scratch."""
    b = build_bundle(frame, tol)
    dual = canonical_dual(frame, tol)
    d = build_bundle(dual, tol)
    back = canonical_dual(dual, tol).synthesis_matrix()
    t, u, s, g = b.synthesis, b.analysis, b.frame_operator, b.gram
    p, q = b.span_projector, b.coefficient_projector
    tp, sp, gp = b.synthesis_pinv, b.frame_operator_pinv, b.gram_pinv
    up = analysis_pinv(b, tol)
    dev = scaled_deviation
    rows = {
        "pinv_synthesis_is_dual_analysis": dev(tp, d.analysis, (sp, t)),
        "pinv_analysis_is_dual_synthesis": dev(up, d.synthesis, (sp, t)),
        "pinv_synthesis_via_frame_operator": dev(tp, u @ sp, (u, sp)),
        "pinv_synthesis_adjoint_form": dev(adjoint(tp), sp @ t, (sp, t)),
        "frame_operator_pinv_as_product": dev(adjoint(tp) @ tp, sp, (tp, tp)),
        "pinv_analysis_via_gram": dev(up, t @ gp, (t, gp)),
        "gram_pinv_as_product": dev(tp @ adjoint(tp), gp, (tp, tp)),
        "pinv_synthesis_via_gram": dev(tp, gp @ u, (gp, u)),
        "frame_operator_pinv_projector": max(dev(s @ sp, p, (s, sp)), dev(sp @ s, p, (sp, s))),
        "gram_pinv_projector": max(dev(g @ gp, q, (g, gp)), dev(gp @ g, q, (gp, g))),
        "frame_operator_pinv_kills_complement":
            dev(sp @ (np.eye(b.ambient_dim) - p), np.zeros_like(p), (sp,)),
        "frame_operator_pinv_on_span": max(dev(sp @ p, sp, (sp, p)), dev(p @ sp, sp, (p, sp))),
        "gram_pinv_kills_complement": dev(gp @ (np.eye(b.size) - q), np.zeros_like(q), (gp,)),
        "gram_pinv_on_range": max(dev(gp @ q, gp, (gp, q)), dev(q @ gp, gp, (q, gp))),
        "analysis_intertwines": dev(u @ s, g @ u, (u, s)),
        "synthesis_intertwines": dev(s @ t, t @ g, (s, t)),
        "dual_reconstruction": max(dev(t @ d.analysis, p, (t, d.analysis)),
                                   dev(d.synthesis @ u, p, (d.synthesis, u))),
        "cross_dual_gram": dev(q, u @ d.synthesis, (u, d.synthesis)),
        "span_projector_fixes_vectors": dev(p @ t, t, (p, t)),
        "dual_involution": dev(back, t, (d.frame_operator_pinv, sp, t)),
    }
    a = frame_bounds(frame, tol).lower
    tight = {
        "tight_frame_operator": dev(s, a * p, (t, u)),
        "tight_gram": dev(g, a * q, (u, t)),
        "tight_frame_operator_pinv": dev(sp, p / a, (sp,)),
        "tight_gram_pinv": dev(gp, q / a, (gp,)),
    }
    return rows, tight


def frame_and_tol(kind, n, m, seed):
    if kind == "ill_conditioned":
        return (generate(GeneratorSpec(kind, n, m, seed, condition_target=1e4)),
                Tolerance(identity_abs=1e-6))
    return generate(GeneratorSpec(kind, n, m, seed)), Tolerance()


def test_every_identity_row_is_written_out_here():
    frame, tol = frame_and_tol("tight", 4, 6, 0)
    rows, tight = direct(frame, tol)
    # identity rows are tuples of identities; row kinds and sampled rows are not
    identity_rows = {name for name, _, _, check in _REGISTRY if isinstance(check, tuple)}
    assert identity_rows == set(rows) | set(tight)


@pytest.mark.parametrize("n, m", [(4, 6), (16, 32)])
@pytest.mark.parametrize("kind", GENERATOR_KINDS)
def test_identity_rows_equal_direct_deviations(kind, n, m):
    for seed in range(2):
        frame, tol = frame_and_tol(kind, n, m, seed)
        records = {r.name: r for r in run_identity_suite(frame, tol).records}
        rows, tight = direct(frame, tol)
        expected = dict(rows, **tight) if kind == "tight" else rows
        for name, deviation in expected.items():
            assert records[name].deviation == deviation, name
            assert records[name].tolerance == tol.identity_abs
        if kind == "tight":
            a = frame_bounds(frame, tol).lower
            for name in tight:
                assert records[name].detail == {"common_bound": a}
        else:
            assert not set(tight) & set(records)


@pytest.mark.parametrize("n, m", [(4, 6), (16, 32), (3, 7)])
def test_suite_polarization_equals_polarization_check(n, m):
    # the suite's row reuses the tight_gram and tight_gram_pinv deviations
    frame, tol = frame_and_tol("tight", n, m, 1)
    record = {r.name: r for r in run_identity_suite(frame, tol).records}["polarization"]
    assert record.to_dict() == polarization_check(frame, 50, tol).to_dict()
