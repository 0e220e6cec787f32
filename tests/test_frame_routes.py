"""T is stored once and factored once; the U route reads T's factors.

U = T* has T's singular value decomposition with its two sides swapped, so
the bundle's Q and the suite's U+ are built from T's factors instead of a
second SVD. These tests hold both to an SVD of U itself, check that the
rank gate still compares T, S and G (the operators factored on their own),
and check that a frame keeps its vectors as the columns of one matrix.
"""

import numpy as np
import pytest

from framekit import (
    GENERATOR_KINDS,
    FrameSequence,
    GeneratorSpec,
    NumericalError,
    Tolerance,
    build_bundle,
    canonical_dual,
    generate,
    pinv,
    project_coefficients,
    range_projector,
    scaled_deviation,
)
from framekit.frame_ops import _FrameAnalysis


def frame_and_tol(kind, seed=3):
    if kind == "ill_conditioned":
        return (generate(GeneratorSpec(kind, 4, 6, seed, condition_target=1e4)),
                Tolerance(identity_abs=1e-6))
    return generate(GeneratorSpec(kind, 4, 6, seed)), Tolerance()


@pytest.mark.parametrize("seed", [0, 3])
@pytest.mark.parametrize("kind", GENERATOR_KINDS)
def test_coefficient_projector_matches_projector_of_analysis(kind, seed):
    frame, tol = frame_and_tol(kind, seed)
    bundle = build_bundle(frame, tol)
    reference = range_projector(bundle.analysis, tol)
    assert scaled_deviation(bundle.coefficient_projector, reference, (reference,)) <= 1e-12


@pytest.mark.parametrize("seed", [0, 3])
@pytest.mark.parametrize("kind", GENERATOR_KINDS)
def test_suite_analysis_pinv_matches_pinv_of_analysis(kind, seed):
    # normalized by |U+| like every identity check; at condition 1e4 the
    # entries of U+ reach 1e4, and so does their rounding
    frame, tol = frame_and_tol(kind, seed)
    a = _FrameAnalysis(frame, tol)
    reference = pinv(a["U"], tol)
    assert scaled_deviation(a["U+"], reference, (reference,)) <= 1e-12


def test_rank_disagreement_between_synthesis_and_frame_operator_raises():
    # sigma(T) reaches 1e-8, so sigma(S) = sigma(T)^2 falls below S's cutoff
    frame = generate(GeneratorSpec("ill_conditioned", 4, 6, 3, condition_target=1e8))
    with pytest.raises(NumericalError, match="synthesis rank 4, frame operator rank 3"):
        build_bundle(frame, Tolerance())


def test_frame_stores_one_read_only_matrix():
    frame = generate(GeneratorSpec("gaussian", 4, 6, 3))
    t = frame.synthesis_matrix()
    assert t.flags.c_contiguous and t.flags.writeable
    for k, v in enumerate(frame.vectors):
        assert not v.flags.writeable
        assert np.array_equal(v, t[:, k])
    # the bundle's T is the stored matrix itself, not a restacked copy, and
    # its holder cannot make it writable
    synthesis = build_bundle(frame).synthesis
    assert all(np.shares_memory(synthesis, v) for v in frame.vectors)
    with pytest.raises(ValueError):
        synthesis.setflags(write=True)


@pytest.mark.parametrize("kind", GENERATOR_KINDS)
def test_matrix_built_frames_equal_vector_built_ones(kind):
    frame, tol = frame_and_tol(kind)
    for built in (frame, canonical_dual(frame, tol)):
        t = built.synthesis_matrix()
        split = FrameSequence(ambient_dim=t.shape[0],
                              vectors=tuple(t[:, k] for k in range(t.shape[1])))
        assert built.ambient_dim == split.ambient_dim and built.size == split.size
        assert np.array_equal(t, split.synthesis_matrix())


def test_matrix_built_frame_names_its_first_non_finite_vector():
    t = np.ones((3, 4), dtype=complex)
    t[1, 2] = np.nan
    t[0, 3] = np.inf
    with pytest.raises(ValueError, match="^vector 2 entries must be finite$"):
        FrameSequence._from_matrix(t)


@pytest.mark.parametrize("kind", GENERATOR_KINDS)
def test_project_coefficients_matches_the_term_by_term_series(kind):
    frame, tol = frame_and_tol(kind)
    bundle = build_bundle(frame, tol)
    c = np.random.Generator(np.random.PCG64(5)).standard_normal(frame.size) + 0.5j
    weights = bundle.gram_pinv @ bundle.gram  # column k is G+ U f_k
    reference = np.array([np.vdot(weights[:, k], c) for k in range(frame.size)])
    out = project_coefficients(frame, c, tol)
    # the sums run in another order: allow rounding at the scale of the
    # factors, as every identity check does
    assert scaled_deviation(out, reference, (bundle.gram_pinv, bundle.gram, c)) <= 1e-14
