"""The matrix helpers read the certified analysis of a matrix's columns.

svd, numerical_rank and op_norm read T's factors once their certificate
holds, as classify and frame_bounds do; pinv and range_projector read T+ and
P behind the gate on the smaller of T's two squares, as project_coefficients
does: S's route where n <= m, G's where n > m. So each answers with the bits
that build_bundle gives the frame of the matrix's columns, and refuses where
the gate refuses.
"""

import numpy as np
import pytest

from framekit import (
    GENERATOR_KINDS,
    FrameSequence,
    GeneratorSpec,
    NumericalError,
    build_bundle,
    generate,
    numerical_rank,
    op_norm,
    pinv,
    range_projector,
    svd,
)


def identical(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("n, m", [(4, 6), (6, 4), (16, 32), (512, 16)])
@pytest.mark.parametrize("kind", GENERATOR_KINDS)
def test_the_helpers_answer_with_the_bundles_bits(kind, n, m, seed):
    ct = 1e4 if kind == "ill_conditioned" else None
    t = generate(GeneratorSpec(kind, n, m, seed, condition_target=ct)).synthesis_matrix()
    bundle = build_bundle(FrameSequence._from_matrix(t))
    assert identical(pinv(t), bundle.synthesis_pinv)
    assert identical(range_projector(t), bundle.span_projector)
    factors = svd(t)
    assert numerical_rank(t) == factors.rank == bundle.span_dim
    assert op_norm(t) == factors.singular_values[0]


@pytest.mark.parametrize("n, m, route, rank", [(16, 32, "frame operator", 13),
                                               (512, 16, "gram", 12)])
def test_pinv_and_range_projector_refuse_where_build_bundle_does(n, m, route, rank):
    # sigma(T) reaches 1e-8, so the squares' sigma(T)^2 falls below their
    # cutoff: the bare SVD answered T+ and P for columns whose routes
    # disagree in rank. The helpers gate on the smaller square, the bundle on both
    t = generate(GeneratorSpec("ill_conditioned", n, m, 0,
                               condition_target=1e8)).synthesis_matrix()
    refusal = rf"rank thresholds disagree between operator routes \(synthesis rank {min(n, m)}, " \
              rf"(frame operator rank {rank}, )?{route} rank {rank}"
    for call in (lambda: build_bundle(FrameSequence._from_matrix(t)),
                 lambda: pinv(t), lambda: range_projector(t)):
        with pytest.raises(NumericalError, match=refusal):
            call()
    # the ungated readers still answer: T's factors hold their certificate
    assert numerical_rank(t) == svd(t).rank == min(n, m)
    assert op_norm(t) > 0.0
