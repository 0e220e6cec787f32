"""A dense operator that does not fit in memory is refused with a typed error.

On a gaussian 4 x 200000 frame the m x m operators (G, G+, Q and their
products) need 596 GiB each, and on a 200000 x 4 frame S does. The analysis
turns the failed allocation into AllocationError, a FramekitError that is
also a MemoryError, naming the operator or product and numpy's allocation.
Nothing is sized in advance: the refusal is numpy's own failure, raised at
once, since the request exceeds any address space this suite runs in. The
generators refuse a size they cannot draw the same way.
"""

import pytest

from framekit import (
    GENERATOR_KINDS,
    AllocationError,
    FramekitError,
    GeneratorSpec,
    build_bundle,
    generate,
    pseudo_frame_operator,
    pseudo_gram,
    run_identity_suite,
)
from framekit.cli import EXIT_INPUT_ERROR, main
from framekit.frame_ops import _FrameAnalysis

ALLOCATE = r"does not fit in memory: Unable to allocate 596\. GiB .* \(200000, 200000\)"


@pytest.fixture(scope="module")
def wide():
    return generate(GeneratorSpec("gaussian", 4, 200000, 0))


@pytest.mark.parametrize("call, operator", [
    (build_bundle, "operator G"),
    (pseudo_gram, "operator G\\+"),
    (run_identity_suite, "operator G\\+"),
], ids=["build_bundle", "pseudo_gram", "run_identity_suite"])
def test_an_operator_past_memory_is_refused_by_name(wide, call, operator):
    with pytest.raises(AllocationError, match=f"^the {operator} {ALLOCATE}") as info:
        call(wide)
    assert isinstance(info.value, MemoryError) and isinstance(info.value, FramekitError)


def test_a_product_past_memory_is_refused_by_name(wide):
    # T+ T+* is m x m; formed first, it fails in the product, not in an operator
    with pytest.raises(AllocationError, match=f"^the product T\\+ T\\+\\* {ALLOCATE}"):
        _FrameAnalysis(wide).deviation((("T+", "T+*"), ("Q",), ()))


def test_a_tall_frame_operator_past_memory_is_refused_by_name():
    tall = generate(GeneratorSpec("gaussian", 200000, 4, 0))
    with pytest.raises(AllocationError, match=f"^the frame operator S {ALLOCATE}"):
        pseudo_frame_operator(tall)


def test_verify_exits_2_on_a_frame_whose_operators_do_not_fit(capsys):
    code = main(["verify", "--kind", "gaussian", "--n", "4", "--m", "200000"])
    err = capsys.readouterr().err
    assert code == EXIT_INPUT_ERROR
    assert err.startswith("error: the operator G+ does not fit in memory: Unable to allocate")
    assert "Traceback" not in err


@pytest.mark.parametrize("kind", GENERATOR_KINDS)
def test_generate_refuses_a_size_it_cannot_allocate(kind):
    # a 1e7 x 1e7 complex matrix is 1.4 PiB: the first draw fails at once
    target = 1e4 if kind == "ill_conditioned" else None
    with pytest.raises(AllocationError, match=(
            f"^the 10000000 x 10000000 {kind} frame does not fit in memory: "
            r"Unable to allocate 1\.42 PiB")) as info:
        generate(GeneratorSpec(kind, 10**7, 10**7, 0, target))
    assert isinstance(info.value, MemoryError) and isinstance(info.value, FramekitError)
