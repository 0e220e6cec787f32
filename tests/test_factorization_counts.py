"""Each public call factors each operator at most once.

The counts below pin how many times each entry point calls np.linalg.svd
(rank-truncated factorizations and spectral norms alike). A rise means some
consumer stopped reading the shared per-call analysis and refactors a matrix
that was already factored. The np.linalg.norm counts pin the same for
Frobenius norms, which the analysis takes once per operator.
"""

import json

import numpy as np
import pytest

from framekit import cli, frame_ops
from framekit import (
    GeneratorSpec,
    Tolerance,
    bounds_vs_sampling,
    build_bundle,
    canonical_dual,
    classify,
    frame_bounds,
    generate,
    min_norm_coefficients,
    min_norm_preimage,
    polarization_check,
    project_coefficients,
    project_signal,
    pseudo_frame_operator,
    pseudo_gram,
    restricted,
    run_identity_suite,
)


def call_counter(monkeypatch, name):
    """count(fn, *args) runs fn and returns how often it called np.linalg.<name>."""
    calls = []
    original = getattr(np.linalg, name)

    def counting(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(np.linalg, name, counting)

    def count(fn, *args, **kwargs):
        calls.clear()
        fn(*args, **kwargs)
        return len(calls)

    return count


@pytest.fixture
def svd_calls(monkeypatch):
    return call_counter(monkeypatch, "svd")


@pytest.fixture
def norm_calls(monkeypatch):
    return call_counter(monkeypatch, "norm")


def frame_and_tol(kind):
    if kind == "ill_conditioned":
        return (generate(GeneratorSpec(kind, 4, 6, 3, condition_target=1e4)),
                Tolerance(identity_abs=1e-6))
    return generate(GeneratorSpec(kind, 4, 6, 3)), Tolerance()


@pytest.mark.parametrize("kind", ["gaussian", "tight", "rank_deficient", "duplicated",
                                  "ill_conditioned"])
def test_identity_suite_factors_frame_and_dual_once(svd_calls, kind):
    frame, tol = frame_and_tol(kind)
    # three SVDs (T, S, G) each for the frame and its dual; the spectral
    # norms of T, S, G, T+, S+ and G+ are read from the frame's three
    assert svd_calls(run_identity_suite, frame, tol) == 6


@pytest.mark.parametrize("entry, args, expected", [
    (bounds_vs_sampling, (100,), 1),
    (build_bundle, (), 3),
    (canonical_dual, (), 2),
    (frame_bounds, (), 1),
    (classify, (), 1),
    (restricted, (), 1),
])
def test_entry_point_svd_counts(svd_calls, entry, args, expected):
    frame, tol = frame_and_tol("gaussian")
    assert svd_calls(entry, frame, *args, tol=tol) == expected


def test_min_norm_coefficients_svd_count(svd_calls):
    # T and S: the result reads S+ and gates only on the routes it reads
    frame, tol = frame_and_tol("gaussian")
    signal = frame.synthesis_matrix()[:, 0]
    assert svd_calls(min_norm_coefficients, frame, signal, tol) == 2


@pytest.mark.parametrize("entry, vector", [
    (min_norm_preimage, "coefficients"),
    (project_signal, "signal"),
    (project_coefficients, "coefficients"),
])
def test_reconstruction_svd_counts(svd_calls, entry, vector):
    # T and the one other route each result reads: S, or G for project_coefficients
    frame, tol = frame_and_tol("gaussian")
    vec = frame.synthesis_matrix()[:, 0] if vector == "signal" else np.ones(frame.size)
    assert svd_calls(entry, frame, vec, tol) == 2


def test_polarization_check_svd_count(svd_calls):
    # T and G, the routes the check reads; S is never factored
    frame, tol = frame_and_tol("tight")
    assert svd_calls(polarization_check, frame, 10, tol) == 2


def test_cli_analyze_svd_count(svd_calls, tmp_path):
    # the classification and the bounds read one factorization of T
    frame, _ = frame_and_tol("gaussian")
    doc = tmp_path / "frame.json"
    doc.write_text(json.dumps({
        "ambient_dim": frame.ambient_dim,
        "vectors": [[[z.real, z.imag] for z in v] for v in frame.vectors],
    }))
    assert svd_calls(cli.main, ["analyze", str(doc), "--format", "structured"]) == 1


def test_cli_verify_svd_count(svd_calls, capsys):
    # the suite's 6; the sampling check and the verdict read its factors of T
    assert svd_calls(cli.main, ["verify", "--kind", "gaussian", "--format", "structured"]) == 6


@pytest.mark.parametrize("kind", ["gaussian", "tight", "rank_deficient", "duplicated",
                                  "ill_conditioned"])
def test_identity_suite_takes_each_norm_once(norm_calls, kind):
    frame, tol = frame_and_tol(kind)
    # T, U, S, P, S+ of the frame and of its dual (the bundles' dense
    # self-checks; the gram checks read G's factors), then the frame's G and
    # G+ (the gram_pinv_projector row), T+ and Q, and one column-norm call for
    # each of the two sample blocks
    assert norm_calls(run_identity_suite, frame, tol) == 16


def test_polarization_check_draws_no_sample_block(norm_calls):
    # T and P enter the T/G gate's dense self-check, U scales the tight
    # gram identity and G+ the tight gram pinv identity; the suite's sample
    # blocks are never drawn
    frame, tol = frame_and_tol("tight")
    assert norm_calls(polarization_check, frame, 10, tol) == 4


def test_build_bundle_takes_each_norm_once(norm_calls):
    frame, tol = frame_and_tol("gaussian")
    # T, U, S, P and S+ enter the four dense self-checks; the two gram
    # checks read G's factors and take no Frobenius norm
    assert norm_calls(build_bundle, frame, tol) == 5


@pytest.mark.parametrize("kind, expected", [("tight", 1), ("gaussian", 2)])
@pytest.mark.parametrize("entry", [pseudo_frame_operator, pseudo_gram])
def test_pseudo_inverse_svd_counts(svd_calls, entry, kind, expected):
    # tight sequences take the P/A or Q/A path from T's factors alone
    frame, tol = frame_and_tol(kind)
    assert svd_calls(entry, frame, tol) == expected


@pytest.fixture
def deviation_calls(monkeypatch):
    """count(fn, *args) runs fn and returns how many identity residuals it evaluated."""
    calls = []
    original = frame_ops._deviation

    def counting(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(frame_ops, "_deviation", counting)

    def count(fn, *args, **kwargs):
        calls.clear()
        fn(*args, **kwargs)
        return len(calls)

    return count


@pytest.mark.parametrize("kind, expected", [("gaussian", 33), ("tight", 37)])
def test_identity_suite_evaluates_each_identity_once(deviation_calls, kind, expected):
    # the six self-checks of the frame's gate and of the dual's, then the
    # 21 other identities of the general rows (gram_pinv_projector's two
    # dense ones among them); a tight frame adds the four tight identities,
    # which the polarization row reads again from the memo
    frame, tol = frame_and_tol(kind)
    assert deviation_calls(run_identity_suite, frame, tol) == expected


def test_build_bundle_evaluates_each_self_check_once(deviation_calls):
    frame, tol = frame_and_tol("gaussian")
    assert deviation_calls(build_bundle, frame, tol) == 6
