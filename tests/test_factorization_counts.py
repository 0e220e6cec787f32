"""Each public call factors each operator at most once.

The counts below pin how many times each entry point calls np.linalg.svd
(rank-truncated factorizations and spectral norms alike). A rise means some
consumer stopped reading the shared per-call analysis and refactors a matrix
that was already factored. The norm counts pin the same for Frobenius norms,
which the analysis takes once per operator: each is one call of
matrix_core._dot_norm, and the suite's column norms one np.linalg.norm call
per block of a stream drawn afresh.
"""

import json

import numpy as np
import pytest

from framekit import cli, frame_ops, matrix_core, verifier
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
    numerical_rank,
    op_norm,
    pinv,
    polarization_check,
    project_coefficients,
    project_signal,
    pseudo_frame_operator,
    pseudo_gram,
    range_projector,
    restricted,
    run_identity_suite,
    svd,
)


def call_counter(monkeypatch, name, *more):
    """count(fn, *args) runs fn and returns how often it called np.linalg.<name>
    and the functions more names, as (module, name) pairs."""
    calls = []

    def counted(original):
        def counting(*args, **kwargs):
            calls.append(1)
            return original(*args, **kwargs)
        return counting

    for module, attr in ((np.linalg, name), *more):
        monkeypatch.setattr(module, attr, counted(getattr(module, attr)))

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
    # the suite keeps its streams' unit columns process-wide, so each test
    # starts from an empty cache and counts the column norms of fresh streams
    verifier._kept_samples.cache_clear()
    return call_counter(monkeypatch, "norm", (matrix_core, "_dot_norm"))


def frame_and_tol(kind):
    if kind == "ill_conditioned":
        return (generate(GeneratorSpec(kind, 4, 6, 3, condition_target=1e4)),
                Tolerance(identity_abs=1e-6))
    return generate(GeneratorSpec(kind, 4, 6, 3)), Tolerance()


@pytest.mark.parametrize("kind", ["gaussian", "tight", "rank_deficient", "duplicated",
                                  "ill_conditioned"])
def test_identity_suite_factors_frame_and_dual_once(svd_calls, kind):
    frame, tol = frame_and_tol(kind)
    # three SVDs (T, S, G) for the frame and none for its dual, which is
    # handed the frame's factors of U = T*, S and G inverted (its T~, S~ and
    # G~ are U+, S+ and G+); the spectral norms of T, S, G, T+, S+ and G+ are
    # read from the frame's three
    assert svd_calls(run_identity_suite, frame, tol) == 3


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


def test_restricted_reads_only_t_s_factors(monkeypatch):
    # W*T, W*SW and its inverse are Sigma V*, diag(sigma^2) and diag(sigma^-2):
    # a fresh frame runs T's one SVD, and a frame already seen no np.linalg
    # call, np.linalg.inv among them
    calls = []

    def recorded(name, original):
        def call(*args, **kwargs):
            calls.append(name)
            return original(*args, **kwargs)
        return call

    for name in np.linalg.__all__:
        original = getattr(np.linalg, name)
        if callable(original) and not isinstance(original, type):
            monkeypatch.setattr(np.linalg, name, recorded(name, original))
    frame, tol = frame_and_tol("gaussian")
    restricted(frame, tol)
    assert calls == ["svd"]
    calls.clear()
    restricted(frame, tol)
    assert calls == []


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
    # T and the one other route each result reads: S, which project_coefficients
    # reads as well where n <= m, as on this 4 x 6 frame
    frame, tol = frame_and_tol("gaussian")
    vec = frame.synthesis_matrix()[:, 0] if vector == "signal" else np.ones(frame.size)
    assert svd_calls(entry, frame, vec, tol) == 2


def test_coefficient_series_factors_only_the_smaller_square(monkeypatch):
    # a first call factors only T and the smaller square: the wide call S,
    # formed once through adjoint, and the tall call G's core, through one QR
    # of the analysis's U, which the check 'G G+ = Q' reads again. The frame
    # keeps every factor, so a call on a frame already seen factors nothing
    # and forms neither S nor U
    calls = {}

    def counting(module, name):
        original, log = getattr(module, name), calls.setdefault(name, [])

        def counted(*args, **kwargs):
            log.append(1)
            return original(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)

    counting(np.linalg, "svd")
    counting(np.linalg, "qr")
    counting(frame_ops, "adjoint")

    def counts(frame):
        for c in calls.values():
            c.clear()
        project_coefficients(frame, np.ones(frame.size))
        return {name: len(c) for name, c in calls.items()}

    wide = generate(GeneratorSpec("gaussian", 4, 6, 3))
    assert counts(wide) == {"svd": 2, "qr": 0, "adjoint": 1}  # T's SVD, and S formed once
    assert counts(wide) == {"svd": 0, "qr": 0, "adjoint": 0}
    tall = generate(GeneratorSpec("gaussian", 6, 4, 3))
    assert counts(tall) == {"svd": 2, "qr": 1, "adjoint": 1}
    assert counts(tall) == {"svd": 0, "qr": 0, "adjoint": 0}


@pytest.mark.parametrize("entry, length", [
    (min_norm_coefficients, "n"), (min_norm_preimage, "m"), (project_signal, "n"),
    (project_coefficients, "m"), (canonical_dual, None),
], ids=["min_norm_coefficients", "min_norm_preimage", "project_signal", "project_coefficients",
        "canonical_dual"])
@pytest.mark.parametrize("n, m", [(4, 6), (6, 4), (64, 16)])
def test_a_fresh_t_plus_call_factors_t_and_its_smaller_square(monkeypatch, entry, length, n, m):
    # every result that reads only T's factors gates on T and its smaller
    # square: S (n x n) where n <= m; else G's m x m core, after one QR of
    # the m x n U, so a tall call factors no n x n matrix
    inputs = {"svd": [], "qr": []}
    for name, log in inputs.items():
        def recording(matrix, *args, original=getattr(np.linalg, name), log=log, **kwargs):
            log.append(np.shape(matrix))
            return original(matrix, *args, **kwargs)
        monkeypatch.setattr(np.linalg, name, recording)
    frame = generate(GeneratorSpec("gaussian", n, m, 3))
    entry(frame, *([] if length is None else [np.ones(n if length == "n" else m)]))
    if n <= m:
        assert inputs == {"svd": [(n, m), (n, n)], "qr": []}
    else:
        assert inputs == {"svd": [(n, m), (m, m)], "qr": [(m, n)]}


@pytest.mark.parametrize("shape, gated", [((4, 6), (2, 0)), ((6, 4), (2, 1)),
                                          ((512, 16), (2, 1))])
@pytest.mark.parametrize("helper", [svd, numerical_rank, op_norm, pinv, range_projector])
def test_matrix_helper_factorization_counts(monkeypatch, helper, shape, gated):
    # svd, numerical_rank and op_norm read T's certified factors alone, as
    # classify does. pinv and range_projector also factor the smaller square
    # for their gate: S where n <= m; else G's core, after a QR of U
    svd_calls, qr_calls = (call_counter(monkeypatch, name) for name in ("svd", "qr"))
    t = generate(GeneratorSpec("gaussian", *shape, 3)).synthesis_matrix()
    expected = gated if helper in (pinv, range_projector) else (1, 0)
    assert (svd_calls(helper, t), qr_calls(helper, t)) == expected


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
    # the suite's 3; the sampling check and the verdict read its factors of T
    assert svd_calls(cli.main, ["verify", "--kind", "gaussian", "--format", "structured"]) == 3


@pytest.mark.parametrize("kind", ["gaussian", "tight", "rank_deficient", "duplicated",
                                  "ill_conditioned"])
def test_identity_suite_takes_each_norm_once(norm_calls, monkeypatch, kind):
    frame, tol = frame_and_tol(kind)
    # the gates read factors and take none; the rows take T, U, S, G, P, Q,
    # T+, S+ and G+ of the frame and T, U and S+ of its dual, then the 50
    # samples fill one block of each stream, and each block's unit columns
    # take one column-norm call
    assert norm_calls(run_identity_suite, frame, tol) == 14
    # a second suite reads both streams' kept unit columns
    assert norm_calls(run_identity_suite, frame, tol) == 12
    # each further block of each fresh stream takes one more
    monkeypatch.setattr(verifier, "_SAMPLE_BLOCK", 60)  # 10 samples a block at 4x6
    assert norm_calls(run_identity_suite, frame, tol) == 12 + 2 * 5


def test_polarization_check_draws_no_sample_block(norm_calls):
    # the T/G gate reads factors; U and T scale the tight gram identity and
    # G+ the tight gram pinv identity; the pairs are not unit vectors, and the
    # suite's streams are never drawn
    frame, tol = frame_and_tol("tight")
    assert norm_calls(polarization_check, frame, 10, tol) == 3


def test_build_bundle_takes_each_norm_once(norm_calls):
    frame, tol = frame_and_tol("gaussian")
    # every self-check reads route factors, scaled by spectral norms read
    # off them, and takes no Frobenius norm
    assert norm_calls(build_bundle, frame, tol) == 0


@pytest.mark.parametrize("kind", ["tight", "gaussian"])
@pytest.mark.parametrize("entry, expected", [
    (pseudo_frame_operator, (2, 0)),
    (pseudo_gram, (2, 1)),
], ids=["pseudo_frame_operator", "pseudo_gram"])
def test_pseudo_inverse_svd_counts(monkeypatch, entry, expected, kind):
    # T's SVD and the route's own: S's, or G's core after a QR of U; tight
    # frames take the same path
    svd_calls, qr_calls = (call_counter(monkeypatch, name) for name in ("svd", "qr"))
    # each count on a fresh frame: a second call on one frame factors nothing
    counts = svd_calls(entry, *frame_and_tol(kind)), qr_calls(entry, *frame_and_tol(kind))
    assert counts == expected


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


@pytest.mark.parametrize("kind, expected", [("gaussian", 37), ("tight", 41)])
def test_identity_suite_evaluates_each_identity_once(deviation_calls, kind, expected):
    # the six factored self-checks of the frame's gate and of the dual's,
    # then the 25 identities of the general rows, which evaluate the dense
    # forms of the gate's identities themselves; a tight frame adds the four
    # tight identities, which the polarization row reads again from the memo
    frame, tol = frame_and_tol(kind)
    assert deviation_calls(run_identity_suite, frame, tol) == expected


def test_build_bundle_evaluates_each_self_check_once(deviation_calls):
    frame, tol = frame_and_tol("gaussian")
    assert deviation_calls(build_bundle, frame, tol) == 6


def shape_log(monkeypatch):
    """The shapes each np.linalg.svd and np.linalg.qr call reads, by name."""
    inputs = {"svd": [], "qr": []}
    for name, log in inputs.items():
        def recording(matrix, *args, original=getattr(np.linalg, name), log=log, **kwargs):
            log.append(np.shape(matrix))
            return original(matrix, *args, **kwargs)
        monkeypatch.setattr(np.linalg, name, recording)
    return inputs


def test_a_dual_that_reads_g_first_leaves_it_factored_on_the_frame(monkeypatch):
    # the wide frame's canonical_dual gates T and S; the dual's G~ = G+ is the
    # frame's G inverted, factored on the dual's first read and kept on the
    # frame, so the frame's own bundle factors no G again
    inputs = shape_log(monkeypatch)
    frame = generate(GeneratorSpec("gaussian", 16, 32, 3))
    build_bundle(canonical_dual(frame))
    build_bundle(frame)
    assert inputs == {"svd": [(16, 32), (16, 16), (16, 16)], "qr": [(32, 16)]}


def test_a_dual_that_reads_s_first_leaves_it_factored_on_the_frame(monkeypatch):
    # the tall frame's canonical_dual gates T and G; the dual's S~ = S+ is the
    # frame's S inverted, so the suite on the frame factors its 64 x 64 S once
    inputs = shape_log(monkeypatch)
    frame = generate(GeneratorSpec("gaussian", 64, 16, 3))
    canonical_dual(frame)
    run_identity_suite(frame)
    assert inputs["svd"].count((64, 64)) == 1
    assert inputs == {"svd": [(64, 16), (16, 16), (64, 64)], "qr": [(16, 64)]}
