"""CLI behaviour, exercised in-process through main(argv), and in fresh
interpreters where a report must match a cold process's."""

import json
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest

from framekit import (
    DEFAULT_TOLERANCE,
    GENERATOR_KINDS,
    FrameSequence,
    GeneratorSpec,
    Tolerance,
    bounds_vs_sampling,
    canonical_dual,
    classify,
    frame_bounds,
    generate,
    run_identity_suite,
)
from framekit.cli import (
    EXIT_DEGENERATE,
    EXIT_INPUT_ERROR,
    EXIT_OK,
    EXIT_VERIFICATION_FAILED,
    main,
)


def pair(z):
    return [float(np.real(z)), float(np.imag(z))]


def write_doc(path, ambient_dim, vectors, **extra):
    doc = {
        "ambient_dim": ambient_dim,
        "vectors": [[pair(z) for z in v] for v in vectors],
    }
    doc.update(extra)
    path.write_text(json.dumps(doc))
    return str(path)


@pytest.fixture
def triple_doc(tmp_path):
    return write_doc(tmp_path / "triple.json", 2,
                     [[1, 0], [0, 1], [1, 1]])


@pytest.fixture
def zero_doc(tmp_path):
    return write_doc(tmp_path / "zero.json", 2, [[0, 0], [0, 0]])


# -------------------------------------------------------------------- analyze

def test_analyze_text_report(triple_doc, capsys):
    assert main(["analyze", triple_doc]) == EXIT_OK
    out = capsys.readouterr().out
    assert "frame for space: yes" in out
    assert "riesz basis: no" in out
    assert "redundancy: 1.5" in out
    assert "lower bound: 1" in out


def test_analyze_structured_report(triple_doc, capsys):
    assert main(["analyze", triple_doc, "--format", "structured"]) == EXIT_OK
    doc = json.loads(capsys.readouterr().out)
    assert doc["command"] == "analyze"
    assert doc["span_dim"] == 2
    assert doc["vector_count"] == 3
    assert doc["frame_for_space"] is True
    assert doc["bounds"]["lower"] == pytest.approx(1.0)
    assert doc["bounds"]["upper"] == pytest.approx(3.0)


def test_analyze_structured_keys_are_sorted(triple_doc, capsys):
    main(["analyze", triple_doc, "--format", "structured"])
    out = capsys.readouterr().out

    def check_sorted(pairs):
        keys = [k for k, _ in pairs]
        assert keys == sorted(keys)
        return dict(pairs)

    json.loads(out, object_pairs_hook=check_sorted)


def test_analyze_degenerate_reports_without_strict(zero_doc, capsys):
    assert main(["analyze", zero_doc, "--format", "structured"]) == EXIT_OK
    doc = json.loads(capsys.readouterr().out)
    assert doc["degenerate"] is True
    assert doc["bounds"] is None
    assert doc["redundancy"] is None


def test_analyze_degenerate_strict_exits_3(zero_doc, capsys):
    assert main(["analyze", zero_doc, "--strict"]) == EXIT_DEGENERATE


# ----------------------------------------------------------------------- dual

def test_dual_output_round_trips_as_input(triple_doc, tmp_path, capsys):
    assert main(["dual", triple_doc]) == EXIT_OK
    out = capsys.readouterr().out
    dual_doc = json.loads(out)
    assert dual_doc["ambient_dim"] == 2
    assert len(dual_doc["vectors"]) == 3
    # the dual of the dual is the original triple
    back = tmp_path / "dual.json"
    back.write_text(out)
    assert main(["dual", str(back)]) == EXIT_OK
    again = json.loads(capsys.readouterr().out)
    originals = [[[1, 0], [0, 0]], [[0, 0], [1, 0]], [[1, 0], [1, 0]]]
    for got, want in zip(again["vectors"], originals):
        assert np.allclose(got, want, atol=1e-9)


def test_dual_degenerate_exits_3(zero_doc, capsys):
    assert main(["dual", zero_doc]) == EXIT_DEGENERATE
    assert "dual" in capsys.readouterr().err


# ---------------------------------------------------------------- reconstruct

def test_reconstruct_from_signal(tmp_path, capsys):
    doc = write_doc(tmp_path / "r.json", 2, [[1, 0], [0, 1], [1, 1]],
                    signal=[[1, 0], [2, 0]])
    assert main(["reconstruct", doc, "--format", "structured"]) == EXIT_OK
    out = json.loads(capsys.readouterr().out)
    assert out["mode"] == "signal"
    assert np.allclose(out["coefficients"], [[0, 0], [1, 0], [1, 0]], atol=1e-9)
    assert out["residual_norm"] < 1e-12
    assert out["norm_split"][0] == pytest.approx(5.0)


def test_reconstruct_from_coefficients(tmp_path, capsys):
    doc = write_doc(tmp_path / "r.json", 2, [[1, 0], [0, 1]],
                    coefficients=[[3, 0], [0, 4]])
    assert main(["reconstruct", doc, "--format", "structured"]) == EXIT_OK
    out = json.loads(capsys.readouterr().out)
    assert out["mode"] == "coefficients"
    assert np.allclose(out["signal"], [[3, 0], [0, 4]], atol=1e-9)


def test_reconstruct_requires_exactly_one_payload(tmp_path, capsys):
    neither = write_doc(tmp_path / "n.json", 2, [[1, 0]])
    assert main(["reconstruct", neither]) == EXIT_INPUT_ERROR
    both = write_doc(tmp_path / "b.json", 2, [[1, 0]],
                     signal=[[1, 0], [0, 0]], coefficients=[[1, 0]])
    assert main(["reconstruct", both]) == EXIT_INPUT_ERROR
    assert "exactly one" in capsys.readouterr().err


def test_reconstruct_degenerate_exits_3(tmp_path, capsys):
    doc = write_doc(tmp_path / "z.json", 2, [[0, 0]], signal=[[1, 0], [0, 0]])
    assert main(["reconstruct", doc]) == EXIT_DEGENERATE


# --------------------------------------------------------------------- verify

@pytest.mark.parametrize("command", ["analyze", "dual", "reconstruct"])
def test_a_document_scaled_by_2_260_is_answered_without_a_warning(command, tmp_path, capsys):
    # the Frobenius norm of S, near 2^523, used to overflow while squaring
    # its entries, and dual and reconstruct printed numpy's overflow warning
    t = generate(GeneratorSpec("gaussian", 4, 6, 2)).synthesis_matrix() * 2.0**260
    doc = write_doc(tmp_path / "scaled.json", 4, list(t.T), signal=[[1, 0]] * 4)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main([command, doc]) == EXIT_OK
    err = capsys.readouterr().err
    assert "Traceback" not in err and "Warning" not in err


def test_verify_structured_passes(capsys):
    code = main(["verify", "--kind", "tight", "--n", "3", "--m", "6",
                 "--seed", "4", "--trials", "200", "--format", "structured"])
    assert code == EXIT_OK
    doc = json.loads(capsys.readouterr().out)
    assert doc["passed"] is True
    assert doc["tight"] is True
    names = [c["name"] for c in doc["checks"]]
    assert "rayleigh_sampling" in names
    assert len(names) == len(set(names))


def test_verify_text_lists_every_check(capsys):
    code = main(["verify", "--kind", "gaussian", "--seed", "2",
                 "--trials", "100"])
    assert code == EXIT_OK
    out = capsys.readouterr().out
    assert out.count("PASS ") >= 29  # 28 registry checks + sampling
    assert "verdict: PASS" in out
    assert "FAIL" not in out


def test_verify_is_byte_identical(capsys):
    args = ["verify", "--kind", "gaussian", "--seed", "5",
            "--trials", "300", "--format", "structured"]
    assert main(args) == EXIT_OK
    first = capsys.readouterr().out
    assert main(args) == EXIT_OK
    second = capsys.readouterr().out
    assert first == second


def test_verify_failure_exits_1(capsys):
    # demanding 1e-12 of a condition-1e6 ensemble must fail honestly
    code = main(["verify", "--kind", "ill_conditioned",
                 "--condition-target", "1e6", "--tol", "1e-12",
                 "--n", "5", "--m", "8", "--seed", "3", "--trials", "50"])
    assert code == EXIT_VERIFICATION_FAILED


def test_verify_scales_tolerance_for_conditioning(capsys):
    # defaults adapt to the condition target, so this passes unaided
    code = main(["verify", "--kind", "ill_conditioned",
                 "--condition-target", "1e6", "--n", "5", "--m", "8",
                 "--seed", "3", "--trials", "100", "--format", "structured"])
    assert code == EXIT_OK
    doc = json.loads(capsys.readouterr().out)
    assert doc["identity_abs"] == pytest.approx(1e-4)


def test_verify_scales_an_env_tolerance_by_the_condition_target(monkeypatch, capsys):
    monkeypatch.setenv("FRAMEKIT_TOL", "1e-9")
    code = main(["verify", "--kind", "ill_conditioned", "--condition-target", "1e4",
                 "--format", "structured"])
    assert code == EXIT_OK
    assert json.loads(capsys.readouterr().out)["identity_abs"] == 1e-9 * 1e4


def test_verify_rejects_bad_generator_request(capsys):
    code = main(["verify", "--kind", "duplicated", "--m", "1", "--seed", "0"])
    assert code == EXIT_INPUT_ERROR


@pytest.mark.parametrize("kappa", ["0", "-1", "inf", "nan"])
def test_verify_rejects_a_bad_condition_target_before_scaling_by_it(kappa, capsys):
    # the default tolerance is scaled by kappa; the target is checked first,
    # so the error names it and not a tolerance derived from it
    code = main(["verify", "--kind", "ill_conditioned", "--condition-target", kappa])
    err = capsys.readouterr().err
    assert code == EXIT_INPUT_ERROR
    assert "condition_target" in err
    assert "Traceback" not in err


def test_verify_keeps_the_default_rank_cutoff_for_a_huge_condition_target(capsys):
    # the condition target scales identity_abs only; rank_rel is not derived from it
    code = main(["verify", "--kind", "ill_conditioned", "--condition-target", "1e200",
                 "--format", "structured"])
    out, err = capsys.readouterr()
    assert code in (EXIT_OK, EXIT_VERIFICATION_FAILED)
    assert json.loads(out)["rank_rel"] == 1e-12
    assert "Traceback" not in err


def test_verify_refuses_a_bad_trial_count_before_the_suite(capsys):
    # the rank gate refuses this frame; the trial count is an input error
    # and is checked first
    code = main(["verify", "--kind", "ill_conditioned", "--condition-target", "1e12",
                 "--rank-rel", "1e-12", "--trials", "0"])
    assert code == EXIT_INPUT_ERROR
    assert "samples" in capsys.readouterr().err


def test_verify_refuses_a_size_it_cannot_allocate(capsys):
    # a 1e7 x 1e7 complex matrix is 1.4 PiB, past any address space, so the
    # first allocation fails at once
    code = main(["verify", "--kind", "tight", "--n", "10000000", "--m", "10000000"])
    err = capsys.readouterr().err
    assert code == EXIT_INPUT_ERROR
    assert err.startswith("error: the 10000000 x 10000000 tight frame does not fit in memory: "
                          "Unable to allocate")
    assert "Traceback" not in err


VERIFY_SPECS = [(kind, n, m) for kind in GENERATOR_KINDS for n, m in ((4, 6), (6, 4), (16, 32))]


@pytest.mark.parametrize("kind, n, m", VERIFY_SPECS,
                         ids=[f"{kind}-{n}x{m}" for kind, n, m in VERIFY_SPECS])
def test_verify_reports_the_public_calls(kind, n, m, monkeypatch, capsys):
    # verify runs run_identity_suite, bounds_vs_sampling and classify on the
    # generated frame, under the default tolerance scaled by the condition target
    monkeypatch.delenv("FRAMEKIT_TOL", raising=False)
    kappa = 1e4 if kind == "ill_conditioned" else None
    code = main(["verify", "--kind", kind, "--n", str(n), "--m", str(m), "--format", "structured"])
    doc = json.loads(capsys.readouterr().out)
    frame = generate(GeneratorSpec(kind, n, m, 0, condition_target=kappa))
    tol = Tolerance(identity_abs=DEFAULT_TOLERANCE.identity_abs * (kappa or 1.0))
    records = [*run_identity_suite(frame, tol).records, bounds_vs_sampling(frame, 1000, tol)]
    verdict = classify(frame, tol)
    assert doc["checks"] == [r.to_dict() for r in records]
    assert (doc["span_dim"], doc["tight"]) == (verdict.span_dim, verdict.is_tight)
    assert doc["passed"] == all(r.passed for r in records)
    assert code == (EXIT_OK if doc["passed"] else EXIT_VERIFICATION_FAILED)


@pytest.mark.parametrize("kind", ["gaussian", "tight"])
def test_analyze_reports_classify_and_frame_bounds(kind, tmp_path, capsys):
    frame = generate(GeneratorSpec(kind, 4, 6, 1))
    doc = write_doc(tmp_path / "frame.json", 4, frame.vectors)
    assert main(["analyze", doc, "--format", "structured"]) == EXIT_OK
    verdict, bounds = classify(frame), frame_bounds(frame)
    assert json.loads(capsys.readouterr().out) == {
        "command": "analyze",
        "ambient_dim": 4,
        "vector_count": 6,
        "span_dim": verdict.span_dim,
        "degenerate": verdict.is_degenerate,
        "frame_for_space": verdict.is_frame_for_space,
        "riesz_basis": verdict.is_riesz_basis,
        "tight": verdict.is_tight,
        "parseval": verdict.is_parseval,
        "redundancy": verdict.redundancy,
        "bounds": {"lower": bounds.lower, "upper": bounds.upper},
    }


# ------------------------------------------------------------ cold processes

def run_cold(*argv):
    """The stdout of `python -m framekit.cli argv` in a fresh interpreter, which
    must exit 0; a RuntimeWarning fails it."""
    proc = subprocess.run([sys.executable, "-m", "framekit.cli", *argv], capture_output=True,
                          env={**os.environ, "PYTHONWARNINGS": "error::RuntimeWarning"})
    assert proc.returncode == EXIT_OK, proc.stderr.decode()
    return proc.stdout


def doc_vectors(doc):
    """The document's vectors as an (m, n) complex array."""
    return np.array([[complex(*z) for z in v] for v in doc["vectors"]])


# specs A, B and C: in one process the later runs of A read the sample
# streams the earlier ones kept, and C's Rayleigh stream (2000 x 16
# entries) is over the per-stream limit and drawn on every run
KEPT_STREAM_SPECS = {
    "A": ["--kind", "tight", "--seed", "3"],
    "B": ["--kind", "gaussian", "--n", "16", "--m", "32", "--seed", "5"],
    "C": ["--kind", "gaussian", "--n", "16", "--m", "32", "--seed", "5", "--trials", "2000"],
}


def test_in_process_verify_runs_give_a_cold_processs_bytes(capsys):
    cold = {name: run_cold("verify", *argv, "--format", "structured")
            for name, argv in KEPT_STREAM_SPECS.items()}
    for name in "ABCAC":
        assert main(["verify", *KEPT_STREAM_SPECS[name], "--format", "structured"]) == EXIT_OK
        assert capsys.readouterr().out.encode() == cold[name], name


@pytest.fixture(scope="module")
def ill_frame_doc(tmp_path_factory):
    """The ill_conditioned 16x32 frame of kappa 1e4 and seed 0 as a document."""
    frame = generate(GeneratorSpec("ill_conditioned", 16, 32, 0, condition_target=1e4))
    return write_doc(tmp_path_factory.mktemp("ill") / "ill_frame.json", 16, frame.vectors)


@pytest.fixture(scope="module")
def ill_dual_doc(ill_frame_doc):
    """The canonical dual a cold process writes for ill_frame_doc."""
    path = os.path.join(os.path.dirname(ill_frame_doc), "ill_dual.json")
    with open(path, "wb") as handle:
        handle.write(run_cold("dual", ill_frame_doc, "--format", "structured"))
    return path


def test_the_dual_of_a_cold_processs_dual_is_the_frame(ill_frame_doc, ill_dual_doc):
    back = json.loads(run_cold("dual", ill_dual_doc, "--format", "structured"))
    with open(ill_frame_doc) as handle:
        t = doc_vectors(json.load(handle))
    assert np.abs(doc_vectors(back) - t).max() <= 1e-12 * np.abs(t).max()


def test_a_frames_kept_dual_has_the_bits_of_a_cold_processs_dual(ill_frame_doc, ill_dual_doc):
    # in one process, a second dual of a frame is the one the frame keeps,
    # with the bits of the dual that the CLI formed on a fresh frame
    with open(ill_frame_doc) as handle, open(ill_dual_doc) as dual_handle:
        doc, dual_doc = json.load(handle, parse_int=float), json.load(dual_handle, parse_int=float)
    frame = FrameSequence.from_vectors(list(doc_vectors(doc)), 16)
    first = canonical_dual(frame)
    assert canonical_dual(frame) is first
    assert np.array(first.vectors).tobytes() == doc_vectors(dual_doc).tobytes()


def test_a_cold_processs_coefficients_lie_within_kappa_of_lstsqs(ill_frame_doc, tmp_path):
    # reconstruct takes W* f as (f* W)*, a product whose BLAS call may differ
    # across Python and numpy versions: its coefficients must lie within
    # 1e-10 kappa max|c| of lstsq's on the same frame
    with open(ill_frame_doc) as handle:
        doc = json.load(handle)
    signal = np.random.default_rng(0).standard_normal((16, 2)) @ [1, 1j]
    path = tmp_path / "ill_signal.json"
    path.write_text(json.dumps({**doc, "signal": [[z.real, z.imag] for z in signal]}))
    out = json.loads(run_cold("reconstruct", str(path), "--format", "structured"), parse_int=float)
    c = np.array([complex(*z) for z in out["coefficients"]])
    gap = np.abs(c - np.linalg.lstsq(doc_vectors(doc).T, signal, rcond=None)[0]).max()
    assert gap <= 1e-10 * 1e4 * np.abs(c).max(), gap / np.abs(c).max()


# ----------------------------------------------------------- document errors

def test_invalid_json_names_the_line(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"ambient_dim": 2,\n  "vectors": [BOOM]}')
    assert main(["analyze", str(bad)]) == EXIT_INPUT_ERROR
    assert "line 2" in capsys.readouterr().err


def test_missing_file(capsys):
    assert main(["analyze", "no-such-file.json"]) == EXIT_INPUT_ERROR


def test_missing_fields(tmp_path, capsys):
    p = tmp_path / "d.json"
    p.write_text('{"vectors": [[[1, 0]]]}')
    assert main(["analyze", str(p)]) == EXIT_INPUT_ERROR
    assert "ambient_dim" in capsys.readouterr().err
    p.write_text('{"ambient_dim": 1}')
    assert main(["analyze", str(p)]) == EXIT_INPUT_ERROR
    assert "vectors" in capsys.readouterr().err


def test_bare_real_entries_are_rejected(tmp_path, capsys):
    p = tmp_path / "d.json"
    p.write_text('{"ambient_dim": 2, "vectors": [[1, 0], [0, 1]]}')
    assert main(["analyze", str(p)]) == EXIT_INPUT_ERROR
    assert "[re, im]" in capsys.readouterr().err


def test_wrong_vector_length(tmp_path, capsys):
    p = write_doc(tmp_path / "d.json", 3, [[1, 0], [0, 1]])
    assert main(["analyze", p]) == EXIT_INPUT_ERROR
    assert "expected 3 entries" in capsys.readouterr().err


def test_non_finite_entries_rejected(tmp_path, capsys):
    p = tmp_path / "d.json"
    p.write_text('{"ambient_dim": 1, "vectors": [[[1e999, 0]]]}')
    assert main(["analyze", str(p)]) == EXIT_INPUT_ERROR


HUGE = "1" + "0" * 400  # JSON reads this literal as a Python int that float() cannot hold


@pytest.mark.parametrize("command, vectors, signal, where", [
    *((command, f"[[[{HUGE}, 0], [0, 0]], [[0, 0], [1, 0]]]", "[[1, 0], [0, 0]]", "vectors[0][0]")
      for command in ("analyze", "dual", "reconstruct")),
    ("reconstruct", "[[[1, 0], [0, 0]], [[0, 0], [1, 0]]]", f"[[0, 0], [{HUGE}, 0]]", "signal[1]"),
])
def test_an_integer_literal_past_the_double_range_exits_2(command, vectors, signal, where,
                                                          tmp_path, capsys):
    p = tmp_path / "d.json"
    p.write_text(f'{{"ambient_dim": 2, "vectors": {vectors}, "signal": {signal}}}')
    assert main([command, str(p)]) == EXIT_INPUT_ERROR
    assert capsys.readouterr().err == f"error: {where}: entries must be finite\n"


@pytest.mark.parametrize("document, message", [
    ('[{"ambient_dim": 1}]', "the document must be a JSON object"),
    ('{"ambient_dim": 0, "vectors": [[[1, 0]]]}', "field 'ambient_dim' must be a positive integer"),
    ('{"ambient_dim": 1.0, "vectors": [[[1, 0]]]}', "field 'ambient_dim' must be a positive integer"),
    ('{"ambient_dim": true, "vectors": [[[1, 0]]]}', "field 'ambient_dim' must be a positive integer"),
    ('{"ambient_dim": 1, "vectors": []}', "field 'vectors' must be a non-empty list"),
    ('{"ambient_dim": 1, "vectors": {"0": [[1, 0]]}}', "field 'vectors' must be a non-empty list"),
], ids=["not_an_object", "zero_dim", "float_dim", "bool_dim", "no_vectors", "vectors_not_a_list"])
def test_a_malformed_document_exits_2_naming_the_field(document, message, tmp_path, capsys):
    p = tmp_path / "d.json"
    p.write_text(document)
    assert main(["analyze", str(p)]) == EXIT_INPUT_ERROR
    assert capsys.readouterr().err == f"error: {p}: {message}\n"


def test_a_vector_that_is_not_a_list_exits_2(tmp_path, capsys):
    p = tmp_path / "d.json"
    p.write_text('{"ambient_dim": 1, "vectors": [[[1, 0]], 7]}')
    assert main(["analyze", str(p)]) == EXIT_INPUT_ERROR
    assert capsys.readouterr().err == "error: vectors[1]: expected a list of [re, im] pairs\n"


def test_unknown_top_level_keys_are_tolerated(tmp_path, capsys):
    p = write_doc(tmp_path / "d.json", 2, [[1, 0], [0, 1]],
                  label="an experiment", notes=[1, 2, 3])
    assert main(["analyze", p]) == EXIT_OK


# -------------------------------------------------------------- flags and env

def test_unknown_flag_exits_2(triple_doc, capsys):
    assert main(["analyze", triple_doc, "--bogus"]) == EXIT_INPUT_ERROR


def test_help_exits_0(capsys):
    assert main(["--help"]) == EXIT_OK
    assert "analyze" in capsys.readouterr().out


def test_env_tolerance_is_honored(tmp_path, monkeypatch, capsys):
    # sigma(T) = {1, 3e-7} -> sigma(S) = {1, 9e-14}: the default cutoff sees
    # rank 1 vs 2 and errors out, while a looser env tolerance never would
    p = write_doc(tmp_path / "d.json", 2, [[1, 0], [0, 0]], )
    monkeypatch.setenv("FRAMEKIT_TOL", "1e-6")
    assert main(["analyze", p, "--format", "structured"]) == EXIT_OK
    doc = json.loads(capsys.readouterr().out)
    assert doc["span_dim"] == 1


def test_invalid_env_tolerance_exits_2(triple_doc, monkeypatch, capsys):
    monkeypatch.setenv("FRAMEKIT_TOL", "not-a-number")
    assert main(["analyze", triple_doc]) == EXIT_INPUT_ERROR
    assert "FRAMEKIT_TOL" in capsys.readouterr().err
    monkeypatch.setenv("FRAMEKIT_TOL", "abc")
    code = main(["verify", "--kind", "ill_conditioned", "--condition-target", "1e4",
                 "--format", "structured"])
    assert code == EXIT_INPUT_ERROR
    assert "FRAMEKIT_TOL" in capsys.readouterr().err


def test_flag_overrides_env(triple_doc, monkeypatch, capsys):
    monkeypatch.setenv("FRAMEKIT_TOL", "not-a-number")
    # the flag wins, so the broken env value is never read
    assert main(["analyze", triple_doc, "--tolerance", "1e-10"]) == EXIT_OK


def test_negative_tolerance_exits_2(triple_doc, capsys):
    assert main(["analyze", triple_doc, "--tolerance", "-1"]) == EXIT_INPUT_ERROR


@pytest.mark.parametrize("value", ["inf", "nan"])
def test_non_finite_tolerance_exits_2(triple_doc, value, monkeypatch, capsys):
    assert main(["analyze", triple_doc, "--tolerance", value]) == EXIT_INPUT_ERROR
    assert "identity_abs must be finite" in capsys.readouterr().err
    assert main(["verify", "--kind", "gaussian", "--tol", value]) == EXIT_INPUT_ERROR
    assert "identity_abs must be finite" in capsys.readouterr().err
    monkeypatch.setenv("FRAMEKIT_TOL", value)
    assert main(["analyze", triple_doc]) == EXIT_INPUT_ERROR
    assert "identity_abs must be finite" in capsys.readouterr().err


def test_verify_rejects_strict_like_any_unknown_flag(capsys):
    # --strict only ever applied to analyze; verify has no such flag
    assert main(["verify", "--kind", "gaussian", "--strict"]) == EXIT_INPUT_ERROR
    assert "unrecognized arguments: --strict" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["dual", "reconstruct"])
def test_strict_is_an_unknown_flag_where_it_cannot_act(command, tmp_path, capsys):
    # dual and reconstruct exit 3 on a degenerate span with or without it
    doc = write_doc(tmp_path / "signal.json", 2, [[1, 0], [0, 1], [1, 1]], signal=[pair(1), pair(0)])
    assert main([command, doc]) == EXIT_OK
    capsys.readouterr()
    assert main([command, doc, "--strict"]) == EXIT_INPUT_ERROR
    assert "unrecognized arguments: --strict" in capsys.readouterr().err


# ---------------------------------------------------------------- text format
# The human format byte for byte on the README's CLI example. The numbers
# come from the structured report of the same invocation, so the pins hold
# whatever the last bits of a BLAS result; every other character is literal.

README_FRAME = [[1, 0], [0, 1], [1, 1]]


def g(x):
    return f"{x:.17g}"


def text_and_doc(argv, capsys):
    assert main(argv) == EXIT_OK
    text = capsys.readouterr().out
    assert main([*argv, "--format", "structured"]) == EXIT_OK
    # parse_int=float keeps the sign of a -0 entry
    return text, json.loads(capsys.readouterr().out, parse_int=float)


def test_text_format_of_analyze_dual_and_reconstruct(tmp_path, capsys):
    signal_doc = write_doc(tmp_path / "s.json", 2, README_FRAME, signal=[[1, 0], [2, 0]])
    coeff_doc = write_doc(tmp_path / "c.json", 2, README_FRAME,
                          coefficients=[[1, 0], [0, 2], [3, -1]])

    text, doc = text_and_doc(["analyze", signal_doc], capsys)
    assert text == (
        "command: analyze\nambient dim: 2\nvector count: 3\nspan dim: 2\ndegenerate: no\n"
        "frame for space: yes\nriesz basis: no\ntight: no\nparseval: no\nredundancy: 1.5\n"
        f"lower bound: {g(doc['bounds']['lower'])}\nupper bound: {g(doc['bounds']['upper'])}\n"
    )

    text, doc = text_and_doc(["dual", signal_doc], capsys)
    vectors = ",".join(
        "\n    [" + ",".join(f"\n      [\n        {g(re)},\n        {g(im)}\n      ]"
                         for re, im in vector) + "\n    ]"
        for vector in doc["vectors"]
    )
    assert text == '{\n  "ambient_dim": 2,\n  "vectors": [' + vectors + "\n  ]\n}\n"

    for path, mode, payload_key, item in [(signal_doc, "signal", "coefficients", "coefficient"),
                                          (coeff_doc, "coefficients", "signal", "signal")]:
        text, doc = text_and_doc(["reconstruct", path], capsys)
        assert text == (
            f"mode: {mode}\n"
            + "".join(f"{item} {k}: {g(re)} {g(im)}\n"
                      for k, (re, im) in enumerate(doc[payload_key]))
            + f"residual norm: {g(doc['residual_norm'])}\n"
            + f"norm split: {g(doc['norm_split'][0])} {g(doc['norm_split'][1])}\n"
        )


@pytest.mark.parametrize("kind, header", [
    ("tight", "trials: 1000\nidentity abs: 1e-10\nrank rel: 9.9999999999999998e-13\n"
              "span dim: 3\ntight: yes\n"),
    # the condition target follows the seed; 1e-10 * 1e4 is 9.9999999999999995e-07
    ("ill_conditioned", "condition target: 10000\ntrials: 1000\n"
                        "identity abs: 9.9999999999999995e-07\n"
                        "rank rel: 9.9999999999999998e-13\nspan dim: 3\ntight: no\n"),
])
def test_text_format_of_verify(kind, header, monkeypatch, capsys):
    monkeypatch.delenv("FRAMEKIT_TOL", raising=False)
    text, doc = text_and_doc(["verify", "--kind", kind, "--n", "3", "--m", "6", "--seed", "4",
                              "--trials", "1000"], capsys)
    assert len(doc["checks"]) > 20
    checks = "".join(
        f"{'PASS' if check['passed'] else 'FAIL'} {check['name']}: {check['formula']} "
        f"(deviation {g(check['deviation'])}, tolerance {g(check['tolerance'])})\n"
        for check in doc["checks"]
    )
    assert text == f"kind: {kind}\nn: 3\nm: 6\nseed: 4\n" + header + checks + "verdict: PASS\n"
