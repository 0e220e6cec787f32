"""CLI behaviour, exercised in-process through main(argv)."""

import json
import warnings

import numpy as np
import pytest

from framekit import GeneratorSpec, generate
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
    assert err.startswith("error: ") and "allocate" in err
    assert "Traceback" not in err


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
