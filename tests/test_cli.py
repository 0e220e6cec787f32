"""CLI behaviour, exercised in-process through main(argv)."""

import json

import numpy as np
import pytest

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


def test_verify_rejects_bad_generator_request(capsys):
    code = main(["verify", "--kind", "duplicated", "--m", "1", "--seed", "0"])
    assert code == EXIT_INPUT_ERROR


@pytest.mark.parametrize("kappa", ["0", "-1", "inf", "nan"])
def test_verify_rejects_a_bad_condition_target_before_scaling_by_it(kappa, capsys):
    # the default tolerances divide by kappa^2; the target is checked first,
    # so the error names it and not a tolerance derived from it
    code = main(["verify", "--kind", "ill_conditioned", "--condition-target", kappa])
    err = capsys.readouterr().err
    assert code == EXIT_INPUT_ERROR
    assert "condition_target" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("kappa", ["1e155", "1e200", "1.7e308"])
def test_verify_refuses_a_condition_target_too_large_for_rank_rel(kappa, capsys):
    # rank_rel is derived as 1e-3 / kappa^2, which underflows to 0 once kappa^2
    # overflows (from about 1.34e154); the target is named, with no traceback
    code = main(["verify", "--kind", "ill_conditioned", "--condition-target", kappa])
    err = capsys.readouterr().err
    assert code == EXIT_INPUT_ERROR
    assert "condition_target" in err
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
