"""Command line interface: analyze, dual, reconstruct, verify.

Input documents are JSON with complex entries written as [re, im] pairs:

    {
      "ambient_dim": 2,
      "vectors": [[[1, 0], [0, 0]], [[0, 0], [1, 0]], [[1, 0], [1, 0]]],
      "signal": [[1, 0], [0, 0]],        optional, length ambient_dim
      "coefficients": [[1, 0], [0, 0], [0, 0]]   optional, one per vector
    }

Reports go to stdout, diagnostics to stderr. --format structured emits
canonical JSON (sorted keys, floats at 17 significant digits), byte-identical
across repeated runs of the same invocation at a fixed BLAS thread count.
Exit codes: 0 success, 1 verification failure or a bound, operator or
pseudoinverse outside the double range, 2 input error (a non-finite
tolerance among them), 3 degenerate span (for analyze only when --strict is
given; dual and reconstruct cannot proceed without a span).

The default identity tolerance is 1e-10, overridable by the FRAMEKIT_TOL
environment variable and, with higher precedence, the --tolerance flag.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

from .errors import DegenerateSpanError, FramekitError
from .frame_ops import FrameSequence, _FrameAnalysis, canonical_dual
from .matrix_core import DEFAULT_TOLERANCE, Tolerance
from .reconstruct import min_norm_coefficients, min_norm_preimage
from .verifier import GENERATOR_KINDS, GeneratorSpec, _identity_suite, _sampling, generate

EXIT_OK = 0
EXIT_VERIFICATION_FAILED = 1
EXIT_INPUT_ERROR = 2
EXIT_DEGENERATE = 3


class _InputError(Exception):
    """Bad document or flag value; maps to exit code 2."""


def _fmt_float(x: float) -> str:
    return f"{x:.17g}"


def _render_json(value, indent: int | None = None, level: int = 0) -> str:
    """Canonical JSON: sorted keys, 17-significant-digit floats."""
    pad = "" if indent is None else "\n" + " " * (indent * (level + 1))
    endpad = "" if indent is None else "\n" + " " * (indent * level)
    if isinstance(value, dict):
        if not value:
            return "{}"
        parts = [
            f"{pad}{json.dumps(str(k))}: {_render_json(v, indent, level + 1)}"
            for k, v in sorted(value.items())
        ]
        return "{" + ",".join(parts) + endpad + "}"
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        parts = [f"{pad}{_render_json(v, indent, level + 1)}" for v in value]
        return "[" + ",".join(parts) + endpad + "]"
    if isinstance(value, bool):
        return "true" if value else "false"
    if value is None:
        return "null"
    if isinstance(value, int):
        return str(value)
    if isinstance(value, float):
        if not np.isfinite(value):
            raise ValueError("reports must not contain non-finite numbers")
        return _fmt_float(value)
    if isinstance(value, str):
        return json.dumps(value, ensure_ascii=False)
    raise TypeError(f"cannot serialize {type(value).__name__}")


def _render_text(doc: dict) -> str:
    lines = []
    for key, value in doc.items():
        label = key.replace("_", " ")
        if isinstance(value, bool):
            lines.append(f"{label}: {'yes' if value else 'no'}")
        elif isinstance(value, float):
            lines.append(f"{label}: {_fmt_float(value)}")
        elif value is None:
            continue
        else:
            lines.append(f"{label}: {value}")
    return "\n".join(lines)


def _complex_entry(value, where: str) -> complex:
    if (not isinstance(value, (list, tuple)) or len(value) != 2
            or any(isinstance(p, bool) or not isinstance(p, (int, float)) for p in value)):
        raise _InputError(f"{where}: complex entries must be [re, im] pairs of numbers")
    re, im = float(value[0]), float(value[1])
    if not (np.isfinite(re) and np.isfinite(im)):
        raise _InputError(f"{where}: entries must be finite")
    return complex(re, im)


def _complex_vector(values, where: str, length: int | None = None) -> np.ndarray:
    if not isinstance(values, (list, tuple)):
        raise _InputError(f"{where}: expected a list of [re, im] pairs")
    if length is not None and len(values) != length:
        raise _InputError(f"{where}: expected {length} entries, found {len(values)}")
    return np.array(
        [_complex_entry(v, f"{where}[{i}]") for i, v in enumerate(values)],
        dtype=np.complex128,
    )


def _pairs(vector: np.ndarray) -> list:
    return [[float(z.real), float(z.imag)] for z in vector]


def _load_document(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            doc = json.load(handle)
    except OSError as exc:
        raise _InputError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise _InputError(f"{path}: invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}") from exc
    if not isinstance(doc, dict):
        raise _InputError(f"{path}: the document must be a JSON object")
    return doc


def _parse_frame(doc: dict, path: str) -> FrameSequence:
    if "ambient_dim" not in doc:
        raise _InputError(f"{path}: missing field 'ambient_dim'")
    n = doc["ambient_dim"]
    if isinstance(n, bool) or not isinstance(n, int) or n < 1:
        raise _InputError(f"{path}: field 'ambient_dim' must be a positive integer")
    if "vectors" not in doc:
        raise _InputError(f"{path}: missing field 'vectors'")
    raw = doc["vectors"]
    if not isinstance(raw, list) or not raw:
        raise _InputError(f"{path}: field 'vectors' must be a non-empty list")
    vectors = tuple(
        _complex_vector(v, f"vectors[{k}]", length=n) for k, v in enumerate(raw)
    )
    return FrameSequence(ambient_dim=n, vectors=vectors)


def _tolerance(identity_abs: float | None, rank_rel: float | None) -> Tolerance:
    """Tolerance from explicit values; unset ones fall back to FRAMEKIT_TOL and the defaults."""
    if identity_abs is None:
        env = os.environ.get("FRAMEKIT_TOL")
        if env is not None:
            try:
                identity_abs = float(env)
            except ValueError as exc:
                raise _InputError(f"FRAMEKIT_TOL is not a number: {env!r}") from exc
        else:
            identity_abs = DEFAULT_TOLERANCE.identity_abs
    if rank_rel is None:
        rank_rel = DEFAULT_TOLERANCE.rank_rel
    try:
        return Tolerance(rank_rel=rank_rel, identity_abs=identity_abs)
    except ValueError as exc:
        raise _InputError(str(exc)) from exc


def _cmd_analyze(args) -> int:
    tol = _tolerance(args.tolerance, args.rank_rel)
    frame = _parse_frame(_load_document(args.input), args.input)
    analysis = _FrameAnalysis(frame, tol)  # classification and bounds share T's SVD
    verdict = analysis.classification
    doc = {
        "command": "analyze",
        "ambient_dim": frame.ambient_dim,
        "vector_count": frame.size,
        "span_dim": verdict.span_dim,
        "degenerate": verdict.is_degenerate,
        "frame_for_space": verdict.is_frame_for_space,
        "riesz_basis": verdict.is_riesz_basis,
        "tight": verdict.is_tight,
        "parseval": verdict.is_parseval,
        "redundancy": None if verdict.is_degenerate else verdict.redundancy,
        "bounds": None,
    }
    if not verdict.is_degenerate:
        bounds = analysis.bounds
        doc["bounds"] = {"lower": bounds.lower, "upper": bounds.upper}
    if args.format == "structured":
        sys.stdout.write(_render_json(doc) + "\n")
    else:
        sys.stdout.write(_render_text_analyze(doc) + "\n")
    if verdict.is_degenerate and args.strict:
        print("degenerate span: all vectors are numerically zero", file=sys.stderr)
        return EXIT_DEGENERATE
    return EXIT_OK


def _render_text_analyze(doc: dict) -> str:
    # flatten the nested bounds object for the line-oriented format
    flat = {k: v for k, v in doc.items() if k != "bounds"}
    if doc.get("bounds"):
        flat["lower_bound"] = doc["bounds"]["lower"]
        flat["upper_bound"] = doc["bounds"]["upper"]
    return _render_text(flat)


def _cmd_dual(args) -> int:
    tol = _tolerance(args.tolerance, args.rank_rel)
    frame = _parse_frame(_load_document(args.input), args.input)
    dual = canonical_dual(frame, tol)
    doc = {
        "ambient_dim": dual.ambient_dim,
        "vectors": [_pairs(v) for v in dual.vectors],
    }
    indent = None if args.format == "structured" else 2
    sys.stdout.write(_render_json(doc, indent=indent) + "\n")
    return EXIT_OK


def _cmd_reconstruct(args) -> int:
    tol = _tolerance(args.tolerance, args.rank_rel)
    raw = _load_document(args.input)
    frame = _parse_frame(raw, args.input)
    has_signal = "signal" in raw
    has_coeffs = "coefficients" in raw
    if has_signal == has_coeffs:
        raise _InputError(
            f"{args.input}: provide exactly one of 'signal' or 'coefficients'"
        )
    if has_signal:
        signal = _complex_vector(raw["signal"], "signal", length=frame.ambient_dim)
        solution = min_norm_coefficients(frame, signal, tol)
        payload_key, payload = "coefficients", solution.solution
        mode = "signal"
    else:
        coeffs = _complex_vector(raw["coefficients"], "coefficients", length=frame.size)
        solution = min_norm_preimage(frame, coeffs, tol)
        payload_key, payload = "signal", solution.solution
        mode = "coefficients"
    doc = {
        "command": "reconstruct",
        "mode": mode,
        payload_key: _pairs(payload),
        "residual_norm": solution.residual_norm,
        "norm_split": [solution.norm_split[0], solution.norm_split[1]],
    }
    if args.format == "structured":
        sys.stdout.write(_render_json(doc) + "\n")
    else:
        lines = [f"mode: {mode}"]
        for k, z in enumerate(payload):
            lines.append(
                f"{payload_key[:-1] if payload_key.endswith('s') else payload_key} "
                f"{k}: {_fmt_float(z.real)} {_fmt_float(z.imag)}"
            )
        lines.append(f"residual norm: {_fmt_float(solution.residual_norm)}")
        lines.append(
            "norm split: "
            f"{_fmt_float(solution.norm_split[0])} {_fmt_float(solution.norm_split[1])}"
        )
        sys.stdout.write("\n".join(lines) + "\n")
    return EXIT_OK


def _cmd_verify(args) -> int:
    condition_target = args.condition_target if args.kind == "ill_conditioned" else None
    try:  # validates the condition target before the tolerance is scaled by it
        spec = GeneratorSpec(kind=args.kind, n=args.n, m=args.m, seed=args.seed,
                             condition_target=condition_target)
    except ValueError as exc:
        raise _InputError(str(exc)) from exc
    identity_abs = args.tolerance
    rank_rel = args.rank_rel
    if args.kind == "ill_conditioned":
        kappa = condition_target
        if identity_abs is None:
            identity_abs = DEFAULT_TOLERANCE.identity_abs * kappa  # conditioning eats precision
        if rank_rel is None:
            # keep sigma(S) ~ sigma(T)^2 above the cutoff despite kappa^2. A float
            # product overflows to inf where kappa**2 raises, and the cutoff is then 0
            derived = 1e-3 / (kappa * kappa)
            if derived == 0.0:
                raise _InputError(
                    f"condition_target {kappa:.3e} is too large to derive rank_rel from "
                    "(1e-3 / condition_target^2 underflows to 0); pass --rank-rel"
                )
            rank_rel = min(DEFAULT_TOLERANCE.rank_rel, derived)
    tol = _tolerance(identity_abs, rank_rel)
    try:
        frame = generate(spec)
    except ValueError as exc:
        raise _InputError(str(exc)) from exc
    analysis = _FrameAnalysis(frame, tol)  # the suite, sampling and verdict share T's SVD
    report = _identity_suite(analysis, vector_samples=50)
    sampling = _sampling(analysis, samples=args.trials)
    records = list(report.records) + [sampling]
    passed = all(r.passed for r in records)
    verdict = analysis.classification
    doc = {
        "command": "verify",
        "kind": spec.kind,
        "n": spec.n,
        "m": spec.m,
        "seed": spec.seed,
        "condition_target": spec.condition_target,
        "trials": args.trials,
        "identity_abs": tol.identity_abs,
        "rank_rel": tol.rank_rel,
        "span_dim": verdict.span_dim,
        "tight": verdict.is_tight,
        "passed": passed,
        "checks": [r.to_dict() for r in records],
    }
    if args.format == "structured":
        sys.stdout.write(_render_json(doc) + "\n")
    else:
        lines = [
            f"kind: {spec.kind}",
            f"n: {spec.n}",
            f"m: {spec.m}",
            f"seed: {spec.seed}",
            f"trials: {args.trials}",
            f"identity abs: {_fmt_float(tol.identity_abs)}",
            f"rank rel: {_fmt_float(tol.rank_rel)}",
            f"span dim: {verdict.span_dim}",
            f"tight: {'yes' if verdict.is_tight else 'no'}",
        ]
        if spec.condition_target is not None:
            lines.insert(4, f"condition target: {_fmt_float(spec.condition_target)}")
        for rec in records:
            status = "PASS" if rec.passed else "FAIL"
            lines.append(
                f"{status} {rec.name}: {rec.formula} "
                f"(deviation {_fmt_float(rec.deviation)}, tolerance {_fmt_float(rec.tolerance)})"
            )
        lines.append(f"verdict: {'PASS' if passed else 'FAIL'}")
        sys.stdout.write("\n".join(lines) + "\n")
    return EXIT_OK if passed else EXIT_VERIFICATION_FAILED


def _add_common_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--tolerance", type=float, default=None,
                        help="absolute identity tolerance (default 1e-10, or FRAMEKIT_TOL)")
    parser.add_argument("--rank-rel", type=float, default=None,
                        help="relative singular-value cutoff (default 1e-12)")
    parser.add_argument("--format", choices=("text", "structured"), default="text",
                        help="report format: human text or canonical JSON")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="framekit",
        description="Analyze finite frame sequences: operators, bounds, duals, identity checks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_analyze = sub.add_parser("analyze", help="classify a sequence and report its optimal bounds")
    p_analyze.add_argument("input", help="path to a JSON input document")
    _add_common_flags(p_analyze)
    p_analyze.add_argument("--strict", action="store_true",
                           help="treat a degenerate span as an error (exit 3)")
    p_analyze.set_defaults(fn=_cmd_analyze)

    p_dual = sub.add_parser("dual", help="emit the canonical dual sequence as an input document")
    p_dual.add_argument("input", help="path to a JSON input document")
    _add_common_flags(p_dual)
    p_dual.set_defaults(fn=_cmd_dual)

    p_rec = sub.add_parser("reconstruct",
                           help="minimum-norm coefficients for a signal, or signal for coefficients")
    p_rec.add_argument("input", help="path to a JSON input document with 'signal' or 'coefficients'")
    _add_common_flags(p_rec)
    p_rec.set_defaults(fn=_cmd_reconstruct)

    p_verify = sub.add_parser("verify", help="generate a seeded sequence and run the identity suite")
    p_verify.add_argument("--kind", required=True, choices=GENERATOR_KINDS)
    p_verify.add_argument("--n", type=int, default=4, help="ambient dimension (default 4)")
    p_verify.add_argument("--m", type=int, default=6, help="number of vectors (default 6)")
    p_verify.add_argument("--seed", type=int, default=0, help="64-bit generator seed (default 0)")
    p_verify.add_argument("--trials", type=int, default=1000,
                          help="samples for the Rayleigh envelope check (default 1000)")
    p_verify.add_argument("--condition-target", type=float, default=1e4,
                          help="condition ratio for the ill_conditioned kind (default 1e4)")
    p_verify.add_argument("--tol", "--tolerance", dest="tolerance", type=float, default=None,
                          help="absolute identity tolerance; ill_conditioned scales the "
                               "default by the condition target")
    p_verify.add_argument("--rank-rel", type=float, default=None,
                          help="relative singular-value cutoff; ill_conditioned tightens "
                               "the default to keep ranks coherent")
    p_verify.add_argument("--format", choices=("text", "structured"), default="text")
    p_verify.set_defaults(fn=_cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.fn(args)
    except _InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR
    except DegenerateSpanError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DEGENERATE
    except FramekitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VERIFICATION_FAILED


if __name__ == "__main__":
    sys.exit(main())
