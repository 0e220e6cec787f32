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
tolerance or entry among them, an integer literal past the double range
included, or sizes whose arrays cannot be allocated), 3
degenerate span (for analyze only when --strict is given; dual and
reconstruct cannot proceed without a span).

The default identity tolerance is DEFAULT_TOLERANCE.identity_abs, overridable
by the FRAMEKIT_TOL environment variable and, with higher precedence, the
--tolerance flag. verify scales that default, FRAMEKIT_TOL included, by an
ill_conditioned frame's condition target κ. The rank cutoff --rank-rel
defaults to DEFAULT_TOLERANCE.rank_rel for every command.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

from .errors import DegenerateSpanError, FramekitError
from .frame_ops import FrameSequence, canonical_dual, classify, frame_bounds
from .matrix_core import DEFAULT_TOLERANCE, Tolerance
from .reconstruct import min_norm_coefficients, min_norm_preimage
from .verifier import (GENERATOR_KINDS, GeneratorSpec, _check_count, bounds_vs_sampling, generate,
                       run_identity_suite)

EXIT_OK = 0
EXIT_VERIFICATION_FAILED = 1
EXIT_INPUT_ERROR = 2
EXIT_DEGENERATE = 3


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


def _render_text(doc: dict, extra=()) -> str:
    """`label: value` lines for the doc's fields, None ones left out, then the extra lines."""
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
    return "\n".join([*lines, *extra])


def _report(args, doc: dict, text) -> None:
    """Write the report: canonical JSON of doc under --format structured, else text()."""
    sys.stdout.write((_render_json(doc) if args.format == "structured" else text()) + "\n")


def _complex_entry(value, where: str) -> complex:
    if (not isinstance(value, (list, tuple)) or len(value) != 2
            or any(isinstance(p, bool) or not isinstance(p, (int, float)) for p in value)):
        raise ValueError(f"{where}: complex entries must be [re, im] pairs of numbers")
    # no conversion first: inf, NaN and an integer past the double range all fail
    if not all(abs(p) <= sys.float_info.max for p in value):
        raise ValueError(f"{where}: entries must be finite")
    return complex(*value)


def _complex_vector(values, where: str, length: int | None = None) -> np.ndarray:
    if not isinstance(values, (list, tuple)):
        raise ValueError(f"{where}: expected a list of [re, im] pairs")
    if length is not None and len(values) != length:
        raise ValueError(f"{where}: expected {length} entries, found {len(values)}")
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
        raise ValueError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ValueError(f"{path}: invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}") from exc
    if not isinstance(doc, dict):
        raise ValueError(f"{path}: the document must be a JSON object")
    return doc


def _parse_frame(doc: dict, path: str) -> FrameSequence:
    if "ambient_dim" not in doc:
        raise ValueError(f"{path}: missing field 'ambient_dim'")
    n = doc["ambient_dim"]
    if isinstance(n, bool) or not isinstance(n, int) or n < 1:
        raise ValueError(f"{path}: field 'ambient_dim' must be a positive integer")
    if "vectors" not in doc:
        raise ValueError(f"{path}: missing field 'vectors'")
    raw = doc["vectors"]
    if not isinstance(raw, list) or not raw:
        raise ValueError(f"{path}: field 'vectors' must be a non-empty list")
    vectors = tuple(
        _complex_vector(v, f"vectors[{k}]", length=n) for k, v in enumerate(raw)
    )
    return FrameSequence(ambient_dim=n, vectors=vectors)


def _tolerance(identity_abs: float | None, rank_rel: float | None,
               kappa: float = 1.0) -> Tolerance:
    """Tolerance from explicit values. Unset, identity_abs is FRAMEKIT_TOL, else
    DEFAULT_TOLERANCE's, times the condition ratio kappa (verify's ill_conditioned
    target, else 1), since conditioning eats precision, and rank_rel is
    DEFAULT_TOLERANCE's."""
    if identity_abs is None:
        env = os.environ.get("FRAMEKIT_TOL")
        try:
            base = DEFAULT_TOLERANCE.identity_abs if env is None else float(env)
        except ValueError as exc:
            raise ValueError(f"FRAMEKIT_TOL is not a number: {env!r}") from exc
        identity_abs = base * kappa
    return Tolerance(rank_rel=DEFAULT_TOLERANCE.rank_rel if rank_rel is None else rank_rel,
                     identity_abs=identity_abs)


def _cmd_analyze(args) -> int:
    tol = _tolerance(args.tolerance, args.rank_rel)
    frame = _parse_frame(_load_document(args.input), args.input)
    verdict = classify(frame, tol)
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
    flat = {**doc}  # the line-oriented format flattens the nested bounds
    if not verdict.is_degenerate:
        bounds = frame_bounds(frame, tol)
        doc["bounds"] = {"lower": bounds.lower, "upper": bounds.upper}
        flat.update(lower_bound=bounds.lower, upper_bound=bounds.upper)
    _report(args, doc, lambda: _render_text(flat))
    if verdict.is_degenerate and args.strict:
        print("degenerate span: all vectors are numerically zero", file=sys.stderr)
        return EXIT_DEGENERATE
    return EXIT_OK


def _cmd_dual(args) -> int:
    tol = _tolerance(args.tolerance, args.rank_rel)
    frame = _parse_frame(_load_document(args.input), args.input)
    dual = canonical_dual(frame, tol)
    doc = {
        "ambient_dim": dual.ambient_dim,
        "vectors": [_pairs(v) for v in dual.vectors],
    }
    _report(args, doc, lambda: _render_json(doc, indent=2))
    return EXIT_OK


def _cmd_reconstruct(args) -> int:
    tol = _tolerance(args.tolerance, args.rank_rel)
    raw = _load_document(args.input)
    frame = _parse_frame(raw, args.input)
    if ("signal" in raw) == ("coefficients" in raw):
        raise ValueError(f"{args.input}: provide exactly one of 'signal' or 'coefficients'")
    if "signal" in raw:
        signal = _complex_vector(raw["signal"], "signal", length=frame.ambient_dim)
        solution = min_norm_coefficients(frame, signal, tol)
        mode, payload_key = "signal", "coefficients"
    else:
        coeffs = _complex_vector(raw["coefficients"], "coefficients", length=frame.size)
        solution = min_norm_preimage(frame, coeffs, tol)
        mode, payload_key = "coefficients", "signal"
    doc = {
        "command": "reconstruct",
        "mode": mode,
        payload_key: _pairs(solution.solution),
        "residual_norm": solution.residual_norm,
        "norm_split": [solution.norm_split[0], solution.norm_split[1]],
    }
    _report(args, doc, lambda: _render_text({"mode": mode}, [
        *(f"{payload_key.removesuffix('s')} {k}: {_fmt_float(re)} {_fmt_float(im)}"
          for k, (re, im) in enumerate(doc[payload_key])),
        f"residual norm: {_fmt_float(doc['residual_norm'])}",
        f"norm split: {' '.join(_fmt_float(x) for x in doc['norm_split'])}",
    ]))
    return EXIT_OK


def _cmd_verify(args) -> int:
    condition_target = args.condition_target if args.kind == "ill_conditioned" else None
    # validates the condition target before the tolerance is scaled by it
    spec = GeneratorSpec(kind=args.kind, n=args.n, m=args.m, seed=args.seed,
                         condition_target=condition_target)
    tol = _tolerance(args.tolerance, args.rank_rel, kappa=condition_target or 1.0)
    _check_count("samples", args.trials, positive=True)  # an input error, before the suite
    frame = generate(spec)
    records = [*run_identity_suite(frame, tol).records, bounds_vs_sampling(frame, args.trials, tol)]
    passed = all(r.passed for r in records)
    verdict = classify(frame, tol)
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
    _report(args, doc, lambda: _render_text(
        {k: v for k, v in doc.items() if k not in ("command", "passed", "checks")}, [
            *(f"{'PASS' if r.passed else 'FAIL'} {r.name}: {r.formula} "
              f"(deviation {_fmt_float(r.deviation)}, tolerance {_fmt_float(r.tolerance)})"
              for r in records),
            f"verdict: {'PASS' if passed else 'FAIL'}",
        ]))
    return EXIT_OK if passed else EXIT_VERIFICATION_FAILED


def _add_common_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--tolerance", type=float, default=None,
                        help="absolute identity tolerance (default "
                             f"{DEFAULT_TOLERANCE.identity_abs:g}, or FRAMEKIT_TOL)")
    parser.add_argument("--rank-rel", type=float, default=None,
                        help=f"relative singular-value cutoff (default {DEFAULT_TOLERANCE.rank_rel:g})")
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
                          help="condition ratio for the ill_conditioned kind (default 1e4); "
                               "the default tolerance is scaled by it")
    _add_common_flags(p_verify)
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
    except (ValueError, MemoryError) as exc:
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
