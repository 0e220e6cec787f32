"""Seeded frame generators and the operator-identity check suite.

The generators draw from PCG64 (the permuted-congruential generator
XSL-RR 128/64), seeded with the 64-bit GeneratorSpec seed, so equal specs
reproduce bitwise-identical sequences. The identity suite re-derives every
operator relation the library promises and reports one record per relation.
Its rows read the frame's analysis (frame_ops._FrameAnalysis) directly:
they name operators as frame_ops._OPERATORS does, their identities are
evaluated, once per call, by the same memoized code as the gate's
self-checks, and their spectral norms are read off the route factors
(_FrameAnalysis.spectral_norm). The sampled rows read two seeded
unit-column blocks drawn once, after the gates. Deviations are residuals
normalized by the norms of the factors entering each product (see
scaled_deviation), which keeps them comparable to identity_abs for badly
conditioned sequences too. Inequality checks carry a fixed absolute slack
of 1e-9, and relative checks use 1e-8 rescaled by the caller's
identity_abs so a loosened run loosens coherently.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

import numpy as np

from .errors import DegenerateSpanError, NotTightError
from .frame_ops import FrameSequence, _FrameAnalysis
from .matrix_core import DEFAULT_TOLERANCE, Tolerance

__all__ = [
    "GENERATOR_KINDS",
    "GeneratorSpec",
    "CheckRecord",
    "IdentityReport",
    "generate",
    "run_identity_suite",
    "polarization_check",
    "bounds_vs_sampling",
    "registry_formulas",
]

GENERATOR_KINDS = ("gaussian", "tight", "rank_deficient", "duplicated", "ill_conditioned")

# fixed internal streams so suite reports are bitwise reproducible run to run
_SUITE_SAMPLE_SEED = 0x6672616D6573
_POLARIZATION_SEED = 0x706F6C6172
_RAYLEIGH_SEED = 0x7261796C

# bounds_vs_sampling draws and evaluates its unit vectors in column blocks
# of at most this many entries, so its memory does not grow with the count
_SAMPLE_BLOCK = 2**20

_BASE_RELATIVE = 1e-8
_INEQUALITY_SLACK = 1e-9
_INV_SQRT2 = 1.0 / np.sqrt(2.0)


@dataclass(frozen=True)
class GeneratorSpec:
    """Deterministic recipe for one test sequence.

    kind              one of GENERATOR_KINDS
    n, m              ambient dimension and vector count, both at least 1
    seed              64-bit seed for PCG64
    condition_target  desired largest/smallest kept singular value ratio;
                      required for (and only for) the ill_conditioned kind
    """

    kind: str
    n: int
    m: int
    seed: int
    condition_target: float | None = None

    def __post_init__(self) -> None:
        if self.kind not in GENERATOR_KINDS:
            raise ValueError(
                f"unknown generator kind {self.kind!r}; expected one of {GENERATOR_KINDS}"
            )
        for label, value in (("n", self.n), ("m", self.m)):
            if isinstance(value, bool) or not isinstance(value, int) or value < 1:
                raise ValueError(f"{label} must be a positive integer")
        if isinstance(self.seed, bool) or not isinstance(self.seed, int):
            raise ValueError("seed must be an integer")
        if not 0 <= self.seed < 2**64:
            raise ValueError("seed must fit in 64 bits")
        if self.kind == "ill_conditioned":
            ct = self.condition_target
            if ct is None or not np.isfinite(ct) or ct < 1.0:
                raise ValueError("ill_conditioned requires a finite condition_target >= 1")
        elif self.condition_target is not None:
            raise ValueError(
                f"condition_target only applies to the ill_conditioned kind, not {self.kind!r}"
            )


def _complex_gaussian(rng: np.random.Generator, shape) -> np.ndarray:
    # equal bits to (re + 1j * im) / sqrt(2): numpy's complex division by a
    # real divisor multiplies each part by the divisor's reciprocal
    z = np.empty(shape, dtype=np.complex128)
    z.real = rng.standard_normal(shape) * _INV_SQRT2
    z.imag = rng.standard_normal(shape) * _INV_SQRT2
    return z


def _orthonormal_columns(rng: np.random.Generator, rows: int, cols: int) -> np.ndarray:
    q, _ = np.linalg.qr(_complex_gaussian(rng, (rows, cols)))
    return q


def generate(spec: GeneratorSpec) -> FrameSequence:
    """Build the sequence a GeneratorSpec describes; equal specs give equal bits.

    gaussian         independent complex normal entries; full span with
                     probability one
    tight            scaled rows of a random isometry, so both optimal bounds
                     coincide to machine precision (ratio slack below 1e-12)
    rank_deficient   a product of two thin complex normal factors with planted
                     rank min(n, m) - 1; needs min(n, m) >= 2
    duplicated       the first vector appears twice; needs m >= 2
    ill_conditioned  planted singular values in geometric progression from 1
                     down to 1/condition_target, exact up to rounding and
                     always within 10 percent of the target; needs
                     min(n, m) >= 2 whenever the target exceeds 1
    """
    rng = np.random.Generator(np.random.PCG64(spec.seed))
    n, m = spec.n, spec.m
    if spec.kind == "gaussian":
        t = _complex_gaussian(rng, (n, m))
    elif spec.kind == "tight":
        if m >= n:
            t = _orthonormal_columns(rng, m, n).conj().T
        else:
            t = _orthonormal_columns(rng, n, m)
        t = rng.uniform(0.5, 2.0) * t
    elif spec.kind == "rank_deficient":
        r = min(n, m) - 1
        if r < 1:
            raise ValueError(
                "rank_deficient needs min(n, m) >= 2; a 1-dimensional sequence "
                "cannot lose rank without degenerating"
            )
        t = _complex_gaussian(rng, (n, r)) @ _complex_gaussian(rng, (r, m)) / np.sqrt(r)
    elif spec.kind == "duplicated":
        if m < 2:
            raise ValueError("duplicated needs m >= 2 to repeat a vector")
        base = _complex_gaussian(rng, (n, m - 1))
        t = np.concatenate([base[:, :1], base], axis=1)
    else:  # ill_conditioned
        target = float(spec.condition_target)
        r = min(n, m)
        if r < 2 and target > 1.0:
            raise ValueError(
                "ill_conditioned with min(n, m) = 1 cannot realize a condition ratio above 1"
            )
        sigma = np.geomspace(1.0, 1.0 / target, r)
        left = _orthonormal_columns(rng, n, r)
        right = _orthonormal_columns(rng, m, r)
        t = left @ (sigma[:, None] * right.conj().T)
    return FrameSequence._from_matrix(t)


@dataclass(frozen=True)
class CheckRecord:
    """Outcome of one identity or inequality check."""

    name: str
    formula: str
    deviation: float
    tolerance: float
    passed: bool
    detail: dict | None = None

    def to_dict(self) -> dict:
        out = {
            "name": self.name,
            "formula": self.formula,
            "deviation": float(self.deviation),
            "tolerance": float(self.tolerance),
            "passed": bool(self.passed),
        }
        if self.detail is not None:
            out["detail"] = dict(self.detail)
        return out


@dataclass(frozen=True)
class IdentityReport:
    """All check records for one sequence; passes only if every record does."""

    records: tuple

    @property
    def passed(self) -> bool:
        return all(r.passed for r in self.records)

    def failures(self) -> tuple:
        return tuple(r for r in self.records if not r.passed)

    def to_dict(self) -> dict:
        return {"passed": self.passed, "checks": [r.to_dict() for r in self.records]}


def _unit_columns(block: np.ndarray) -> np.ndarray:
    norms = np.linalg.norm(block, axis=0)
    norms[norms == 0.0] = 1.0
    return block / norms


def _energies(block: np.ndarray) -> np.ndarray:
    """Squared norm of each column."""
    return (np.square(block.real) + np.square(block.imag)).sum(axis=0)


def _real_inner(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Re <y_j, x_j> for each column pair."""
    return (x.real * y.real + x.imag * y.imag).sum(axis=0)


def _worst(*excesses: np.ndarray) -> float:
    """Largest entry over all arrays, and 0.0 when none is positive."""
    return max(float(np.max(e, initial=0.0)) for e in excesses)


def _suite_samples(frame: FrameSequence, count: int) -> dict:
    """The suite's seeded unit-column sample blocks: `signals` (signal space),
    then `coeffs` (coefficient space), drawn in that order from one stream."""
    rng = np.random.Generator(np.random.PCG64(_SUITE_SAMPLE_SEED))
    signals = _unit_columns(_complex_gaussian(rng, (frame.ambient_dim, count)))
    coeffs = _unit_columns(_complex_gaussian(rng, (frame.size, count)))
    return {"signals": signals, "coeffs": coeffs}


def _rel_tol(analysis: _FrameAnalysis) -> float:
    """The relative tolerance: _BASE_RELATIVE scaled as identity_abs is."""
    return _BASE_RELATIVE * (analysis.tol.identity_abs / DEFAULT_TOLERANCE.identity_abs)


# Row kinds: each takes its operator names, if any, then the frame's analysis
# and the suite's sample blocks, and returns (deviation, tolerance, detail)

def _norms_agree(names: tuple, analysis: _FrameAnalysis, samples: dict):
    """‖X‖² = ‖Y‖ = ‖Z‖ for the operators (X, Y, Z): the gap to ‖X‖² relative to the largest."""
    x, y, z = (analysis.spectral_norm(name) for name in names)
    dev = max(abs(y - x ** 2), abs(z - x ** 2)) / max(x ** 2, y, z)
    return dev, _rel_tol(analysis), None


def _sandwich(projector: str, operator: str, block: str, analysis: _FrameAnalysis,
              samples: dict):
    """A‖Px‖² ≤ ‖Ax‖² ≤ B‖Px‖² for each column x of a sample block."""
    x = samples[block]
    lo, hi = analysis.bounds.lower, analysis.bounds.upper
    px2 = _energies(analysis[projector] @ x)
    ax2 = _energies(analysis[operator] @ x)
    dev = _worst(lo * px2 - ax2, ax2 - hi * px2) / max(1.0, hi)
    return dev, _INEQUALITY_SLACK, {"samples": x.shape[1]}


def _quadratic(projector: str, operator: str, block: str, analysis: _FrameAnalysis,
               samples: dict):
    """‖S†‖⁻¹‖Px‖² ≤ ⟨Ax,x⟩ ≤ ‖S‖‖Px‖² for each column x of a sample block."""
    x = samples[block]
    upper, inv_lower = analysis.spectral_norm("S"), analysis.spectral_norm("S+")
    px2 = _energies(analysis[projector] @ x)
    quad = _real_inner(x, analysis[operator] @ x)
    dev = _worst(px2 / inv_lower - quad, quad - upper * px2) / max(1.0, upper)
    return dev, _INEQUALITY_SLACK, {"samples": x.shape[1]}


def _pinv_energy(analysis: _FrameAnalysis, samples: dict):
    f = samples["signals"]
    lhs = _energies(analysis["T+"] @ f)
    rhs = _real_inner(f, analysis["S+"] @ f)
    ref = np.maximum(np.abs(lhs), np.abs(rhs))
    nonzero = ref > 0.0
    dev = _worst(np.abs(lhs - rhs)[nonzero] / ref[nonzero])
    return dev, _rel_tol(analysis), {"samples": f.shape[1]}


def _dual_bounds(analysis: _FrameAnalysis, samples: dict):
    lo, hi = analysis.bounds.lower, analysis.bounds.upper
    dual = analysis.dual.bounds
    dev = max(abs(dual.lower - 1.0 / hi) * hi, abs(dual.upper - 1.0 / lo) * lo)
    return dev, _rel_tol(analysis), {"dual_lower": dual.lower, "dual_upper": dual.upper}


def _row_norms(rows: np.ndarray) -> np.ndarray:
    """np.linalg.norm of each row, rounded exactly as the one-vector call rounds it."""
    re, im = rows.real, rows.imag
    return np.sqrt(_row_dots(re, re) + _row_dots(im, im))


def _row_dots(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Unconjugated dot product of each row pair, through the same BLAS dot as x @ y."""
    return (x[..., np.newaxis, :] @ y[..., :, np.newaxis])[..., 0, 0]


def _apply(matrix: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """matrix @ row for each row, through the same BLAS matrix-vector product."""
    return (matrix @ rows[..., np.newaxis])[..., 0]


def _polarization_deviation(analysis: _FrameAnalysis, common_bound: float, pairs: int) -> float:
    """Worst mismatch between the four-term combination and the inner products.

    For a tight sequence, <G c, d> equals A <Q c, d>, and the sesquilinear
    polarization identity rebuilds it from squared Q-norms:

        <G c, d> = (A/4) (|Q(c+d)|^2 - |Q(c-d)|^2 + i |Q(c+id)|^2 - i |Q(c-id)|^2)

    All pairs are evaluated at once. Each product, norm and power goes
    through the routine a one-pair evaluation would use, so the result is
    the same bit for bit.
    """
    rng = np.random.Generator(np.random.PCG64(_POLARIZATION_SEED))
    q, g = analysis["Q"], analysis["G"]
    # the stream order of successive draws c.re, c.im, d.re, d.im per pair;
    # a negative count draws nothing, as range(pairs) would
    draws = rng.standard_normal((max(pairs, 0), 2, 2, analysis.frame.size))
    c, d = (draws[:, :, 0] + 1j * draws[:, :, 1]).transpose(1, 0, 2) / np.sqrt(2.0)
    probes = np.stack([c + d, c - d, c + 1j * d, c - 1j * d], axis=1)
    # float_power is C pow, as the scalar norm ** 2 is; squaring rounds differently
    qnorm2 = np.float_power(_row_norms(_apply(q, probes)), 2.0)
    combo = (common_bound / 4.0) * (
        qnorm2[:, 0] - qnorm2[:, 1] + 1j * qnorm2[:, 2] - 1j * qnorm2[:, 3]
    )
    d_conj = d.conj()
    direct_gram = _row_dots(d_conj, _apply(g, c))
    direct_q = common_bound * _row_dots(d_conj, _apply(q, c))
    scale = np.maximum(1.0, common_bound * _row_norms(c) * _row_norms(d))
    gaps = [combo - direct_gram, combo - direct_q]
    return _worst(*(np.hypot(gap.real, gap.imag) / scale for gap in gaps))


def _polarization(pairs: int, analysis: _FrameAnalysis, samples: dict | None):
    common_bound = analysis.bounds.lower
    dev = max(_polarization_deviation(analysis, common_bound, pairs),
              analysis.deviation(_TIGHT_GRAM), analysis.deviation(_TIGHT_GRAM_PINV))
    return dev, analysis.tol.identity_abs, {"pairs": pairs, "common_bound": common_bound}


_POLARIZATION = ("polarization", "⟨Gc,d⟩ = A⟨Qc,d⟩ via ‖Q(c±d)‖², ‖Q(c±id)‖²")
_TIGHT_GRAM = (("G",), ("AQ",), ("U", "T"))
_TIGHT_GRAM_PINV = (("G+",), ("Q/A",), ("G+",))


# name, formula, tight_only, and either a row kind bound to its operator names
# (a function of the analysis and the sample blocks) or a tuple of identities (see
# _FrameAnalysis.deviation) whose worst deviation the row reports; tight-only
# identity rows also report the common bound A
_REGISTRY = (
    ("pinv_synthesis_is_dual_analysis", "T† = Ũ", False, ((("T+",), ("~U",), ("S+", "T")),)),
    ("pinv_analysis_is_dual_synthesis", "U† = T̃", False, ((("U+",), ("~T",), ("S+", "T")),)),
    ("pinv_synthesis_via_frame_operator", "T† = T*S† = S†T*", False, ("T+ = T* S+",)),
    ("pinv_synthesis_adjoint_form", "(T†)* = S†T", False, ((("T+*",), ("S+", "T"), ("S+", "T")),)),
    ("frame_operator_pinv_as_product", "(T†)*T† = S†", False,
     ((("T+*", "T+"), ("S+",), ("T+", "T+")),)),
    ("pinv_analysis_via_gram", "(T*)† = TG†", False, ((("U+",), ("T", "G+"), ("T", "G+")),)),
    ("gram_pinv_as_product", "T†(T†)* = G†", False, ((("T+", "T+*"), ("G+",), ("T+", "T+")),)),
    ("pinv_synthesis_via_gram", "T† = G†T*", False, ((("T+",), ("G+", "U"), ("G+", "U")),)),
    ("frame_operator_pinv_projector", "SS† = S†S = P", False, ("S S+ = P", "S+ S = P")),
    ("gram_pinv_projector", "GG† = G†G = Q", False,
     ((("G", "G+"), ("Q",), ("G", "G+")), (("G+", "G"), ("Q",), ("G+", "G")))),
    # I − P can be ~0 (full span), so only S† sets the scale of the product
    ("frame_operator_pinv_kills_complement", "S†(I − P) = 0", False,
     ((("S+", "I-P"), (), ("S+",)),)),
    ("frame_operator_pinv_on_span", "S†P = PS† = S†", False,
     ((("S+", "P"), ("S+",), ("S+", "P")), (("P", "S+"), ("S+",), ("P", "S+")))),
    ("gram_pinv_kills_complement", "G†(I − Q) = 0", False, ((("G+", "I-Q"), (), ("G+",)),)),
    ("gram_pinv_on_range", "G†Q = QG† = G†", False,
     ((("G+", "Q"), ("G+",), ("G+", "Q")), (("Q", "G+"), ("G+",), ("Q", "G+")))),
    ("analysis_intertwines", "T*S = GT*", False, ((("U", "S"), ("G", "U"), ("U", "S")),)),
    ("synthesis_intertwines", "ST = TG", False, ((("S", "T"), ("T", "G"), ("S", "T")),)),
    ("dual_reconstruction", "TŨ = ι_V P = T̃U", False,
     ((("T", "~U"), ("P",), ("T", "~U")), (("~T", "U"), ("P",), ("~T", "U")))),
    ("cross_dual_gram", "Q = UT̃", False, ((("Q",), ("U", "~T"), ("U", "~T")),)),
    ("span_projector_fixes_vectors", "P fₖ = fₖ (range of T is the span)", False, ("P T = T",)),
    ("operator_norms_agree", "‖T‖² = ‖S‖ = ‖G‖", False, partial(_norms_agree, ("T", "S", "G"))),
    ("pinv_norms_agree", "‖T†‖² = ‖S†‖ = ‖G†‖", False, partial(_norms_agree, ("T+", "S+", "G+"))),
    ("analysis_sandwich", "A‖Pf‖² ≤ ‖T*f‖² ≤ B‖Pf‖²", False, partial(_sandwich, "P", "U", "signals")),
    ("synthesis_sandwich", "A‖Qc‖² ≤ ‖Tc‖² ≤ B‖Qc‖²", False, partial(_sandwich, "Q", "T", "coeffs")),
    ("frame_operator_quadratic_form", "‖S†‖⁻¹‖Pf‖² ≤ ⟨Sf,f⟩ ≤ ‖S‖‖Pf‖²", False,
     partial(_quadratic, "P", "S", "signals")),
    ("gram_quadratic_form", "‖S†‖⁻¹‖Qc‖² ≤ ⟨Gc,c⟩ ≤ ‖S‖‖Qc‖²", False,
     partial(_quadratic, "Q", "G", "coeffs")),
    ("pinv_energy_identity", "‖T†f‖² = ⟨f,S†f⟩", False, _pinv_energy),
    ("dual_bounds_reciprocal", "Ã = 1/B and B̃ = 1/A", False, _dual_bounds),
    ("dual_involution", "dual(dual(F)) = F", False, ((("~~T",), ("T",), ("~S+", "S+", "T")),)),
    ("tight_frame_operator", "S = AP", True, ((("S",), ("AP",), ("T", "U")),)),
    ("tight_gram", "G = AQ", True, (_TIGHT_GRAM,)),
    ("tight_frame_operator_pinv", "S† = (1/A)P", True, ((("S+",), ("P/A",), ("S+",)),)),
    ("tight_gram_pinv", "G† = (1/A)Q", True, (_TIGHT_GRAM_PINV,)),
    (*_POLARIZATION, True, partial(_polarization, 50)),
)


def registry_formulas(include_tight: bool = True) -> tuple:
    """Formulas of every registered check, for completeness audits."""
    return tuple(formula for _, formula, tight_only, _ in _REGISTRY
                 if include_tight or not tight_only)


def _record(name: str, formula: str, deviation, limit, detail) -> CheckRecord:
    return CheckRecord(
        name=name,
        formula=formula,
        deviation=float(deviation),
        tolerance=float(limit),
        passed=bool(deviation <= limit),
        detail=detail,
    )


def run_identity_suite(frame: FrameSequence, tol: Tolerance | None = None,
                       vector_samples: int = 50) -> IdentityReport:
    """Evaluate every applicable registered check on one sequence.

    Tight-only laws are evaluated when the sequence classifies as tight.
    The sampled-vector checks draw from a fixed internal PCG64 stream, so
    repeated runs on the same sequence produce bitwise-identical reports.
    Degenerate sequences have no dual and raise DegenerateSpanError.
    """
    return _identity_suite(_FrameAnalysis(frame, tol), vector_samples)


def _identity_suite(analysis: _FrameAnalysis, vector_samples: int) -> IdentityReport:
    # every gate runs before any row: the frame's gate on all three routes,
    # bounds and dual, then the dual's, each raising as it would
    analysis.gate("synthesis", "frame operator", "gram"), analysis.bounds
    dual = analysis.dual
    dual.gate("synthesis", "frame operator", "gram"), dual.bounds, dual.canonical_dual
    samples = _suite_samples(analysis.frame, vector_samples)
    records = []
    for name, formula, tight_only, check in _REGISTRY:
        if tight_only and not analysis.classification.is_tight:
            continue
        if callable(check):
            records.append(_record(name, formula, *check(analysis, samples)))
        else:
            detail = {"common_bound": analysis.bounds.lower} if tight_only else None
            dev = max(analysis.deviation(identity) for identity in check)
            records.append(_record(name, formula, dev, analysis.tol.identity_abs, detail))
    return IdentityReport(records=tuple(records))


def polarization_check(frame: FrameSequence, pairs: int = 100,
                       tol: Tolerance | None = None) -> CheckRecord:
    """Verify the polarization route to the gram form on a tight sequence.

    Rebuilds <G c, d> from the four squared Q-norms |Q(c±d)|^2, |Q(c±id)|^2
    for random pairs and compares against both A <Q c, d> and the direct
    gram inner product; also checks G = AQ and G† = Q/A as matrices.
    Raises NotTightError when the sequence is not tight.
    """
    analysis = _FrameAnalysis(frame, tol)
    if not analysis.classification.is_tight:
        raise NotTightError("polarization reconstruction requires a tight sequence")
    analysis.gate("synthesis", "gram")
    return _record(*_POLARIZATION, *_polarization(pairs, analysis, None))


def bounds_vs_sampling(frame: FrameSequence, samples: int = 10000,
                       tol: Tolerance | None = None) -> CheckRecord:
    """Compare the optimal bounds against an empirical Rayleigh envelope.

    Draws unit vectors uniformly from the span V and evaluates the analysis
    energy |T* f|^2; every sample must land in [A - slack, B + slack]. The
    detail records how closely the empirical envelope approaches each bound
    (fractions of the bound value); with at least 10,000 samples the gap
    typically falls below 5 percent for spans of dimension up to about 8,
    and is exactly zero for tight sequences. Vectors come from a fixed
    internal PCG64 stream, so the record is reproducible bit for bit. They
    are drawn and evaluated 2^20 / max(m, r) at a time, so memory stays
    bounded; a larger count than that draws its stream block by block, which
    is not the stream one draw of every vector would give, but as fixed.
    """
    return _sampling(_FrameAnalysis(frame, tol), samples)


def _sampling(analysis: _FrameAnalysis, samples: int) -> CheckRecord:
    if samples < 1:
        raise ValueError("samples must be positive")
    f_t = analysis.f_t
    if f_t.rank == 0:
        raise DegenerateSpanError("a degenerate sequence has no bounds to sample")
    bounds = analysis.bounds
    analysis_on_span = analysis["U"] @ f_t.left_vectors  # (m, r)
    rng = np.random.Generator(np.random.PCG64(_RAYLEIGH_SEED))
    width = max(1, _SAMPLE_BLOCK // max(analysis_on_span.shape))
    emp_min, emp_max = np.inf, -np.inf  # np.minimum and np.maximum keep a NaN
    for start in range(0, samples, width):
        g = _unit_columns(_complex_gaussian(rng, (f_t.rank, min(width, samples - start))))
        ratios = np.linalg.norm(analysis_on_span @ g, axis=0) ** 2
        emp_min, emp_max = np.minimum(emp_min, ratios.min()), np.maximum(emp_max, ratios.max())
    emp_min, emp_max = float(emp_min), float(emp_max)
    violation = max(0.0, bounds.lower - emp_min, emp_max - bounds.upper)
    dev = violation / max(1.0, bounds.upper)
    return CheckRecord(
        name="rayleigh_sampling",
        formula="A ≤ ‖T*f‖² ≤ B for unit f in V",
        deviation=float(dev),
        tolerance=_INEQUALITY_SLACK,
        passed=bool(dev <= _INEQUALITY_SLACK),
        detail={
            "samples": samples,
            "span_dim": f_t.rank,
            "lower": bounds.lower,
            "upper": bounds.upper,
            "empirical_min": emp_min,
            "empirical_max": emp_max,
            "lower_gap_fraction": (emp_min - bounds.lower) / bounds.lower,
            "upper_gap_fraction": (bounds.upper - emp_max) / bounds.upper,
        },
    )
