"""Seeded frame generators and the operator-identity check suite.

The generators draw from PCG64 (the permuted-congruential generator
XSL-RR 128/64), seeded with the 64-bit GeneratorSpec seed, so equal specs
reproduce bitwise-identical sequences. The identity suite re-derives every
operator relation the library promises and reports one record per relation.
Its rows read the frame's analysis (frame_ops._FrameAnalysis) directly:
they name operators as frame_ops._OPERATORS does, their identities are
evaluated once per call (_FrameAnalysis.deviation), and their spectral
norms are read off the route factors (_FrameAnalysis.spectral_norm). The
gate checks S and G on their factors, and the frame keeps those deviations;
the rows that restate its identities (SS† = S†S = P, T† = T*S†,
GG† = G†G = Q, P fₖ = fₖ) evaluate them densely, as every product row
does. Every sampled check reads its samples through _samples: a seeded
PCG64 stream read one draw at a time and evaluated in blocks, so a count's
first k samples are those of a count of k. A block's largest product holds
about 2^12 entries, so its temporaries reuse freed pages (no page faults)
and stay in cache; at least 128 samples, so a large frame's products stay
wide BLAS calls; and at most 2^20 entries, so memory does not grow with the
count. The four streams are fixed, so a stream's blocks depend only on
(seed, count, dim, block width, vectors). Each caller hands _samples the
values it computes from a block alone: the suite's unit columns, the
Rayleigh samples with their denominators ‖g‖², and the polarization pairs
with their probes c ± d, c ± id and scale. A stream of at most
_KEPT_ENTRIES (2^14) complex entries keeps those values, read-only, in a
functools.lru_cache under that key and the deriving function after its
first draw; a longer one is drawn and derived block by block on every
call. The cache is process-wide, shared by every frame and thread,
and holds the _KEPT_STREAMS (16) streams used last, at most 13 MiB; the
benchmark's verify_small shapes use 15. Kept values have the bits of fresh
ones. The suite's sampled rows run last, in one pass over two streams: unit
signals and unit coefficient vectors. Deviations are residuals normalized
by the norms of the factors entering each product (see scaled_deviation),
which keeps them comparable to identity_abs for badly conditioned sequences
too. Inequality checks carry a fixed absolute slack of 1e-9, and relative
checks use 1e-8 rescaled by the caller's identity_abs so a loosened run
loosens coherently.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass
from functools import lru_cache, partial

import numpy as np

from .errors import DegenerateSpanError, NotTightError, NumericalError
from .frame_ops import _ROUTES, FrameSequence, _FrameAnalysis, _unallocated
from .matrix_core import DEFAULT_TOLERANCE, Tolerance, _finite_real, _frozen

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
_SIGNAL_SEED = 0x6672616D6573
_COEFFICIENT_SEED = 0x636F65666673
_POLARIZATION_SEED = 0x706F6C6172
_RAYLEIGH_SEED = 0x7261796C

# _samples sizes each block by the entries per sample of the largest
# product evaluated on it. A block aims at _CACHE_BLOCK entries (64 KiB of
# complex128): its temporaries then stay under glibc's 128 KiB mmap threshold,
# so no call faults in fresh pages, and in L2. It holds at least
# _MIN_BLOCK_SAMPLES samples, so a large frame's products stay wide BLAS calls
# that do not re-read the operator for a few samples each. And it never holds
# more than _SAMPLE_BLOCK entries (or fewer than one sample), so no sampled
# check's memory grows with its count.
_CACHE_BLOCK = 2**12
_MIN_BLOCK_SAMPLES = 128
_SAMPLE_BLOCK = 2**20

# _samples keeps the values derived from a stream of at most _KEPT_ENTRIES
# complex entries in all (count * vectors * dim), for the _KEPT_STREAMS
# streams used last. Polarization's are the largest: c, d and four probes,
# three times the stream's entries, and a float a sample, at most 832 KiB
# (m = 1), so the cache holds at most 13 MiB
_KEPT_ENTRIES = 2**14
_KEPT_STREAMS = 16

# 'analysis_intertwines' and 'synthesis_intertwines' form U S, G U, S T and
# T G, and every partial sum of their entries is bounded by sigma_1^3: no
# product overflows while sigma_1 < 2^_CUBE_EXPONENT, so sigma_1^3 < 2^1023
_CUBE_EXPONENT = 341

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
                      required for (and only for) the ill_conditioned kind,
                      and kept as a Python float
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
            ct = _finite_real(self.condition_target, "condition_target")
            if ct < 1.0:
                raise ValueError("ill_conditioned requires a finite condition_target >= 1")
            object.__setattr__(self, "condition_target", ct)
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

    A size whose arrays numpy cannot allocate raises AllocationError naming
    the frame and numpy's failed allocation (see frame_ops._unallocated).
    """
    try:
        return FrameSequence._from_matrix(_synthesis(spec))
    except MemoryError as exc:
        raise _unallocated(f"{spec.n} x {spec.m} {spec.kind} frame", exc)


def _synthesis(spec: GeneratorSpec) -> np.ndarray:
    """The synthesis matrix T that generate's spec describes."""
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
        target = spec.condition_target
        r = min(n, m)
        if r < 2 and target > 1.0:
            raise ValueError(
                "ill_conditioned with min(n, m) = 1 cannot realize a condition ratio above 1"
            )
        sigma = np.geomspace(1.0, 1.0 / target, r)
        left = _orthonormal_columns(rng, n, r)
        right = _orthonormal_columns(rng, m, r)
        t = left @ (sigma[:, None] * right.conj().T)
    return t


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


def _with_energies(block: np.ndarray) -> tuple:
    """A block of samples with the squared norm of each."""
    return block, _energies(block)


def _inner(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """<x_j, y_j> = Σ x conj(y) for each column pair."""
    return (x * y.conj()).sum(axis=0)


def _worst(*excesses: np.ndarray) -> float:
    """Largest entry over all arrays, and 0.0 when none is positive."""
    return max(float(np.max(e, initial=0.0)) for e in excesses)


def _check_count(name: str, value, positive: bool = False) -> int:
    """The sample count as a Python int, so a record's detail serializes; refuse
    one that is a bool, not an integer, or negative (or zero, where it must be
    positive), before anything is gated or drawn."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"{name} must be an integer, not {type(value).__name__}")
    if value < (1 if positive else 0):
        raise ValueError(f"{name} must be {'positive' if positive else 'non-negative'}")
    return int(value)


def _samples(seed: int, count: int, dim: int, largest: int, derive: Callable,
             vectors: int = 1):
    """derive(*block) for each (vectors, dim, k) block of count samples, each
    `vectors` complex normal vectors of length dim, from the PCG64 stream of
    seed: an iterator of the values derive computes from a block alone.

    The stream is read one draw at a time: each vector's real parts, then its
    imaginary parts, the bits _complex_gaussian gives one vector. So the first
    k samples are the same whatever the count or the block width. largest is
    the number of entries per sample of the largest product evaluated on a
    block, and a block holds

        max(1, min(_SAMPLE_BLOCK // largest, max(_MIN_BLOCK_SAMPLES, _CACHE_BLOCK // largest)))

    samples: about _CACHE_BLOCK entries, so its temporaries reuse freed pages
    and stay in cache, but at least _MIN_BLOCK_SAMPLES samples, so a large
    frame's products stay wide, and within the _SAMPLE_BLOCK memory ceiling.
    The width reads only largest, so two streams of one check given the same
    largest are cut alike, whatever their dim.

    A stream of at most _KEPT_ENTRIES entries is read from _kept_samples; a
    longer one is drawn and derived block by block on every call.
    """
    width = max(1, min(_SAMPLE_BLOCK // largest,
                       max(_MIN_BLOCK_SAMPLES, _CACHE_BLOCK // largest)))
    if count * vectors * dim > _KEPT_ENTRIES:
        return (derive(*block) for block in _drawn_blocks(seed, count, dim, width, vectors))
    return iter(_kept_samples(seed, count, dim, width, vectors, derive))


@lru_cache(maxsize=_KEPT_STREAMS)
def _kept_samples(seed: int, count: int, dim: int, width: int, vectors: int,
                  derive: Callable) -> tuple:
    """derive(*block) for each block of the stream, every array read-only."""
    derived = tuple(derive(*block) for block in _drawn_blocks(seed, count, dim, width, vectors))
    for value in derived:
        for array in value if isinstance(value, tuple) else (value,):
            _frozen(array)
    return derived


def _drawn_blocks(seed: int, count: int, dim: int, width: int, vectors: int):
    rng = np.random.Generator(np.random.PCG64(seed))
    for start in range(0, count, width):
        draws = rng.standard_normal((min(width, count - start), vectors, 2, dim))
        block = np.empty((vectors, dim, len(draws)), dtype=np.complex128)
        re, im = draws.transpose(2, 1, 3, 0)  # (part, vector, entry, sample)
        np.multiply(re, _INV_SQRT2, out=block.real)
        np.multiply(im, _INV_SQRT2, out=block.imag)
        yield block


def _rel_tol(analysis: _FrameAnalysis) -> float:
    """The relative tolerance: _BASE_RELATIVE scaled as identity_abs is."""
    return _BASE_RELATIVE * (analysis.tol.identity_abs / DEFAULT_TOLERANCE.identity_abs)


# Row kinds: each takes its operator names, if any, then the frame's analysis,
# and returns (deviation, tolerance, detail)

def _norms_agree(names: tuple, analysis: _FrameAnalysis):
    """‖X‖² = ‖Y‖ = ‖Z‖ for the operators (X, Y, Z): the gap to ‖X‖² relative to the largest."""
    x, y, z = (analysis.spectral_norm(name) for name in names)
    dev = max(abs(y - x ** 2), abs(z - x ** 2)) / max(x ** 2, y, z)
    return dev, _rel_tol(analysis), None


def _dual_bounds(analysis: _FrameAnalysis):
    lo, hi = analysis.bounds.lower, analysis.bounds.upper
    dual = analysis.dual.bounds
    dev = max(abs(dual.lower - 1.0 / hi) * hi, abs(dual.upper - 1.0 / lo) * lo)
    return dev, _rel_tol(analysis), {"dual_lower": dual.lower, "dual_upper": dual.upper}


def _polarization_probes(c: np.ndarray, d: np.ndarray) -> tuple:
    """A block of pairs with its probes c ± d, c ± id and √(‖c‖²‖d‖²) of each pair."""
    probes = np.concatenate([c + d, c - d, c + 1j * d, c - 1j * d], axis=1)
    return c, d, probes, np.sqrt(_energies(c) * _energies(d))


def _polarization_deviation(analysis: _FrameAnalysis, common_bound: float, pairs: int) -> float:
    """Worst mismatch between the four-term combination and the inner products.

    For a tight sequence, <G c, d> equals A <Q c, d>, and the sesquilinear
    polarization identity rebuilds it from squared Q-norms:

        <G c, d> = (A/4) (|Q(c+d)|^2 - |Q(c-d)|^2 + i |Q(c+id)|^2 - i |Q(c-id)|^2)

    Each pair (c, d) is one sample of two vectors from _samples.
    """
    q, g, m = analysis["Q"], analysis["G"], analysis.frame.size
    worst = 0.0  # np.maximum keeps a NaN
    for c, d, probes, pair_scale in _samples(_POLARIZATION_SEED, pairs, m, 4 * m,
                                             _polarization_probes, vectors=2):
        qnorm2 = _energies(q @ probes).reshape(4, -1)
        combo = (common_bound / 4.0) * (qnorm2[0] - qnorm2[1] + 1j * qnorm2[2] - 1j * qnorm2[3])
        scale = np.maximum(1.0, common_bound * pair_scale)
        gaps = (combo - _inner(g @ c, d), combo - common_bound * _inner(q @ c, d))
        worst = np.maximum(worst, _worst(*(np.abs(gap) / scale for gap in gaps)))
    return float(worst)


def _polarization(pairs: int, analysis: _FrameAnalysis):
    common_bound = analysis.bounds.lower
    dev = max(_polarization_deviation(analysis, common_bound, pairs),
              analysis.deviation(_TIGHT_GRAM), analysis.deviation(_TIGHT_GRAM_PINV))
    return dev, analysis.tol.identity_abs, {"pairs": pairs, "common_bound": common_bound}


# Sampled row kinds: each takes its operator names, if any, then the frame's
# analysis and one block of unit samples (columns), and returns the block's
# worst deviation

def _sandwich(projector: str, operator: str, analysis: _FrameAnalysis, x: np.ndarray):
    """A‖Px‖² ≤ ‖Ax‖² ≤ B‖Px‖² for each column x."""
    lo, hi = analysis.bounds.lower, analysis.bounds.upper
    px2 = _energies(analysis[projector] @ x)
    ax2 = _energies(analysis[operator] @ x)
    return _worst(lo * px2 - ax2, ax2 - hi * px2) / max(1.0, hi)


def _quadratic(projector: str, operator: str, analysis: _FrameAnalysis, x: np.ndarray):
    """‖S†‖⁻¹‖Px‖² ≤ ⟨Ax,x⟩ ≤ ‖S‖‖Px‖² for each column x."""
    upper, inv_lower = analysis.spectral_norm("S"), analysis.spectral_norm("S+")
    px2 = _energies(analysis[projector] @ x)
    quad = _inner(analysis[operator] @ x, x).real
    return _worst(px2 / inv_lower - quad, quad - upper * px2) / max(1.0, upper)


def _pinv_energy(analysis: _FrameAnalysis, f: np.ndarray):
    lhs = _energies(analysis["T+"] @ f)
    rhs = _inner(analysis["S+"] @ f, f).real
    ref = np.maximum(np.abs(lhs), np.abs(rhs))
    nonzero = ref > 0.0
    return _worst(np.abs(lhs - rhs)[nonzero] / ref[nonzero])


@dataclass(frozen=True)
class _Sampled:
    """A sampled row: the worst of evaluate(analysis, x) over the suite's unit
    sample blocks x of one space, against tolerance(analysis)."""

    space: str
    evaluate: Callable
    tolerance: Callable = lambda analysis: _INEQUALITY_SLACK


_POLARIZATION = ("polarization", "⟨Gc,d⟩ = A⟨Qc,d⟩ via ‖Q(c±d)‖², ‖Q(c±id)‖²")
_TIGHT_GRAM = (("G",), ("AQ",), ("U", "T"))
_TIGHT_GRAM_PINV = (("G+",), ("Q/A",), ("G+",))


# name, formula, tight_only, and either a row kind bound to its operator names
# (a function of the analysis), a _Sampled row, or a tuple of identities (see
# _FrameAnalysis.deviation) whose worst deviation the row reports; tight-only
# identity rows also report the common bound A
_REGISTRY = (
    # the dual is (T+)* from T's own factors, so these two read about 0 by
    # construction; 'T† = T*S†' and '(T†)* = S†T' carry their content
    ("pinv_synthesis_is_dual_analysis", "T† = Ũ", False, ((("T+",), ("~U",), ("S+", "T")),)),
    ("pinv_analysis_is_dual_synthesis", "U† = T̃", False, ((("U+",), ("~T",), ("S+", "T")),)),
    ("pinv_synthesis_via_frame_operator", "T† = T*S† = S†T*", False,
     ((("T+",), ("U", "S+"), ("U", "S+")),)),
    ("pinv_synthesis_adjoint_form", "(T†)* = S†T", False, ((("T+*",), ("S+", "T"), ("S+", "T")),)),
    ("frame_operator_pinv_as_product", "(T†)*T† = S†", False,
     ((("T+*", "T+"), ("S+",), ("T+", "T+")),)),
    ("pinv_analysis_via_gram", "(T*)† = TG†", False, ((("U+",), ("T", "G+"), ("T", "G+")),)),
    ("gram_pinv_as_product", "T†(T†)* = G†", False, ((("T+", "T+*"), ("G+",), ("T+", "T+")),)),
    ("pinv_synthesis_via_gram", "T† = G†T*", False, ((("T+",), ("G+", "U"), ("G+", "U")),)),
    ("frame_operator_pinv_projector", "SS† = S†S = P", False,
     ((("S", "S+"), ("P",), ("S", "S+")), (("S+", "S"), ("P",), ("S+", "S")))),
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
    ("span_projector_fixes_vectors", "P fₖ = fₖ (range of T is the span)", False,
     ((("P", "T"), ("T",), ("P", "T")),)),
    ("operator_norms_agree", "‖T‖² = ‖S‖ = ‖G‖", False, partial(_norms_agree, ("T", "S", "G"))),
    ("pinv_norms_agree", "‖T†‖² = ‖S†‖ = ‖G†‖", False, partial(_norms_agree, ("T+", "S+", "G+"))),
    ("analysis_sandwich", "A‖Pf‖² ≤ ‖T*f‖² ≤ B‖Pf‖²", False,
     _Sampled("signals", partial(_sandwich, "P", "U"))),
    ("synthesis_sandwich", "A‖Qc‖² ≤ ‖Tc‖² ≤ B‖Qc‖²", False,
     _Sampled("coeffs", partial(_sandwich, "Q", "T"))),
    ("frame_operator_quadratic_form", "‖S†‖⁻¹‖Pf‖² ≤ ⟨Sf,f⟩ ≤ ‖S‖‖Pf‖²", False,
     _Sampled("signals", partial(_quadratic, "P", "S"))),
    ("gram_quadratic_form", "‖S†‖⁻¹‖Qc‖² ≤ ⟨Gc,c⟩ ≤ ‖S‖‖Qc‖²", False,
     _Sampled("coeffs", partial(_quadratic, "Q", "G"))),
    ("pinv_energy_identity", "‖T†f‖² = ⟨f,S†f⟩", False,
     _Sampled("signals", _pinv_energy, _rel_tol)),
    # the dual's bounds are read off T's factors inverted, so this row reads
    # about 0 by construction, and the dual's certificate carries its content;
    # dual(dual(F)) is W Sigma V* from T's factors, so the next measures
    # |W Sigma V* - T|, the residual T's certificate bounds
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
    The sampled-vector checks read two fixed internal PCG64 streams in
    bounded blocks, so repeated runs on the same sequence produce
    bitwise-identical reports, and a count's first k samples are those of a
    count of k. Degenerate sequences have no dual and raise
    DegenerateSpanError. A frame with sigma_1 >= 2^341 raises NumericalError
    before any row runs: two rows form products up to sigma_1^3, which can
    leave the double range there. vector_samples must be a non-negative
    integer, else ValueError.
    """
    vector_samples = _check_count("vector_samples", vector_samples)
    analysis = _FrameAnalysis(frame, tol)
    # every gate runs before any row: the frame's gate on all three routes,
    # bounds and dual, then the dual's, each raising as it would
    analysis.gate(*_ROUTES), analysis.bounds
    dual = analysis.dual
    dual.gate(*_ROUTES), dual.bounds, dual.canonical_dual
    sigma_1 = analysis.spectral_norm("T")
    if math.frexp(sigma_1)[1] > _CUBE_EXPONENT:
        raise NumericalError(
            "rows 'analysis_intertwines' and 'synthesis_intertwines' form products of size "
            f"up to sigma_1^3, which can leave the double range: sigma_1 {sigma_1:.3e} is at "
            f"least 2^{_CUBE_EXPONENT}"
        )
    rows = [row for row in _REGISTRY if not row[2] or analysis.classification.is_tight]
    sampled = [row for row in rows if isinstance(row[3], _Sampled)]
    records = {}
    for name, formula, tight_only, check in rows:
        if callable(check):
            records[name] = _record(name, formula, *check(analysis))
        elif not isinstance(check, _Sampled):
            detail = {"common_bound": analysis.bounds.lower} if tight_only else None
            dev = max(analysis.deviation(identity) for identity in check)
            records[name] = _record(name, formula, dev, analysis.tol.identity_abs, detail)
    # the sampled rows, evaluated in one pass over the blocks of both streams
    worst = dict.fromkeys((row[0] for row in sampled), 0.0)  # np.maximum keeps a NaN
    n, m = analysis.frame.ambient_dim, analysis.frame.size
    for f, c in zip(_samples(_SIGNAL_SEED, vector_samples, n, max(n, m), _unit_columns),
                    _samples(_COEFFICIENT_SEED, vector_samples, m, max(n, m), _unit_columns)):
        blocks = {"signals": f, "coeffs": c}
        for name, _, _, check in sampled:
            worst[name] = np.maximum(worst[name], check.evaluate(analysis, blocks[check.space]))
    for name, formula, _, check in sampled:
        records[name] = _record(name, formula, worst[name], check.tolerance(analysis),
                                {"samples": vector_samples})
    return IdentityReport(records=tuple(records[row[0]] for row in rows))


def polarization_check(frame: FrameSequence, pairs: int = 100,
                       tol: Tolerance | None = None) -> CheckRecord:
    """Verify the polarization route to the gram form on a tight sequence.

    Rebuilds <G c, d> from the four squared Q-norms |Q(c±d)|^2, |Q(c±id)|^2
    for random pairs and compares against both A <Q c, d> and the direct
    gram inner product; also checks G = AQ and G† = Q/A as matrices. The
    pairs come from a fixed internal PCG64 stream, one draw at a time, and
    are evaluated in blocks, so memory stays bounded and the first k pairs
    are the same for every count. Raises NotTightError when the sequence is
    not tight, and ValueError unless pairs is a non-negative integer.
    """
    pairs = _check_count("pairs", pairs)
    analysis = _FrameAnalysis(frame, tol)
    if not analysis.classification.is_tight:
        raise NotTightError("polarization reconstruction requires a tight sequence")
    analysis.gate("synthesis", "gram")
    return _record(*_POLARIZATION, *_polarization(pairs, analysis))


def bounds_vs_sampling(frame: FrameSequence, samples: int = 10000,
                       tol: Tolerance | None = None) -> CheckRecord:
    """Compare the optimal bounds against an empirical Rayleigh envelope.

    Draws unit vectors uniformly from the span V and evaluates the analysis
    energy |T* f|^2; every sample must land in [A - slack, B + slack]. The
    detail records how closely the empirical envelope approaches each bound
    (fractions of the bound value); with at least 10,000 samples the gap
    typically falls below 5 percent for spans of dimension up to about 8,
    and is exactly zero for tight sequences. Vectors come from a fixed
    internal PCG64 stream in bounded blocks, so the record is reproducible
    bit for bit, and a larger count only adds vectors, so it can only widen
    the envelope. samples must be a positive integer, else ValueError.
    """
    samples = _check_count("samples", samples, positive=True)
    analysis = _FrameAnalysis(frame, tol)
    f_t = analysis.f_t
    if f_t.rank == 0:
        raise DegenerateSpanError("a degenerate sequence has no bounds to sample")
    bounds = analysis.bounds
    on_span = analysis["U"] @ f_t.left_vectors  # (m, r)
    emp_min, emp_max = np.inf, -np.inf  # np.minimum and np.maximum keep a NaN
    for g, energies in _samples(_RAYLEIGH_SEED, samples, f_t.rank, max(on_span.shape),
                                _with_energies):
        ratios = _energies(on_span @ g) / energies
        emp_min, emp_max = np.minimum(emp_min, ratios.min()), np.maximum(emp_max, ratios.max())
    emp_min, emp_max = float(emp_min), float(emp_max)
    dev = max(0.0, bounds.lower - emp_min, emp_max - bounds.upper) / max(1.0, bounds.upper)
    return _record("rayleigh_sampling", "A ≤ ‖T*f‖² ≤ B for unit f in V", dev, _INEQUALITY_SLACK, {
        "samples": samples,
        "span_dim": f_t.rank,
        "lower": bounds.lower,
        "upper": bounds.upper,
        "empirical_min": emp_min,
        "empirical_max": emp_max,
        "lower_gap_fraction": (emp_min - bounds.lower) / bounds.lower,
        "upper_gap_fraction": (bounds.upper - emp_max) / bounds.upper,
    })
