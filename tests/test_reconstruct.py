"""Minimum-norm reconstruction against independent oracles.

np.linalg.lstsq (LAPACK gelsd) also returns minimum-norm solutions and
never touches this package's SVD path, so it serves as the oracle for
both directions. Optimality is additionally checked head-on: no kernel
perturbation may shorten the solution.
"""

import math
import re
import tracemalloc
import warnings

import numpy as np
import pytest

from framekit import (
    DegenerateSpanError,
    FrameSequence,
    GeneratorSpec,
    NumericalError,
    Tolerance,
    bounds_vs_sampling,
    build_bundle,
    canonical_dual,
    classify,
    frame_bounds,
    generate,
    min_norm_coefficients,
    min_norm_preimage,
    project_coefficients,
    project_signal,
    restricted,
    svd,
)
from framekit import reconstruct
from framekit.frame_ops import _FrameAnalysis
from framekit.matrix_core import _norm

E1 = np.array([1.0, 0.0], dtype=complex)
E2 = np.array([0.0, 1.0], dtype=complex)


def seq(*vectors):
    return FrameSequence.from_vectors([np.asarray(v, dtype=complex) for v in vectors])


def random_frame(rng, n, m):
    vecs = (rng.standard_normal((m, n)) + 1j * rng.standard_normal((m, n))) / np.sqrt(2)
    return FrameSequence.from_vectors(list(vecs), ambient_dim=n)


def random_vector(rng, n):
    return (rng.standard_normal(n) + 1j * rng.standard_normal(n)) / np.sqrt(2)


def pool_frames():
    """The frame kinds and shapes the reconstruction benchmark pool holds."""
    return [generate(GeneratorSpec(kind, n, m, 0)) for n, m in ((64, 128), (128, 256))
            for kind in ("gaussian", "tight", "rank_deficient")]


def lstsq(a, b):
    # the library's default rank cutoff, so the oracle drops the same
    # singular values on rank-deficient frames
    return np.linalg.lstsq(a, b, rcond=1e-12 * max(a.shape))[0]


def test_doubled_vector_splits_the_coefficient():
    # both copies of e1 share the load: c0 = (1/2, 1/2)
    sol = min_norm_coefficients(seq(E1, E1), E1)
    assert np.allclose(sol.solution, [0.5, 0.5], atol=1e-12)
    assert sol.residual_norm == pytest.approx(0.0, abs=1e-12)


def test_doubled_vector_grid_search_confirms_optimum():
    # solutions of Tc = e1 form the line (t, 1-t); scan it
    candidates = [(t, 1.0 - t) for t in np.linspace(-1.0, 2.0, 3001)]
    norms = [np.hypot(*c) for c in candidates]
    best = candidates[int(np.argmin(norms))]
    assert best == pytest.approx((0.5, 0.5), abs=1e-3)
    sol = min_norm_coefficients(seq(E1, E1), E1)
    assert np.linalg.norm(sol.solution) <= min(norms) + 1e-12


def test_orthonormal_basis_coefficients_are_inner_products():
    frame = seq(E1, E2)
    f = np.array([3.0, 4.0j], dtype=complex)
    sol = min_norm_coefficients(frame, f)
    assert np.allclose(sol.solution, [3.0, 4.0j], atol=1e-12)
    assert sol.norm_split[0] == pytest.approx(25.0, rel=1e-12)
    assert sol.norm_split[1] == pytest.approx(0.0, abs=1e-12)


def test_coefficients_match_lstsq_oracle():
    rng = np.random.default_rng(41)
    for n, m in [(3, 6), (5, 4), (4, 4), (6, 9)]:
        frame = random_frame(rng, n, m)
        t = frame.synthesis_matrix()
        f = random_vector(rng, n)
        sol = min_norm_coefficients(frame, f)
        oracle, *_ = np.linalg.lstsq(t, f, rcond=None)
        assert np.allclose(sol.solution, oracle, atol=1e-10)
    for frame in pool_frames():
        f = random_vector(rng, frame.ambient_dim)
        sol = min_norm_coefficients(frame, f)
        assert np.allclose(sol.solution, lstsq(frame.synthesis_matrix(), f), atol=1e-10)


def test_preimage_matches_lstsq_oracle():
    rng = np.random.default_rng(42)
    for n, m in [(3, 6), (5, 4), (6, 6)]:
        frame = random_frame(rng, n, m)
        u = frame.synthesis_matrix().conj().T
        c = random_vector(rng, m)
        sol = min_norm_preimage(frame, c)
        oracle, *_ = np.linalg.lstsq(u, c, rcond=None)
        assert np.allclose(sol.solution, oracle, atol=1e-10)
    for frame in pool_frames():
        c = random_vector(rng, frame.size)
        sol = min_norm_preimage(frame, c)
        assert np.allclose(sol.solution, lstsq(frame.synthesis_matrix().conj().T, c), atol=1e-10)


def test_coefficients_live_in_the_analysis_range():
    rng = np.random.default_rng(43)
    frame = random_frame(rng, 3, 7)
    b = build_bundle(frame)
    f = random_vector(rng, 3)
    sol = min_norm_coefficients(frame, f)
    assert np.allclose(b.coefficient_projector @ sol.solution, sol.solution, atol=1e-10)
    assert np.allclose(b.synthesis @ sol.solution, b.span_projector @ f, atol=1e-10)


def test_preimage_lives_in_the_span():
    rng = np.random.default_rng(44)
    frame = random_frame(rng, 4, 6)
    b = build_bundle(frame)
    c = random_vector(rng, 6)
    sol = min_norm_preimage(frame, c)
    assert np.allclose(b.span_projector @ sol.solution, sol.solution, atol=1e-10)
    assert np.allclose(b.analysis @ sol.solution, b.coefficient_projector @ c, atol=1e-10)


def test_no_kernel_perturbation_shortens_the_solution():
    rng = np.random.default_rng(45)
    frame = random_frame(rng, 3, 8)
    b = build_bundle(frame)
    f = random_vector(rng, 3)
    c0 = min_norm_coefficients(frame, f).solution
    eye = np.eye(frame.size)
    for _ in range(100):
        k = (eye - b.coefficient_projector) @ random_vector(rng, frame.size)
        if np.linalg.norm(k) < 1e-12:
            continue
        assert np.linalg.norm(c0 + k) > np.linalg.norm(c0)


def test_residual_measures_out_of_span_component():
    # f = e2 is orthogonal to span{e1}, so the best synthesis misses by |f|
    frame = seq(E1, E1)
    sol = min_norm_coefficients(frame, E2)
    assert sol.residual_norm == pytest.approx(1.0, rel=1e-12)
    assert np.allclose(sol.solution, [0.0, 0.0], atol=1e-12)
    assert sol.norm_split[0] == pytest.approx(0.0, abs=1e-12)
    assert sol.norm_split[1] == pytest.approx(1.0, rel=1e-12)


def test_pythagorean_split():
    rng = np.random.default_rng(46)
    for n, m in [(3, 5), (6, 4)]:
        frame = random_frame(rng, n, m)
        f = random_vector(rng, n)
        sol = min_norm_coefficients(frame, f)
        total = np.linalg.norm(f) ** 2
        assert sum(sol.norm_split) == pytest.approx(total, rel=1e-12)
        c = random_vector(rng, m)
        sol2 = min_norm_preimage(frame, c)
        assert sum(sol2.norm_split) == pytest.approx(np.linalg.norm(c) ** 2, rel=1e-12)


def test_projection_series_equal_projector_matrices():
    rng = np.random.default_rng(47)
    frame = random_frame(rng, 4, 7)
    b = build_bundle(frame)
    f = random_vector(rng, 4)
    c = random_vector(rng, 7)
    assert np.allclose(project_signal(frame, f), b.span_projector @ f, atol=1e-10)
    assert np.allclose(project_coefficients(frame, c),
                       b.coefficient_projector @ c, atol=1e-10)


def test_projection_is_idempotent():
    rng = np.random.default_rng(48)
    frame = random_frame(rng, 3, 6)
    f = random_vector(rng, 3)
    once = project_signal(frame, f)
    twice = project_signal(frame, once)
    assert np.allclose(once, twice, atol=1e-10)


def test_degenerate_sequences_are_rejected():
    zero = seq([0.0, 0.0], [0.0, 0.0])
    with pytest.raises(DegenerateSpanError):
        min_norm_coefficients(zero, E1)
    with pytest.raises(DegenerateSpanError):
        min_norm_preimage(zero, np.zeros(2, dtype=complex))
    with pytest.raises(DegenerateSpanError):
        project_signal(zero, E1)
    with pytest.raises(DegenerateSpanError):
        project_coefficients(zero, np.zeros(2, dtype=complex))


def test_input_length_validation():
    frame = seq(E1, E2, E1 + E2)
    with pytest.raises(ValueError):
        min_norm_coefficients(frame, np.zeros(3, dtype=complex))
    with pytest.raises(ValueError):
        min_norm_preimage(frame, np.zeros(2, dtype=complex))
    with pytest.raises(ValueError):
        min_norm_coefficients(frame, np.array([np.inf, 0.0]))


def test_solution_scales_linearly():
    rng = np.random.default_rng(49)
    frame = random_frame(rng, 4, 6)
    f = random_vector(rng, 4)
    base = min_norm_coefficients(frame, f).solution
    doubled = min_norm_coefficients(frame, 2.0 * f).solution
    assert np.allclose(doubled, 2.0 * base, atol=1e-10)


@pytest.mark.parametrize("entry, length", [(min_norm_coefficients, 16),
                                           (min_norm_preimage, 512),
                                           (project_signal, 16)],
                         ids=["min_norm_coefficients", "min_norm_preimage", "project_signal"])
def test_t_s_gated_reconstruction_forms_no_m_by_m_array(entry, length):
    # T/S-gated results read T+ and T's factors, n x m at most; one m x m
    # complex array would take m^2 * 16 bytes (4.19 MB at m = 512)
    frame = generate(GeneratorSpec("gaussian", 16, 512, 0))
    x = random_vector(np.random.default_rng(50), length)
    entry(frame, x)  # T's SVD is kept by the frame from here on
    tracemalloc.start()
    try:
        entry(frame, x)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < frame.size**2 * 16


@pytest.mark.parametrize("entry, length", [(min_norm_coefficients, 64),
                                           (min_norm_preimage, 128),
                                           (project_signal, 64),
                                           (project_coefficients, 128)],
                         ids=["min_norm_coefficients", "min_norm_preimage", "project_signal",
                              "project_coefficients"])
def test_a_call_on_a_kept_frame_copies_no_factor(entry, length):
    # W* x and V* x are taken as (x* W)* and (x* V)*, so a call on a frame
    # already seen allocates vectors only: below 16 n k bytes, the size of W
    n, m = 64, 128
    frame = generate(GeneratorSpec("gaussian", n, m, 0))
    x = random_vector(np.random.default_rng(51), length)
    entry(frame, x)  # the frame keeps T's factors and the gate's deviations
    tracemalloc.start()
    try:
        entry(frame, x)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * n * min(n, m)


CONDITIONING_CASES = ([(kind, None) for kind in ("gaussian", "tight", "rank_deficient", "duplicated")]
                      + [("ill_conditioned", kappa) for kappa in (1e2, 1e4, 1e5)])


@pytest.mark.parametrize("n, m", [(4, 6), (16, 32)], ids=["4x6", "16x32"])
@pytest.mark.parametrize("kind, kappa", CONDITIONING_CASES,
                         ids=[kind if kappa is None else f"{kind}-{kappa:.0e}"
                              for kind, kappa in CONDITIONING_CASES])
def test_reconstruction_error_grows_with_kappa_not_its_square(kind, kappa, n, m):
    # every result reads T+ or G's basis of range(U), not S+ or G+, so a
    # call the gate accepts passes its result check and stays within about
    # kappa * eps of lstsq; kappa = sigma_max / sigma_r of T, taken by numpy
    for seed in range(4):
        frame = generate(GeneratorSpec(kind, n, m, seed, condition_target=kappa))
        t = frame.synthesis_matrix()
        u = t.conj().T
        sv = np.linalg.svd(t, compute_uv=False)
        kept = sv[sv > 1e-12 * max(n, m) * sv[0]]
        # on well-conditioned frames rounding in the sums, not kappa, sets
        # the error, so the bound is never below 1e-14
        bound = 1e-15 * max(kept[0] / kept[-1], 10.0)
        rng = np.random.default_rng(seed)
        for _ in range(5):
            f, c = random_vector(rng, n), random_vector(rng, m)
            results = [
                (min_norm_coefficients(frame, f).solution, lstsq(t, f)),
                (min_norm_preimage(frame, c).solution, lstsq(u, c)),
                (project_signal(frame, f), t @ lstsq(t, f)),
                (project_coefficients(frame, c), u @ lstsq(u, c)),
            ]
            for out, ref in results:
                assert np.max(np.abs(out - ref)) <= bound * np.max(np.abs(ref))


def test_a_tall_ill_conditioned_frame_answers_under_a_tight_identity_abs():
    # on a tall frame S = T T* is the larger, rank-deficient square: gated on
    # S, these three calls were refused, S's T+ tie reading 4.1e-14 to
    # 1.4e-13. The gate on G, the smaller square, reads at most 2.9e-16 at
    # G's tie, so each answers, within the bound above of lstsq
    for seed in range(3):
        frame = generate(GeneratorSpec("ill_conditioned", 6, 4, seed, condition_target=1e4))
        t = frame.synthesis_matrix()
        sv = np.linalg.svd(t, compute_uv=False)
        bound = 1e-15 * max(sv[0] / sv[-1], 10.0)
        f = random_vector(np.random.default_rng(seed), 6)
        ref = lstsq(t, f)
        out = min_norm_coefficients(frame, f, Tolerance(identity_abs=1e-14)).solution
        assert np.max(np.abs(out - ref)) <= bound * np.max(np.abs(ref))


RECONSTRUCTIONS = {
    "min_norm_coefficients": (min_norm_coefficients, "n"),
    "min_norm_preimage": (min_norm_preimage, "m"),
    "project_signal": (project_signal, "n"),
    "project_coefficients": (project_coefficients, "m"),
}


@pytest.mark.parametrize("name", RECONSTRUCTIONS)
@pytest.mark.parametrize("kind", ["gaussian", "tight", "rank_deficient"])
def test_result_checks_follow_the_frame_across_scales(kind, name):
    # scaling T by 2^k scales T+ f by 2^-k; each result check scales with
    # the norms that enter it, so no scale makes an honest call refuse
    entry, side = RECONSTRUCTIONS[name]
    refused = []
    for n, m in [(4, 6), (16, 32)]:
        t = generate(GeneratorSpec(kind, n, m, 2)).synthesis_matrix()
        x = random_vector(np.random.default_rng(2), n if side == "n" else m)
        x /= np.linalg.norm(x)
        for k in range(-40, 41, 4):
            frame = FrameSequence.from_vectors(list((t * 2.0**k).T), ambient_dim=n)
            try:
                entry(frame, x)
            except NumericalError as exc:
                refused.append((n, m, k, str(exc)))
    assert refused == []


def parts(x):
    """The real and imaginary parts of a complex array, or a float, as one float array."""
    return np.ascontiguousarray(x, dtype=complex).reshape(-1).view(np.float64)


def call(name, frame, x, tol):
    """Every float a reconstruction returns: the result's parts, then residual_norm
    and norm_split for the minimum-norm problems, each scaled to x's size k by
    the power 1 or 2 that the linear law gives it."""
    out = RECONSTRUCTIONS[name][0](frame, x, tol)
    if isinstance(out, np.ndarray):
        return parts(out), []
    return parts(out.solution), [(out.residual_norm, 1), *((v, 2) for v in out.norm_split)]


HOMOGENEITY_CASES = {
    "gaussian": (GeneratorSpec("gaussian", 4, 6, 2), Tolerance()),
    "tight": (GeneratorSpec("tight", 4, 6, 2), Tolerance()),
    "rank_deficient": (GeneratorSpec("rank_deficient", 6, 4, 2), Tolerance()),
    # refused at |x| = 1 under this identity_abs: the refusal holds at every size
    "ill_conditioned": (GeneratorSpec("ill_conditioned", 4, 6, 0, condition_target=1e4),
                        Tolerance(identity_abs=1e-14)),
    "ill_conditioned_16x32": (GeneratorSpec("ill_conditioned", 16, 32, 0, condition_target=1e4),
                              Tolerance()),
}


def assert_results_follow_the_input_scale(name, frames, x, tol, exponents):
    """result(2^k x) is 2^k result(x) bit for bit wherever it is returned, a
    typed error names it where it overflows or where the result or residual
    underflows with lost bits (norm_split's squares are rounded), and a
    refusal at x holds at 2^k x; each call on the frame frames() returns."""
    try:
        base, scalars = call(name, frames(), x, tol)
    except NumericalError:
        base = None
    for k in exponents:
        frame = frames()
        xk = np.ldexp(parts(x), k).view(complex)
        if base is None:
            with pytest.raises(NumericalError, match="self-check"):
                call(name, frame, xk, tol)
            continue
        with np.errstate(over="ignore"):
            expected = np.concatenate([np.ldexp(base, k),
                                       [np.ldexp(v, p * k) for v, p in scalars]])
        if not np.isfinite(expected).all():
            with pytest.raises(NumericalError, match="double range"):
                call(name, frame, xk, tol)
            continue
        powers = np.array([1] * base.size + [p for _, p in scalars])
        lost = np.ldexp(expected, -powers * k) != np.concatenate([base, [v for v, _ in scalars]])
        if lost[powers == 1].any():
            with pytest.raises(NumericalError, match="underflows"):
                call(name, frame, xk, tol)
            continue
        out, out_scalars = call(name, frame, xk, tol)
        got = np.concatenate([out, [v for v, _ in out_scalars]])
        assert got.tobytes() == expected.tobytes(), k


@pytest.mark.parametrize("name", RECONSTRUCTIONS)
@pytest.mark.parametrize("case", HOMOGENEITY_CASES)
def test_results_follow_the_input_scale_bit_for_bit(case, name):
    spec, tol = HOMOGENEITY_CASES[case]
    frame = generate(spec)
    side = frame.ambient_dim if RECONSTRUCTIONS[name][1] == "n" else frame.size
    x = random_vector(np.random.default_rng(2), side)
    assert_results_follow_the_input_scale(name, lambda: frame, x, tol, range(-900, 901, 25))


@pytest.mark.parametrize("warm", [False, True], ids=["fresh", "warm"])
@pytest.mark.parametrize("name", RECONSTRUCTIONS)
@pytest.mark.parametrize("case", HOMOGENEITY_CASES)
def test_results_follow_the_input_scale_at_both_ends_of_the_double_range(case, name, warm):
    # input peaks 2^-1074 to 2^-1000 and 2^990 to 2^1023, and every 50th
    # from 2^-1070 between: the result is multiplied back by 2^e up to where
    # its norm's exponent plus e reaches 1023 or e passes 1000, and checked
    # past there; parts in {-1, 0, 1} keep 2^k x exact down to 2^-1074
    spec, tol = HOMOGENEITY_CASES[case]
    frame = generate(spec)
    side = frame.ambient_dim if RECONSTRUCTIONS[name][1] == "n" else frame.size
    x = np.resize([1.0, -1j, 1 + 1j, 0.0, -1 - 1j, 1j, -1.0], side)
    assert_results_follow_the_input_scale(
        name, (lambda: frame) if warm else (lambda: generate(spec)), x, tol,
        [*range(-1074, -999), *range(-1070, 1021, 50), *range(990, 1024)])


@pytest.mark.parametrize("name", RECONSTRUCTIONS)
def test_an_input_is_read_where_it_lies_and_left_as_it_was(name):
    # complex128 input is not copied before it is scaled: a strided or
    # read-only input gives a contiguous copy's bits and is left unchanged
    frame = generate(GeneratorSpec("gaussian", 4, 6, 0))
    side = frame.ambient_dim if RECONSTRUCTIONS[name][1] == "n" else frame.size
    wide = random_vector(np.random.default_rng(3), 2 * side)
    before = wide.tobytes()
    frozen = np.ascontiguousarray(wide[::2])
    frozen.setflags(write=False)
    base, scalars = call(name, frame, wide[::2].copy(), Tolerance())
    for x in (wide[::2], frozen, list(wide[::2])):
        out, out_scalars = call(name, frame, x, Tolerance())
        assert out.tobytes() == base.tobytes() and out_scalars == scalars
    assert wide.tobytes() == before


@pytest.mark.parametrize("exponent", [-740, -760, -770])
def test_a_result_that_loses_bits_as_a_subnormal_is_refused(exponent):
    # gaussian 4 x 6 frame (seed 2) scaled by 2^300: T+ f of a unit f scaled by
    # 2^-740 to 2^-770 is subnormal, and was returned with relative errors
    # 6.9e-11, 6.2e-5 and 7.8e-2
    t = generate(GeneratorSpec("gaussian", 4, 6, 2)).synthesis_matrix() * 2.0**300
    frame = FrameSequence.from_vectors(list(t.T))
    f = random_vector(np.random.default_rng(2), 4)
    f /= np.linalg.norm(f)
    with pytest.raises(NumericalError, match=r"minimum-norm solution T\+ f underflows"):
        min_norm_coefficients(frame, f * 2.0**exponent)


def scale_back_outcome(values, k, bound):
    """_scaled_back's bytes, or its refusal's message."""
    try:
        return reconstruct._scaled_back("the result", values, k, bound).tobytes()
    except NumericalError as exc:
        return str(exc)


def ldexp_outcome(values, k):
    """2^k values by np.ldexp, or the refusal of a part that overflows."""
    with np.errstate(over="ignore"):
        out = np.ldexp(values.view(np.float64), k)
    if not np.isfinite(out).all():
        return "the result leaves the double range: an entry overflows"
    return out.tobytes()


@pytest.mark.parametrize("k", [1000, 1001, 1023, 1024])
@pytest.mark.parametrize("reach", [1021, 1022, 1023, 1024, 1025])
def test_the_scale_back_keeps_ldexps_bits_at_the_edges_of_its_multiplied_route(reach, k):
    # reach = frexp(bound)[1] + k: below 1023, with 0 <= k <= 1000, the result
    # is multiplied by 2^k without a scan; past either edge it is checked
    b = reach - k
    values = np.ldexp(np.array([0.75, -0.125, 2.0**-60, -0.0, 0.5, 2.0**-1000]), b).view(complex)
    bound = _norm(values)
    assert math.frexp(bound)[1] == b
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert scale_back_outcome(values, k, bound) == ldexp_outcome(values, k)


@pytest.mark.parametrize("bad", [np.inf, np.nan])
def test_the_scale_back_of_a_result_with_an_inf_or_nan_part_is_refused(bad):
    # frexp(inf) and frexp(nan) read exponent 0: an inf or NaN bound must
    # take the checked route, which refuses
    values = np.array([1.0, bad * 1j, 0.5])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for k in (0, 5, 1000):
            assert scale_back_outcome(values, k, _norm(values)) == (
                "the result leaves the double range: an entry overflows")
        finite = np.array([1.0, 0.5j])
        assert scale_back_outcome(finite, 5, bad) == ldexp_outcome(finite, 5)


@pytest.mark.parametrize("k", [-1100, -1074, -1060, -1023, -5, 0, 5, 1000, 1023, 1030])
def test_a_scalar_scales_back_as_a_one_part_array(k):
    # the residual norm is one float: _scaled gives it the bits, or the
    # refusal, that _scaled_back gives a one-part array, on both its routes
    values = [0.0, 2.0**-1074, 3 * 2.0**-1074, 2.0**-1000, 0.3, 0.75, 1.0, 2.0**20, np.inf, np.nan]
    for x in values:
        for bound in (x, math.inf):
            array = scale_back_outcome(np.array([x]), k, bound)
            try:
                scalar = np.array([reconstruct._scaled("the result", x, k)]).tobytes()
            except NumericalError as exc:
                scalar = str(exc)
            assert scalar == array, (x, bound)


def test_an_exact_subnormal_result_is_returned():
    frame = FrameSequence.from_vectors([E1, E2])
    tiny = np.array([5e-324, 3 * 5e-324])
    assert project_signal(frame, tiny).tobytes() == tiny.astype(complex).tobytes()
    assert project_coefficients(frame, tiny).tobytes() == tiny.astype(complex).tobytes()
    # the solution and residual are exact; the squared norm split rounds to 0
    sol = min_norm_coefficients(frame, tiny)
    assert sol.solution.tobytes() == tiny.astype(complex).tobytes()
    assert (sol.residual_norm, sol.norm_split) == (0.0, (0.0, 0.0))


def test_a_residual_that_loses_bits_is_refused_and_an_exact_one_returned():
    # T = [e1, e2, 0]: the solution (c1, c2) is exact, and the residual |c3|
    # is 2^-1071 |u3| for the unit input u, subnormal there
    frame = FrameSequence.from_vectors([[1.0, 0.0], [0.0, 1.0], [0.0, 0.0]])
    t = 2.0**-1072
    with pytest.raises(NumericalError, match=re.escape(
            "residual_norm underflows: 7.071e-01 * 2^-1071 lies below the normal range "
            "and loses bits")):
        min_norm_preimage(frame, [t, 0.0, (1 + 1j) * t])
    sol = min_norm_preimage(frame, [4 * t, 0.0, 3 * t + 4j * t])  # |3 + 4i| = 5
    assert sol.residual_norm == 5 * t and type(sol.residual_norm) is float
    assert sol.solution.tobytes() == np.array([4 * t, 0.0], dtype=complex).tobytes()


def test_rounding_noise_below_the_normal_range_is_not_refused():
    # on a frame that spans the space f - P f is rounding noise, whose square
    # (0x1.4c00000000001p-101 with OpenBLAS on x86-64) loses bits as a
    # subnormal once scaled back from a signal of size 2^-470; the solution and
    # residual are exact there
    frame = generate(GeneratorSpec("gaussian", 4, 6, 0))
    rng = np.random.default_rng(1)
    f = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    base = min_norm_coefficients(frame, f)
    tiny = min_norm_coefficients(frame, np.ldexp(parts(f), -470).view(complex))
    assert tiny.solution.tobytes() == np.ldexp(parts(base.solution), -470).tobytes()
    assert tiny.residual_norm == math.ldexp(base.residual_norm, -470)
    assert tiny.norm_split == tuple(math.ldexp(v, -940) for v in base.norm_split)
    assert 0.0 < tiny.norm_split[1] < np.finfo(float).tiny


def apply_a_wrong_pseudoinverse(monkeypatch):
    """Make every application of T+ (or (T+)*) 1% off, its range part exact."""
    pinv_applied = reconstruct._pinv_applied

    def wrong(*args, **kwargs):
        x, part = pinv_applied(*args, **kwargs)
        return 1.01 * x, part

    monkeypatch.setattr(reconstruct, "_pinv_applied", wrong)


@pytest.mark.parametrize("entry, length", [(min_norm_coefficients, 4), (project_signal, 4),
                                           (min_norm_preimage, 6)],
                         ids=["min_norm_coefficients", "project_signal", "min_norm_preimage"])
def test_a_wrong_pseudoinverse_is_refused_at_every_input_size(entry, length, monkeypatch):
    # T+ applied 1% off passes the gate, which checks S's route on factors;
    # the result checks see it at every |f|, since they run on f scaled to
    # unit size, where max(1, |f| + |T| |T+ f|) read small f's residual raw
    apply_a_wrong_pseudoinverse(monkeypatch)
    frame = generate(GeneratorSpec("gaussian", 4, 6, 0))
    f = random_vector(np.random.default_rng(0), length)
    f /= np.linalg.norm(f)
    for size in [1.0, 1e-3, 1e-6, 1e-9, 1e-12]:
        with pytest.raises(NumericalError, match="reconstruction self-check .* deviates by"):
            entry(frame, size * f)


def outside_the_kept_factors(n, m, delta):
    """T = T0 + delta x k*, k a unit vector in ker T0, handed T0's factors.

    T V = W Sigma still holds for T0's factors, but V misses the part of T
    along k, and W Sigma V* = T0 is delta x k* away from T. Returns the frame
    and k."""
    base = generate(GeneratorSpec("gaussian", n, m, 0))
    factors = base._svd
    rng = np.random.default_rng(1)
    x, k = random_vector(rng, n), random_vector(rng, m)
    x /= np.linalg.norm(x)
    v = factors.right_vectors
    for _ in range(2):
        k -= v @ (v.conj().T @ k)
    k /= np.linalg.norm(k)
    t = base.synthesis_matrix() + delta * np.outer(x, k.conj())
    return FrameSequence._from_matrix(t, {"T factors": lambda: factors}), k


# every reader of T's factors, called with k as coefficients (ones as a signal)
FACTOR_READERS = {
    "min_norm_coefficients": lambda f, k: min_norm_coefficients(f, np.ones(f.ambient_dim)),
    "min_norm_preimage": min_norm_preimage,
    "project_signal": lambda f, k: project_signal(f, np.ones(f.ambient_dim)),
    "project_coefficients": project_coefficients,
    "canonical_dual": lambda f, k: canonical_dual(f),
    "frame_bounds": lambda f, k: frame_bounds(f),
    "classify": lambda f, k: classify(f),
    "restricted": lambda f, k: restricted(f),
    "build_bundle": lambda f, k: build_bundle(f),
    "bounds_vs_sampling": lambda f, k: bounds_vs_sampling(f, 100),
}


@pytest.mark.parametrize("name", FACTOR_READERS)
@pytest.mark.parametrize("delta", [1e-6, 1e-8])
@pytest.mark.parametrize("n, m", [(4, 6), (16, 32)], ids=["4x6", "16x32"])
def test_every_reader_of_t_s_factors_refuses_a_part_of_t_outside_them(n, m, delta, name):
    # T's certificate holds the whole T to W Sigma V*, so it sees delta x k*:
    # it reads 1.6e-7 (4 x 6) and 2.0e-8 (16 x 32) at delta = 1e-6, and
    # 1.6e-9 and 2.0e-10 at 1e-8, where |T V - W Sigma| read 4.0e-16 and
    # 8.7e-16. Nor did the T/S gate see it: it reads S, which moves by delta^2
    frame, k = outside_the_kept_factors(n, m, delta)
    with pytest.raises(NumericalError, match=r"self-check 'T = W Sigma V\*'"):
        FACTOR_READERS[name](frame, k)


def extended_q(t, v, c):
    """Q c in clongdouble: V's columns lifted as T* (T V), orthonormalized by
    modified Gram-Schmidt run twice, and applied to c. T* y lies in range(T*)
    up to extended rounding, so Q's range is off by about kappa * 1e-19."""
    t = t.astype(np.clongdouble)
    lifted = t.conj().T @ (t @ v.astype(np.clongdouble))
    basis = np.zeros_like(lifted)
    for j in range(lifted.shape[1]):
        x = lifted[:, j].copy()
        for _ in range(2):
            for i in range(j):
                x -= basis[:, i] * (basis[:, i].conj() @ x)
        basis[:, j] = x / np.sqrt((x.conj() @ x).real)
    return basis @ (basis.conj().T @ c.astype(np.clongdouble))


def series_error(frame, seed):
    """|project_coefficients(c) - Q c| / |Q c| for a seeded random c, Q c from extended_q."""
    c = random_vector(np.random.default_rng(seed), frame.size)
    reference = extended_q(frame.synthesis_matrix(), _FrameAnalysis(frame).f_t.right_vectors, c)
    out = project_coefficients(frame, c).astype(np.clongdouble)
    return float(np.linalg.norm(out - reference) / np.linalg.norm(reference))


# the worst error over seeds 0-2 read 7.2e-15, 1.8e-15, 2.1e-15, 1.5e-13 and
# 1.7e-15 through T's V, and 1.2e-14, 1.9e-15, 2.0e-15, 1.8e-13 and 1.9e-15
# through G's basis; each bound is at least twice the larger
SERIES_ACCURACY = [
    ("rank_deficient", 64, 128, None, 3e-14),
    ("gaussian", 64, 128, None, 5e-15),
    ("duplicated", 64, 128, None, 5e-15),
    ("ill_conditioned", 64, 128, 1e4, 4e-13),
    ("rank_deficient", 16, 32, None, 5e-15),
]


@pytest.mark.parametrize("kind, n, m, kappa, bound", SERIES_ACCURACY,
                         ids=[f"{kind}-{n}x{m}" for kind, n, m, _, _ in SERIES_ACCURACY])
def test_the_coefficient_series_matches_an_extended_precision_q(kind, n, m, kappa, bound):
    for seed in range(3):
        frame = generate(GeneratorSpec(kind, n, m, seed, condition_target=kappa))
        assert series_error(frame, seed) <= bound


def test_the_coefficient_series_on_the_benchmark_pool_matches_an_extended_precision_q():
    # the worst read 8.0e-15 through T's V and 8.7e-15 through G's basis
    assert max(series_error(frame, 0) for frame in pool_frames()) <= 2e-14


@pytest.mark.parametrize("n, m", [(16, 32), (32, 16)], ids=["16x32-S-gate", "32x16-G-gate"])
def test_a_rank_rel_that_cuts_gives_the_cut_coefficient_series(n, m, monkeypatch):
    # rank_rel 1e-3 keeps 6 of the 16 singular values of a kappa = 1e4 frame;
    # 'T Q c = P T c' drops the cut part of T c from both sides, so the call
    # returns V_r V_r* c, the Q c whose leftover min_norm_preimage reports
    frame = generate(GeneratorSpec("ill_conditioned", n, m, 0, condition_target=1e4))
    cut = Tolerance(rank_rel=1e-3)
    c = np.linspace(-1.0, 1.0, m) + 0.5j
    v = svd(frame.synthesis_matrix(), cut).right_vectors
    assert v.shape[1] == 6
    series = project_coefficients(frame, c, cut)
    assert np.linalg.norm(series - v @ (v.conj().T @ c)) <= 1e-12 * np.linalg.norm(c)
    leftover = min_norm_preimage(frame, c, cut).residual_norm
    assert abs(np.linalg.norm(c - series) - leftover) <= 4 * np.finfo(float).eps * leftover
    range_part = reconstruct._range_part
    monkeypatch.setattr(reconstruct, "_range_part", lambda basis, x: 0.99 * range_part(basis, x))
    with pytest.raises(NumericalError, match="'T Q c = P T c' deviates by"):
        project_coefficients(frame, c, cut)
