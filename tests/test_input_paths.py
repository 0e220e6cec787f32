"""Fast input paths hold to the formulas they replace, bit for bit.

FrameSequence checks and stacks all its vectors as one array and falls
back to the vector-by-vector checks only to name a bad vector; the seeded
complex Gaussian draws scale each real draw instead of forming a complex
sum and dividing it. Both must give exactly the old bits and messages. An
integer entry past the double range is refused by name, as a non-finite one,
and so is a tol that is not a Tolerance.
"""

import numpy as np
import pytest

from framekit import (FrameSequence, Tolerance, as_matrix, as_vector, frame_bounds, max_abs,
                      min_norm_coefficients, project_coefficients, scaled_deviation, svd)
from framekit.verifier import _complex_gaussian


def bits(z):
    return np.ascontiguousarray(z).view(np.uint64)


@pytest.mark.parametrize("shape", [1, 7, (0,), (3, 0), (4, 6), (16, 32), (2, 3, 5)])
def test_complex_gaussian_is_the_complex_sum_divided(shape):
    for seed in range(20):
        old = np.random.Generator(np.random.PCG64(seed))
        expected = (old.standard_normal(shape) + 1j * old.standard_normal(shape)) / np.sqrt(2.0)
        z = _complex_gaussian(np.random.Generator(np.random.PCG64(seed)), shape)
        assert z.dtype == expected.dtype and z.shape == expected.shape
        assert np.array_equal(bits(z), bits(expected))


def stacked_one_by_one(ambient_dim, vectors):
    return np.stack([as_vector(v, ambient_dim, name=f"vector {k}")
                     for k, v in enumerate(vectors)], axis=1)


def vector_sets():
    rng = np.random.default_rng(5)
    t = rng.standard_normal((5, 8)) + 1j * rng.standard_normal((5, 8))
    yield 5, tuple(t[:, k] for k in range(8))                      # strided views
    yield 5, tuple(np.ascontiguousarray(t[:, k]) for k in range(8))
    yield 5, [list(t[:, k]) for k in range(8)]                     # Python complex
    yield 3, [[1, 0, 2], [0, -1, 4]]                               # integers
    yield 2, [np.array([1.5, -0.0], dtype=np.float32), (0.25, 3)]  # mixed types
    yield 1, [np.array([2.0 - 1j])]
    yield 4, t[:4].T                                               # one 2-D array


@pytest.mark.parametrize("ambient_dim, vectors", list(vector_sets()))
def test_stacked_vectors_equal_the_vector_by_vector_stack(ambient_dim, vectors):
    frame = FrameSequence(ambient_dim=ambient_dim, vectors=vectors)
    expected = stacked_one_by_one(ambient_dim, vectors)
    t = frame.synthesis_matrix()
    assert t.flags.c_contiguous and np.array_equal(bits(t), bits(expected))
    for k, v in enumerate(frame.vectors):
        assert not v.flags.writeable and np.array_equal(bits(v), bits(expected[:, k]))


@pytest.mark.parametrize("ambient_dim, vectors, message", [
    (2, [[1, 0], [0, 1, 0]], "vector 1 has length 3, expected 2"),
    (3, [[1, 0, 0], [0, 1]], "vector 1 has length 2, expected 3"),
    (2, [[1, 0], [np.nan, 1]], "vector 1 entries must be finite"),
    (2, [[1, 0], [0, 1j * np.inf]], "vector 1 entries must be finite"),
    (2, [[[1, 0]], [0, 1]], "vector 0 must be 1-D, got an array of dimension 2"),
    (2, [[[1, 0]], [[0, 1]]], "vector 0 must be 1-D, got an array of dimension 2"),
    (1, [1.0, 2.0], "vector 0 must be 1-D, got an array of dimension 0"),
    # the first bad vector is named, as checking one by one would
    (2, [[1, 0], [np.inf, 0], [1, 2, 3]], "vector 1 entries must be finite"),
    (2, [[1, 0], [1, 2, 3], [np.inf, 0]], "vector 1 has length 3, expected 2"),
])
def test_bad_vectors_are_named_as_before(ambient_dim, vectors, message):
    with pytest.raises(ValueError) as per_vector:
        stacked_one_by_one(ambient_dim, vectors)
    with pytest.raises(ValueError) as stacked:
        FrameSequence(ambient_dim=ambient_dim, vectors=vectors)
    assert str(stacked.value) == str(per_vector.value) == message


HUGE = 10**400  # a Python int, as JSON reads a 401-digit integer literal; past the double range
FRAME = [[1, 0], [0, 1], [1, 1]]


@pytest.mark.parametrize("entry, message", [
    (lambda: FrameSequence(ambient_dim=2, vectors=[[1, 0], [HUGE, 1]]),
     "vector 1 entries must be finite"),
    (lambda: FrameSequence.from_vectors([[1, 0], [0, 1], [1, HUGE]]),
     "vector 2 entries must be finite"),
    (lambda: FrameSequence.truncated(FRAME, tail_energy=HUGE), "tail_energy must be a finite"),
    (lambda: as_vector([1, HUGE], name="signal"), "signal entries must be finite"),
    (lambda: as_matrix([[1, HUGE]]), "matrix entries must be finite"),
    (lambda: svd([[1, 0], [0, HUGE]]), "matrix entries must be finite"),
    (lambda: min_norm_coefficients(FrameSequence.from_vectors(FRAME), [1, HUGE]),
     "signal entries must be finite"),
    (lambda: project_coefficients(FrameSequence.from_vectors(FRAME), [HUGE, 0, 0]),
     "coefficients entries must be finite"),
    (lambda: Tolerance(identity_abs=HUGE), "identity_abs must be finite"),
    (lambda: max_abs([1, HUGE]), "values entries must be finite"),
    (lambda: scaled_deviation([[1.0]], [[HUGE]]), "rhs entries must be finite"),
    (lambda: scaled_deviation([[1.0]], [[1.0]], [[[HUGE]]]), "factor entries must be finite"),
    (lambda: frame_bounds(FrameSequence.from_vectors(FRAME), 0.0),
     "tol must be a Tolerance, not float"),
    (lambda: frame_bounds(FrameSequence.from_vectors(FRAME), 1e-10),
     "tol must be a Tolerance, not float"),
    (lambda: Tolerance(identity_abs=np.float32(np.inf)), "identity_abs must be finite"),
    (lambda: FrameSequence.truncated(FRAME, tail_energy=np.float32(-0.5)),
     "tail_energy cannot be negative"),
    (lambda: FrameSequence.truncated(FRAME, tail_energy=np.int64(-1)),
     "tail_energy cannot be negative"),
], ids=["FrameSequence", "from_vectors", "truncated", "as_vector", "as_matrix", "svd",
        "min_norm_coefficients", "project_coefficients", "Tolerance", "max_abs",
        "scaled_deviation", "scaled_deviation_factor", "tol-falsy", "tol-float",
        "Tolerance-float32-inf", "truncated-float32", "truncated-int64"])
def test_an_integer_past_the_double_range_is_a_named_value_error(entry, message):
    # numpy and float() raise a bare OverflowError on such an int. A tol that
    # is not a Tolerance is refused by name too: a falsy one read as the
    # default, and any other raised a bare AttributeError. A numpy scalar is
    # read as its float: a float32 inf warned in a cast, and a negative
    # numpy tail energy was refused as not a number
    with pytest.raises(ValueError, match=message):
        entry()

