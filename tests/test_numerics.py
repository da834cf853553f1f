import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from tawt_lab.numerics import (
    DimensionError,
    NumericError,
    Rng,
    cosine_similarity,
    float_repr17,
    hash64,
    softmax_rows,
)

from oracles import finite_diff_gradient, mean_loss_of_logits

finite_floats = st.floats(min_value=-30.0, max_value=30.0, allow_nan=False)


def softmax1(logits) -> np.ndarray:
    """softmax_rows on a one-row matrix, as the training kernels call it."""
    return softmax_rows(np.asarray([logits], dtype=np.float64))[0]


def loss1(logits, label: int) -> float:
    """mean_loss_of_logits of a one-row batch: -ln(softmax(z)_y + eps)."""
    return mean_loss_of_logits(np.asarray([logits], dtype=np.float64), np.array([label]))


class TestSoftmax:
    """softmax_rows, the softmax every training and evaluation path runs."""

    def test_two_equal_logits(self):
        np.testing.assert_allclose(softmax1([0.0, 0.0]), [0.5, 0.5], atol=1e-15)

    def test_shift_invariance_constant(self):
        for c in (-5.0, 0.0, 3.25):
            np.testing.assert_allclose(softmax1([c, c, c]), [1 / 3] * 3, atol=1e-12)

    def test_hand_log_values(self):
        out = softmax1(np.log([1.0, 2.0, 3.0]))
        np.testing.assert_allclose(out, [1 / 6, 2 / 6, 3 / 6], atol=1e-12)

    def test_large_logits_stable(self):
        out = softmax1([1000.0, 1000.0])
        np.testing.assert_allclose(out, [0.5, 0.5], atol=1e-12)

    def test_rows_are_independent(self):
        out = softmax_rows(np.array([[0.0, 0.0], [1000.0, 1000.0], [0.0, np.log(3.0)]]))
        np.testing.assert_allclose(out, [[0.5, 0.5], [0.5, 0.5], [0.25, 0.75]], atol=1e-12)

    def test_empty_raises(self):
        with pytest.raises(DimensionError):
            softmax_rows(np.empty((1, 0)))
        with pytest.raises(DimensionError):
            softmax_rows(np.zeros(3))

    @given(st.lists(finite_floats, min_size=1, max_size=8))
    def test_sums_to_one_and_positive(self, logits):
        out = softmax1(logits)
        assert abs(out.sum() - 1.0) <= 1e-12
        assert np.all(out > 0.0) and np.all(out < 1.0 + 1e-12)

    @given(st.lists(finite_floats, min_size=1, max_size=8), finite_floats)
    def test_shift_invariance(self, logits, c):
        base = softmax1(logits)
        shifted = softmax1(np.asarray(logits) + c)
        np.testing.assert_allclose(base, shifted, atol=1e-12)


class TestCrossEntropy:
    """mean_loss_of_logits, the reference loss that task_loss and evaluate
    equal bitwise (tests/test_model.py::TestBlockedForward)."""

    def test_uniform_gives_log_k(self):
        for k in (2, 5, 10):
            assert abs(loss1(np.zeros(k), 0) - math.log(k)) < 1e-9

    def test_one_hot_near_zero(self):
        # p_y rounds to 1, so the loss is -ln(1 + eps): within eps of zero
        assert abs(loss1([0.0, 0.0, 50.0, 0.0], 2)) <= 1e-11

    def test_hand_value(self):
        # -ln(0.75), up to the 1e-12 shift from the epsilon inside the log
        assert abs(loss1(np.log([0.25, 0.75]), 1) - 0.28768207245178085) < 1e-9

    def test_mean_over_rows(self):
        Z = np.array([[0.0, 0.0], [0.0, np.log(3.0)]])
        expected = (math.log(2.0) - math.log(0.75)) / 2
        assert abs(mean_loss_of_logits(Z, np.array([0, 1])) - expected) < 1e-9

    @given(st.integers(2, 6), st.integers(0, 5), st.lists(st.floats(-10.0, 10.0), min_size=6, max_size=6))
    def test_nonnegative(self, k, label, raw):
        # |z| <= 10 keeps p_y below 1 - 2e-9, where the eps shift cannot push the loss below 0
        assert loss1(raw[:k], label % k) >= 0.0


class TestCosineSimilarity:
    def test_identical(self):
        assert cosine_similarity([1.0, 2.0, -3.0], [1.0, 2.0, -3.0]) == pytest.approx(1.0)

    def test_orthogonal(self):
        assert cosine_similarity([1.0, 0.0], [0.0, 5.0]) == 0.0

    def test_collinear(self):
        assert cosine_similarity([1.0, 2.0], [2.0, 4.0]) == pytest.approx(1.0, abs=1e-12)

    def test_zero_vector_convention(self):
        assert cosine_similarity([0.0, 0.0], [3.0, 4.0]) == 0.0
        assert cosine_similarity([1e-13, 0.0], [3.0, 4.0]) == 0.0

    def test_length_mismatch(self):
        with pytest.raises(DimensionError):
            cosine_similarity([1.0], [1.0, 2.0])

    @given(
        st.lists(finite_floats, min_size=2, max_size=6),
        st.lists(finite_floats, min_size=2, max_size=6),
    )
    def test_range_and_symmetry(self, u, v):
        n = min(len(u), len(v))
        u, v = u[:n], v[:n]
        s = cosine_similarity(u, v)
        assert -1.0 <= s <= 1.0
        assert s == cosine_similarity(v, u)

    @given(
        st.lists(st.floats(-5, 5, allow_nan=False), min_size=2, max_size=5),
        st.floats(0.1, 50.0),
        st.floats(0.1, 50.0),
    )
    def test_scale_invariance(self, u, a, b):
        from hypothesis import assume

        # stay clear of the zero-norm cutoff, where the convention wins
        assume(float(np.linalg.norm(u)) > 1e-6)
        v = [x + 1.0 for x in u]
        base = cosine_similarity(u, v)
        scaled = cosine_similarity(np.asarray(u) * a, np.asarray(v) * b)
        assert abs(base - scaled) < 1e-12


class TestFiniteDiff:
    def test_quadratic(self):
        grad = finite_diff_gradient(lambda p: 0.5 * float(p @ p), [3.0, -1.0], h=1e-5)
        np.testing.assert_allclose(grad, [3.0, -1.0], atol=1e-8)

    def test_constant(self):
        grad = finite_diff_gradient(lambda p: 7.0, [1.0, 2.0, 3.0])
        np.testing.assert_allclose(grad, 0.0, atol=1e-12)

    def test_sine(self):
        grad = finite_diff_gradient(lambda p: math.sin(p[0]), [0.0], h=1e-5)
        assert abs(grad[0] - 1.0) < 1e-9

    def test_bad_step(self):
        with pytest.raises(ValueError):
            finite_diff_gradient(lambda p: 0.0, [1.0], h=0.0)

    def test_nonfinite_objective(self):
        with pytest.raises(NumericError):
            finite_diff_gradient(lambda p: float("nan"), [1.0])


class TestRng:
    def test_same_seed_bitwise_identical(self):
        a, b = Rng(123456789), Rng(123456789)
        assert np.array_equal(a.uniform(-1, 1, 100), b.uniform(-1, 1, 100))
        assert np.array_equal(a.integers(0, 10, 50), b.integers(0, 10, 50))
        assert np.array_equal(a.permutation(31), b.permutation(31))
        assert np.array_equal(a.subset(100, 7), b.subset(100, 7))

    def test_different_seeds_differ(self):
        assert not np.array_equal(Rng(1).uniform(0, 1, 32), Rng(2).uniform(0, 1, 32))

    def test_spawn_streams_independent(self):
        root = Rng(9)
        a1 = root.spawn("alpha").uniform(0, 1, 16)
        b1 = root.spawn("beta").uniform(0, 1, 16)
        assert np.array_equal(a1, Rng(9).spawn("alpha").uniform(0, 1, 16))
        assert not np.array_equal(a1, b1)

    def test_subset_distinct(self):
        idx = Rng(4).subset(50, 20)
        assert len(set(idx.tolist())) == 20
        with pytest.raises(ValueError):
            Rng(4).subset(5, 6)


class TestHash64:
    def test_deterministic(self):
        assert hash64(1, "x", 2) == hash64(1, "x", 2)

    def test_sensitive_to_parts(self):
        vals = {hash64(0), hash64(1), hash64(0, 0), hash64("0"), hash64(0, "a")}
        assert len(vals) == 5

    def test_rejects_floats(self):
        with pytest.raises(TypeError):
            hash64(0.5)

    def test_range(self):
        assert 0 <= hash64(12345, "stream") < 2**64


def test_float_repr17_round_trips():
    for x in (0.1, 1 / 3, 1e-300, 123456.789, -0.0):
        assert float(float_repr17(x)) == x
