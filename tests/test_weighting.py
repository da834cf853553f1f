import math

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from tawt_lab.model import RepHessian, init_model
from tawt_lab.numerics import DimensionError
from tawt_lab.weighting import (
    DegenerateWeightsError,
    SimplexWeights,
    SingularSystemError,
    cosine_task_gradient,
    hessian_cg_solve,
    init_weights,
    mirror_descent_step,
)

from conftest import random_dataset
from oracles import (
    BracketingViolationError, backward, identity_hessian_task_gradient, matching_weights,
)

weight_lists = st.lists(st.floats(0.01, 10.0), min_size=2, max_size=6)
gradient_lists = st.lists(st.floats(-50.0, 50.0, allow_nan=False), min_size=2, max_size=6)


class TestSimplexWeights:
    def test_normalizes_and_freezes(self):
        w = SimplexWeights([1.0, 3.0])
        np.testing.assert_allclose(w.values, [0.25, 0.75])
        with pytest.raises(ValueError):
            w.values[0] = 0.5

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            SimplexWeights(np.array([0.5, -0.1, 0.6]))

    def test_rejects_empty_and_zero_sum(self):
        with pytest.raises(DimensionError):
            SimplexWeights(np.array([]))
        with pytest.raises(ValueError):
            SimplexWeights(np.array([0.0, 0.0]))


class TestInitWeights:
    def test_uniform_four_tasks(self):
        np.testing.assert_allclose(init_weights("uniform", [9, 9, 9, 9]).values, [0.25] * 4)

    def test_proportional_equal_sizes(self):
        np.testing.assert_allclose(
            init_weights("proportional", [9000, 9000, 9000]).values, [1 / 3] * 3
        )

    def test_proportional_hand_case(self):
        np.testing.assert_allclose(init_weights("proportional", [100, 300]).values, [0.25, 0.75])

    def test_bad_sizes(self):
        with pytest.raises(ValueError):
            init_weights("proportional", [10, 0])
        with pytest.raises(ValueError):
            init_weights("uniform", [])
        with pytest.raises(ValueError):
            init_weights("nope", [1, 2])


class TestCosineTaskGradient:
    def test_perfect_alignment(self):
        g = np.array([1.0, 2.0, 3.0])
        assert cosine_task_gradient(g, g, c=1.0) == pytest.approx(-1.0)

    def test_orthogonal(self):
        assert cosine_task_gradient(np.array([1.0, 0.0]), np.array([0.0, 1.0]), 10.0) == 0.0

    def test_scale_multiplies(self):
        g = np.array([1.0, 1.0])
        assert cosine_task_gradient(g, g, c=30.0) == pytest.approx(-30.0)

    def test_rejects_nonpositive_c(self):
        with pytest.raises(ValueError):
            cosine_task_gradient(np.ones(2), np.ones(2), c=0.0)

    @given(gradient_lists)
    def test_antisymmetric_in_sign_flip(self, raw):
        gt = np.asarray(raw)
        g0 = np.asarray(raw) + 1.0
        a = cosine_task_gradient(g0, gt, 2.0)
        b = cosine_task_gradient(g0, -gt, 2.0)
        assert a == pytest.approx(-b, abs=1e-12)


class TestIdentityHessianGradient:
    def test_orthogonal_zero(self):
        assert identity_hessian_task_gradient(np.array([1.0, 0.0]), np.array([0.0, 2.0])) == 0.0

    def test_unit_default_scale(self):
        g = np.array([1.0, 0.0])
        assert identity_hessian_task_gradient(g, g) == pytest.approx(-5.0)

    def test_mismatch(self):
        with pytest.raises(DimensionError):
            identity_hessian_task_gradient(np.ones(2), np.ones(3))


class TestMirrorDescent:
    def test_hand_value(self):
        w = SimplexWeights(np.array([0.5, 0.5]))
        out = mirror_descent_step(w, np.array([-1.0, 1.0]), eta=1.0)
        np.testing.assert_allclose(out.values, [0.8807970779778823, 0.1192029220221177], atol=1e-6)

    def test_eta_zero_is_bitwise_identity(self):
        w = SimplexWeights(np.array([0.3, 0.2, 0.5]))
        assert mirror_descent_step(w, np.array([1.0, -2.0, 3.0]), 0.0) is w

    def test_equal_gradients_leave_weights(self):
        w = SimplexWeights(np.array([0.1, 0.6, 0.3]))
        for val in (-4.0, 0.0, 2.5):
            out = mirror_descent_step(w, np.full(3, val), eta=1.0)
            np.testing.assert_allclose(out.values, w.values, atol=1e-12)

    def test_underflow_degenerates(self):
        w = SimplexWeights(np.array([0.0, 1.0]))
        with pytest.raises(DegenerateWeightsError):
            mirror_descent_step(w, np.array([-1000.0, 0.0]), eta=1.0)

    def test_overflow_safe(self):
        w = SimplexWeights(np.array([0.5, 0.5]))
        out = mirror_descent_step(w, np.array([-800.0, 800.0]), eta=1.0)
        np.testing.assert_allclose(out.values, [1.0, 0.0], atol=1e-300)

    def test_zero_weight_stays_zero(self):
        w = SimplexWeights(np.array([0.0, 0.4, 0.6]))
        out = mirror_descent_step(w, np.array([-3.0, 0.0, 1.0]), eta=1.0)
        assert out.values[0] == 0.0

    def test_gradient_length_mismatch(self):
        with pytest.raises(DimensionError):
            mirror_descent_step(SimplexWeights(np.ones(2)), np.ones(3), 1.0)

    @pytest.mark.parametrize("bad", [math.nan, -math.inf, math.inf], ids=["nan", "-inf", "+inf"])
    def test_nonfinite_gradient_is_refused(self, bad):
        """A NaN would vanish every weight, -inf would meet inf - inf in the
        max-subtraction, and +inf would zero its weight in silence."""
        w = SimplexWeights(np.array([0.25, 0.75]))
        with pytest.raises(ValueError, match="weight gradient must be finite"):
            mirror_descent_step(w, np.array([0.5, bad]), eta=1.0)

    @given(weight_lists, gradient_lists, st.floats(0.0, 5.0))
    def test_simplex_preserved(self, raw_w, raw_g, eta):
        n = min(len(raw_w), len(raw_g))
        w = SimplexWeights(raw_w[:n])
        out = mirror_descent_step(w, np.asarray(raw_g[:n]), eta)
        assert np.all(out.values >= 0.0)
        assert abs(out.values.sum() - 1.0) <= 1e-9

    @given(weight_lists, gradient_lists, st.floats(-3.0, 3.0))
    def test_shift_invariance(self, raw_w, raw_g, c):
        n = min(len(raw_w), len(raw_g))
        w = SimplexWeights(raw_w[:n])
        g = np.asarray(raw_g[:n])
        a = mirror_descent_step(w, g, 0.7)
        b = mirror_descent_step(w, g + c, 0.7)
        np.testing.assert_allclose(a.values, b.values, atol=1e-12)

    @given(weight_lists)
    def test_order_response(self, raw_w):
        # smaller task gradient means the weight ratio strictly grows
        w = SimplexWeights(raw_w[:2] if len(raw_w) >= 2 else [1, 1])
        g = np.array([-0.5, 0.5])
        out = mirror_descent_step(w, g, eta=1.0)
        before = w.values[0] / w.values[1]
        after = out.values[0] / out.values[1]
        assert after == pytest.approx(before * math.exp(1.0), rel=1e-9)


class TestMatchingWeights:
    def test_interpolates_hand_case(self):
        w = matching_weights([0.2, 0.5], 0.3)
        np.testing.assert_allclose(w.values, [2 / 3, 1 / 3], atol=1e-15)
        assert float(w.values @ [0.2, 0.5]) == pytest.approx(0.3, abs=1e-16)

    def test_lower_endpoint_match(self):
        np.testing.assert_allclose(matching_weights([0.3, 0.9], 0.3).values, [1.0, 0.0])

    def test_no_bracket_raises(self):
        with pytest.raises(BracketingViolationError):
            matching_weights([0.4, 0.6], 0.3)
        with pytest.raises(BracketingViolationError):
            matching_weights([0.1, 0.2], 0.3)

    def test_all_equal_risks(self):
        w = matching_weights([0.5, 0.5, 0.5], 0.5)
        assert w.values[0] == 1.0 and np.all(w.values[1:] == 0.0)

    def test_nearest_pair_selected(self):
        w = matching_weights([0.1, 0.25, 0.6, 0.4], 0.3)
        assert w.values[1] > 0 and w.values[3] > 0
        assert w.values[0] == 0.0 and w.values[2] == 0.0

    @given(
        st.lists(st.floats(0.01, 5.0), min_size=2, max_size=8),
        st.floats(0.0, 1.0),
    )
    # At frac = 1 the interpolation lands one ulp above risks[-1], outside the bracket.
    @example(risks=[1.2145014981287277, 3.711330700000588], frac=1.0)
    def test_identity_within_ulps(self, risks, frac):
        risks = sorted(risks)
        target = min(max(risks[0] + frac * (risks[-1] - risks[0]), risks[0]), risks[-1])
        w = matching_weights(risks, target)
        total = float(w.values @ np.asarray(risks))
        assert abs(total - target) <= 4 * np.spacing(max(abs(target), max(risks)))


class TestHessianTaskGradient:
    """g_t = -<s, g_t> with s = hessian_cg_solve(H, g0), against closed forms."""

    def test_one_dimensional_quadratic_oracle(self):
        # source loss (phi - 0)^2 has curvature 2; target loss (phi - 3)^2/2
        # at phi = 1: target grad -2, source grad 2 -> g = -(-2) * (1/2) * 2 = 2
        s = hessian_cg_solve(lambda v: 2.0 * v, np.array([-2.0]), trace=2.0, ridge=0.0)
        assert -(s @ np.array([2.0])) == pytest.approx(2.0, rel=1e-12)

    def test_separable_quadratic_closed_form(self):
        # two sources with diagonal curvatures; weights (0.25, 0.75)
        curv = [np.array([2.0, 4.0]), np.array([6.0, 1.0])]
        w = np.array([0.25, 0.75])
        phi0 = np.array([0.5, -1.0])
        mins = [np.array([1.0, -2.0]), np.array([-3.0, 0.5])]
        rhs = np.stack([c * (phi0 - m) for c, m in zip(curv, mins)])
        target_grad = np.array([1.5, -0.25])
        H = np.diag(w[0] * curv[0] + w[1] * curv[1])
        expected = -(target_grad @ np.linalg.solve(H, rhs.T))
        s = hessian_cg_solve(lambda v: H @ v, target_grad, np.trace(H), ridge=0.0)
        np.testing.assert_allclose(-(rhs @ s), expected, rtol=1e-12)

    def test_zero_target_gradient_gives_zeros(self):
        s = hessian_cg_solve(lambda v: 3.0 * v, np.zeros(2), trace=6.0)
        assert np.array_equal(s, np.zeros(2))

    def test_nan_gradients_raise_singular(self):
        with pytest.raises(SingularSystemError):
            hessian_cg_solve(lambda v: np.full(v.shape, np.nan), np.array([1.0]), trace=1.0)

    def test_negative_curvature_escalates_ridge(self):
        H = np.diag([1.0, -1e-6])
        # the starting ridge 1e-6 * tr/2 < 1e-6 leaves H indefinite; ten times it does not
        s = hessian_cg_solve(lambda v: H @ v, np.ones(2), np.trace(H))
        ridge = 10.0 * 1e-6 * np.trace(H) / 2
        np.testing.assert_allclose(s, 1.0 / (np.diag(H) + ridge), rtol=1e-10)
        with pytest.raises(SingularSystemError):
            hessian_cg_solve(lambda v: np.diag([1.0, -1.0]) @ v, np.ones(2), trace=0.0)

    def test_model_level_smoke_on_tiny_mlp(self):
        model = init_model(3, 5, {"target": 3, "src": 3}, seed=3)  # 20 rep params
        src = random_dataset(24, 3, 3, seed=4, task_id="src")
        target = random_dataset(24, 3, 3, seed=5, task_id="target")
        H = RepHessian(model, [("src", src.features, src.labels, 1.0 / src.n)])
        s = hessian_cg_solve(H.matvec, backward(model, "target", target).rep_grad, H.trace())
        g = -(s @ backward(model, "src", src).rep_grad)
        assert s.shape == (20,) and np.isfinite(s).all() and np.isfinite(g)
