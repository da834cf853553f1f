import math
import tracemalloc

import numpy as np
import pytest

from tawt_lab.model import (
    SMALL_GEMM_LIMIT,
    Head,
    OptimizerState,
    SharedModel,
    accuracy_and_loss,
    apply_update,
    backward_arrays,
    init_model,
    logits_batch,
    predictions,
    rep_gradient_flat,
    task_loss,
    train_step,
)
from tawt_lab.numerics import (
    LOG_EPS, DimensionError, NumericError, Rng, hash64, softmax_rows,
)
from tawt_lab.taskgen import Dataset
from tawt_lab.training import TrainConfig, _head_only_epoch

from conftest import random_dataset
from oracles import (
    backward, copy_model, finite_diff_gradient, mean_loss_of_logits, unblocked_logits,
)


def tiny_model(d=3, hidden=4, k=3, seed=0, tasks=("target",)):
    return init_model(d, hidden, {t: k for t in tasks}, seed)


def forward(model, task_id, x):
    """Logit vector of one input, through the batch kernel training runs."""
    return logits_batch(model, task_id, np.asarray(x, dtype=np.float64)[None])[0]


def identity_model(d):
    return SharedModel(np.eye(d), np.zeros(d), {"target": Head(np.eye(d), np.zeros(d))})


class TestForward:
    def test_identity_network_passes_nonnegative_input(self):
        m = identity_model(3)
        x = np.array([0.5, 1.0, 2.0])
        np.testing.assert_array_equal(forward(m, "target", x), x)

    def test_zero_parameters_give_zero_logits(self):
        m = tiny_model()
        m.W1[:] = 0.0
        m.heads["target"].W2[:] = 0.0
        np.testing.assert_array_equal(forward(m, "target", [1.0, -2.0, 3.0]), np.zeros(3))

    def test_hand_single_hidden_unit(self):
        m = SharedModel(
            np.array([[2.0]]), np.array([-1.0]),
            {"target": Head(np.array([[3.0]]), np.array([0.0]))},
        )
        assert forward(m, "target", [1.0])[0] == pytest.approx(3.0)
        # relu clamps: input 0 -> pre-activation -1 -> hidden 0 -> logit 0
        assert forward(m, "target", [0.0])[0] == 0.0

    def test_unknown_task(self):
        with pytest.raises(KeyError):
            forward(tiny_model(), "nope", [0.0, 0.0, 0.0])


def reference_shape_model(d, hidden, k, seed):
    """init_model with nonzero biases, so both bias adds are exercised."""
    m = init_model(d, hidden, {"target": k}, seed)
    rng = Rng(hash64(seed, "biases"))
    m.b1[:] = rng.uniform(-0.1, 0.1, size=hidden)
    m.heads["target"].b2[:] = rng.uniform(-0.1, 0.1, size=k)
    return m


def _assert_scores_match_one_shot(m, data):
    want = unblocked_logits(m, "target", data.features)
    got = logits_batch(m, "target", data.features)
    assert got.shape == want.shape and got.tobytes() == want.tobytes()
    hits = np.argmax(want, axis=1) == data.labels
    assert np.array_equal(predictions(m, "target", data.features), np.argmax(want, axis=1))
    loss = mean_loss_of_logits(want, data.labels)
    assert task_loss(m, "target", data) == loss
    assert accuracy_and_loss(m, "target", data) == (float(np.mean(hits)), loss)


def _scoring_peak(score) -> int:
    score()  # warm up lazy allocations outside the measurement
    tracemalloc.start()
    try:
        score()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestBlockedForward:
    """The forward pass runs in row blocks of at least SMALL_GEMM_LIMIT //
    min(k, hidden) + 1 rows; logits, predictions, losses and accuracy must
    match the one-shot pass byte for byte."""

    @pytest.mark.parametrize("n, k", [
        (2047, 10), (2048, 10), (2049, 10), (3071, 10), (10_000, 10), (10_000, 2),
    ])
    def test_matches_unblocked_pass_bitwise(self, n, k):
        m = reference_shape_model(20, 256, k, seed=n + k)
        _assert_scores_match_one_shot(m, random_dataset(n, 20, k, seed=hash64(n, k)))

    # At d 40, hidden 8 a floor from k alone would send the first product,
    # (rows, d) @ (d, hidden), to the small-matrix kernel.
    @pytest.mark.parametrize("d, hidden, k, n", [
        (d, hidden, k, n)
        for d, hidden in [(20, 8), (20, 16), (20, 32), (20, 256), (40, 8)]
        for k in (2, 3, 10)
        for floor in [SMALL_GEMM_LIMIT // min(k, hidden) + 1]
        for n in [floor - 1, floor, 2 * floor - 1, 2 * floor, 2 * floor + 1, 2000, 10_000]
    ])
    def test_matches_unblocked_pass_at_every_block_edge(self, d, hidden, k, n):
        m = reference_shape_model(d, hidden, k, seed=n + k)
        _assert_scores_match_one_shot(m, random_dataset(n, d, k, seed=hash64(n, k, d)))

    # Scoring holds (block, hidden) and (block, k) buffers and (n,) score
    # vectors; one (10,000, 256) activation alone would be 20.5 MB.
    def test_accuracy_and_loss_never_builds_the_full_activation(self):
        m = reference_shape_model(20, 256, 10, seed=3)
        data = random_dataset(10_000, 20, 10, seed=4)
        peak = _scoring_peak(lambda: accuracy_and_loss(m, "target", data))
        assert peak < 1e6, f"accuracy_and_loss peaked at {peak / 1e6:.2f} MB"

    def test_predictions_never_build_the_full_activation(self):
        m = reference_shape_model(20, 256, 10, seed=3)
        data = random_dataset(10_000, 20, 10, seed=4)
        peak = _scoring_peak(lambda: predictions(m, "target", data.features))
        assert peak < 1e6, f"predictions peaked at {peak / 1e6:.2f} MB"


class TestTaskLoss:
    def test_zero_model_uniform_softmax(self):
        for k in (3, 7):
            m = tiny_model(k=k)
            m.W1[:] = 0.0
            m.b1[:] = 0.0
            m.heads["target"].W2[:] = 0.0
            data = random_dataset(20, 3, k, seed=1)
            assert task_loss(m, "target", data) == pytest.approx(math.log(k), abs=1e-9)

    def test_saturated_correct_prediction(self):
        m = identity_model(2)
        data = Dataset(np.array([[40.0, 0.0]]), np.array([0]), 2, "target")
        assert task_loss(m, "target", data) < 1e-10

    def test_two_example_hand_case(self):
        m = identity_model(2)
        data = Dataset(np.array([[1.0, 0.0], [0.0, 2.0]]), np.array([1, 1]), 2, "target")
        l1 = -math.log(math.exp(0.0) / (math.exp(1.0) + math.exp(0.0)) + 1e-12)
        l2 = -math.log(math.exp(2.0) / (math.exp(2.0) + math.exp(0.0)) + 1e-12)
        assert task_loss(m, "target", data) == pytest.approx((l1 + l2) / 2, rel=1e-12)

    def test_permutation_invariance(self):
        m = tiny_model(seed=5)
        data = random_dataset(17, 3, 3, seed=2)
        perm = Rng(3).permutation(17)
        shuffled = Dataset(data.features[perm], data.labels[perm], 3, "target")
        assert task_loss(m, "target", data) == pytest.approx(
            task_loss(m, "target", shuffled), rel=1e-12
        )


def flat_params(model, task_id):
    return np.concatenate([model.rep_params, model.heads[task_id].params])


def set_flat(model, task_id, vec):
    n_rep = model.rep_param_count()
    model.rep_params[:] = vec[:n_rep]
    model.heads[task_id].params[:] = vec[n_rep:]


class TestBackward:
    def gradient_check(self, seed):
        rng = Rng(hash64(seed, "dims"))
        d = int(rng.integers(2, 6))
        hidden = int(rng.integers(2, 7))
        k = int(rng.integers(2, 5))
        n = int(rng.integers(1, 6))
        model = tiny_model(d, hidden, k, seed=hash64(seed, "model"))
        data = random_dataset(n, d, k, seed=hash64(seed, "data"))
        snap = backward(model, "target", data)
        analytic = np.concatenate([snap.rep_grad, snap.head_grad])

        probe = copy_model(model)

        def f(vec):
            set_flat(probe, "target", vec)
            return task_loss(probe, "target", data)

        fd = finite_diff_gradient(f, flat_params(model, "target"), h=1e-5)
        denom = np.maximum(np.abs(fd), 1e-8)
        return float(np.max(np.abs(analytic - fd) / denom))

    def test_matches_finite_differences(self):
        worst = max(self.gradient_check(seed) for seed in range(5))
        assert worst <= 1e-5

    def test_saturated_gradient_vanishes(self):
        m = identity_model(2)
        data = Dataset(np.array([[40.0, 0.0], [0.0, 35.0]]), np.array([0, 1]), 2, "target")
        snap = backward(m, "target", data)
        assert np.linalg.norm(snap.rep_grad) < 1e-8
        assert np.linalg.norm(snap.head_grad) < 1e-8

    def test_duplicating_batch_leaves_gradient_unchanged(self):
        m = tiny_model(seed=9)
        data = random_dataset(6, 3, 3, seed=11)
        doubled = Dataset(
            np.vstack([data.features, data.features]),
            np.concatenate([data.labels, data.labels]),
            3,
            "target",
        )
        a = backward(m, "target", data)
        b = backward(m, "target", doubled)
        np.testing.assert_allclose(a.rep_grad, b.rep_grad, atol=1e-14)
        np.testing.assert_allclose(a.head_grad, b.head_grad, atol=1e-14)

    def test_head_isolation(self):
        m = init_model(3, 4, {"target": 3, "other": 3}, seed=2)
        data = random_dataset(5, 3, 3, seed=4)
        before = m.heads["other"].params.copy()
        snap = backward(m, "target", data)
        assert snap.task_id == "target"
        np.testing.assert_array_equal(m.heads["other"].params, before)

    def test_permutation_invariance(self):
        m = tiny_model(seed=13)
        data = random_dataset(12, 3, 3, seed=14)
        perm = Rng(15).permutation(12)
        shuffled = Dataset(data.features[perm], data.labels[perm], 3, "target")
        a = backward(m, "target", data)
        b = backward(m, "target", shuffled)
        np.testing.assert_allclose(a.rep_grad, b.rep_grad, atol=1e-12)
        np.testing.assert_allclose(a.head_grad, b.head_grad, atol=1e-12)

    @pytest.mark.parametrize("form", ["mean", "scalar", "per-row"])
    def test_one_path_with_and_without_out_bitwise(self, form):
        """At the benchmark's step shape, the allocating call and the call into
        caller buffers give the same bits, those of the reference pass."""
        batch, d, hidden, k = 100, 20, 256, 10
        m = init_model(d, hidden, {"t": k}, seed=5)
        data = random_dataset(batch, d, k, seed=6, task_id="t")
        X, Y = data.features, data.labels
        weights = Rng(7).uniform(0.0, 2.0, size=batch)
        coeff, kw = {
            "mean": (None, {}),
            "scalar": (0.3 / batch, {"loss_scale": 0.3}),
            "per-row": (weights, {"row_weights": weights}),
        }[form]
        fresh = backward_arrays(m, "t", X, Y, coeff)
        rep_grad = np.full(m.rep_param_count(), np.nan)  # stale contents are overwritten
        head_grad = np.full(m.heads["t"].params.size, np.nan)
        work = OptimizerState().workspace(batch, hidden, k)
        into = backward_arrays(m, "t", X, Y, coeff, out=(rep_grad, head_grad, work))
        head = m.heads["t"]
        ref = _ref_backward(m.W1, m.b1, head.W2, head.b2, X, Y, **kw)
        for a, b, c in zip(fresh, into, ref):
            assert a.shape == b.shape == c.shape
            assert a.tobytes() == b.tobytes() == c.tobytes()
        assert all(np.shares_memory(g, rep_grad) for g in into[:2])
        assert all(np.shares_memory(g, head_grad) for g in into[2:])

    def test_coeff_of_wrong_length_is_refused(self):
        m = tiny_model()
        data = random_dataset(5, 3, 3, seed=8)
        for coeff in (np.ones(4), np.ones((5, 1))):
            with pytest.raises(DimensionError, match="coeff"):
                backward_arrays(m, "target", data.features, data.labels, coeff)


class TestRepGradientFlat:
    def test_full_subset_equals_backward_exactly(self):
        m = tiny_model(seed=1)
        data = random_dataset(10, 3, 3, seed=1)
        full = backward(m, "target", data).rep_grad
        got = rep_gradient_flat(m, "target", data, subset_size=10, rng=Rng(0))
        assert np.array_equal(full, got)
        got_bigger = rep_gradient_flat(m, "target", data, subset_size=99, rng=Rng(0))
        assert np.array_equal(full, got_bigger)

    def test_deterministic_subsets(self):
        m = tiny_model(seed=1)
        data = random_dataset(30, 3, 3, seed=1)
        a = rep_gradient_flat(m, "target", data, 8, Rng(7))
        b = rep_gradient_flat(m, "target", data, 8, Rng(7))
        assert np.array_equal(a, b)

    def test_bad_subset_size(self):
        m = tiny_model(seed=1)
        data = random_dataset(4, 3, 3, seed=1)
        with pytest.raises(ValueError):
            rep_gradient_flat(m, "target", data, 0, Rng(0))


class TestOptimizers:
    def test_sgd_zero_lr(self):
        p = [np.array([1.0, 2.0])]
        out = apply_update(p, [np.array([5.0, -5.0])], OptimizerState(kind="sgd", lr=0.0))
        np.testing.assert_array_equal(out[0], p[0])

    def test_sgd_hand_step(self):
        out = apply_update(
            [np.array([1.0])], [np.array([2.0])], OptimizerState(kind="sgd", lr=0.1)
        )
        assert out[0][0] == pytest.approx(0.8)

    def test_adam_first_step_size(self):
        state = OptimizerState(kind="adam", lr=3e-4)
        out = apply_update([np.array([1.0])], [np.array([1.0])], state)
        # bias correction makes m_hat/sqrt(v_hat) = 1 at step one
        assert out[0][0] == pytest.approx(1.0 - 3e-4, abs=1e-10)

    def test_adam_per_slot_step_counts(self):
        """Interleaved slots a, a, b, a: each slot's moments and bias
        correction follow its own steps only, bitwise the reference."""
        state, ref_state = OptimizerState(kind="adam", lr=1e-2), {"m": {}, "v": {}, "t": {}}
        rng = Rng(4)
        params = {"a": rng.uniform(-1.0, 1.0, size=3), "b": rng.uniform(-1.0, 1.0, size=3)}
        ref = {key: p.copy() for key, p in params.items()}
        for key in ["a", "a", "b", "a"]:
            g = rng.uniform(-1.0, 1.0, size=3)
            apply_update([params[key]], [g], state, keys=[key])
            (ref[key],) = _ref_update([ref[key]], [g], [key], ref_state, "adam", 1e-2)
            assert np.array_equal(params[key], ref[key])

    def test_shape_mismatch(self):
        with pytest.raises(DimensionError):
            apply_update([np.zeros(2)], [np.zeros(3)], OptimizerState(kind="sgd"))

    def test_nonfinite_update_raises(self):
        with pytest.raises(NumericError):
            apply_update(
                [np.array([1.0])], [np.array([np.inf])], OptimizerState(kind="sgd", lr=1.0)
            )

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            OptimizerState(kind="rmsprop")


class TestInitAndCheckpoints:
    def test_init_deterministic(self):
        a = init_model(4, 5, {"x": 3}, seed=11)
        b = init_model(4, 5, {"x": 3}, seed=11)
        assert np.array_equal(a.W1, b.W1)
        assert np.array_equal(a.heads["x"].W2, b.heads["x"].W2)

    def test_head_init_independent_of_other_heads(self):
        solo = init_model(4, 5, {"x": 3}, seed=11)
        both = init_model(4, 5, {"y": 2, "x": 3}, seed=11)
        assert np.array_equal(solo.heads["x"].W2, both.heads["x"].W2)
        assert np.array_equal(solo.W1, both.W1)

    def test_biases_zero_and_weights_bounded(self):
        m = init_model(6, 8, {"x": 4}, seed=3)
        assert np.all(m.b1 == 0.0) and np.all(m.heads["x"].b2 == 0.0)
        limit = math.sqrt(6.0 / (6 + 8))
        assert np.all(np.abs(m.W1) <= limit)


def test_predictions_break_ties_to_lowest_index():
    m = tiny_model(k=3)
    m.W1[:] = 0.0
    m.b1[:] = 0.0
    m.heads["target"].W2[:] = 0.0
    m.heads["target"].b2[:] = 0.0
    preds = predictions(m, "target", np.zeros((4, 3)))
    assert np.all(preds == 0)


def _ref_backward(W1, b1, W2, b2, X, Y, loss_scale=1.0, row_weights=None):
    """The allocate-and-return backward pass the step kernel must reproduce."""
    n = X.shape[0]
    A = X @ W1.T + b1
    H = np.maximum(A, 0.0)
    P = softmax_rows(H @ W2.T + b2)
    rows = np.arange(n)
    picked = P[rows, Y]
    coeff = np.full(n, loss_scale / n) if row_weights is None else row_weights
    dZ = P * (coeff * picked / (picked + LOG_EPS))[:, None]
    dZ[rows, Y] -= coeff * picked / (picked + LOG_EPS)
    dA = (dZ @ W2) * (A > 0.0)
    return [dA.T @ X, dA.sum(axis=0), dZ.T @ H, dZ.sum(axis=0)]


def _ref_update(params, grads, keys, state, kind, lr):
    """The allocate-and-return SGD / Adam step, one slot per array."""
    out = []
    for key, p, g in zip(keys, params, grads):
        if kind == "sgd":
            out.append(p - lr * g)
            continue
        t = state["t"].get(key, 0) + 1
        m = state["m"].get(key, np.zeros_like(p))
        v = state["v"].get(key, np.zeros_like(p))
        m = 0.9 * m + (1.0 - 0.9) * g
        v = 0.999 * v + (1.0 - 0.999) * g * g
        state["m"][key], state["v"][key], state["t"][key] = m, v, t
        m_hat = m / (1.0 - 0.9**t)
        v_hat = v / (1.0 - 0.999**t)
        out.append(p - lr * m_hat / (np.sqrt(v_hat) + 1e-8))
    return out


def _ref_head_only_epoch(ref, task_id, X, Y, order, batch, state, kind, lr):
    """The frozen-representation head step of training._head_only_epoch."""
    W2, b2 = ref[task_id]
    H = np.maximum(X @ ref["W1"].T + ref["b1"], 0.0)
    for start in range(0, len(Y), batch):
        idx = order[start : start + batch]
        Hb, Yb = H[idx], Y[idx]
        P = softmax_rows(Hb @ W2.T + b2)
        rows = np.arange(len(idx))
        picked = P[rows, Yb]
        coeff = picked / (picked + LOG_EPS) / len(idx)
        dZ = P * coeff[:, None]
        dZ[rows, Yb] -= coeff
        W2, b2 = _ref_update(
            [W2, b2], [dZ.T @ Hb, dZ.sum(axis=0)],
            [f"head.{task_id}.W2", f"head.{task_id}.b2"], state, kind, lr,
        )
    ref[task_id] = (W2, b2)


class TestTrainStep:
    @pytest.mark.parametrize("kind", ["adam", "sgd"])
    def test_matches_allocating_reference_bitwise(self, kind):
        lr = 3e-2
        m = init_model(6, 16, {"a": 3, "b": 5}, seed=17)
        ref = {"W1": m.W1.copy(), "b1": m.b1.copy()}
        for tid, h in m.heads.items():
            ref[tid] = (h.W2.copy(), h.b2.copy())
        state = {"m": {}, "v": {}, "t": {}}
        opt = OptimizerState(kind=kind, lr=lr)
        data = {
            tid: random_dataset(23, 6, h.n_classes, hash64(5, tid)) for tid, h in m.heads.items()
        }
        rng = Rng(3)
        # (task, batch rows, loss scale or None for row weights); 3-row batches are partial
        plan = [("a", 10, 0.7), ("b", 10, None), ("a", 3, 1.0), "head-only",
                ("b", 3, 0.25), ("a", 10, None), ("b", 10, 1.0)]
        for entry in plan:
            if entry == "head-only":
                order = Rng(9).permutation(23)
                _ref_head_only_epoch(ref, "a", data["a"].features, data["a"].labels,
                                     order, 10, state, kind, lr)
                _head_only_epoch(m, "a", data["a"], TrainConfig(batch_size=10), opt, Rng(9))
            else:
                tid, rows, scale = entry
                idx = rng.permutation(23)[:rows]
                X, Y = data[tid].features[idx], data[tid].labels[idx]
                kw = ({"row_weights": rng.uniform(0.0, 2.0, size=rows)} if scale is None
                      else {"loss_scale": scale})
                coeff = kw["row_weights"] if scale is None else scale / rows
                grads = _ref_backward(ref["W1"], ref["b1"], *ref[tid], X, Y, **kw)
                ref["W1"], ref["b1"], W2, b2 = _ref_update(
                    [ref["W1"], ref["b1"], *ref[tid]], grads,
                    ["rep.W1", "rep.b1", f"head.{tid}.W2", f"head.{tid}.b2"], state, kind, lr,
                )
                ref[tid] = (W2, b2)
                train_step(m, tid, X, Y, opt, coeff)
            assert np.array_equal(m.W1, ref["W1"]) and np.array_equal(m.b1, ref["b1"])
            for tid, h in m.heads.items():
                assert np.array_equal(h.W2, ref[tid][0]) and np.array_equal(h.b2, ref[tid][1])

    @pytest.mark.parametrize("kind", ["adam", "sgd"])
    @pytest.mark.parametrize("d, hidden, n, batch", [
        (64, 256, 2003, 100),  # 3-row tail below the floor (5), widened back
        (40, 8, 400, 100),    # every batch below the floor (151), the first widened forward
        (20, 256, 2000, 100),  # the distance benchmark's head fit
        (20, 256, 4, 100),    # one batch, n below the floor
        (20, 32, 200, 20),    # the harness tests' width and batch (floor 38)
    ])
    def test_head_only_epochs_match_one_shot_hidden_matrix_bitwise(self, kind, d, hidden, n, batch):
        """Head-only epochs compute each batch's hidden rows on their own,
        bitwise the rows of the one-shot (n, hidden) matrix."""
        lr = 3e-2
        m = init_model(d, hidden, {"a": 10}, seed=23)
        head = m.heads["a"]
        ref = {"W1": m.W1.copy(), "b1": m.b1.copy(), "a": (head.W2.copy(), head.b2.copy())}
        state = {"m": {}, "v": {}, "t": {}}
        opt = OptimizerState(kind=kind, lr=lr)
        data = random_dataset(n, d, 10, hash64(6, n))
        ref_rng, rng = Rng(9), Rng(9)
        for _ in range(3):
            _ref_head_only_epoch(ref, "a", data.features, data.labels, ref_rng.permutation(n),
                                 batch, state, kind, lr)
            _head_only_epoch(m, "a", data, TrainConfig(batch_size=batch), opt, rng)
        assert np.array_equal(head.W2, ref["a"][0]) and np.array_equal(head.b2, ref["a"][1])

    def test_apply_update_is_in_place(self):
        p = [np.array([1.0, 2.0])]
        keep = p[0]
        out = apply_update(p, [np.array([1.0, -1.0])], OptimizerState(kind="sgd", lr=0.5))
        assert out is p and out[0] is keep
        np.testing.assert_array_equal(keep, [0.5, 2.5])


def _assert_flat_views(m):
    assert np.shares_memory(m.W1, m.rep_params) and np.shares_memory(m.b1, m.rep_params)
    assert np.array_equal(m.rep_params, np.concatenate([m.W1.ravel(), m.b1]))
    for h in m.heads.values():
        assert np.shares_memory(h.W2, h.params) and np.shares_memory(h.b2, h.params)
        assert np.array_equal(h.params, np.concatenate([h.W2.ravel(), h.b2]))
    m.rep_params[-1] = 5.0
    assert m.b1[-1] == 5.0


class TestFlatParameterGroups:
    def test_views_survive_every_way_of_setting_parameters(self):
        m = tiny_model(tasks=("target", "other"))
        _assert_flat_views(m)
        m.rep_params[:] = np.arange(m.rep_param_count(), dtype=float)
        m.heads["other"].params[:] = 1.0
        _assert_flat_views(m)
        _assert_flat_views(copy_model(m))
        data = random_dataset(9, 3, 3, seed=2)
        train_step(m, "target", data.features, data.labels, OptimizerState(lr=1e-2))
        _assert_flat_views(m)

    def test_copy_and_flat_accessors_do_not_alias(self):
        m = tiny_model()
        c = copy_model(m)
        c.W1[:] = 7.0
        c.heads["target"].params[:] = 9.0
        assert not np.any(m.W1 == 7.0) and not np.any(m.heads["target"].params == 9.0)
        assert np.all(c.rep_params[: c.W1.size] == 7.0)

    def test_views_cannot_be_rebound(self):
        m = tiny_model()
        with pytest.raises(AttributeError):
            m.W1 = np.zeros_like(m.W1)
        with pytest.raises(AttributeError):
            m.heads["target"].b2 = np.zeros(3)
