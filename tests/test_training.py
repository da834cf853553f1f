import json
import os
import tracemalloc
from dataclasses import asdict

import numpy as np
import pytest

import tawt_lab.model as model_module
import tawt_lab.training as training
from tawt_lab.model import (
    EXAMPLE_BLOCK_BYTES,
    backward_arrays,
    example_rep_grads,
    init_model,
    predictions,
    rep_gradient_flat,
    task_loss,
)
from tawt_lab.numerics import Rng
from tawt_lab.taskgen import Dataset
from tawt_lab.training import (
    RunRecord,
    TrainConfig,
    _per_sample_gradients,
    default_initial_weights,
    evaluate,
    joint_train,
    pretrain_then_finetune,
    split_target,
    tawt,
    train_single_task,
    write_csv,
)
from tawt_lab.weighting import (
    SimplexWeights,
    cosine_task_gradient,
    identity_hessian_task_gradient,
    init_weights,
)

from conftest import random_dataset


def base_cfg(**kw):
    defaults = dict(epochs=4, batch_size=20, hidden=16, lr=1e-3, seed=7)
    defaults.update(kw)
    return TrainConfig(**defaults)


class TestTrainConfig:
    def test_defaults_follow_reference_recipe(self):
        cfg = TrainConfig()
        assert cfg.lr == 3e-4 and cfg.batch_size == 100
        assert cfg.subset_size == 64 and cfg.eta == 1.0 and cfg.c == 1.0
        assert cfg.identity_hessian_scale == 5.0

    def test_period_resolution(self):
        assert TrainConfig().resolved_weight_update_period() == 1
        assert TrainConfig(weight_granularity="sample").resolved_weight_update_period() == 5
        assert TrainConfig(weight_update_period=3).resolved_weight_update_period() == 3

    @pytest.mark.parametrize(
        "kw",
        [
            {"paradigm": "magic"},
            {"weight_granularity": "batch"},
            {"gradient_estimator": "neural"},
            {"c": 0.0},
            {"eta": -1.0},
            {"epochs": 0},
            {"sample_split": 1.0},
            {"finetune_rep": "half"},
            {"paradigm": "single", "weighted": True},
            {"paradigm": "joint", "weighted": True, "weight_granularity": "sample"},
            {"paradigm": "joint", "sample_split": 0.5},
            {"identity_hessian_scale": 0.0},
            {"identity_hessian_scale": -5.0},
            {"weight_floor": -0.1},
        ],
    )
    def test_validation_rejects(self, kw):
        cfg = TrainConfig(**kw)
        with pytest.raises(ValueError):
            cfg.validate(0 if cfg.paradigm == "single" else 1)


class TestSplitTarget:
    def test_even_split(self):
        data = random_dataset(100, 4, 3, seed=1)
        b1, b2 = split_target(data, 0.5, Rng(2))
        assert b1.n == 50 and b2.n == 50
        merged = np.vstack([b1.features, b2.features])
        assert sorted(map(tuple, merged)) == sorted(map(tuple, data.features))

    def test_disjoint_index_sets(self):
        data = random_dataset(40, 3, 2, seed=3)
        b1, b2 = split_target(data, 0.3, Rng(4))
        rows1 = set(map(tuple, b1.features))
        rows2 = set(map(tuple, b2.features))
        assert not rows1 & rows2

    def test_deterministic(self):
        data = random_dataset(30, 3, 2, seed=5)
        a1, a2 = split_target(data, 0.4, Rng(6))
        b1, b2 = split_target(data, 0.4, Rng(6))
        assert np.array_equal(a1.features, b1.features)
        assert np.array_equal(a2.labels, b2.labels)

    def test_empty_part_rejected(self):
        data = random_dataset(3, 2, 2, seed=7)
        with pytest.raises(ValueError):
            split_target(data, 0.01, Rng(0))
        with pytest.raises(ValueError):
            split_target(data, 0.99, Rng(0))


class TestEvaluate:
    def test_perfect_by_construction(self, tiny_family):
        teachers = tiny_family["teachers"]
        from tawt_lab.model import predictions

        model = init_model(10, 16, {"target": 4}, seed=0)
        data = tiny_family["target"]
        labeled = Dataset(
            data.features, predictions(model, "target", data.features), 4, "target"
        )
        assert evaluate(model, "target", labeled).accuracy == 1.0

    def test_random_model_near_chance(self):
        model = init_model(5, 8, {"target": 10}, seed=11)
        data = random_dataset(1000, 5, 10, seed=12)
        acc = evaluate(model, "target", data).accuracy
        sigma = np.sqrt(0.1 * 0.9 / 1000)
        assert abs(acc - 0.1) <= 3 * sigma

    def test_bounds(self, tiny_family):
        model = init_model(10, 16, {"target": 4}, seed=13)
        res = evaluate(model, "target", tiny_family["target"])
        assert 0.0 <= res.accuracy <= 1.0
        assert res.mean_loss >= 0.0

    def test_one_pass_matches_predictions_and_task_loss_bitwise(self):
        model = init_model(5, 32, {"target": 6}, seed=14)
        data = random_dataset(257, 5, 6, seed=15)
        res = evaluate(model, "target", data)
        preds = predictions(model, "target", data.features)
        assert res.accuracy == float(np.mean(preds == data.labels))
        assert res.mean_loss == task_loss(model, "target", data)


class TestSingleTask:
    def test_zero_lr_keeps_initialization(self, tiny_family):
        cfg = base_cfg(paradigm="single", lr=0.0, epochs=1)
        model, _ = train_single_task(tiny_family["target"], cfg)
        init = init_model(10, cfg.hidden, {"target": 4}, cfg.seed)
        assert np.array_equal(model.W1, init.W1)
        assert np.array_equal(model.heads["target"].W2, init.heads["target"].W2)

    def test_training_reduces_loss(self, tiny_family):
        target = tiny_family["target"]
        deltas = []
        for seed in range(5):
            cfg = base_cfg(paradigm="single", epochs=10, seed=seed)
            model, record = train_single_task(target, cfg)
            first = record.epoch_metrics[0]["losses"]["target"]
            last = record.epoch_metrics[-1]["losses"]["target"]
            deltas.append(first - last)
        assert np.mean(deltas) > 0.0

    def test_bitwise_deterministic(self, tiny_family):
        cfg = base_cfg(paradigm="single")
        m1, r1 = train_single_task(tiny_family["target"], cfg)
        m2, r2 = train_single_task(tiny_family["target"], cfg)
        assert np.array_equal(m1.W1, m2.W1)
        assert r1.epoch_metrics == r2.epoch_metrics

    def test_snapshot_count_tracks_rounds(self, tiny_family):
        cfg = base_cfg(paradigm="single", epochs=6, weight_update_period=2)
        _, record = train_single_task(tiny_family["target"], cfg)
        assert len(record.weight_steps) == 6 // 2 + 1

    def test_empty_target_rejected(self):
        empty = Dataset(np.empty((0, 3)), np.empty(0, dtype=np.int64), 3, "target")
        with pytest.raises(Exception):
            train_single_task(empty, base_cfg())


class TestPretrain:
    def test_one_hot_weights_ignore_other_sources(self, tiny_family):
        target, copy, distractor = (
            tiny_family["target"], tiny_family["copy"], tiny_family["distractor"],
        )
        cfg = base_cfg(paradigm="pretrain", epochs=3, finetune_epochs=2)
        w_hot = SimplexWeights(np.array([1.0, 0.0]))
        m_both, _ = pretrain_then_finetune([copy, distractor], target, w_hot, cfg)
        m_solo, _ = pretrain_then_finetune([copy], target, SimplexWeights(np.ones(1)), cfg)
        assert np.array_equal(m_both.W1, m_solo.W1)
        assert np.array_equal(m_both.heads["target"].W2, m_solo.heads["target"].W2)
        assert np.array_equal(m_both.heads[copy.task_id].W2, m_solo.heads[copy.task_id].W2)

    def test_frozen_rep_is_bitwise_frozen(self, tiny_family):
        target, copy = tiny_family["target"], tiny_family["copy"]
        cfg = base_cfg(paradigm="pretrain", epochs=2, finetune_epochs=4, finetune_rep="frozen")
        model, record = pretrain_then_finetune([copy], target, SimplexWeights(np.ones(1)), cfg)
        cfg_zero = base_cfg(
            paradigm="pretrain", epochs=2, finetune_epochs=0, finetune_rep="frozen"
        )
        before, _ = pretrain_then_finetune([copy], target, SimplexWeights(np.ones(1)), cfg_zero)
        assert np.array_equal(model.W1, before.W1)
        assert np.array_equal(model.b1, before.b1)
        assert not np.array_equal(
            model.heads["target"].W2, before.heads["target"].W2
        )

    @pytest.mark.parametrize("hidden, per_epoch", [
        # floor 5: 8 batches of 7, the 4-row tail in a 5-row window
        pytest.param(256, [7] * 8 + [5], id="windows"),
        # floor 76 > 60 rows: one product over all rows, in stored order
        pytest.param(16, [60], id="below_floor"),
    ])
    def test_head_only_epochs_compute_batch_rows_in_gate_sized_windows(
        self, tiny_family, monkeypatch, hidden, per_epoch
    ):
        """Every head-only epoch (the rep phase's head fits and the frozen
        fine-tune) computes its hidden rows batch by batch, each hidden_batch
        call covering at most max(batch, floor) rows, floor = 1200 // hidden + 1,
        once there are floor rows; no (n, hidden) matrix is held."""
        rows, inside = [], []
        head_only_epoch, hidden_batch = training._head_only_epoch, model_module.hidden_batch

        def flagged(*args):
            inside.append(True)
            try:
                head_only_epoch(*args)
            finally:
                inside.pop()

        def counting(model, X, out=None):
            if inside:
                rows.append(len(X))
            return hidden_batch(model, X, out=out)

        monkeypatch.setattr(training, "_head_only_epoch", flagged)
        monkeypatch.setattr(model_module, "hidden_batch", counting)
        target, copy = tiny_family["target"], tiny_family["copy"]
        cfg = base_cfg(
            paradigm="pretrain", epochs=2, finetune_epochs=3, finetune_rep="frozen",
            hidden=hidden, batch_size=7,
        )
        pretrain_then_finetune([copy], target, SimplexWeights(np.ones(1)), cfg)
        assert target.n == 60 and rows == per_epoch * 5

    def test_frozen_finetune_holds_no_hidden_matrix(self):
        """One frozen fine-tune at 2,000 x 256 peaks far below the (2,000, 256)
        matrix it held before (4.1 MB): one batch window, the final scoring
        block and the head's optimizer slot."""
        data = random_dataset(2_000, 20, 10, seed=61)
        cfg = TrainConfig(
            paradigm="pretrain", finetune_epochs=2, finetune_rep="frozen", metrics_every=0,
        )
        model = init_model(20, 256, {"target": 10}, seed=62)

        def finetune():
            record = RunRecord(config={}, weight_task_ids=["target"])
            training._finetune_phase(model, data, cfg, training._Streams(3), record, data)

        finetune()  # warm up lazy allocations
        tracemalloc.start()
        try:
            finetune()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1e6, f"a frozen fine-tune peaked at {peak / 1e6:.2f} MB"

    def test_records_the_pinned_paradigm(self, tiny_family):
        """The entry point pins pretrain and the weight step off, and
        record.config says what ran, whatever the config asked for."""
        cfg = base_cfg(paradigm="single", weighted=False, epochs=1, finetune_epochs=1)
        _, record = pretrain_then_finetune(
            [tiny_family["copy"]], tiny_family["target"], SimplexWeights(np.ones(1)), cfg
        )
        assert record.config["paradigm"] == "pretrain" and record.config["weighted"] is False

    def test_weight_count_mismatch(self, tiny_family):
        with pytest.raises(ValueError):
            pretrain_then_finetune(
                [tiny_family["copy"]], tiny_family["target"],
                SimplexWeights(np.array([0.5, 0.5])), base_cfg(paradigm="pretrain"),
            )

    def test_copy_source_transfer_beats_single_at_small_target(self, tiny_family):
        """Frozen-rep transfer from an exact-copy source beats scratch."""
        copy, ev = tiny_family["copy"], tiny_family["eval"]
        target50 = tiny_family["target"].take(50)
        transfer, single = [], []
        for seed in range(5):
            cfg = base_cfg(
                paradigm="pretrain", epochs=25, finetune_epochs=40,
                finetune_rep="frozen", batch_size=50, hidden=64, seed=seed,
                metrics_every=0,
            )
            m_t, _ = pretrain_then_finetune(
                [copy], target50, SimplexWeights(np.ones(1)), cfg, eval_data=ev
            )
            transfer.append(evaluate(m_t, "target", ev).accuracy)
            scfg = base_cfg(
                paradigm="single", epochs=40, batch_size=50, hidden=64, seed=seed,
                metrics_every=0,
            )
            m_s, _ = train_single_task(target50, scfg, eval_data=ev)
            single.append(evaluate(m_s, "target", ev).accuracy)
        assert np.mean(transfer) >= np.mean(single)


class TestJoint:
    def test_one_hot_target_matches_single_task(self, tiny_family):
        target, copy = tiny_family["target"], tiny_family["copy"]
        cfg = base_cfg(paradigm="joint", epochs=3)
        w = SimplexWeights(np.array([1.0, 0.0]))
        m_joint, _ = joint_train([copy], target, w, cfg)
        m_single, _ = train_single_task(target, base_cfg(paradigm="single", epochs=3))
        assert np.array_equal(m_joint.W1, m_single.W1)
        assert np.array_equal(m_joint.heads["target"].W2, m_single.heads["target"].W2)

    def test_normalized_differs_only_in_initial_weights(self, tiny_family):
        target, copy, distractor = (
            tiny_family["target"], tiny_family["copy"], tiny_family["distractor"],
        )
        cfg_j = base_cfg(paradigm="joint")
        cfg_n = base_cfg(paradigm="normalized_joint")
        w_j = default_initial_weights(cfg_j, [copy, distractor], target)
        w_n = default_initial_weights(cfg_n, [copy, distractor], target)
        np.testing.assert_allclose(w_n.values, [1 / 3] * 3)
        assert w_j.values[0] == pytest.approx(60 / 660)
        m_a, _ = joint_train([copy, distractor], target, w_n, cfg_j)
        m_b, _ = joint_train([copy, distractor], target, w_n, cfg_n)
        assert np.array_equal(m_a.W1, m_b.W1)

    def test_weight_length_checked(self, tiny_family):
        with pytest.raises(ValueError):
            joint_train(
                [tiny_family["copy"]], tiny_family["target"],
                SimplexWeights(np.ones(1)), base_cfg(paradigm="joint"),
            )

    def test_relevant_source_beats_single_task(self, tiny_family):
        """20:1 copy-source joint training beats scratch on the target."""
        target = tiny_family["target"].take(15)
        copy, ev = tiny_family["copy"], tiny_family["eval"]
        joint_accs, single_accs = [], []
        for seed in range(5):
            cfg = base_cfg(
                paradigm="joint", epochs=150, batch_size=50, hidden=64, seed=seed,
                metrics_every=0,
            )
            w = default_initial_weights(cfg, [copy], target)
            m_j, _ = joint_train([copy], target, w, cfg, eval_data=ev)
            joint_accs.append(evaluate(m_j, "target", ev).accuracy)
            scfg = base_cfg(
                paradigm="single", epochs=150, batch_size=50, hidden=64, seed=seed,
                metrics_every=0,
            )
            m_s, _ = train_single_task(target, scfg, eval_data=ev)
            single_accs.append(evaluate(m_s, "target", ev).accuracy)
        assert np.mean(joint_accs) > np.mean(single_accs)


class TestTawt:
    def test_requires_multitask_weighted_config(self, tiny_family):
        with pytest.raises(ValueError):
            tawt([tiny_family["copy"]], tiny_family["target"], base_cfg(paradigm="single", weighted=True))

    @pytest.mark.parametrize("paradigm", ["single", "pretrain", "joint", "normalized_joint"])
    def test_fixed_arm_matches_named_entry_point_bitwise(self, tiny_family, paradigm):
        """With weighted off, tawt is the paradigm's fixed-weight run on its
        default weights: proportional to sample size, uniform for
        normalized_joint, the target first unless pretraining."""
        target, copy, distractor = (
            tiny_family["target"], tiny_family["copy"], tiny_family["distractor"],
        )
        sources = [] if paradigm == "single" else [copy, distractor]
        cfg = base_cfg(paradigm=paradigm, epochs=3, finetune_epochs=2)
        m_tawt, r_tawt = tawt(sources, target, cfg)
        if paradigm == "single":
            m_named, r_named = train_single_task(target, cfg)
        elif paradigm == "pretrain":
            w = init_weights("proportional", [copy.n, distractor.n])
            m_named, r_named = pretrain_then_finetune(sources, target, w, cfg)
        else:
            mode = "uniform" if paradigm == "normalized_joint" else "proportional"
            w = init_weights(mode, [target.n, copy.n, distractor.n])
            m_named, r_named = joint_train(sources, target, w, cfg)
        assert np.array_equal(m_tawt.rep_params, m_named.rep_params)
        assert r_tawt.weight_steps == r_named.weight_steps
        assert r_tawt.epoch_metrics == r_named.epoch_metrics

    def test_eta_zero_coincides_with_joint_bitwise(self, tiny_family):
        target, copy, distractor = (
            tiny_family["target"], tiny_family["copy"], tiny_family["distractor"],
        )
        sources = [copy, distractor]
        cfg_fixed = base_cfg(paradigm="joint", epochs=5)
        w0 = default_initial_weights(cfg_fixed, sources, target)
        m_fixed, r_fixed = joint_train(sources, target, w0, cfg_fixed)
        cfg_adapt = base_cfg(paradigm="joint", weighted=True, eta=0.0, epochs=5)
        m_adapt, r_adapt = tawt(sources, target, cfg_adapt)
        assert np.array_equal(m_fixed.W1, m_adapt.W1)
        assert np.array_equal(m_fixed.b1, m_adapt.b1)
        for tid in m_fixed.heads:
            assert np.array_equal(m_fixed.heads[tid].W2, m_adapt.heads[tid].W2)
        traj = np.array([s["weights"] for s in r_adapt.weight_steps])
        assert np.all(traj == traj[0])

    def test_eta_zero_coincides_with_pretrain_bitwise(self, tiny_family):
        target, copy = tiny_family["target"], tiny_family["copy"]
        cfg_fixed = base_cfg(paradigm="pretrain", epochs=4, finetune_epochs=3)
        w0 = default_initial_weights(cfg_fixed, [copy], target)
        m_fixed, _ = pretrain_then_finetune([copy], target, w0, cfg_fixed)
        cfg_adapt = base_cfg(
            paradigm="pretrain", weighted=True, eta=0.0, epochs=4, finetune_epochs=3
        )
        m_adapt, _ = tawt([copy], target, cfg_adapt)
        assert np.array_equal(m_fixed.W1, m_adapt.W1)
        assert np.array_equal(m_fixed.heads["target"].W2, m_adapt.heads["target"].W2)

    def test_zero_weight_source_is_invisible(self, tiny_family):
        target, copy, distractor = (
            tiny_family["target"], tiny_family["copy"], tiny_family["distractor"],
        )
        cfg = base_cfg(paradigm="joint", weighted=True, eta=1.0, epochs=4)
        w_with = SimplexWeights(np.array([0.2, 0.8, 0.0]))
        m_with, _ = tawt([copy, distractor], target, cfg, initial_weights=w_with)
        w_without = SimplexWeights(np.array([0.2, 0.8]))
        m_without, _ = tawt([copy], target, cfg, initial_weights=w_without)
        assert np.array_equal(m_with.W1, m_without.W1)
        assert np.array_equal(m_with.heads["target"].W2, m_without.heads["target"].W2)
        assert np.array_equal(m_with.heads[copy.task_id].W2, m_without.heads[copy.task_id].W2)

    def test_weight_trajectory_on_simplex(self, tiny_family):
        cfg = base_cfg(paradigm="joint", weighted=True, eta=1.0, epochs=6)
        _, record = tawt([tiny_family["copy"], tiny_family["distractor"]], tiny_family["target"], cfg)
        assert len(record.weight_steps) == 7
        for snap in record.weight_steps:
            w = np.asarray(snap["weights"])
            assert np.all(w >= 0.0) and abs(w.sum() - 1.0) <= 1e-9

    def test_exact_hessian_runs_past_old_cap(self, tiny_family):
        # 352 rep params; the dense finite-difference solve this estimator
        # replaced refused anything over 200
        cfg = base_cfg(
            paradigm="joint", weighted=True, epochs=2, hidden=32,
            gradient_estimator="exact_hessian",
        )
        model, record = tawt([tiny_family["copy"]], tiny_family["target"], cfg)
        assert model.rep_param_count() == 352
        assert len(record.weight_steps) == 3
        final = np.asarray(record.weight_steps[-1]["weights"])
        assert np.isfinite(final).all() and abs(final.sum() - 1.0) <= 1e-9
        assert not np.array_equal(final, record.weight_steps[0]["weights"])

    def test_exact_hessian_runs_on_tiny_rep(self, tiny_family):
        cfg = base_cfg(
            paradigm="joint", weighted=True, epochs=2, hidden=8,
            gradient_estimator="exact_hessian",
        )
        _, record = tawt([tiny_family["copy"]], tiny_family["target"], cfg)
        assert len(record.weight_steps) == 3

    def test_identity_hessian_estimator_runs(self, tiny_family):
        cfg = base_cfg(
            paradigm="joint", weighted=True, epochs=3,
            gradient_estimator="identity_hessian", subset_size=16,
        )
        _, record = tawt([tiny_family["copy"], tiny_family["distractor"]], tiny_family["target"], cfg)
        traj = np.array([s["weights"] for s in record.weight_steps])
        assert not np.all(traj == traj[0])

    def test_sample_split_partitions_fit_data(self, tiny_family):
        cfg = base_cfg(
            paradigm="pretrain", weighted=True, epochs=3, finetune_epochs=2,
            sample_split=0.5, subset_size=16,
        )
        model, record = tawt([tiny_family["copy"]], tiny_family["target"], cfg)
        assert record.config["sample_split"] == 0.5

    def test_sample_split_eta_zero_coincides_with_pretrain_bitwise(self, tiny_family):
        target, copy = tiny_family["target"], tiny_family["copy"]
        kw = dict(paradigm="pretrain", epochs=3, finetune_epochs=2, sample_split=0.5)
        cfg_fixed = base_cfg(**kw)
        w0 = default_initial_weights(cfg_fixed, [copy], target)
        m_fixed, _ = pretrain_then_finetune([copy], target, w0, cfg_fixed)
        m_adapt, _ = tawt([copy], target, base_cfg(weighted=True, eta=0.0, **kw))
        assert np.array_equal(m_fixed.W1, m_adapt.W1)
        assert np.array_equal(m_fixed.heads["target"].W2, m_adapt.heads["target"].W2)

    def test_sample_split_rejected_for_joint(self, tiny_family):
        cfg = base_cfg(paradigm="joint", weighted=True, epochs=2, sample_split=0.5)
        with pytest.raises(ValueError):
            tawt([tiny_family["copy"]], tiny_family["target"], cfg)


class TestWeightFloor:
    def test_floor_keeps_weights_alive(self, tiny_family):
        sources = [tiny_family["copy"], tiny_family["distractor"]]
        cfg = base_cfg(paradigm="joint", weighted=True, eta=1.0, c=1000.0, epochs=3)
        _, bare = tawt(sources, tiny_family["target"], cfg)
        assert np.min(bare.weight_steps[-1]["weights"]) == 0.0  # |eta * g| ~ 1000 underflows a weight
        cfg_floor = base_cfg(
            paradigm="joint", weighted=True, eta=1.0, c=1000.0, epochs=3, weight_floor=0.01
        )
        _, record = tawt(sources, tiny_family["target"], cfg_floor)
        for snap in record.weight_steps:
            assert np.all(np.asarray(snap["weights"]) > 0.0)
        assert "weight floor 0.01 applied at step 1" in record.notes

    def test_eta_zero_ignores_floor_bitwise(self, tiny_family):
        target = tiny_family["target"].take(30)
        sources = [tiny_family["copy"], tiny_family["distractor"]]
        cfg_fixed = base_cfg(paradigm="joint", epochs=3)
        w0 = default_initial_weights(cfg_fixed, sources, target)
        assert w0.values[0] < 0.1
        m_fixed, _ = joint_train(sources, target, w0, cfg_fixed)
        cfg_adapt = base_cfg(paradigm="joint", weighted=True, eta=0.0, weight_floor=0.1, epochs=3)
        m_adapt, r_adapt = tawt(sources, target, cfg_adapt)
        assert np.array_equal(m_fixed.W1, m_adapt.W1)
        for tid in m_fixed.heads:
            assert np.array_equal(m_fixed.heads[tid].W2, m_adapt.heads[tid].W2)
        w_start = r_adapt.weight_steps[0]["weights"]
        assert all(snap["weights"] == w_start for snap in r_adapt.weight_steps)
        assert r_adapt.notes == []


class TestSampleGranularity:
    def test_weights_live_on_samples(self, tiny_family):
        source = tiny_family["copy"]
        cfg = base_cfg(
            paradigm="pretrain", weighted=True, weight_granularity="sample",
            epochs=10, finetune_epochs=2, subset_size=16,
        )
        model, record = tawt([source], tiny_family["target"], cfg)
        final = np.asarray(record.weight_steps[-1]["weights"])
        assert final.shape == (source.n,)
        assert abs(final.sum() - 1.0) <= 1e-9
        # default period for sample weights is 5 epochs -> 2 updates + init
        assert len(record.weight_steps) == 3

    def test_single_source_required(self, tiny_family):
        cfg = base_cfg(
            paradigm="pretrain", weighted=True, weight_granularity="sample", epochs=5
        )
        with pytest.raises(ValueError):
            tawt([tiny_family["copy"], tiny_family["distractor"]], tiny_family["target"], cfg)

    def test_pretrain_only(self, tiny_family):
        cfg = base_cfg(
            paradigm="joint", weighted=True, weight_granularity="sample", epochs=5
        )
        with pytest.raises(ValueError):
            tawt([tiny_family["copy"]], tiny_family["target"], cfg)

    def test_uniform_weights_match_task_granularity_start(self, tiny_family):
        source = tiny_family["copy"]
        cfg = base_cfg(
            paradigm="pretrain", weighted=True, weight_granularity="sample",
            epochs=4, finetune_epochs=0, subset_size=16,
        )
        _, record = tawt([source], tiny_family["target"], cfg)
        first = np.asarray(record.weight_steps[0]["weights"])
        np.testing.assert_allclose(first, 1.0 / source.n)


    def test_initial_weights_are_per_example(self, tiny_family):
        source = tiny_family["copy"]
        cfg = base_cfg(
            paradigm="pretrain", weighted=True, weight_granularity="sample",
            epochs=1, finetune_epochs=0, subset_size=16,
        )
        w0 = SimplexWeights(np.arange(1.0, source.n + 1.0))
        _, record = tawt([source], tiny_family["target"], cfg, initial_weights=w0)
        assert record.weight_steps[0]["weights"] == [float(x) for x in w0.values]
        with pytest.raises(ValueError):
            tawt([source], tiny_family["target"], cfg, initial_weights=SimplexWeights(np.ones(1)))


def _ref_example_grads(model, source):
    """Per-example rep gradients, one backward_arrays call per row."""
    rows = []
    for i in range(source.n):
        dW1, db1, _, _ = backward_arrays(
            model, source.task_id, source.features[i : i + 1], source.labels[i : i + 1]
        )
        rows.append(np.concatenate([dW1.ravel(), db1]))
    return rows


def _estimator_setup(hidden, n, seed):
    """A model with negative biases, a source of n rows whose row 3 (if any) is
    all zero (every unit dead, so its gradient vanishes) and whose rows 0, 7,
    14, ... start with -0.0 features, and a target subset gradient."""
    model = init_model(20, hidden, {"src": 10, "target": 10}, seed=seed)
    model.b1[:] = -Rng(seed + 1).uniform(0.01, 0.1, size=hidden)
    raw = random_dataset(n, 20, 10, seed=seed + 2, task_id="src")
    features = raw.features.copy()
    features[3:4] = 0.0
    features[::7, :5] = -0.0
    source = Dataset(features, raw.labels, 10, "src")
    target = random_dataset(100, 20, 10, seed=seed + 3)
    g0 = rep_gradient_flat(model, "target", target, 64, Rng(seed + 4))
    return model, source, g0


def _block_rows(hidden):
    """Rows per block of example_rep_grads at input width 20."""
    return EXAMPLE_BLOCK_BYTES // (8 * (hidden * 20 + hidden))


class TestPerExampleEstimator:
    """example_rep_grads and the sample-granularity estimators against a
    per-example backward_arrays loop, compared byte for byte."""

    def test_matches_per_example_loop_at_full_width(self):
        block = _block_rows(256)
        assert block > 1
        for n in (1, block - 1, block, 2 * block + 37):
            model, source, g0 = _estimator_setup(256, n, seed=21 + n)
            ref_rows = _ref_example_grads(model, source)
            blocks = [(rows, G.copy()) for rows, G in example_rep_grads(
                model, "src", source.features, source.labels)]
            assert [rows for rows, _ in blocks] == [
                slice(a, min(a + block, n)) for a in range(0, n, block)
            ]
            got_rows = np.concatenate([G for _, G in blocks])
            assert got_rows.shape == (n, model.rep_param_count())
            for i, ref in enumerate(ref_rows):
                assert got_rows[i].tobytes() == ref.tobytes(), f"n {n}, row {i}"
            assert not np.signbit(got_rows[got_rows == 0.0]).any()  # -0.0 turned to +0.0
            if n > 3:
                assert not ref_rows[3].any()

            cos_cfg = TrainConfig(c=2.0)
            got = _per_sample_gradients(model, source, g0, cos_cfg)
            ref = np.array([cosine_task_gradient(g0, gi, 2.0) for gi in ref_rows])
            assert got.tobytes() == ref.tobytes(), f"n {n}"
            if n > 3:
                assert got[3] == 0.0 and np.signbit(got[3])  # zero-norm rule: -c * 0

            id_cfg = TrainConfig(gradient_estimator="identity_hessian")
            got = _per_sample_gradients(model, source, g0, id_cfg)
            ref = np.array([identity_hessian_task_gradient(g0, gi, 5.0) for gi in ref_rows])
            assert got.tobytes() == ref.tobytes(), f"n {n}"

    def test_exact_hessian_rhs_matches_per_example_loop(self):
        # exact_hessian takes -<s, g_i>, s = H_w^{-1} g0 as handed in by the
        # estimator, through the identity-Hessian product at scale 1
        for hidden in (8, 256):
            n = _block_rows(hidden) + 5
            model, source, g0 = _estimator_setup(hidden, n, seed=31)
            s = Rng(32).uniform(-1.0, 1.0, size=g0.size)
            cfg = TrainConfig(gradient_estimator="exact_hessian")
            got = _per_sample_gradients(model, source, s, cfg)
            ref = np.array([
                identity_hessian_task_gradient(s, gi, 1.0)
                for gi in _ref_example_grads(model, source)
            ])
            assert got.tobytes() == ref.tobytes(), f"hidden {hidden}"

    def test_workspace_stays_flat(self):
        # one (block, rep_param_count) gradient block of EXAMPLE_BLOCK_BYTES
        # plus (block, hidden) activations, whatever the row count
        model, source, g0 = _estimator_setup(256, 2000, seed=41)
        cfg = TrainConfig()
        _per_sample_gradients(model, source, g0, cfg)  # warm up lazy allocations
        tracemalloc.start()
        try:
            _per_sample_gradients(model, source, g0, cfg)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1.5e6, f"_per_sample_gradients peaked at {peak / 1e6:.2f} MB"


class TestRunRecord:
    def test_json_is_every_field_in_order(self, tiny_family):
        cfg = base_cfg(paradigm="single", epochs=3)
        _, record = train_single_task(tiny_family["target"], cfg)
        raw = json.loads(record.to_json())
        assert list(raw) == [
            "config", "weight_task_ids", "epoch_metrics", "weight_steps",
            "wall_clock", "notes",
        ]
        assert RunRecord(**raw) == record

    def test_json_bytes_match_asdict_on_sample_record(self, tiny_family):
        cfg = base_cfg(
            paradigm="pretrain", weighted=True, weight_granularity="sample",
            epochs=4, finetune_epochs=1, subset_size=16,
        )
        _, record = tawt([tiny_family["copy"]], tiny_family["target"], cfg)
        assert len(record.weight_steps[-1]["weights"]) == tiny_family["copy"].n
        assert record.to_json() == json.dumps(asdict(record), indent=2)

    def test_csv_layouts(self, tiny_family, tmp_path):
        cfg = base_cfg(paradigm="single", epochs=3)
        _, record = train_single_task(tiny_family["target"], cfg)
        mpath = tmp_path / "metrics.csv"
        wpath = tmp_path / "weights.csv"
        record.write_metrics_csv(mpath)
        record.write_weights_csv(wpath)
        mlines = mpath.read_text().splitlines()
        assert mlines[0] == "epoch,task,loss,target_acc"
        assert len(mlines) == 1 + 3  # one task, three epochs
        wlines = wpath.read_text().splitlines()
        assert wlines[0] == "step,w_0"
        assert len(wlines) == 1 + len(record.weight_steps)

    def test_metrics_every_zero_keeps_final_only(self, tiny_family):
        cfg = base_cfg(paradigm="single", epochs=5, metrics_every=0)
        _, record = train_single_task(tiny_family["target"], cfg)
        assert len(record.epoch_metrics) == 1
        assert record.epoch_metrics[0]["epoch"] == 4

    def test_csv_files_are_replaced_whole(self, tmp_path, monkeypatch):
        record = RunRecord(config={}, weight_task_ids=["a", "b"])
        record.add_weight_snapshot(0, SimplexWeights(np.array([0.25, 0.75])))
        record.epoch_metrics.append(
            {"epoch": 0, "losses": {"a": 0.5, "b": 2.0}, "target_accuracy": 1.0}
        )
        metrics, weights = tmp_path / "metrics.csv", tmp_path / "weights.csv"
        record.write_metrics_csv(metrics)
        record.write_weights_csv(weights)
        assert metrics.read_bytes() == b"epoch,task,loss,target_acc\n0,a,0.5,1\n0,b,2,1\n"
        assert weights.read_bytes() == b"step,w_0,w_1\n0,0.25,0.75\n"

        # Every float, a numpy one too, is written so that float() reads it back exactly.
        exact = [-0.0, 5e-324, 0.1 + 0.2, 1e300, np.float64(1 / 3)]
        table = tmp_path / "exact.csv"
        write_csv(table, ["x"], [[x] for x in exact])
        assert table.read_bytes() == (
            b"x\n-0\n4.9406564584124654e-324\n0.30000000000000004\n"
            b"1.0000000000000001e+300\n0.33333333333333331\n"
        )
        read = [float(line) for line in table.read_text().splitlines()[1:]]
        assert [x.hex() for x in read] == [float(x).hex() for x in exact]  # -0.0 keeps its sign
        write_csv(table, ["step", "x"], [[7, 0.5]], lineterminator="\r\n")
        assert table.read_bytes() == b"step,x\r\n7,0.5\r\n"

        def fail(src, dst):
            raise OSError("disk full")

        record.add_weight_snapshot(1, SimplexWeights(np.array([0.5, 0.5])))
        monkeypatch.setattr(os, "replace", fail)
        with pytest.raises(OSError):
            record.write_weights_csv(weights)
        assert weights.read_bytes() == b"step,w_0,w_1\n0,0.25,0.75\n"
