"""The exact-Hessian estimator against dense oracles at hidden 4-8.

model.RepHessian gives H v and tr H of the weighted objective's
representation Hessian; weighting.hessian_cg_solve turns H v into
s = (H + ridge I)^{-1} g0, and exact_hessian takes -<s, g_t> (or -<s, g_i>
per example). Each piece is pinned at both weight granularities: H against
central differences of the gradient on inputs whose every pre-activation
is at least ten steps from a ReLU kink, the CG solve against
np.linalg.solve on the same dense H and ridge, the closed-form trace
against np.trace. The kink regression uses a net where a 1e-4 step does
cross a kink.
"""

import numpy as np
import pytest

from tawt_lab.model import EmptyBatchError, OptimizerState, RepHessian, init_model
from tawt_lab.numerics import DimensionError, Rng, hash64
from tawt_lab.taskgen import Dataset
from tawt_lab.training import (
    TrainConfig,
    _estimate_task_gradients,
    _inverse_hessian_product,
    _Streams,
    _weighted_epoch,
)
from tawt_lab.weighting import SimplexWeights, SingularSystemError

from conftest import random_dataset
from oracles import (
    backward,
    dense_rep_hessian,
    dense_solve,
    fd_rep_hessian,
    min_abs_preactivation,
)

FD_STEP = 1e-4
GRANULARITIES = ("task", "sample")


def _away_from_kinks(model, data, margin):
    """data without the rows that have a pre-activation within margin of zero."""
    A = data.features @ model.W1.T + model.b1
    keep = np.min(np.abs(A), axis=1) >= margin
    return Dataset(data.features[keep], data.labels[keep], data.n_classes, data.task_id)


def _problem(granularity, seed=0):
    """(model, entries, weights, target, RepHessian parts) at hidden 6, no row
    within 10 FD steps of a kink. Task weights cover target + two sources
    (the joint layout); sample weights cover the rows of one source."""
    d, hidden, k = 3, 6, 3
    model = init_model(d, hidden, {"target": k, "a": k, "b": k}, seed=seed)
    model.b1[:] = Rng(seed + 1).uniform(-0.2, 0.2, size=hidden)
    target, a, b = (
        _away_from_kinks(model, random_dataset(n, d, k, seed + 2 + i, tid), 10 * FD_STEP)
        for i, (n, tid) in enumerate([(40, "target"), (50, "a"), (30, "b")])
    )
    if granularity == "task":
        entries = [("target", target), ("a", a), ("b", b)]
        w = SimplexWeights(np.array([0.2, 0.3, 0.5]))
        parts = [(tid, x.features, x.labels, wt / x.n) for (tid, x), wt in zip(entries, w.values)]
    else:
        entries = [("a", a)]
        w = SimplexWeights(Rng(seed + 9).uniform(0.5, 1.5, size=a.n))
        parts = [("a", a.features, a.labels, w.values)]
    assert min(min_abs_preactivation(model, x.features) for _, x in entries) >= 10 * FD_STEP
    return model, entries, w, target, parts


def _rel(got, ref):
    return float(np.max(np.abs(got - ref)) / np.max(np.abs(ref)))


@pytest.mark.parametrize("granularity", GRANULARITIES)
def test_hvp_matches_finite_differences_away_from_kinks(granularity):
    model, _, _, _, parts = _problem(granularity)
    H = dense_rep_hessian(model, parts)
    assert _rel(H, fd_rep_hessian(model, parts, FD_STEP)) <= 1e-6
    assert _rel(H, H.T) <= 1e-12  # CG needs a symmetric operator


@pytest.mark.parametrize("granularity", GRANULARITIES)
def test_closed_form_trace_matches_dense(granularity):
    model, _, _, _, parts = _problem(granularity)
    dense = np.trace(dense_rep_hessian(model, parts))
    assert abs(RepHessian(model, parts).trace() - dense) <= 1e-12 * abs(dense)


@pytest.mark.parametrize("granularity", GRANULARITIES)
def test_cg_matches_dense_solve(granularity):
    model, entries, w, target, parts = _problem(granularity)
    g0 = backward(model, "target", target).rep_grad
    s = _inverse_hessian_product(model, entries, w, g0)
    ref = dense_solve(dense_rep_hessian(model, parts), g0)
    assert np.linalg.norm(s - ref) <= 1e-8 * np.linalg.norm(ref)


@pytest.mark.parametrize("granularity", GRANULARITIES)
def test_estimator_is_minus_inner_product_with_solve(granularity):
    model, entries, w, target, parts = _problem(granularity)
    cfg = TrainConfig(
        gradient_estimator="exact_hessian", weight_granularity=granularity,
        subset_size=1000,  # covers every dataset: full-data gradients, no draw
    )
    got = _estimate_task_gradients(model, entries, w, target, cfg, _Streams(0))
    s = dense_solve(dense_rep_hessian(model, parts), backward(model, "target", target).rep_grad)
    if granularity == "task":
        rhs = [backward(model, tid, x).rep_grad for tid, x in entries]
    else:
        (tid, x), = entries
        rows = (Dataset(x.features[i : i + 1], x.labels[i : i + 1], x.n_classes, tid)
                for i in range(x.n))
        rhs = [backward(model, tid, row).rep_grad for row in rows]
    ref = np.array([-(s @ g) for g in rhs])
    assert got.shape == ref.shape
    assert np.max(np.abs(got - ref)) <= 1e-8 * np.max(np.abs(ref))


def test_rejects_wrong_length_and_empty_part():
    model, _, _, _, parts = _problem("task")
    H = RepHessian(model, parts)
    with pytest.raises(DimensionError):
        H.matvec(np.zeros(H.dim + 1))
    with pytest.raises(EmptyBatchError):
        RepHessian(model, [("a", np.zeros((0, 3)), np.zeros(0, dtype=int), 1.0)])


def test_non_finite_model_raises_singular():
    model, entries, w, target, _ = _problem("task")
    g0 = backward(model, "target", target).rep_grad
    model.heads["a"].W2[0, 0] = np.nan
    with pytest.raises(SingularSystemError):
        _inverse_hessian_product(model, entries, w, g0)


def test_kink_case_matches_exact_solve():
    """Criterion 4's net 9 has a source pre-activation 9.2e-7 from a ReLU kink.

    A 1e-4 finite-difference step crosses it: the dense FD Hessian is off by
    tens of times its own scale there, and the weight gradients solved from
    it by more than 100%. The exact Hessian matches FD at a 1e-7 step, and
    the estimator matches -<s, g_t> with s from the dense exact solve.
    """
    case = 9
    rng = Rng(hash64(808, case))
    d, hidden, k = int(rng.integers(2, 5)), int(rng.integers(4, 9)), int(rng.integers(2, 5))
    sources = [random_dataset(150, d, k, hash64(808, case, i), f"s{i}") for i in range(2)]
    target = random_dataset(150, d, k, hash64(808, case, 9), "target")
    w = SimplexWeights(np.array([0.5, 0.5]))
    model = init_model(d, hidden, {"target": k, "s0": k, "s1": k}, seed=hash64(808, case, "m"))
    cfg = TrainConfig(
        epochs=300, batch_size=50, lr=3e-3, hidden=hidden, seed=hash64(808, case, "r")
    )
    streams = _Streams(cfg.seed)
    opt = OptimizerState(kind="adam", lr=cfg.lr)
    entries = [(s.task_id, s) for s in sources]
    for _ in range(cfg.epochs):
        _weighted_epoch(model, entries, w, cfg, opt, streams)
    assert min(min_abs_preactivation(model, s.features) for s in sources) < 1e-6

    parts = [(s.task_id, s.features, s.labels, 0.5 / s.n) for s in sources]
    H = dense_rep_hessian(model, parts)
    assert _rel(fd_rep_hessian(model, parts, 1e-7), H) <= 1e-6
    g0 = backward(model, "target", target).rep_grad
    rhs = [backward(model, s.task_id, s).rep_grad for s in sources]
    ref = np.array([-(dense_solve(H, g0) @ g) for g in rhs])
    exact_cfg = TrainConfig(
        gradient_estimator="exact_hessian", subset_size=150, hidden=hidden
    )
    got = _estimate_task_gradients(model, entries, w, target, exact_cfg, _Streams(0))
    assert np.all(np.abs(got - ref) <= 1e-6 * np.abs(ref))

    fd_coarse = dense_solve(fd_rep_hessian(model, parts, FD_STEP), g0)
    assert np.all(np.abs(np.array([-(fd_coarse @ g) for g in rhs]) - ref) > np.abs(ref))
