"""Acceptance suite: one test per headline criterion, at stated tolerances.

Each test prints a single `[criterion N] PASS/FAIL ...` line (run with
`pytest tests/test_acceptance.py -v -s` to watch them stream). The heavy
criteria (5-8) drive the CLI harness end to end on the reference configs
under scripts/configs/, writing into a session-scoped temporary directory.

Expect roughly 15 minutes total on one laptop core; criteria 1-4 and 9
finish in under a minute combined. The criteria that run whole sweeps
(5-9) are marked `slow`, so `pytest -m "not slow"` is a quick inner loop.
"""

import csv
import json
import math
import os
import time
from pathlib import Path

import numpy as np
import pytest

from tawt_lab.harness import cmd_distance, cmd_run, parse_config
from tawt_lab.model import OptimizerState, init_model, task_loss
from tawt_lab.numerics import Rng, hash64
from tawt_lab.taskgen import Dataset
from tawt_lab.training import TrainConfig, _Streams, _inverse_hessian_product, _weighted_epoch
from tawt_lab.weighting import (
    BracketingViolationError,
    SimplexWeights,
    cosine_task_gradient,
    hessian_cg_solve,
    matching_weights,
    mirror_descent_step,
)

from oracles import backward, copy_model, finite_diff_gradient

REPO = Path(__file__).resolve().parent.parent
CONFIGS = REPO / "scripts" / "configs"


def finish(criterion, started, ok, detail, budget=None):
    elapsed = time.perf_counter() - started
    line = f"[criterion {criterion}] {'PASS' if ok else 'FAIL'} ({elapsed:.1f}s) {detail}"
    print(line)
    assert ok, line
    if budget is not None:
        assert elapsed < budget, f"criterion {criterion} took {elapsed:.1f}s, budget {budget}s"


def random_dataset(n, d, k, seed, task_id="target"):
    rng = Rng(seed)
    return Dataset(rng.uniform(-0.5, 0.5, (n, d)), rng.integers(0, k, n), k, task_id)


# Results are bitwise across job counts, so the sweep fixtures use both cores
# where there are two; criterion 8 checks that claim at this scale.
SWEEP_JOBS = min(2, os.cpu_count() or 1)


def run_config(name, out_dir, mutate=None, jobs=1):
    raw = json.loads((CONFIGS / name).read_text())
    raw["out_dir"] = str(out_dir)
    if mutate:
        mutate(raw)
    cfg = parse_config(raw, where=name)
    return cmd_run(cfg, Path(out_dir), jobs=jobs)


def summary_rows(result):
    with open(result["summary"], newline="") as fh:
        return list(csv.DictReader(fh))


def mean_acc_by(rows, key):
    acc = {}
    for row in rows:
        assert row["error"] == "", f"job failed: {row}"
        acc.setdefault(key(row), []).append(float(row["final_target_acc"]))
    return {k: float(np.mean(v)) for k, v in acc.items()}


def test_criterion_1_gradient_oracle():
    """Analytic backprop vs central finite differences on 20 random nets."""
    started = time.perf_counter()
    worst = 0.0
    for case in range(20):
        rng = Rng(hash64(1001, case))
        d = int(rng.integers(2, 6))
        hidden = int(rng.integers(2, 7))
        k = int(rng.integers(2, 5))
        n = int(rng.integers(1, 6))
        model = init_model(d, hidden, {"target": k}, seed=hash64(1001, case, "m"))
        data = random_dataset(n, d, k, hash64(1001, case, "d"))
        snap = backward(model, "target", data)
        analytic = np.concatenate([snap.rep_grad, snap.head_grad])
        probe = copy_model(model)
        n_rep = model.rep_param_count()

        def f(vec):
            probe.rep_params[:] = vec[:n_rep]
            probe.heads["target"].params[:] = vec[n_rep:]
            return task_loss(probe, "target", data)

        flat = np.concatenate([model.rep_params, model.heads["target"].params])
        fd = finite_diff_gradient(f, flat, h=1e-5)
        rel = np.max(np.abs(analytic - fd) / np.maximum(np.abs(fd), 1e-8))
        worst = max(worst, float(rel))
    finish(1, started, worst <= 1e-5, f"max relative error {worst:.3e} over 20 nets", budget=10)


def test_criterion_2_mirror_descent_algebra():
    started = time.perf_counter()
    checks = []
    rng = Rng(2002)
    for _ in range(200):
        n = int(rng.integers(2, 7))
        w = SimplexWeights(rng.uniform(0.05, 1.0, n))
        g = rng.uniform(-20.0, 20.0, n)
        eta = float(rng.uniform(0.0, 3.0))
        out = mirror_descent_step(w, g, eta)
        checks.append(np.all(out.values >= 0.0) and abs(out.values.sum() - 1.0) <= 1e-9)
        shifted = mirror_descent_step(w, g + float(rng.uniform(-5, 5)), eta)
        checks.append(np.allclose(out.values, shifted.values, atol=1e-12))
    w = SimplexWeights(np.array([0.25, 0.75]))
    checks.append(mirror_descent_step(w, np.array([3.0, -1.0]), 0.0) is w)
    out = mirror_descent_step(w, np.array([-0.5, 0.5]), eta=1.0)
    ratio_growth = (out.values[0] / out.values[1]) / (0.25 / 0.75)
    checks.append(abs(ratio_growth - math.e) < 1e-9)
    hand = mirror_descent_step(SimplexWeights(np.array([0.5, 0.5])), np.array([-1.0, 1.0]), 1.0)
    hand_err = float(np.max(np.abs(hand.values - [0.880797, 0.119203])))
    checks.append(hand_err < 1e-6)
    finish(
        2, started, all(checks),
        f"{len(checks)} algebra checks, hand-example error {hand_err:.2e}", budget=1,
    )


def test_criterion_3_matching_identity():
    started = time.perf_counter()
    rng = Rng(3003)
    worst_ulps = 0.0
    for _ in range(100):
        n = int(rng.integers(2, 9))
        risks = rng.uniform(0.01, 3.0, n)
        lo, hi = risks.min(), risks.max()
        target = float(lo + rng.uniform(0.0, 1.0) * (hi - lo))
        w = matching_weights(risks, target)
        err = abs(float(w.values @ risks) - target)
        ulp = np.spacing(max(abs(target), float(np.max(risks))))
        worst_ulps = max(worst_ulps, err / ulp)
    raised = 0
    for _ in range(20):
        risks = rng.uniform(1.0, 2.0, 4)
        try:
            matching_weights(risks, 0.5)
        except BracketingViolationError:
            raised += 1
    ok = worst_ulps <= 4.0 and raised == 20
    finish(
        3, started, ok,
        f"worst identity error {worst_ulps:.2f} ulps; {raised}/20 violations raised", budget=1,
    )


def test_criterion_4_estimator_agreement():
    """Exact-Hessian and cosine weight gradients agree in sign on tiny nets.

    The comparison trains each net to near-convergence on its weighted
    source objective and solves against the exact Hessian (one CG solve per
    net, as the exact_hessian estimator makes) at a curvature-scale ridge
    (1.0): the finite-sample Hessian is rank-deficient, and near-null
    directions otherwise dominate the solve with directionally meaningless
    output.
    """
    started = time.perf_counter()
    agree = total = 0
    for case in range(25):
        rng = Rng(hash64(808, case))
        d = int(rng.integers(2, 5))
        hidden = int(rng.integers(4, 9))
        k = int(rng.integers(2, 5))
        sources = [random_dataset(150, d, k, hash64(808, case, i), f"s{i}") for i in range(2)]
        target = random_dataset(150, d, k, hash64(808, case, 9), "target")
        weights = SimplexWeights(np.array([0.5, 0.5]))
        model = init_model(
            d, hidden, {"target": k, "s0": k, "s1": k}, seed=hash64(808, case, "m")
        )
        cfg = TrainConfig(
            epochs=300, batch_size=50, lr=3e-3, hidden=hidden, seed=hash64(808, case, "r")
        )
        streams = _Streams(cfg.seed)
        opt = OptimizerState(kind="adam", lr=cfg.lr)
        entries = [(s.task_id, s) for s in sources]
        for _ in range(cfg.epochs):
            _weighted_epoch(model, entries, weights, cfg, opt, streams)
        g0 = backward(model, "target", target).rep_grad
        s_exact = _inverse_hessian_product(model, entries, weights, g0, ridge=1.0)
        for s in sources:
            gt = backward(model, s.task_id, s).rep_grad
            g_cos = cosine_task_gradient(g0, gt, 1.0)
            if abs(g_cos) > 0.05:
                total += 1
                agree += np.sign(g_cos) == np.sign(-(s_exact @ gt))

    # closed-form 1-D quadratic: curvature 2 source, target gradient -2
    s_quad = hessian_cg_solve(lambda v: 2.0 * v, np.array([-2.0]), trace=2.0, ridge=0.0)
    g = -(s_quad @ np.array([2.0]))
    quad_ok = abs(g - 2.0) <= 2.0 * 1e-4
    rate = agree / max(total, 1)
    finish(
        4, started, rate >= 0.80 and total >= 25 and quad_ok,
        f"sign agreement {agree}/{total} = {rate:.0%}; quadratic oracle error {abs(g-2.0):.2e}",
        budget=120,
    )


@pytest.fixture(scope="module")
def flip_sweep(tmp_path_factory):
    out = tmp_path_factory.mktemp("flip_sweep")
    started = time.perf_counter()
    result = run_config("flip_sweep.json", out, jobs=SWEEP_JOBS)
    result["elapsed"] = time.perf_counter() - started
    return result


@pytest.mark.slow
def test_criterion_5_flip_rate_reproduction(flip_sweep):
    started = time.perf_counter() - flip_sweep["elapsed"]
    rows = summary_rows(flip_sweep)
    mean = mean_acc_by(rows, lambda r: (r["arm"], int(r["target_size"])))

    gains = {n: mean[("pretrain-q0", n)] - mean[("single", n)] for n in (10, 100)}
    check_a = all(g > 0 for g in gains.values())

    column = [mean[(f"pretrain-q{q}", 100)] for q in ("0", "0.2", "0.5", "1")]
    inversions = sum(1 for i in range(3) if column[i] < column[i + 1])
    check_b = inversions <= 1

    best_transfer = max(mean[(f"pretrain-q{q}", 10000)] for q in ("0", "0.2", "0.5", "1"))
    gap = best_transfer - mean[("single", 10000)]
    check_c = gap <= 0.02

    finish(
        5, started, check_a and check_b and check_c,
        f"transfer gains at n=10/100: {gains[10]:+.3f}/{gains[100]:+.3f}; "
        f"n=100 accuracy by flip {['%.3f' % x for x in column]} ({inversions} inversions); "
        f"n=10000 best-transfer gap {gap:+.3f}",
        budget=1800,
    )


@pytest.fixture(scope="module")
def weight_identification(tmp_path_factory):
    out = tmp_path_factory.mktemp("weight_identification")
    started = time.perf_counter()
    result = run_config("weight_identification.json", out, jobs=SWEEP_JOBS)
    result["elapsed"] = time.perf_counter() - started
    result["out"] = out
    return result


@pytest.mark.slow
def test_criterion_6_weight_identification(weight_identification):
    started = time.perf_counter() - weight_identification["elapsed"]
    rows = summary_rows(weight_identification)
    mean = mean_acc_by(rows, lambda r: r["arm"])
    wins = 0
    for seed in range(5):
        path = weight_identification["out"] / "runs" / "joint-adaptive" / f"seed{seed}" / "n100" / "weights.csv"
        last = path.read_text().splitlines()[-1].split(",")
        copy_w, distractor_w = float(last[2]), float(last[3])
        wins += copy_w > distractor_w
    acc_gap = mean["joint-adaptive"] - mean["joint-fixed"]
    finish(
        6, started, wins >= 4 and acc_gap >= 0.0,
        f"copy outweighs distractor in {wins}/5 seeds; "
        f"adaptive vs fixed mean accuracy {mean['joint-adaptive']:.3f} vs "
        f"{mean['joint-fixed']:.3f} ({acc_gap:+.3f})",
        budget=900,
    )


@pytest.mark.slow
def test_criterion_7_task_distance(tmp_path):
    started = time.perf_counter()
    cfg = parse_config(json.loads((CONFIGS / "distance_curve.json").read_text()))
    path = cmd_distance(cfg, tmp_path)
    by_q = {}
    with open(path, newline="") as fh:
        for row in csv.DictReader(fh):
            by_q.setdefault(float(row["flip_rate"]), []).append(float(row["distance"]))
    grid = cfg.family.flip_grid
    means = [float(np.mean(by_q[q])) for q in grid]
    self_bound = 0.1 * math.log(cfg.family.n_classes)
    check_self = abs(means[0]) < self_bound
    inversions = sum(1 for i in range(3) if means[i] > means[i + 1])
    finish(
        7, started, check_self and inversions <= 1,
        f"self-distance {means[0]:+.4f} (bound {self_bound:.4f}); "
        f"means by flip {['%.3f' % m for m in means]} ({inversions} inversions)",
        budget=1800,
    )


@pytest.mark.slow
def test_criterion_8_end_to_end_determinism(tmp_path_factory):
    """A serial run and a two-worker run give the same bytes: the summary
    (timestamp column excluded) and every joint-adaptive weight trajectory."""
    started = time.perf_counter()
    outputs = []
    for jobs in (1, 2):
        out = tmp_path_factory.mktemp(f"determinism_jobs{jobs}")
        result = run_config("weight_identification.json", out, jobs=jobs)
        lines = Path(result["summary"]).read_text().splitlines()
        weights = sorted(out.glob("runs/joint-adaptive/seed*/n100/weights.csv"))
        outputs.append((
            "\n".join(line.rsplit(",", 1)[0] for line in lines),
            {str(p.relative_to(out)): p.read_bytes() for p in weights},
        ))
    (summary_1, weights_1), (summary_2, weights_2) = outputs
    finish(
        8, started, summary_1 == summary_2 and len(weights_1) == 5 and weights_1 == weights_2,
        f"jobs=1 and jobs=2 give byte-identical summaries (timestamp column excluded) "
        f"and {len(weights_1)} byte-identical joint-adaptive weights.csv files",
    )


@pytest.mark.slow
def test_criterion_9_paradigm_coincidence(tmp_path_factory):
    started = time.perf_counter()
    out = tmp_path_factory.mktemp("coincidence")

    def mutate(raw):
        raw["seeds"] = [0]
        raw["arms"] = [
            {
                "name": "adaptive-eta0",
                "source_flips": [0.0, 1.0],
                "overrides": {
                    "paradigm": "joint", "weighted": True, "eta": 0.0, "subset_size": 64
                },
            },
            {"name": "fixed", "source_flips": [0.0, 1.0], "overrides": {"paradigm": "joint"}},
        ]

    result = run_config("weight_identification.json", out, mutate)
    rows = summary_rows(result)
    acc = {row["arm"]: row["final_target_acc"] for row in rows}
    finish(
        9, started, acc["adaptive-eta0"] == acc["fixed"],
        f"eta=0 adaptive arm accuracy {acc['adaptive-eta0']} equals fixed arm bit for bit",
        budget=300,
    )
