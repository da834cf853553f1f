"""Cross-task training paradigms with optional adaptive source weighting.

Paradigms
---------
single           target-only baseline
pretrain         weighted representation learning on the sources (with a
                 per-round head-only step on the target), then a fine-tune
                 phase on the target (full model by default, or frozen
                 representation)
joint            one weighted objective over target + sources; the weight
                 vector has the target at index 0
normalized_joint joint training whose weights start uniform instead of
                 proportional to sample sizes

The weighted ("adaptive") variants interleave multiplicative weight updates
with the SGD epochs: every weight_update_period epochs, each task's
representation gradient on a small random subset is compared against the
target's, and the weights take one mirror-descent step driven by that
alignment signal. Weights can live on tasks (default) or on the samples of
a single source task.

All four entry points are thin wrappers over one driver, _train, which
runs one phase loop (_train_weighted_phase), one epoch function
(_weighted_epoch) and one estimator dispatch (_estimate_task_gradients)
for every paradigm and both weight granularities. single is the joint
objective with no sources; fixed-weight runs are the adaptive loop with
the weight step switched off. Sample weights enter _weighted_epoch as
per-row loss coefficients, task weights as per-batch loss scales. Every
step on the representation is model.train_step; head-only steps (the
pretrain head fit and the frozen fine-tune) keep their own gradient on
the frozen hidden layer.

Every run derives all of its randomness from cfg.seed through purpose-keyed
child streams (model init, per-task shuffles, batch interleaving, subset
draws, ...), so adding a task, holding a weight at zero, or turning the
weight adaptation off never perturbs the draws of the remaining components.
Two runs with the same config are bitwise identical.
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import asdict, dataclass, field, replace

import numpy as np

from .model import (
    EmptyBatchError,
    OptimizerState,
    SharedModel,
    apply_update,
    backward_arrays,
    hidden_batch,
    init_model,
    predictions,
    rep_gradient_flat,
    task_loss,
    train_step,
)
from .numerics import LOG_EPS, Rng, float_repr17, hash64, softmax_rows
from .taskgen import TARGET_TASK_ID, Dataset, round_half_up
from .weighting import (
    CapacityError,
    SimplexWeights,
    cosine_task_gradient,
    hessian_solve_task_gradients,
    hessian_task_gradient,
    identity_hessian_task_gradient,
    init_weights,
    mirror_descent_step,
)

PARADIGMS = ("single", "pretrain", "joint", "normalized_joint")
GRANULARITIES = ("task", "sample")
ESTIMATORS = ("cosine", "identity_hessian", "exact_hessian")


@dataclass
class TrainConfig:
    """Every optimizer, approximation, and schedule constant for one run."""

    paradigm: str = "single"
    weighted: bool = False
    weight_granularity: str = "task"
    gradient_estimator: str = "cosine"
    c: float = 1.0
    identity_hessian_scale: float = 5.0
    eta: float = 1.0
    subset_size: int = 64
    # Epochs between mirror-descent steps; one such period is one outer
    # round. None resolves to 1 for task weights and 5 for sample weights.
    weight_update_period: int | None = None
    weight_init: str | None = None  # None -> paradigm default
    weight_floor: float = 0.0
    loss_scale_mode: str = "weight"  # 'weight' | 'weight_times_T'
    optimizer: str = "adam"
    lr: float = 3e-4
    epochs: int = 30
    finetune_epochs: int | None = None  # pretrain phase 2; None -> epochs
    finetune_lr: float | None = None  # None -> lr
    finetune_rep: str = "full"  # 'full' | 'frozen'
    batch_size: int = 100
    hidden: int = 256
    seed: int = 0
    sample_split: float | None = None  # B1 fraction; pretrain only
    teacher_accuracy_threshold: float = 1.0
    exact_hessian_cap: int = 200
    metrics_every: int = 1  # 0 -> record only the final epoch of each phase

    def validate(self) -> None:
        if self.paradigm not in PARADIGMS:
            raise ValueError(f"paradigm must be one of {PARADIGMS}, got {self.paradigm!r}")
        if self.weight_granularity not in GRANULARITIES:
            raise ValueError(f"weight_granularity must be one of {GRANULARITIES}")
        if self.gradient_estimator not in ESTIMATORS:
            raise ValueError(f"gradient_estimator must be one of {ESTIMATORS}")
        if self.loss_scale_mode not in ("weight", "weight_times_T"):
            raise ValueError(f"unknown loss_scale_mode {self.loss_scale_mode!r}")
        if self.finetune_rep not in ("full", "frozen"):
            raise ValueError("finetune_rep must be 'full' or 'frozen'")
        if self.optimizer not in ("sgd", "adam"):
            raise ValueError("optimizer must be 'sgd' or 'adam'")
        if self.weight_init not in (None, "proportional", "uniform"):
            raise ValueError(f"unknown weight_init {self.weight_init!r}")
        if self.c <= 0:
            raise ValueError("c must be positive")
        if self.eta < 0:
            raise ValueError("eta must be nonnegative")
        for name in ("subset_size", "epochs", "batch_size", "hidden"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")
        if self.lr < 0:
            raise ValueError("lr must be nonnegative")
        if self.weight_update_period is not None and self.weight_update_period < 1:
            raise ValueError("weight_update_period must be >= 1")
        if self.finetune_epochs is not None and self.finetune_epochs < 0:
            raise ValueError("finetune_epochs must be >= 0")
        if self.finetune_lr is not None and self.finetune_lr <= 0:
            raise ValueError("finetune_lr must be positive")
        if self.sample_split is not None and not 0.0 < self.sample_split < 1.0:
            raise ValueError("sample_split fraction must lie strictly inside (0, 1)")
        if self.metrics_every < 0:
            raise ValueError("metrics_every must be >= 0")

    def resolved_weight_update_period(self) -> int:
        if self.weight_update_period is not None:
            return self.weight_update_period
        return 5 if self.weight_granularity == "sample" else 1

    def resolved_finetune_epochs(self) -> int:
        return self.epochs if self.finetune_epochs is None else self.finetune_epochs


@dataclass
class EvalResult:
    accuracy: float
    mean_loss: float


@dataclass
class RunRecord:
    """Everything observable about one training run."""

    config: dict
    weight_task_ids: list[str]
    epoch_metrics: list[dict] = field(default_factory=list)
    weight_steps: list[dict] = field(default_factory=list)
    wall_clock: float = 0.0
    checkpoint_path: str | None = None
    notes: list[str] = field(default_factory=list)

    def add_weight_snapshot(self, step: int, w: SimplexWeights) -> None:
        self.weight_steps.append({"step": step, "weights": [float(x) for x in w.values]})

    def final_weights(self) -> list[float]:
        return self.weight_steps[-1]["weights"]

    def to_json(self) -> str:
        return json.dumps(
            {
                "config": self.config,
                "weight_task_ids": self.weight_task_ids,
                "epoch_metrics": self.epoch_metrics,
                "weight_steps": self.weight_steps,
                "wall_clock": self.wall_clock,
                "checkpoint_path": self.checkpoint_path,
                "notes": self.notes,
            },
            indent=2,
        )

    @classmethod
    def from_json(cls, text: str) -> "RunRecord":
        raw = json.loads(text)
        return cls(
            config=raw["config"],
            weight_task_ids=raw["weight_task_ids"],
            epoch_metrics=raw["epoch_metrics"],
            weight_steps=raw["weight_steps"],
            wall_clock=raw["wall_clock"],
            checkpoint_path=raw.get("checkpoint_path"),
            notes=raw.get("notes", []),
        )

    def write_metrics_csv(self, path) -> None:
        lines = ["epoch,task,loss,target_acc"]
        for entry in self.epoch_metrics:
            acc = float_repr17(entry["target_accuracy"])
            for task, loss in entry["losses"].items():
                lines.append(f"{entry['epoch']},{task},{float_repr17(loss)},{acc}")
        atomic_write_text(path, "\n".join(lines) + "\n")

    def write_weights_csv(self, path) -> None:
        lines = ["step," + ",".join(f"w_{i}" for i in range(len(self.weight_task_ids)))]
        for snap in self.weight_steps:
            lines.append(f"{snap['step']}," + ",".join(float_repr17(x) for x in snap["weights"]))
        atomic_write_text(path, "\n".join(lines) + "\n")


def atomic_write_text(path, text: str) -> None:
    """Write text to path through a sibling temp file and os.replace, so a
    reader sees the old file or the whole new one, never a partial write."""
    tmp = f"{path}.tmp"
    with open(tmp, "w", newline="") as fh:
        fh.write(text)
    os.replace(tmp, path)


def evaluate(model: SharedModel, task_id: str, data: Dataset) -> EvalResult:
    """Accuracy (argmax, ties to lowest class) and mean loss on a dataset."""
    if data.n == 0:
        raise EmptyBatchError("evaluate over an empty dataset")
    preds = predictions(model, task_id, data.features)
    return EvalResult(
        accuracy=float(np.mean(preds == data.labels)),
        mean_loss=task_loss(model, task_id, data),
    )


def split_target(target: Dataset, fraction: float, rng: Rng) -> tuple[Dataset, Dataset]:
    """Disjoint partition of the target data; |B1| = round(fraction * n)."""
    if not 0.0 < fraction < 1.0:
        raise ValueError(f"fraction must lie strictly inside (0, 1), got {fraction}")
    n1 = round_half_up(fraction * target.n)
    if n1 == 0 or n1 == target.n:
        raise ValueError(
            f"split of {target.n} examples at fraction {fraction} leaves a part empty"
        )
    perm = rng.permutation(target.n)
    parts = []
    for idx in (perm[:n1], perm[n1:]):
        parts.append(
            Dataset(
                target.features[idx].copy(),
                target.labels[idx].copy(),
                target.n_classes,
                target.task_id,
            )
        )
    return parts[0], parts[1]


def default_initial_weights(cfg: TrainConfig, sources, target: Dataset | None) -> SimplexWeights:
    """Paradigm-default starting weights (overridable via cfg.weight_init)."""
    if cfg.paradigm == "pretrain":
        sizes = [s.n for s in sources]
        mode = cfg.weight_init or "proportional"
    elif cfg.paradigm in ("joint", "normalized_joint"):
        sizes = [target.n] + [s.n for s in sources]
        mode = cfg.weight_init or (
            "uniform" if cfg.paradigm == "normalized_joint" else "proportional"
        )
    else:
        raise ValueError(f"no weight initialization for paradigm {cfg.paradigm!r}")
    return init_weights(mode, sizes)


class _Streams:
    """Purpose-keyed random streams derived from one run seed."""

    def __init__(self, seed: int):
        self.seed = seed
        self._cache: dict[tuple, Rng] = {}

    def get(self, *tag: int | str) -> Rng:
        if tag not in self._cache:
            self._cache[tag] = Rng(hash64(self.seed, *tag))
        return self._cache[tag]


def _weighted_epoch(model, entries, w, cfg, opt, streams):
    """One epoch of minibatch steps on the weighted multi-task objective.

    Each participating task's examples are reshuffled from that task's own
    stream, split into batches, and the resulting steps are interleaved in a
    random order. With one weight per task, a task with weight exactly zero
    contributes no steps at all, so its loss terms vanish from the run
    entirely. With one weight per example of a single task (sample
    granularity), each batch B contributes (n/|B|) * sum_{i in B} w_i * loss_i,
    so uniform weights reproduce the plain mean-batch objective exactly.
    """
    # Per-row weights (sample granularity) cover the rows of a single entry;
    # a one-row entry gets the coefficient 1 under either reading.
    per_row = len(w) != len(entries)
    scale_mult = float(len(w)) if cfg.loss_scale_mode == "weight_times_T" else 1.0
    steps = []
    for pos, (task_id, data) in enumerate(entries):
        if data.n == 0 or (not per_row and w[pos] == 0.0):
            continue
        order = streams.get("shuffle", task_id).permutation(data.n)
        for start in range(0, data.n, cfg.batch_size):
            idx = order[start : start + cfg.batch_size]
            if per_row:
                scale = {"row_weights": w.values[idx] * (data.n / idx.size)}
            else:
                scale = {"loss_scale": w[pos] * scale_mult}
            steps.append((task_id, data, idx, scale))
    if not steps:
        return
    for si in streams.get("interleave").permutation(len(steps)):
        task_id, data, idx, scale = steps[si]
        train_step(model, task_id, data.features[idx], data.labels[idx], opt, **scale)


def _head_only_epochs(model, task_id, data, epochs, cfg, opt, rng):
    """Minibatch steps on one head with the representation frozen."""
    if data.n == 0 or epochs == 0:
        return
    head = model.head(task_id)
    key = f"head.{task_id}"
    grad = opt.grad_buffer(key, head.params)  # before H: see OptimizerState.grad_buffer
    H = hidden_batch(model, data.features)
    dW2, db2 = grad[: head.W2.size].reshape(head.W2.shape), grad[head.W2.size :]
    for _ in range(epochs):
        order = rng.permutation(data.n)
        for start in range(0, data.n, cfg.batch_size):
            idx = order[start : start + cfg.batch_size]
            Hb = H[idx]
            Y = data.labels[idx]
            Z = Hb @ head.W2.T + head.b2
            P = softmax_rows(Z)
            rows = np.arange(len(idx))
            picked = P[rows, Y]
            coeff = picked / (picked + LOG_EPS) / len(idx)
            dZ = P * coeff[:, None]
            dZ[rows, Y] -= coeff
            np.matmul(dZ.T, Hb, out=dW2)
            np.sum(dZ, axis=0, out=db2)
            apply_update([head.params], [grad], opt, [key])


def _estimate_task_gradients(model, entries, w, target_data, cfg, streams) -> np.ndarray:
    """Weight gradient per objective task (or per source example) from alignment.

    One target subset is drawn per call and reused against every task; the
    target's own entry (joint paradigms) compares that subset with itself.
    Tasks held at weight zero get a zero gradient without consuming draws.
    At sample granularity the single source's examples are each compared
    with the target subset instead.
    """
    sample = cfg.weight_granularity == "sample"
    if cfg.gradient_estimator == "exact_hessian" and not sample:
        datasets = [data for _, data in entries]
        return hessian_task_gradient(
            model, datasets, w, target_data, rep_param_cap=cfg.exact_hessian_cap
        )
    g0 = rep_gradient_flat(
        model, TARGET_TASK_ID, target_data, cfg.subset_size, streams.get("subset", "__target__")
    )
    if sample:
        return _per_sample_gradients(model, entries[0][1], g0, w, cfg)
    g = np.zeros(len(entries))
    for pos, (task_id, data) in enumerate(entries):
        if w[pos] == 0.0 or data.n == 0:
            continue
        if task_id == TARGET_TASK_ID:
            gt = g0
        else:
            gt = rep_gradient_flat(
                model, task_id, data, cfg.subset_size, streams.get("subset", task_id)
            )
        g[pos] = _alignment(g0, gt, cfg)
    return g


def _alignment(g0, gt, cfg) -> float:
    if cfg.gradient_estimator == "cosine":
        return cosine_task_gradient(g0, gt, cfg.c)
    return identity_hessian_task_gradient(g0, gt, cfg.identity_hessian_scale)


def _per_sample_gradients(model, source, g0, w, cfg) -> np.ndarray:
    """Weight gradient per source example against the target subset gradient."""
    n = source.n
    if cfg.gradient_estimator == "exact_hessian":
        dim = model.rep_param_count()
        if dim > cfg.exact_hessian_cap:
            raise CapacityError(
                f"representation has {dim} parameters, cap is {cfg.exact_hessian_cap}"
            )
        probe = model.copy()

        def weighted_grad(phi):
            probe.set_rep_flat(phi)
            dW1, db1, _, _ = backward_arrays(
                probe, source.task_id, source.features, source.labels, row_weights=w.values
            )
            return np.concatenate([dW1.ravel(), db1])

        rhs = np.stack([_single_example_rep_grad(model, source, i) for i in range(n)])
        return hessian_solve_task_gradients(model.rep_flat(), weighted_grad, rhs, g0)
    g = np.zeros(n)
    for i in range(n):
        g[i] = _alignment(g0, _single_example_rep_grad(model, source, i), cfg)
    return g


def _single_example_rep_grad(model, source, i) -> np.ndarray:
    dW1, db1, _, _ = backward_arrays(
        model, source.task_id, source.features[i : i + 1], source.labels[i : i + 1]
    )
    return np.concatenate([dW1.ravel(), db1])


def _record_epoch(record, model, entries, eval_data, epoch, phase, cfg, final):
    if cfg.metrics_every == 0 and not final:
        return
    if cfg.metrics_every > 1 and not final and (epoch + 1) % cfg.metrics_every != 0:
        return
    losses = {}
    for task_id, data in entries:
        if data.n:
            losses[task_id] = task_loss(model, task_id, data)
    ev = evaluate(model, TARGET_TASK_ID, eval_data)
    record.epoch_metrics.append(
        {
            "epoch": epoch,
            "phase": phase,
            "losses": losses,
            "target_accuracy": ev.accuracy,
            "target_loss": ev.mean_loss,
        }
    )


def _apply_floor(w, g, cfg, record, step):
    """One mirror-descent step, then cfg.weight_floor; at eta = 0, w unchanged."""
    new = mirror_descent_step(w, g, cfg.eta)
    if new is w:
        return w
    if cfg.weight_floor > 0.0 and np.any(new.values < cfg.weight_floor):
        floored = np.maximum(new.values, cfg.weight_floor)
        new = SimplexWeights(floored / floored.sum())
        record.notes.append(f"weight floor {cfg.weight_floor} applied at step {step}")
    return new


def _train_weighted_phase(
    model, entries, w0, cfg, streams, record, *, adapt, head_fit_data, estimator_target, eval_data
):
    """The shared rep-learning loop behind every paradigm.

    Runs cfg.epochs epochs; every weight_update_period epochs closes one
    outer round, recording a weight snapshot (and, when adapt is set, taking
    one mirror-descent step on the weights first). The adaptive and
    fixed-weight variants are the same code path, so an adaptive run with
    eta = 0 is bitwise identical to its fixed-weight counterpart.
    """
    opt = OptimizerState(kind=cfg.optimizer, lr=cfg.lr)
    period = cfg.resolved_weight_update_period()
    w = w0
    record.add_weight_snapshot(0, w)
    for epoch in range(cfg.epochs):
        _weighted_epoch(model, entries, w, cfg, opt, streams)
        if head_fit_data is not None:
            _head_only_epochs(
                model, TARGET_TASK_ID, head_fit_data, 1, cfg, opt, streams.get("head-shuffle")
            )
        _record_epoch(
            record, model, entries, eval_data, epoch, "rep",
            cfg, final=epoch == cfg.epochs - 1,
        )
        if (epoch + 1) % period == 0:
            if adapt:
                g = _estimate_task_gradients(model, entries, w, estimator_target, cfg, streams)
                w = _apply_floor(w, g, cfg, record, epoch + 1)
            record.add_weight_snapshot(epoch + 1, w)


def _finetune_phase(model, data, cfg, streams, record, eval_data, epoch_offset):
    """Pretrain phase 2: fit the target on its own data, full or frozen rep."""
    epochs = cfg.resolved_finetune_epochs()
    opt = OptimizerState(kind=cfg.optimizer, lr=cfg.finetune_lr or cfg.lr)
    entries = [(TARGET_TASK_ID, data)]
    w_one = SimplexWeights(np.ones(1))
    for epoch in range(epochs):
        if cfg.finetune_rep == "frozen":
            _head_only_epochs(
                model, TARGET_TASK_ID, data, 1, cfg, opt, streams.get("finetune-shuffle")
            )
        else:
            _weighted_epoch(model, entries, w_one, cfg, opt, streams)
        _record_epoch(
            record, model, entries, eval_data, epoch_offset + epoch, "finetune",
            cfg, final=epoch == epochs - 1,
        )


def _normalize_tasks(sources, target):
    """Key the target as TARGET_TASK_ID and reject colliding source ids."""
    for s in sources:
        if s.input_dim != target.input_dim:
            raise ValueError(
                f"source {s.task_id!r} has input dim {s.input_dim}, target has {target.input_dim}"
            )
    ids = [s.task_id for s in sources]
    if len(set(ids)) != len(ids):
        raise ValueError(f"source task ids must be distinct, got {ids}")
    if TARGET_TASK_ID in ids:
        raise ValueError(f"source task id {TARGET_TASK_ID!r} is reserved for the target")
    if target.task_id != TARGET_TASK_ID:
        target = replace(target, task_id=TARGET_TASK_ID)
    return sources, target


def _build_model(sources, target, cfg) -> SharedModel:
    head_dims = {TARGET_TASK_ID: target.n_classes}
    for s in sources:
        head_dims[s.task_id] = s.n_classes
    return init_model(target.input_dim, cfg.hidden, head_dims, cfg.seed)


def _train(sources, target, cfg, eval_data, w0, *, pretrain, adapt):
    """The one driver behind every entry point.

    pretrain puts only the sources in the weighted objective, adds one
    head-only target step per epoch and ends with the fine-tune phase;
    otherwise the target joins the objective at index 0. adapt turns on the
    mirror-descent weight steps. w0 None picks the paradigm default: one
    weight per objective task, or at sample granularity (adapt only) a
    uniform weight per example of the single source. cfg.sample_split
    partitions the target for pretrain, adaptive or not, so eta = 0 stays
    bitwise the fixed-weight run.
    """
    cfg.validate()
    if pretrain and not sources:
        raise ValueError("pretraining needs at least one source task")
    sources, target = _normalize_tasks(sources, target)
    started = time.perf_counter()
    eval_data = eval_data or target
    streams = _Streams(cfg.seed)
    fit_target, tune_target = target, target
    if cfg.sample_split is not None:
        if pretrain:
            fit_target, tune_target = split_target(target, cfg.sample_split, streams.get("split"))
        elif adapt:
            raise ValueError("sample_split applies to the pretrain paradigm only")

    entries = [(s.task_id, s) for s in sources]
    if not pretrain:
        entries.insert(0, (TARGET_TASK_ID, target))
    if adapt and cfg.weight_granularity == "sample":
        ((task_id, source),) = entries
        weight_ids = [f"{task_id}[{i}]" for i in range(source.n)]
        w0 = w0 or SimplexWeights(np.full(source.n, 1.0 / source.n))
    else:
        weight_ids = [task_id for task_id, _ in entries]
        w0 = w0 or default_initial_weights(cfg, sources, target)
    if len(w0) != len(weight_ids):
        raise ValueError(f"{len(w0)} weights for {len(weight_ids)} objective tasks")

    model = _build_model(sources, target, cfg)
    record = RunRecord(config=asdict(cfg), weight_task_ids=weight_ids)
    _train_weighted_phase(
        model, entries, w0, cfg, streams, record,
        adapt=adapt, head_fit_data=fit_target if pretrain else None,
        estimator_target=fit_target, eval_data=eval_data,
    )
    if pretrain:
        _finetune_phase(model, tune_target, cfg, streams, record, eval_data, cfg.epochs)
    record.wall_clock = time.perf_counter() - started
    return model, record


def train_single_task(target: Dataset, cfg: TrainConfig, eval_data: Dataset | None = None):
    """Train representation + one head on the target data alone.

    This is the joint objective with no sources and the target's weight at 1.
    """
    if target.n == 0:
        raise EmptyBatchError("cannot train on an empty target dataset")
    return _train(
        [], target, cfg, eval_data, SimplexWeights(np.ones(1)), pretrain=False, adapt=False
    )


def pretrain_then_finetune(
    sources,
    target: Dataset,
    weights: SimplexWeights,
    cfg: TrainConfig,
    eval_data: Dataset | None = None,
):
    """Fixed-weight source training, then a target fine-tune phase.

    Phase 1 minimizes the weighted source objective over the representation
    and source heads, with one head-only target step per round. Phase 2
    trains the target on its own data; cfg.finetune_rep picks whether the
    representation moves with it or stays frozen. With cfg.sample_split set,
    the target is partitioned as in tawt: part one for the head-only steps,
    part two for the fine-tune.
    """
    return _train(sources, target, cfg, eval_data, weights, pretrain=True, adapt=False)


def joint_train(
    sources,
    target: Dataset,
    weights_with_target: SimplexWeights,
    cfg: TrainConfig,
    eval_data: Dataset | None = None,
):
    """Simultaneous fixed-weight optimization over target + sources.

    The weight vector carries the target at index 0. The normalized_joint
    paradigm differs from joint only in how default weights are initialized,
    so this function serves both.
    """
    return _train(
        sources, target, cfg, eval_data, weights_with_target, pretrain=False, adapt=False
    )


def tawt(
    sources,
    target: Dataset,
    cfg: TrainConfig,
    eval_data: Dataset | None = None,
    initial_weights: SimplexWeights | None = None,
):
    """Adaptively weighted training: SGD epochs + mirror-descent weight steps.

    Per outer round: (i) SGD epochs on the weight-scaled objective (sources,
    plus the target for the joint paradigms); (ii) for pretrain, head-only
    SGD on the target; (iii) estimate each task's weight gradient from
    subset gradient alignment; (iv) one mirror-descent step. The full weight
    trajectory lands in the RunRecord. With sample granularity (pretrain,
    one source) the weights live on the examples of that source instead.
    initial_weights replaces the default start (paradigm default per task,
    uniform per example) and must have one entry per weight.

    With cfg.sample_split set (pretrain only), the target data is
    partitioned once: part one drives the head-fit and estimation steps,
    part two the final fine-tune.
    """
    if cfg.paradigm not in ("pretrain", "joint", "normalized_joint"):
        raise ValueError(f"adaptive weighting needs a multi-task paradigm, got {cfg.paradigm!r}")
    if not cfg.weighted:
        raise ValueError("cfg.weighted must be set for adaptive weighting")
    if not sources:
        raise ValueError("adaptive weighting needs at least one source task")
    if cfg.weight_granularity == "sample":
        if cfg.paradigm != "pretrain":
            raise ValueError("sample-granularity weighting supports the pretrain paradigm only")
        if len(sources) != 1:
            raise ValueError("sample-granularity weighting expects exactly one source task")
        if sources[0].n == 0:
            raise EmptyBatchError("cannot weight the samples of an empty source")
    return _train(
        sources, target, cfg, eval_data, initial_weights,
        pretrain=cfg.paradigm == "pretrain", adapt=True,
    )
