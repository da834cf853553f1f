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
alignment signal: the cosine, the inner product under an identity Hessian,
or (exact_hessian) <H_w^{-1} g0, g_t> under the exact representation
Hessian of the weighted objective, one conjugate-gradient solve per round.
Weights can live on tasks (default) or on the samples of a single source
task.

All four entry points are thin wrappers over one driver, _train, which
reads everything from the TrainConfig and runs one phase loop
(_train_weighted_phase), one epoch function (_weighted_epoch) and one
estimator dispatch (_estimate_task_gradients) for every paradigm and both
weight granularities. single is the joint objective with no sources;
fixed-weight runs are the adaptive loop with the weight step switched off.
tawt runs any arm its config describes; train_single_task,
pretrain_then_finetune and joint_train pin their own paradigm with the
weight step off, and their RunRecord.config says so. Sample weights enter
_weighted_epoch as per-row loss coefficients, task weights as per-batch
loss scales. Every step on the representation is model.train_step;
head-only steps (the pretrain head fit and the frozen fine-tune) keep
their own gradient on the frozen hidden layer.

Every run derives all of its randomness from cfg.seed through purpose-keyed
child streams (model init, per-task shuffles, batch interleaving, subset
draws, ...), so adding a task, holding a weight at zero, or turning the
weight adaptation off never perturbs the draws of the remaining components.
Two runs with the same config are bitwise identical.
"""

from __future__ import annotations

import csv
import io
import json
import os
import time
from dataclasses import asdict, dataclass, field, replace

import numpy as np

from .model import (
    EmptyBatchError,
    OptimizerState,
    RepHessian,
    SharedModel,
    accuracy_and_loss,
    apply_update,
    example_rep_grads,
    hidden_batches,
    init_model,
    rep_gradient_flat,
    task_loss,
    train_step,
)
from .numerics import LOG_EPS, Rng, float_repr17, hash64, softmax_rows
from .taskgen import TARGET_TASK_ID, Dataset, fit_family_teachers, flip_key, round_half_up
from .weighting import (
    DEFAULT_IDENTITY_HESSIAN_SCALE,
    SimplexWeights,
    cosine_example_gradients,
    cosine_task_gradient,
    hessian_cg_solve,
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
    identity_hessian_scale: float = DEFAULT_IDENTITY_HESSIAN_SCALE
    eta: float = 1.0
    subset_size: int = 64
    # Epochs between mirror-descent steps; one such period is one outer
    # round. None resolves to 1 for task weights and 5 for sample weights.
    weight_update_period: int | None = None
    weight_floor: float = 0.0
    optimizer: str = "adam"
    lr: float = 3e-4
    epochs: int = 30
    finetune_epochs: int | None = None  # pretrain phase 2; None -> epochs
    finetune_rep: str = "full"  # 'full' | 'frozen'
    batch_size: int = 100
    hidden: int = 256
    seed: int = 0
    sample_split: float | None = None  # B1 fraction; pretrain only
    metrics_every: int = 1  # 0 -> record only the final epoch of each phase

    def validate(self, n_sources: int) -> None:
        """Every rule an arm must satisfy, given its number of source tasks."""
        if self.paradigm not in PARADIGMS:
            raise ValueError(f"paradigm must be one of {PARADIGMS}, got {self.paradigm!r}")
        if self.weight_granularity not in GRANULARITIES:
            raise ValueError(f"weight_granularity must be one of {GRANULARITIES}")
        if self.gradient_estimator not in ESTIMATORS:
            raise ValueError(f"gradient_estimator must be one of {ESTIMATORS}")
        if self.finetune_rep not in ("full", "frozen"):
            raise ValueError("finetune_rep must be 'full' or 'frozen'")
        if self.optimizer not in ("sgd", "adam"):
            raise ValueError("optimizer must be 'sgd' or 'adam'")
        if self.weighted and self.paradigm == "single":
            raise ValueError("adaptive weighting needs a multi-task paradigm, got 'single'")
        if self.weighted and self.weight_granularity == "sample" and self.paradigm != "pretrain":
            raise ValueError("sample-granularity weighting supports the pretrain paradigm only")
        if (self.paradigm == "single") != (n_sources == 0):
            raise ValueError(
                f"paradigm {self.paradigm!r} with {n_sources} sources: 'single' takes no "
                "sources, every other paradigm at least one"
            )
        if self.weighted and self.weight_granularity == "sample" and n_sources != 1:
            raise ValueError(
                f"sample-granularity weighting needs exactly one source, got {n_sources}"
            )
        if self.sample_split is not None and self.paradigm != "pretrain":
            raise ValueError("sample_split applies to the pretrain paradigm only")
        positive = ("c", "identity_hessian_scale", "subset_size", "epochs", "batch_size", "hidden")
        for name in positive:
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")
        for name in ("eta", "lr", "weight_floor"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be nonnegative")
        if self.weight_update_period is not None and self.weight_update_period < 1:
            raise ValueError("weight_update_period must be >= 1")
        if self.finetune_epochs is not None and self.finetune_epochs < 0:
            raise ValueError("finetune_epochs must be >= 0")
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
class FamilyConfig:
    """The synthetic task family that `generate` caches and `distance` redraws."""

    base_n: int = 200
    input_dim: int = 20
    n_classes: int = 10
    teacher_hidden: int = 256
    teacher_epochs: int = 400
    # At desk scale a 200-example base gives 2 minibatches per epoch, so the
    # teacher lr runs hotter than the students'; interpolation then lands
    # near epoch 85 instead of needing thousands.
    teacher_lr: float = 3e-3
    teacher_batch: int = 100
    teacher_accuracy_threshold: float = 1.0
    flip_grid: list[float] = field(default_factory=lambda: [0.0])
    source_n: int = 2000
    target_sizes: list[int] = field(default_factory=lambda: [100])
    eval_n: int = 1000

    def validate(self) -> None:
        """Every range rule of a family: positive counts, nonempty lists
        without repeats, flip rates in [0, 1] that each name one source file and
        one stream key, a teacher threshold in (0, 1] and a teacher lr >= 0."""
        for name in ("base_n", "input_dim", "n_classes", "teacher_hidden", "teacher_epochs",
                     "teacher_batch", "source_n", "eval_n"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be a positive integer, got {getattr(self, name)!r}")
        sizes, grid = self.target_sizes, self.flip_grid
        if not sizes or min(sizes) <= 0 or len(set(sizes)) < len(sizes):
            raise ValueError(f"target_sizes must be nonempty, positive and distinct, got {sizes}")
        if not grid or not all(0.0 <= q <= 1.0 for q in grid):
            raise ValueError(f"flip_grid must be nonempty rates in [0, 1], got {grid}")
        # Each rate names its source file (source_name) and its summary.csv flip_rate,
        # both {q:g}, and keys its teacher, source draw and distance estimator (flip_key).
        if not len({f"{q:g}" for q in grid}) == len({flip_key(q) for q in grid}) == len(grid):
            raise ValueError(f"flip_grid must hold rates distinct as {{q:g}} and at "
                             f"four decimals (flip_key), got {grid}")
        if not 0.0 < self.teacher_accuracy_threshold <= 1.0:
            raise ValueError("teacher_accuracy_threshold must lie in (0, 1]")
        if self.teacher_lr < 0:
            raise ValueError("teacher_lr must be nonnegative")

    def fit_teachers(self, teacher_seed: int, rng: Rng) -> dict:
        """One teacher per flip rate (and q = 0), all fit with this family's recipe."""
        recipe = TrainConfig(
            optimizer="adam", lr=self.teacher_lr, batch_size=self.teacher_batch,
            epochs=self.teacher_epochs,
        )
        return fit_family_teachers(
            self.flip_grid, self.base_n, self.input_dim, self.n_classes, self.teacher_hidden,
            teacher_seed, rng, recipe, threshold=self.teacher_accuracy_threshold,
        )


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
    notes: list[str] = field(default_factory=list)

    def add_weight_snapshot(self, step: int, w: SimplexWeights) -> None:
        self.weight_steps.append({"step": step, "weights": [float(x) for x in w.values]})

    def to_json(self) -> str:
        return json.dumps(vars(self), indent=2)  # asdict would deep-copy every snapshot

    def write_metrics_csv(self, path) -> None:
        rows = ([entry["epoch"], task, loss, entry["target_accuracy"]]
                for entry in self.epoch_metrics for task, loss in entry["losses"].items())
        write_csv(path, ["epoch", "task", "loss", "target_acc"], rows)

    def write_weights_csv(self, path) -> None:
        write_trajectory(path, [(snap["step"], snap["weights"]) for snap in self.weight_steps])


def atomic_write_text(path, text: str) -> None:
    """Write text to path through a sibling temp file and os.replace, so a
    reader sees the old file or the whole new one, never a partial write."""
    tmp = f"{path}.tmp"
    with open(tmp, "w", newline="") as fh:
        fh.write(text)
    os.replace(tmp, path)


def write_csv(path, header, rows, lineterminator: str = "\n") -> None:
    """The one CSV writer: header and rows through csv.writer, each float as
    float_repr17, the file replaced whole (atomic_write_text). Every table
    ends its lines in LF but distance.csv, which keeps csv.writer's CRLF."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator=lineterminator)
    writer.writerow(header)
    writer.writerows([float_repr17(x) if isinstance(x, float) else x for x in row] for row in rows)
    atomic_write_text(path, buf.getvalue())


def write_trajectory(path, snapshots) -> None:
    """A weight trajectory as step,w_0..w_T: one row per (step, weights)
    snapshot; the first snapshot sets the width."""
    header = ["step"] + [f"w_{i}" for i in range(len(snapshots[0][1]))]
    write_csv(path, header, ([step, *weights] for step, weights in snapshots))


def evaluate(model: SharedModel, task_id: str, data: Dataset) -> EvalResult:
    """Accuracy (argmax, ties to lowest class) and mean loss on a dataset."""
    if data.n == 0:
        raise EmptyBatchError("evaluate over an empty dataset")
    return EvalResult(*accuracy_and_loss(model, task_id, data))


def split_size(n: int, fraction: float) -> int:
    """|B1| = round(fraction * n) of a split of n examples; ValueError if
    either part would be empty."""
    n1 = round_half_up(fraction * n)
    if n1 == 0 or n1 == n:
        raise ValueError(f"split of {n} examples at fraction {fraction} leaves a part empty")
    return n1


def split_target(target: Dataset, fraction: float, rng: Rng) -> tuple[Dataset, Dataset]:
    """Disjoint partition of the target data; |B1| = split_size(n, fraction)."""
    if not 0.0 < fraction < 1.0:
        raise ValueError(f"fraction must lie strictly inside (0, 1), got {fraction}")
    n1 = split_size(target.n, fraction)
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


def default_initial_weights(cfg: TrainConfig, sources, target: Dataset) -> SimplexWeights:
    """Paradigm-default starting weights, one per objective task: proportional
    to sample size, except uniform for normalized_joint. The target leads
    unless the paradigm is pretrain, so single gets the target alone, [1.0].
    Weighted sample granularity puts a uniform weight on each example of
    the single source."""
    if cfg.weighted and cfg.weight_granularity == "sample":
        return init_weights("uniform", np.ones(sources[0].n))
    sizes = [s.n for s in sources]
    if cfg.paradigm != "pretrain":
        sizes.insert(0, target.n)
    return init_weights("uniform" if cfg.paradigm == "normalized_joint" else "proportional", sizes)


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
                scale = {"loss_scale": w[pos]}
            steps.append((task_id, data, idx, scale))
    if not steps:
        return
    for si in streams.get("interleave").permutation(len(steps)):
        task_id, data, idx, scale = steps[si]
        train_step(model, task_id, data.features[idx], data.labels[idx], opt, **scale)


def _head_only_epoch(model, task_id, data, cfg, opt, rng):
    """One epoch of minibatch steps on one head over the frozen representation.
    The head's slot is created before hidden_batches' buffer (see OptimizerState.slot)."""
    if data.n == 0:
        return
    head = model.head(task_id)
    key = f"head.{task_id}"
    grad = opt.slot(key, head.params).grad
    dW2, db2 = grad[: head.W2.size].reshape(head.W2.shape), grad[head.W2.size :]
    order = rng.permutation(data.n)
    for idx, Hb in hidden_batches(model, data.features, order, cfg.batch_size):
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
    with the target subset instead. exact_hessian is the identity-Hessian
    inner product taken against s = H_w^{-1} g0 in place of scale * g0.
    """
    g0 = rep_gradient_flat(
        model, TARGET_TASK_ID, target_data, cfg.subset_size, streams.get("subset", "__target__")
    )
    s = g0
    if cfg.gradient_estimator == "exact_hessian":
        s = _inverse_hessian_product(model, entries, w, g0)
    if cfg.weight_granularity == "sample":
        return _per_sample_gradients(model, entries[0][1], s, cfg)
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
        if cfg.gradient_estimator == "cosine":
            g[pos] = cosine_task_gradient(s, gt, cfg.c)
        else:
            g[pos] = identity_hessian_task_gradient(s, gt, _inner_product_scale(cfg))
    return g


def _inner_product_scale(cfg) -> float:
    """1 for exact_hessian, whose g0 is already s = H_w^{-1} g0."""
    return 1.0 if cfg.gradient_estimator == "exact_hessian" else cfg.identity_hessian_scale


def _inverse_hessian_product(model, entries, w, g0, ridge=None) -> np.ndarray:
    """s = H_w^{-1} g0 by one CG solve, H_w the exact representation Hessian of
    the weighted objective: coefficient w_t / n_t on each row of task t, or at
    sample granularity w_i on row i of the single source."""
    if len(w) != len(entries):
        ((task_id, data),) = entries
        parts = [(task_id, data.features, data.labels, w.values)]
    else:
        parts = [
            (task_id, data.features, data.labels, w_t / data.n)
            for (task_id, data), w_t in zip(entries, w.values)
            if w_t != 0.0 and data.n
        ]
    H = RepHessian(model, parts)
    return hessian_cg_solve(H.matvec, g0, H.trace(), ridge)


def _per_sample_gradients(model, source, g0, cfg) -> np.ndarray:
    """Weight gradient per source example against the target subset gradient.

    Every estimator reads the per-example gradient blocks of
    model.example_rep_grads once, in row order: the identity and exact
    Hessians take <g0, g_i> (g0 already s = H_w^{-1} g0 for the exact one),
    and the cosine also |g_i|. Each is a stacked matmul over the block,
    (rows, 1, p) @ (p,), whose C loop makes one BLAS ddot per row, the same
    call as the task-level estimators make, so the weights match a
    per-example loop bit for bit.
    """
    cosine = cfg.gradient_estimator == "cosine"
    dots, sq_norms = np.empty(source.n), np.empty(source.n)
    for rows, G in example_rep_grads(model, source.task_id, source.features, source.labels):
        np.matmul(G[:, None, :], g0, out=dots[rows, None])
        if cosine:
            np.matmul(G[:, None, :], G[:, :, None], out=sq_norms[rows, None, None])
    if cosine:
        return cosine_example_gradients(dots, np.linalg.norm(g0), np.sqrt(sq_norms), cfg.c)
    return -_inner_product_scale(cfg) * dots


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


def _train_weighted_phase(model, entries, w0, cfg, streams, record, fit_target, eval_data):
    """The shared rep-learning loop behind every paradigm.

    Runs cfg.epochs epochs, under pretrain each with a head-only epoch on
    fit_target; every weight_update_period epochs closes one outer round,
    recording a weight snapshot (and, when cfg.weighted is set, taking one
    mirror-descent step first, its target gradient from fit_target). The
    adaptive and fixed-weight variants are the same code path, so an
    adaptive run with eta = 0 is bitwise identical to its fixed-weight one.
    """
    opt = OptimizerState(kind=cfg.optimizer, lr=cfg.lr)
    period = cfg.resolved_weight_update_period()
    w = w0
    record.add_weight_snapshot(0, w)
    for epoch in range(cfg.epochs):
        _weighted_epoch(model, entries, w, cfg, opt, streams)
        if cfg.paradigm == "pretrain":
            _head_only_epoch(
                model, TARGET_TASK_ID, fit_target, cfg, opt, streams.get("head-shuffle")
            )
        _record_epoch(
            record, model, entries, eval_data, epoch, "rep",
            cfg, final=epoch == cfg.epochs - 1,
        )
        if (epoch + 1) % period == 0:
            if cfg.weighted:
                g = _estimate_task_gradients(model, entries, w, fit_target, cfg, streams)
                w = _apply_floor(w, g, cfg, record, epoch + 1)
            record.add_weight_snapshot(epoch + 1, w)


def _finetune_phase(model, data, cfg, streams, record, eval_data):
    """Pretrain phase 2: fit the target on its own data, full or frozen rep;
    its epochs are numbered on from the cfg.epochs of phase 1.

    A frozen representation is fit head-only, each minibatch's hidden rows
    recomputed when the batch needs them: no (n, hidden) matrix is held.
    """
    epochs = cfg.resolved_finetune_epochs()
    opt = OptimizerState(kind=cfg.optimizer, lr=cfg.lr)
    entries = [(TARGET_TASK_ID, data)]
    w_one = SimplexWeights(np.ones(1))
    for epoch in range(epochs):
        if cfg.finetune_rep == "frozen":
            _head_only_epoch(
                model, TARGET_TASK_ID, data, cfg, opt, streams.get("finetune-shuffle")
            )
        else:
            _weighted_epoch(model, entries, w_one, cfg, opt, streams)
        _record_epoch(
            record, model, entries, eval_data, cfg.epochs + epoch, "finetune", cfg,
            final=epoch == epochs - 1,
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


def _train(sources, target, cfg, eval_data, w0):
    """The one driver behind every entry point; cfg alone decides the run.

    The pretrain paradigm puts only the sources in the weighted objective,
    adds one head-only target step per epoch and ends with the fine-tune
    phase; every other paradigm puts the target in the objective at index
    0. cfg.weighted turns on the mirror-descent weight steps. w0 None picks
    default_initial_weights. cfg.sample_split partitions the target for
    pretrain, weighted or not, so eta = 0 stays bitwise the fixed-weight run.
    """
    cfg.validate(len(sources))
    pretrain, adapt = cfg.paradigm == "pretrain", cfg.weighted
    sources, target = _normalize_tasks(sources, target)
    started = time.perf_counter()
    eval_data = eval_data or target
    streams = _Streams(cfg.seed)
    fit_target, tune_target = target, target
    if cfg.sample_split is not None:
        fit_target, tune_target = split_target(target, cfg.sample_split, streams.get("split"))

    entries = [(s.task_id, s) for s in sources]
    if not pretrain:
        entries.insert(0, (TARGET_TASK_ID, target))
    if adapt and cfg.weight_granularity == "sample":
        weight_ids = [f"{sources[0].task_id}[{i}]" for i in range(sources[0].n)]
    else:
        weight_ids = [task_id for task_id, _ in entries]
    if w0 is None:
        w0 = default_initial_weights(cfg, sources, target)
    if len(w0) != len(weight_ids):
        raise ValueError(f"{len(w0)} weights for {len(weight_ids)} objective tasks")

    model = _build_model(sources, target, cfg)
    record = RunRecord(config=asdict(cfg), weight_task_ids=weight_ids)
    _train_weighted_phase(model, entries, w0, cfg, streams, record, fit_target, eval_data)
    if pretrain:
        _finetune_phase(model, tune_target, cfg, streams, record, eval_data)
    record.wall_clock = time.perf_counter() - started
    return model, record


def train_single_task(target: Dataset, cfg: TrainConfig, eval_data: Dataset | None = None):
    """Train representation + one head on the target data alone.

    This is the joint objective with no sources and the target's weight at 1.
    """
    if target.n == 0:
        raise EmptyBatchError("cannot train on an empty target dataset")
    return _train([], target, replace(cfg, paradigm="single", weighted=False), eval_data, None)


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
    cfg = replace(cfg, paradigm="pretrain", weighted=False)
    return _train(sources, target, cfg, eval_data, weights)


def joint_train(
    sources,
    target: Dataset,
    weights_with_target: SimplexWeights,
    cfg: TrainConfig,
    eval_data: Dataset | None = None,
):
    """Simultaneous fixed-weight optimization over target + sources.

    The weight vector carries the target at index 0. The normalized_joint
    paradigm differs from joint only in its default weights, and this
    function is always given weights, so it runs (and records) joint.
    """
    cfg = replace(cfg, paradigm="joint", weighted=False)
    return _train(sources, target, cfg, eval_data, weights_with_target)


def tawt(
    sources,
    target: Dataset,
    cfg: TrainConfig,
    eval_data: Dataset | None = None,
    initial_weights: SimplexWeights | None = None,
):
    """Train any arm that cfg.validate accepts; cfg alone decides how.

    With cfg.weighted set, each outer round is: (i) SGD epochs on the
    weight-scaled objective (sources, plus the target unless pretraining);
    (ii) for pretrain, head-only SGD on the target; (iii) each task's weight
    gradient from subset gradient alignment; (iv) one mirror-descent step.
    With cfg.weighted off the weight step is skipped, which makes tawt the
    fixed-weight single, pretrain, joint or normalized_joint run. The full
    weight trajectory lands in the RunRecord. With sample granularity
    (pretrain, one source) the weights live on the examples of that source
    instead. initial_weights replaces default_initial_weights and must
    have one entry per weight.

    With cfg.sample_split set (pretrain only), the target data is
    partitioned once: part one drives the head-fit and estimation steps,
    part two the final fine-tune.
    """
    return _train(sources, target, cfg, eval_data, initial_weights)
