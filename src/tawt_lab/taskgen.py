"""Synthetic teacher-student task family.

Pipeline: draw a base dataset with uniform features on [-0.5, 0.5]^d and
uniform labels, resample a q-fraction of the labels ("flip rate" q), fit an
interpolating two-layer teacher network on each flipped variant, then label
fresh uniform inputs with each teacher's argmax to define one task per flip
rate. The flip rate controls how far a source task sits from the q = 0
target task: at q = 0 the source shares the target's label function, at
q = 1 it comes from a teacher fit to fully resampled labels.

Every teacher for flip rate q derives its seeds from hash64(seed,
flip_key(q)), so teachers for different flip rates can be fit
independently (or in parallel) without perturbing one another.
"""

from __future__ import annotations

import math
import os
import warnings
import zipfile
from dataclasses import dataclass

import numpy as np

from .model import OptimizerState, SharedModel, init_model, predictions, train_step
from .numerics import DimensionError, Rng, hash64

TEACHER_TASK_ID = "teacher"
TARGET_TASK_ID = "target"


def flip_key(q: float) -> int:
    """q to four decimals, as an integer: the key of flip rate q's teacher,
    source draw and distance estimator streams."""
    return round(q * 10000)


def source_name(q: float) -> str:
    """Flip rate q's source: its task id, and its family file's stem."""
    return f"source_q{q:g}"


class FitFailureError(RuntimeError):
    """A teacher failed to reach the required training accuracy."""


@dataclass
class Dataset:
    features: np.ndarray  # (n, d) float64 in [-0.5, 0.5]
    labels: np.ndarray    # (n,) int64 in [0, n_classes)
    n_classes: int
    task_id: str

    def __post_init__(self):
        self.features = np.ascontiguousarray(self.features, dtype=np.float64)
        self.labels = np.ascontiguousarray(self.labels, dtype=np.int64)
        if self.features.ndim != 2:
            raise DimensionError(f"features must be (n, d), got {self.features.shape}")
        if self.labels.ndim != 1 or self.labels.shape[0] != self.features.shape[0]:
            raise DimensionError("labels must pair up with feature rows")
        if self.n_classes <= 0:
            raise ValueError("n_classes must be positive")
        if self.labels.size and (
            self.labels.min() < 0 or self.labels.max() >= self.n_classes
        ):
            raise ValueError(f"labels must lie in [0, {self.n_classes})")

    @property
    def n(self) -> int:
        return self.features.shape[0]

    @property
    def input_dim(self) -> int:
        return self.features.shape[1]

    def take(self, n: int) -> "Dataset":
        """First n examples (nested subsets for size sweeps)."""
        if not 0 <= n <= self.n:
            raise ValueError(f"asked for {n} of {self.n} examples")
        return Dataset(
            self.features[:n].copy(), self.labels[:n].copy(), self.n_classes, self.task_id
        )


@dataclass(frozen=True)
class TaskSpec:
    flip_rate: float
    n_examples: int
    input_dim: int
    n_classes: int
    teacher_hidden_width: int
    seed: int

    def __post_init__(self):
        if not 0.0 <= self.flip_rate <= 1.0:
            raise ValueError(f"flip_rate must be in [0, 1], got {self.flip_rate}")
        for name in ("n_examples", "input_dim", "n_classes", "teacher_hidden_width"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")


def round_half_up(x: float) -> int:
    return int(math.floor(x + 0.5))


def generate_base_dataset(n: int, d: int, k: int, rng: Rng, task_id: str = "base") -> Dataset:
    """n examples with uniform features on [-0.5, 0.5]^d and uniform labels.

    The label distribution before flipping is an assumption of this
    generator, not a property inherited from anywhere else.
    """
    if n <= 0 or d <= 0 or k <= 0:
        raise ValueError("n, d, k must all be positive")
    features = rng.uniform(-0.5, 0.5, size=(n, d))
    labels = rng.integers(0, k, size=n)
    return Dataset(features, labels, k, task_id)


def flip_labels(base: Dataset, q: float, rng: Rng) -> Dataset:
    """Resample exactly round(q*n) distinct labels uniformly over all classes.

    A resampled label may coincide with the original, so the expected
    fraction of labels actually changed is q * (1 - 1/k).
    """
    if not 0.0 <= q <= 1.0:
        raise ValueError(f"flip rate must be in [0, 1], got {q}")
    labels = base.labels.copy()
    n_flip = round_half_up(q * base.n)
    if n_flip > 0:
        idx = rng.subset(base.n, n_flip)
        labels[idx] = rng.integers(0, base.n_classes, size=n_flip)
    return Dataset(base.features.copy(), labels, base.n_classes, f"{base.task_id}-flip{q:g}")


def teacher_accuracy(teacher: SharedModel, data: Dataset) -> float:
    return float(np.mean(predictions(teacher, TEACHER_TASK_ID, data.features) == data.labels))


def fit_teacher(data: Dataset, spec: TaskSpec, cfg, threshold: float = 1.0) -> SharedModel:
    """Fit a two-layer teacher until it interpolates its training data.

    Trains with cfg's optimizer, lr, batch_size and epochs, and stops at the
    first epoch whose training accuracy reaches threshold (1.0 by default,
    i.e. interpolation). Raises FitFailureError if the threshold is still
    unmet after cfg.epochs epochs; callers may retry with a wider hidden
    layer or a larger epoch budget.
    """
    if data.n == 0:
        raise ValueError("cannot fit a teacher on an empty dataset")
    model = init_model(
        data.input_dim,
        spec.teacher_hidden_width,
        {TEACHER_TASK_ID: data.n_classes},
        seed=hash64(spec.seed, "teacher-init"),
    )
    shuffle = Rng(hash64(spec.seed, "teacher-shuffle"))
    opt = OptimizerState(kind=cfg.optimizer, lr=cfg.lr)
    for _ in range(cfg.epochs):
        order = shuffle.permutation(data.n)
        for start in range(0, data.n, cfg.batch_size):
            idx = order[start : start + cfg.batch_size]
            train_step(model, TEACHER_TASK_ID, data.features[idx], data.labels[idx], opt)
        if teacher_accuracy(model, data) >= threshold:
            return model
    raise FitFailureError(
        f"teacher for {data.task_id!r} reached "
        f"{teacher_accuracy(model, data):.4f} accuracy after {cfg.epochs} epochs "
        f"(threshold {threshold})"
    )


def sample_task_data(teacher: SharedModel, n: int, d: int, rng: Rng, task_id: str) -> Dataset:
    """Fresh uniform inputs labeled by the teacher's argmax (ties to lowest)."""
    if teacher.input_dim != d:
        raise DimensionError(f"teacher expects dimension {teacher.input_dim}, got {d}")
    k = teacher.head(TEACHER_TASK_ID).n_classes
    if n == 0:
        return Dataset(np.empty((0, d)), np.empty(0, dtype=np.int64), k, task_id)
    features = rng.uniform(-0.5, 0.5, size=(n, d))
    labels = predictions(teacher, TEACHER_TASK_ID, features)
    return Dataset(features, labels, k, task_id)


def fit_family_teachers(
    flip_grid, base_n: int, d: int, k: int, width: int, teacher_seed: int, rng: Rng, cfg,
    threshold: float = 1.0,
) -> dict[float, SharedModel]:
    """One teacher per flip rate in flip_grid, plus q = 0, each fit by
    fit_teacher(cfg, threshold).

    Every teacher is fit on a flip of one base dataset drawn from
    rng.spawn("base"). The teacher for q is seeded from
    hash64(teacher_seed, flip_key(q)) alone, so it is the same whatever
    else the grid holds. Callers draw task data from the teachers under their
    own stream keys.
    """
    base = generate_base_dataset(base_n, d, k, rng.spawn("base"))
    teachers: dict[float, SharedModel] = {}
    for q in sorted(set(flip_grid) | {0.0}):
        seed = hash64(teacher_seed, flip_key(q))
        flipped = flip_labels(base, q, Rng(seed).spawn("flip"))
        teachers[q] = fit_teacher(
            flipped, TaskSpec(q, base_n, d, k, width, seed), cfg, threshold=threshold
        )
    return teachers


def save_dataset(dataset: Dataset, path) -> None:
    """Uncompressed .npz archive of features (n, d) float64, labels (n,)
    int64 and n_classes, written to path as given: byte for byte np.savez's,
    each member the .npy header then the array's own buffer, without the
    whole-array copy np.savez makes.

    load_dataset gives back the same bits, -0.0 and subnormals included.
    The members carry zipfile's fixed default timestamp, so equal datasets
    give equal bytes.
    """
    arrays = {"features": dataset.features, "labels": dataset.labels,
              "n_classes": np.asarray(dataset.n_classes, dtype=np.int64)}
    with zipfile.ZipFile(path, "w", zipfile.ZIP_STORED, allowZip64=True) as zf:
        for name, arr in arrays.items():
            with zf.open(f"{name}.npy", "w", force_zip64=True) as member:
                header = np.lib.format.header_data_from_array_1_0(arr)
                np.lib.format.write_array_header_1_0(member, header)
                member.write(arr.reshape(-1).view(np.uint8))


def load_dataset(path, task_id: str | None = None) -> Dataset:
    """Read a save_dataset file (np.load, pickled objects refused)."""
    with np.load(path, allow_pickle=False) as arrays:
        try:
            features, labels = arrays["features"], arrays["labels"]
            n_classes = int(arrays["n_classes"])
        except KeyError as exc:
            raise ValueError(f"{path}: {exc.args[0]}") from None
    if task_id is None:
        task_id = os.path.splitext(os.path.basename(str(path)))[0]
    return Dataset(features, labels, n_classes, task_id)


def save_dataset_csv(dataset: Dataset, path) -> None:
    """Flat CSV layout: header row (n, d, k), then d feature columns + label.

    Features are written as 17-significant-digit decimals (float_repr17) and
    every line ends in CRLF: byte for byte what csv.writer emits. An export
    format; the harness caches task families with save_dataset.
    """
    line = ",".join(["%.17g"] * dataset.input_dim + ["%d"]) + "\r\n"
    with open(path, "w", newline="") as fh:
        fh.write(f"{dataset.n},{dataset.input_dim},{dataset.n_classes}\r\n")
        fh.writelines(
            line % (*row.tolist(), label)
            for row, label in zip(dataset.features, dataset.labels.tolist())
        )


def load_dataset_csv(path, task_id: str | None = None) -> Dataset:
    """Read a save_dataset_csv file; the row count must match the header's n."""
    with open(path, "rb") as fh:  # numpy parses raw bytes faster than decoded text
        n, d, k = (int(x) for x in fh.readline().split(b","))
        try:
            with warnings.catch_warnings():  # a header-only file is a valid n = 0 set
                warnings.filterwarnings("ignore", "loadtxt: input contained no data")
                table = np.loadtxt(
                    fh, delimiter=",", dtype=[("x", "f8", (d,)), ("y", "i8")],
                    comments=None, ndmin=1,
                )
        except ValueError as exc:
            raise ValueError(f"{path}: {exc}") from None
    if table.shape[0] != n:
        raise ValueError(f"{path}: header declares {n} rows, file has {table.shape[0]}")
    if task_id is None:
        task_id = os.path.splitext(os.path.basename(str(path)))[0]
    return Dataset(np.ascontiguousarray(table["x"]), table["y"], k, task_id)
