"""Span tracer that wraps tawt_lab's public functions from outside src/.

Each wrapped call opens a span. On exit its duration is charged to the
parent span's child time, and its self time (duration minus the child
spans it enclosed) is added to per-name totals. Spans are aggregated as
they close instead of being kept one by one, so a traced run that makes
~10^5 kernel calls stays small. Nothing under src/ changes: the wrappers
are installed on the module objects, at the defining module and at every
module that bound the same function with `from .x import name`.
"""

from __future__ import annotations

import functools
import hashlib
import math
import os
import time
from types import ModuleType

_clock = time.perf_counter


class Tracer:
    """Per-name span totals, parent->child edge totals and plain counters."""

    def __init__(self):
        self.spans: dict[str, list] = {}   # name -> [calls, total_s, self_s]
        self.edges: dict[str, list] = {}   # "parent>child" -> [calls, total_s]
        self.counts: dict[str, float] = {}
        self.negative_self = 0             # spans whose children outlasted them
        self._stack: list[list] = []       # open spans: [name, child_s]

    def add(self, name: str, value: float) -> None:
        self.counts[name] = self.counts.get(name, 0) + value

    def wrap(self, name: str, fn, after=None):
        """fn inside a span called `name`; after(tracer, args, kwargs) runs
        once the span has closed, so its own cost is not charged to it."""
        stack = self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = [name, 0.0]
            stack.append(frame)
            start = _clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = _clock() - start
                stack.pop()
                self._close(name, duration, frame[1])
            if after is not None:
                after(self, args, kwargs)
            return result

        return traced

    def _close(self, name: str, duration: float, child_s: float) -> None:
        self_s = duration - child_s
        if self_s < 0.0:
            self.negative_self += 1
        entry = self.spans.setdefault(name, [0, 0.0, 0.0])
        entry[0] += 1
        entry[1] += duration
        entry[2] += self_s
        parent = self._stack[-1] if self._stack else None
        if parent is not None:
            parent[1] += duration
        edge = self.edges.setdefault(f"{parent[0] if parent else ''}>{name}", [0, 0.0])
        edge[0] += 1
        edge[1] += duration

    def snapshot(self) -> dict:
        return {
            "spans": {k: list(v) for k, v in self.spans.items()},
            "edges": {k: list(v) for k, v in self.edges.items()},
            "counts": dict(self.counts),
            "negative_self": self.negative_self,
        }


def _backward_flops(tracer, args, kwargs):
    # Computed, not measured: the five matmuls of forward + backward,
    # 2*n*h*d (X W1^T) + 2*n*h*k (H W2^T) + 2*n*k*h (dZ^T H) + 2*n*k*h
    # (dZ W2) + 2*n*h*d (dA^T X). Elementwise work is left out.
    model, task_id, X = args[0], args[1], args[2]
    n, d = X.shape
    h = model.W1.shape[0]
    k = model.heads[task_id].W2.shape[0]
    tracer.add("model.backward_arrays.flop", 4 * n * h * d + 6 * n * h * k)


def _teacher_budget(tracer, args, kwargs):
    data, cfg = args[0], args[2]
    tracer.add("taskgen.fit_teacher.budget_steps", cfg.epochs * math.ceil(data.n / cfg.batch_size))


def _saved_bytes(tracer, args, kwargs):
    tracer.add("taskgen.save_dataset_csv.bytes", os.path.getsize(args[1]))


def _loaded_bytes(tracer, args, kwargs):
    tracer.add("taskgen.load_dataset_csv.bytes", os.path.getsize(args[0]))


# (span name, defining module, function, hook run after each call)
SPANS = [
    ("model.backward_arrays", "model", "backward_arrays", _backward_flops),
    ("model.apply_update", "model", "apply_update", None),
    ("model.rep_gradient_flat", "model", "rep_gradient_flat", None),
    ("model.eval", "model", "predictions", None),
    ("model.eval", "model", "task_loss", None),
    ("model.eval", "model", "logits_batch", None),
    ("numerics.softmax_rows", "numerics", "softmax_rows", None),
    ("numerics.cosine_similarity", "numerics", "cosine_similarity", None),
    ("taskgen.fit_teacher", "taskgen", "fit_teacher", _teacher_budget),
    ("taskgen.save_dataset_csv", "taskgen", "save_dataset_csv", _saved_bytes),
    ("taskgen.load_dataset_csv", "taskgen", "load_dataset_csv", _loaded_bytes),
    ("taskgen.sample_task_data", "taskgen", "sample_task_data", None),
    ("weighting.cosine_task_gradient", "weighting", "cosine_task_gradient", None),
    ("weighting.mirror_descent_step", "weighting", "mirror_descent_step", None),
    ("training", "training", "train_single_task", None),
    ("training", "training", "pretrain_then_finetune", None),
    ("training", "training", "joint_train", None),
    ("training", "training", "tawt", None),
    ("distance.estimate_weighted_source_target_risk", "distance",
     "estimate_weighted_source_target_risk", None),
    ("distance.estimate_oracle_target_risk", "distance", "estimate_oracle_target_risk", None),
    ("distance.distance_curve", "distance", "distance_curve", None),
    ("harness.cmd_generate", "harness", "cmd_generate", None),
    ("harness.cmd_run", "harness", "cmd_run", None),
    ("harness.cmd_distance", "harness", "cmd_distance", None),
]

RECORD_WRITERS = ("to_json", "write_metrics_csv", "write_weights_csv")


class _CountingHashlib(ModuleType):
    """Stands in for `hashlib` inside a tawt_lab module; counts bytes hashed."""

    def __init__(self, tracer: Tracer):
        super().__init__("hashlib")
        self._tracer = tracer

    def __getattr__(self, name):
        return getattr(hashlib, name)

    def sha256(self, data=b"", **kwargs):
        self._tracer.add("harness.hash_bytes", len(data))
        return hashlib.sha256(data, **kwargs)


def install(tracer: Tracer) -> None:
    """Wrap every SPANS function wherever a tawt_lab module binds it."""
    import tawt_lab
    from tawt_lab import distance, harness, model, numerics, taskgen, training, weighting

    modules = {
        "model": model, "numerics": numerics, "taskgen": taskgen, "weighting": weighting,
        "training": training, "distance": distance, "harness": harness,
    }
    sites = list(modules.values()) + [tawt_lab]
    for name, home, attr, after in SPANS:
        original = getattr(modules[home], attr)
        traced = tracer.wrap(name, original, after)
        for module in sites:
            if getattr(module, attr, None) is original:
                setattr(module, attr, traced)
    for attr in RECORD_WRITERS:
        setattr(training.RunRecord, attr,
                tracer.wrap("training.record_write", getattr(training.RunRecord, attr)))
    for module in sites:
        if getattr(module, "hashlib", None) is hashlib:
            module.hashlib = _CountingHashlib(tracer)
