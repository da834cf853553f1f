"""Two-layer shared-representation network with one linear head per task.

    logits = W2 @ relu(W1 @ x + b1) + b2

The body (W1, b1) is the shared representation; each task owns its last
linear layer (W2, b2). Forward and backward passes are hand-derived;
relu'(0) := 0. Two optimizers (SGD and bias-corrected Adam) operate on
flat lists of parameter arrays keyed by name, so parameter groups can be
updated independently and sparsely.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field

import numpy as np

from .numerics import LOG_EPS, DimensionError, NumericError, Rng, hash64, softmax_rows


class EmptyBatchError(ValueError):
    """An operation that needs at least one example received none."""


@dataclass
class Head:
    W2: np.ndarray  # (k, hidden)
    b2: np.ndarray  # (k,)

    @property
    def n_classes(self) -> int:
        return self.W2.shape[0]

    def copy(self) -> "Head":
        return Head(self.W2.copy(), self.b2.copy())


@dataclass
class SharedModel:
    W1: np.ndarray  # (hidden, d)
    b1: np.ndarray  # (hidden,)
    heads: dict[str, Head]

    @property
    def input_dim(self) -> int:
        return self.W1.shape[1]

    @property
    def hidden_dim(self) -> int:
        return self.W1.shape[0]

    def head(self, task_id: str) -> Head:
        try:
            return self.heads[task_id]
        except KeyError:
            raise KeyError(
                f"unknown task_id {task_id!r}; model has {sorted(self.heads)}"
            ) from None

    def copy(self) -> "SharedModel":
        return SharedModel(
            self.W1.copy(),
            self.b1.copy(),
            {tid: h.copy() for tid, h in self.heads.items()},
        )

    def rep_param_count(self) -> int:
        return self.W1.size + self.b1.size

    def rep_flat(self) -> np.ndarray:
        return np.concatenate([self.W1.ravel(), self.b1])

    def set_rep_flat(self, flat: np.ndarray) -> None:
        flat = np.asarray(flat, dtype=np.float64)
        if flat.size != self.rep_param_count():
            raise DimensionError(
                f"expected {self.rep_param_count()} representation values, got {flat.size}"
            )
        self.W1 = flat[: self.W1.size].reshape(self.W1.shape).copy()
        self.b1 = flat[self.W1.size :].copy()

    def head_flat(self, task_id: str) -> np.ndarray:
        h = self.head(task_id)
        return np.concatenate([h.W2.ravel(), h.b2])

    def set_head_flat(self, task_id: str, flat: np.ndarray) -> None:
        h = self.head(task_id)
        flat = np.asarray(flat, dtype=np.float64)
        if flat.size != h.W2.size + h.b2.size:
            raise DimensionError("head parameter count mismatch")
        h.W2 = flat[: h.W2.size].reshape(h.W2.shape).copy()
        h.b2 = flat[h.W2.size :].copy()


@dataclass
class GradSnapshot:
    rep_grad: np.ndarray   # flattened over (W1, b1)
    head_grad: np.ndarray  # flattened over (W2, b2)
    task_id: str


def _glorot(rng: Rng, fan_out: int, fan_in: int) -> np.ndarray:
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=(fan_out, fan_in))


def init_model(input_dim: int, hidden_dim: int, head_dims: dict[str, int], seed: int) -> SharedModel:
    """Uniform Glorot weights, zero biases.

    Every head draws from its own seed stream so that adding or removing a
    task never perturbs the initialization of the others.
    """
    if input_dim <= 0 or hidden_dim <= 0:
        raise DimensionError("input_dim and hidden_dim must be positive")
    rep_rng = Rng(hash64(seed, "rep-init"))
    W1 = _glorot(rep_rng, hidden_dim, input_dim)
    b1 = np.zeros(hidden_dim)
    heads = {}
    for task_id, k in head_dims.items():
        if k <= 0:
            raise DimensionError(f"head {task_id!r} needs a positive class count")
        head_rng = Rng(hash64(seed, "head-init", task_id))
        heads[task_id] = Head(_glorot(head_rng, k, hidden_dim), np.zeros(k))
    return SharedModel(W1, b1, heads)


def logits_batch(model: SharedModel, task_id: str, X: np.ndarray) -> np.ndarray:
    """(n, k) logits for a (n, d) feature matrix."""
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2 or X.shape[1] != model.input_dim:
        raise DimensionError(
            f"expected features of shape (n, {model.input_dim}), got {X.shape}"
        )
    head = model.head(task_id)
    H = np.maximum(X @ model.W1.T + model.b1, 0.0)
    return H @ head.W2.T + head.b2


def forward(model: SharedModel, task_id: str, x) -> np.ndarray:
    """Logit vector for a single input."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 1:
        raise DimensionError(f"expected a single input vector, got shape {x.shape}")
    return logits_batch(model, task_id, x[None, :])[0]


def predictions(model: SharedModel, task_id: str, X: np.ndarray) -> np.ndarray:
    """Argmax class per row; ties broken toward the lowest class index."""
    return np.argmax(logits_batch(model, task_id, X), axis=1)


def task_loss(model: SharedModel, task_id: str, data) -> float:
    """Mean cross-entropy of the model's softmax outputs over a dataset."""
    if len(data.labels) == 0:
        raise EmptyBatchError(f"task_loss over an empty dataset for {task_id!r}")
    P = softmax_rows(logits_batch(model, task_id, data.features))
    picked = P[np.arange(len(data.labels)), data.labels]
    return float(np.mean(-np.log(picked + LOG_EPS)))


def backward_arrays(
    model: SharedModel,
    task_id: str,
    X: np.ndarray,
    Y: np.ndarray,
    loss_scale: float = 1.0,
    row_weights: np.ndarray | None = None,
):
    """Gradients (dW1, db1, dW2, db2) of the batch loss.

    The loss is loss_scale * mean_i CE_i by default, or sum_i row_weights[i] * CE_i
    when per-row coefficients are given (sample-weighted training).
    """
    X = np.asarray(X, dtype=np.float64)
    Y = np.asarray(Y)
    n = X.shape[0]
    if n == 0:
        raise EmptyBatchError("backward over an empty batch")
    head = model.head(task_id)
    A = X @ model.W1.T + model.b1
    H = np.maximum(A, 0.0)
    Z = H @ head.W2.T + head.b2
    P = softmax_rows(Z)
    rows = np.arange(n)
    picked = P[rows, Y]
    if row_weights is None:
        coeff = np.full(n, loss_scale / n)
    else:
        coeff = np.asarray(row_weights, dtype=np.float64)
        if coeff.shape != (n,):
            raise DimensionError("row_weights must have one entry per example")
    # d/dz of -ln(p_y + eps) = (p_y / (p_y + eps)) * (p - onehot_y)
    dZ = P * (coeff * picked / (picked + LOG_EPS))[:, None]
    dZ[rows, Y] -= coeff * picked / (picked + LOG_EPS)
    dW2 = dZ.T @ H
    db2 = dZ.sum(axis=0)
    dA = (dZ @ head.W2) * (A > 0.0)
    dW1 = dA.T @ X
    db1 = dA.sum(axis=0)
    return dW1, db1, dW2, db2


def backward(model: SharedModel, task_id: str, data) -> GradSnapshot:
    """Exact gradient of task_loss over the full dataset."""
    if len(data.labels) == 0:
        raise EmptyBatchError(f"backward over an empty dataset for {task_id!r}")
    dW1, db1, dW2, db2 = backward_arrays(model, task_id, data.features, data.labels)
    return GradSnapshot(
        rep_grad=np.concatenate([dW1.ravel(), db1]),
        head_grad=np.concatenate([dW2.ravel(), db2]),
        task_id=task_id,
    )


def rep_gradient_flat(
    model: SharedModel, task_id: str, data, subset_size: int, rng: Rng
) -> np.ndarray:
    """Representation gradient on a uniform subset of the dataset.

    Uses the whole dataset (in order, no draw consumed) when subset_size
    covers it, so the result then equals backward(...).rep_grad exactly.
    """
    n = len(data.labels)
    if n == 0:
        raise EmptyBatchError("rep_gradient_flat over an empty dataset")
    if subset_size < 1:
        raise ValueError(f"subset_size must be >= 1, got {subset_size}")
    if subset_size >= n:
        X, Y = data.features, data.labels
    else:
        idx = rng.subset(n, subset_size)
        X, Y = data.features[idx], data.labels[idx]
    dW1, db1, _, _ = backward_arrays(model, task_id, X, Y)
    return np.concatenate([dW1.ravel(), db1])


@dataclass
class OptimizerState:
    """SGD or Adam over named parameter slots.

    Adam keeps per-slot moments and step counts, so a slot that receives no
    gradient on some steps (an idle task head) is left untouched.
    """

    kind: str = "adam"
    lr: float = 3e-4
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    _m: dict = field(default_factory=dict, repr=False)
    _v: dict = field(default_factory=dict, repr=False)
    _t: dict = field(default_factory=dict, repr=False)

    def __post_init__(self):
        if self.kind not in ("sgd", "adam"):
            raise ValueError(f"unknown optimizer kind {self.kind!r}")


def apply_update(
    params: list[np.ndarray],
    grads: list[np.ndarray],
    state: OptimizerState,
    keys: list[str] | None = None,
) -> list[np.ndarray]:
    """One optimizer step; returns fresh arrays, mutates only the state."""
    if len(params) != len(grads):
        raise DimensionError("params and grads must pair up")
    if keys is None:
        keys = [str(i) for i in range(len(params))]
    out = []
    for key, p, g in zip(keys, params, grads):
        if p.shape != g.shape:
            raise DimensionError(f"shape mismatch for {key}: {p.shape} vs {g.shape}")
        if state.kind == "sgd":
            new = p - state.lr * g
        else:
            t = state._t.get(key, 0) + 1
            m = state._m.get(key)
            v = state._v.get(key)
            if m is None:
                m = np.zeros_like(p)
                v = np.zeros_like(p)
            m = state.beta1 * m + (1.0 - state.beta1) * g
            v = state.beta2 * v + (1.0 - state.beta2) * g * g
            state._m[key], state._v[key], state._t[key] = m, v, t
            m_hat = m / (1.0 - state.beta1**t)
            v_hat = v / (1.0 - state.beta2**t)
            new = p - state.lr * m_hat / (np.sqrt(v_hat) + state.eps)
        if not np.all(np.isfinite(new)):
            raise NumericError(f"parameters became non-finite in slot {key}")
        out.append(new)
    return out


def train_step(
    model: SharedModel,
    task_id: str,
    X: np.ndarray,
    Y: np.ndarray,
    opt: OptimizerState,
    loss_scale: float = 1.0,
    row_weights: np.ndarray | None = None,
) -> None:
    """One minibatch step on the representation and one head, in place.

    backward_arrays on the batch, one apply_update over the slots
    rep.W1, rep.b1, head.<task_id>.W2 and head.<task_id>.b2, then the new
    arrays are written back into the model.
    """
    grads = backward_arrays(model, task_id, X, Y, loss_scale=loss_scale, row_weights=row_weights)
    head = model.head(task_id)
    model.W1, model.b1, head.W2, head.b2 = apply_update(
        [model.W1, model.b1, head.W2, head.b2],
        list(grads),
        opt,
        ["rep.W1", "rep.b1", f"head.{task_id}.W2", f"head.{task_id}.b2"],
    )


_MAGIC = b"TWLM"
_VERSION = 1


def save_model(model: SharedModel, path) -> None:
    """Versioned binary checkpoint: dims header + row-major float64 blocks."""
    with open(path, "wb") as fh:
        fh.write(_MAGIC)
        fh.write(struct.pack("<III", _VERSION, model.input_dim, model.hidden_dim))
        fh.write(struct.pack("<I", len(model.heads)))
        fh.write(model.W1.astype("<f8").tobytes())
        fh.write(model.b1.astype("<f8").tobytes())
        for task_id, head in model.heads.items():
            raw = task_id.encode("utf-8")
            fh.write(struct.pack("<I", len(raw)))
            fh.write(raw)
            fh.write(struct.pack("<I", head.n_classes))
            fh.write(head.W2.astype("<f8").tobytes())
            fh.write(head.b2.astype("<f8").tobytes())


def load_model(path) -> SharedModel:
    with open(path, "rb") as fh:
        if fh.read(4) != _MAGIC:
            raise ValueError(f"{path}: not a model checkpoint")
        version, d, hidden = struct.unpack("<III", fh.read(12))
        if version != _VERSION:
            raise ValueError(f"{path}: unsupported checkpoint version {version}")
        (n_heads,) = struct.unpack("<I", fh.read(4))
        W1 = np.frombuffer(fh.read(8 * hidden * d), dtype="<f8").reshape(hidden, d).copy()
        b1 = np.frombuffer(fh.read(8 * hidden), dtype="<f8").copy()
        heads = {}
        for _ in range(n_heads):
            (name_len,) = struct.unpack("<I", fh.read(4))
            task_id = fh.read(name_len).decode("utf-8")
            (k,) = struct.unpack("<I", fh.read(4))
            W2 = np.frombuffer(fh.read(8 * k * hidden), dtype="<f8").reshape(k, hidden).copy()
            b2 = np.frombuffer(fh.read(8 * k), dtype="<f8").copy()
            heads[task_id] = Head(W2, b2)
        return SharedModel(W1, b1, heads)
