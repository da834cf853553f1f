"""Two-layer shared-representation network with one linear head per task.

    logits = W2 @ relu(W1 @ x + b1) + b2

The body (W1, b1) is the shared representation; each task owns its last
linear layer (W2, b2). Forward and backward passes are hand-derived;
relu'(0) := 0.

Parameters live in flat groups: the model owns one float64 buffer for the
representation, laid out as W1 (row-major) then b1, and each head owns one
buffer laid out as W2 then b2. W1, b1, W2 and b2 are read-only views into
those buffers, so they can be written in place (m.W1[:] = 0.0) but never
rebound. Two optimizers (SGD and bias-corrected Adam) update named
parameter arrays in place, so groups can be updated independently and
sparsely. train_step, the minibatch step of every loop that trains the
representation, is one backward pass into preallocated gradient and
activation buffers plus one fused update of the representation group and
one of the head group. example_rep_grads gives the representation
gradient of every example's own loss, for the sample-granularity
estimators.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass, field

import numpy as np

from .numerics import LOG_EPS, DimensionError, NumericError, Rng, hash64, softmax_rows


class EmptyBatchError(ValueError):
    """An operation that needs at least one example received none."""


def _views(flat: np.ndarray, *shapes) -> list[np.ndarray]:
    """Consecutive views into flat, one per shape, in order."""
    views, at = [], 0
    for shape in shapes:
        size = math.prod(shape)
        views.append(flat[at : at + size].reshape(shape))
        at += size
    return views


def _pack(*arrays) -> tuple[np.ndarray, list[np.ndarray]]:
    """A fresh float64 buffer holding copies of arrays back to back, and its views."""
    arrays = [np.asarray(a, dtype=np.float64) for a in arrays]
    flat = np.empty(sum(a.size for a in arrays))
    views = _views(flat, *(a.shape for a in arrays))
    for view, a in zip(views, arrays):
        view[...] = a
    return flat, views


def _copy_into(flat: np.ndarray, values, what: str) -> None:
    values = np.asarray(values, dtype=np.float64)
    if values.size != flat.size:
        raise DimensionError(f"expected {flat.size} {what} values, got {values.size}")
    flat[:] = values.ravel()


class Head:
    """One task's last layer: W2 (k, hidden) and b2 (k,) are views into params."""

    __slots__ = ("_params", "_W2", "_b2")

    def __init__(self, W2, b2):
        self._params, (self._W2, self._b2) = _pack(W2, b2)

    params = property(lambda self: self._params, doc="flat buffer: W2 row-major, then b2")
    W2 = property(lambda self: self._W2)
    b2 = property(lambda self: self._b2)

    @property
    def n_classes(self) -> int:
        return self._W2.shape[0]

    def copy(self) -> "Head":
        return Head(self._W2, self._b2)


class SharedModel:
    """Representation W1 (hidden, d), b1 (hidden,) as views into rep_params,
    plus one Head per task id."""

    __slots__ = ("_rep", "_W1", "_b1", "heads")

    def __init__(self, W1, b1, heads: dict[str, Head]):
        self._rep, (self._W1, self._b1) = _pack(W1, b1)
        self.heads = heads

    rep_params = property(lambda self: self._rep, doc="flat buffer: W1 row-major, then b1")
    W1 = property(lambda self: self._W1)
    b1 = property(lambda self: self._b1)

    @property
    def input_dim(self) -> int:
        return self._W1.shape[1]

    @property
    def hidden_dim(self) -> int:
        return self._W1.shape[0]

    def head(self, task_id: str) -> Head:
        try:
            return self.heads[task_id]
        except KeyError:
            raise KeyError(
                f"unknown task_id {task_id!r}; model has {sorted(self.heads)}"
            ) from None

    def copy(self) -> "SharedModel":
        return SharedModel(
            self._W1, self._b1, {tid: h.copy() for tid, h in self.heads.items()}
        )

    def rep_param_count(self) -> int:
        return self._rep.size

    def rep_flat(self) -> np.ndarray:
        return self._rep.copy()

    def set_rep_flat(self, flat: np.ndarray) -> None:
        _copy_into(self._rep, flat, "representation")

    def head_flat(self, task_id: str) -> np.ndarray:
        return self.head(task_id).params.copy()

    def set_head_flat(self, task_id: str, flat: np.ndarray) -> None:
        _copy_into(self.head(task_id).params, flat, "head")


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


def hidden_batch(model: SharedModel, X: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """(n, hidden) activations relu(X @ W1.T + b1), built in one array (out if given)."""
    H = np.matmul(X, model.W1.T, out=out)
    H += model.b1
    return np.maximum(H, 0.0, out=H)


def logits_batch(model: SharedModel, task_id: str, X: np.ndarray) -> np.ndarray:
    """(n, k) logits for a (n, d) feature matrix."""
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2 or X.shape[1] != model.input_dim:
        raise DimensionError(
            f"expected features of shape (n, {model.input_dim}), got {X.shape}"
        )
    head = model.head(task_id)
    Z = hidden_batch(model, X) @ head.W2.T
    Z += head.b2
    return Z


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
    return mean_loss_of_logits(logits_batch(model, task_id, data.features), data.labels)


def mean_loss_of_logits(Z: np.ndarray, Y: np.ndarray) -> float:
    """Mean cross-entropy -ln(softmax(z)_y + eps) over the rows of a (n, k) logit matrix."""
    P = softmax_rows(Z)
    picked = P[np.arange(len(Y)), Y]
    return float(np.mean(-np.log(picked + LOG_EPS)))


class _Workspace:
    """Activation buffers of backward_arrays for one (batch, hidden, classes) shape.

    HA holds the pre-activation A, then H = relu(A) in place, then dA.
    """

    __slots__ = ("HA", "mask", "Z", "rows")

    def __init__(self, n: int, hidden: int, k: int):
        self.HA = np.empty((n, hidden))
        self.mask = np.empty((n, hidden), dtype=bool)
        self.Z = np.empty((n, k))
        self.rows = np.arange(n)


def backward_arrays(
    model: SharedModel,
    task_id: str,
    X: np.ndarray,
    Y: np.ndarray,
    loss_scale: float = 1.0,
    row_weights: np.ndarray | None = None,
    out: tuple | None = None,
):
    """Gradients (dW1, db1, dW2, db2) of the batch loss.

    The loss is loss_scale * mean_i CE_i by default, or sum_i row_weights[i] * CE_i
    when per-row coefficients are given (sample-weighted training).

    out, used by train_step, is (rep grad buffer, head grad buffer, workspace):
    the gradients are written into the two flat buffers (laid out like
    rep_params and the head's params) and returned as views of them, and the
    activations reuse the workspace. Without it every array is fresh.
    """
    X = np.asarray(X, dtype=np.float64)
    Y = np.asarray(Y)
    n = X.shape[0]
    if n == 0:
        raise EmptyBatchError("backward over an empty batch")
    head = model.head(task_id)
    W1, W2 = model.W1, head.W2
    if out is None:
        dW1 = db1 = dW2 = db2 = HA = mask = Z = None
        rows = np.arange(n)
    else:
        rep_grad, head_grad, work = out
        dW1, db1 = _views(rep_grad, W1.shape, model.b1.shape)
        dW2, db2 = _views(head_grad, W2.shape, head.b2.shape)
        HA, mask, Z, rows = work.HA, work.mask, work.Z, work.rows

    HA = hidden_batch(model, X, out=HA)
    Z = np.matmul(HA, W2.T, out=Z)
    Z += head.b2
    P = softmax_rows(Z)
    picked = P[rows, Y]
    if row_weights is None:
        coeff = loss_scale / n
    else:
        coeff = np.asarray(row_weights, dtype=np.float64)
        if coeff.shape != (n,):
            raise DimensionError("row_weights must have one entry per example")
    # d/dz of -ln(p_y + eps) = (p_y / (p_y + eps)) * (p - onehot_y)
    r = coeff * picked / (picked + LOG_EPS)
    dZ = P
    dZ *= r[:, None]
    dZ[rows, Y] -= r
    dW2 = np.matmul(dZ.T, HA, out=dW2)
    db2 = np.sum(dZ, axis=0, out=db2)
    mask = np.greater(HA, 0.0, out=mask)  # H > 0 exactly where A > 0
    dA = np.matmul(dZ, W2, out=HA)
    dA *= mask
    dW1 = np.matmul(dA.T, X, out=dW1)
    db1 = np.sum(dA, axis=0, out=db1)
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


# Rows per block of example_rep_grads; its (block, hidden) buffer is 256 KB
# at hidden 256.
EXAMPLE_BLOCK = 128


def example_rep_grads(model: SharedModel, task_id: str, X: np.ndarray, Y: np.ndarray):
    """Yield the representation gradient of each row's own loss, rows in order.

    Row i's gradient, flat like rep_params, is bitwise the rep gradient of
    backward_arrays on the one-row batch X[i:i+1]. The elementwise work
    (+b1, ReLU, +b2, softmax, the loss residual, dZ and the ReLU mask) runs
    on blocks of EXAMPLE_BLOCK rows. The products stay per row: a one-row
    product is a BLAS gemv and a block product a gemm, and the two round
    differently. Every row is yielded in the same reused buffer, which
    holds that row's gradient until the next one is drawn.
    """
    X = np.asarray(X, dtype=np.float64)
    Y = np.asarray(Y)
    n = X.shape[0]
    if n == 0:
        raise EmptyBatchError("per-example gradients over an empty batch")
    head = model.head(task_id)
    W1T, W2, W2T, b1 = model.W1.T, head.W2, head.W2.T, model.b1
    block = min(n, EXAMPLE_BLOCK)
    HA = np.empty((block, model.hidden_dim))  # A, then relu(A), then dA, as in backward_arrays
    mask = np.empty(HA.shape, dtype=bool)
    Z = np.empty((block, head.n_classes))
    grad = np.empty(model.rep_param_count())
    dW1, db1 = _views(grad, model.W1.shape, b1.shape)
    for start in range(0, n, block):
        Xb, Yb = X[start : start + block], Y[start : start + block]
        m = len(Yb)
        A, Zb, Mb, rows = HA[:m], Z[:m], mask[:m], np.arange(m)
        for j in range(m):
            np.matmul(Xb[j : j + 1], W1T, out=A[j : j + 1])
        A += b1
        np.maximum(A, 0.0, out=A)
        for j in range(m):
            np.matmul(A[j : j + 1], W2T, out=Zb[j : j + 1])
        Zb += head.b2
        dZ = softmax_rows(Zb)
        picked = dZ[rows, Yb]
        r = picked / (picked + LOG_EPS)  # a one-row batch has loss scale 1
        dZ *= r[:, None]
        dZ[rows, Yb] -= r
        np.greater(A, 0.0, out=Mb)
        for j in range(m):
            np.matmul(dZ[j : j + 1], W2, out=A[j : j + 1])
        A *= Mb
        for j in range(m):
            np.multiply(A[j][:, None], Xb[j], out=dW1)
            dW1 += 0.0  # matmul's one-term sum is 0 + a*x, which turns -0.0 into +0.0
            np.add(A[j], 0.0, out=db1)  # a sum over one row: 0 + dA, so -0.0 -> +0.0
            yield grad


@dataclass
class OptimizerState:
    """SGD or Adam over named parameter slots.

    Adam keeps per-slot moments and step counts, so a slot that receives no
    gradient on some steps (an idle task head) is left untouched. Each slot
    also owns preallocated scratch and gradient buffers, and the state
    keeps train_step's activation workspaces keyed by batch shape, so a
    step allocates no parameter-sized or batch-sized arrays of its own.
    """

    kind: str = "adam"
    lr: float = 3e-4
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    _m: dict = field(default_factory=dict, repr=False)
    _v: dict = field(default_factory=dict, repr=False)
    _t: dict = field(default_factory=dict, repr=False)
    _slots: dict = field(default_factory=dict, repr=False)
    _work: dict = field(default_factory=dict, repr=False)

    def __post_init__(self):
        if self.kind not in ("sgd", "adam"):
            raise ValueError(f"unknown optimizer kind {self.kind!r}")

    def _slot(self, key: str, p: np.ndarray) -> tuple:
        """(grad, scratch, step, finite) buffers of slot key, created with the
        Adam moments on first use."""
        slot = self._slots.get(key)
        if slot is None:
            if self.kind == "adam":
                self._m[key] = np.zeros_like(p)
                self._v[key] = np.zeros_like(p)
            slot = self._slots[key] = (
                np.empty_like(p), np.empty_like(p), np.empty_like(p),
                np.empty(p.shape, dtype=bool),
            )
        elif slot[0].shape != p.shape:
            raise DimensionError(
                f"slot {key} holds shape {slot[0].shape}, got parameters of {p.shape}"
            )
        return slot

    def grad_buffer(self, key: str, params: np.ndarray) -> np.ndarray:
        """Slot key's gradient buffer, shaped like params and reused every step.

        Creating a slot allocates all of its long-lived buffers at once; do it
        before any large temporary so they don't end up above it in the heap.
        """
        return self._slot(key, params)[0]

    def workspace(self, n: int, hidden: int, k: int) -> _Workspace:
        """train_step's activation buffers for a batch of n rows, shared by every slot."""
        work = self._work.get((n, hidden, k))
        if work is None:
            work = self._work[(n, hidden, k)] = _Workspace(n, hidden, k)
        return work


def apply_update(
    params: list[np.ndarray],
    grads: list[np.ndarray],
    state: OptimizerState,
    keys: list[str] | None = None,
) -> list[np.ndarray]:
    """One optimizer step on each params[i], in place; returns params.

    The arithmetic, and its order, is the textbook step: SGD p - lr*g, and
    Adam m = b1*m + (1-b1)*g, v = b2*v + ((1-b2)*g)*g,
    p - (lr*(m/(1-b1^t))) / (sqrt(v/(1-b2^t)) + eps), each evaluated into
    the slot's scratch buffers. A slot whose parameters turn non-finite
    raises NumericError (they keep the non-finite values).
    """
    if len(params) != len(grads):
        raise DimensionError("params and grads must pair up")
    if keys is None:
        keys = [str(i) for i in range(len(params))]
    for key, p, g in zip(keys, params, grads):
        if p.shape != g.shape:
            raise DimensionError(f"shape mismatch for {key}: {p.shape} vs {g.shape}")
        _, s, step, finite = state._slot(key, p)
        if state.kind == "sgd":
            np.multiply(g, state.lr, out=step)
        else:
            t = state._t.get(key, 0) + 1
            state._t[key] = t
            m, v = state._m[key], state._v[key]
            m *= state.beta1
            m += np.multiply(g, 1.0 - state.beta1, out=s)
            v *= state.beta2
            np.multiply(g, 1.0 - state.beta2, out=s)
            v += np.multiply(s, g, out=s)
            np.divide(v, 1.0 - state.beta2**t, out=s)
            np.sqrt(s, out=s)
            s += state.eps
            np.divide(m, 1.0 - state.beta1**t, out=step)
            step *= state.lr
            step /= s
        p -= step
        if not np.isfinite(p, out=finite).all():
            raise NumericError(f"parameters became non-finite in slot {key}")
    return params


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

    backward_arrays on the batch into opt's gradient buffers and workspace,
    then one apply_update over the two flat groups, slots "rep" and
    "head.<task_id>".
    """
    head = model.head(task_id)
    head_key = f"head.{task_id}"
    rep_grad = opt.grad_buffer("rep", model.rep_params)
    head_grad = opt.grad_buffer(head_key, head.params)
    work = opt.workspace(len(Y), model.hidden_dim, head.n_classes)
    backward_arrays(
        model, task_id, X, Y, loss_scale=loss_scale, row_weights=row_weights,
        out=(rep_grad, head_grad, work),
    )
    apply_update([model.rep_params, head.params], [rep_grad, head_grad], opt, ["rep", head_key])


_MAGIC = b"TWLM"
_VERSION = 1


def save_model(model: SharedModel, path) -> None:
    """Versioned binary checkpoint: dims header + row-major float64 blocks."""
    with open(path, "wb") as fh:
        fh.write(_MAGIC)
        fh.write(struct.pack("<III", _VERSION, model.input_dim, model.hidden_dim))
        fh.write(struct.pack("<I", len(model.heads)))
        fh.write(model.rep_params.astype("<f8").tobytes())
        for task_id, head in model.heads.items():
            raw = task_id.encode("utf-8")
            fh.write(struct.pack("<I", len(raw)))
            fh.write(raw)
            fh.write(struct.pack("<I", head.n_classes))
            fh.write(head.params.astype("<f8").tobytes())


def load_model(path) -> SharedModel:
    with open(path, "rb") as fh:
        if fh.read(4) != _MAGIC:
            raise ValueError(f"{path}: not a model checkpoint")
        version, d, hidden = struct.unpack("<III", fh.read(12))
        if version != _VERSION:
            raise ValueError(f"{path}: unsupported checkpoint version {version}")
        (n_heads,) = struct.unpack("<I", fh.read(4))
        W1 = np.frombuffer(fh.read(8 * hidden * d), dtype="<f8").reshape(hidden, d)
        b1 = np.frombuffer(fh.read(8 * hidden), dtype="<f8")
        heads = {}
        for _ in range(n_heads):
            (name_len,) = struct.unpack("<I", fh.read(4))
            task_id = fh.read(name_len).decode("utf-8")
            (k,) = struct.unpack("<I", fh.read(4))
            W2 = np.frombuffer(fh.read(8 * k * hidden), dtype="<f8").reshape(k, hidden)
            b2 = np.frombuffer(fh.read(8 * k), dtype="<f8")
            heads[task_id] = Head(W2, b2)
        return SharedModel(W1, b1, heads)
