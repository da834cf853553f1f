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
gradient of every example's own loss in blocks of rows, bitwise those of
one-row backward passes, for the sample-granularity estimators, and
RepHessian the exact representation Hessian of a weighted loss as
products H v, for the exact_hessian estimator.

One floor rule keeps row blocks off OpenBLAS's small-matrix path (and off
gemv), which rounds differently: a product with N output columns and at
least _gemm_floor(N) = max(SMALL_GEMM_LIMIT // N + 1, 2) rows gives each
row the bits of the one-shot product. Evaluation, task losses and labelling
stream the rows in near-equal blocks of floor to 2 * floor - 1 rows, floor
at min(k, hidden) (121 at k = 10), through reused (block, hidden) and
(block, k) buffers, scoring each block as it comes: for k >= 2 the logits,
softmax and argmax are bitwise those of the one-shot pass (the remainder is
spread over the blocks, never left as a short tail; one-class logits can
differ in the last bit, but their softmax is exactly 1 either way).
Head-only training takes each minibatch's hidden rows from hidden_batches,
in windows of at least the floor at hidden (5 at hidden 256).

The rule holds where a row of the (n, hidden) product does not depend on n:
on OpenBLAS 0.3.31 (Haswell/SkylakeX kernels) that is hidden <= 248 or a
multiple of 8, and for hidden_batches hidden >= 2 (at hidden 1 a window is
a gemv). At other widths (250, 252, 260, 300, 500, 1,300 were probed) both
paths can differ from the one-shot pass in the last bits. Every shipped
width, 16, 32 and 256, meets it.
"""

from __future__ import annotations

import math
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

    def rep_param_count(self) -> int:
        return self._rep.size


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


# Largest M * N of an M x N product OpenBLAS (SkylakeX) may send to its small-matrix kernel.
SMALL_GEMM_LIMIT = 1200


def _gemm_floor(cols: int) -> int:
    """Fewest rows that keep a product with cols output columns a plain gemm."""
    return max(SMALL_GEMM_LIMIT // cols + 1, 2)


def _logit_blocks(model: SharedModel, task_id: str, X: np.ndarray):
    """Yield (rows, Z) per row block of X: rows a slice, Z the block's logits,
    valid until the next block is drawn (the blocks share their buffers)."""
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2 or X.shape[1] != model.input_dim:
        raise DimensionError(
            f"expected features of shape (n, {model.input_dim}), got {X.shape}"
        )
    head = model.head(task_id)
    n, k = X.shape[0], head.n_classes
    blocks = max(n // _gemm_floor(min(k, model.hidden_dim)), 1)
    bounds = [i * n // blocks for i in range(blocks + 1)]
    H = np.empty((-(-n // blocks), model.hidden_dim))
    Z = np.empty((H.shape[0], k))
    for start, stop in zip(bounds, bounds[1:]):
        Hb = hidden_batch(model, X[start:stop], out=H[: stop - start])
        Zb = np.matmul(Hb, head.W2.T, out=Z[: stop - start])
        Zb += head.b2
        yield slice(start, stop), Zb


def hidden_batches(model: SharedModel, X: np.ndarray, order: np.ndarray, batch_size: int):
    """Yield (idx, Hb) per minibatch idx = order[start : start + batch_size],
    Hb bitwise rows idx of hidden_batch(model, X) and valid until the next draw.

    A batch's rows come from one reused buffer, computed over a window of
    order that holds the batch and at least the floor of rows, widened back
    into the previous batch (forward for the first). Below the floor the
    one-shot product is itself on the small-matrix path, whose bits depend
    on the row count and order, so X is computed whole, in order. Bitwise
    only at the widths the module docstring names (hidden 256 does, 250 not).
    """
    n, floor = len(order), _gemm_floor(model.hidden_dim)
    if n < floor:
        H = hidden_batch(model, X)
        for start in range(0, n, batch_size):
            idx = order[start : start + batch_size]
            yield idx, H[idx]
        return
    H = np.empty((max(min(batch_size, n), floor), model.hidden_dim))
    for start in range(0, n, batch_size):
        idx = order[start : start + batch_size]
        lo = max(min(start, start + len(idx) - floor), 0)
        rows = order[lo : max(lo + floor, start + len(idx))]
        Hw = hidden_batch(model, X[rows], out=H[: len(rows)])
        yield idx, Hw[start - lo : start - lo + len(idx)]


def logits_batch(model: SharedModel, task_id: str, X: np.ndarray) -> np.ndarray:
    """(n, k) logits for a (n, d) feature matrix, gathered from the blocks."""
    Z = np.empty((len(X), model.head(task_id).n_classes))
    for rows, Zb in _logit_blocks(model, task_id, X):
        Z[rows] = Zb
    return Z


def predictions(model: SharedModel, task_id: str, X: np.ndarray) -> np.ndarray:
    """Argmax class per row; ties broken toward the lowest class index."""
    out = np.empty(len(X), dtype=np.intp)
    for rows, Z in _logit_blocks(model, task_id, X):
        np.argmax(Z, axis=1, out=out[rows])
    return out


def accuracy_and_loss(model: SharedModel, task_id: str, data) -> tuple[float, float]:
    """Accuracy (argmax, ties to the lowest class) and mean cross-entropy
    -ln(p_y + eps) over a dataset, as means of two per-row (n,) vectors."""
    hit, picked = np.empty(data.n, dtype=bool), np.empty(data.n)
    for rows, Z in _logit_blocks(model, task_id, data.features):
        Yb = data.labels[rows]
        np.equal(np.argmax(Z, axis=1), Yb, out=hit[rows])
        picked[rows] = softmax_rows(Z)[np.arange(len(Yb)), Yb]
    return float(np.mean(hit)), float(np.mean(-np.log(picked + LOG_EPS)))


def task_loss(model: SharedModel, task_id: str, data) -> float:
    """Mean cross-entropy of the model's softmax outputs over a dataset."""
    if len(data.labels) == 0:
        raise EmptyBatchError(f"task_loss over an empty dataset for {task_id!r}")
    return accuracy_and_loss(model, task_id, data)[1]


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


def rep_gradient_flat(
    model: SharedModel, task_id: str, data, subset_size: int, rng: Rng
) -> np.ndarray:
    """Representation gradient on a uniform subset of the dataset.

    Uses the whole dataset (in order, no draw consumed) when subset_size
    covers it, so the result then is the full-data rep gradient of
    backward_arrays exactly.
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


# Bytes of example_rep_grads' gradient block at any width (12 rows at d 20, hidden 256).
EXAMPLE_BLOCK_BYTES = 512 << 10


def example_rep_grads(model: SharedModel, task_id: str, X: np.ndarray, Y: np.ndarray):
    """Yield (rows, G) over consecutive row blocks, rows a slice of X: G[i],
    flat like rep_params, is the representation gradient of row rows.start + i's
    own loss, bitwise that of backward_arrays on the one-row batch.

    A block has max(EXAMPLE_BLOCK_BYTES // (8 * rep_param_count), 1) rows,
    and the elementwise work (+b1, ReLU, +b2, softmax, the loss residual, dZ,
    the ReLU mask) runs on the whole block. The products stay per row, as a
    one-row product is a gemv and a block product a gemm, which round
    differently: a stacked matmul, (rows, 1, d) @ (d, hidden), makes one gemv
    per row from numpy's C loop. The outer products dA x are stacked
    (hidden, 2) @ (2, d) gemms of [dA, 0] and [x; 0]: each entry is the sum
    a*x + 0*0, in any order the one-row product's 0 + a*x (-0.0 -> +0.0).
    The blocks share one buffer, which holds a block until the next is drawn.
    """
    X = np.asarray(X, dtype=np.float64)
    Y = np.asarray(Y)
    n = X.shape[0]
    if n == 0:
        raise EmptyBatchError("per-example gradients over an empty batch")
    head = model.head(task_id)
    h, d = model.W1.shape
    block = min(n, max(EXAMPLE_BLOCK_BYTES // (8 * model.rep_param_count()), 1))
    HA = np.empty((block, h))  # A, then relu(A), then dA, as in backward_arrays
    mask = np.empty(HA.shape, dtype=bool)
    Z = np.empty((block, head.n_classes))
    G = np.empty((block, model.rep_param_count()))
    GW1 = G[:, : h * d].reshape(block, h, d)
    A2, X2 = np.zeros((block, h, 2)), np.zeros((block, 2, d))  # [dA, 0] and [x; 0]
    for start in range(0, n, block):
        Xb, Yb = X[start : start + block], Y[start : start + block]
        m = len(Yb)
        A, Zb, Mb, rows = HA[:m], Z[:m], mask[:m], np.arange(m)
        np.matmul(Xb[:, None, :], model.W1.T, out=A[:, None, :])
        A += model.b1
        np.maximum(A, 0.0, out=A)
        np.matmul(A[:, None, :], head.W2.T, out=Zb[:, None, :])
        Zb += head.b2
        dZ = softmax_rows(Zb)
        picked = dZ[rows, Yb]
        r = picked / (picked + LOG_EPS)  # a one-row batch has loss scale 1
        dZ *= r[:, None]
        dZ[rows, Yb] -= r
        np.greater(A, 0.0, out=Mb)
        np.matmul(dZ[:, None, :], head.W2, out=A[:, None, :])
        A *= Mb
        A2[:m, :, 0], X2[:m, 0] = A, Xb
        np.matmul(A2[:m], X2[:m], out=GW1[:m])
        np.add(A, 0.0, out=G[:m, h * d :])  # a sum over one row: 0 + dA, so -0.0 -> +0.0
        yield slice(start, start + m), G[:m]


class RepHessian:
    """Exact Hessian of sum_i coeff_i * CE_i over the representation, heads frozen.

    parts holds (task_id, X, Y, coeff) blocks; coeff is one loss coefficient
    for every row of the block or one per row. With the heads fixed the
    logits are piecewise linear in (W1, b1), so away from ReLU kinks the
    Hessian is exactly J^T M J: J the Jacobian of the logits, M the logit
    Hessian of the loss as implemented, -ln(p_y + eps),

        M = r (diag p - p p^T) - r s (p - e_y)(p - e_y)^T,
        r = p_y / (p_y + eps),  s = eps / (p_y + eps).

    The activations are computed once, at the parameters of construction.
    matvec is then one R-op forward and one backward pass (Pearlmutter 1994)
    and trace is closed-form, so no dense Hessian is ever built. Both take
    the bias as one more input column: rows [x, 1] against [W1 | b1].
    """

    def __init__(self, model: SharedModel, parts):
        self.dim = model.rep_param_count()
        self._hidden, self._d = model.W1.shape
        self._parts = []
        for task_id, X, Y, coeff in parts:
            X = np.asarray(X, dtype=np.float64)
            Y = np.asarray(Y)
            if X.shape[0] == 0:
                raise EmptyBatchError(f"Hessian over an empty batch of {task_id!r}")
            head = model.head(task_id)
            act = hidden_batch(model, X)
            P = softmax_rows(act @ head.W2.T + head.b2)
            rows = np.arange(len(Y))
            picked = P[rows, Y]
            r = coeff * picked / (picked + LOG_EPS)
            D = P.copy()
            D[rows, Y] -= 1.0
            X1 = np.hstack([X, np.ones((len(Y), 1))])
            self._parts.append((
                X1, act > 0.0, head.W2.copy(), P, D, r[:, None],
                (r * LOG_EPS / (picked + LOG_EPS))[:, None],
                act,  # reused as matvec's (n, hidden) buffer
            ))

    def matvec(self, v: np.ndarray) -> np.ndarray:
        """H v for v laid out like rep_params."""
        v = np.asarray(v, dtype=np.float64).ravel()
        if v.size != self.dim:
            raise DimensionError(f"expected {self.dim} representation values, got {v.size}")
        h, d = self._hidden, self._d
        V = np.concatenate([v[: h * d].reshape(h, d), v[h * d :, None]], axis=1)
        G = np.zeros((h, d + 1))
        for X1, mask, W2, P, D, r, rs, dA in self._parts:
            np.matmul(X1, V.T, out=dA)
            dA *= mask
            dZ = dA @ W2.T  # J v
            U = dZ - np.sum(P * dZ, axis=1, keepdims=True)
            U *= P
            U *= r
            U -= D * (rs * np.sum(D * dZ, axis=1, keepdims=True))  # M J v
            np.matmul(U, W2, out=dA)
            dA *= mask
            G += dA.T @ X1
        return np.concatenate([G[:, :d].ravel(), G[:, d]])

    def trace(self) -> float:
        """tr H: per row, |[x, 1]|^2 times the sum over live units h of W2[:, h]^T M W2[:, h]."""
        total = 0.0
        for X1, mask, W2, P, D, r, rs, _ in self._parts:
            PW = P @ W2
            unit = r * (P @ (W2 * W2) - PW * PW) - rs * (D @ W2) ** 2
            unit *= mask
            total += float(unit.sum(axis=1) @ np.einsum("ij,ij->i", X1, X1))
        return total


# Adam's defaults (Kingma & Ba, arXiv:1412.6980); every Adam step uses them.
ADAM_BETA1, ADAM_BETA2, ADAM_EPS = 0.9, 0.999, 1e-8


class _Slot:
    """One parameter slot's state: the Adam moments m, v (None under SGD) and
    step count t, then the gradient, scratch, step and finite-flag buffers,
    allocated in that order and reused by every update."""

    __slots__ = ("m", "v", "t", "grad", "scratch", "step", "finite")

    def __init__(self, p: np.ndarray, adam: bool):
        self.m, self.v = (np.zeros_like(p), np.zeros_like(p)) if adam else (None, None)
        self.t = 0
        self.grad, self.scratch, self.step = np.empty_like(p), np.empty_like(p), np.empty_like(p)
        self.finite = np.empty(p.shape, dtype=bool)


@dataclass
class OptimizerState:
    """SGD or Adam over named parameter slots.

    Each slot is one record, _Slot, of its own Adam moments, step count and
    preallocated buffers, so a slot that gets no gradient on some steps (an
    idle task head) is left untouched. The state also keeps train_step's
    activation workspaces keyed by batch shape, so a step allocates no
    parameter-sized or batch-sized arrays of its own.
    """

    kind: str = "adam"
    lr: float = 3e-4
    _slots: dict = field(default_factory=dict, repr=False)
    _work: dict = field(default_factory=dict, repr=False)

    def __post_init__(self):
        if self.kind not in ("sgd", "adam"):
            raise ValueError(f"unknown optimizer kind {self.kind!r}")

    def slot(self, key: str, params: np.ndarray) -> _Slot:
        """Slot key's state, shaped like params, created on first use.

        Creating a slot allocates all of its long-lived buffers at once; do it
        before any large temporary so they don't end up above it in the heap.
        """
        slot = self._slots.get(key)
        if slot is None:
            slot = self._slots[key] = _Slot(params, self.kind == "adam")
        elif slot.grad.shape != params.shape:
            raise DimensionError(
                f"slot {key} holds shape {slot.grad.shape}, got parameters of {params.shape}"
            )
        return slot

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
        slot = state.slot(key, p)
        s, step = slot.scratch, slot.step
        if state.kind == "sgd":
            np.multiply(g, state.lr, out=step)
        else:
            slot.t += 1
            t, m, v = slot.t, slot.m, slot.v
            m *= ADAM_BETA1
            m += np.multiply(g, 1.0 - ADAM_BETA1, out=s)
            v *= ADAM_BETA2
            np.multiply(g, 1.0 - ADAM_BETA2, out=s)
            v += np.multiply(s, g, out=s)
            np.divide(v, 1.0 - ADAM_BETA2**t, out=s)
            np.sqrt(s, out=s)
            s += ADAM_EPS
            np.divide(m, 1.0 - ADAM_BETA1**t, out=step)
            step *= state.lr
            step /= s
        p -= step
        if not np.isfinite(p, out=slot.finite).all():
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
    rep_grad = opt.slot("rep", model.rep_params).grad
    head_grad = opt.slot(head_key, head.params).grad
    work = opt.workspace(len(Y), model.hidden_dim, head.n_classes)
    backward_arrays(
        model, task_id, X, Y, loss_scale=loss_scale, row_weights=row_weights,
        out=(rep_grad, head_grad, work),
    )
    apply_update([model.rep_params, head.params], [rep_grad, head_grad], opt, ["rep", head_key])

