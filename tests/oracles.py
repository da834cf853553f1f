"""Reference implementations the library no longer carries, kept as test oracles.

finite_diff_gradient is the central-difference gradient that audits the
hand-derived backprop; copy_model gives a model its own parameter buffers;
unblocked_logits is logits_batch before its row blocks, one (n, hidden)
activation for all rows, and mean_loss_of_logits the loss of a whole (n, k)
logit matrix at once, which task_loss and accuracy_and_loss must equal bitwise;
backward/GradSnapshot are the allocate-and-return full-data gradient;
fd_rep_hessian assembles the representation Hessian of a weighted loss by
central differences of that gradient, one column per parameter. The FD
Hessian is only right where no pre-activation lies within the step of
zero: a step that crosses a ReLU kink measures a jump, not a curvature.
savez_dataset is save_dataset as np.savez wrote it, whose bytes the
copy-free writer must match. matching_weights is the closed-form two-task
matching construction for bracketing risk profiles, whose identity
criterion 3 checks; nothing in the lab runs it.
identity_hessian_task_gradient is the identity-Hessian weight gradient of
one pair of gradients, the scalar reference that the estimator's
-scale * <s, g_t> must equal bit for bit.
"""

from dataclasses import dataclass

import numpy as np

from tawt_lab.model import (
    EmptyBatchError, Head, RepHessian, SharedModel, backward_arrays, hidden_batch,
)
from tawt_lab.numerics import DimensionError, LOG_EPS, NumericError, softmax_rows
from tawt_lab.weighting import DEFAULT_IDENTITY_HESSIAN_SCALE, SimplexWeights


def finite_diff_gradient(f, params, h=1e-5) -> np.ndarray:
    """Central-difference gradient (f(p + h e_i) - f(p - h e_i)) / 2h."""
    if h <= 0:
        raise ValueError(f"step h must be positive, got {h}")
    p = np.array(params, dtype=np.float64)
    grad = np.empty_like(p)
    for i in range(p.size):
        orig = p[i]
        p[i] = orig + h
        up = float(f(p))
        p[i] = orig - h
        down = float(f(p))
        p[i] = orig
        if not (np.isfinite(up) and np.isfinite(down)):
            raise NumericError(f"objective non-finite near coordinate {i}")
        grad[i] = (up - down) / (2.0 * h)
    return grad


def copy_model(model) -> SharedModel:
    """A model with its own copies of every parameter buffer."""
    heads = {tid: Head(h.W2, h.b2) for tid, h in model.heads.items()}
    return SharedModel(model.W1, model.b1, heads)


def unblocked_logits(model, task_id, X) -> np.ndarray:
    """(n, k) logits from one (n, hidden) activation of all rows at once."""
    head = model.head(task_id)
    Z = hidden_batch(model, np.asarray(X, dtype=np.float64)) @ head.W2.T
    Z += head.b2
    return Z


def mean_loss_of_logits(Z, Y) -> float:
    """Mean cross-entropy -ln(softmax(z)_y + eps) over the rows of a (n, k) logit matrix."""
    P = softmax_rows(Z)
    picked = P[np.arange(len(Y)), Y]
    return float(np.mean(-np.log(picked + LOG_EPS)))


@dataclass
class GradSnapshot:
    rep_grad: np.ndarray   # flattened over (W1, b1)
    head_grad: np.ndarray  # flattened over (W2, b2)
    task_id: str


def backward(model, task_id, data) -> GradSnapshot:
    """Exact gradient of task_loss over the full dataset."""
    if len(data.labels) == 0:
        raise EmptyBatchError(f"backward over an empty dataset for {task_id!r}")
    dW1, db1, dW2, db2 = backward_arrays(model, task_id, data.features, data.labels)
    return GradSnapshot(
        rep_grad=np.concatenate([dW1.ravel(), db1]),
        head_grad=np.concatenate([dW2.ravel(), db2]),
        task_id=task_id,
    )


def weighted_rep_grad(model, parts) -> np.ndarray:
    """Rep gradient of sum over RepHessian-style parts of sum_i coeff_i * CE_i."""
    total = np.zeros(model.rep_param_count())
    for task_id, X, Y, coeff in parts:
        dW1, db1, _, _ = backward_arrays(model, task_id, X, Y, coeff)
        total += np.concatenate([dW1.ravel(), db1])
    return total


def fd_rep_hessian(model, parts, step) -> np.ndarray:
    """Dense Hessian of the weighted loss by central differences of its gradient."""
    probe = copy_model(model)
    phi = model.rep_params.copy()
    H = np.empty((phi.size, phi.size))
    for j in range(phi.size):
        orig = phi[j]
        phi[j] = orig + step
        probe.rep_params[:] = phi
        up = weighted_rep_grad(probe, parts)
        phi[j] = orig - step
        probe.rep_params[:] = phi
        down = weighted_rep_grad(probe, parts)
        phi[j] = orig
        H[:, j] = (up - down) / (2.0 * step)
    return H


def dense_rep_hessian(model, parts) -> np.ndarray:
    """RepHessian(model, parts) as a dense matrix, one matvec per column."""
    H = RepHessian(model, parts)
    return np.stack([H.matvec(e) for e in np.eye(H.dim)], axis=1)


def dense_solve(H, b, ridge=None) -> np.ndarray:
    """(H + ridge I)^{-1} b by np.linalg.solve, ridge by hessian_cg_solve's rule."""
    dim = H.shape[0]
    if ridge is None:
        ridge = max(1e-6 * abs(float(np.trace(H))) / dim, 1e-12)
    return np.linalg.solve(H + ridge * np.eye(dim), b)


def min_abs_preactivation(model, X) -> float:
    return float(np.min(np.abs(X @ model.W1.T + model.b1)))


def savez_dataset(dataset, path) -> None:
    """save_dataset's archive written by np.savez through an open file."""
    with open(path, "wb") as fh:
        np.savez(
            fh, features=dataset.features, labels=dataset.labels,
            n_classes=np.int64(dataset.n_classes),
        )


class BracketingViolationError(ValueError):
    """No pair of source risks brackets the target risk."""


def matching_weights(source_risks, target_risk: float) -> SimplexWeights:
    """Two-task weights making the weighted source risk equal the target risk.

    Requires a bracketing pair: one source risk at or below the target's and
    one at or above. Picks the nearest such pair (ties to the lowest index)
    and solves the two-point interpolation exactly; the returned weights
    satisfy sum_t w_t * risk_t == target_risk to within a few ulps.
    """
    risks = np.asarray(source_risks, dtype=np.float64)
    if risks.ndim != 1 or risks.size == 0:
        raise DimensionError("source_risks must be a nonempty vector")
    target_risk = float(target_risk)
    below = np.flatnonzero(risks <= target_risk)
    above = np.flatnonzero(risks >= target_risk)
    if below.size == 0 or above.size == 0:
        raise BracketingViolationError(
            f"no source risks bracket the target risk {target_risk}"
        )
    lo = below[np.argmax(risks[below])]
    hi = above[np.argmin(risks[above])]
    w = np.zeros(risks.size)
    if risks[lo] == risks[hi]:
        w[lo] = 1.0
    else:
        span = risks[hi] - risks[lo]
        w[lo] = (risks[hi] - target_risk) / span
        w[hi] = (target_risk - risks[lo]) / span
    return SimplexWeights(w)


def identity_hessian_task_gradient(
    g0: np.ndarray, gt: np.ndarray, const_scale: float = DEFAULT_IDENTITY_HESSIAN_SCALE
) -> float:
    """-const * <g0, gt>: inverse Hessian replaced by const * identity."""
    g0 = np.asarray(g0, dtype=np.float64)
    gt = np.asarray(gt, dtype=np.float64)
    if g0.shape != gt.shape:
        raise DimensionError(f"length mismatch: {g0.shape} vs {gt.shape}")
    return float(-const_scale * (g0 @ gt))
