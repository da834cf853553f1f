"""Simplex weight vectors and everything that moves them.

Holds the immutable simplex representation, the two initialization schemes
(uniform, proportional-to-sample-size), three estimators of the per-task
weight gradient (cosine alignment, inverse-Hessian solve, identity-Hessian
inner product), the multiplicative mirror-descent step, and the closed-form
two-task matching construction for bracketing risk profiles.

The weight gradient g_t is negative when source task t's training signal
aligns with the target's, so a mirror-descent step grows that weight.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from .model import SharedModel, backward
from .numerics import DimensionError, cosine_from_products, cosine_similarity

DEFAULT_IDENTITY_HESSIAN_SCALE = 5.0
DEFAULT_HESSIAN_FD_STEP = 1e-4
DEFAULT_REP_PARAM_CAP = 200
SIMPLEX_TOL = 1e-9


class DegenerateWeightsError(ArithmeticError):
    """A multiplicative update underflowed every positive weight to zero."""


class BracketingViolationError(ValueError):
    """No pair of source risks brackets the target risk."""


class CapacityError(ValueError):
    """The dense Hessian estimator was asked for more parameters than its cap."""


class SingularSystemError(ArithmeticError):
    """The weighted Hessian solve failed even after ridge escalation."""


@dataclass(frozen=True)
class SimplexWeights:
    """Nonnegative weights summing to one. Immutable value type."""

    values: np.ndarray

    def __post_init__(self):
        v = np.array(self.values, dtype=np.float64, copy=True)
        if v.ndim != 1 or v.size == 0:
            raise DimensionError("weights must form a nonempty vector")
        if not np.all(np.isfinite(v)):
            raise ValueError("weights must be finite")
        if np.any(v < 0.0):
            raise ValueError("weights must be nonnegative")
        total = float(v.sum())
        if total <= 0.0:
            raise ValueError("weights must have a positive sum")
        if abs(total - 1.0) > SIMPLEX_TOL:
            v = v / total
        v.flags.writeable = False
        object.__setattr__(self, "values", v)

    def __len__(self) -> int:
        return self.values.size

    def __getitem__(self, i: int) -> float:
        return float(self.values[i])

    @classmethod
    def from_values(cls, values) -> "SimplexWeights":
        v = np.asarray(values, dtype=np.float64)
        total = v.sum()
        return cls(v / total if total > 0 else v)


def init_weights(mode: str, sizes) -> SimplexWeights:
    """Starting weights: 'proportional' w_t = n_t / sum n, or 'uniform' 1/T."""
    sizes = np.asarray(sizes, dtype=np.float64)
    if sizes.size == 0:
        raise ValueError("need at least one task size")
    if np.any(sizes <= 0):
        raise ValueError(f"task sizes must be positive, got {sizes.tolist()}")
    if mode == "proportional":
        return SimplexWeights(sizes / sizes.sum())
    if mode == "uniform":
        return SimplexWeights(np.full(sizes.size, 1.0 / sizes.size))
    raise ValueError(f"unknown weight init mode {mode!r}")


def cosine_task_gradient(g0: np.ndarray, gt: np.ndarray, c: float) -> float:
    """-c * cos(g0, gt): most negative when the gradients align perfectly."""
    if c <= 0:
        raise ValueError(f"scale c must be positive, got {c}")
    return -c * cosine_similarity(g0, gt)


def cosine_example_gradients(dots, norm0, norms, c: float) -> np.ndarray:
    """cosine_task_gradient of g0 against many g_i, from <g0, g_i>, |g0| and |g_i|.

    Both take the cosine from numerics.cosine_from_products (clipped to
    [-1, 1]; 0 when either gradient vanishes, so the result is -0.0).
    """
    if c <= 0:
        raise ValueError(f"scale c must be positive, got {c}")
    return -c * cosine_from_products(dots, norm0, norms)


def identity_hessian_task_gradient(
    g0: np.ndarray, gt: np.ndarray, const_scale: float = DEFAULT_IDENTITY_HESSIAN_SCALE
) -> float:
    """-const * <g0, gt>: inverse Hessian replaced by const * identity."""
    g0 = np.asarray(g0, dtype=np.float64)
    gt = np.asarray(gt, dtype=np.float64)
    if g0.shape != gt.shape:
        raise DimensionError(f"length mismatch: {g0.shape} vs {gt.shape}")
    return float(-const_scale * (g0 @ gt))


def hessian_solve_task_gradients(
    phi0: np.ndarray,
    weighted_grad_fn: Callable[[np.ndarray], np.ndarray],
    rhs_grads: np.ndarray,
    target_grad: np.ndarray,
    fd_step: float = DEFAULT_HESSIAN_FD_STEP,
    ridge: float | None = None,
    max_escalations: int = 4,
) -> np.ndarray:
    """g_t = -<target_grad, H^{-1} rhs_grads[t]> with H assembled numerically.

    H is the Jacobian of the weighted objective's gradient at phi0, built by
    central differences of weighted_grad_fn. Solves are regularized with a
    ridge that starts at 1e-6 * trace(H)/dim and escalates tenfold on
    failure, up to max_escalations times.
    """
    phi0 = np.asarray(phi0, dtype=np.float64).copy()
    dim = phi0.size
    rhs = np.atleast_2d(np.asarray(rhs_grads, dtype=np.float64))
    target_grad = np.asarray(target_grad, dtype=np.float64)
    if rhs.shape[1] != dim or target_grad.size != dim:
        raise DimensionError("gradient lengths must match the parameter count")

    H = np.empty((dim, dim))
    for j in range(dim):
        orig = phi0[j]
        phi0[j] = orig + fd_step
        up = weighted_grad_fn(phi0)
        phi0[j] = orig - fd_step
        down = weighted_grad_fn(phi0)
        phi0[j] = orig
        H[:, j] = (up - down) / (2.0 * fd_step)

    if ridge is None:
        trace = float(np.trace(H))
        ridge = max(1e-6 * abs(trace) / dim, 1e-12)
    for _ in range(max_escalations + 1):
        try:
            solution = np.linalg.solve(H + ridge * np.eye(dim), rhs.T)
        except np.linalg.LinAlgError:
            ridge *= 10.0
            continue
        if np.all(np.isfinite(solution)):
            return -(target_grad @ solution)
        ridge *= 10.0
    raise SingularSystemError(
        f"weighted Hessian solve failed after {max_escalations} ridge escalations"
    )


def hessian_task_gradient(
    model: SharedModel,
    tasks,
    weights: SimplexWeights,
    target,
    ridge: float | None = None,
    fd_step: float = DEFAULT_HESSIAN_FD_STEP,
    rep_param_cap: int = DEFAULT_REP_PARAM_CAP,
) -> np.ndarray:
    """Weight gradient per task via a dense solve against the weighted Hessian.

    Small-scale oracle: the representation is perturbed coordinate by
    coordinate, so the parameter count is capped. Heads stay frozen while
    the representation varies.
    """
    if len(weights) != len(tasks):
        raise DimensionError(f"{len(weights)} weights for {len(tasks)} tasks")
    dim = model.rep_param_count()
    if dim > rep_param_cap:
        raise CapacityError(
            f"representation has {dim} parameters, cap is {rep_param_cap}"
        )
    probe = model.copy()

    def weighted_grad(phi: np.ndarray) -> np.ndarray:
        probe.set_rep_flat(phi)
        total = np.zeros(dim)
        for w, task in zip(weights.values, tasks):
            if w == 0.0:
                continue
            total += w * backward(probe, task.task_id, task).rep_grad
        return total

    phi0 = model.rep_flat()
    rhs = np.stack([backward(model, task.task_id, task).rep_grad for task in tasks])
    target_grad = backward(model, target.task_id, target).rep_grad
    return hessian_solve_task_gradients(
        phi0, weighted_grad, rhs, target_grad, fd_step=fd_step, ridge=ridge
    )


def mirror_descent_step(w: SimplexWeights, g: np.ndarray, eta: float) -> SimplexWeights:
    """Multiplicative update w_t <- w_t exp(-eta g_t), renormalized.

    Computed with max-subtraction on -eta*g for overflow safety. eta == 0
    returns w itself (exact identity, bit for bit).
    """
    g = np.asarray(g, dtype=np.float64)
    if g.shape != (len(w),):
        raise DimensionError(f"gradient length {g.size} != weight length {len(w)}")
    if eta < 0:
        raise ValueError(f"eta must be nonnegative, got {eta}")
    if eta == 0.0:
        return w
    u = -eta * g
    u -= u.max()
    scaled = w.values * np.exp(u)
    total = scaled.sum()
    if not np.isfinite(total) or total <= 0.0:
        raise DegenerateWeightsError(
            "all weights vanished under the multiplicative update"
        )
    return SimplexWeights(scaled / total)


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
