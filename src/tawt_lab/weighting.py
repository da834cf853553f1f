"""Simplex weight vectors and everything that moves them.

Holds the immutable simplex representation, the two initialization schemes
(uniform, proportional-to-sample-size), the per-task weight gradients of
the cosine and identity-Hessian estimators, the conjugate-gradient solve
s = H^{-1} g0 that turns the identity-Hessian inner product into the exact
one, the multiplicative mirror-descent step, and the closed-form two-task
matching construction for bracketing risk profiles.

The weight gradient g_t is negative when source task t's training signal
aligns with the target's, so a mirror-descent step grows that weight.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from .numerics import DimensionError, cosine_from_products, cosine_similarity

DEFAULT_IDENTITY_HESSIAN_SCALE = 5.0
SIMPLEX_TOL = 1e-9
# hessian_cg_solve: the ridge starts at RIDGE_FRACTION * |tr H| / dim (at
# least MIN_RIDGE) and grows tenfold after each failed attempt, at most
# RIDGE_ESCALATIONS times.
RIDGE_FRACTION = 1e-6
MIN_RIDGE = 1e-12
RIDGE_ESCALATIONS = 4
CG_RTOL = 1e-10
CG_MAX_ITER_PER_DIM = 10


class DegenerateWeightsError(ArithmeticError):
    """A multiplicative update underflowed every positive weight to zero."""


class BracketingViolationError(ValueError):
    """No pair of source risks brackets the target risk."""


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


def hessian_cg_solve(
    matvec: Callable[[np.ndarray], np.ndarray],
    b: np.ndarray,
    trace: float,
    ridge: float | None = None,
) -> np.ndarray:
    """s = (H + ridge I)^{-1} b by conjugate gradients, H symmetric and given as matvec.

    ridge None starts at max(RIDGE_FRACTION * |trace| / dim, MIN_RIDGE). An
    attempt fails on a non-finite value, on non-positive curvature or on no
    convergence (|residual| <= CG_RTOL * |b|) within CG_MAX_ITER_PER_DIM * dim
    steps; the ridge then grows tenfold, up to RIDGE_ESCALATIONS times, before
    SingularSystemError.
    """
    b = np.asarray(b, dtype=np.float64)
    dim = b.size
    if ridge is None:
        ridge = max(RIDGE_FRACTION * abs(trace) / dim, MIN_RIDGE)
    for _ in range(RIDGE_ESCALATIONS + 1):
        s = _conjugate_gradient(lambda v: matvec(v) + ridge * v, b)
        if s is not None:
            return s
        ridge *= 10.0
    raise SingularSystemError(
        f"weighted Hessian solve failed after {RIDGE_ESCALATIONS} ridge escalations"
    )


def _conjugate_gradient(matvec, b: np.ndarray) -> np.ndarray | None:
    """Plain CG from s = 0; None on a non-finite value, curvature <= 0 or no convergence."""
    s = np.zeros(b.size)
    res = b.copy()
    rr = float(res @ res)
    stop = (CG_RTOL * CG_RTOL) * rr
    p = res.copy()
    for _ in range(CG_MAX_ITER_PER_DIM * b.size):
        if rr <= stop:
            return s
        Ap = matvec(p)
        curvature = float(p @ Ap)
        if not np.isfinite(curvature) or curvature <= 0.0:
            return None
        alpha = rr / curvature
        s += alpha * p
        res -= alpha * Ap
        rr_next = float(res @ res)
        if not np.isfinite(rr_next):
            return None
        p *= rr_next / rr
        p += res
        rr = rr_next
    return s if rr <= stop else None


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
