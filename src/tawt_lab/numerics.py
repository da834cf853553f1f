"""Dense float64 numeric primitives shared by every other module.

A stable row-wise softmax, cosine similarity with an explicit
zero-vector convention, and seeded, platform-stable random streams with a
64-bit mixing function for deriving independent child streams.

All computation is plain float64; there is no mixed precision anywhere.
"""

from __future__ import annotations

import numpy as np

# Added inside every log so confident wrong predictions stay finite.
LOG_EPS = 1e-12
# Norms below this count as zero: cosine similarity with a vanished gradient
# is defined as 0, so it carries no alignment signal downstream.
ZERO_NORM_EPS = 1e-12

_MASK64 = (1 << 64) - 1


class DimensionError(ValueError):
    """An input has the wrong shape, or shapes disagree."""


class NumericError(ArithmeticError):
    """A computation produced or received a non-finite value."""


def _vector(x, name: str = "input") -> np.ndarray:
    v = np.ascontiguousarray(x, dtype=np.float64)
    if v.ndim != 1:
        raise DimensionError(f"{name} must be one-dimensional, got shape {v.shape}")
    return v


def softmax_rows(logits: np.ndarray) -> np.ndarray:
    """Row-wise softmax of a (n, k) logit matrix."""
    z = np.asarray(logits, dtype=np.float64)
    if z.ndim != 2 or z.shape[1] == 0:
        raise DimensionError(f"expected a (n, k) logit matrix, got shape {z.shape}")
    e = np.exp(z - z.max(axis=1, keepdims=True))
    return e / e.sum(axis=1, keepdims=True)


def cosine_similarity(u, v) -> float:
    """<u, v> / (|u| |v|), clipped to [-1, 1]; 0 if either norm vanishes."""
    a = _vector(u, "u")
    b = _vector(v, "v")
    if a.size != b.size:
        raise DimensionError(f"length mismatch: {a.size} vs {b.size}")
    return float(cosine_from_products(a @ b, np.linalg.norm(a), np.linalg.norm(b)))


def cosine_from_products(dot, norm_u, norm_v) -> np.ndarray:
    """dot / (norm_u * norm_v) clipped to [-1, 1], elementwise; 0 where either
    norm is below ZERO_NORM_EPS. The result has dot's shape."""
    live = ~((norm_u < ZERO_NORM_EPS) | (norm_v < ZERO_NORM_EPS))
    cos = np.divide(dot, norm_u * norm_v, out=np.zeros(np.shape(dot)), where=live)
    return np.clip(cos, -1.0, 1.0, out=cos)


def _mix64(h: int) -> int:
    h = (h ^ (h >> 30)) * 0xBF58476D1CE4E5B9 & _MASK64
    h = (h ^ (h >> 27)) * 0x94D049BB133111EB & _MASK64
    return h ^ (h >> 31)


def hash64(*parts: int | str) -> int:
    """Deterministic 64-bit hash of a tuple of ints / short strings.

    Used to derive independent child seeds; stable across platforms and
    Python processes (unlike the builtin hash).
    """
    h = 0x9E3779B97F4A7C15
    for part in parts:
        if isinstance(part, str):
            h = _mix64(h ^ 0xC2B2AE3D27D4EB4F)
            for byte in part.encode("utf-8"):
                h = _mix64(h ^ byte)
        elif isinstance(part, (int, np.integer)):
            h = _mix64(h ^ (int(part) & _MASK64))
        else:
            raise TypeError(f"hash64 parts must be int or str, got {type(part)!r}")
    return h


class Rng:
    """Seeded random stream; identical seeds give bitwise-identical draws."""

    def __init__(self, seed: int):
        self.seed = int(seed) & _MASK64
        self._gen = np.random.Generator(np.random.PCG64(self.seed))

    def uniform(self, low: float, high: float, size=None):
        return self._gen.uniform(low, high, size=size)

    def integers(self, low: int, high: int, size=None):
        """Integers in [low, high)."""
        return self._gen.integers(low, high, size=size)

    def permutation(self, n: int) -> np.ndarray:
        return self._gen.permutation(n)

    def subset(self, n: int, k: int) -> np.ndarray:
        """k distinct indices from range(n), drawn without replacement."""
        if k > n:
            raise ValueError(f"cannot draw {k} distinct indices from {n}")
        return self._gen.choice(n, size=k, replace=False)

    def spawn(self, *parts: int | str) -> "Rng":
        """Independent child stream derived from (seed, *parts)."""
        return Rng(hash64(self.seed, *parts))

    def __repr__(self) -> str:
        return f"Rng(seed={self.seed})"


def float_repr17(x: float) -> str:
    """17-significant-digit decimal form; round-trips float64 exactly."""
    return format(float(x), ".17g")
