"""Per-point ambiguity from local label geometry.

A point whose K-neighborhood mixes labels gets an ambiguity in (0, 1] driven by
the gap between its intra-class and inter-class closeness centralities; a pure
neighborhood gives 0 and an isolated anchor (no same-label neighbor but itself)
gives 1.

The mixed-neighbourhood sigmoid goes through libm's ``math.exp``, not numpy's
run-time-dispatched SIMD ``np.exp``, which differs from libm by 1-2 ulp on some
arguments. So ``ambiguity_map`` is bit-equal to a ``math.exp`` reference on
any host.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ambiseg.cloud import PointCloud, knn_all


@dataclass(frozen=True)
class AefConfig:
    k: int = 24
    beta: float = 0.04
    dup_epsilon: float = 1e-9

    def __post_init__(self):
        if self.k < 2:
            raise ValueError("K must be >= 2")
        if self.beta <= 0:
            raise ValueError("beta must be > 0")
        if not 0 < self.dup_epsilon <= 1e-6:
            raise ValueError("dup_epsilon must lie in (0, 1e-6]")


@dataclass(frozen=True)
class AmbiguityMap:
    values: np.ndarray
    stage: int = 0


def _inverse_sigmoid(z: float) -> float:
    """1 / (1 + exp(z)) with libm's exp; a gap too large for exp saturates to 0."""
    try:
        return 1.0 / (1.0 + math.exp(z))
    except OverflowError:
        return 0.0


def ambiguity_map(cloud: PointCloud, cfg: AefConfig, stage: int = 0,
                  nbrs: np.ndarray | None = None) -> AmbiguityMap:
    """Ambiguity for every point.

    ``nbrs`` is the (n, K) ``knn_all`` matrix when the caller already holds it;
    without it the search runs here. Vectorized, but bit-equal to a
    ``math.exp`` reference on any host: only the neighbour search and the
    closeness sums run in numpy, and each mixed point's sigmoid runs in
    ``_inverse_sigmoid``.
    """
    if cfg.k > cloud.n:
        raise ValueError(f"K={cfg.k} exceeds point count {cloud.n}")
    if nbrs is None:
        nbrs = knn_all(cloud.positions, cfg.k)
    elif nbrs.shape != (cloud.n, cfg.k):
        raise ValueError(f"neighbour matrix {nbrs.shape} != ({cloud.n}, {cfg.k})")
    diffs = cloud.positions[nbrs] - cloud.positions[:, None, :]
    d2 = np.sum(diffs ** 2, axis=2)
    same = cloud.labels[nbrs] == cloud.labels[:, None]
    n_plus = same.sum(axis=1)
    n_minus = cfg.k - n_plus
    d_plus = np.sum(d2 * same, axis=1)
    d_minus = np.sum(d2 * ~same, axis=1)
    cc_plus = n_plus / np.maximum(d_plus, cfg.dup_epsilon)
    cc_minus = np.where(n_minus == 0, 0.0, n_minus / np.maximum(d_minus, cfg.dup_epsilon))
    values = np.where(n_plus == 1, 1.0, 0.0)
    mixed = np.flatnonzero((n_plus > 1) & (n_plus < cfg.k))
    gap = cfg.beta * (cc_plus[mixed] - cc_minus[mixed])
    values[mixed] = [_inverse_sigmoid(z) for z in gap.tolist()]
    return AmbiguityMap(values=values, stage=stage)
