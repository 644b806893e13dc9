"""Per-point ambiguity from local label geometry.

A point whose K-neighborhood mixes labels gets an ambiguity in (0, 1] driven by
the gap between its intra-class and inter-class closeness centralities; a pure
neighborhood gives 0 and an isolated anchor (no same-label neighbor but itself)
gives 1. The neighbourhoods are the caller's ``knn_all(positions, K)``: K is the
width of that search, and this module runs no search of its own.

The mixed-neighbourhood sigmoid goes through libm's ``math.exp``, not numpy's
run-time-dispatched SIMD ``np.exp``, which differs from libm by 1-2 ulp on some
arguments. So ``ambiguity_map`` is bit-equal to a ``math.exp`` reference on
any host.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class AefConfig:
    beta: float = 0.04
    dup_epsilon: float = 1e-9


@dataclass(frozen=True)
class AmbiguityMap:
    values: np.ndarray


def _inverse_sigmoid(z: float) -> float:
    """1 / (1 + exp(z)) with libm's exp; a gap too large for exp saturates to 0."""
    try:
        return 1.0 / (1.0 + math.exp(z))
    except OverflowError:
        return 0.0


def ambiguity_map(labels: np.ndarray, search: tuple[np.ndarray, np.ndarray],
                  cfg: AefConfig) -> AmbiguityMap:
    """Ambiguity for every point of a cloud with per-point ``labels``.

    ``search`` is the (indices, squared distances) pair of ``knn_all(positions,
    K)``, or its first K columns of a wider one; each point's K neighbours are
    its row. Vectorized, but bit-equal to a ``math.exp`` reference on any host:
    only the closeness sums run in numpy; each mixed point's product with beta
    runs in Python floats and its sigmoid in ``_inverse_sigmoid``.
    """
    nbrs, d2 = search
    k = nbrs.shape[1]
    same = labels[nbrs] == labels[:, None]
    n_plus = same.sum(axis=1)
    n_minus = k - n_plus
    d_plus = np.sum(d2 * same, axis=1)
    d_minus = np.sum(d2 * ~same, axis=1)
    cc_plus = n_plus / np.maximum(d_plus, cfg.dup_epsilon)
    cc_minus = np.where(n_minus == 0, 0.0, n_minus / np.maximum(d_minus, cfg.dup_epsilon))
    values = np.where(n_plus == 1, 1.0, 0.0)
    mixed = np.flatnonzero((n_plus > 1) & (n_plus < k))
    gap = cc_plus[mixed] - cc_minus[mixed]
    # a Python product past the float range is a silent +-inf, which saturates
    values[mixed] = [_inverse_sigmoid(cfg.beta * d) for d in gap.tolist()]
    return AmbiguityMap(values=values)
