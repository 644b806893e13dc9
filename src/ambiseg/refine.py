"""Masked embedding refinement driven by predicted ambiguity.

High-ambiguity anchors (self mask inside the threshold band) have their
embedding replaced by the lowest-ambiguity neighbor's snapshot embedding and
blended back at the refining rate. Snapshot semantics: refinements within a
stage never see each other's output. ``build_masks`` computes the masks and
``refine`` applies them as one ``weighted_rows`` node with a self column.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ambiseg import autograd as ag


@dataclass(frozen=True)
class RefineConfig:
    epsilon_lo: float = 0.9
    epsilon_hi: float = 1.0
    gamma: float = 1.0
    k_tilde: int = 12
    # "sum" keeps every minimizing neighbor per the literal mask definition,
    # inflating magnitude when ties occur; "single" keeps the lowest index.
    cross_mask_mode: str = "single"

    def __post_init__(self):
        for name in ("epsilon_lo", "epsilon_hi", "gamma"):
            v = getattr(self, name)
            if not 0.0 <= v <= 1.0:
                raise ValueError(f"{name} must lie in [0, 1]")
        if self.epsilon_lo > self.epsilon_hi:
            raise ValueError("epsilon_lo must be <= epsilon_hi")
        if self.k_tilde < 2:
            raise ValueError("k_tilde must be >= 2")
        if self.cross_mask_mode not in ("single", "sum"):
            raise ValueError("cross_mask_mode must be 'single' or 'sum'")


@dataclass(frozen=True)
class MaskSet:
    self_mask: np.ndarray   # (n,) uint8
    cross_mask: np.ndarray  # (n, k_tilde - 1) uint8
    pooled: np.ndarray      # (n,) minimum neighbor ambiguity


def build_masks(pred_values: np.ndarray, nbr: np.ndarray, cfg: RefineConfig) -> MaskSet:
    """Self and cross masks for precomputed neighbor index rows."""
    vals = np.asarray(pred_values, dtype=np.float64)
    sm = ((vals >= cfg.epsilon_lo) & (vals <= cfg.epsilon_hi)).astype(np.uint8)
    nbr_vals = vals[nbr]
    pooled = nbr_vals.min(axis=1)
    cm = np.zeros(nbr.shape, dtype=np.uint8)
    if cfg.cross_mask_mode == "sum":
        cm[nbr_vals == pooled[:, None]] = 1
    else:
        np.put_along_axis(cm, np.argmin(nbr_vals, axis=1)[:, None], 1, axis=1)
    return MaskSet(self_mask=sm, cross_mask=cm, pooled=pooled)


def refine(x: ag.Tensor, pred_values: np.ndarray, nbr: np.ndarray, cfg: RefineConfig) -> ag.Tensor:
    """Masked refinement of a stage's (n, D) features; ``nbr`` excludes the anchor.

    Returns ``x`` itself when ``gamma`` is 0 or no self-mask bit is set. Otherwise
    each row is ``(1 - gamma * s_i) x_i + gamma * s_i * sum_h c_ih x_nbr_ih`` with
    self bit ``s_i`` and cross bits ``c_ih``, all read from ``x`` (snapshot
    semantics). The mask logic is constant; only ``x`` is differentiated.
    """
    if cfg.gamma == 0.0:
        return x
    masks = build_masks(pred_values, nbr, cfg)
    if not masks.self_mask.any():
        return x
    sm = masks.self_mask.astype(np.float64)
    self_coef = 1.0 - cfg.gamma * sm
    nbr_weights = cfg.gamma * sm[:, None] * masks.cross_mask
    n = nbr.shape[0]
    return ag.weighted_rows(x, np.concatenate([np.arange(n)[:, None], nbr], axis=1),
                            np.concatenate([self_coef[:, None], nbr_weights], axis=1))
