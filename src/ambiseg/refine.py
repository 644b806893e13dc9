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
from ambiseg.config import Config


@dataclass(frozen=True)
class MaskSet:
    self_mask: np.ndarray   # (n,) uint8
    cross_mask: np.ndarray  # (n, k_tilde - 1) uint8


def build_masks(pred_values: np.ndarray, nbr: np.ndarray, cfg: Config) -> MaskSet:
    """Self and cross masks for precomputed neighbor index rows; the cross mask
    marks the neighbour(s) of lowest ambiguity, per ``cfg.cross_mask_mode``."""
    vals = np.asarray(pred_values, dtype=np.float64)
    sm = ((vals >= cfg.epsilon_lo) & (vals <= cfg.epsilon_hi)).astype(np.uint8)
    nbr_vals = vals[nbr]
    cm = np.zeros(nbr.shape, dtype=np.uint8)
    if cfg.cross_mask_mode == "sum":
        cm[nbr_vals == nbr_vals.min(axis=1)[:, None]] = 1
    else:
        np.put_along_axis(cm, np.argmin(nbr_vals, axis=1)[:, None], 1, axis=1)
    return MaskSet(self_mask=sm, cross_mask=cm)


def refine(x: ag.Tensor, pred_values: np.ndarray, nbr: np.ndarray, cfg: Config) -> ag.Tensor:
    """Masked refinement of a stage's (n, D) features; ``nbr`` is each stage point's
    kNN row minus column 0. That column is the anchor, unless a coincident point of
    lower index ranks first: then the anchor's own index stays in ``nbr``. Coincident
    points share their rows, so their outputs stay bit-identical.

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
