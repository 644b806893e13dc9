"""Adaptive margins and the margin-modulated contrastive objective.

The per-point margin m = mu * a + nu shifts the contrastive decision boundary:
positive margins harden the objective for unambiguous points, negative margins
relax it for ambiguous ones. The loss averages over points that actually have
inter-class neighbors and comes with analytic feature gradients.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ambiseg.ambiguity import AmbiguityMap, NeighborPartition
from ambiseg.autograd import _row_operator

# Lower clamp on feature norms in cosine similarity; untrained features can be
# nearly zero.
NORM_EPSILON = 1e-12


@dataclass(frozen=True)
class MarginConfig:
    mu: float = -1.0
    nu: float = 0.5
    tau: float = 0.3

    def __post_init__(self):
        if self.tau <= 0:
            raise ValueError("tau must be > 0")


@dataclass(frozen=True)
class MarginMap:
    values: np.ndarray
    stage: int = 0


@dataclass(frozen=True)
class ContrastBatch:
    features: np.ndarray
    partitions: Sequence[NeighborPartition]
    margins: MarginMap
    ambiguities: AmbiguityMap


def margin(a: float, cfg: MarginConfig) -> float:
    if not 0.0 <= a <= 1.0:
        raise ValueError("ambiguity must lie in [0, 1]")
    return cfg.mu * a + cfg.nu


def margin_map(amb: AmbiguityMap, cfg: MarginConfig) -> MarginMap:
    return MarginMap(values=cfg.mu * amb.values + cfg.nu, stage=amb.stage)


def cosine_sim(u: np.ndarray, v: np.ndarray, norm_epsilon: float = NORM_EPSILON) -> float:
    u = np.asarray(u, dtype=np.float64)
    v = np.asarray(v, dtype=np.float64)
    if u.shape != v.shape:
        raise ValueError("vectors must have equal dimension")
    nu_ = max(float(np.linalg.norm(u)), norm_epsilon)
    nv_ = max(float(np.linalg.norm(v)), norm_epsilon)
    return float(np.dot(u, v) / (nu_ * nv_))


def contrastive_embeddings(sim_plus: float, sim_minus: float, m: float, tau: float) -> tuple[float, float]:
    """Margin-shifted intra embedding and plain inter embedding."""
    emb_ij = float(np.exp((sim_plus - m) / tau))
    emb_ik = float(np.exp(sim_minus / tau))
    return emb_ij, emb_ik


def _neighbor_matrix(partitions: Sequence[NeighborPartition]) -> tuple[np.ndarray, np.ndarray]:
    """Stack partitions into an (n, K) index matrix plus an intra mask."""
    n = len(partitions)
    k = len(partitions[0].intra) + len(partitions[0].inter)
    nbr = np.empty((n, k), dtype=np.int64)
    intra = np.zeros((n, k), dtype=bool)
    for i, part in enumerate(partitions):
        ni = len(part.intra)
        nbr[i, :ni] = part.intra
        nbr[i, ni:] = part.inter
        intra[i, :ni] = True
    return nbr, intra


def loss_am(batch: ContrastBatch, cfg: MarginConfig) -> tuple[float, np.ndarray]:
    """Adaptive margin contrastive loss and its analytic feature gradients.

    Only points with a non-empty inter set contribute; the self pair has a
    constant similarity of 1 and therefore zero gradient. Exponentials are
    stabilized by factoring out the per-point maximum exponent.
    """
    feats = np.asarray(batch.features, dtype=np.float64)
    n = feats.shape[0]
    if len(batch.partitions) != n or len(batch.margins.values) != n:
        raise ValueError("batch sequences must share length n")
    nbr, intra = _neighbor_matrix(batch.partitions)
    return loss_am_indexed(feats, nbr, intra, np.asarray(batch.margins.values, dtype=np.float64), cfg.tau)


def loss_am_indexed(feats: np.ndarray, nbr: np.ndarray, intra: np.ndarray,
                    margins: np.ndarray, tau: float) -> tuple[float, np.ndarray]:
    """loss_am on precomputed (n, K) neighbor indices and intra mask."""
    loss, grad_s, norms, unit, sims = _loss_am_core(feats, nbr, intra, margins, tau)
    grad = _chain_to_features(feats, nbr, grad_s, norms, unit, sims)
    return loss, grad


def _loss_am_core(feats, nbr, intra, margins, tau):
    """Loss value and gradient w.r.t. each pairwise cosine similarity."""
    norms = np.linalg.norm(feats, axis=1)
    unit = feats / np.maximum(norms, NORM_EPSILON)[:, None]
    sims = np.einsum("nd,nkd->nk", unit, unit[nbr])
    expo = np.where(intra, (sims - margins[:, None]) / tau, sims / tau)
    peak = expo.max(axis=1, keepdims=True)
    e = np.exp(expo - peak)
    s_plus = np.sum(e * intra, axis=1)
    s_minus = np.sum(e * ~intra, axis=1)
    ambiguous = ~intra.all(axis=1)
    n_amb = int(np.count_nonzero(ambiguous))
    if n_amb == 0:
        return 0.0, np.zeros_like(sims), norms, unit, sims
    total = s_plus + s_minus
    per_point = -np.log(s_plus / total)
    loss = float(np.sum(per_point[ambiguous]) / n_amb)

    coef_intra = (1.0 / total - 1.0 / s_plus)[:, None]
    coef_inter = (1.0 / total)[:, None]
    grad_s = np.where(intra, e * coef_intra, e * coef_inter) / tau
    grad_s[~ambiguous] = 0.0
    grad_s /= n_amb
    grad_s[nbr == np.arange(feats.shape[0])[:, None]] = 0.0  # self pair is constant
    return loss, grad_s, norms, unit, sims


def _chain_to_features(feats, nbr, grad_s, norms, unit, sims):
    """Chain gradients through cosine similarity to both ends of each pair.

    With G the (n, n) operator holding grad_s[i, k] at (i, nbr[i, k]):
    anchor side  d sim / d f_i = (u_j - sim * u_i) / |f_i|  sums to G @ u,
    neighbor side d sim / d f_j = (u_i - sim * u_j) / |f_j|  sums to G.T @ u,
    each less its sim-weighted self term (zero for clamped, inactive rows).
    """
    n = feats.shape[0]
    denom = np.maximum(norms, NORM_EPSILON)[:, None]
    active = (norms > NORM_EPSILON)[:, None]
    gs = grad_s * sims
    op = _row_operator(nbr, grad_s, n)
    grad = (op @ unit - gs.sum(axis=1)[:, None] * active * unit) / denom
    grad += (op.T @ unit - np.bincount(nbr.ravel(), gs.ravel(), minlength=n)[:, None]
             * active * unit) / denom
    return grad


def loss_seg(l_ce: float, l_am_stages: Sequence[float], lam: float) -> float:
    """Convex blend of cross-entropy and the summed per-stage contrastive losses."""
    if not 0.0 <= lam <= 1.0:
        raise ValueError("lambda must lie in [0, 1]")
    return lam * l_ce + (1.0 - lam) * float(np.sum(l_am_stages))
