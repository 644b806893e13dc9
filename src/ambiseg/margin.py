"""Adaptive margins and the margin-modulated contrastive objective.

The per-point margin m = mu * a + nu shifts the contrastive decision boundary:
positive margins harden the objective for unambiguous points, negative margins
relax it for ambiguous ones. The loss averages over points that actually have
inter-class neighbors and comes with analytic feature gradients.
"""
from __future__ import annotations

import numpy as np

from ambiseg.autograd import _row_operator

# Lower clamp on feature norms in cosine similarity; untrained features can be
# nearly zero.
NORM_EPSILON = 1e-12


def margin_map(ambiguities: np.ndarray, mu: float, nu: float) -> np.ndarray:
    return mu * ambiguities + nu


def loss_am_indexed(feats: np.ndarray, nbr: np.ndarray, intra: np.ndarray,
                    margins: np.ndarray, tau: float) -> tuple[float, np.ndarray]:
    """Adaptive margin contrastive loss and its analytic feature gradients.

    ``nbr`` holds each point's (n, K) neighbour indices and ``intra`` marks the
    neighbours that share the anchor's label. Only points with an inter-class
    neighbour contribute; the self pair has a constant similarity of 1 and
    therefore zero gradient. Exponentials are stabilized by factoring out the
    per-point maximum exponent.
    """
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
