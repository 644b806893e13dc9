import math

import numpy as np
import pytest

from ambiseg.ambiguity import AmbiguityMap, NeighborPartition
from ambiseg.margin import (NORM_EPSILON, ContrastBatch, MarginConfig, MarginMap,
                            _loss_am_core, cosine_sim, contrastive_embeddings, loss_am,
                            loss_am_indexed, loss_seg, margin, margin_map)


def make_batch(rng, n=12, dim=5, k=4, num_classes=3, mu=-1.0, nu=0.5):
    feats = rng.normal(size=(n, dim))
    labels = rng.integers(0, num_classes, size=n)
    amb = rng.uniform(0.0, 1.0, size=n)
    parts = []
    for i in range(n):
        others = np.delete(np.arange(n), i)
        nbr = np.concatenate([[i], rng.choice(others, size=k - 1, replace=False)])
        same = labels[nbr] == labels[i]
        parts.append(NeighborPartition(anchor=i, intra=nbr[same], inter=nbr[~same],
                                       d_plus=0.0, d_minus=0.0))
    margins = MarginMap(values=mu * amb + nu)
    return ContrastBatch(features=feats, partitions=parts, margins=margins,
                         ambiguities=AmbiguityMap(values=amb)), labels


def reference_loss(batch, tau):
    """Independent scalar-loop evaluation of the margin-shifted contrast loss."""
    feats = batch.features
    total, count = 0.0, 0
    for part, m in zip(batch.partitions, batch.margins.values):
        if len(part.inter) == 0:
            continue
        count += 1
        num = sum(math.exp((cosine_sim(feats[part.anchor], feats[j]) - m) / tau)
                  for j in part.intra)
        den = num + sum(math.exp(cosine_sim(feats[part.anchor], feats[j]) / tau)
                        for j in part.inter)
        total += -math.log(num / den)
    return total / count


def test_margin_arithmetic():
    cfg = MarginConfig(mu=-1.0, nu=0.5)
    assert margin(0.5, cfg) == 0.0
    assert margin(0.0, cfg) == 0.5
    assert margin(1.0, cfg) == -0.5
    with pytest.raises(ValueError):
        margin(1.5, cfg)
    with pytest.raises(ValueError):
        margin(-0.1, cfg)
    with pytest.raises(ValueError):
        MarginConfig(tau=0.0)


def test_margin_map_is_linear():
    amb = AmbiguityMap(values=np.array([0.0, 0.25, 0.5, 1.0]), stage=2)
    mm = margin_map(amb, MarginConfig(mu=-1.0, nu=0.5))
    np.testing.assert_allclose(mm.values, [0.5, 0.25, 0.0, -0.5])
    assert mm.stage == 2


def test_cosine_sim():
    assert cosine_sim([1.0, 0.0], [0.0, 2.0]) == 0.0
    assert abs(cosine_sim([1.0, 1.0], [2.0, 2.0]) - 1.0) <= 1e-15
    assert cosine_sim([0.0, 0.0], [1.0, 0.0]) == 0.0  # clamped norm
    with pytest.raises(ValueError):
        cosine_sim([1.0, 0.0], [1.0, 0.0, 0.0])


def test_contrastive_embeddings():
    e_in, e_out = contrastive_embeddings(0.8, 0.2, m=0.5, tau=0.3)
    assert abs(e_in - math.exp((0.8 - 0.5) / 0.3)) <= 1e-15
    assert abs(e_out - math.exp(0.2 / 0.3)) <= 1e-15


def test_loss_value_matches_reference_loop():
    rng = np.random.default_rng(0)
    cfg = MarginConfig()
    for _ in range(20):
        batch, _ = make_batch(rng)
        value, _ = loss_am(batch, cfg)
        assert abs(value - reference_loss(batch, cfg.tau)) <= 1e-12


def test_zero_margin_reduces_to_plain_supervised_contrast():
    rng = np.random.default_rng(1)
    cfg = MarginConfig(mu=0.0, nu=0.0)
    for _ in range(20):
        batch, _ = make_batch(rng, mu=0.0, nu=0.0)
        assert np.all(batch.margins.values == 0.0)
        value, _ = loss_am(batch, cfg)
        assert abs(value - reference_loss(batch, cfg.tau)) <= 1e-12


def test_gradient_matches_central_differences():
    rng = np.random.default_rng(2)
    cfg = MarginConfig()
    batch, _ = make_batch(rng, n=8, dim=4)
    _, grad = loss_am(batch, cfg)
    feats = batch.features
    step = 1e-6
    for i in range(feats.shape[0]):
        for d in range(feats.shape[1]):
            orig = feats[i, d]
            feats[i, d] = orig + step
            hi, _ = loss_am(batch, cfg)
            feats[i, d] = orig - step
            lo, _ = loss_am(batch, cfg)
            feats[i, d] = orig
            num = (hi - lo) / (2 * step)
            assert abs(grad[i, d] - num) <= 1e-6 * max(1.0, abs(num))


def pairwise_feature_gradient(nbr, grad_s, norms, unit, sims):
    """Chain rule through cosine similarity with one (n, K, d) term per pair."""
    denom = np.maximum(norms, NORM_EPSILON)
    active = (norms > NORM_EPSILON).astype(np.float64)
    unit_nbr = unit[nbr]
    g = grad_s[..., None]
    anchor = unit_nbr - sims[..., None] * unit[:, None, :] * active[:, None, None]
    grad = np.sum(g * anchor, axis=1) / denom[:, None]
    other = (unit[:, None, :] - sims[..., None] * unit_nbr * active[nbr][..., None]) \
        / denom[nbr][..., None]
    np.add.at(grad, nbr.ravel(), (g * other).reshape(-1, unit.shape[1]))
    return grad


def test_feature_gradient_matches_the_pairwise_formula():
    rng = np.random.default_rng(4)
    for n, k, dim in [(12, 4, 5), (300, 12, 16)]:
        feats = rng.normal(size=(n, dim))
        feats[0] = 0.0                      # zero norm
        feats[1] = 1e-13                    # below NORM_EPSILON
        feats[2] = 3e-14 * rng.normal(size=dim)
        nbr = np.concatenate([np.arange(n)[:, None],
                              rng.integers(0, n, size=(n, k - 1))], axis=1)
        nbr[5, 1:3] = [0, 1]                # inactive rows as neighbours
        labels = rng.integers(0, 3, size=n)
        intra = labels[nbr] == labels[:, None]
        margins = rng.uniform(-0.5, 0.5, size=n)
        _, grad_s, norms, unit, sims = _loss_am_core(feats, nbr, intra, margins, 0.3)
        _, grad = loss_am_indexed(feats, nbr, intra, margins, 0.3)
        expected = pairwise_feature_gradient(nbr, grad_s, norms, unit, sims)
        err = np.abs(grad - expected) / np.maximum(1.0, np.abs(expected))
        assert err.max() <= 1e-12


def test_all_intra_batch_contributes_nothing():
    rng = np.random.default_rng(3)
    batch, _ = make_batch(rng, num_classes=1)
    value, grad = loss_am(batch, MarginConfig())
    assert value == 0.0
    assert np.all(grad == 0.0)


def test_loss_seg_blend():
    assert loss_seg(2.0, [0.5, 0.5], lam=0.1) == pytest.approx(0.2 + 0.9)
    with pytest.raises(ValueError):
        loss_seg(1.0, [0.0], lam=1.5)
