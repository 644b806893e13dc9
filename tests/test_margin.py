import math

import numpy as np
import pytest

from ambiseg.cloud import SceneSpec, synth_scene
from ambiseg.config import Config, ConfigError
from ambiseg.margin import NORM_EPSILON, _loss_am_core, loss_am_indexed, margin_map
from ambiseg.network import SegModel, build_geometry, forward, loss_joint
from oracles import contrast_batch, reference_contrast_loss


def test_margin_arithmetic():
    cfg = Config(mu=-1.0, nu=0.5)
    mm = margin_map(np.array([0.5, 0.0, 1.0]), cfg.mu, cfg.nu)
    assert list(mm) == [0.0, 0.5, -0.5]
    with pytest.raises(ConfigError):
        Config(tau=0.0).validate()


def test_margin_map_is_linear():
    mm = margin_map(np.array([0.0, 0.25, 0.5, 1.0]), -1.0, 0.5)
    np.testing.assert_allclose(mm, [0.5, 0.25, 0.0, -0.5])


def test_cosine_sim():
    # the loss's pairwise similarities: anchor 0 against 1 (orthogonal) and 2
    # (parallel), anchor 3 (zero, clamped norm) against 0
    feats = np.array([[1.0, 0.0], [0.0, 2.0], [2.0, 0.0], [0.0, 0.0]])
    nbr = np.array([[0, 1, 2], [1, 0, 0], [2, 0, 0], [3, 0, 0]])
    intra = np.zeros((4, 3), dtype=bool)
    intra[:, 0] = True
    _, _, _, _, sims = _loss_am_core(feats, nbr, intra, np.zeros(4), 0.3)
    assert sims[0, 1] == 0.0
    assert abs(sims[0, 2] - 1.0) <= 1e-15
    assert sims[3, 1] == 0.0


def test_contrastive_embeddings():
    # one anchor, one intra neighbour at cosine 0.8 and one inter neighbour at
    # cosine 0.2: the loss is -log(e_in / (e_in + e_out)) with the margin-shifted
    # intra embedding e_in = exp((0.8 - m) / tau) and e_out = exp(0.2 / tau)
    feats = np.array([[1.0, 0.0], [0.8, 0.6], [0.2, math.sqrt(0.96)]])
    nbr = np.array([[1, 2], [0, 0], [0, 0]])
    intra = np.array([[True, False], [True, True], [True, True]])
    value, _ = loss_am_indexed(feats, nbr, intra, np.array([0.5, 0.0, 0.0]), 0.3)
    e_in, e_out = math.exp((0.8 - 0.5) / 0.3), math.exp(0.2 / 0.3)
    assert abs(value + math.log(e_in / (e_in + e_out))) <= 1e-14


def test_loss_value_matches_reference_loop():
    rng = np.random.default_rng(0)
    cfg = Config()
    for _ in range(20):
        feats, nbr, intra, margins = contrast_batch(rng)
        value, _ = loss_am_indexed(feats, nbr, intra, margins, cfg.tau)
        assert abs(value - reference_contrast_loss(feats, nbr, intra, margins, cfg.tau)) <= 1e-12


def test_zero_margin_reduces_to_plain_supervised_contrast():
    rng = np.random.default_rng(1)
    cfg = Config(mu=0.0, nu=0.0)
    for _ in range(20):
        feats, nbr, intra, margins = contrast_batch(rng, mu=0.0, nu=0.0)
        assert np.all(margins == 0.0)
        value, _ = loss_am_indexed(feats, nbr, intra, margins, cfg.tau)
        assert abs(value - reference_contrast_loss(feats, nbr, intra, margins, cfg.tau)) <= 1e-12


def test_gradient_matches_central_differences():
    rng = np.random.default_rng(2)
    cfg = Config()
    feats, nbr, intra, margins = contrast_batch(rng, n=8, dim=4)

    def loss():
        return loss_am_indexed(feats, nbr, intra, margins, cfg.tau)

    _, grad = loss()
    step = 1e-6
    for i in range(feats.shape[0]):
        for d in range(feats.shape[1]):
            orig = feats[i, d]
            feats[i, d] = orig + step
            hi, _ = loss()
            feats[i, d] = orig - step
            lo, _ = loss()
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
    feats, nbr, intra, margins = contrast_batch(rng, num_classes=1)
    value, grad = loss_am_indexed(feats, nbr, intra, margins, Config().tau)
    assert value == 0.0
    assert np.all(grad == 0.0)


def test_loss_seg_blend():
    # l_seg = lam * l_ce + (1 - lam) * sum of the per-stage contrastive losses
    cloud = synth_scene(SceneSpec("planar-boundary", points_per_class=60, noise_sigma=0.02))
    cfg = Config(k=8, k_tilde=4, dims=(6, 8), stages=2, lam=0.25)
    model = SegModel(cfg, feat_dim0=3, num_classes=cloud.num_classes)
    result = forward(model, cloud, "train", build_geometry(cloud, cfg))
    _, report = loss_joint(model, result, cloud.labels)
    assert report.l_seg == pytest.approx(0.25 * report.l_ce + 0.75 * sum(report.l_am), rel=1e-12)
    with pytest.raises(ConfigError):
        Config(lam=1.5).validate()
