import numpy as np
import pytest

from ambiseg import autograd as ag
from ambiseg.cloud import knn_all
from ambiseg.refine import MaskSet, RefineConfig, build_masks, refine
from oracles import cross_mask


def test_config_validation():
    with pytest.raises(ValueError):
        RefineConfig(epsilon_lo=0.8, epsilon_hi=0.5)
    with pytest.raises(ValueError):
        RefineConfig(gamma=1.5)
    with pytest.raises(ValueError):
        RefineConfig(k_tilde=1)
    with pytest.raises(ValueError):
        RefineConfig(cross_mask_mode="avg")


def test_self_mask_closed_interval():
    cfg = RefineConfig(epsilon_lo=0.9, epsilon_hi=1.0)
    masks = build_masks(np.array([0.9, 1.0, 0.95, 0.899999]), np.zeros((4, 1), dtype=int), cfg)
    np.testing.assert_array_equal(masks.self_mask, [1, 1, 1, 0])


def test_cross_mask_single_and_sum():
    vals = np.array([0.4, 0.1, 0.7, 0.1])
    nbr = np.arange(4)[None, :]
    masks = build_masks(vals, nbr, RefineConfig(cross_mask_mode="single"))
    assert masks.pooled[0] == 0.1
    np.testing.assert_array_equal(masks.cross_mask[0], [0, 1, 0, 0])  # lowest tied index
    masks = build_masks(vals, nbr, RefineConfig(cross_mask_mode="sum"))
    np.testing.assert_array_equal(masks.cross_mask[0], [0, 1, 0, 1])  # every minimizer
    with pytest.raises(ValueError):
        build_masks(vals, np.zeros((4, 0), dtype=int), RefineConfig())


def test_refine_embedding_blend():
    # row 0 is hot and its cross bit picks row 1; row 1 is cold and stays put
    x = ag.Tensor(np.array([[1.0, 0.0], [0.0, 2.0], [4.0, 4.0]]))
    pred = np.array([0.95, 0.1, 0.5])
    nbr = np.array([[1, 2], [2, 0], [0, 1]])
    out = refine(x, pred, nbr, RefineConfig(gamma=0.25, k_tilde=3))
    np.testing.assert_allclose(out.data[0], 0.25 * x.data[1] + 0.75 * x.data[0])
    np.testing.assert_array_equal(out.data[1:], x.data[1:])


def _stage(rng, n, d):
    feats = ag.Tensor(rng.normal(size=(n, d)))
    nbr = knn_all(rng.normal(size=(n, 3)), 6)[:, 1:]  # anchor excluded from its candidates
    return feats, nbr


def test_refine_stage_noop_is_bit_identical():
    rng = np.random.default_rng(0)
    feats, nbr = _stage(rng, 30, 8)
    low = rng.uniform(0.0, 0.5, size=30)
    # gamma = 0, even with every self bit set
    assert refine(feats, np.ones(30), nbr, RefineConfig(gamma=0.0, k_tilde=6)) is feats
    # no self bit set
    assert refine(feats, low, nbr, RefineConfig(k_tilde=6)) is feats
    assert not build_masks(low, nbr, RefineConfig(k_tilde=6)).self_mask.any()


def test_refine_stage_uses_snapshot_features():
    # three collinear points; 0 and 1 are both hot and each picks the other
    # side, so 0 must receive 1's ORIGINAL embedding, not its refined one
    pos = np.array([[0.0, 0, 0], [0.1, 0, 0], [0.2, 0, 0]])
    feats = ag.Tensor(np.array([[10.0], [20.0], [30.0]]))
    pred = np.array([0.95, 0.95, 0.0])
    cfg = RefineConfig(gamma=1.0, k_tilde=2)
    # k_tilde=2 keeps one candidate per anchor: nbr(0)={1}, nbr(1)={0}
    nbr = knn_all(pos, cfg.k_tilde)[:, 1:]
    out = refine(feats, pred, nbr, cfg)
    np.testing.assert_array_equal(out.data[:, 0], [20.0, 10.0, 30.0])
    assert list(build_masks(pred, nbr, cfg).self_mask) == [1, 1, 0]


def test_build_masks_matches_per_row_cross_mask():
    rng = np.random.default_rng(1)
    vals = np.round(rng.uniform(size=40), 1)  # coarse grid forces ties
    nbr = np.stack([rng.choice(40, size=5, replace=False) for _ in range(40)])
    for mode in ("single", "sum"):
        cfg = RefineConfig(cross_mask_mode=mode, k_tilde=6)
        masks = build_masks(vals, nbr, cfg)
        assert isinstance(masks, MaskSet)
        for i in range(40):
            pooled, bits = cross_mask(vals[nbr[i]], mode=mode)
            assert masks.pooled[i] == pooled
            np.testing.assert_array_equal(masks.cross_mask[i], bits)


def test_single_mode_sets_exactly_one_bit():
    rng = np.random.default_rng(2)
    vals = rng.choice([0.1, 0.2, 0.3], size=50)
    nbr = np.stack([rng.choice(50, size=7, replace=False) for _ in range(50)])
    masks = build_masks(vals, nbr, RefineConfig(k_tilde=8))
    np.testing.assert_array_equal(masks.cross_mask.sum(axis=1), 1)
