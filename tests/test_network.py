import dataclasses
import tracemalloc

import numpy as np
import pytest

from ambiseg import autograd as ag
from ambiseg import io as aio
from ambiseg import ambiguity, network
from ambiseg.ambiguity import AefConfig, ambiguity_map
from ambiseg.cloud import PointCloud, SceneSpec, knn_all, synth_scene
from ambiseg.config import Config
from ambiseg.network import (SegModel, _stage_sizes, build_geometry, forward,
                             loss_joint, mine_labels, predict, train)

SMALL = Config(k=8, k_tilde=4, dims=(6, 8), stages=2, seed=0)


def small_cloud(seed=0):
    return synth_scene(SceneSpec("planar-boundary", points_per_class=60,
                                 noise_sigma=0.02, seed=seed))


def test_mine_labels():
    parent = np.array([0, 1, 2, 1])
    np.testing.assert_array_equal(mine_labels(parent, [3, 0]), [1, 0])
    with pytest.raises(ValueError):
        mine_labels(parent, [4])


def test_stage_sizes():
    assert _stage_sizes(2000, Config()) == [500, 125]
    assert _stage_sizes(40, Config()) == [12, 12]  # floored at max(k_tilde, 8)
    assert _stage_sizes(100, SMALL) == [25, 8]


def test_build_geometry_shapes():
    cloud = small_cloud()
    geoms = build_geometry(cloud, SMALL, with_labels=True)
    sizes = _stage_sizes(cloud.n, SMALL)
    parent_n = cloud.n
    for geo, n_s in zip(geoms, sizes):
        assert geo.indices.shape == (n_s,)
        assert geo.positions.shape == (n_s, 3)
        assert geo.enc_nbr.shape == (n_s, SMALL.k)
        assert geo.enc_nbr.max() < parent_n
        assert geo.up_idx.shape == (parent_n, 3)
        np.testing.assert_allclose(geo.up_w.sum(axis=1), 1.0, atol=1e-12)
        assert geo.mr_nbr.shape == (n_s, SMALL.k_tilde - 1)
        assert geo.ambiguities.shape == (n_s,)
        np.testing.assert_allclose(geo.margins, 0.5 - geo.ambiguities)
        parent_n = n_s


@pytest.mark.parametrize("noise", [0.0, 0.02])
def test_one_neighbour_search_equals_the_two_separate_ones(noise, monkeypatch):
    cloud = synth_scene(SceneSpec("planar-boundary", points_per_class=300,
                                  noise_sigma=noise, seed=3))
    cfg = Config()
    calls = []

    def counted(pos, k):
        calls.append(k)
        return knn_all(pos, k)

    monkeypatch.setattr(network, "knn_all", counted)
    monkeypatch.setattr(ambiguity, "knn_all", counted)
    geoms = build_geometry(cloud, cfg, with_labels=True)
    # one search per stage: ambiguity_map reuses the stage's neighbour matrix
    assert calls == [cfg.k] * cfg.stages
    for geo in geoms:
        n_s = geo.positions.shape[0]
        np.testing.assert_array_equal(geo.mr_nbr, knn_all(geo.positions, cfg.k_tilde)[:, 1:])
        np.testing.assert_array_equal(geo.nbr_matrix, knn_all(geo.positions, min(cfg.k, n_s)))
        own_search = ambiguity_map(PointCloud(geo.positions, geo.labels, cloud.num_classes),
                                   AefConfig(k=min(cfg.k, n_s), beta=cfg.beta))
        np.testing.assert_array_equal(geo.ambiguities, own_search.values)
    # the unlabelled path (predict, eval) searches only k_tilde
    calls.clear()
    unlabelled = build_geometry(cloud, cfg, with_labels=False)
    assert calls == [cfg.k_tilde] * cfg.stages
    for geo, labelled in zip(unlabelled, geoms):
        np.testing.assert_array_equal(geo.mr_nbr, labelled.mr_nbr)


def test_build_geometry_memory_stays_linear_in_n():
    # The 8,193-point cloud's dense (n_parent x n_s) upsampling matrix alone
    # would be 134 MB; the neighbour searches keep O(n k) state plus a
    # bounded block of kNN query rows.
    cloud = synth_scene(SceneSpec("two-rooms", points_per_class=2731,
                                  noise_sigma=0.02, seed=0))
    tracemalloc.start()
    try:
        build_geometry(cloud, Config(), with_labels=True)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 64 * 2**20, f"build_geometry peaked at {peak / 2**20:.1f} MB"


def test_forward_shapes_and_modes():
    cloud = small_cloud()
    model = SegModel(SMALL, feat_dim0=3, num_classes=cloud.num_classes)
    out = forward(model, cloud, mode="train")
    assert out.scores.data.shape == (cloud.n, cloud.num_classes)
    assert set(out.apm_train_out) == {1, 2}
    infer = forward(model, cloud, mode="infer")
    assert not infer.apm_train_out
    assert set(infer.pred_amb) == {1, 2}
    with pytest.raises(ValueError):
        forward(model, cloud, mode="test")


def test_forward_rejects_wrong_feature_width():
    cloud = small_cloud()
    model = SegModel(SMALL, feat_dim0=5, num_classes=2)
    with pytest.raises(ValueError):
        forward(model, cloud)


def test_loss_report_is_consistent():
    cloud = small_cloud()
    model = SegModel(SMALL, feat_dim0=3, num_classes=cloud.num_classes)
    result = forward(model, cloud, mode="train")
    total, report = loss_joint(model, result, cloud.labels)
    blend = SMALL.lam * report.l_ce + (1 - SMALL.lam) * sum(report.l_am)
    assert report.l_seg == pytest.approx(blend, rel=1e-12)
    expected_total = blend + SMALL.omega * sum(report.l_reg)
    assert report.l_total == pytest.approx(expected_total, rel=1e-12)
    assert total.item() == report.l_total


def test_training_reduces_loss_and_is_deterministic():
    cloud = small_cloud()
    runs = []
    for _ in range(2):
        model = SegModel(SMALL, feat_dim0=3, num_classes=cloud.num_classes)
        history = train(model, [cloud], epochs=15, steps_per_epoch=2)
        runs.append((history, model))
    h0, m0 = runs[0]
    h1, m1 = runs[1]
    assert h0[-1].l_total < h0[0].l_total
    assert [r.l_total for r in h0] == [r.l_total for r in h1]
    for name, arr in m0.named_arrays().items():
        np.testing.assert_array_equal(arr, m1.named_arrays()[name])


def test_parameter_gradients_are_owned_arrays_of_the_parameter_shape():
    cloud = small_cloud()
    model = SegModel(SMALL, feat_dim0=3, num_classes=cloud.num_classes)
    result = forward(model, cloud, mode="train")
    total, _ = loss_joint(model, result, cloud.labels)
    ag.backward(total)
    params = [p for p in model.parameters() if p.grad is not None]
    assert params
    for i, p in enumerate(params):
        assert isinstance(p.grad, np.ndarray) and p.grad.shape == p.data.shape
        for q in params[i + 1:]:
            assert not np.may_share_memory(p.grad, q.grad)


def test_train_rejects_empty_dataset():
    model = SegModel(SMALL, feat_dim0=3, num_classes=2)
    with pytest.raises(ValueError):
        train(model, [])


def test_predict_output_ranges():
    cloud = small_cloud()
    model = SegModel(SMALL, feat_dim0=3, num_classes=cloud.num_classes)
    train(model, [cloud], epochs=5)
    labels, amb = predict(model, cloud)
    assert labels.shape == (cloud.n,)
    assert amb.shape == (cloud.n,)
    assert labels.min() >= 0 and labels.max() < cloud.num_classes
    assert np.all((amb > 0) & (amb < 1))


def test_checkpoint_roundtrip_predictions_bit_identical(tmp_path):
    cloud = small_cloud()
    model = SegModel(SMALL, feat_dim0=3, num_classes=cloud.num_classes)
    train(model, [cloud], epochs=8)
    path = tmp_path / "model.ckpt"
    aio.save_checkpoint(path, SMALL, model.named_arrays(),
                        extra={"feat_dim0": 3, "num_classes": cloud.num_classes})
    cfg2, arrays, extra = aio.load_checkpoint(path)
    clone = SegModel(cfg2, feat_dim0=extra["feat_dim0"], num_classes=extra["num_classes"])
    clone.load_arrays(arrays)
    labels_a, amb_a = predict(model, cloud)
    labels_b, amb_b = predict(clone, cloud)
    np.testing.assert_array_equal(labels_a, labels_b)
    np.testing.assert_array_equal(amb_a, amb_b)


def test_regressor_checkpoint_names_keep_their_layout():
    names = SegModel(SMALL, feat_dim0=3, num_classes=2).named_arrays()
    expected = {f"apm{s}.l{t}.{field}" for s in (1, 2) for t in range(6)
                for field in ("w", "b", "gamma", "beta", "running_mean", "running_var")}
    assert {name for name in names if name.startswith("apm")} == expected


@pytest.mark.parametrize("stages", [1, 2, 3])
def test_units_table_is_the_one_checkpoint_layout(stages):
    cfg = Config(k=8, k_tilde=4, stages=stages, dims=(4, 6, 8)[:stages], seed=0)
    model = SegModel(cfg, feat_dim0=3, num_classes=2)
    assert list(model.units()) == ([f"enc{s}" for s in range(1, stages + 1)]
                                   + [f"dec{s}" for s in range(1, stages)] + ["head_hidden"]
                                   + [f"apm{s}.l{t}" for s in range(1, stages + 1)
                                      for t in range(6)])
    arrays = model.named_arrays()
    params = model.parameters()
    owners = [[name for name, arr in arrays.items() if arr is p.data] for p in params]
    assert all(len(names) == 1 for names in owners)
    rest = set(arrays) - {names[0] for names in owners}
    assert 2 * len(rest) == len(params) - 2   # two running stats per four-parameter unit
    assert all(name.endswith((".running_mean", ".running_var")) for name in rest)
    # every array, running stats included, loads into a differently seeded model
    rng = np.random.default_rng(stages)
    saved = {name: rng.normal(size=arr.shape) for name, arr in arrays.items()}
    model.load_arrays(saved)
    clone = SegModel(dataclasses.replace(cfg, seed=9), feat_dim0=3, num_classes=2)
    clone.load_arrays(model.named_arrays())
    got = clone.named_arrays()
    assert set(got) == set(saved)
    for name, arr in saved.items():
        assert got[name].tobytes() == arr.tobytes(), name


def test_load_arrays_rejects_mismatches():
    model = SegModel(SMALL, feat_dim0=3, num_classes=2)
    arrays = model.named_arrays()
    bad = dict(arrays)
    bad.pop(sorted(bad)[0])
    with pytest.raises(ValueError):
        model.load_arrays(bad)
    bad = {k: v.copy() for k, v in arrays.items()}
    first = sorted(bad)[0]
    bad[first] = np.zeros(np.asarray(bad[first]).shape + (2,))
    with pytest.raises(ValueError):
        model.load_arrays(bad)


def test_refinement_blend_changes_features_when_band_covers_predictions(monkeypatch):
    # widen the self-mask band to [0, 1] so every point is refined
    cloud = small_cloud()
    cfg_all = dataclasses.replace(SMALL, epsilon_lo=0.0, gamma=0.5)
    model = SegModel(cfg_all, feat_dim0=3, num_classes=cloud.num_classes)
    geo = build_geometry(cloud, cfg_all, with_labels=True)
    with_mr = forward(model, cloud, mode="infer", geometry=geo)
    with monkeypatch.context() as mp:
        mp.setattr(network, "refine", lambda x, *args: x)
        without = forward(model, cloud, mode="infer", geometry=geo)
    assert not np.array_equal(with_mr.stage_feats[1].data, without.stage_feats[1].data)
    # gamma = 0 leaves features bit-identical to the unrefined pass
    cfg_off = dataclasses.replace(cfg_all, gamma=0.0)
    model_off = SegModel(cfg_off, feat_dim0=3, num_classes=cloud.num_classes)
    geo_off = build_geometry(cloud, cfg_off, with_labels=True)
    a = forward(model_off, cloud, mode="infer", geometry=geo_off)
    with monkeypatch.context() as mp:
        mp.setattr(network, "refine", lambda x, *args: x)
        b = forward(model_off, cloud, mode="infer", geometry=geo_off)
    np.testing.assert_array_equal(a.stage_feats[1].data, b.stage_feats[1].data)


def test_single_stage_model():
    cloud = small_cloud()
    cfg = Config(k=8, k_tilde=4, dims=(6,), stages=1, seed=0)
    model = SegModel(cfg, feat_dim0=3, num_classes=cloud.num_classes)
    history = train(model, [cloud], epochs=3)
    assert len(history) == 3
    labels, _ = predict(model, cloud)
    assert labels.shape == (cloud.n,)
