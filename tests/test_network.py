import dataclasses
import tracemalloc
from collections import Counter

import numpy as np
import pytest

from ambiseg import autograd as ag
from ambiseg import io as aio
from ambiseg import network
from ambiseg.ambiguity import AefConfig, ambiguity_map
from ambiseg.apm import block_forward
from ambiseg.cloud import PointCloud, SceneSpec, knn_all, synth_scene
from ambiseg.config import Config
from ambiseg.network import (SegModel, _stage_sizes, build_geometry, forward,
                             loss_joint, predict, train)
from ambiseg.refine import refine
from oracles import cross_mask
from test_autograd import PRIMITIVES

SMALL = Config(k=8, k_tilde=4, dims=(6, 8), stages=2, seed=0)


def small_cloud(seed=0):
    return synth_scene(SceneSpec("planar-boundary", points_per_class=60,
                                 noise_sigma=0.02, seed=seed))


def test_stage_sizes():
    assert _stage_sizes(2000, Config()) == [500, 125]
    assert _stage_sizes(40, Config()) == [12, 12]  # floored at max(k_tilde, 8)
    assert _stage_sizes(100, SMALL) == [25, 8]


def test_build_geometry_shapes():
    cloud = small_cloud()
    geoms = build_geometry(cloud, SMALL)
    sizes = _stage_sizes(cloud.n, SMALL)
    parent_n, parent_labels = cloud.n, cloud.labels
    for geo, n_s in zip(geoms, sizes):
        assert geo.indices.shape == (n_s,)
        # sampled points inherit the label of their source point
        np.testing.assert_array_equal(geo.labels, parent_labels[geo.indices])
        assert geo.positions.shape == (n_s, 3)
        assert geo.enc_nbr.shape == (n_s, SMALL.k)
        assert geo.enc_nbr.max() < parent_n
        assert geo.up_idx.shape == (parent_n, 3)
        np.testing.assert_allclose(geo.up_w.sum(axis=1), 1.0, atol=1e-12)
        assert geo.mr_nbr.shape == (n_s, SMALL.k_tilde - 1)
        assert geo.ambiguities.shape == (n_s,)
        np.testing.assert_allclose(geo.margins, 0.5 - geo.ambiguities)
        parent_n, parent_labels = n_s, geo.labels


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
    geoms = build_geometry(cloud, cfg)
    # one search per stage, k_tilde and k wide at once: ambiguity_map reuses the
    # stage's neighbour matrix, and a caller's search changes no stage's own
    want = [max(min(cfg.k_tilde, n), min(cfg.k, n)) for n in _stage_sizes(cloud.n, cfg)]
    assert calls == want
    calls.clear()
    build_geometry(cloud, cfg, search=knn_all(cloud.positions, cfg.k))
    assert calls == want
    for geo in geoms:
        n_s = geo.positions.shape[0]
        np.testing.assert_array_equal(geo.mr_nbr, knn_all(geo.positions, cfg.k_tilde)[0][:, 1:])
        np.testing.assert_array_equal(geo.nbr_matrix, knn_all(geo.positions, min(cfg.k, n_s))[0])
        own_search = ambiguity_map(geo.labels, knn_all(geo.positions, min(cfg.k, n_s)),
                                   AefConfig(beta=cfg.beta))
        np.testing.assert_array_equal(geo.ambiguities, own_search.values)


def test_build_geometry_memory_stays_linear_in_n():
    # The 8,193-point cloud's dense (n_parent x n_s) upsampling matrix alone
    # would be 134 MB; the neighbour searches keep O(n k) state plus a
    # bounded block of kNN query rows.
    cloud = synth_scene(SceneSpec("two-rooms", points_per_class=2731,
                                  noise_sigma=0.02, seed=0))
    tracemalloc.start()
    try:
        build_geometry(cloud, Config())
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 64 * 2**20, f"build_geometry peaked at {peak / 2**20:.1f} MB"


def test_forward_shapes_and_modes():
    cloud = small_cloud()
    model = SegModel(SMALL, feat_dim0=3, num_classes=cloud.num_classes)
    geometry = build_geometry(cloud, SMALL)
    out = forward(model, cloud, "train", geometry)
    assert out.scores.data.shape == (cloud.n, cloud.num_classes)
    assert set(out.apm_train_out) == {1, 2}
    infer = forward(model, cloud, "infer", geometry)
    assert not infer.apm_train_out
    assert set(infer.pred_amb) == {1, 2}
    with pytest.raises(ValueError, match="unknown mode 'test'"):
        forward(model, cloud, "test", geometry)


def test_infer_forward_keeps_and_train_forward_moves_every_running_statistic():
    cloud = small_cloud()
    model = SegModel(SMALL, feat_dim0=3, num_classes=cloud.num_classes)

    def running():
        return {name: arr.copy() for name, arr in model.named_arrays().items()
                if name.endswith((".running_mean", ".running_var"))}

    before = running()
    # encoder, decoder, head_hidden and every regressor unit
    assert len(before) == 2 * len(model.units())
    geometry = build_geometry(cloud, SMALL)
    forward(model, cloud, "infer", geometry)
    for name, arr in running().items():
        np.testing.assert_array_equal(arr, before[name], err_msg=name)
    forward(model, cloud, "train", geometry)
    for name, arr in running().items():
        assert np.all(arr != before[name]), name


def _infer_bytes(model, cloud, geometry) -> list[bytes]:
    result = forward(model, cloud, "infer", geometry)
    return [result.scores.data.tobytes()] + [
        arr.tobytes() for s in sorted(result.pred_amb)
        for arr in (result.pred_amb[s], result.stage_feats[s].data)]


def test_infer_forward_does_not_depend_on_the_block_size(monkeypatch):
    cloud = synth_scene(SceneSpec("two-rooms", points_per_class=120, noise_sigma=0.02, seed=5))
    model = SegModel(dataclasses.replace(SMALL, epochs=3), feat_dim0=3,
                     num_classes=cloud.num_classes)
    train(model, [cloud])   # running statistics away from their (0, 1) start
    geometry = build_geometry(cloud, SMALL)
    n_s, k_enc = geometry[0].enc_nbr.shape
    per_group = k_enc * max(model.enc[0].w.data.shape)   # elements of one stage-1 group
    assert n_s % 7 != 0
    runs = {}
    for name, elems in [("one group", 1), ("partial last block", 7 * per_group),
                        ("one block", n_s * per_group)]:
        monkeypatch.setattr(network, "_BLOCK_ELEMS", elems)
        runs[name] = _infer_bytes(model, cloud, geometry)
    assert runs["one group"] == runs["one block"]
    assert runs["partial last block"] == runs["one block"]


def test_infer_forward_memory_is_bounded_by_the_block(monkeypatch):
    cloud = synth_scene(SceneSpec("two-rooms", points_per_class=700, noise_sigma=0.02, seed=1))
    cfg = Config()
    model = SegModel(cfg, feat_dim0=3, num_classes=cloud.num_classes)
    geometry = build_geometry(cloud, cfg)

    def peak() -> int:
        tracemalloc.start()
        try:
            forward(model, cloud, "infer", geometry)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    blocked = peak()
    monkeypatch.setattr(network, "_BLOCK_ELEMS", 1 << 62)   # every stage in one block
    single = peak()
    assert blocked < single / 2, f"{blocked / 2**20:.1f} MB blocked, {single / 2**20:.1f} MB single"


def test_train_step_memory_keeps_one_array_per_encoder_unit():
    # Each encoder node keeps its normalised (rows, d) array for the backward, not
    # the affine, batch-norm, ReLU and group-max arrays of the unfused chain.
    cloud = synth_scene(SceneSpec("two-rooms", points_per_class=1000, noise_sigma=0.02, seed=0))
    cfg = Config()
    model = SegModel(cfg, feat_dim0=3, num_classes=cloud.num_classes)
    geometry = build_geometry(cloud, cfg)
    tracemalloc.start()
    try:
        total, _ = loss_joint(model, forward(model, cloud, "train", geometry), cloud.labels)
        ag.backward(total)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 30 * 2**20, f"one train step peaked at {peak / 2**20:.1f} MiB"


def test_regressor_input_is_position_first(monkeypatch):
    cloud = small_cloud()
    model = SegModel(SMALL, feat_dim0=3, num_classes=cloud.num_classes)
    geometry = build_geometry(cloud, SMALL)
    original, inputs = network.block_forward, []

    def recording(z, block, **kwargs):
        inputs.append(z.data if isinstance(z, ag.Tensor) else z)
        return original(z, block, **kwargs)

    monkeypatch.setattr(network, "block_forward", recording)
    forward(model, cloud, "train", geometry)
    # one train-mode and one infer-mode regressor pass per stage
    assert len(inputs) == 2 * SMALL.stages
    for z, geo in zip(inputs, [g for g in geometry for _ in range(2)]):
        np.testing.assert_array_equal(z[:, :3], geo.positions)


def test_forward_rejects_wrong_feature_width():
    cloud = small_cloud()
    model = SegModel(SMALL, feat_dim0=5, num_classes=2)
    with pytest.raises(ValueError):
        forward(model, cloud, "train", build_geometry(cloud, SMALL))


def test_loss_report_is_consistent():
    cloud = small_cloud()
    model = SegModel(SMALL, feat_dim0=3, num_classes=cloud.num_classes)
    result = forward(model, cloud, "train", build_geometry(cloud, SMALL))
    total, report = loss_joint(model, result, cloud.labels)
    blend = SMALL.lam * report.l_ce + (1 - SMALL.lam) * sum(report.l_am)
    assert report.l_seg == pytest.approx(blend, rel=1e-12)
    expected_total = blend + SMALL.omega * sum(report.l_reg)
    assert report.l_total == pytest.approx(expected_total, rel=1e-12)
    assert total.item() == report.l_total


def _train_graph(cfg: Config) -> Counter:
    """Nodes reachable from one train step's total loss, counted by primitive."""
    cloud = synth_scene(SceneSpec("planar-boundary", points_per_class=100,
                                  noise_sigma=0.0, seed=0))
    model = SegModel(cfg, feat_dim0=3, num_classes=cloud.num_classes)
    geometry = build_geometry(cloud, cfg)
    total, _ = loss_joint(model, forward(model, cloud, mode="train", geometry=geometry),
                          cloud.labels)
    counts: Counter = Counter()
    seen: set[int] = set()
    stack = [total]
    while stack:
        node = stack.pop()
        if id(node) in seen:
            continue
        seen.add(id(node))
        if node._backward is not None:
            counts[node._backward.__qualname__.split(".")[0]] += 1
        stack.extend(node._parents)
    return counts


TRAIN_GRAPH = {"add": 4, "affine": 1, "batch_norm": 14, "concat_cols": 3, "contrast_loss": 2,
               "cross_entropy": 1, "gather_rows": 1, "mae": 2, "neighborhood_max": 2,
               "relu": 2, "scale": 5, "sigmoid": 12, "weighted_rows": 2}


def test_train_step_graph_is_pinned():
    # The infer-mode regressor and stage 1's gather and concatenation of the
    # constant input are constants: no node of the graph.
    counts = _train_graph(Config())
    assert dict(counts) == TRAIN_GRAPH
    assert sum(counts.values()) == 51
    # epsilon_lo = 0 puts every point in the refinement band: one blend per stage
    refined = _train_graph(Config(epsilon_lo=0.0))
    assert dict(refined) == TRAIN_GRAPH | {"weighted_rows": 4}
    assert sum(refined.values()) == 53


def test_training_reduces_loss_and_is_deterministic():
    cloud = small_cloud()
    runs = []
    for _ in range(2):
        model = SegModel(dataclasses.replace(SMALL, epochs=15), feat_dim0=3,
                         num_classes=cloud.num_classes)
        history = train(model, [cloud], steps_per_epoch=2)
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
    result = forward(model, cloud, "train", build_geometry(cloud, SMALL))
    total, _ = loss_joint(model, result, cloud.labels)
    ag.backward(total)
    params = [p for p in model.parameters() if p.grad is not None]
    assert params
    for i, p in enumerate(params):
        assert isinstance(p.grad, np.ndarray) and p.grad.shape == p.data.shape
        for q in params[i + 1:]:
            assert not np.may_share_memory(p.grad, q.grad)


def test_training_stops_when_a_running_statistic_is_not_finite():
    # omega = 1e308 overflows the regressors' running variances: train-mode batch
    # norm reads batch statistics, so no loss term sees them
    cloud = synth_scene(SceneSpec("two-rooms", points_per_class=150, noise_sigma=0.02, seed=0))
    model = SegModel(dataclasses.replace(Config(), epochs=2, omega=1e308), feat_dim0=3,
                     num_classes=cloud.num_classes)
    # no errstate here: train silences the overflow warnings its own checks report
    with pytest.raises(RuntimeError, match=r"^training diverged at epoch 1: "
                                           r"apm\d\.l\d\.running_var is not finite$"):
        train(model, [cloud])


def test_train_rejects_empty_dataset():
    model = SegModel(SMALL, feat_dim0=3, num_classes=2)
    with pytest.raises(ValueError):
        train(model, [])


def test_predict_output_ranges():
    cloud = small_cloud()
    model = SegModel(dataclasses.replace(SMALL, epochs=5), feat_dim0=3,
                     num_classes=cloud.num_classes)
    train(model, [cloud])
    labels, amb = predict(model, cloud)
    assert labels.shape == (cloud.n,)
    assert amb.shape == (cloud.n,)
    assert labels.min() >= 0 and labels.max() < cloud.num_classes
    assert np.all((amb > 0) & (amb < 1))


def test_checkpoint_roundtrip_predictions_bit_identical(tmp_path):
    cloud = small_cloud()
    model = SegModel(dataclasses.replace(SMALL, epochs=8), feat_dim0=3,
                     num_classes=cloud.num_classes)
    train(model, [cloud])
    path = tmp_path / "model.ckpt"
    aio.save_checkpoint(path, model.cfg, model.named_arrays(),
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
    geo = build_geometry(cloud, cfg_all)
    with_mr = forward(model, cloud, mode="infer", geometry=geo)
    with monkeypatch.context() as mp:
        mp.setattr(network, "refine", lambda x, *args: x)
        without = forward(model, cloud, mode="infer", geometry=geo)
    assert not np.array_equal(with_mr.stage_feats[1].data, without.stage_feats[1].data)
    # gamma = 0 leaves features bit-identical to the unrefined pass
    cfg_off = dataclasses.replace(cfg_all, gamma=0.0)
    model_off = SegModel(cfg_off, feat_dim0=3, num_classes=cloud.num_classes)
    geo_off = build_geometry(cloud, cfg_off)
    a = forward(model_off, cloud, mode="infer", geometry=geo_off)
    with monkeypatch.context() as mp:
        mp.setattr(network, "refine", lambda x, *args: x)
        b = forward(model_off, cloud, mode="infer", geometry=geo_off)
    np.testing.assert_array_equal(a.stage_feats[1].data, b.stage_feats[1].data)


def test_training_refines_every_stage_with_the_infer_predictions(monkeypatch):
    cloud = synth_scene(SceneSpec("two-rooms", points_per_class=100, noise_sigma=0.02, seed=0))
    cfg = Config(epsilon_lo=0.0, gamma=0.5, epochs=20)
    model = SegModel(cfg, feat_dim0=3, num_classes=cloud.num_classes)
    calls, infer_out, results = [], [], []

    def recording_refine(x, pred_values, nbr, cfg_):
        out = refine(x, pred_values, nbr, cfg_)
        calls.append((len(results), x.data.copy(), pred_values, nbr, out is x, out.data.copy()))
        return out

    def recording_block(z, block, mode, **kwargs):
        out = block_forward(z, block, mode=mode, **kwargs)
        if mode == "infer":
            infer_out.append(out.data[:, 0].copy())
        return out

    def recording_loss(model_, result, labels):
        results.append(result)
        return loss_joint(model_, result, labels)

    with monkeypatch.context() as mp:
        mp.setattr(network, "refine", recording_refine)
        mp.setattr(network, "block_forward", recording_block)
        mp.setattr(network, "loss_joint", recording_loss)
        history = train(model, [cloud])

    totals = [r.l_total for r in history]
    assert all(np.isfinite(totals)) and totals[-1] < totals[0]
    geometry = results[0].geometry
    stage_of = {id(geo.mr_nbr): s for s, geo in enumerate(geometry, start=1)}
    # the decoder refines the deepest stage first
    assert [(step, stage_of[id(nbr)]) for step, _, _, nbr, _, _ in calls] == \
        [(step, s) for step in range(cfg.epochs) for s in range(cfg.stages, 0, -1)]
    for step, x, pred, nbr, unchanged, out in calls:
        s = stage_of[id(nbr)]
        result = results[step]
        assert not unchanged
        np.testing.assert_array_equal(pred, result.pred_amb[s])
        np.testing.assert_array_equal(pred, infer_out[cfg.stages * step + s - 1])
        assert not np.array_equal(pred, result.apm_train_out[s].data[:, 0])
        for i in range(x.shape[0]):
            s_i = float(cfg.epsilon_lo <= pred[i] <= cfg.epsilon_hi)
            _, c_i = cross_mask(pred[nbr[i]], cfg.cross_mask_mode)
            blend = (1 - cfg.gamma * s_i) * x[i] + cfg.gamma * s_i * (c_i @ x[nbr[i]])
            np.testing.assert_allclose(out[i], blend, rtol=0, atol=1e-12)


@pytest.mark.parametrize("cfg", [Config(), Config(epsilon_lo=0.0, gamma=0.5)])
def test_coincident_stage_points_get_identical_features_and_predictions(cfg):
    # Five copies of 100 points: FPS samples coincident points, and by the index
    # tie rule some of their refinement rows hold their own index.
    positions = np.tile(np.random.default_rng(0).normal(size=(100, 3)), (5, 1))
    cloud = PointCloud(positions, np.zeros(500, dtype=np.int64), 2)
    model = SegModel(cfg, feat_dim0=3, num_classes=2)
    geometry = build_geometry(cloud, cfg)
    result = forward(model, cloud, "infer", geometry)
    stage1 = geometry[0]
    assert (stage1.mr_nbr == np.arange(stage1.positions.shape[0])[:, None]).any()
    for s, geo in enumerate(geometry, start=1):
        _, group = np.unique(geo.positions, axis=0, return_inverse=True)
        group = group.ravel()
        first = np.unique(group, return_index=True)[1][group]   # first row of each group
        np.testing.assert_array_equal(result.stage_feats[s].data,
                                      result.stage_feats[s].data[first])
        np.testing.assert_array_equal(result.pred_amb[s], result.pred_amb[s][first])


def test_single_stage_model():
    cloud = small_cloud()
    cfg = Config(k=8, k_tilde=4, dims=(6,), stages=1, epochs=3, seed=0)
    model = SegModel(cfg, feat_dim0=3, num_classes=cloud.num_classes)
    history = train(model, [cloud])
    assert len(history) == 3
    labels, _ = predict(model, cloud)
    assert labels.shape == (cloud.n,)


@pytest.mark.parametrize("cfg", [Config(epochs=3), Config(epochs=3, dims=(1, 8)),
                                 Config(epochs=3, dims=(4, 1)),
                                 Config(epochs=3, epsilon_lo=0.0, gamma=0.5, apm_detach=False)],
                         ids=["default", "dims=1,8", "dims=4,1", "band-joint"])
def test_training_writes_the_same_bytes_with_numpy_column_sums(cfg, monkeypatch):
    # ag._colsum stands in for every axis-0 sum of the train step: swapping numpy's
    # own sum back in must change no parameter or running-statistic bit.
    cloud = synth_scene(SceneSpec("two-rooms", points_per_class=100, noise_sigma=0.02, seed=2))
    assert cloud.n == 300

    def trained() -> dict[str, bytes]:
        model = SegModel(cfg, feat_dim0=3, num_classes=cloud.num_classes)
        train(model, [cloud])
        return {name: arr.tobytes() for name, arr in model.named_arrays().items()}

    fast = trained()
    monkeypatch.setattr(ag, "_colsum", lambda a: a.sum(axis=0))
    assert trained() == fast


def test_infer_forward_makes_weighted_rows_nodes_without_a_backward(monkeypatch):
    # Nothing differentiates an inference pass: every primitive call in it makes a
    # constant, but the head's affine map, whose weights require grad.
    cloud = small_cloud()
    model = SegModel(dataclasses.replace(SMALL, epsilon_lo=0.0, gamma=0.5), feat_dim0=3,
                     num_classes=cloud.num_classes)
    geometry = build_geometry(cloud, model.cfg)
    nodes = {"train": [], "infer": []}

    def recording(mode, name, real):
        def primitive(*args, **kwargs):
            out = real(*args, **kwargs)
            nodes[mode].append((name, out))
            return out
        return primitive

    for mode in ("train", "infer"):
        with monkeypatch.context() as mp:
            for name in PRIMITIVES:
                mp.setattr(ag, name, recording(mode, name, getattr(ag, name)))
            scores = forward(model, cloud, mode, geometry).scores
    infer = nodes["infer"]
    assert {name for name, _ in infer} == {"affine", "batch_norm", "concat_cols", "gather_rows",
                                           "neighborhood_max", "relu", "sigmoid",
                                           "weighted_rows"}
    assert [(name, out) for name, out in infer if out._backward is not None] == \
        [("affine", scores)]
    assert not any(out._parents or out.requires_grad for _, out in infer if out is not scores)
    # the decoder's upsampling and the refinement blends of each stage
    assert sum(name == "weighted_rows" for name, _ in infer) >= 2 * SMALL.stages
    assert all(out._backward is not None for name, out in nodes["train"]
               if name == "weighted_rows")
