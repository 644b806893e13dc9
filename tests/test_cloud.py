import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ambiseg import cloud as cl
from ambiseg.cloud import (PointCloud, SceneSpec, fps_indices, knn_all, knn_query,
                           rigid_transform, synth_scene)
from ambiseg.config import Config
from ambiseg.network import build_geometry
from oracles import planar_lattice


def brute_knn(positions, anchor, k):
    """Reference neighbor search: full sort by (squared distance, index)."""
    d2 = np.sum((positions - positions[anchor]) ** 2, axis=1)
    order = sorted(range(len(d2)), key=lambda j: (d2[j], j))
    return np.asarray(order[:k], dtype=np.int64)


def knn_of(positions, anchor, k):
    """One anchor's row of knn_query."""
    return knn_query(positions, positions[anchor:anchor + 1], k)[0]


def test_pointcloud_validation():
    with pytest.raises(ValueError):
        PointCloud(np.zeros((3, 2)), np.zeros(3, dtype=int), 1)
    with pytest.raises(ValueError):
        PointCloud(np.zeros((3, 3)), np.zeros(2, dtype=int), 1)
    with pytest.raises(ValueError):
        PointCloud(np.zeros((3, 3)), np.array([0, 0, 2]), 2)
    with pytest.raises(ValueError):
        PointCloud(np.zeros((0, 3)), np.zeros(0, dtype=int), 1)
    with pytest.raises(ValueError):
        PointCloud(np.zeros((3, 3)), np.zeros(3, dtype=int), 2,
                   features=np.zeros((2, 4)))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_pointcloud_rejects_non_finite_values(bad):
    pos = np.zeros((3, 3))
    pos[1, 2] = bad
    with pytest.raises(ValueError, match="positions must be finite"):
        PointCloud(pos, np.zeros(3, dtype=int), 1)
    feat = np.zeros((3, 2))
    feat[2, 0] = bad
    with pytest.raises(ValueError, match="features must be finite"):
        PointCloud(np.zeros((3, 3)), np.zeros(3, dtype=int), 1, features=feat)


def test_pointcloud_arrays_are_readonly():
    c = PointCloud(np.zeros((4, 3)), np.zeros(4, dtype=int), 1)
    with pytest.raises(ValueError):
        c.positions[0, 0] = 1.0
    with pytest.raises(ValueError):
        c.labels[0] = 1


def test_knn_matches_brute_reference():
    rng = np.random.default_rng(3)
    pos = rng.normal(size=(200, 3))
    for anchor in (0, 17, 199):
        for k in (1, 5, 24, 200):
            np.testing.assert_array_equal(knn_of(pos, anchor, k),
                                          brute_knn(pos, anchor, k))


def test_knn_tie_break_by_index():
    # two exact duplicates of the anchor position plus farther points
    pos = np.array([[0.0, 0, 0], [1, 0, 0], [0, 0, 0], [0, 0, 0], [2, 0, 0]])
    idx = knn_of(pos, 0, 3)
    np.testing.assert_array_equal(idx, [0, 2, 3])


def test_knn_kdtree_path_agrees_with_brute():
    rng = np.random.default_rng(11)
    pos = rng.normal(size=(300, 3))
    # force exact ties by duplicating a block of points
    pos[150:180] = pos[:30]
    expected = np.stack([brute_knn(pos, i, 16) for i in range(300)])
    got = knn_all(pos, 16)
    np.testing.assert_array_equal(got, expected)


def test_knn_validation():
    pos = np.zeros((5, 3))
    with pytest.raises(ValueError):
        knn_of(pos, 0, 6)
    with pytest.raises(ValueError):
        knn_all(pos, 0)
    with pytest.raises(ValueError):
        knn_query(pos, np.zeros((2, 3)), 6)
    assert knn_query(pos, np.zeros((0, 3)), 2).shape == (0, 2)


def test_knn_wrapper_includes_anchor_first_on_distinct_points():
    rng = np.random.default_rng(5)
    c = PointCloud(rng.normal(size=(50, 3)), rng.integers(0, 2, 50), 2)
    nb = knn_all(c.positions, 6)
    assert nb.shape == (50, 6)
    # each anchor is its own zero-distance neighbor
    np.testing.assert_array_equal(nb[:, 0], np.arange(50))


def knn_oracle(ref, queries, k):
    """Reference k-NN: every ref row sorted by (np.sum of squared differences, index)."""
    rows = [np.lexsort((np.arange(ref.shape[0]), np.sum((ref - q) ** 2, axis=1)))[:k]
            for q in queries]
    return np.asarray(rows, dtype=np.int64).reshape(len(queries), k)


@pytest.fixture
def fallback_rows(monkeypatch):
    """Count the rows that leave the batched candidates for the exact ball fallback."""
    count = [0]

    class CountingTree(cl.cKDTree):
        def query_ball_point(self, x, r, *args, **kwargs):
            count[0] += len(x)
            return super().query_ball_point(x, r, *args, **kwargs)

    monkeypatch.setattr(cl, "cKDTree", CountingTree)
    return lambda: count[0]


def test_knn_query_matches_oracle():
    rng = np.random.default_rng(21)
    ref = rng.normal(size=(300, 3))
    ref[150:180] = ref[:30]  # exact duplicates
    # queries off the reference set, plus some that coincide with duplicated rows
    queries = np.vstack([rng.normal(size=(40, 3)), ref[:10], ref[160:165]])
    for k in (1, 3, 16, 40, 300):
        np.testing.assert_array_equal(knn_query(ref, queries, k), knn_oracle(ref, queries, k))


def test_knn_query_lattice_ties_take_the_exact_fallback(fallback_rows):
    pos = synth_scene(SceneSpec("planar-boundary", points_per_class=300)).positions
    for k in (8, 24):
        np.testing.assert_array_equal(knn_query(pos, pos, k), knn_oracle(pos, pos, k))
    assert fallback_rows() > 0


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(n=st.integers(1, 400), extent=st.integers(1, 6), seed=st.integers(0, 2**32 - 1),
       k_frac=st.floats(0.0, 1.0))
def test_knn_query_property_on_integer_grids(n, extent, seed, k_frac):
    # integer-grid clouds are full of exact distance ties and duplicates
    rng = np.random.default_rng(seed)
    ref = rng.integers(0, extent + 1, size=(n, 3)).astype(np.float64)
    # queries on the half-step grid, so some sit between reference points
    queries = rng.integers(0, 2 * extent + 1, size=(25, 3)) / 2.0
    k = 1 + int(k_frac ** 2 * (n - 1))
    np.testing.assert_array_equal(knn_query(ref, queries, k), knn_oracle(ref, queries, k))


def test_knn_query_blocks_keep_their_row_offsets(monkeypatch):
    # Blocks of a few rows split the 600-point lattice into hundreds of tree
    # queries; the exact fallback must write back to the rows of its own block.
    monkeypatch.setattr(cl, "_BLOCK_ELEMS", 64)
    calls = []

    class BlockTree(cl.cKDTree):
        def query(self, *args, **kwargs):
            calls.append("query")
            return super().query(*args, **kwargs)

        def query_ball_point(self, *args, **kwargs):
            calls.append("ball")
            return super().query_ball_point(*args, **kwargs)

    monkeypatch.setattr(cl, "cKDTree", BlockTree)
    pos = synth_scene(SceneSpec("planar-boundary", points_per_class=300)).positions
    for k in (8, 24):
        calls.clear()
        np.testing.assert_array_equal(knn_query(pos, pos, k), knn_oracle(pos, pos, k))
        blocks = calls.count("query")
        assert blocks >= 600 // (64 // (k + cl._KNN_SLACK))
        # the block index of each fallback is the number of tree queries before it
        fallback_blocks = [calls[:i].count("query") for i, c in enumerate(calls) if c == "ball"]
        assert max(fallback_blocks) > 1


def test_knn_all_memory_stays_bounded_by_blocks():
    # Unblocked, the (n, k + slack) candidate arrays on this lattice peak at
    # about 8 MiB; blocks keep the peak at about 3.4 MiB.
    pos = synth_scene(SceneSpec("planar-boundary", points_per_class=2040)).positions
    tracemalloc.start()
    try:
        knn_all(pos, 24)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 5 * 2**20, f"knn_all peaked at {peak / 2**20:.1f} MiB"


def test_build_geometry_upsampling_follows_the_tie_rule_on_a_lattice():
    cloud = synth_scene(SceneSpec("planar-boundary", points_per_class=500))
    parent = cloud.positions
    for geo in build_geometry(cloud, Config(), with_labels=False):
        np.testing.assert_array_equal(geo.up_idx, knn_oracle(geo.positions, parent, 3))
        d2 = np.sum((geo.positions[geo.up_idx] - parent[:, None, :]) ** 2, axis=2)
        inv = 1.0 / np.maximum(d2, 1e-12)
        np.testing.assert_array_equal(geo.up_w, inv / inv.sum(axis=1, keepdims=True))
        parent = geo.positions


def fps_reference(positions, m, start):
    chosen = [start]
    d2 = np.sum((positions - positions[start]) ** 2, axis=1)
    for _ in range(m - 1):
        best = min(range(len(d2)), key=lambda j: (-d2[j], j))
        chosen.append(best)
        d2 = np.minimum(d2, np.sum((positions - positions[best]) ** 2, axis=1))
    return np.asarray(chosen, dtype=np.int64)


def test_fps_matches_reference():
    rng = np.random.default_rng(9)
    pos = rng.normal(size=(80, 3))
    for m in (1, 2, 20, 80):
        np.testing.assert_array_equal(fps_indices(pos, m, start=3),
                                      fps_reference(pos, m, 3))
    # tie-heavy lattice: equal distances must resolve to the same lowest index
    lattice = synth_scene(SceneSpec("planar-boundary", points_per_class=60)).positions
    np.testing.assert_array_equal(fps_indices(lattice, 40, start=0),
                                  fps_reference(lattice, 40, 0))


def test_fps_tie_prefers_lowest_index():
    # square: both corners at distance sqrt(2) from the start
    pos = np.array([[0.0, 0, 0], [1, 1, 0], [1, 0, 0], [0, 1, 0]])
    np.testing.assert_array_equal(fps_indices(pos, 2, start=0), [0, 1])
    # after (0, 1) the remaining two are tied again
    np.testing.assert_array_equal(fps_indices(pos, 3, start=0), [0, 1, 2])


def test_fps_validation():
    pos = np.zeros((4, 3))
    with pytest.raises(ValueError):
        fps_indices(pos, 0)
    with pytest.raises(ValueError):
        fps_indices(pos, 5)
    with pytest.raises(ValueError):
        fps_indices(pos, 2, start=4)


def test_rigid_transform_preserves_distances():
    rng = np.random.default_rng(2)
    c = PointCloud(rng.normal(size=(30, 3)), rng.integers(0, 2, 30), 2)
    theta = 0.7
    rot = np.array([[np.cos(theta), -np.sin(theta), 0],
                    [np.sin(theta), np.cos(theta), 0],
                    [0, 0, 1.0]])
    out = rigid_transform(c, rot, [1.0, -2.0, 0.5])
    d_before = np.linalg.norm(c.positions[:, None] - c.positions[None], axis=2)
    d_after = np.linalg.norm(out.positions[:, None] - out.positions[None], axis=2)
    np.testing.assert_allclose(d_after, d_before, atol=1e-12)
    np.testing.assert_array_equal(out.labels, c.labels)


def test_rigid_transform_rejects_non_orthonormal():
    c = PointCloud(np.zeros((2, 3)), np.zeros(2, dtype=int), 1)
    with pytest.raises(ValueError):
        rigid_transform(c, np.eye(3) * 2.0, np.zeros(3))


def test_scene_spec_validation():
    with pytest.raises(ValueError):
        SceneSpec("no-such-kind")
    with pytest.raises(ValueError):
        SceneSpec("two-rooms", points_per_class=4)
    with pytest.raises(ValueError):
        SceneSpec("two-rooms", noise_sigma=-0.1)


def test_synth_scene_deterministic():
    a = synth_scene(SceneSpec("two-rooms", points_per_class=64, noise_sigma=0.01, seed=4))
    b = synth_scene(SceneSpec("two-rooms", points_per_class=64, noise_sigma=0.01, seed=4))
    np.testing.assert_array_equal(a.positions, b.positions)
    np.testing.assert_array_equal(a.labels, b.labels)


def test_synth_scene_kinds():
    two = synth_scene(SceneSpec("two-rooms", points_per_class=32))
    assert two.num_classes == 3 and two.n == 96
    planar = synth_scene(SceneSpec("planar-boundary", points_per_class=50))
    assert planar.num_classes == 2 and planar.n == 100
    # noiseless planar scene: label equals the side of the x = 0 plane
    np.testing.assert_array_equal(planar.labels, (planar.positions[:, 0] > 0).astype(int))
    checker = synth_scene(SceneSpec("checker-columns", points_per_class=40))
    assert checker.num_classes == 2 and checker.n == 80


@pytest.mark.parametrize("sizes", [range(8, 301), (1000, 2040, 4096, 16384, 65536)],
                         ids=["ppc-8-300", "ppc-large"])
def test_planar_lattice_matches_the_loop_oracle_byte_for_byte(sizes):
    for ppc in sizes:
        pos, lab = cl._planar_lattice(ppc, cl.PLANAR_STEP)
        ref_pos, ref_lab = planar_lattice(ppc, cl.PLANAR_STEP)
        assert pos.dtype == ref_pos.dtype and lab.dtype == ref_lab.dtype, ppc
        assert pos.shape == ref_pos.shape and pos.tobytes() == ref_pos.tobytes(), ppc
        assert lab.tobytes() == ref_lab.tobytes(), ppc
