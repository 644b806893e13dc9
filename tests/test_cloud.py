import dataclasses
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ambiseg import cloud as cl
from ambiseg import network
from ambiseg.cloud import PointCloud, SceneSpec, fps_indices, knn_all, knn_query, synth_scene
from ambiseg.config import Config
from ambiseg.network import _stage_sizes, build_geometry
from oracles import checker_columns, fps_reference, planar_lattice


def brute_knn(positions, anchor, k):
    """Reference neighbor search: full sort by (squared distance, index)."""
    d2 = np.sum((positions - positions[anchor]) ** 2, axis=1)
    order = sorted(range(len(d2)), key=lambda j: (d2[j], j))
    return np.asarray(order[:k], dtype=np.int64)


def knn_of(positions, anchor, k):
    """One anchor's row of knn_query's indices."""
    idx, _ = knn_query(positions, positions[anchor:anchor + 1], k)
    return idx[0]


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


def test_pointcloud_rejects_positions_whose_squared_distances_overflow():
    # Past about 1.3e154 apart the kd-tree reports no neighbour at all.
    far = np.zeros((5, 3))
    far[0, 0] = 1e160
    with pytest.raises(ValueError, match="squared distances overflow"):
        PointCloud(far, np.zeros(5, dtype=int), 1)
    # at +-1e150 the bounding box's squared diagonal, about 1.2e301, is finite
    wide = np.random.default_rng(3).choice([-1e150, 0.0, 1e150], size=(40, 3))
    cloud = PointCloud(wide, np.zeros(40, dtype=int), 1)
    assert_search_equal(knn_all(cloud.positions, 6),
                        knn_oracle(cloud.positions, cloud.positions, 6))


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
    got, _ = knn_all(pos, 16)
    np.testing.assert_array_equal(got, expected)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(rows=st.integers(1, 8), width=st.integers(1, 40), levels=st.integers(1, 4),
       seed=st.integers(0, 2**32 - 1), top=st.sampled_from([40, 2**20, 2**53 - 1]))
def test_ranked_keys_follow_the_distance_then_index_order(rows, width, levels, seed, top):
    # few distinct squared distances, +0, the smallest subnormal and +inf among
    # them, so most entries tie; distinct shuffled indices up to 2**53 - 1
    rng = np.random.default_rng(seed)
    d2 = rng.choice([0.0, 5e-324, 1.0, 2.5, np.inf][:levels + 1], size=(rows, width))
    idx = np.stack([rng.choice(top, width, replace=False) for _ in range(rows)])
    idx[:, 0] = top
    order = np.lexsort((idx, d2), axis=1)
    want_idx, want_d2 = np.take_along_axis(idx, order, 1), np.take_along_axis(d2, order, 1)
    key = cl._rank_keys(d2, idx)
    key.sort(axis=1)
    # a partition puts each row's first j in the same order
    first = cl._rank_keys(d2, idx)
    first.partition(range(j := (width + 1) // 2), axis=1)
    for got, cols in ((key, slice(None)), (first[:, :j], slice(j))):
        np.testing.assert_array_equal(got.imag.astype(np.int64), want_idx[:, cols])
        assert got.real.tobytes() == np.ascontiguousarray(want_d2[:, cols]).tobytes()


def test_knn_validation():
    pos = np.zeros((5, 3))
    with pytest.raises(ValueError):
        knn_of(pos, 0, 6)
    with pytest.raises(ValueError):
        knn_all(pos, 0)
    with pytest.raises(ValueError):
        knn_query(pos, np.zeros((2, 3)), 6)
    idx, _ = knn_query(pos, np.zeros((0, 3)), 2)
    assert idx.shape == (0, 2)


def test_knn_wrapper_includes_anchor_first_on_distinct_points():
    rng = np.random.default_rng(5)
    c = PointCloud(rng.normal(size=(50, 3)), rng.integers(0, 2, 50), 2)
    nb, _ = knn_all(c.positions, 6)
    assert nb.shape == (50, 6)
    # each anchor is its own zero-distance neighbor
    np.testing.assert_array_equal(nb[:, 0], np.arange(50))


def knn_oracle(ref, queries, k):
    """Reference k-NN: every ref row sorted by (np.sum of squared differences,
    index); the (m, k) indices and those sums at them."""
    rows, sums = [], []
    for q in queries:
        d2 = np.sum((ref - q) ** 2, axis=1)
        rows.append(np.lexsort((np.arange(ref.shape[0]), d2))[:k])
        sums.append(d2[rows[-1]])
    return (np.asarray(rows, dtype=np.int64).reshape(len(queries), k),
            np.asarray(sums, dtype=np.float64).reshape(len(queries), k))


def assert_search_equal(got, want):
    """The same (indices, squared distances) pair, the distances bit for bit."""
    (idx, d2), (want_idx, want_d2) = got, want
    np.testing.assert_array_equal(idx, want_idx)
    np.testing.assert_array_equal(d2, want_d2)
    assert d2.dtype == want_d2.dtype and d2.tobytes() == want_d2.tobytes()


def record_tree_calls(monkeypatch):
    """Record knn_query's tree queries as (candidates, rows) pairs."""
    calls = []

    class RecordingTree(cl.cKDTree):
        def query(self, x, k=1, *args, **kwargs):
            calls.append((k, len(x)))
            return super().query(x, k, *args, **kwargs)

    monkeypatch.setattr(cl, "cKDTree", RecordingTree)
    return calls


def width_rows(calls):
    """Rows of one knn_query call queried at each width, keyed by its candidate
    count; the widths come in the order they were queried."""
    rows = {}
    for kc, m in calls:
        rows[kc] = rows.get(kc, 0) + m
    return rows


def duplicate_heavy_cloud():
    """200 normal points and 60 more copies of one of them: rows near the copies
    stay tied past the second width's 2k + slack candidates at k = 20."""
    pos = np.random.default_rng(8).normal(size=(200, 3))
    return np.vstack([pos[:130], np.repeat(pos[130:131], 60, axis=0), pos[130:]])


def test_knn_query_matches_oracle():
    rng = np.random.default_rng(21)
    ref = rng.normal(size=(300, 3))
    ref[150:180] = ref[:30]  # exact duplicates
    # queries off the reference set, plus some that coincide with duplicated rows
    queries = np.vstack([rng.normal(size=(40, 3)), ref[:10], ref[160:165]])
    for k in (1, 3, 16, 40, 300):
        assert_search_equal(knn_query(ref, queries, k), knn_oracle(ref, queries, k))


def test_knn_query_lattice_ties_take_the_exact_fallback(monkeypatch):
    # On the lattice, rows tied at the first width's candidate boundary are
    # all settled by the second width.
    calls = record_tree_calls(monkeypatch)
    pos = synth_scene(SceneSpec("planar-boundary", points_per_class=300)).positions
    slack = cl._KNN_SLACK
    for k in (8, 24):
        calls.clear()
        assert_search_equal(knn_query(pos, pos, k), knn_oracle(pos, pos, k))
        rows = width_rows(calls)
        assert list(rows) == [k + slack, 2 * k + slack], (k, rows)
        assert rows[k + slack] == 600 and rows[2 * k + slack] > 0, (k, rows)


def test_knn_query_duplicate_heavy_rows_reach_a_third_width(monkeypatch):
    calls = record_tree_calls(monkeypatch)
    pos = duplicate_heavy_cloud()
    assert_search_equal(knn_query(pos, pos, 20), knn_oracle(pos, pos, 20))
    rows = width_rows(calls)
    assert list(rows) == [24, 44, 164], rows
    # the 61 copies, plus normal points whose 20th neighbour is among them
    assert rows[164] > 61, rows


def record_rank_widths(monkeypatch):
    """Record the candidate count of every _ranked_candidates call, in call order."""
    widths = []

    def recording(tree, cols, q, kc):
        widths.append(kc)
        return ranked(tree, cols, q, kc)

    ranked = cl._ranked_candidates
    monkeypatch.setattr(cl, "_ranked_candidates", recording)
    return widths


def test_knn_query_grows_a_tie_cluster_fourfold_after_its_second_pass(monkeypatch):
    # 2,000 copies of one point among 10,000: the copies' rows stay tied until
    # their candidates hold the whole cluster. Growing by 2k + slack, then four
    # times the last width, reaches it in five passes where doubling took eight.
    widths = record_rank_widths(monkeypatch)
    rng = np.random.default_rng(4)
    pos = rng.normal(size=(10_000, 3))
    pos[3000:5000] = pos[3000]
    k, slack = 24, cl._KNN_SLACK
    knn_all(pos, k)
    assert list(dict.fromkeys(widths)) == [w + slack for w in (k, 2 * k, 8 * k, 32 * k, 128 * k)]
    # a smaller cluster crosses the same widths, and its rows equal brute force
    pos = rng.normal(size=(1500, 3))
    pos[200:500] = pos[200]
    widths.clear()
    assert_search_equal(knn_all(pos, k), knn_oracle(pos, pos, k))
    assert list(dict.fromkeys(widths)) == [w + slack for w in (k, 2 * k, 8 * k, 32 * k)]


def test_knn_query_property_on_integer_grids(monkeypatch):
    calls = record_tree_calls(monkeypatch)
    widths, took_every_point = set(), []

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(n=st.integers(1, 400), extent=st.integers(1, 6), seed=st.integers(0, 2**32 - 1),
           k_frac=st.floats(0.0, 1.0))
    def check(n, extent, seed, k_frac):
        # integer-grid clouds are full of exact distance ties and duplicates
        rng = np.random.default_rng(seed)
        ref = rng.integers(0, extent + 1, size=(n, 3)).astype(np.float64)
        # queries on the half-step grid, so some sit between reference points
        queries = rng.integers(0, 2 * extent + 1, size=(25, 3)) / 2.0
        k = 1 + int(k_frac ** 2 * (n - 1))
        calls.clear()
        assert_search_equal(knn_query(ref, queries, k), knn_oracle(ref, queries, k))
        rows = width_rows(calls)
        widths.add(min(len(rows), 3))
        if len(rows) > 1 and max(rows) == n:
            took_every_point.append((n, k))

    check()
    assert widths == {1, 2, 3}
    # some rows were widened until their candidates were the whole cloud
    assert took_every_point


def test_knn_query_blocks_keep_their_row_offsets(monkeypatch):
    # Blocks of a few rows split every width into many tree calls; each must
    # write back to the rows of its own block.
    monkeypatch.setattr(cl, "_BLOCK_ELEMS", 64)
    calls = record_tree_calls(monkeypatch)
    lattice = synth_scene(SceneSpec("planar-boundary", points_per_class=300)).positions
    for pos, k in ((lattice, 8), (lattice, 24), (duplicate_heavy_cloud(), 20)):
        calls.clear()
        assert_search_equal(knn_query(pos, pos, k), knn_oracle(pos, pos, k))
        widths = list(width_rows(calls))
        assert len(widths) >= 2, widths
        for kc in widths:
            blocks = [m for c, m in calls if c == kc]
            assert len(blocks) > 1 and max(blocks) <= max(1, 64 // kc), (kc, blocks)


def test_knn_all_memory_stays_bounded_by_blocks():
    # Unblocked, the (n, k + slack) candidate arrays on this lattice peak at
    # about 8 MiB; blocks keep the peak at about 4.1 MiB, the (n, k) output
    # indices and squared distances included.
    pos = synth_scene(SceneSpec("planar-boundary", points_per_class=2040)).positions
    tracemalloc.start()
    try:
        knn_all(pos, 24)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 5 * 2**20, f"knn_all peaked at {peak / 2**20:.1f} MiB"


def test_knn_all_memory_stays_bounded_on_a_large_duplicate_cluster():
    # 2,000 copies of one point: their rows widen until the candidates hold
    # the cluster, still in bounded blocks. A radius query per row would hold
    # the whole cluster for each of them at once, about 99 MiB.
    rng = np.random.default_rng(4)
    pos = rng.normal(size=(10_000, 3))
    pos[3000:5000] = pos[3000]
    tracemalloc.start()
    try:
        nb, d2 = knn_all(pos, 24)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20, f"knn_all peaked at {peak / 2**20:.1f} MiB"
    rows = np.r_[2990:3010, 4990:5010, rng.choice(10_000, 40, replace=False)]
    assert_search_equal((nb[rows], d2[rows]), knn_oracle(pos, pos[rows], 24))


def check_upsampling_follows_the_tie_rule(spec):
    """At every stage, up_idx is the oracle's 3-NN and up_w the inverse-squared-
    distance weights of the gathered positions."""
    cloud = synth_scene(spec)
    parent = cloud.positions
    for geo in build_geometry(cloud, Config()):
        np.testing.assert_array_equal(geo.up_idx, knn_oracle(geo.positions, parent, 3)[0])
        d2 = np.sum((geo.positions[geo.up_idx] - parent[:, None, :]) ** 2, axis=2)
        inv = 1.0 / np.maximum(d2, 1e-12)
        np.testing.assert_array_equal(geo.up_w, inv / inv.sum(axis=1, keepdims=True))
        parent = geo.positions


def test_build_geometry_upsampling_follows_the_tie_rule_on_a_lattice():
    check_upsampling_follows_the_tie_rule(SceneSpec("planar-boundary", points_per_class=500))


def test_build_geometry_upsampling_follows_the_tie_rule_on_noisy_rooms():
    check_upsampling_follows_the_tie_rule(SceneSpec("two-rooms", points_per_class=300,
                                                    noise_sigma=0.02))


def geometry_bytes(geoms):
    """Every array of every stage as (stage, field, dtype, shape, bytes)."""
    return [(s, f.name, a.dtype.str, a.shape, a.tobytes())
            for s, geo in enumerate(geoms) for f in dataclasses.fields(geo)
            for a in [getattr(geo, f.name)]]


def record_knn_queries(monkeypatch):
    """Record the knn_query calls of build_geometry and of the cloud functions it
    calls as (reference rows, query rows, k)."""
    calls = []

    def recording(ref, queries, k):
        calls.append((len(ref), len(queries), k))
        return knn_query(ref, queries, k)

    monkeypatch.setattr(network, "knn_query", recording)
    monkeypatch.setattr(cl, "knn_query", recording)
    return calls


@pytest.mark.parametrize("case", ["two-rooms", "lattice", "duplicates", "three-stages"])
def test_build_geometry_is_the_same_with_a_parent_search(case, monkeypatch):
    cfg = Config(stages=3, dims=(8, 16, 32)) if case == "three-stages" else Config()
    if case == "lattice":
        cloud = synth_scene(SceneSpec("planar-boundary", points_per_class=500))
    elif case == "duplicates":
        pos = duplicate_heavy_cloud()
        cloud = PointCloud(pos, np.arange(len(pos)) % 2, 2)
    else:
        cloud = synth_scene(SceneSpec("two-rooms", points_per_class=300, noise_sigma=0.02))
    calls = record_knn_queries(monkeypatch)
    sizes = _stage_sizes(cloud.n, cfg)
    parents = [cloud.n] + sizes[:-1]
    want = geometry_bytes(build_geometry(cloud, cfg))
    for k in (cfg.k, 4):
        calls.clear()
        got = build_geometry(cloud, cfg, search=knn_all(cloud.positions, k))
        assert geometry_bytes(got) == want, (case, k)
        for s, (n_parent, n_s) in enumerate(zip(parents, sizes), start=1):
            # a stage queries its encoder rows only when its parent's search is too
            # narrow, so only stage 1 under a narrow caller's search; its upsampling
            # rows only where they cannot be read from that search
            enc = [c for c in calls if c == (n_parent, n_s, min(cfg.k, n_parent))]
            up = [m for ref, m, kq in calls if (ref, kq) == (n_s, 3)]
            assert len(enc) == (s == 1 and k < cfg.k), (s, calls)
            assert len(up) <= 1, (s, calls)
            if s == 1:
                assert k < cfg.k or sum(up) < cloud.n, calls
            else:
                # the parent stage searched max(k_tilde, k) wide
                assert sum(up) < n_parent // 10, (s, calls)
        if case == "lattice" and k == cfg.k:
            # ties among the sampled entries are ranked, so few tied lattice
            # rows fall back
            assert sum(m for ref, m, kq in calls if (ref, kq) == (sizes[0], 3)) \
                < cloud.n // 20, calls


def test_fps_matches_reference():
    rng = np.random.default_rng(9)
    pos = rng.normal(size=(80, 3))
    for m in (1, 2, 20, 80):
        np.testing.assert_array_equal(fps_indices(pos, m), fps_reference(pos, m))
    # tie-heavy lattice: equal distances must resolve to the same lowest index
    lattice = synth_scene(SceneSpec("planar-boundary", points_per_class=60)).positions
    np.testing.assert_array_equal(fps_indices(lattice, 40), fps_reference(lattice, 40))


def integer_cloud(n, extent, seed, copies):
    """n points on the integer grid [0, extent]^3, then ``copies`` more of point 0:
    distances tie everywhere and duplicates stay at distance 0."""
    pos = np.random.default_rng(seed).integers(0, extent + 1, size=(n, 3)).astype(np.float64)
    return np.vstack([pos, np.repeat(pos[:1], copies, axis=0)])


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(n=st.integers(1, 120), extent=st.integers(1, 5), seed=st.integers(0, 2**32 - 1),
       copies=st.sampled_from([0, 0, 3, 30]), m_frac=st.floats(0.0, 1.0))
def test_fps_with_a_search_matches_the_full_steps_and_the_oracle(n, extent, seed, copies, m_frac):
    pos = integer_cloud(n, extent, seed, copies)
    m = 1 + int(m_frac * (pos.shape[0] - 1))
    want = fps_reference(pos, m)
    np.testing.assert_array_equal(fps_indices(pos, m), want)
    for k in sorted({min(k, pos.shape[0]) for k in (1, 2, 8, pos.shape[0])}):
        np.testing.assert_array_equal(fps_indices(pos, m, knn_all(pos, k)), want)


def test_knn_sampled_reads_the_query_rows_from_a_search(monkeypatch):
    calls = record_knn_queries(monkeypatch)
    read = []

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(n=st.integers(1, 120), extent=st.integers(1, 5), seed=st.integers(0, 2**32 - 1),
           copies=st.sampled_from([0, 0, 3, 30]), m_frac=st.floats(0.0, 1.0))
    def check(n, extent, seed, copies, m_frac):
        pos = integer_cloud(n, extent, seed, copies)
        n = pos.shape[0]
        idx = np.random.default_rng(seed).permutation(n)[:1 + int(m_frac * (n - 1))]
        k_up = min(3, idx.size)
        want = knn_query(pos[idx], pos, k_up)
        for k in sorted({min(k, n) for k in (1, 2, 3, 4, 24, n)}):
            search = knn_all(pos, k)
            calls.clear()
            assert_search_equal(cl.knn_sampled(pos, idx, k_up, search), want)
            queried = sum(m for _, m, _ in calls)
            if k < k_up:
                # a search narrower than k_up is not read at all
                assert queried == n, (k, k_up, calls)
            read.append(n - queried)

    check()
    assert sum(read) > 0


def test_fps_tie_prefers_lowest_index():
    # square: both corners at distance sqrt(2) from the start
    pos = np.array([[0.0, 0, 0], [1, 1, 0], [1, 0, 0], [0, 1, 0]])
    np.testing.assert_array_equal(fps_indices(pos, 2), [0, 1])
    # after (0, 1) the remaining two are tied again
    np.testing.assert_array_equal(fps_indices(pos, 3), [0, 1, 2])


def test_fps_validation():
    pos = np.zeros((4, 3))
    with pytest.raises(ValueError):
        fps_indices(pos, 0)
    with pytest.raises(ValueError):
        fps_indices(pos, 5)


def test_scene_spec_validation():
    with pytest.raises(ValueError):
        SceneSpec("no-such-kind")
    with pytest.raises(ValueError):
        SceneSpec("two-rooms", points_per_class=4)
    for sigma in (-0.1, math.nan, math.inf):
        with pytest.raises(ValueError, match="noise_sigma must be finite and >= 0"):
            SceneSpec("two-rooms", noise_sigma=sigma)


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


def assert_scene_is_the_oracle(cloud, ref_pos, ref_lab, ppc):
    pos, lab = cloud.positions, cloud.labels
    assert pos.dtype == ref_pos.dtype and lab.dtype == ref_lab.dtype, ppc
    assert pos.shape == ref_pos.shape and pos.tobytes() == ref_pos.tobytes(), ppc
    assert lab.tobytes() == ref_lab.tobytes(), ppc
    assert cloud.num_classes == 2, ppc


SCENE_SIZES = pytest.mark.parametrize(
    "sizes", [range(8, 301), (1000, 2040, 4096, 16384, 65536)], ids=["ppc-8-300", "ppc-large"])


@SCENE_SIZES
def test_planar_lattice_matches_the_loop_oracle_byte_for_byte(sizes):
    for ppc in sizes:
        cloud = synth_scene(SceneSpec("planar-boundary", ppc))
        assert_scene_is_the_oracle(cloud, *planar_lattice(ppc, cl.PLANAR_STEP), ppc)


@SCENE_SIZES
@pytest.mark.parametrize("seed", [0, 5, 701])
def test_checker_columns_matches_the_loop_oracle_byte_for_byte(sizes, seed):
    for ppc in sizes:
        cloud = synth_scene(SceneSpec("checker-columns", ppc, 0.0, seed))
        ref = checker_columns(ppc, np.random.default_rng(seed))
        assert_scene_is_the_oracle(cloud, *ref, ppc)
