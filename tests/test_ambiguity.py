import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ambiseg.ambiguity import ambiguity_map
from ambiseg.cloud import PointCloud, knn_all
from ambiseg.config import Config
from ambiseg.network import build_geometry
from oracles import partition, point_ambiguity


def searched(cloud, k, beta=Config().beta):
    """ambiguity_map over the cloud's own K-wide search, as ``ambiseg ambiguity`` runs it."""
    return ambiguity_map(cloud.labels, knn_all(cloud.positions, k), beta)


def brute_ambiguity(cloud, k, beta, dup_epsilon=1e-9):
    """Independent O(n^2) reference: python loops, explicit tie sort."""
    pos = cloud.positions
    lab = cloud.labels
    out = np.empty(cloud.n)
    for i in range(cloud.n):
        d2 = [float(np.sum((pos[j] - pos[i]) ** 2)) for j in range(cloud.n)]
        order = sorted(range(cloud.n), key=lambda j: (d2[j], j))[:k]
        intra = [j for j in order if lab[j] == lab[i]]
        inter = [j for j in order if lab[j] != lab[i]]
        if len(intra) == k:
            out[i] = 0.0
        elif len(intra) == 1:
            out[i] = 1.0
        else:
            d_plus = sum(d2[j] for j in intra)
            d_minus = sum(d2[j] for j in inter)
            cc_plus = len(intra) / max(d_plus, dup_epsilon)
            cc_minus = len(inter) / max(d_minus, dup_epsilon)
            out[i] = 1.0 / (1.0 + math.exp(beta * (cc_plus - cc_minus)))
    return out


def test_partition_covers_neighborhood():
    # the loss's partition: each labelled stage's K-neighbour rows and intra mask
    rng = np.random.default_rng(0)
    c = PointCloud(rng.normal(size=(400, 3)), rng.integers(0, 3, 400), 3)
    cfg = Config(k=8, k_tilde=4, dims=(6, 8), stages=2)
    for geo in build_geometry(c, cfg):
        n_s = geo.positions.shape[0]
        assert geo.nbr_matrix.shape == (n_s, cfg.k)
        # distinct random points: each anchor is its own zero-distance neighbour, intra
        np.testing.assert_array_equal(geo.nbr_matrix[:, 0], np.arange(n_s))
        assert geo.intra_mask[:, 0].all()
        np.testing.assert_array_equal(geo.intra_mask,
                                      geo.labels[geo.nbr_matrix] == geo.labels[:, None])


@pytest.mark.filterwarnings("error")
def test_closeness_empty_inter_is_zero():
    # anchors whose whole neighbourhood shares their label (empty inter set,
    # d_minus = 0) score 0 without a division warning, inside a mixed cloud too
    pos = np.random.default_rng(1).normal(size=(10, 3))
    pure = searched(PointCloud(pos, np.zeros(10, dtype=int), 1), 5)
    np.testing.assert_array_equal(pure.values, 0.0)
    far = np.vstack([pos, pos[:4] + 100.0])
    mixed = searched(PointCloud(far, np.array([0] * 10 + [1] * 4), 2), 4)
    np.testing.assert_array_equal(mixed.values, 0.0)


def test_ambiguity_piecewise_branches():
    # pure, isolated and mixed neighbourhoods of a 4-point cloud, K = 4
    pos = np.array([[0.0, 0, 0], [1, 0, 0], [0, 2, 0], [0, 0, 2]])
    assert np.all(searched(PointCloud(pos, np.zeros(4, dtype=int), 1), 4).values == 0.0)
    lonely = searched(PointCloud(pos, np.array([0, 1, 1, 1]), 2), 4)
    assert lonely.values[0] == 1.0
    # point 0: cc+ = 2 / 1 and cc- = 2 / (4 + 4), so the gap is 0.04 * 1.75 = 0.07
    mixed = searched(PointCloud(pos, np.array([0, 0, 1, 1]), 2), 4, 0.04)
    assert abs(mixed.values[0] - 1.0 / (1.0 + math.exp(0.07))) <= 1e-12


def test_ambiguity_map_matches_brute_reference_exactly():
    rng = np.random.default_rng(7)
    c = PointCloud(rng.normal(size=(60, 3)), rng.integers(0, 3, 60), 3)
    beta = 0.04
    got = searched(c, 10, beta).values
    expected = brute_ambiguity(c, 10, beta)
    np.testing.assert_array_equal(got, expected)


def test_ambiguity_map_matches_per_point_path_bitwise():
    rng = np.random.default_rng(8)
    c = PointCloud(rng.normal(size=(50, 3)), rng.integers(0, 2, 50), 2)
    beta = Config().beta
    nbrs, d2 = knn_all(c.positions, 24)
    # a K-wide search, and K-column prefixes of one wider search as build_geometry
    # passes them
    cases = [(12, searched(c, 12, beta))] + [
        (k, ambiguity_map(c.labels, (nbrs[:, :k], d2[:, :k]), beta)) for k in (2, 5, 12)]
    for k, amb in cases:
        for i in range(c.n):
            assert amb.values[i] == point_ambiguity(c.positions, c.labels, i, k, beta)


@pytest.mark.filterwarnings("error")
def test_overflowing_closeness_gap_saturates_to_zero():
    # a duplicate same-label twin gives d_plus = 0, so cc_plus = 2 / dup_epsilon
    # and beta * (cc_plus - cc_minus) is about 8e7, far past exp's range
    pos = np.array([[0.0, 0, 0], [0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1]])
    c = PointCloud(pos, np.array([0, 0, 1, 1, 0]), 2)
    beta = Config().beta
    values = searched(c, 4, beta).values
    for i in (0, 1):
        _, same, d2 = partition(c.positions, c.labels, i, 4)
        assert same.sum() == 2 and np.sum(d2 * same) == 0.0
        assert point_ambiguity(c.positions, c.labels, i, 4, beta) == 0.0
        assert values[i] == 0.0


def test_ambiguity_map_rejects_oversized_k():
    # K is the search's width, so the search's own bound rejects K > n
    c = PointCloud(np.zeros((5, 3)), np.zeros(5, dtype=int), 1)
    with pytest.raises(ValueError):
        searched(c, 6)


def test_pure_and_isolated_neighborhoods():
    # one lonely class-1 point inside a class-0 cluster
    pos = np.vstack([np.random.default_rng(2).normal(size=(20, 3)), [[0.0, 0, 0]]])
    lab = np.array([0] * 20 + [1])
    c = PointCloud(pos, lab, 2)
    values = searched(c, 5).values
    assert values[20] == 1.0
    # and a fully pure cloud is all zeros
    pure = PointCloud(pos, np.zeros(21, dtype=int), 1)
    assert np.all(searched(pure, 5).values == 0.0)


def uniform_cloud(n, num_classes, seed):
    rng = np.random.default_rng(seed)
    return PointCloud(rng.uniform(0.0, 4.0, size=(n, 3)), rng.integers(0, num_classes, n),
                      num_classes)


# Seeded uniform clouds rather than drawn raw floats: no exact distance ties,
# so the neighbour sets survive a rigid motion.
clouds = st.builds(uniform_cloud, st.integers(30, 400), st.integers(2, 4),
                   st.integers(0, 2**32 - 1))


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(cloud=clouds, k=st.integers(2, 30), seed=st.integers(0, 2**32 - 1))
def test_ambiguity_map_properties_on_uniform_clouds(cloud, k, seed):
    values = searched(cloud, k).values
    assert values.shape == (cloud.n,)
    assert np.all((values >= 0.0) & (values <= 1.0))
    # invariant under a rigid motion
    rng = np.random.default_rng(seed)
    rotation, _ = np.linalg.qr(rng.normal(size=(3, 3)))
    moved = PointCloud(cloud.positions @ rotation.T + rng.uniform(-10.0, 10.0, size=3),
                       cloud.labels, cloud.num_classes)
    np.testing.assert_allclose(searched(moved, k).values, values, rtol=0.0, atol=1e-9)
