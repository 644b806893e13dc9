import math
import tracemalloc

import numpy as np
import pytest

from ambiseg.metrics import AMBIGUITY_BINS, bin_membership, breakdown, confusion, scores
from oracles import bin_of


def test_confusion_counts():
    pred = np.array([0, 1, 1, 2, 0])
    gt = np.array([0, 1, 2, 2, 1])
    cm = confusion(pred, gt, 3)
    expected = np.array([[1, 0, 0],
                         [1, 1, 0],
                         [0, 1, 1]])
    np.testing.assert_array_equal(cm, expected)
    assert cm.sum() == 5
    with pytest.raises(ValueError):
        confusion(pred, gt[:3], 3)
    with pytest.raises(ValueError):
        confusion(pred, gt, 2)


def test_scores_hand_computed():
    pred = np.array([0, 1, 1, 2, 0])
    gt = np.array([0, 1, 2, 2, 1])
    oa, macc, miou = scores(confusion(pred, gt, 3))
    assert oa == pytest.approx(100.0 * 3 / 5)
    assert macc == pytest.approx(100.0 * (1.0 + 0.5 + 0.5) / 3)
    # per-class IoU: 0 -> 1/2, 1 -> 1/3, 2 -> 1/2
    assert miou == pytest.approx(100.0 * (0.5 + 1 / 3 + 0.5) / 3)


def test_scores_exclude_absent_classes():
    # class 2 never occurs in gt or pred and must not dilute the means
    pred = np.array([0, 1, 1, 0])
    gt = np.array([0, 1, 0, 0])
    oa, macc, miou = scores(confusion(pred, gt, 3))
    assert oa == pytest.approx(75.0)
    assert macc == pytest.approx(100.0 * (2 / 3 + 1.0) / 2)
    assert miou == pytest.approx(100.0 * (2 / 3 + 0.5) / 2)


def dense_confusion(pred, gt, num_classes):
    """A (C, C) count with a row and a column for every class id below C."""
    cm = np.zeros((num_classes, num_classes), dtype=np.int64)
    np.add.at(cm, (gt, pred), 1)
    return cm


def test_confusion_counts_only_the_present_classes():
    rng = np.random.default_rng(4)
    pred, gt = rng.choice([0, 2, 5], size=40), rng.choice([0, 2, 5], size=40)
    dense = dense_confusion(pred, gt, 7)
    cm = confusion(pred, gt, 7)
    np.testing.assert_array_equal(cm, dense[np.ix_([0, 2, 5], [0, 2, 5])])
    assert scores(cm) == scores(dense)
    # classes {0, 3000}: the dense count would be a 72 MB (3001, 3001) matrix
    pred, gt = rng.choice([0, 3000], size=200), rng.choice([0, 3000], size=200)
    tracemalloc.start()
    try:
        cm = confusion(pred, gt, 3001)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 ** 20, peak
    assert cm.shape == (2, 2) and cm.sum() == 200
    assert scores(cm) == scores(dense_confusion(pred, gt, 3001))


def test_scores_perfect():
    gt = np.array([0, 1, 2, 1])
    oa, macc, miou = scores(confusion(gt, gt, 3))
    assert (oa, macc, miou) == (100.0, 100.0, 100.0)


def test_bin_of_singletons_and_ranges():
    assert bin_of(0.0) == "zero"
    assert bin_of(0.5) == "semi"
    assert bin_of(1.0) == "one"
    assert bin_of(1e-13) == "zero"  # inside singleton tolerance
    assert bin_of(0.2) == "low"
    assert bin_of(0.7) == "high"
    # bin_membership puts each value in the bin the per-point oracle names
    a = np.array([0.0, 1e-13, -1e-13, 0.2, 0.5 - 1e-13, 0.5, 0.5 + 2e-12, 0.7,
                  1.0 - 1e-13, 1.0, 1.0 + 1e-13])
    bins = bin_membership(a)
    assert tuple(bins) == AMBIGUITY_BINS
    for i, v in enumerate(a):
        assert [name for name, mask in bins.items() if mask[i]] == [bin_of(float(v))]


def test_bin_membership_partitions():
    a = np.array([0.0, 0.1, 0.5, 0.9, 1.0, 0.49999, 0.50001])
    bins = bin_membership(a)
    stack = np.stack(list(bins.values()))
    np.testing.assert_array_equal(stack.sum(axis=0), 1)  # each point in one bin
    assert bins["zero"][0] and bins["semi"][2] and bins["one"][4]
    assert bins["low"][1] and bins["low"][5]
    assert bins["high"][3] and bins["high"][6]


def test_breakdown():
    pred = np.array([0, 0, 1, 1])
    gt = np.array([0, 1, 1, 1])
    amb = np.array([0.0, 0.0, 0.5, 1.0])
    table = breakdown(pred, gt, amb, 2)
    assert table["zero"][0] == 2
    assert table["semi"][0] == 1
    assert table["one"][0] == 1
    assert table["low"][0] == 0 and math.isnan(table["low"][1])
    # the semi bin is a single correct class-1 point
    count, miou, macc = table["semi"]
    assert (count, miou, macc) == (1, 100.0, 100.0)
    with pytest.raises(ValueError):
        breakdown(pred, gt, amb[:2], 2)
