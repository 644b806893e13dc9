"""Segmentation metrics (OA, mACC, mIoU) and ambiguity-level breakdowns."""
from __future__ import annotations

import numpy as np

# Singleton bins use exact comparison with this tolerance.
BIN_TOL = 1e-12

AMBIGUITY_BINS = ("zero", "low", "semi", "high", "one")


def confusion(pred: np.ndarray, gt: np.ndarray, num_classes: int) -> np.ndarray:
    """(m, m) counts over the m classes present in gt or pred, in increasing id
    order; rows are ground truth, columns are prediction. Absent classes, which
    ``scores`` would exclude, get no row, so the size does not grow with the ids."""
    pred = np.asarray(pred, dtype=np.int64)
    gt = np.asarray(gt, dtype=np.int64)
    if pred.shape != gt.shape:
        raise ValueError("prediction and ground truth lengths differ")
    if pred.size and (pred.min() < 0 or pred.max() >= num_classes
                      or gt.min() < 0 or gt.max() >= num_classes):
        raise ValueError("labels must lie in [0, num_classes)")
    seen = np.zeros(num_classes, dtype=bool)
    seen[gt] = seen[pred] = True
    row = np.cumsum(seen) - 1   # each present class's row
    m = int(np.count_nonzero(seen))
    counts = np.bincount(row[gt] * m + row[pred], minlength=m * m)
    return counts.reshape(m, m)


def scores(cm: np.ndarray) -> tuple[float, float, float]:
    """(OA, mACC, mIoU) in percent; classes absent from gt and pred are excluded."""
    counts = cm.astype(np.float64)
    total = counts.sum()
    if total <= 0:
        raise ValueError("confusion matrix is empty")
    diag = np.diag(counts)
    row = counts.sum(axis=1)
    col = counts.sum(axis=0)
    present = (row + col) > 0
    oa = 100.0 * diag.sum() / total
    with np.errstate(invalid="ignore", divide="ignore"):
        acc = np.where(row > 0, diag / row, np.where(present, 0.0, np.nan))
        union = row + col - diag
        iou = np.where(union > 0, diag / union, np.nan)
    macc = 100.0 * np.nanmean(np.where(present, acc, np.nan))
    miou = 100.0 * np.nanmean(np.where(present, iou, np.nan))
    return float(oa), float(macc), float(miou)


def bin_membership(ambiguities: np.ndarray) -> dict[str, np.ndarray]:
    a = np.asarray(ambiguities, dtype=np.float64)
    zero = np.abs(a) <= BIN_TOL
    semi = np.abs(a - 0.5) <= BIN_TOL
    one = np.abs(a - 1.0) <= BIN_TOL
    low = ~zero & ~semi & ~one & (a < 0.5)
    high = ~zero & ~semi & ~one & (a > 0.5)
    return dict(zip(AMBIGUITY_BINS, (zero, low, semi, high, one)))


def breakdown(pred: np.ndarray, gt: np.ndarray, ambiguities: np.ndarray,
              num_classes: int) -> dict[str, tuple[int, float, float]]:
    """Per-ambiguity-bin (count, mIoU, mACC); empty bins report NaN scores."""
    pred = np.asarray(pred, dtype=np.int64)
    gt = np.asarray(gt, dtype=np.int64)
    a = np.asarray(ambiguities, dtype=np.float64)
    if not pred.shape == gt.shape == a.shape:
        raise ValueError("inputs must share length")
    table: dict[str, tuple[int, float, float]] = {}
    for name, mask in bin_membership(a).items():
        count = int(mask.sum())
        if count == 0:
            table[name] = (0, float("nan"), float("nan"))
            continue
        _, macc, miou = scores(confusion(pred[mask], gt[mask], num_classes))
        table[name] = (count, miou, macc)
    return table
