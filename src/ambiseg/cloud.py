"""Point-cloud containers, neighbor search, sampling, transforms, synthetic scenes."""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.spatial import cKDTree

# knn_query takes candidates from a kd-tree when the reference set has more
# points than this, else from blocked brute force; both re-rank them by the
# (squared distance, index) rule and agree exactly.
KDTREE_CUTOFF = 4096
# Extra candidates per query beyond k, so ties at the k-th distance are rarely
# cut off by the candidate boundary and rows seldom take the exact fallback.
_KNN_SLACK = 8
# Distance entries per brute-force block of query rows: 512 KB of float64,
# small enough for the block's temporaries to stay in cache.
_BRUTE_BLOCK_ELEMS = 1 << 16

SCENE_KINDS = ("two-rooms", "planar-boundary", "checker-columns")


def _readonly(a: np.ndarray) -> np.ndarray:
    a = np.ascontiguousarray(a)
    a.setflags(write=False)
    return a


@dataclass(frozen=True)
class PointCloud:
    """Immutable labeled point set.

    positions: (n, 3) float64, labels: (n,) int64 in [0, num_classes),
    features: optional (n, D) float64.
    """

    positions: np.ndarray
    labels: np.ndarray
    num_classes: int
    features: np.ndarray | None = None

    def __post_init__(self):
        pos = np.asarray(self.positions, dtype=np.float64)
        lab = np.asarray(self.labels, dtype=np.int64)
        if pos.ndim != 2 or pos.shape[1] != 3:
            raise ValueError(f"positions must be (n, 3), got {pos.shape}")
        n = pos.shape[0]
        if n < 1:
            raise ValueError("point cloud must contain at least one point")
        if lab.shape != (n,):
            raise ValueError(f"labels must be ({n},), got {lab.shape}")
        if self.num_classes < 1:
            raise ValueError("num_classes must be >= 1")
        if lab.min() < 0 or lab.max() >= self.num_classes:
            raise ValueError("labels must lie in [0, num_classes)")
        if not np.isfinite(pos).all():
            raise ValueError("positions must be finite (found NaN or inf)")
        object.__setattr__(self, "positions", _readonly(pos))
        object.__setattr__(self, "labels", _readonly(lab))
        if self.features is not None:
            feat = np.asarray(self.features, dtype=np.float64)
            if feat.ndim != 2 or feat.shape[0] != n:
                raise ValueError(f"features must be ({n}, D), got {feat.shape}")
            if not np.isfinite(feat).all():
                raise ValueError("features must be finite (found NaN or inf)")
            object.__setattr__(self, "features", _readonly(feat))

    @property
    def n(self) -> int:
        return self.positions.shape[0]


@dataclass(frozen=True)
class SceneSpec:
    kind: str
    points_per_class: int = 256
    noise_sigma: float = 0.0
    seed: int = 0

    def __post_init__(self):
        if self.kind not in SCENE_KINDS:
            raise ValueError(f"unknown scene kind {self.kind!r}, expected one of {SCENE_KINDS}")
        if self.points_per_class < 8:
            raise ValueError("points_per_class must be >= 8")
        if self.noise_sigma < 0:
            raise ValueError("noise_sigma must be >= 0")


def _select_k(d2: np.ndarray, k: int) -> np.ndarray:
    """Indices of the k smallest entries of d2, ties broken by ascending index."""
    n = d2.shape[0]
    if k == n:
        cand = np.arange(n)
    else:
        kth = np.partition(d2, k - 1)[k - 1]
        cand = np.nonzero(d2 <= kth)[0]
    order = np.lexsort((cand, d2[cand]))
    return cand[order][:k]


def sq_dists(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Squared distances between broadcast point arrays (..., 3) by the library rule.

    The coordinate terms are summed left to right, ``(dx^2 + dy^2) + dz^2``,
    which is the float sequence ``np.sum(d ** 2, axis=-1)`` produces, so every
    neighbour search and its test oracles rank by identical values.
    """
    d = np.asarray(a) - np.asarray(b)
    return (d[..., 0] * d[..., 0] + d[..., 1] * d[..., 1]) + d[..., 2] * d[..., 2]


def _rank(cand: np.ndarray, cd2: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Sort each row of candidates and their squared distances by (distance, index)."""
    order = np.lexsort((cand, cd2), axis=1)
    return np.take_along_axis(cand, order, axis=1), np.take_along_axis(cd2, order, axis=1)


def _brute_candidates(ref: np.ndarray, queries: np.ndarray, kc: int, k: int,
                      out: np.ndarray) -> None:
    """Exact k-NN by blocks of query rows: column-wise distances, argpartition, re-rank."""
    n = ref.shape[0]
    rx, ry, rz = (np.ascontiguousarray(ref[:, j]) for j in range(3))
    block = max(1, _BRUTE_BLOCK_ELEMS // n)
    for lo in range(0, queries.shape[0], block):
        q = queries[lo:lo + block]
        b = q.shape[0]
        d2 = np.subtract.outer(q[:, 0], rx)
        d2 *= d2
        t = np.subtract.outer(q[:, 1], ry)
        t *= t
        d2 += t
        np.subtract.outer(q[:, 2], rz, out=t)
        t *= t
        d2 += t
        if kc < n:
            cand = np.argpartition(d2, kc - 1, axis=1)[:, :kc]
        else:
            cand = np.broadcast_to(np.arange(n), (b, n))
        cand, cd2 = _rank(cand, np.take_along_axis(d2, cand, axis=1))
        out[lo:lo + b] = cand[:, :k]
        if kc < n:
            # A row whose k-th distance ties the last candidate may have equally
            # near points with lower indices outside its candidates.
            for r in np.flatnonzero(cd2[:, k - 1] >= cd2[:, -1]):
                out[lo + r] = _select_k(d2[r], k)


def _kdtree_candidates(ref: np.ndarray, queries: np.ndarray, kc: int, k: int,
                       out: np.ndarray) -> None:
    """Exact k-NN from one batched kd-tree query, re-ranked by the library rule."""
    n = ref.shape[0]
    tree = cKDTree(ref)
    _, cand = tree.query(queries, k=kc)
    cand = cand.reshape(queries.shape[0], kc)
    cand, cd2 = _rank(cand, sq_dists(ref[cand], queries[:, None, :]))
    out[:] = cand[:, :k]
    if kc == n:
        return
    # The tree ranks by its own rounding of the distance. Points outside the
    # candidates are at least as far as the last one up to that rounding, so
    # the top k are settled only when the k-th distance stays clearly below it.
    unsettled = np.flatnonzero(cd2[:, k - 1] >= cd2[:, -1] * (1.0 - 1e-9))
    if unsettled.size == 0:
        return
    # Inflate the radius slightly so boundary ties survive metric rounding,
    # then re-rank the ball with the exact rule.
    radii = np.sqrt(cd2[unsettled, k - 1]) * (1 + 1e-9) + 1e-300
    balls = tree.query_ball_point(queries[unsettled], radii)
    for r, ball in zip(unsettled, balls):
        ball = np.asarray(ball, dtype=np.int64)
        d2 = sq_dists(ref[ball], queries[r])
        out[r] = ball[np.lexsort((ball, d2))][:k]


def knn_query(ref: np.ndarray, queries: np.ndarray, k: int) -> np.ndarray:
    """(m, k) indices of the k nearest ``ref`` rows to each query row.

    Ranks by (squared distance from ``sq_dists``, index): ties go to the lower
    index. Candidates come from one batched call, a kd-tree above
    ``KDTREE_CUTOFF`` reference points and blocked brute force at or below it;
    both re-rank them exactly, so the two paths agree bit for bit.
    """
    ref = np.asarray(ref, dtype=np.float64)
    queries = np.asarray(queries, dtype=np.float64)
    n = ref.shape[0]
    if not 1 <= k <= n:
        raise ValueError(f"K={k} must satisfy 1 <= K <= n={n}")
    out = np.empty((queries.shape[0], k), dtype=np.int64)
    if queries.shape[0] == 0:
        return out
    kc = min(k + _KNN_SLACK, n)
    if n > KDTREE_CUTOFF:
        _kdtree_candidates(ref, queries, kc, k, out)
    else:
        _brute_candidates(ref, queries, kc, k, out)
    return out


def knn_all(positions: np.ndarray, k: int) -> np.ndarray:
    """(n, k) ``knn_query`` of every point against its own cloud."""
    return knn_query(positions, positions, k)


def fps_indices(positions: np.ndarray, m: int, start: int = 0) -> np.ndarray:
    """Greedy farthest point sampling over an (n, 3) array; ties by ascending index."""
    positions = np.asarray(positions, dtype=np.float64)
    n = positions.shape[0]
    if not 1 <= m <= n:
        raise ValueError(f"m={m} must satisfy 1 <= m <= n={n}")
    if not 0 <= start < n:
        raise ValueError(f"start {start} out of range for {n} points")
    chosen = np.empty(m, dtype=np.int64)
    chosen[0] = start
    # Contiguous coordinate columns and preallocated buffers: each step forms
    # (dx^2 + dy^2) + dz^2 in place, the same float sequence as sq_dists.
    cols = [np.ascontiguousarray(positions[:, j]) for j in range(3)]
    mind2 = sq_dists(positions, positions[start])
    d2 = np.empty(n)
    t = np.empty(n)
    for i in range(1, m):
        nxt = int(np.argmax(mind2))  # argmax picks the lowest tied index
        chosen[i] = nxt
        np.subtract(cols[0], cols[0][nxt], out=d2)
        np.multiply(d2, d2, out=d2)
        for c in cols[1:]:
            np.subtract(c, c[nxt], out=t)
            np.multiply(t, t, out=t)
            np.add(d2, t, out=d2)
        np.minimum(mind2, d2, out=mind2)
    return chosen


def rigid_transform(cloud: PointCloud, rotation: np.ndarray, translation: np.ndarray) -> PointCloud:
    """Apply p -> R p + t; features and labels are untouched."""
    rot = np.asarray(rotation, dtype=np.float64)
    t = np.asarray(translation, dtype=np.float64).reshape(3)
    if rot.shape != (3, 3):
        raise ValueError("rotation must be 3x3")
    if np.abs(rot @ rot.T - np.eye(3)).max() > 1e-9:
        raise ValueError("rotation is not orthonormal within 1e-9")
    pos = cloud.positions @ rot.T + t
    return PointCloud(pos, cloud.labels, cloud.num_classes, cloud.features)


def _planar_lattice(ppc: int, step: float) -> tuple[np.ndarray, np.ndarray]:
    """Two classes on opposite sides of the x=0 plane, mirrored cubic lattice."""
    side = max(2, math.ceil(ppc ** (1.0 / 3.0)))
    pts = []
    count = 0
    i = 0
    while count < ppc:
        for iy in range(side):
            for iz in range(side):
                if count >= ppc:
                    break
                pts.append(((i + 0.5) * step, iy * step, iz * step))
                count += 1
            if count >= ppc:
                break
        i += 1
    half = np.asarray(pts, dtype=np.float64)
    neg = half.copy()
    neg[:, 0] = -neg[:, 0]
    positions = np.vstack([neg, half])
    labels = np.concatenate([np.zeros(ppc, dtype=np.int64), np.ones(ppc, dtype=np.int64)])
    return positions, labels


def _two_rooms(ppc: int, rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """Two room boxes plus a shared floor slab: classes {0, 1, 2}."""
    room_a = rng.uniform([0.0, 0.0, 0.0], [2.0, 2.0, 2.0], size=(ppc, 3))
    room_b = rng.uniform([3.0, 0.0, 0.0], [5.0, 2.0, 2.0], size=(ppc, 3))
    floor = rng.uniform([0.0, 0.0, -0.3], [5.0, 2.0, 0.0], size=(ppc, 3))
    positions = np.vstack([room_a, room_b, floor])
    labels = np.repeat(np.arange(3, dtype=np.int64), ppc)
    return positions, labels


def _checker_columns(ppc: int, rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """4x4 grid of vertical columns, class = cell parity."""
    cells = [(i, j) for i in range(4) for j in range(4)]
    positions = np.zeros((2 * ppc, 3), dtype=np.float64)
    labels = np.empty(2 * ppc, dtype=np.int64)
    per_class_cells = {0: [c for c in cells if (c[0] + c[1]) % 2 == 0],
                       1: [c for c in cells if (c[0] + c[1]) % 2 == 1]}
    row = 0
    for cls in (0, 1):
        cols = per_class_cells[cls]
        for t in range(ppc):
            ci, cj = cols[t % len(cols)]
            ang = rng.uniform(0.0, 2.0 * np.pi)
            rad = 0.3 * np.sqrt(rng.uniform())
            h = rng.uniform(0.0, 2.0)
            positions[row] = (ci + 0.5 + rad * np.cos(ang), cj + 0.5 + rad * np.sin(ang), h)
            labels[row] = cls
            row += 1
    return positions, labels


def synth_scene(spec: SceneSpec) -> PointCloud:
    """Deterministic labeled scene with known class boundaries."""
    rng = np.random.default_rng(spec.seed)
    if spec.kind == "planar-boundary":
        positions, labels = _planar_lattice(spec.points_per_class, step=PLANAR_STEP)
        num_classes = 2
    elif spec.kind == "two-rooms":
        positions, labels = _two_rooms(spec.points_per_class, rng)
        num_classes = 3
    else:
        positions, labels = _checker_columns(spec.points_per_class, rng)
        num_classes = 2
    if spec.noise_sigma > 0:
        positions = positions + rng.normal(0.0, spec.noise_sigma, size=positions.shape)
    return PointCloud(positions, labels, num_classes)


# Lattice spacing of the planar-boundary scene; the first slab sits at +-step/2.
PLANAR_STEP = 0.2
