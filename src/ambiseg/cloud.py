"""Point-cloud containers, neighbor search, sampling, transforms, synthetic scenes."""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.spatial import cKDTree

# knn_query always takes its candidates from a kd-tree. Nothing in the library
# reads this; it stays 0 for scripts that record it.
KDTREE_CUTOFF = 0
# Extra candidates per query beyond k, so ties at the k-th distance are rarely
# cut off by the candidate boundary and rows seldom take the exact fallback.
_KNN_SLACK = 8
# Candidate entries per block of query rows: the block's (rows, k + slack)
# index and distance arrays stay at 256 KB each, whatever the query count.
_BLOCK_ELEMS = 1 << 15

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


def sq_dists(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Squared distances between broadcast point arrays (..., 3) by the library rule.

    The coordinate terms are summed left to right, ``(dx^2 + dy^2) + dz^2``,
    which is the float sequence ``np.sum(d ** 2, axis=-1)`` produces, so every
    neighbour search and its test oracles rank by identical values.
    """
    d = np.asarray(a) - np.asarray(b)
    return (d[..., 0] * d[..., 0] + d[..., 1] * d[..., 1]) + d[..., 2] * d[..., 2]


def knn_query(ref: np.ndarray, queries: np.ndarray, k: int) -> np.ndarray:
    """(m, k) indices of the k nearest ``ref`` rows to each query row.

    Ranks by (squared distance from ``sq_dists``, index): ties go to the lower
    index. A kd-tree, queried in blocks of rows, proposes ``k + _KNN_SLACK``
    candidates per row; their distances are recomputed by the library rule and
    re-ranked, and a row whose k-th candidate may tie a point outside them is
    settled exactly from a ball query.
    """
    ref = np.asarray(ref, dtype=np.float64)
    queries = np.asarray(queries, dtype=np.float64)
    n, m = ref.shape[0], queries.shape[0]
    if not 1 <= k <= n:
        raise ValueError(f"K={k} must satisfy 1 <= K <= n={n}")
    out = np.empty((m, k), dtype=np.int64)
    if m == 0:
        return out
    kc = min(k + _KNN_SLACK, n)
    tree = cKDTree(ref)
    cols = [np.ascontiguousarray(ref[:, j]) for j in range(3)]
    block = max(1, _BLOCK_ELEMS // kc)
    for lo in range(0, m, block):
        q = queries[lo:lo + block]
        # One thread on purpose: threaded queries (workers=-1) lost end to end
        # on a 2-core host, competing with the BLAS threads of the forward pass.
        _, cand = tree.query(q, k=kc)
        cand = cand.reshape(q.shape[0], kc)
        # (dx^2 + dy^2) + dz^2 column by column, the float sequence of sq_dists
        cd2 = np.take(cols[0], cand)
        cd2 -= q[:, 0:1]
        cd2 *= cd2
        t = np.empty_like(cd2)
        for j in (1, 2):
            np.take(cols[j], cand, out=t)
            t -= q[:, j:j + 1]
            t *= t
            cd2 += t
        # The indices in a row are distinct, so a row already in (distance,
        # index) order is exactly what the lexsort would return.
        prev, nxt = cd2[:, :-1], cd2[:, 1:]
        disordered = (nxt < prev) | ((nxt == prev) & (cand[:, 1:] < cand[:, :-1]))
        bad = np.flatnonzero(disordered.any(axis=1))
        if bad.size:
            order = np.lexsort((cand[bad], cd2[bad]), axis=1)
            cand[bad] = np.take_along_axis(cand[bad], order, axis=1)
            cd2[bad] = np.take_along_axis(cd2[bad], order, axis=1)
        out[lo:lo + q.shape[0]] = cand[:, :k]
        if kc == n:
            continue
        # The tree ranks by its own rounding of the distance. Points outside the
        # candidates are at least as far as the last one up to that rounding, so
        # the top k are settled only when the k-th distance stays clearly below it.
        unsettled = np.flatnonzero(cd2[:, k - 1] >= cd2[:, -1] * (1.0 - 1e-9))
        if unsettled.size == 0:
            continue
        # Inflate the radius slightly so boundary ties survive metric rounding,
        # then re-rank the ball with the exact rule.
        radii = np.sqrt(cd2[unsettled, k - 1]) * (1 + 1e-9) + 1e-300
        balls = tree.query_ball_point(q[unsettled], radii)
        for r, ball in zip(unsettled, balls):
            ball = np.asarray(ball, dtype=np.int64)
            d2 = sq_dists(ref[ball], q[r])
            out[lo + r] = ball[np.lexsort((ball, d2))][:k]
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
    i, rest = np.divmod(np.arange(ppc), side * side)   # x slab, then y-major within it
    iy, iz = np.divmod(rest, side)
    half = np.column_stack([(i + 0.5) * step, iy * step, iz * step])
    positions = np.vstack([half * [-1.0, 1.0, 1.0], half])
    return positions, np.repeat(np.arange(2, dtype=np.int64), ppc)


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
