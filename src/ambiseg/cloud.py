"""Point-cloud containers, neighbor search, sampling, synthetic scenes."""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.spatial import cKDTree

# knn_query always takes its candidates from a kd-tree. Nothing in the library
# reads this; it stays 0 for scripts that record it.
KDTREE_CUTOFF = 0
# Extra candidates per query beyond its width (k, then 2k, 8k, 32k, ...). Rows
# whose k-th distance ties the candidate boundary are queried again at a wider
# width, so the first query can stay narrow.
_KNN_SLACK = 4
# Candidate entries per block of query rows: a block's (rows, candidates)
# index and distance arrays stay at 256 KB each, whatever the query count.
_BLOCK_ELEMS = 1 << 15

# Lattice spacing of the planar-boundary scene; the first slab sits at +-step/2.
PLANAR_STEP = 0.2


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
        # Rounding is monotone, so the bounding box's squared diagonal bounds
        # every pairwise sq_dists, and n times it bounds a row's sum of them
        # (ambiguity_map's closeness sums). Past an infinite diagonal, kd-tree
        # distances overflow and queries return the missing-neighbour index n.
        with np.errstate(over="ignore"):
            row_sum_bound = n * sq_dists(pos.max(axis=0) - pos.min(axis=0))
        if not np.isfinite(row_sum_bound):
            raise ValueError("positions are too far apart: squared distances overflow")
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
        if not (math.isfinite(self.noise_sigma) and self.noise_sigma >= 0):
            raise ValueError("noise_sigma must be finite and >= 0")


def sq_dists(d: np.ndarray) -> np.ndarray:
    """Squared lengths ``(dx^2 + dy^2) + dz^2`` of a (3, ...) array of
    differences, formed in place in ``d``; returns ``d[0]``. This is the float
    sequence of ``np.sum(d ** 2, axis=0)``, so every neighbour search, the
    sampling and their test oracles rank by identical values."""
    np.multiply(d, d, out=d)
    s = d[0, ...]
    np.add(s, d[1], out=s)
    return np.add(s, d[2], out=s)


def _rank_keys(d2: np.ndarray, idx: np.ndarray) -> np.ndarray:
    """Complex keys ``d2 + 1j * idx`` that sort in (squared distance, index)
    order: numpy orders complex numbers by real part, then imaginary part. The
    distances are +inf or finite and at least +0; indices below 2**53 are exact."""
    key = np.empty(np.shape(d2), dtype=complex)
    key.real, key.imag = d2, idx
    return key


def _ranked_candidates(tree, cols, q: np.ndarray, kc: int) -> tuple[np.ndarray, np.ndarray]:
    """The tree's ``kc`` candidates for each row of ``q``, ranked by (squared
    distance from ``sq_dists``, index), with those distances. ``cols`` is
    the reference cloud as a (3, n) array."""
    # One thread on purpose: threaded queries (workers=-1) lost end to end
    # on a 2-core host, competing with the BLAS threads of the forward pass.
    _, cand = tree.query(q, k=kc)
    cand = cand.reshape(q.shape[0], kc)
    d = np.take(cols, cand, axis=1)
    d -= q.T[:, :, None]
    key = _rank_keys(sq_dists(d), cand)
    key.sort(axis=1)
    return key.imag.astype(np.int64), key.real


def knn_query(ref: np.ndarray, queries: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """(m, k) indices of the k nearest ``ref`` rows to each query row, and the
    (m, k) squared distances from ``sq_dists`` that ranked them.

    Ranks by (squared distance, index): ties go to the lower index. Every row
    takes ``k + _KNN_SLACK`` kd-tree candidates, whose distances are recomputed
    by the library rule and re-ranked. A row whose k-th candidate may tie a
    point outside them is queried again the same way at width 2k, then at four
    times the last width (8k, 32k, ...; each plus the slack) until it is
    settled or its candidates are all n points; both outputs come from the pass
    that settled it. A row still tied at 2k sits in a cluster of equal
    distances, which the fourfold growth crosses in fewer passes. Each query
    runs in blocks of rows holding about ``_BLOCK_ELEMS`` candidates.
    """
    ref = np.asarray(ref, dtype=np.float64)
    queries = np.asarray(queries, dtype=np.float64)
    n, m = ref.shape[0], queries.shape[0]
    if not 1 <= k <= n:
        raise ValueError(f"K={k} must satisfy 1 <= K <= n={n}")
    out = np.empty((m, k), dtype=np.int64)
    out_d2 = np.empty((m, k))
    tree = cKDTree(ref)
    cols = np.ascontiguousarray(ref.T)
    rows, width = np.arange(m), k
    while rows.size:
        kc = min(width + _KNN_SLACK, n)
        block = max(1, _BLOCK_ELEMS // kc)
        retry = [rows[:0]]
        for lo in range(0, rows.size, block):
            r = rows[lo:lo + block]
            cand, cd2 = _ranked_candidates(tree, cols, queries[r], kc)
            out[r], out_d2[r] = cand[:, :k], cd2[:, :k]
            if kc < n:
                # points outside the candidates are at least as far as the last one
                # up to the tree's own rounding, so a k-th distance near it is unsettled
                retry.append(r[cd2[:, k - 1] >= cd2[:, -1] * (1.0 - 1e-9)])
        rows, width = np.concatenate(retry), (2 if width == k else 4) * width
    return out, out_d2


def knn_all(positions: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """(n, k) ``knn_query`` of every point against its own cloud: indices, squared distances."""
    return knn_query(positions, positions, k)


def knn_sampled(positions: np.ndarray, idx: np.ndarray, k: int,
                search: tuple[np.ndarray, np.ndarray] | None = None
                ) -> tuple[np.ndarray, np.ndarray]:
    """``knn_query(positions[idx], positions, k)``: each point's k nearest sampled
    points, as indices into ``idx``, and their squared distances.

    ``search`` is ``knn_all(positions, K)`` for any K when the caller holds it.
    A row's sampled entries, ranked by (squared distance, index into ``idx``),
    are the query's row when the k-th of them is strictly nearer than the row's
    last entry: every point outside the row is at least that far. Every other
    row is queried, and so is every row of a search narrower than k.
    """
    n = positions.shape[0]
    out = np.empty((n, k), dtype=np.int64)
    out_d2 = np.empty((n, k))
    rest = np.arange(n)
    if search is not None and search[0].shape[1] >= k:
        nbrs, nbr_d2 = search
        stage = np.full(n, -1)
        stage[idx] = np.arange(idx.size)
        key = _rank_keys(nbr_d2, stage[nbrs])
        key[key.imag < 0] = np.inf            # entries not sampled rank last
        key.partition(range(k), axis=1)       # each row's first k in order
        key = key[:, :k]
        read = key[:, -1].real < nbr_d2[:, -1]
        out[read], out_d2[read] = key.imag[read], key.real[read]
        rest = np.flatnonzero(~read)
    if rest.size:
        out[rest], out_d2[rest] = knn_query(positions[idx], positions[rest], k)
    return out, out_d2


def fps_indices(positions: np.ndarray, m: int,
                search: tuple[np.ndarray, np.ndarray] | None = None) -> np.ndarray:
    """Greedy farthest point sampling over an (n, 3) array from point 0; lowest index on ties.

    ``search`` is ``knn_all(positions, K)`` for any K when the caller holds it.
    When a pick's row ends at a squared distance of at least the pick's own
    min-distance M, the largest of all, only that row is updated: every point
    outside the row is at least as far from the pick as the row's end, so at
    least M, so at least its own min-distance, which ``np.minimum`` would keep.
    The row's squared distances are the ones a full step forms, so the picks
    are the same with or without a search.
    """
    positions = np.asarray(positions, dtype=np.float64)
    n = positions.shape[0]
    if not 1 <= m <= n:
        raise ValueError(f"m={m} must satisfy 1 <= m <= n={n}")
    chosen = np.empty(m, dtype=np.int64)
    chosen[0] = 0
    # A contiguous (3, n) copy and one buffer for each full step's sq_dists
    cols = np.ascontiguousarray(positions.T)
    mind2 = sq_dists(cols - cols[:, :1])
    d = np.empty_like(cols)
    reach = None
    if search is not None:
        nbrs, nbr_d2 = search
        reach = nbr_d2[:, -1].tolist()   # each row's last squared distance
    for i in range(1, m):
        nxt = int(mind2.argmax())  # argmax picks the lowest tied index
        chosen[i] = nxt
        if reach is not None and reach[nxt] >= mind2[nxt]:
            row = nbrs[nxt]
            mind2[row] = np.minimum(mind2[row], nbr_d2[nxt])
            continue
        np.subtract(cols, cols[:, nxt:nxt + 1], out=d)
        np.minimum(mind2, sq_dists(d), out=mind2)
    return chosen


def _planar_lattice(ppc: int, rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """Two classes on opposite sides of the x=0 plane, mirrored cubic lattice
    of spacing ``PLANAR_STEP``; draws nothing from ``rng``."""
    side = max(2, math.ceil(ppc ** (1.0 / 3.0)))
    i, rest = np.divmod(np.arange(ppc), side * side)   # x slab, then y-major within it
    iy, iz = np.divmod(rest, side)
    half = np.column_stack([i + 0.5, iy, iz]) * PLANAR_STEP
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
    """4x4 grid of vertical columns of radius 0.3, class = cell parity. A class's
    t-th point sits in its (t mod 8)-th cell, its cells in row-major order; each
    point draws its angle, radius and height in that order."""
    u = rng.random((2 * ppc, 3))
    ang, rad = 2.0 * np.pi * u[:, 0], 0.3 * np.sqrt(u[:, 1])
    labels = np.repeat(np.arange(2, dtype=np.int64), ppc)
    cell = np.tile(np.arange(ppc) % 8, 2)
    ci = cell // 2
    cj = 2 * (cell % 2) + (ci + labels) % 2
    positions = np.column_stack([ci + 0.5 + rad * np.cos(ang), cj + 0.5 + rad * np.sin(ang),
                                 2.0 * u[:, 2]])
    return positions, labels


# Scene kind -> generator of (positions, labels) from (points per class, rng).
_SCENES = {"two-rooms": _two_rooms, "planar-boundary": _planar_lattice,
           "checker-columns": _checker_columns}
SCENE_KINDS = tuple(_SCENES)


def synth_scene(spec: SceneSpec) -> PointCloud:
    """Deterministic labeled scene with known class boundaries."""
    rng = np.random.default_rng(spec.seed)
    positions, labels = _SCENES[spec.kind](spec.points_per_class, rng)
    if spec.noise_sigma > 0:
        positions = positions + rng.normal(0.0, spec.noise_sigma, size=positions.shape)
    return PointCloud(positions, labels, int(labels.max()) + 1)
