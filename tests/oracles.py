"""Per-point reference formulas and test-only graph nodes.

The library computes ambiguity, the contrastive loss, the refinement masks and
the ambiguity bins vectorised over whole stages; the scalar formulas here
restate them one point at a time so tests can compare the two. ``planar_lattice``
and ``checker_columns`` are the same for the planar-boundary and checker-columns
scenes, ``fps_reference`` for
farthest point sampling, and the ``*_text`` writers and ``ambiguity_color`` for
the per-point text outputs. ``tsum`` and ``mul`` give gradient tests a scalar
objective without adding primitives to ``ambiseg.autograd``; ``group_max`` and
``encoder_chain`` restate ``ag.neighborhood_max`` as the unfused batch norm of
the affine map -> ReLU -> max chain of graph nodes.
"""
import math

import numpy as np

from ambiseg import autograd as ag
from ambiseg.metrics import BIN_TOL


def tsum(x: ag.Tensor) -> ag.Tensor:
    """Sum of all entries as a graph node."""
    def bwd(g):
        if x.requires_grad:
            x._accum(np.full_like(x.data, float(g)))

    return ag.Tensor(np.sum(x.data), parents=(x,), backward=bwd)


def mul(a: ag.Tensor, b: ag.Tensor) -> ag.Tensor:
    """Elementwise product of equal-shape tensors as a graph node."""
    if a.data.shape != b.data.shape:
        raise ValueError(f"mul shape mismatch {a.data.shape} vs {b.data.shape}")

    def bwd(g):
        if a.requires_grad:
            a._accum(g * b.data)
        if b.requires_grad:
            b._accum(g * a.data)

    return ag.Tensor(a.data * b.data, parents=(a, b), backward=bwd)


def group_max(x: ag.Tensor, groups: int, k: int) -> ag.Tensor:
    """Max over each group of k consecutive rows as a graph node: (groups*k, d) -> (groups, d)."""
    xd = x.data.reshape(groups, k, -1)
    arg = np.argmax(xd, axis=1)
    out = np.take_along_axis(xd, arg[:, None, :], axis=1)[:, 0, :]

    def bwd(g):
        if x.requires_grad:
            acc = np.zeros_like(xd)
            np.put_along_axis(acc, arg[:, None, :], g[:, None, :], axis=1)
            x._accum(acc.reshape(x.data.shape))

    return ag.Tensor(out, parents=(x,), backward=bwd)


def encoder_chain(x, w, b, gamma, beta, state, groups, k, mode="train"):
    """``ag.neighborhood_max`` as three graph nodes: affine batch norm, ReLU, group max."""
    z = ag.batch_norm(x, w, b, gamma, beta, state, mode)
    return group_max(ag.relu(z), groups, k)


def partition(positions, labels, anchor, k):
    """The anchor's K nearest points by (squared distance, index), the same-label
    flags and the squared distances, in that order."""
    d2 = np.sum((positions - positions[anchor]) ** 2, axis=1)
    nb = np.lexsort((np.arange(d2.size), d2))[:k]
    return nb, labels[nb] == labels[anchor], d2[nb]


def point_ambiguity(positions, labels, anchor, k, beta, dup_epsilon=1e-9):
    """Piecewise ambiguity of one point: 0 for a pure neighbourhood, 1 for an
    isolated anchor, else 1 / (1 + exp(beta (cc+ - cc-))) with libm's exp."""
    _, same, d2 = partition(positions, labels, anchor, k)
    n_plus = int(same.sum())
    if n_plus == k:
        return 0.0
    if n_plus == 1:
        return 1.0
    cc_plus = n_plus / max(float(np.sum(d2 * same)), dup_epsilon)
    cc_minus = (k - n_plus) / max(float(np.sum(d2 * ~same)), dup_epsilon)
    try:
        return 1.0 / (1.0 + math.exp(beta * (cc_plus - cc_minus)))
    except OverflowError:
        return 0.0


def cosine_sim(u, v, norm_epsilon=1e-12):
    """Cosine similarity with each norm clamped below at ``norm_epsilon``."""
    nu_ = max(float(np.linalg.norm(u)), norm_epsilon)
    nv_ = max(float(np.linalg.norm(v)), norm_epsilon)
    return float(np.dot(u, v) / (nu_ * nv_))


def contrast_batch(rng, n=12, dim=5, k=4, num_classes=3, mu=-1.0, nu=0.5):
    """Random features, (n, k) neighbour rows with the anchor first, their intra
    mask and margins mu * a + nu of uniform ambiguities a."""
    feats = rng.normal(size=(n, dim))
    labels = rng.integers(0, num_classes, size=n)
    amb = rng.uniform(0.0, 1.0, size=n)
    nbr = np.stack([np.concatenate([[i], rng.choice(np.delete(np.arange(n), i), size=k - 1,
                                                    replace=False)]) for i in range(n)])
    return feats, nbr, labels[nbr] == labels[:, None], mu * amb + nu


def reference_contrast_loss(feats, nbr, intra, margins, tau):
    """Scalar-loop margin-shifted contrast loss over anchors with an inter neighbour."""
    total, count = 0.0, 0
    for i in range(feats.shape[0]):
        if intra[i].all():
            continue
        count += 1
        sims = [cosine_sim(feats[i], feats[j]) for j in nbr[i]]
        num = sum(math.exp((s - margins[i]) / tau) for s, a in zip(sims, intra[i]) if a)
        den = num + sum(math.exp(s / tau) for s, a in zip(sims, intra[i]) if not a)
        total += -math.log(num / den)
    return total / count


def cross_mask(neighbor_ambiguities, mode="single"):
    """Min-pool one row of neighbour ambiguities and flag the minimiser(s): the lowest
    tied index in "single" mode, every tied one in "sum" mode."""
    a = np.asarray(neighbor_ambiguities, dtype=np.float64)
    pooled = float(a.min())
    bits = np.zeros(a.size, dtype=np.uint8)
    if mode == "sum":
        bits[a == pooled] = 1
    else:
        bits[int(np.argmin(a))] = 1
    return pooled, bits


def bin_of(a: float) -> str:
    """Which of the five ambiguity bins one value falls into."""
    if abs(a) <= BIN_TOL:
        return "zero"
    if abs(a - 0.5) <= BIN_TOL:
        return "semi"
    if abs(a - 1.0) <= BIN_TOL:
        return "one"
    return "low" if a < 0.5 else "high"


def planar_lattice(ppc, step):
    """The planar-boundary lattice one point at a time: x slabs, each filled y-major."""
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
    labels = np.concatenate([np.zeros(ppc, dtype=np.int64), np.ones(ppc, dtype=np.int64)])
    return np.vstack([neg, half]), labels


def checker_columns(ppc, rng):
    """The checker-columns scene one point at a time: three uniform draws per point
    (angle, radius, height), each class cycling through its cells of the 4x4 grid."""
    cells = [(i, j) for i in range(4) for j in range(4)]
    positions = np.zeros((2 * ppc, 3), dtype=np.float64)
    labels = np.empty(2 * ppc, dtype=np.int64)
    row = 0
    for cls in (0, 1):
        cols = [c for c in cells if (c[0] + c[1]) % 2 == cls]
        for t in range(ppc):
            ci, cj = cols[t % len(cols)]
            ang = rng.uniform(0.0, 2.0 * np.pi)
            rad = 0.3 * np.sqrt(rng.uniform())
            h = rng.uniform(0.0, 2.0)
            positions[row] = (ci + 0.5 + rad * np.cos(ang), cj + 0.5 + rad * np.sin(ang), h)
            labels[row] = cls
            row += 1
    return positions, labels


def fps_reference(positions, m):
    """Farthest point sampling from point 0, one pick at a time: each pick is the
    lowest index among the points farthest from those already picked."""
    chosen = [0]
    d2 = np.sum((positions - positions[0]) ** 2, axis=1)
    for _ in range(m - 1):
        best = min(range(len(d2)), key=lambda j: (-d2[j], j))
        chosen.append(best)
        d2 = np.minimum(d2, np.sum((positions - positions[best]) ** 2, axis=1))
    return np.asarray(chosen, dtype=np.int64)


def ambiguity_color(a: float) -> tuple[int, int, int]:
    """Exact colormap: c = round(255 a); (red, green, blue) = (c, 0, 255 - c)."""
    c = int(round(255.0 * a))
    return c, 0, 255 - c


def fmt(x) -> str:
    """The per-value float rule of the text outputs: nine significant digits."""
    return format(float(x), ".9g")


def _text(lines):
    return "\n".join(lines) + "\n"


def cloud_text(cloud):
    """``io.write_cloud``'s file, one point and one ``fmt`` call at a time."""
    lines = ["# x y z" + (" feat..." if cloud.features is not None else "") + " label"]
    for i in range(cloud.n):
        cols = [fmt(v) for v in cloud.positions[i]]
        if cloud.features is not None:
            cols += [fmt(v) for v in cloud.features[i]]
        cols.append(str(int(cloud.labels[i])))
        lines.append(" ".join(cols))
    return _text(lines)


def ambiguity_csv_text(cloud, ambiguities, margins):
    """``io.write_ambiguity_csv``'s file, one point at a time."""
    lines = ["index,x,y,z,ambiguity,margin"]
    for i in range(cloud.n):
        x, y, z = cloud.positions[i]
        lines.append(f"{i},{fmt(x)},{fmt(y)},{fmt(z)},{fmt(ambiguities[i])},{fmt(margins[i])}")
    return _text(lines)


def ply_text(positions, ambiguities):
    """``io.write_ply``'s file, one vertex and one ``ambiguity_color`` call at a time."""
    n = positions.shape[0]
    lines = ["ply", "format ascii 1.0", f"element vertex {n}",
             "property float x", "property float y", "property float z",
             "property uchar red", "property uchar green", "property uchar blue", "end_header"]
    for i in range(n):
        r, g, b = ambiguity_color(float(ambiguities[i]))
        x, y, z = positions[i]
        lines.append(f"{fmt(x)} {fmt(y)} {fmt(z)} {r} {g} {b}")
    return _text(lines)


def predict_csv_text(labels, ambiguities):
    """``ambiseg predict``'s CSV, one point at a time."""
    lines = ["index,label,ambiguity"]
    for i in range(len(labels)):
        lines.append(f"{i},{int(labels[i])},{fmt(ambiguities[i])}")
    return _text(lines)


def eval_csv_text(n, miou, macc, table):
    """``ambiseg eval``'s CSV: the "all" row, then one row per ``metrics.breakdown`` bin."""
    lines = ["bin,count,miou,macc", f"all,{n},{fmt(miou)},{fmt(macc)}"]
    for name, (count, b_miou, b_macc) in table.items():
        lines.append(f"{name},{count},{fmt(b_miou)},{fmt(b_macc)}")
    return _text(lines)
