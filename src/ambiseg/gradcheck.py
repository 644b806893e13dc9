"""Finite-difference verification of every differentiable objective."""
from __future__ import annotations

import numpy as np

from ambiseg import autograd as ag
from ambiseg.apm import block_forward, concat_input, init_apm_block, loss_reg
from ambiseg.cloud import PointCloud
from ambiseg.config import Config
from ambiseg.network import SegModel, build_geometry, forward, loss_joint


def random_batch(rng: np.random.Generator, n: int = 12, dim: int = 5, k: int = 4,
                 num_classes: int = 3):
    """Random features and margins, (n, k) neighbour rows (anchor first) and their intra mask."""
    feats = rng.normal(size=(n, dim))
    labels = rng.integers(0, num_classes, size=n)
    margins = rng.uniform(-0.5, 0.5, size=n)
    nbr = np.stack([np.concatenate([[i], rng.choice(np.delete(np.arange(n), i), size=k - 1,
                                                    replace=False)]) for i in range(n)])
    return feats, nbr, labels[nbr] == labels[:, None], margins


def check_loss_am(seed: int, tau: float = 0.3, step: float = 1e-5) -> float:
    rng = np.random.default_rng(seed)
    feats, nbr, intra, margins = random_batch(rng)
    f = ag.Tensor(feats, requires_grad=True)
    return ag.finite_diff_check(lambda: ag.contrast_loss(f, nbr, intra, margins, tau), [f], step)


def check_loss_reg(seed: int, step: float = 1e-5) -> float:
    rng = np.random.default_rng(seed)
    n, d = 10, 4
    block = init_apm_block(d, rng)
    z = concat_input(rng.normal(size=(n, 3)), rng.normal(size=(n, d)))
    target = rng.uniform(0.05, 0.95, size=n)

    def f():
        pred = block_forward(z, block, mode="train", update_running=False)
        return loss_reg(pred, target)

    # avoid the |.| kink: nudge targets away from near-zero residuals
    resid = np.abs(block_forward(z, block, mode="train", update_running=False).data[:, 0] - target)
    target = np.where(resid < 1e-6, target + 1e-3, target)
    return ag.finite_diff_check(f, [p for layer in block for p in layer.parameters()], step)


def check_loss_ce(seed: int, step: float = 1e-5) -> float:
    rng = np.random.default_rng(seed)
    n, c = 16, 4
    scores = ag.Tensor(rng.normal(size=(n, c)), requires_grad=True)
    labels = rng.integers(0, c, size=n)
    return ag.finite_diff_check(lambda: ag.cross_entropy(scores, labels), [scores], step)


def check_scatter(seed: int, step: float = 1e-5) -> float:
    """Row gathers, weighted rows and a refinement-style blend chained into cross entropy.

    Repeated indices make the backward scatters add several rows into one. The
    blend is ``weighted_rows`` with a self column, as ``refine.refine`` builds it,
    with non-zero self coefficients, which the default configuration never reaches.
    """
    rng = np.random.default_rng(seed)
    n, d, m = 6, 3, 9
    x = ag.Tensor(rng.normal(size=(n, d)), requires_grad=True)
    gather_idx = np.array([0, 0, 3, 5, 1, 3, 3, 2, 4])
    rows_idx = rng.integers(0, m, size=(n, 3))
    rows_idx[0] = [2, 2, 7]
    rows_w = rng.uniform(0.1, 1.0, size=(n, 3))
    blend_nbr = rng.integers(0, n, size=(n, 2))
    blend_nbr[1] = [1, 4]
    self_coef = rng.uniform(0.2, 1.0, size=n)
    blend_w = rng.uniform(0.1, 1.0, size=(n, 2))
    labels = rng.integers(0, d, size=n)
    blend_idx = np.concatenate([np.arange(n)[:, None], blend_nbr], axis=1)
    blend_coef = np.concatenate([self_coef[:, None], blend_w], axis=1)

    def f():
        g = ag.gather_rows(x, gather_idx)
        r = ag.weighted_rows(g, rows_idx, rows_w)
        b = ag.weighted_rows(r, blend_idx, blend_coef)
        return ag.cross_entropy(b, labels)

    return ag.finite_diff_check(f, [x], step)


def _tiny_cloud(rng: np.random.Generator, n: int = 48, num_classes: int = 2) -> PointCloud:
    positions = rng.normal(size=(n, 3))
    labels = (positions[:, 0] > 0).astype(np.int64) % num_classes
    return PointCloud(positions, labels, num_classes)


def check_joint(seed: int, step: float = 1e-5) -> float:
    """Total objective of a reduced model against central differences."""
    rng = np.random.default_rng(seed)
    # apm_detach=False: the detached variant stops gradients by design, which a
    # finite-difference probe cannot represent; the coupled flag makes the
    # whole objective differentiable end to end.
    cfg = Config(k=6, k_tilde=4, stages=2, dims=(4, 6), seed=seed,
                 epsilon_lo=0.9, epsilon_hi=1.0, apm_detach=False)
    cloud = _tiny_cloud(rng)
    model = SegModel(cfg, feat_dim0=3, num_classes=2)
    geometry = build_geometry(cloud, cfg, with_labels=True)

    def f():
        result = forward(model, cloud, mode="train", geometry=geometry,
                         update_running=False)
        total, _ = loss_joint(model, result, cloud.labels)
        return total

    return ag.finite_diff_check(f, model.parameters(), step)


def run_gradcheck(seed: int = 0, verbose: bool = False) -> float:
    checks = [
        ("loss_am", check_loss_am(seed)),
        ("loss_reg", check_loss_reg(seed + 1)),
        ("loss_ce", check_loss_ce(seed + 2)),
        ("joint", check_joint(seed + 3)),
        ("scatter", check_scatter(seed + 4)),
    ]
    worst = 0.0
    for name, err in checks:
        if verbose:
            print(f"{name}: max relative error {err:.3e}")
        worst = max(worst, err)
    return worst
