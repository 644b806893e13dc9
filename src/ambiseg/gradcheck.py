"""Finite-difference verification of every differentiable objective, refinement included."""
from __future__ import annotations

import numpy as np

from ambiseg import autograd as ag
from ambiseg.apm import block_forward, init_apm_block, loss_reg
from ambiseg.cloud import PointCloud
from ambiseg.config import Config
from ambiseg.network import SegModel, build_geometry, forward, loss_joint


def random_batch(rng: np.random.Generator):
    """Random features and margins, (n, k) neighbour rows (anchor first) and their intra mask."""
    n, k = 12, 4
    feats = rng.normal(size=(n, 5))
    labels = rng.integers(0, 3, size=n)
    margins = rng.uniform(-0.5, 0.5, size=n)
    nbr = np.stack([np.concatenate([[i], rng.choice(np.delete(np.arange(n), i), size=k - 1,
                                                    replace=False)]) for i in range(n)])
    return feats, nbr, labels[nbr] == labels[:, None], margins


def check_loss_am(seed: int) -> float:
    rng = np.random.default_rng(seed)
    feats, nbr, intra, margins = random_batch(rng)
    f = ag.Tensor(feats, requires_grad=True)
    return ag.finite_diff_check(lambda: ag.contrast_loss(f, nbr, intra, margins, 0.3), [f])


def check_loss_reg(seed: int) -> float:
    rng = np.random.default_rng(seed)
    n, d = 10, 4
    block = init_apm_block(d, rng)
    z = np.concatenate([rng.normal(size=(n, 3)), rng.normal(size=(n, d))], axis=1)
    target = rng.uniform(0.05, 0.95, size=n)

    def f():
        pred = block_forward(z, block, mode="train")
        return loss_reg(pred, target)

    # avoid the |.| kink: nudge targets away from near-zero residuals
    resid = np.abs(block_forward(z, block, mode="train").data[:, 0] - target)
    target = np.where(resid < 1e-6, target + 1e-3, target)
    return ag.finite_diff_check(f, [p for layer in block for p in layer.parameters()])


def check_loss_ce(seed: int) -> float:
    rng = np.random.default_rng(seed)
    n, c = 16, 4
    scores = ag.Tensor(rng.normal(size=(n, c)), requires_grad=True)
    labels = rng.integers(0, c, size=n)
    return ag.finite_diff_check(lambda: ag.cross_entropy(scores, labels), [scores])


def _tiny_cloud(rng: np.random.Generator) -> PointCloud:
    """48 random points in two classes split at x = 0."""
    positions = rng.normal(size=(48, 3))
    return PointCloud(positions, (positions[:, 0] > 0).astype(np.int64), 2)


def check_joint(seed: int) -> float:
    """Total objective of a reduced model, refined at every stage, against central differences."""
    rng = np.random.default_rng(seed)
    # apm_detach=False: the detached variant stops gradients by design, which a
    # finite-difference probe cannot represent; the coupled flag makes the
    # whole objective differentiable end to end.
    # The band [0, 1] holds every sigmoid prediction and k_tilde = 2 leaves one
    # neighbour column, so every mask bit is set and no probe can flip one, nor can
    # the running statistics each train-mode call moves (the infer predictions read
    # them); gamma = 0.5 weights both the self and the neighbour column.
    cfg = Config(k=6, k_tilde=2, stages=2, dims=(4, 6), seed=seed,
                 epsilon_lo=0.0, gamma=0.5, apm_detach=False)
    cloud = _tiny_cloud(rng)
    model = SegModel(cfg, feat_dim0=3, num_classes=2)
    geometry = build_geometry(cloud, cfg)

    def f():
        result = forward(model, cloud, mode="train", geometry=geometry)
        total, _ = loss_joint(model, result, cloud.labels)
        return total

    return ag.finite_diff_check(f, model.parameters())


def run_gradcheck(seed: int = 0, verbose: bool = False) -> float:
    checks = [
        ("loss_am", check_loss_am(seed)),
        ("loss_reg", check_loss_reg(seed + 1)),
        ("loss_ce", check_loss_ce(seed + 2)),
        ("joint", check_joint(seed + 3)),
    ]
    worst = 0.0
    for name, err in checks:
        if verbose:
            print(f"{name}: max relative error {err:.3e}")
        worst = max(worst, err)
    return worst
