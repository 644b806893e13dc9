"""Simplified set-abstraction encoder-decoder with the joint training objective.

Encoder stages downsample by farthest point sampling and aggregate neighbor
features with a shared MLP + max pool; decoder stages upsample by 3-NN
inverse-squared-distance interpolation, the three nearest coarse points chosen
by the (squared distance, index) rule of ``cloud.knn_query``, and fuse skip
features. Contrastive, regression, and cross-entropy objectives combine into
one differentiable total.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ambiseg import autograd as ag
from ambiseg.ambiguity import AefConfig, ambiguity_map
from ambiseg.apm import (LinearBN, block_forward, concat_input, glorot_uniform, init_apm_block,
                         loss_reg)
from ambiseg.cloud import PointCloud, fps_indices, knn_all, knn_query, sq_dists
from ambiseg.config import Config
from ambiseg.margin import margin_map
from ambiseg.refine import refine

DOWNSAMPLE_RATIO = 0.25
HEAD_HIDDEN = 16


@dataclass
class LossReport:
    l_ce: float
    l_am: list[float]
    l_reg: list[float]
    l_seg: float
    l_total: float


@dataclass
class StageGeometry:
    indices: np.ndarray          # into the parent stage's point list
    positions: np.ndarray
    labels: np.ndarray | None
    enc_nbr: np.ndarray          # (n_s, K_enc) neighbor rows in the parent stage
    up_idx: np.ndarray           # (n_parent, 3) nearest stage points per parent point
    up_w: np.ndarray             # (n_parent, 3) inverse-distance upsample weights
    mr_nbr: np.ndarray           # (n_s, k_tilde - 1), anchor excluded
    ambiguities: np.ndarray | None = None
    margins: np.ndarray | None = None
    nbr_matrix: np.ndarray | None = None   # (n_s, K_aef) for the contrast loss
    intra_mask: np.ndarray | None = None


def mine_labels(parent_labels: np.ndarray, sampled_indices: np.ndarray) -> np.ndarray:
    """Sampled points inherit the label of their source point."""
    parent_labels = np.asarray(parent_labels)
    idx = np.asarray(sampled_indices, dtype=np.int64)
    if idx.size and (idx.min() < 0 or idx.max() >= parent_labels.shape[0]):
        raise ValueError("sampled index out of parent range")
    return parent_labels[idx]


class SegModel:
    """Stage-structured segmentation network plus per-stage ambiguity regressors."""

    def __init__(self, cfg: Config, feat_dim0: int, num_classes: int):
        cfg.validate()
        self.cfg = cfg
        self.feat_dim0 = feat_dim0
        self.num_classes = num_classes
        rng = np.random.default_rng(cfg.seed)
        dims = (feat_dim0,) + tuple(cfg.dims)
        self.enc = [LinearBN(3 + dims[s - 1], dims[s], rng) for s in range(1, cfg.stages + 1)]
        self.dec = [LinearBN(dims[s + 1] + dims[s], dims[s], rng) for s in range(1, cfg.stages)]
        self.head_hidden = LinearBN(dims[1] + feat_dim0, HEAD_HIDDEN, rng)
        self.head_w = ag.Tensor(glorot_uniform(rng, num_classes, HEAD_HIDDEN), requires_grad=True)
        self.head_b = ag.Tensor(np.zeros(num_classes), requires_grad=True)
        self.apm = [init_apm_block(cfg.dims[s - 1], rng) for s in range(1, cfg.stages + 1)]

    def units(self) -> dict[str, LinearBN]:
        """Checkpoint prefix -> unit, in the order the units draw from the RNG."""
        table = {f"enc{s}": u for s, u in enumerate(self.enc, start=1)}
        table |= {f"dec{s}": u for s, u in enumerate(self.dec, start=1)}
        table["head_hidden"] = self.head_hidden
        return table | {f"apm{s}.l{t}": u for s, block in enumerate(self.apm, start=1)
                        for t, u in enumerate(block)}

    def parameters(self) -> list[ag.Tensor]:
        units = self.units().values()
        return [p for u in units for p in u.parameters()] + [self.head_w, self.head_b]

    def named_arrays(self) -> dict[str, np.ndarray]:
        out = {f"{prefix}.{field}": arr for prefix, u in self.units().items()
               for field, arr in u.arrays().items()}
        return out | {"head.w": self.head_w.data, "head.b": self.head_b.data}

    def load_arrays(self, arrays: dict[str, np.ndarray]) -> None:
        own = self.named_arrays()
        if set(own) != set(arrays):
            missing = set(own) ^ set(arrays)
            raise ValueError(f"checkpoint parameter names do not match: {sorted(missing)[:5]}")
        for name, arr in own.items():
            src = np.asarray(arrays[name], dtype=np.float64)
            if src.shape != arr.shape:
                raise ValueError(f"shape mismatch for {name}: {src.shape} vs {arr.shape}")
            arr[...] = src


def _stage_sizes(n0: int, cfg: Config) -> list[int]:
    sizes = []
    n = n0
    floor = max(cfg.k_tilde, 8)
    for _ in range(cfg.stages):
        n = max(min(floor, n), int(round(n * DOWNSAMPLE_RATIO)))
        sizes.append(n)
    return sizes


def build_geometry(cloud: PointCloud, cfg: Config, with_labels: bool) -> list[StageGeometry]:
    """Static per-cloud structure: sampling, neighborhoods, ambiguities, margins."""
    sizes = _stage_sizes(cloud.n, cfg)
    geoms: list[StageGeometry] = []
    parent_pos = cloud.positions
    parent_lab = cloud.labels if with_labels else None
    for s in range(1, cfg.stages + 1):
        n_s = sizes[s - 1]
        idx = fps_indices(parent_pos, n_s, start=0)
        pos = parent_pos[idx]
        lab = mine_labels(parent_lab, idx) if parent_lab is not None else None
        enc_nbr = knn_query(parent_pos, pos, min(cfg.k, parent_pos.shape[0]))
        # 3-NN inverse-squared-distance interpolation weights
        up_idx = knn_query(pos, parent_pos, min(3, n_s))
        inv = 1.0 / np.maximum(sq_dists(pos[up_idx], parent_pos[:, None, :]), 1e-12)
        up_w = inv / inv.sum(axis=1, keepdims=True)
        kt = min(cfg.k_tilde, n_s)
        k_aef = min(cfg.k, n_s)
        # under the tie rule the first columns of a wider search are the narrower one
        nbrs = knn_all(pos, max(kt, k_aef) if lab is not None else kt)
        geo = StageGeometry(indices=idx, positions=pos, labels=lab,
                            enc_nbr=enc_nbr, up_idx=up_idx, up_w=up_w, mr_nbr=nbrs[:, 1:kt])
        if lab is not None:
            stage_cloud = PointCloud(pos, lab, cloud.num_classes)
            geo.nbr_matrix = nbrs[:, :k_aef]
            geo.ambiguities = ambiguity_map(stage_cloud, AefConfig(k=k_aef, beta=cfg.beta),
                                            nbrs=geo.nbr_matrix).values
            geo.margins = margin_map(geo.ambiguities, cfg.mu, cfg.nu)
            geo.intra_mask = lab[geo.nbr_matrix] == lab[:, None]
        geoms.append(geo)
        parent_pos, parent_lab = pos, lab
    return geoms


@dataclass
class ForwardResult:
    scores: ag.Tensor
    stage_feats: dict[int, ag.Tensor]        # decoder-side features per stage
    apm_train_out: dict[int, ag.Tensor]
    pred_amb: dict[int, np.ndarray]          # infer-mode predictions (constants)
    geometry: list[StageGeometry]


def forward(model: SegModel, cloud: PointCloud, mode: str = "train",
            geometry: list[StageGeometry] | None = None,
            update_running: bool | None = None) -> ForwardResult:
    """Full network pass; train mode also evaluates AEF targets and APM outputs."""
    cfg = model.cfg
    if mode not in ("train", "infer"):
        raise ValueError(f"unknown mode {mode!r}")
    if update_running is None:
        update_running = mode == "train"
    if geometry is None:
        geometry = build_geometry(cloud, cfg, with_labels=mode == "train")
    f0 = cloud.features if cloud.features is not None else cloud.positions
    if f0.shape[1] != model.feat_dim0:
        raise ValueError(f"initial feature dim {f0.shape[1]} != model dim {model.feat_dim0}")
    feats0 = ag.Tensor(f0)

    # encoder
    enc_feats: dict[int, ag.Tensor] = {}
    parent_pos, parent_feats = cloud.positions, feats0
    for s in range(1, cfg.stages + 1):
        geo = geometry[s - 1]
        n_s, k_enc = geo.enc_nbr.shape
        rel = (parent_pos[geo.enc_nbr] - geo.positions[:, None, :]).reshape(-1, 3)
        nbr_feats = ag.gather_rows(parent_feats, geo.enc_nbr.ravel())
        inp = ag.concat_cols([ag.Tensor(rel), nbr_feats])
        h = model.enc[s - 1](inp, mode, update_running)
        enc_feats[s] = ag.neighborhood_max(h, n_s, k_enc)
        parent_pos, parent_feats = geo.positions, enc_feats[s]

    # ambiguity regressors: train-mode outputs for the loss, infer-mode
    # running-stat outputs for masked refinement
    apm_train_out: dict[int, ag.Tensor] = {}
    pred_amb: dict[int, np.ndarray] = {}
    for s in range(1, cfg.stages + 1):
        geo = geometry[s - 1]
        block = model.apm[s - 1]
        z_np = concat_input(geo.positions, enc_feats[s].data)
        if mode == "train":
            if cfg.apm_detach:
                z = ag.Tensor(z_np)
            else:
                z = ag.concat_cols([ag.Tensor(geo.positions), enc_feats[s]])
            apm_train_out[s] = block_forward(z, block, mode="train",
                                             update_running=update_running)
        pred_amb[s] = block_forward(z_np, block, mode="infer",
                                    update_running=False).data[:, 0]

    # decoder
    stage_feats: dict[int, ag.Tensor] = {}
    g = refine(enc_feats[cfg.stages], pred_amb[cfg.stages],
               geometry[cfg.stages - 1].mr_nbr, cfg)
    stage_feats[cfg.stages] = g
    for s in range(cfg.stages - 1, 0, -1):
        geo_child = geometry[s]          # stage s+1 geometry holds up_idx for stage s
        up = ag.weighted_rows(g, geo_child.up_idx, geo_child.up_w)
        x = ag.concat_cols([up, enc_feats[s]])
        g = model.dec[s - 1](x, mode, update_running)
        g = refine(g, pred_amb[s], geometry[s - 1].mr_nbr, cfg)
        stage_feats[s] = g

    up0 = ag.weighted_rows(g, geometry[0].up_idx, geometry[0].up_w)
    head_in = ag.concat_cols([up0, feats0])
    hidden = model.head_hidden(head_in, mode, update_running)
    scores = ag.affine(hidden, model.head_w, model.head_b)

    return ForwardResult(scores=scores, stage_feats=stage_feats, apm_train_out=apm_train_out,
                         pred_amb=pred_amb, geometry=geometry)


def loss_joint(model: SegModel, result: ForwardResult, labels: np.ndarray) -> tuple[ag.Tensor, LossReport]:
    """Assemble the total objective from the forward result."""
    cfg = model.cfg
    l_ce = ag.cross_entropy(result.scores, labels)
    l_am_terms: list[ag.Tensor] = []
    l_reg_terms: list[ag.Tensor] = []
    for s in range(1, cfg.stages + 1):
        geo = result.geometry[s - 1]
        l_am_terms.append(ag.contrast_loss(result.stage_feats[s], geo.nbr_matrix,
                                           geo.intra_mask, geo.margins, cfg.tau))
        l_reg_terms.append(loss_reg(result.apm_train_out[s], geo.ambiguities))
    total = ag.scale(l_ce, cfg.lam)
    for t in l_am_terms:
        total = ag.add(total, ag.scale(t, 1.0 - cfg.lam))
    l_seg_val = total.item()
    for t in l_reg_terms:
        total = ag.add(total, ag.scale(t, cfg.omega))
    report = LossReport(
        l_ce=l_ce.item(),
        l_am=[t.item() for t in l_am_terms],
        l_reg=[t.item() for t in l_reg_terms],
        l_seg=l_seg_val,
        l_total=total.item(),
    )
    return total, report


def _first_non_finite(report: LossReport) -> str | None:
    """The first non-finite loss term as "name (stage s) = value", else None."""
    terms = [("l_ce", report.l_ce)]
    for name in ("l_am", "l_reg"):
        terms += [(f"{name} (stage {s})", v) for s, v in enumerate(getattr(report, name), 1)]
    terms.append(("total loss", report.l_total))
    return next((f"{name} = {v}" for name, v in terms if not math.isfinite(v)), None)


def train(model: SegModel, clouds: list[PointCloud], epochs: int | None = None,
          steps_per_epoch: int = 1) -> list[LossReport]:
    """Momentum SGD with cosine learning-rate decay; deterministic per seed."""
    cfg = model.cfg
    if not clouds:
        raise ValueError("training dataset must be non-empty")
    epochs = cfg.epochs if epochs is None else epochs
    params = model.parameters()
    velocity = [np.zeros_like(p.data) for p in params]
    geometries = [build_geometry(c, cfg, with_labels=True) for c in clouds]
    history: list[LossReport] = []
    total_epochs = max(epochs, 1)
    for epoch in range(epochs):
        lr = cfg.lr * 0.5 * (1.0 + math.cos(math.pi * epoch / total_epochs))
        last_report = None
        for cloud, geometry in zip(clouds, geometries):
            for _ in range(steps_per_epoch):
                ag.zero_grads(params)
                result = forward(model, cloud, mode="train", geometry=geometry)
                total, report = loss_joint(model, result, cloud.labels)
                blown = _first_non_finite(report)
                if blown:
                    raise RuntimeError(f"training diverged at epoch {epoch}: {blown}")
                ag.backward(total)
                for p, v in zip(params, velocity):
                    if p.grad is not None:
                        v *= 0.9
                        v += p.grad
                        p.data -= lr * v
                last_report = report
        history.append(last_report)
    return history


def predict(model: SegModel, cloud: PointCloud,
            geometry: list[StageGeometry] | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Argmax class labels plus per-point stage-1 predicted ambiguity."""
    if geometry is None:
        geometry = build_geometry(cloud, model.cfg, with_labels=False)
    result = forward(model, cloud, mode="infer", geometry=geometry)
    labels = np.argmax(result.scores.data, axis=1)  # argmax tie -> lowest class
    amb = result.pred_amb[1][geometry[0].up_idx[:, 0]]  # nearest stage-1 point
    return labels, amb
