"""Simplified set-abstraction encoder-decoder with the joint training objective.

Encoder stages downsample by farthest point sampling and aggregate neighbor features
with a shared MLP + max pool: one ``ag.neighborhood_max`` node (affine, batch norm,
ReLU, then the max over each point's K rows) per block of groups, in one loop: the whole
stage in train mode, blocks equal to within one group in infer mode, where blocks of the
library's size give one block's bits. Decoder stages upsample by 3-NN
inverse-squared-distance interpolation: ``cloud.knn_sampled`` picks the three coarse
points, the squared distances it ranks by weight them. They fuse skip features; decoder
stage 0, the head's hidden unit, fuses the input features before the linear classifier.
``build_geometry`` gives training and inference one geometry: each stage's labels, its
one ``knn_all`` at ``max(k_tilde, k)``, its ambiguities and margins. It reads each
stage's sampling, encoder rows and upsampling rows from its parent's ``knn_all`` where
that gives the same bits: the caller's full-cloud search for stage 1 (``ambiseg eval``
passes the one it makes for the ambiguity bins), the previous stage's own search after
that. Every tie rule stays in ``cloud``. ``forward(model, cloud, mode, geometry)`` loops
once down the stages and once up; train mode always trains the running statistics.
Contrastive, regression, and cross-entropy objectives combine into one differentiable
total.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ambiseg import autograd as ag
from ambiseg.ambiguity import ambiguity_map
from ambiseg.apm import LinearBN, block_forward, glorot_uniform, init_apm_block, loss_reg
from ambiseg.cloud import PointCloud, fps_indices, knn_all, knn_query, knn_sampled
from ambiseg.config import Config
from ambiseg.margin import margin_map
from ambiseg.refine import refine

DOWNSAMPLE_RATIO = 0.25
HEAD_HIDDEN = 16
# Elements of the widest (rows, channels) array of one infer-mode encoder block.
_BLOCK_ELEMS = 1 << 15


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
    labels: np.ndarray           # inherited from each sampled point's source point
    enc_nbr: np.ndarray          # (n_s, K_enc) neighbor rows in the parent stage
    up_idx: np.ndarray           # (n_parent, 3) nearest stage points per parent point
    up_w: np.ndarray             # (n_parent, 3) inverse-distance upsample weights
    mr_nbr: np.ndarray           # (n_s, k_tilde - 1) kNN rows minus column 0 (see refine)
    ambiguities: np.ndarray
    margins: np.ndarray
    nbr_matrix: np.ndarray       # (n_s, K_aef) for the contrast loss
    intra_mask: np.ndarray


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
            if not np.isfinite(src).all():
                raise ValueError(f"checkpoint array {name} is not finite")
            arr[...] = src


def _stage_sizes(n0: int, cfg: Config) -> list[int]:
    sizes = []
    n = n0
    floor = max(cfg.k_tilde, 8)
    for _ in range(cfg.stages):
        n = max(min(floor, n), int(round(n * DOWNSAMPLE_RATIO)))
        sizes.append(n)
    return sizes


def build_geometry(cloud: PointCloud, cfg: Config,
                   search: tuple[np.ndarray, np.ndarray] | None = None) -> list[StageGeometry]:
    """Static per-cloud structure: sampling, neighborhoods, ambiguities, margins.

    Training and inference build the same geometry; only training reads its
    labels, ambiguities, margins and contrast rows. ``search`` is
    ``knn_all(cloud.positions, K)`` when the caller holds it. Each stage reads
    its sampling, encoder rows and upsampling rows from its parent's search
    where it can: stage 1 from ``search``, every later stage from the previous
    stage's own ``knn_all``. The output is the same with or without it.
    """
    sizes = _stage_sizes(cloud.n, cfg)
    geoms: list[StageGeometry] = []
    parent_pos, parent_lab, parent_search = cloud.positions, cloud.labels, search
    for n_s in sizes:
        idx = fps_indices(parent_pos, n_s, parent_search)
        pos, lab = parent_pos[idx], parent_lab[idx]
        k_enc = min(cfg.k, parent_pos.shape[0])
        if parent_search is not None and parent_search[0].shape[1] >= k_enc:
            enc_nbr = parent_search[0][idx, :k_enc]    # a knn_all row is its knn_query row
        else:
            enc_nbr, _ = knn_query(parent_pos, pos, k_enc)
        # 3-NN inverse-squared-distance interpolation weights
        up_idx, up_d2 = knn_sampled(parent_pos, idx, min(3, n_s), parent_search)
        inv = 1.0 / np.maximum(up_d2, 1e-12)
        kt = min(cfg.k_tilde, n_s)
        k_aef = min(cfg.k, n_s)
        # under the tie rule the first columns of a wider search are the narrower one
        nbrs, nbr_d2 = knn_all(pos, max(kt, k_aef))
        nbr = nbrs[:, :k_aef]
        amb = ambiguity_map(lab, (nbr, nbr_d2[:, :k_aef]), cfg.beta).values
        geoms.append(StageGeometry(
            indices=idx, positions=pos, labels=lab, enc_nbr=enc_nbr, up_idx=up_idx,
            up_w=inv / inv.sum(axis=1, keepdims=True), mr_nbr=nbrs[:, 1:kt],
            ambiguities=amb, margins=margin_map(amb, cfg.mu, cfg.nu), nbr_matrix=nbr,
            intra_mask=lab[nbr] == lab[:, None]))
        parent_pos, parent_lab, parent_search = pos, lab, (nbrs, nbr_d2)
    return geoms


@dataclass
class ForwardResult:
    scores: ag.Tensor
    stage_feats: dict[int, ag.Tensor]        # decoder-side features per stage
    apm_train_out: dict[int, ag.Tensor]
    pred_amb: dict[int, np.ndarray]          # infer-mode predictions (constants)
    geometry: list[StageGeometry]


def _encode_groups(unit: LinearBN, parent_pos: np.ndarray, parent_feats: ag.Tensor,
                   geo: StageGeometry, groups: slice, mode: str) -> ag.Tensor:
    """The encoder unit over the neighbour rows of the stage points ``groups``, then
    the max over each point's rows: (groups, d), one ``neighborhood_max`` node."""
    nbr = geo.enc_nbr[groups]
    rel = (parent_pos[nbr] - geo.positions[groups, None, :]).reshape(-1, 3)
    inp = ag.concat_cols([ag.Tensor(rel), ag.gather_rows(parent_feats, nbr.ravel())])
    return ag.neighborhood_max(inp, unit.w, unit.b, unit.gamma, unit.beta, unit.bn,
                               *nbr.shape, mode)


def forward(model: SegModel, cloud: PointCloud, mode: str,
            geometry: list[StageGeometry]) -> ForwardResult:
    """Full network pass over the caller's ``build_geometry(cloud, cfg)``.

    Train mode also runs the regressors for the loss and blends its batch
    statistics into every unit's running statistics.
    """
    cfg = model.cfg
    f0 = cloud.features if cloud.features is not None else cloud.positions
    if f0.shape[1] != model.feat_dim0:
        raise ValueError(f"initial feature dim {f0.shape[1]} != model dim {model.feat_dim0}")

    # down: each stage's encoder, then its regressor on those features alone: the
    # train pass for the loss, the infer pass (running statistics) for refinement
    skip = [ag.Tensor(f0)]                   # skip[s]: stage s features, skip[0] the input
    apm_train_out: dict[int, ag.Tensor] = {}
    pred_amb: dict[int, np.ndarray] = {}
    parent_pos = cloud.positions
    for s, (geo, unit, block) in enumerate(zip(geometry, model.enc, model.apm), 1):
        # train mode's batch statistics need the whole stage as one block; infer mode maps each
        # row alone, in ceil(n_s / step) blocks equal to within one group: no short remainder
        n_s, k_enc = geo.enc_nbr.shape
        step = n_s if mode == "train" else max(1, _BLOCK_ELEMS // (k_enc * max(unit.w.data.shape)))
        parts = -(-n_s // step)
        blocks = [_encode_groups(unit, parent_pos, skip[-1], geo,
                                 slice(n_s * i // parts, n_s * (i + 1) // parts), mode)
                  for i in range(parts)]
        feats = (blocks[0] if len(blocks) == 1
                 else ag.Tensor(np.concatenate([b.data for b in blocks])))
        z_np = np.concatenate([geo.positions, feats.data], axis=1)
        if mode == "train":
            z = (ag.Tensor(z_np) if cfg.apm_detach
                 else ag.concat_cols([ag.Tensor(geo.positions), feats]))
            apm_train_out[s] = block_forward(z, block, mode="train")
        pred_amb[s] = block_forward(z_np, block, mode="infer").data[:, 0]
        skip.append(feats)
        parent_pos = geo.positions

    # up: unit s fuses skip[s] with stage s+1's features upsampled by geometry[s]'s rows
    g = refine(skip[-1], pred_amb[cfg.stages], geometry[-1].mr_nbr, cfg)
    stage_feats = {cfg.stages: g}
    for s, unit in reversed(list(enumerate([model.head_hidden, *model.dec]))):
        up = ag.weighted_rows(g, geometry[s].up_idx, geometry[s].up_w)
        g = unit(ag.concat_cols([up, skip[s]]), mode)
        if s > 0:
            g = stage_feats[s] = refine(g, pred_amb[s], geometry[s - 1].mr_nbr, cfg)

    return ForwardResult(scores=ag.affine(g, model.head_w, model.head_b),
                         stage_feats=stage_feats, apm_train_out=apm_train_out,
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


def train(model: SegModel, clouds: list[PointCloud],
          steps_per_epoch: int = 1) -> list[LossReport]:
    """Momentum SGD with cosine learning-rate decay over ``cfg.epochs``; deterministic per seed.
    ``clouds`` is ``[cloud]``: a list only because perfbench calls ``train(model, [cloud])``."""
    cfg = model.cfg
    if len(clouds) != 1:
        raise ValueError(f"training takes exactly one cloud, got {len(clouds)}")
    cloud = clouds[0]
    params = model.parameters()
    velocity = [np.zeros_like(p.data) for p in params]
    geometry = build_geometry(cloud, cfg)
    history: list[LossReport] = []
    # the two divergence checks below report an overflow in one line; numpy's would repeat it
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for epoch in range(cfg.epochs):
            lr = cfg.lr * 0.5 * (1.0 + math.cos(math.pi * epoch / cfg.epochs))
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
            # Running batch-norm statistics never reach the loss: check what a checkpoint holds.
            blown = next((name for name, a in model.named_arrays().items()
                          if not np.isfinite(a).all()), None)
            if blown:
                raise RuntimeError(f"training diverged at epoch {epoch}: {blown} is not finite")
            history.append(report)
    return history


def predict(model: SegModel, cloud: PointCloud,
            search: tuple[np.ndarray, np.ndarray] | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Argmax class labels plus per-point stage-1 predicted ambiguity.

    ``search`` is ``knn_all(cloud.positions, K)`` when the caller holds it; see
    ``build_geometry``.
    """
    geometry = build_geometry(cloud, model.cfg, search)
    result = forward(model, cloud, mode="infer", geometry=geometry)
    labels = np.argmax(result.scores.data, axis=1)  # argmax tie -> lowest class
    amb = result.pred_amb[1][geometry[0].up_idx[:, 0]]  # nearest stage-1 point
    return labels, amb
