"""Per-stage MLP regressor of point ambiguity.

Each block maps the concatenated (position, feature) vector through six
affine -> batch-norm -> sigmoid layers down to a single value in (0, 1),
supervised by mean absolute error against the geometric ambiguity.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ambiseg import autograd as ag

# Hidden widths after the (3 + D) input layer; the head is 1-dim.
APM_CHANNELS = (32, 16, 8, 4, 2, 1)


@dataclass(frozen=True)
class PredictedAmbiguity:
    values: np.ndarray
    stage: int


@dataclass
class ApmLayer:
    w: ag.Tensor
    b: ag.Tensor
    gamma: ag.Tensor
    beta: ag.Tensor
    bn: ag.BatchNormState


@dataclass
class ApmBlock:
    stage: int
    dims: tuple[int, ...]
    layers: list[ApmLayer] = field(default_factory=list)

    def parameters(self) -> list[ag.Tensor]:
        out = []
        for layer in self.layers:
            out.extend([layer.w, layer.b, layer.gamma, layer.beta])
        return out

    def named_arrays(self, prefix: str) -> dict[str, np.ndarray]:
        out = {}
        for t, layer in enumerate(self.layers):
            base = f"{prefix}.l{t}"
            out[f"{base}.w"] = layer.w.data
            out[f"{base}.b"] = layer.b.data
            out[f"{base}.gamma"] = layer.gamma.data
            out[f"{base}.beta"] = layer.beta.data
            out[f"{base}.running_mean"] = layer.bn.running_mean
            out[f"{base}.running_var"] = layer.bn.running_var
        return out


def glorot_uniform(rng: np.random.Generator, fan_out: int, fan_in: int) -> np.ndarray:
    bound = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-bound, bound, size=(fan_out, fan_in))


def init_apm_block(stage: int, feat_dim: int, rng: np.random.Generator) -> ApmBlock:
    dims = (3 + feat_dim,) + APM_CHANNELS
    block = ApmBlock(stage=stage, dims=dims)
    for t in range(len(dims) - 1):
        d_in, d_out = dims[t], dims[t + 1]
        block.layers.append(ApmLayer(
            w=ag.Tensor(glorot_uniform(rng, d_out, d_in), requires_grad=True),
            b=ag.Tensor(np.zeros(d_out), requires_grad=True),
            gamma=ag.Tensor(np.ones(d_out), requires_grad=True),
            beta=ag.Tensor(np.zeros(d_out), requires_grad=True),
            bn=ag.BatchNormState.create(d_out),
        ))
    return block


def concat_input(p: np.ndarray, f: np.ndarray) -> np.ndarray:
    """Position-first concatenation (3 + D)."""
    p = np.asarray(p, dtype=np.float64)
    f = np.asarray(f, dtype=np.float64)
    if p.shape[-1] != 3:
        raise ValueError("position must be 3-dim")
    if f.shape[-1] < 1:
        raise ValueError("feature must have at least one dimension")
    return np.concatenate([p, f], axis=-1)


def block_forward(z, block: ApmBlock, mode: str = "train",
                  update_running: bool = True) -> ag.Tensor:
    """Run the block on a (n, 3+D) batch; output is a (n, 1) tensor in (0, 1)."""
    x = z if isinstance(z, ag.Tensor) else ag.Tensor(np.asarray(z, dtype=np.float64))
    if x.data.ndim != 2 or x.data.shape[0] < 1:
        raise ValueError("batch must be a non-empty (n, 3+D) array")
    if x.data.shape[1] != block.dims[0]:
        raise ValueError(f"input dim {x.data.shape[1]} != block dim {block.dims[0]}")
    for layer in block.layers:
        x = ag.affine(x, layer.w, layer.b)
        x = ag.batch_norm(x, layer.gamma, layer.beta, layer.bn, mode=mode,
                          update_running=update_running)
        x = ag.sigmoid(x)
    return x


def predict_ambiguity(z: np.ndarray, block: ApmBlock, mode: str = "infer") -> PredictedAmbiguity:
    out = block_forward(z, block, mode=mode, update_running=False)
    return PredictedAmbiguity(values=out.data[:, 0].copy(), stage=block.stage)


def loss_reg(pred, target) -> float | ag.Tensor:
    """Mean absolute error between predicted and geometric ambiguity.

    Accepts a Tensor (returns a graph node) or plain arrays (returns a float).
    """
    tgt = np.asarray(getattr(target, "values", target), dtype=np.float64).reshape(-1)
    if isinstance(pred, ag.Tensor):
        flat = pred if pred.data.ndim == 1 else _squeeze_col(pred)
        if flat.data.shape != tgt.shape:
            raise ValueError("prediction and target lengths differ")
        return ag.mae(flat, tgt)
    vals = np.asarray(getattr(pred, "values", pred), dtype=np.float64).reshape(-1)
    if vals.shape != tgt.shape:
        raise ValueError("prediction and target lengths differ")
    return float(np.mean(np.abs(vals - tgt)))


def _squeeze_col(x: ag.Tensor) -> ag.Tensor:
    def bwd(g):
        if x.requires_grad:
            x._accum(g[:, None].copy())

    return ag.Tensor(x.data[:, 0], parents=(x,), backward=bwd)
