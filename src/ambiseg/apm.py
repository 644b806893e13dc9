"""Per-stage MLP regressor of point ambiguity.

Each block maps the concatenated (position, feature) vector through six
affine -> batch-norm -> sigmoid layers down to a single value in (0, 1),
supervised by mean absolute error against the geometric ambiguity. Those
layers are ``LinearBN`` units, the affine -> batch-norm -> activation unit the
whole network is built from.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ambiseg import autograd as ag

# Hidden widths after the (3 + D) input layer; the head is 1-dim.
APM_CHANNELS = (32, 16, 8, 4, 2, 1)


def glorot_uniform(rng: np.random.Generator, fan_out: int, fan_in: int) -> np.ndarray:
    bound = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-bound, bound, size=(fan_out, fan_in))


class LinearBN:
    """affine -> batch norm -> activation unit; ``act`` is "relu" or "sigmoid"."""

    def __init__(self, d_in: int, d_out: int, rng: np.random.Generator):
        self.w = ag.Tensor(glorot_uniform(rng, d_out, d_in), requires_grad=True)
        self.b = ag.Tensor(np.zeros(d_out), requires_grad=True)
        self.gamma = ag.Tensor(np.ones(d_out), requires_grad=True)
        self.beta = ag.Tensor(np.zeros(d_out), requires_grad=True)
        self.bn = ag.BatchNormState.create(d_out)

    def __call__(self, x: ag.Tensor, mode: str, update_running: bool, act: str = "relu") -> ag.Tensor:
        y = ag.affine(x, self.w, self.b)
        y = ag.batch_norm(y, self.gamma, self.beta, self.bn, mode=mode,
                          update_running=update_running)
        return ag.sigmoid(y) if act == "sigmoid" else ag.relu(y)

    def parameters(self):
        return [self.w, self.b, self.gamma, self.beta]

    def named_arrays(self, prefix: str):
        return {
            f"{prefix}.w": self.w.data,
            f"{prefix}.b": self.b.data,
            f"{prefix}.gamma": self.gamma.data,
            f"{prefix}.beta": self.beta.data,
            f"{prefix}.running_mean": self.bn.running_mean,
            f"{prefix}.running_var": self.bn.running_var,
        }


@dataclass
class ApmBlock:
    dims: tuple[int, ...]
    layers: list[LinearBN] = field(default_factory=list)


def init_apm_block(feat_dim: int, rng: np.random.Generator) -> ApmBlock:
    dims = (3 + feat_dim,) + APM_CHANNELS
    block = ApmBlock(dims=dims)
    for t in range(len(dims) - 1):
        block.layers.append(LinearBN(dims[t], dims[t + 1], rng))
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
        x = layer(x, mode, update_running, act="sigmoid")
    return x


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
