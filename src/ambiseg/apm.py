"""Per-stage MLP regressor of point ambiguity.

Each regressor is a list of six ``LinearBN`` units, the batch norm of an affine
map (one ``ag.batch_norm`` node) then an activation, the unit the whole network
is built from, here with sigmoid activations. It maps the concatenated
(position, feature) vector down to a single value in (0, 1), supervised by mean
absolute error against the geometric ambiguity.
"""
from __future__ import annotations

import numpy as np

from ambiseg import autograd as ag

# Hidden widths after the (3 + D) input layer; the head is 1-dim.
APM_CHANNELS = (32, 16, 8, 4, 2, 1)


def glorot_uniform(rng: np.random.Generator, fan_out: int, fan_in: int) -> np.ndarray:
    bound = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-bound, bound, size=(fan_out, fan_in))


class LinearBN:
    """Batch norm of an affine map, then an activation; ``act`` is "relu" or "sigmoid"."""

    def __init__(self, d_in: int, d_out: int, rng: np.random.Generator):
        self.w = ag.Tensor(glorot_uniform(rng, d_out, d_in), requires_grad=True)
        self.b = ag.Tensor(np.zeros(d_out), requires_grad=True)
        self.gamma = ag.Tensor(np.ones(d_out), requires_grad=True)
        self.beta = ag.Tensor(np.zeros(d_out), requires_grad=True)
        self.bn = ag.BatchNormState(running_mean=np.zeros(d_out), running_var=np.ones(d_out))

    def __call__(self, x: ag.Tensor, mode: str, update_running: bool = True,
                 act: str = "relu") -> ag.Tensor:
        """The unit's output; in infer mode a constant ``Tensor`` with no graph.

        Nothing differentiates an inference pass: infer-mode ``batch_norm`` returns
        a constant, so its activation is one too, and the unit's arrays are freed
        once the next unit has read its output.
        """
        y = ag.batch_norm(x, self.w, self.b, self.gamma, self.beta, self.bn, mode=mode,
                          update_running=update_running)
        return ag.sigmoid(y) if act == "sigmoid" else ag.relu(y)

    def parameters(self):
        return [self.w, self.b, self.gamma, self.beta]

    def arrays(self) -> dict[str, np.ndarray]:
        """Checkpoint field name -> live array, parameters first."""
        return {"w": self.w.data, "b": self.b.data, "gamma": self.gamma.data,
                "beta": self.beta.data, "running_mean": self.bn.running_mean,
                "running_var": self.bn.running_var}


def init_apm_block(feat_dim: int, rng: np.random.Generator) -> list[LinearBN]:
    dims = (3 + feat_dim,) + APM_CHANNELS
    return [LinearBN(d_in, d_out, rng) for d_in, d_out in zip(dims[:-1], dims[1:])]


def block_forward(z, block: list[LinearBN], mode: str = "train",
                  update_running: bool = True) -> ag.Tensor:
    """Run the block on a (n, 3+D) batch; output is a (n, 1) tensor in (0, 1)."""
    x = z if isinstance(z, ag.Tensor) else ag.Tensor(np.asarray(z, dtype=np.float64))
    for layer in block:
        x = layer(x, mode, update_running, act="sigmoid")
    return x


def loss_reg(pred: ag.Tensor, target: np.ndarray) -> ag.Tensor:
    """Mean absolute error between the (n, 1) prediction and the geometric ambiguity."""
    return ag.mae(pred, np.asarray(target, dtype=np.float64).reshape(-1, 1))
