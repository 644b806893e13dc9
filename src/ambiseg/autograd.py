"""Minimal reverse-mode differentiation on float64 numpy arrays.

Closed primitive set, each covered by ``ambiseg gradcheck``: add, scale, affine,
sigmoid, relu, concat_cols, gather_rows, weighted_rows, neighborhood_max,
batch_norm, cross_entropy, contrast_loss and mae. Every graph node in the
library comes from one of them. No operator overloading and no general
broadcasting.

Ownership rule: a backward closure hands ``_accum`` an array it owns, never
``g`` itself or a view of it. The first ``_accum`` on a node keeps that array
as the node's ``.grad`` without copying, and later ones add into it in place.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.sparse import csr_matrix


class Tensor:
    """Array node in a dynamically built computation graph."""

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward")

    def __init__(self, data, requires_grad=False, parents=(), backward=None):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad = None
        self.requires_grad = bool(requires_grad) or any(p.requires_grad for p in parents)
        self._parents = parents
        self._backward = backward

    @property
    def shape(self):
        return self.data.shape

    def item(self) -> float:
        return float(self.data)

    def _accum(self, g):
        if self.grad is None:
            self.grad = np.asarray(g)
        else:
            self.grad += g

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"


def backward(output: Tensor) -> None:
    """Reverse-mode sweep from a scalar output; fills .grad on reachable leaves."""
    if output.data.size != 1:
        raise ValueError("backward requires a scalar output")
    topo: list[Tensor] = []
    seen: set[int] = set()
    stack = [(output, False)]
    while stack:
        node, done = stack.pop()
        if done:
            topo.append(node)
            continue
        if id(node) in seen or not node.requires_grad:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for p in node._parents:
            stack.append((p, False))
    output.grad = np.ones_like(output.data)
    for node in reversed(topo):
        if node._backward is not None:
            node._backward(node.grad)


def zero_grads(params) -> None:
    for p in params:
        p.grad = None


# ---------------------------------------------------------------------------
# primitives


def add(a: Tensor, b: Tensor) -> Tensor:
    if a.data.shape != b.data.shape:
        raise ValueError(f"add shape mismatch {a.data.shape} vs {b.data.shape}")

    def bwd(g):
        if a.requires_grad:
            a._accum(g.copy())
        if b.requires_grad:
            b._accum(g.copy())

    return Tensor(a.data + b.data, parents=(a, b), backward=bwd)


def scale(x: Tensor, c: float) -> Tensor:
    def bwd(g):
        if x.requires_grad:
            x._accum(g * c)

    return Tensor(x.data * c, parents=(x,), backward=bwd)


def affine(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """x @ w.T + b for a (n, d_in) batch."""
    xd = x.data
    if xd.ndim != 2 or w.data.ndim != 2 or xd.shape[1] != w.data.shape[1]:
        raise ValueError(f"affine shape mismatch x{xd.shape} w{w.data.shape}")
    if b.data.shape != (w.data.shape[0],):
        raise ValueError(f"affine bias shape {b.data.shape} != ({w.data.shape[0]},)")

    def bwd(g):
        if x.requires_grad:
            x._accum(g @ w.data)
        if w.requires_grad:
            w._accum(g.T @ xd)
        if b.requires_grad:
            b._accum(g.sum(axis=0))

    return Tensor(xd @ w.data.T + b.data, parents=(x, w, b), backward=bwd)


def sigmoid(x: Tensor) -> Tensor:
    """1 / (1 + exp(-x)) for x >= 0 and exp(x) / (1 + exp(x)) below, without overflow."""
    e = np.abs(x.data)
    np.negative(e, out=e)
    np.exp(e, out=e)
    y = np.where(x.data >= 0, 1.0, e)
    e += 1.0
    y /= e

    def bwd(g):
        if x.requires_grad:
            gy = g * y
            gy *= 1.0 - y
            x._accum(gy)

    return Tensor(y, parents=(x,), backward=bwd)


def relu(x: Tensor) -> Tensor:
    mask = x.data > 0

    def bwd(g):
        if x.requires_grad:
            x._accum(g * mask)

    return Tensor(x.data * mask, parents=(x,), backward=bwd)


def concat_cols(parts: list[Tensor]) -> Tensor:
    """Column-wise concatenation of (n, d_i) blocks."""
    widths = [p.data.shape[1] for p in parts]
    out = np.concatenate([p.data for p in parts], axis=1)

    def bwd(g):
        off = 0
        for p, w in zip(parts, widths):
            if p.requires_grad:
                p._accum(g[:, off:off + w].copy())
            off += w

    return Tensor(out, parents=tuple(parts), backward=bwd)


def _row_operator(idx: np.ndarray, weights: np.ndarray, n: int) -> csr_matrix:
    """(m, n) CSR operator whose row i holds weights[i, :] at columns idx[i, :].

    ``S @ x`` is ``sum_h weights[:, h, None] * x[idx[:, h]]``; ``S.T @ g`` scatters
    rows back, adding in the flattened order of ``idx``, as ``np.add.at`` does.
    """
    m, h = idx.shape
    indptr = np.arange(0, m * h + 1, h)
    return csr_matrix((np.ravel(weights), idx.ravel(), indptr), shape=(m, n))


def gather_rows(x: Tensor, idx: np.ndarray) -> Tensor:
    idx = np.asarray(idx, dtype=np.int64)

    def bwd(g):
        if x.requires_grad:
            x._accum(_row_operator(idx[:, None], np.ones((idx.size, 1)), x.data.shape[0]).T @ g)

    return Tensor(x.data[idx], parents=(x,), backward=bwd)


def neighborhood_max(x: Tensor, groups: int, k: int) -> Tensor:
    """Max over each group of k consecutive rows: (groups*k, d) -> (groups, d)."""
    xd = x.data.reshape(groups, k, -1)
    arg = np.argmax(xd, axis=1)
    out = np.take_along_axis(xd, arg[:, None, :], axis=1)[:, 0, :]

    def bwd(g):
        if x.requires_grad:
            acc = np.zeros_like(xd)
            np.put_along_axis(acc, arg[:, None, :], g[:, None, :], axis=1)
            x._accum(acc.reshape(x.data.shape))

    return Tensor(out, parents=(x,), backward=bwd)


# Batch-norm variance offset and running-statistics momentum.
BN_EPS = 1e-5
BN_MOMENTUM = 0.9


@dataclass
class BatchNormState:
    """Running statistics of one batch-norm layer."""

    running_mean: np.ndarray
    running_var: np.ndarray

    @classmethod
    def create(cls, dim: int) -> "BatchNormState":
        return cls(running_mean=np.zeros(dim), running_var=np.ones(dim))


def batch_norm(x: Tensor, gamma: Tensor, beta: Tensor, state: BatchNormState,
               mode: str = "train", update_running: bool = True) -> Tensor:
    """Batch normalization over axis 0 with learnable scale/shift.

    Train mode uses (clamped) batch statistics and blends them into the running
    stats; infer mode is a pure affine map from the running stats.
    """
    if mode not in ("train", "infer"):
        raise ValueError(f"unknown mode {mode!r}")
    xd = x.data
    if mode == "train":
        mean = xd.mean(axis=0)
        xhat = xd - mean
        # np.var's float sequence: the mean of the squared deviations
        out = np.multiply(xhat, xhat)
        var = out.sum(axis=0) / xd.shape[0]
        if update_running:
            state.running_mean = BN_MOMENTUM * state.running_mean + (1 - BN_MOMENTUM) * mean
            state.running_var = BN_MOMENTUM * state.running_var + (1 - BN_MOMENTUM) * var
    else:
        var = state.running_var
        xhat = xd - state.running_mean
        out = np.empty_like(xd)
    inv = 1.0 / np.sqrt(var + BN_EPS)
    xhat *= inv
    np.multiply(xhat, gamma.data, out=out)
    out += beta.data

    def bwd(g):
        buf = np.empty_like(g)
        if gamma.requires_grad:
            gamma._accum(np.multiply(g, xhat, out=buf).sum(axis=0))
        if beta.requires_grad:
            beta._accum(np.sum(g, axis=0))
        if x.requires_grad:
            gx = g * gamma.data
            if mode == "train":
                proj = np.multiply(gx, xhat, out=buf).mean(axis=0)
                gx -= gx.mean(axis=0)
                gx -= np.multiply(xhat, proj, out=buf)
            gx *= inv
            x._accum(gx)

    return Tensor(out, parents=(x, gamma, beta), backward=bwd)


def cross_entropy(scores: Tensor, labels: np.ndarray) -> Tensor:
    """Mean softmax cross entropy against integer labels."""
    labels = np.asarray(labels, dtype=np.int64)
    n = scores.data.shape[0]
    shifted = scores.data - scores.data.max(axis=1, keepdims=True)
    expv = np.exp(shifted)
    probs = expv / expv.sum(axis=1, keepdims=True)
    picked = shifted[np.arange(n), labels] - np.log(expv.sum(axis=1))
    out = -np.mean(picked)

    def bwd(g):
        if scores.requires_grad:
            grad = probs.copy()
            grad[np.arange(n), labels] -= 1.0
            scores._accum(float(g) * grad / n)

    return Tensor(out, parents=(scores,), backward=bwd)


def mae(pred: Tensor, target: np.ndarray) -> Tensor:
    """Mean absolute error vs a constant target; subgradient at 0 is 0."""
    target = np.asarray(target, dtype=np.float64)
    if pred.data.shape != target.shape:
        raise ValueError(f"mae shape mismatch {pred.data.shape} vs {target.shape}")
    diff = pred.data - target
    out = np.mean(np.abs(diff))

    def bwd(g):
        if pred.requires_grad:
            pred._accum(float(g) * np.sign(diff) / diff.size)

    return Tensor(out, parents=(pred,), backward=bwd)


def contrast_loss(features: Tensor, nbr: np.ndarray, intra: np.ndarray,
                  margins: np.ndarray, tau: float) -> Tensor:
    """Adaptive margin contrastive loss as a graph node.

    The forward value and backward pass both come from the analytic
    implementation in ambiseg.margin; margins are constants.
    """
    from ambiseg.margin import loss_am_indexed

    value, grad_f = loss_am_indexed(features.data, nbr, intra,
                                    np.asarray(margins, dtype=np.float64), tau)

    def bwd(g):
        if features.requires_grad:
            features._accum(float(g) * grad_f)

    return Tensor(value, parents=(features,), backward=bwd)


def weighted_rows(x: Tensor, idx: np.ndarray, weights: np.ndarray) -> Tensor:
    """out_i = sum_h weights_{i,h} * x_{idx_{i,h}} with constant weights."""
    idx = np.asarray(idx, dtype=np.int64)
    w = np.asarray(weights, dtype=np.float64)
    out = np.einsum("nh,nhd->nd", w, x.data[idx])

    def bwd(g):
        if x.requires_grad:
            x._accum(_row_operator(idx, w, x.data.shape[0]).T @ g)

    return Tensor(out, parents=(x,), backward=bwd)


# ---------------------------------------------------------------------------
# finite differences


def finite_diff_check(f, params, step: float = 1e-5) -> float:
    """Max relative error between analytic gradients of f() and central differences.

    f rebuilds its graph from the live param tensors on every call; the relative
    error denominator is max(1, |analytic|, |numeric|) per coordinate.
    """
    if not 1e-7 <= step <= 1e-3:
        raise ValueError("step must lie in [1e-7, 1e-3]")
    zero_grads(params)
    out = f()
    backward(out)
    analytic = [np.zeros_like(p.data) if p.grad is None else p.grad.copy() for p in params]
    worst = 0.0
    for p, a in zip(params, analytic):
        flat = p.data.ravel()
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + step
            hi = f().item()
            flat[i] = orig - step
            lo = f().item()
            flat[i] = orig
            num = (hi - lo) / (2.0 * step)
            ana = a.ravel()[i]
            err = abs(ana - num) / max(1.0, abs(ana), abs(num))
            worst = max(worst, err)
    return worst
