"""Minimal reverse-mode differentiation on float64 numpy arrays.

Closed primitive set, each covered by ``ambiseg gradcheck``: add, scale, affine,
sigmoid, relu, concat_cols, gather_rows, weighted_rows, neighborhood_max,
batch_norm, cross_entropy, contrast_loss and mae. Every graph node in the
library comes from one of them. No operator overloading and no general
broadcasting.

A graph is kept only where a gradient can flow: a node none of whose parents
requires grad is a constant, with no parents and no backward. So a closure of
one input needs no ``requires_grad`` check; a closure of several checks each.

``batch_norm`` is batch norm of the affine map x @ w.T + b, as one node that
normalises the affine output in place. ``neighborhood_max`` is the whole encoder
unit: that batch norm, ReLU and the max over each group of k neighbour rows, as
one node, bit-identical to that chain of three and sharing its code; it keeps
the name of the group max it absorbed, which only the encoder used. ``mode`` is
their one switch: train mode always blends the batch statistics into the running
ones; infer mode normalises by those and, since nothing differentiates an
inference pass, returns a constant. Their train-mode backward is one function,
``_bn_backward``, over the rows that carry a gradient: every row for
``batch_norm``, the picked row of each group and channel for
``neighborhood_max``. A unit of width 1 scatters its gradient densely instead,
since numpy sums a one-column array pairwise.

Every axis-0 sum and mean goes through ``_colsum``: for a C-contiguous array
of width >= 2 one einsum that adds the rows one at a time from +0, as
``np.sum`` does, in a fraction of its time; width 1 and non-contiguous arrays
take ``np.sum``. A mean is ``_colsum(x) / n``, as in ``np.mean``.

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
        flows = any(p.requires_grad for p in parents)
        self.requires_grad = bool(requires_grad) or flows
        # a node no gradient can flow through is a constant: no parents, no backward
        self._parents = parents if flows else ()
        self._backward = backward if flows else None

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
        x._accum(g * c)

    return Tensor(x.data * c, parents=(x,), backward=bwd)


def _colsum(a: np.ndarray) -> np.ndarray:
    """``a.sum(axis=0)``, bit for bit. For a C-contiguous (n, d >= 2) array numpy adds
    the rows one at a time from +0 and so does this einsum, with one inner loop per
    sum, not per row. numpy sums an (n, 1) column pairwise, and may reorder a
    strided array, so those keep ``np.sum``. No product goes through einsum: its
    sum-of-products loops may fuse the multiply and the add."""
    if a.ndim == 2 and a.shape[1] >= 2 and a.flags.c_contiguous:
        return np.einsum("ij->j", a)
    return a.sum(axis=0)


def _affine_forward(x: Tensor, w: Tensor, b: Tensor) -> np.ndarray:
    """x @ w.T + b for a (n, d_in) batch, as a new array."""
    xd = x.data
    if xd.ndim != 2 or w.data.ndim != 2 or xd.shape[1] != w.data.shape[1]:
        raise ValueError(f"affine shape mismatch x{xd.shape} w{w.data.shape}")
    if b.data.shape != (w.data.shape[0],):
        raise ValueError(f"affine bias shape {b.data.shape} != ({w.data.shape[0]},)")
    out = xd @ w.data.T
    out += b.data
    return out


def _affine_backward(g: np.ndarray | None, x: Tensor, w: Tensor, b: Tensor) -> None:
    if x.requires_grad:
        x._accum(g @ w.data)
    if w.requires_grad:
        w._accum(g.T @ x.data)
    if b.requires_grad:
        b._accum(_colsum(g))


def affine(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """x @ w.T + b for a (n, d_in) batch."""
    out = _affine_forward(x, w, b)

    def bwd(g):
        _affine_backward(g, x, w, b)

    return Tensor(out, parents=(x, w, b), backward=bwd)


def sigmoid(x: Tensor) -> Tensor:
    """1 / (1 + exp(-x)) for x >= 0 and exp(x) / (1 + exp(x)) below, without overflow."""
    e = np.abs(x.data)
    np.negative(e, out=e)
    np.exp(e, out=e)
    y = np.where(x.data >= 0, 1.0, e)
    e += 1.0
    y /= e

    def bwd(g):
        gy = g * y
        gy *= 1.0 - y
        x._accum(gy)

    return Tensor(y, parents=(x,), backward=bwd)


def relu(x: Tensor) -> Tensor:
    mask = x.data > 0

    def bwd(g):
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
        x._accum(_row_operator(idx[:, None], np.ones((idx.size, 1)), x.data.shape[0]).T @ g)

    return Tensor(x.data[idx], parents=(x,), backward=bwd)


# Batch-norm variance offset and running-statistics momentum.
BN_EPS = 1e-5
BN_MOMENTUM = 0.9


@dataclass
class BatchNormState:
    """Running statistics of one batch-norm layer."""

    running_mean: np.ndarray
    running_var: np.ndarray


def _bn_forward(xhat: np.ndarray, gamma: Tensor, beta: Tensor, state: BatchNormState, mode: str):
    """Batch-norm statistics of ``xhat``, which it normalises in place, and its output.

    Returns 1 / sqrt(var + BN_EPS) and the output gamma * xhat + beta as a new array.
    Train mode blends the batch statistics into ``state``; infer mode reads them.
    """
    if mode not in ("train", "infer"):
        raise ValueError(f"unknown mode {mode!r}")
    if mode == "train":
        n = xhat.shape[0]
        mean = _colsum(xhat) / n
        xhat -= mean
        # np.var's float sequence: the mean of the squared deviations
        var = _colsum(np.multiply(xhat, xhat)) / n
        state.running_mean = BN_MOMENTUM * state.running_mean + (1 - BN_MOMENTUM) * mean
        state.running_var = BN_MOMENTUM * state.running_var + (1 - BN_MOMENTUM) * var
    else:
        var = state.running_var
        xhat -= state.running_mean
    inv = 1.0 / np.sqrt(var + BN_EPS)
    xhat *= inv
    out = xhat * gamma.data
    out += beta.data
    return inv, out


def _bn_backward(g: np.ndarray, xhat: np.ndarray, inv: np.ndarray, gamma: Tensor,
                 beta: Tensor, inputs: tuple, arg: np.ndarray | None = None) -> np.ndarray | None:
    """Train-mode batch-norm backward over the rows that carry a gradient.

    ``g`` is the gradient at every row of ``xhat`` (rows, d) or, given ``arg``, at
    the picked row ``arg`` of each group of ``xhat`` (groups, k, d) and zero
    elsewhere. Accumulates the gradients of gamma and beta; returns the (rows, d)
    input gradient, or None when no tensor of ``inputs`` (x, w, b of the affine
    map) requires grad. Gamma's and beta's gradients, the mean term and the x̂
    projection are axis-0 sums over the rows of ``g`` only, each through
    ``_colsum``; the one dense array is the input gradient. Skipping the zero rows
    is exact for d >= 2 only: ``_colsum`` adds the rows of an (n, d >= 2) array one
    at a time from +0, as ``np.sum`` does, but an (n, 1) column takes ``np.sum``,
    which sums it pairwise.
    """
    xg = xhat if arg is None else np.take_along_axis(xhat, arg[:, None, :], axis=1)[:, 0, :]
    buf = np.empty_like(g)
    if gamma.requires_grad:
        gamma._accum(_colsum(np.multiply(g, xg, out=buf)))
    if beta.requires_grad:
        beta._accum(_colsum(g))
    if not any(t.requires_grad for t in inputs):
        return None
    n = xhat.size // xhat.shape[-1]
    gx = g * gamma.data
    mean = _colsum(gx) / n
    proj = _colsum(np.multiply(gx, xg, out=buf)) / n
    gx -= mean
    gx -= np.multiply(xg, proj, out=buf)
    if arg is not None:
        # off the picked rows the dense gradient times gamma is 0 * gamma
        gz = np.multiply(xhat, proj)
        np.subtract(0.0 * gamma.data - mean, gz, out=gz)
        np.put_along_axis(gz, arg[:, None, :], gx[:, None, :], axis=1)
        gx = gz.reshape(-1, gz.shape[2])
    gx *= inv
    return gx


def batch_norm(x: Tensor, w: Tensor, b: Tensor, gamma: Tensor, beta: Tensor,
               state: BatchNormState, mode: str = "train") -> Tensor:
    """Batch normalization over axis 0 of the affine map x @ w.T + b, as one node.

    Train mode uses the batch statistics and always blends them into the running
    stats; its backward keeps one (n, d) array, the affine output normalised in place.
    Infer mode is a pure affine map from the running stats and returns a constant.
    """
    xhat = _affine_forward(x, w, b)
    inv, out = _bn_forward(xhat, gamma, beta, state, mode)
    if mode == "infer":
        return Tensor(out)

    def bwd(g):
        _affine_backward(_bn_backward(g, xhat, inv, gamma, beta, (x, w, b)), x, w, b)

    return Tensor(out, parents=(x, w, b, gamma, beta), backward=bwd)


def neighborhood_max(x: Tensor, w: Tensor, b: Tensor, gamma: Tensor, beta: Tensor,
                     state: BatchNormState, groups: int, k: int, mode: str = "train") -> Tensor:
    """One set-abstraction unit: affine, batch norm and ReLU over each group of k
    consecutive rows, then the max over the group: (groups*k, d_in) -> (groups, d).

    Bit for bit the chain ``relu(batch_norm(x, w, b, ...))`` followed by a max
    over each group, with its gradients and running statistics; in infer mode, as
    there, a constant. In train mode it normalises the affine output in place and
    keeps only that one (rows, d) array x̂, the picked rows ``arg`` and their ReLU
    mask for the backward. Only the picked row of each group and channel gets a
    gradient, so ``_bn_backward`` sums over the picked rows only; a unit of width 1
    scatters its gradient densely and sums every row, since at width 1 the
    picked-row sums would change bits.
    """
    xhat = _affine_forward(x, w, b)
    inv, y = _bn_forward(xhat, gamma, beta, state, mode)
    y = y.reshape(groups, k, -1)
    # The ReLU output's argmax: the pre-activation argmax where that maximum is
    # positive, else row 0, since argmax over a group of +-0 picks its first row.
    arg = np.argmax(y, axis=1)
    top = np.take_along_axis(y, arg[:, None, :], axis=1)[:, 0, :]
    arg[top <= 0] = 0
    sel = np.where(top <= 0, y[:, 0, :], top)
    mask = sel > 0
    if mode == "infer":
        return Tensor(sel * mask)

    def bwd(g):
        gp = g * mask
        xhat3 = xhat.reshape(groups, k, -1)
        if xhat.shape[1] > 1:
            gz = _bn_backward(gp, xhat3, inv, gamma, beta, (x, w, b), arg)
        else:
            gd = np.zeros_like(xhat3)
            np.put_along_axis(gd, arg[:, None, :], gp[:, None, :], axis=1)
            gz = _bn_backward(gd.reshape(xhat.shape), xhat, inv, gamma, beta, (x, w, b))
        _affine_backward(gz, x, w, b)

    return Tensor(sel * mask, parents=(x, w, b, gamma, beta), backward=bwd)


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
        features._accum(float(g) * grad_f)

    return Tensor(value, parents=(features,), backward=bwd)


def weighted_rows(x: Tensor, idx: np.ndarray, weights: np.ndarray) -> Tensor:
    """out_i = sum_h weights_{i,h} * x_{idx_{i,h}} with constant weights: one
    ``_row_operator`` S, applied as ``S @ x`` forward and ``S.T @ g`` backward. When
    x needs no gradient (every infer-mode call) the node is a constant and S is
    freed with the forward."""
    op = _row_operator(np.asarray(idx, dtype=np.int64),
                       np.asarray(weights, dtype=np.float64), x.data.shape[0])

    def bwd(g):
        x._accum(op.T @ g)

    return Tensor(op @ x.data, parents=(x,), backward=bwd)


# ---------------------------------------------------------------------------
# finite differences

# Central-difference step of finite_diff_check.
FD_STEP = 1e-5


def finite_diff_check(f, params) -> float:
    """Max relative error between analytic gradients of f() and central differences.

    f rebuilds its graph from the live param tensors on every call; the relative
    error denominator is max(1, |analytic|, |numeric|) per coordinate.
    """
    zero_grads(params)
    out = f()
    backward(out)
    analytic = [np.zeros_like(p.data) if p.grad is None else p.grad.copy() for p in params]
    worst = 0.0
    for p, a in zip(params, analytic):
        flat = p.data.ravel()
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + FD_STEP
            hi = f().item()
            flat[i] = orig - FD_STEP
            lo = f().item()
            flat[i] = orig
            num = (hi - lo) / (2.0 * FD_STEP)
            ana = a.ravel()[i]
            err = abs(ana - num) / max(1.0, abs(ana), abs(num))
            worst = max(worst, err)
    return worst
