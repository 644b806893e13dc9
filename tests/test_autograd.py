import inspect
import itertools
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from ambiseg import autograd as ag
from ambiseg import gradcheck
from oracles import encoder_chain, mul, tsum


def check(f, params):
    return ag.finite_diff_check(f, params)


def test_backward_requires_scalar():
    t = ag.Tensor(np.zeros((2, 2)), requires_grad=True)
    with pytest.raises(ValueError):
        ag.backward(t)


def test_requires_grad_propagates():
    a = ag.Tensor(np.ones(3), requires_grad=True)
    b = ag.Tensor(np.ones(3))
    assert ag.add(a, b).requires_grad
    assert not ag.add(b, b).requires_grad


def test_add_mul_scale_gradients():
    rng = np.random.default_rng(0)
    a = ag.Tensor(rng.normal(size=(4, 3)), requires_grad=True)
    b = ag.Tensor(rng.normal(size=(4, 3)), requires_grad=True)
    assert check(lambda: tsum(ag.scale(mul(ag.add(a, b), a), 0.7)), [a, b]) <= 1e-8


def test_shape_mismatch_errors():
    a = ag.Tensor(np.zeros((2, 3)))
    b = ag.Tensor(np.zeros((3, 2)))
    with pytest.raises(ValueError):
        ag.add(a, b)
    with pytest.raises(ValueError):
        ag.affine(a, ag.Tensor(np.zeros((4, 5))), ag.Tensor(np.zeros(4)))


def test_affine_batch_and_vector():
    rng = np.random.default_rng(1)
    w = ag.Tensor(rng.normal(size=(4, 3)), requires_grad=True)
    b = ag.Tensor(rng.normal(size=4), requires_grad=True)
    x = ag.Tensor(rng.normal(size=(6, 3)), requires_grad=True)
    assert check(lambda: tsum(ag.affine(x, w, b)), [x, w, b]) <= 1e-8
    # a single (d_in,) vector is not a batch
    with pytest.raises(ValueError):
        ag.affine(ag.Tensor(rng.normal(size=3)), w, b)


def test_elementwise_nonlinearities():
    rng = np.random.default_rng(2)
    x = ag.Tensor(rng.normal(size=(5, 4)) + 0.1, requires_grad=True)
    assert check(lambda: tsum(ag.sigmoid(x)), [x]) <= 1e-8
    # keep relu inputs away from the kink at zero
    far = ag.Tensor(rng.normal(size=(5, 4)) + np.sign(rng.normal(size=(5, 4))),
                    requires_grad=True)
    far.data[np.abs(far.data) < 0.1] = 0.5
    assert check(lambda: tsum(ag.relu(far)), [far]) <= 1e-8


def test_sigmoid_is_stable_for_large_inputs():
    y = ag.sigmoid(ag.Tensor(np.array([-1000.0, 1000.0])))
    np.testing.assert_allclose(y.data, [0.0, 1.0])


def test_concat_and_gather():
    rng = np.random.default_rng(3)
    a = ag.Tensor(rng.normal(size=(4, 2)), requires_grad=True)
    b = ag.Tensor(rng.normal(size=(4, 3)), requires_grad=True)
    assert check(lambda: tsum(ag.concat_cols([a, b])), [a, b]) <= 1e-8
    idx = np.array([0, 0, 3, 2, 1])
    assert check(lambda: tsum(mul(ag.gather_rows(a, idx), ag.gather_rows(a, idx))),
                 [a]) <= 1e-8
    np.testing.assert_array_equal(ag.gather_rows(a, idx).data, a.data[idx])


def _encoder_params(rng, d_in=3, d=4):
    w = ag.Tensor(rng.normal(size=(d, d_in)), requires_grad=True)
    b = ag.Tensor(rng.normal(size=d), requires_grad=True)
    gamma = ag.Tensor(rng.uniform(0.5, 1.5, size=d), requires_grad=True)
    beta = ag.Tensor(rng.normal(size=d) * 0.1, requires_grad=True)
    return w, b, gamma, beta


def test_neighborhood_max():
    rng = np.random.default_rng(4)
    x = ag.Tensor(rng.normal(size=(12, 3)), requires_grad=True)
    w, b, gamma, beta = _encoder_params(rng)
    params = [x, w, b, gamma, beta]
    for mode in ("train", "infer"):
        state = ag.BatchNormState(running_mean=rng.normal(size=4) * 0.1,
                                  running_var=rng.uniform(0.5, 2.0, size=4))
        out = ag.neighborhood_max(x, w, b, gamma, beta, state, 4, 3, mode)
        z = x.data @ w.data.T + b.data
        mean, var = ((z.mean(axis=0), z.var(axis=0)) if mode == "train"
                     else (state.running_mean, state.running_var))
        y = np.maximum((z - mean) / np.sqrt(var + ag.BN_EPS) * gamma.data + beta.data, 0.0)
        np.testing.assert_allclose(out.data, y.reshape(4, 3, 4).max(axis=1), atol=1e-12)
        if mode == "train":
            assert check(lambda: tsum(ag.neighborhood_max(x, w, b, gamma, beta, state, 4, 3,
                                                          mode)), params) <= 1e-7


def _node_bytes(node_fn, x_grad: bool, mode: str) -> list[bytes]:
    """Output, running statistics and, in train mode, gradients of one encoder node,
    as bytes."""
    rng = np.random.default_rng(11)
    groups, k, d = 6, 4, 5
    xd = rng.normal(size=(groups * k, 3))
    # column 0 sums to exactly 0, so channel 4 below normalises it to exact zeros
    # and negatives: group 0's largest pre-activation is +0, at row 1, and row 0's
    # is negative
    xd[:, 0] = [-1, 0, 0, -1, 1, 1, 1, 1, -1, 0, -1, -1, 1, -1, 0, 1, -1, -1, 0, 0, 0, 1, 1, 0]
    xd[1] = xd[2]                  # two tied rows in group 0
    xd[k + 1:2 * k] = xd[k]        # group 1: every row tied
    x = ag.Tensor(xd, requires_grad=x_grad)
    w, b, gamma, beta = _encoder_params(rng, d=d)
    gamma.data[1] = -gamma.data[1]          # negative scale
    beta.data[2] = -50.0                    # every pre-activation of channel 2 below 0
    gamma.data[3], beta.data[3] = 0.0, -0.0  # channel 3: pre-activations of both zero signs
    w.data[4], b.data[4], beta.data[4] = [1.0, 0.0, 0.0], 0.0, 0.0
    state = ag.BatchNormState(running_mean=rng.normal(size=d), running_var=rng.uniform(0.5, 2, d))
    state.running_mean[4] = 0.0
    out = node_fn(x, w, b, gamma, beta, state, groups, k, mode)
    arrays = [out.data, state.running_mean, state.running_var]
    if mode == "infer":
        return [a.tobytes() for a in arrays]
    ag.backward(tsum(mul(out, ag.Tensor(rng.normal(size=(groups, d))))))
    grads = [x.grad] if x_grad else []
    assert (x.grad is None) != x_grad
    return [a.tobytes() for a in arrays + [w.grad, b.grad, gamma.grad, beta.grad] + grads]


@pytest.mark.parametrize("x_grad", [True, False])
@pytest.mark.parametrize("mode", ["train", "infer"])
def test_neighborhood_max_is_bit_identical_to_the_unfused_chain(mode, x_grad):
    assert _node_bytes(ag.neighborhood_max, x_grad, mode) == \
        _node_bytes(encoder_chain, x_grad, mode)


def _unit_bytes(node_fn, shape, mode: str, x_grad: bool) -> list[bytes]:
    """Output, running statistics and, in train mode, gradients of one encoder node
    on tie-heavy integer inputs with a zero column, as bytes."""
    groups, k, d_in, d = shape
    rng = np.random.default_rng(groups * k + d)
    xd = rng.integers(-2, 3, size=(groups * k, d_in)).astype(float)
    xd[:, 0] = 0.0
    x = ag.Tensor(xd, requires_grad=x_grad)
    w, b, gamma, beta = _encoder_params(rng, d_in, d)
    gamma.data[::3] *= -1.0
    state = ag.BatchNormState(running_mean=rng.normal(size=d), running_var=rng.uniform(0.5, 2, d))
    out = node_fn(x, w, b, gamma, beta, state, groups, k, mode)
    arrays = [out.data, state.running_mean, state.running_var]
    if mode == "infer":
        return [a.tobytes() for a in arrays]
    ag.backward(tsum(mul(out, ag.Tensor(rng.normal(size=(groups, d))))))
    grads = [x.grad] if x_grad else []
    return [a.tobytes() for a in arrays + [w.grad, b.grad, gamma.grad, beta.grad] + grads]


# (groups, k, d_in, d): widths 1, 2, 16 and 32, then the two encoder stages of a
# 2,000-point cloud under the default config
UNIT_SHAPES = [(40, 6, 3, 1), (40, 6, 3, 2), (40, 6, 5, 16), (30, 8, 7, 32),
               (500, 24, 6, 16), (125, 24, 19, 32)]


@pytest.mark.parametrize("x_grad", [True, False])
@pytest.mark.parametrize("mode", ["train", "infer"])
@pytest.mark.parametrize("shape", UNIT_SHAPES, ids=lambda s: "x".join(map(str, s)))
def test_neighborhood_max_backward_is_byte_equal_to_the_chain_at_every_width(shape, mode,
                                                                               x_grad):
    # The train-mode backward sums over the picked rows only, which is exact
    # because numpy sums an (n, d >= 2) array over axis 0 row by row; at width 1 it
    # must keep the dense path, since numpy sums an (n, 1) column pairwise.
    assert _unit_bytes(ag.neighborhood_max, shape, mode, x_grad) == \
        _unit_bytes(encoder_chain, shape, mode, x_grad)


def test_batch_norm_train_gradients_and_running_stats():
    rng = np.random.default_rng(5)
    x = ag.Tensor(rng.normal(size=(8, 2)), requires_grad=True)
    w = ag.Tensor(rng.normal(size=(3, 2)), requires_grad=True)
    b = ag.Tensor(rng.normal(size=3), requires_grad=True)
    gamma = ag.Tensor(np.ones(3) * 1.3, requires_grad=True)
    beta = ag.Tensor(np.zeros(3) + 0.1, requires_grad=True)
    state = ag.BatchNormState(running_mean=np.zeros(3), running_var=np.ones(3))

    def f():
        return tsum(mul(ag.batch_norm(x, w, b, gamma, beta, state, mode="train"),
                        ag.Tensor(rng_weights)))

    rng_weights = rng.normal(size=(8, 3))
    assert check(f, [x, w, b, gamma, beta]) <= 1e-7
    # train mode blends the batch mean into the running mean
    fresh = ag.BatchNormState(running_mean=np.zeros(3), running_var=np.ones(3))
    ag.batch_norm(x, w, b, gamma, beta, fresh, mode="train")
    expected = 0.1 * (x.data @ w.data.T + b.data).mean(axis=0)
    np.testing.assert_allclose(fresh.running_mean, expected, atol=1e-15)


def test_batch_norm_infer_uses_running_stats():
    state = ag.BatchNormState(running_mean=np.array([1.0, -1.0]),
                              running_var=np.array([4.0, 0.25]))
    x = ag.Tensor(np.array([[1.0, -1.0], [3.0, 0.0]]), requires_grad=True)
    w = ag.Tensor(np.array([[1.0, 2.0], [0.0, -1.0]]), requires_grad=True)
    b = ag.Tensor(np.array([0.5, -0.5]), requires_grad=True)
    gamma = ag.Tensor(np.ones(2), requires_grad=True)
    beta = ag.Tensor(np.zeros(2), requires_grad=True)
    out = ag.batch_norm(x, w, b, gamma, beta, state, mode="infer")
    inv = 1.0 / np.sqrt(state.running_var + 1e-5)
    z = x.data @ w.data.T + b.data
    np.testing.assert_allclose(out.data, (z - state.running_mean) * inv)
    with pytest.raises(ValueError):
        ag.batch_norm(x, w, b, gamma, beta, state, mode="test")


def test_cross_entropy():
    rng = np.random.default_rng(6)
    scores = ag.Tensor(rng.normal(size=(10, 4)), requires_grad=True)
    labels = rng.integers(0, 4, size=10)
    assert check(lambda: ag.cross_entropy(scores, labels), [scores]) <= 1e-8
    # uniform scores give log(C)
    flat = ag.cross_entropy(ag.Tensor(np.zeros((5, 4))), np.zeros(5, dtype=int))
    assert flat.item() == pytest.approx(np.log(4.0))


def test_mae():
    rng = np.random.default_rng(7)
    pred = ag.Tensor(rng.normal(size=6), requires_grad=True)
    target = pred.data + np.where(rng.normal(size=6) > 0, 0.3, -0.3)
    assert check(lambda: ag.mae(pred, target), [pred]) <= 1e-8
    with pytest.raises(ValueError):
        ag.mae(pred, np.zeros(5))


def test_weighted_rows():
    rng = np.random.default_rng(8)
    x = ag.Tensor(rng.normal(size=(6, 3)), requires_grad=True)
    idx = rng.integers(0, 6, size=(9, 3))
    w = rng.uniform(size=(9, 3))
    w /= w.sum(axis=1, keepdims=True)
    out = ag.weighted_rows(x, idx, w)
    np.testing.assert_allclose(out.data, np.einsum("nh,nhd->nd", w, x.data[idx]))
    assert check(lambda: tsum(mul(ag.weighted_rows(x, idx, w),
                                        ag.weighted_rows(x, idx, w))), [x]) <= 1e-7
    # byte for byte the per-row gather and einsum, over -0.0 entries, zero weights
    # and repeated indices; at d = 1 einsum reorders the sum over h, so there the
    # oracle is the sum in column order
    for d in (1, 2, 16):
        xs = rng.normal(size=(7, d))
        xs[rng.random(size=xs.shape) < 0.3] = -0.0
        xs[2] = -0.0
        idx = rng.integers(0, 7, size=(40, 4))
        idx[:5] = 2
        idx[5:10, 1:] = idx[5:10, :1]
        w = rng.uniform(-1.0, 1.0, size=(40, 4))
        w[rng.random(size=w.shape) < 0.3] = 0.0
        w[rng.random(size=w.shape) < 0.1] = -0.0
        got = ag.weighted_rows(ag.Tensor(xs), idx, w).data
        if d > 1:
            want = np.einsum("nh,nhd->nd", w, xs[idx])
        else:
            want = np.zeros((40, d))
            for h in range(4):
                want += w[:, h, None] * xs[idx[:, h]]
        assert got.tobytes() == want.tobytes(), d
        # with x needing a gradient the node keeps its backward, and the same bytes
        node = ag.weighted_rows(ag.Tensor(xs, requires_grad=True), idx, w)
        assert node._backward is not None and node.data.tobytes() == got.tobytes(), d


def with_self_column(nbr, self_coef, nbr_weights):
    """Index and weight blocks that make weighted_rows the refinement blend."""
    n = nbr.shape[0]
    return (np.concatenate([np.arange(n)[:, None], nbr], axis=1),
            np.concatenate([self_coef[:, None], nbr_weights], axis=1))


def test_weighted_gather_blend():
    # out_i = sc_i * x_i + sum_h w_ih * x_nbr_ih as weighted_rows with a self column
    rng = np.random.default_rng(9)
    x = ag.Tensor(rng.normal(size=(7, 4)), requires_grad=True)
    nbr = rng.integers(0, 7, size=(7, 3))
    sc = rng.uniform(size=7)
    w = rng.uniform(size=(7, 3))
    idx, coef = with_self_column(nbr, sc, w)
    out = ag.weighted_rows(x, idx, coef)
    expected = sc[:, None] * x.data + np.einsum("nh,nhd->nd", w, x.data[nbr])
    np.testing.assert_allclose(out.data, expected)
    assert check(lambda: tsum(mul(ag.weighted_rows(x, idx, coef),
                                  ag.weighted_rows(x, idx, coef))), [x]) <= 1e-7


def textbook_batch_norm(x, w, b, gamma, beta, mean_run, var_run, mode, g,
                        eps=1e-5, momentum=0.9):
    """Batch norm of x @ w.T + b and its closed-form backward written with np.var,
    out of place."""
    z = x @ w.T + b
    if mode == "train":
        mean, var = z.mean(axis=0), z.var(axis=0)
        mean_run = momentum * mean_run + (1 - momentum) * mean
        var_run = momentum * var_run + (1 - momentum) * var
    else:
        mean, var = mean_run, var_run
    inv = 1.0 / np.sqrt(var + eps)
    zhat = (z - mean) * inv
    out = gamma * zhat + beta
    gz = g * gamma
    if mode == "train":
        gz = inv * (gz - gz.mean(axis=0) - zhat * np.mean(gz * zhat, axis=0))
    else:
        gz = gz * inv
    return (out, gz @ w, gz.T @ x, gz.sum(axis=0), np.sum(g * zhat, axis=0), np.sum(g, axis=0),
            mean_run, var_run)


@pytest.mark.parametrize("mode", ["train", "infer"])
def test_batch_norm_is_bit_equal_to_the_textbook_formula(mode):
    rng = np.random.default_rng(11)
    for (n, d_in, d), x_grad in itertools.product([(8, 2, 3), (500, 19, 32), (37, 4, 1),
                                                   (20, 1, 5)], [True, False]):
        x = ag.Tensor(3.0 * rng.normal(size=(n, d_in)) + 1.0, requires_grad=x_grad)
        w = ag.Tensor(rng.normal(size=(d, d_in)), requires_grad=True)
        b = ag.Tensor(rng.normal(size=d), requires_grad=True)
        gamma = ag.Tensor(rng.normal(size=d), requires_grad=True)
        beta = ag.Tensor(rng.normal(size=d), requires_grad=True)
        state = ag.BatchNormState(rng.normal(size=d), rng.uniform(0.5, 2.0, size=d))
        g = rng.normal(size=(n, d))
        expected = textbook_batch_norm(x.data, w.data, b.data, gamma.data, beta.data,
                                       state.running_mean, state.running_var, mode, g)
        out = ag.batch_norm(x, w, b, gamma, beta, state, mode=mode)
        if mode == "train":
            out._backward(g)
            assert (x.grad is not None) == x_grad
        got = (out.data, x.grad, w.grad, b.grad, gamma.grad, beta.grad, state.running_mean,
               state.running_var)
        for name, a, e in zip(("out", "d_x", "d_w", "d_b", "d_gamma", "d_beta",
                               "running_mean", "running_var"), got, expected):
            # infer mode makes a constant: only its output and running stats to compare
            if (x_grad or name != "d_x") and (mode == "train" or not name.startswith("d_")):
                np.testing.assert_array_equal(
                    a, e, err_msg=f"{mode} {n}x{d_in}->{d} x_grad={x_grad} {name}")


def colsum_cases():
    """(name, array, whether ``_colsum`` may take its einsum) for the axis-0 sum kernel."""
    rng = np.random.default_rng(32)
    cases = [(f"width {d}", rng.normal(size=(37, d)), d > 1) for d in range(1, 36)]
    cases += [(f"{n}x{d}", rng.normal(size=(n, d)), d > 1)
              for n, d in ((12000, 16), (3000, 32), (2000, 16), (500, 1))]
    zeros = rng.normal(size=(50, 6))
    zeros[:, [1, 4]] = -0.0
    cases.append(("all -0 columns", zeros, True))
    cases.append(("all -0", np.full((9, 3), -0.0), True))
    cases.append(("one row of -0", np.full((1, 4), -0.0), True))
    cases.append(("integer ties", rng.integers(-3, 4, size=(400, 7)).astype(float), True))
    cases.append(("cancelling ties", np.tile([[1e16, -1e16, 1.0], [1.0, 1.0, -1e16]],
                                             (25, 1)), True))
    big = np.full((6, 4), 1e308)
    big[:, 1] *= -1.0
    big[::2, 2] *= -1.0
    big[:3, 3] = -big[:3, 3]
    cases.append(("overflow to +-inf", big, True))
    special = rng.normal(size=(40, 5))
    special[3, 0], special[7, 1], special[8, 1] = np.nan, np.inf, -np.inf
    special[0, 2], special[1, 3] = np.inf, np.nan
    cases.append(("nan and inf", special, True))
    wide = rng.normal(size=(60, 20))
    cases += [("transposed", wide.T, False), ("column slice", wide[:, ::2], False),
              ("row slice", wide[::3], False), ("F-ordered", np.asfortranarray(wide), False),
              ("1-d", rng.normal(size=11), False)]
    return cases


def check_colsum() -> None:
    """``_colsum`` gives ``np.sum(axis=0)``'s bytes on every case; a NaN sum stays NaN."""
    for name, a, _ in colsum_cases():
        with np.errstate(over="ignore", invalid="ignore"):
            got, want = ag._colsum(a), a.sum(axis=0)
        nan = np.isnan(want)
        assert np.array_equal(np.isnan(got), nan), name
        assert got[~nan].tobytes() == want[~nan].tobytes(), name
        assert got.shape == want.shape and got.dtype == want.dtype, name


def test_colsum_is_byte_equal_to_the_numpy_sum(monkeypatch):
    calls = []
    einsum = np.einsum

    def spy(*args, **kwargs):
        calls.append(args[0])
        return einsum(*args, **kwargs)

    monkeypatch.setattr(np, "einsum", spy)
    for name, a, fast in colsum_cases():
        calls.clear()
        with np.errstate(over="ignore", invalid="ignore"):
            ag._colsum(a)
        assert calls == (["ij->j"] if fast else []), name
    monkeypatch.undo()
    check_colsum()


# numpy dispatches its loops on the CPU's SIMD level; this setting takes away AVX-512
NO_AVX512 = "X86_V4 AVX512_ICL AVX512_SPR"


def test_colsum_is_byte_equal_to_the_numpy_sum_without_avx512():
    try:
        from numpy._core._multiarray_umath import __cpu_features__
    except ImportError:  # numpy < 2
        from numpy.core._multiarray_umath import __cpu_features__
    if not any(__cpu_features__.get(f) for f in NO_AVX512.split()):
        pytest.skip(f"this CPU has none of {NO_AVX512}")
    tests = Path(__file__).parent
    script = ("import warnings\n"
              "with warnings.catch_warnings():\n"
              "    warnings.simplefilter('error', ImportWarning)\n"
              "    import numpy\n"
              "import test_autograd\n"
              "test_autograd.check_colsum()\n")
    env = dict(os.environ, NPY_DISABLE_CPU_FEATURES=NO_AVX512,
               PYTHONPATH=os.pathsep.join([str(tests), str(tests.parent / "src")]))
    child = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                           text=True, timeout=300)
    if child.returncode != 0 and "NPY_DISABLE_CPU_FEATURES" in child.stderr:
        pytest.skip("numpy refuses NPY_DISABLE_CPU_FEATURES="
                    f"{NO_AVX512!r}: {child.stderr.strip().splitlines()[-1]}")
    assert child.returncode == 0, child.stderr


def test_sigmoid_is_bit_equal_to_the_two_branch_formula():
    rng = np.random.default_rng(12)
    x = np.concatenate([20.0 * rng.normal(size=1000),
                        [800.0, -800.0, 0.0, -0.0, 1e-300, -1e-300, 1.0, -1.0]])
    expected = np.empty_like(x)
    pos = x >= 0
    expected[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    expected[~pos] = np.exp(x[~pos]) / (1.0 + np.exp(x[~pos]))
    t = ag.Tensor(x, requires_grad=True)
    y = ag.sigmoid(t)
    np.testing.assert_array_equal(y.data.view(np.int64), expected.view(np.int64))
    g = rng.normal(size=x.shape)
    y._backward(g)
    np.testing.assert_array_equal(t.grad, g * expected * (1.0 - expected))


def add_at_oracle(n, idx, weights, g):
    """np.add.at scatter of weights[i, h] * g[i] into row idx[i, h]."""
    acc = np.zeros((n, g.shape[1]))
    np.add.at(acc, idx.ravel(), (weights[..., None] * g[:, None, :]).reshape(-1, g.shape[1]))
    return acc


def test_scatter_backwards_match_add_at():
    rng = np.random.default_rng(13)
    n, m, d = 40, 300, 5
    g = rng.normal(size=(m, d))
    idx = rng.integers(0, n, size=m)
    x = ag.Tensor(rng.normal(size=(n, d)), requires_grad=True)
    ag.gather_rows(x, idx)._backward(g)
    np.testing.assert_array_equal(x.grad, add_at_oracle(n, idx[:, None], np.ones((m, 1)), g))

    idx3 = rng.integers(0, n, size=(m, 3))
    idx3[0] = [4, 4, 4]
    w = rng.uniform(size=(m, 3))
    x = ag.Tensor(rng.normal(size=(n, d)), requires_grad=True)
    ag.weighted_rows(x, idx3, w)._backward(g)
    np.testing.assert_array_equal(x.grad, add_at_oracle(n, idx3, w, g))

    # the refinement blend: a self column whose index repeats in its neighbours
    nbr = rng.integers(0, n, size=(n, 3))
    nbr[2] = [2, 2, 7]
    idx, coef = with_self_column(nbr, rng.uniform(size=n), rng.uniform(size=(n, 3)))
    gn = rng.normal(size=(n, d))
    x = ag.Tensor(rng.normal(size=(n, d)), requires_grad=True)
    ag.weighted_rows(x, idx, coef)._backward(gn)
    np.testing.assert_array_equal(x.grad, add_at_oracle(n, idx, coef, gn))


def test_shared_inputs_get_summed_gradients_without_mutating_upstream():
    rng = np.random.default_rng(14)
    x = ag.Tensor(rng.normal(size=(5, 3)), requires_grad=True)
    w = rng.normal(size=(5, 3))
    doubled = ag.add(x, x)
    ag.backward(tsum(mul(doubled, ag.Tensor(w))))
    np.testing.assert_array_equal(doubled.grad, w)
    np.testing.assert_array_equal(x.grad, 2.0 * w)

    x = ag.Tensor(rng.normal(size=(5, 3)), requires_grad=True)
    w = rng.normal(size=(5, 6))
    wide = ag.concat_cols([x, x])
    ag.backward(tsum(mul(wide, ag.Tensor(w))))
    np.testing.assert_array_equal(wide.grad, w)
    np.testing.assert_array_equal(x.grad, w[:, :3] + w[:, 3:])


PRIMITIVES = {"add", "scale", "affine", "sigmoid", "relu", "concat_cols", "gather_rows",
              "weighted_rows", "neighborhood_max", "batch_norm", "cross_entropy",
              "contrast_loss", "mae"}


def test_gradcheck_runs_every_primitive_forward_and_backward(monkeypatch):
    public = {name for name, fn in vars(ag).items()
              if inspect.isfunction(fn) and fn.__module__ == ag.__name__
              and not name.startswith("_")
              and name not in ("backward", "zero_grads", "finite_diff_check")}
    assert public == PRIMITIVES
    ran = {"forward": set(), "backward": set()}

    def traced(name, fn):
        def primitive(*args, **kwargs):
            out = fn(*args, **kwargs)
            ran["forward"].add(name)
            closure = out._backward

            def bwd(g):
                ran["backward"].add(name)
                closure(g)

            out._backward = bwd
            return out
        return primitive

    for name in PRIMITIVES:
        monkeypatch.setattr(ag, name, traced(name, getattr(ag, name)))

    def build_and_backpropagate_once(f, params):
        ag.zero_grads(params)
        ag.backward(f())
        return 0.0

    monkeypatch.setattr(ag, "finite_diff_check", build_and_backpropagate_once)
    gradcheck.run_gradcheck(seed=0)
    assert ran["forward"] == PRIMITIVES
    assert ran["backward"] == PRIMITIVES


def _is_constant(node: ag.Tensor) -> bool:
    return node._parents == () and node._backward is None and not node.requires_grad


def test_a_node_no_gradient_can_flow_through_is_a_constant():
    rng = np.random.default_rng(15)
    feats, nbr, intra, margins = gradcheck.random_batch(rng)
    n, d_in = feats.shape
    groups, k, d = 4, 3, 4
    x = ag.Tensor(feats)
    w, b, gamma, beta = (ag.Tensor(a) for a in (rng.normal(size=(d, d_in)), rng.normal(size=d),
                                                 rng.uniform(0.5, 1.5, size=d),
                                                 rng.normal(size=d)))

    def state():
        return ag.BatchNormState(rng.normal(size=d), rng.uniform(0.5, 2.0, size=d))

    nodes = {
        "add": ag.add(x, x),
        "scale": ag.scale(x, 0.5),
        "affine": ag.affine(x, w, b),
        "sigmoid": ag.sigmoid(x),
        "relu": ag.relu(x),
        "concat_cols": ag.concat_cols([x, x]),
        "gather_rows": ag.gather_rows(x, np.array([0, 2, 2])),
        "weighted_rows": ag.weighted_rows(x, nbr, rng.uniform(size=nbr.shape)),
        "neighborhood_max": ag.neighborhood_max(x, w, b, gamma, beta, state(), groups, k),
        "batch_norm": ag.batch_norm(x, w, b, gamma, beta, state()),
        "cross_entropy": ag.cross_entropy(x, rng.integers(0, d_in, size=n)),
        "contrast_loss": ag.contrast_loss(x, nbr, intra, margins, 0.3),
        "mae": ag.mae(x, np.zeros((n, d_in))),
    }
    assert set(nodes) == PRIMITIVES
    for name, node in nodes.items():
        assert _is_constant(node), name

    # infer mode builds no graph even when every input requires grad, and keeps the
    # running statistics
    trainable = [ag.Tensor(t.data, requires_grad=True) for t in (x, w, b, gamma, beta)]
    for fn, shape in ((ag.batch_norm, ()), (ag.neighborhood_max, (groups, k))):
        st = state()
        before = st.running_mean.tobytes() + st.running_var.tobytes()
        assert _is_constant(fn(*trainable, st, *shape, mode="infer")), fn.__name__
        assert st.running_mean.tobytes() + st.running_var.tobytes() == before, fn.__name__
