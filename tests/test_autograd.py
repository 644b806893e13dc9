import inspect

import numpy as np
import pytest

from ambiseg import autograd as ag
from ambiseg import gradcheck
from oracles import mul, tsum


def check(f, params, step=1e-5):
    return ag.finite_diff_check(f, params, step)


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


def test_neighborhood_max():
    rng = np.random.default_rng(4)
    x = ag.Tensor(rng.normal(size=(12, 3)), requires_grad=True)
    out = ag.neighborhood_max(x, groups=4, k=3)
    np.testing.assert_array_equal(out.data, x.data.reshape(4, 3, 3).max(axis=1))
    assert check(lambda: tsum(ag.neighborhood_max(x, 4, 3)), [x]) <= 1e-8


def test_batch_norm_train_gradients_and_running_stats():
    rng = np.random.default_rng(5)
    x = ag.Tensor(rng.normal(size=(8, 3)), requires_grad=True)
    gamma = ag.Tensor(np.ones(3) * 1.3, requires_grad=True)
    beta = ag.Tensor(np.zeros(3) + 0.1, requires_grad=True)
    state = ag.BatchNormState.create(3)

    def f():
        return tsum(mul(ag.batch_norm(x, gamma, beta, state, mode="train",
                                            update_running=False),
                              ag.Tensor(rng_weights)))

    rng_weights = rng.normal(size=(8, 3))
    assert check(f, [x, gamma, beta]) <= 1e-7
    # running stats stay frozen with update_running=False, then blend in
    np.testing.assert_array_equal(state.running_mean, np.zeros(3))
    ag.batch_norm(x, gamma, beta, state, mode="train", update_running=True)
    expected = 0.1 * x.data.mean(axis=0)
    np.testing.assert_allclose(state.running_mean, expected, atol=1e-15)


def test_batch_norm_infer_uses_running_stats():
    state = ag.BatchNormState(running_mean=np.array([1.0, -1.0]),
                              running_var=np.array([4.0, 0.25]))
    x = ag.Tensor(np.array([[1.0, -1.0], [3.0, 0.0]]), requires_grad=True)
    gamma = ag.Tensor(np.ones(2), requires_grad=True)
    beta = ag.Tensor(np.zeros(2), requires_grad=True)
    out = ag.batch_norm(x, gamma, beta, state, mode="infer")
    inv = 1.0 / np.sqrt(state.running_var + 1e-5)
    np.testing.assert_allclose(out.data, (x.data - state.running_mean) * inv)
    assert check(lambda: tsum(ag.batch_norm(x, gamma, beta, state, mode="infer")),
                 [x, gamma, beta]) <= 1e-8
    with pytest.raises(ValueError):
        ag.batch_norm(x, gamma, beta, state, mode="test")


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


def textbook_batch_norm(x, gamma, beta, mean_run, var_run, mode, g,
                        eps=1e-5, momentum=0.9):
    """Batch norm and its closed-form backward written with np.var, out of place."""
    if mode == "train":
        mean, var = x.mean(axis=0), x.var(axis=0)
        mean_run = momentum * mean_run + (1 - momentum) * mean
        var_run = momentum * var_run + (1 - momentum) * var
    else:
        mean, var = mean_run, var_run
    inv = 1.0 / np.sqrt(var + eps)
    xhat = (x - mean) * inv
    out = gamma * xhat + beta
    gx = g * gamma
    if mode == "train":
        gx = inv * (gx - gx.mean(axis=0) - xhat * np.mean(gx * xhat, axis=0))
    else:
        gx = gx * inv
    return out, gx, np.sum(g * xhat, axis=0), np.sum(g, axis=0), mean_run, var_run


@pytest.mark.parametrize("mode", ["train", "infer"])
def test_batch_norm_is_bit_equal_to_the_textbook_formula(mode):
    rng = np.random.default_rng(11)
    for n, d in [(8, 3), (500, 32), (37, 1)]:
        x = ag.Tensor(3.0 * rng.normal(size=(n, d)) + 1.0, requires_grad=True)
        gamma = ag.Tensor(rng.normal(size=d), requires_grad=True)
        beta = ag.Tensor(rng.normal(size=d), requires_grad=True)
        state = ag.BatchNormState(rng.normal(size=d), rng.uniform(0.5, 2.0, size=d))
        g = rng.normal(size=(n, d))
        expected = textbook_batch_norm(x.data, gamma.data, beta.data, state.running_mean,
                                       state.running_var, mode, g)
        out = ag.batch_norm(x, gamma, beta, state, mode=mode)
        out._backward(g)
        got = (out.data, x.grad, gamma.grad, beta.grad, state.running_mean, state.running_var)
        for name, a, b in zip(("out", "d_x", "d_gamma", "d_beta", "running_mean",
                               "running_var"), got, expected):
            np.testing.assert_array_equal(a, b, err_msg=f"{mode} {n}x{d} {name}")


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


def test_finite_diff_check_rejects_bad_step():
    x = ag.Tensor(np.ones(2), requires_grad=True)
    with pytest.raises(ValueError):
        ag.finite_diff_check(lambda: tsum(x), [x], step=1e-2)


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

    def build_and_backpropagate_once(f, params, step=1e-5):
        ag.zero_grads(params)
        ag.backward(f())
        return 0.0

    monkeypatch.setattr(ag, "finite_diff_check", build_and_backpropagate_once)
    gradcheck.run_gradcheck(seed=0)
    assert ran["forward"] == PRIMITIVES
    assert ran["backward"] == PRIMITIVES
