import numpy as np
import pytest

from ambiseg import autograd as ag
from ambiseg.apm import (APM_CHANNELS, LinearBN, block_forward, concat_input,
                         glorot_uniform, init_apm_block, loss_reg)


def block_parameters(block):
    return [p for layer in block for p in layer.parameters()]


def test_block_architecture():
    rng = np.random.default_rng(0)
    block = init_apm_block(feat_dim=16, rng=rng)
    assert len(block) == len(APM_CHANNELS)
    widths = [19] + list(APM_CHANNELS)
    for layer, d_in, d_out in zip(block, widths[:-1], widths[1:]):
        assert isinstance(layer, LinearBN)
        assert layer.w.data.shape == (d_out, d_in)
        assert layer.b.data.shape == (d_out,)
    assert len(block_parameters(block)) == 4 * len(APM_CHANNELS)


def test_glorot_bounds():
    rng = np.random.default_rng(1)
    w = glorot_uniform(rng, 8, 24)
    bound = np.sqrt(6.0 / 32)
    assert w.shape == (8, 24)
    assert np.all(np.abs(w) <= bound)


def test_concat_input():
    p = np.zeros((5, 3))
    f = np.ones((5, 4))
    z = concat_input(p, f)
    assert z.shape == (5, 7)
    np.testing.assert_array_equal(z[:, :3], 0.0)
    with pytest.raises(ValueError):
        concat_input(np.zeros((5, 2)), f)
    with pytest.raises(ValueError):
        concat_input(p, np.zeros((5, 0)))


def test_forward_output_in_unit_interval():
    rng = np.random.default_rng(2)
    block = init_apm_block(6, rng)
    z = rng.normal(size=(20, 9))
    out = block_forward(z, block, mode="train", update_running=False)
    assert out.data.shape == (20, 1)
    assert np.all((out.data > 0) & (out.data < 1))
    with pytest.raises(ValueError):
        block_forward(rng.normal(size=(20, 8)), block)
    with pytest.raises(ValueError):
        block_forward(rng.normal(size=9), block)


def test_predict_ambiguity_is_detached_copy():
    # the inference pass the refinement masks read: running stats stay put and
    # the values are a plain array cut from the graph
    rng = np.random.default_rng(3)
    block = init_apm_block(4, rng)
    z = rng.normal(size=(10, 7))
    block_forward(z, block, mode="train", update_running=True)
    before = [(layer.bn.running_mean.copy(), layer.bn.running_var.copy())
              for layer in block]
    pred = block_forward(z, block, mode="infer", update_running=False).data[:, 0]
    assert isinstance(pred, np.ndarray) and pred.shape == (10,)
    for layer, (mean, var) in zip(block, before):
        np.testing.assert_array_equal(layer.bn.running_mean, mean)
        np.testing.assert_array_equal(layer.bn.running_var, var)


def test_loss_reg_matches_numpy_mean_absolute_error():
    rng = np.random.default_rng(4)
    pred = rng.uniform(size=12)
    target = rng.uniform(size=12)
    plain = float(np.mean(np.abs(pred - target)))
    node = loss_reg(ag.Tensor(pred[:, None], requires_grad=True), target)
    assert isinstance(node, ag.Tensor)
    assert plain == pytest.approx(node.item(), abs=1e-15)
    with pytest.raises(ValueError):
        loss_reg(ag.Tensor(pred[:, None]), target[:5])


def test_block_trains_toward_target():
    rng = np.random.default_rng(5)
    block = init_apm_block(4, rng)
    z = rng.normal(size=(40, 7))
    target = rng.uniform(0.2, 0.8, size=40)
    params = block_parameters(block)
    first = None
    for _ in range(150):
        ag.zero_grads(params)
        out = block_forward(z, block, mode="train", update_running=True)
        loss = loss_reg(out, target)
        if first is None:
            first = loss.item()
        ag.backward(loss)
        for p in params:
            if p.grad is not None:
                p.data -= 0.1 * p.grad
    assert loss.item() < first
