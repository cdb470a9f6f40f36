"""Training scores each head's coarse output against block means of its targets.

A head that ends in an output repeat (a final ``Upsample`` followed only
by ``Reshape``s) is trained without building the repeat: the block-form
MSE of the coarse tensor equals the MSE of the repeated tensor, and its
gradient equals the repeat's block sum of the full gradient.  These
tests check the loss against that oracle, one training step of every
zoo cell against the full-repeat path, and that training never runs the
head's output repeat: the time residual repeats with an ``Upsample`` of
the head's factors.
"""

from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sepconvwave import harness
from sepconvwave.harness import VARIANT_NAMES, ExperimentConfig, VariantSpec, build_model
from sepconvwave.harness.training import _euler_terms
from sepconvwave.nn import Reshape, Upsample, block_mse, block_targets, mse, mse_grad

TINY = ExperimentConfig.from_file(Path(__file__).resolve().parent.parent / "configs" / "tiny.cfg")
NO_REPEAT = ("FC_t", "FC_t_Boundary", "Conv1D_Boundary", "Conv1D_t_Boundary")


def _rel(a, b) -> float:
    return float(np.max(np.abs(np.subtract(a, b))) / max(np.max(np.abs(b)), np.finfo(float).tiny))


def _oracle(y, t, factors):
    up = Upsample(factors)
    full = up.forward(y)
    return mse(full, t), up.backward(mse_grad(full, t))


def _block(y, t, factors):
    means, spread = block_targets(t, factors)
    return block_mse(y, means, spread, int(np.prod(factors)))


@st.composite
def _cases(draw):
    nd = draw(st.integers(1, 3))
    factors = tuple(draw(st.integers(1, 3)) for _ in range(nd))
    shape = tuple(draw(st.integers(1, 4)) for _ in range(nd))
    batch = draw(st.integers(1, 3))
    seed = draw(st.integers(0, 2**32 - 1))
    offset = draw(st.sampled_from([0.0, 1.0, 100.0]))
    return factors, shape, batch, seed, offset


@settings(max_examples=200, deadline=None)
@given(_cases())
def test_block_mse_equals_the_mse_of_the_repeat(case):
    factors, shape, batch, seed, offset = case
    rng = np.random.default_rng(seed)
    y = offset + rng.standard_normal((batch,) + shape)
    t = offset + rng.standard_normal((batch,) + Upsample(factors).output_shape(shape))
    value, grad = _block(y, t, factors)
    ref_value, ref_grad = _oracle(y, t, factors)
    assert grad.shape == y.shape
    if set(factors) == {1}:
        assert value == ref_value and np.array_equal(grad, ref_grad)
    else:
        assert abs(value - ref_value) <= 1e-13 * ref_value
        # relative to the operands: an entry of the gradient may cancel to ~0
        scale = 2.0 * max(np.max(np.abs(y)), np.max(np.abs(t))) / y.size
        assert np.max(np.abs(grad - ref_grad)) <= 1e-13 * scale


@pytest.mark.parametrize("shape", [(5,), (3, 4), (2, 3, 4), (1, 6, 2, 2)])
def test_block_mse_with_factors_of_one_is_mse_bit_for_bit(shape):
    rng = np.random.default_rng(len(shape))
    y, t = rng.standard_normal((2, 4) + shape)
    factors = (1,) * len(shape)
    means, spread = block_targets(t, factors)
    assert np.array_equal(means, t) and not spread.any()
    value, grad = block_mse(y, means, spread, 1)
    assert value == mse(y, t)
    assert np.array_equal(grad, mse_grad(y, t))


def test_block_targets_rejects_factors_that_do_not_tile():
    with pytest.raises(ValueError, match="tile"):
        block_targets(np.zeros((2, 5, 4)), (2, 2))
    with pytest.raises(ValueError, match="tile"):
        block_targets(np.zeros((2, 4, 4)), (2,))
    with pytest.raises(ValueError, match="shape mismatch"):
        block_mse(np.zeros((2, 3)), np.zeros((2, 4)), np.zeros(2), 2)


@pytest.mark.parametrize("name", VARIANT_NAMES)
def test_output_repeat_of_every_variant(name):
    """A training forward returns the coarse tensor the output repeat reads."""
    model = build_model(VariantSpec(name), TINY.grid(), TINY.zoo_widths, seed=0)
    x = np.random.default_rng(1).standard_normal((2,) + model.input_shape)
    coarse = model.forward(x, training=True)
    model.backward({h: np.zeros_like(o) for h, o in coarse.items()})
    full = model.forward(x)
    for h in model.head_names:
        shape, factors = model.output_repeat(h)
        assert coarse[h].shape == (2,) + shape
        assert (set(factors) == {1}) == (name in NO_REPEAT)
        # the repeat train builds for the time residual, and its block sum
        repeat = Upsample(factors)
        repeated = repeat.forward(coarse[h])
        assert _rel(repeated.reshape(full[h].shape), full[h]) < 1e-12
        assert repeat.backward(np.ones_like(repeated)).shape == coarse[h].shape


def _full_step(model, x, targets, euler, weight):
    """The loss and parameter gradients of one step, with every repeat built."""
    z = x
    for layer in model.trunk:
        z = layer.forward(z, True)
    out = {}
    for h, layers in model.heads.items():
        out[h] = z
        for layer in layers:
            out[h] = layer.forward(out[h], True)
    loss = sum(mse(out[h], targets[h]) for h in out)
    grads = {h: mse_grad(out[h], targets[h]) for h in out}
    if euler is not None:
        e_val, gu, gv = _euler_terms(out["u"], out["v"], euler, weight)
        loss += weight * e_val
        grads["u"] = grads["u"] + gu
        grads["v"] = grads["v"] + gv
    model.zero_grad()
    trunk_grad = 0.0
    for h, layers in model.heads.items():
        g = grads[h]
        for layer in reversed(layers):
            g = layer.backward(g)
        trunk_grad = trunk_grad + g
    for layer in reversed(model.trunk):
        trunk_grad = layer.backward(trunk_grad)
    return loss, [p.grad.copy() for p in model.parameters()]


STEP_CELLS = [(name, column) for name in VARIANT_NAMES if not name.startswith("FC")
              for column in ("Basic", "BN", "SL", "E")]


def _job(spec, model, n_p, seed):
    """Random inputs, targets and (for E) a time-residual spec for ``n_p`` samples."""
    grid = TINY.grid()
    rng = np.random.default_rng(seed)
    rows = n_p * grid.nt if spec.time_conditioned else n_p
    x = rng.standard_normal((rows,) + model.input_shape)
    out_shape = model.forward(x[:1])["u"].shape[1:]
    targets = {h: rng.standard_normal((rows,) + out_shape) for h in model.head_names}
    euler = None
    if spec.euler:
        group = (n_p, grid.nt) if spec.time_conditioned else None
        euler = harness.EulerSpec(dt=grid.dt, u_scale=1.3, v_offset=0.2, group=group)
    return x, targets, euler


@pytest.mark.parametrize("name, column", STEP_CELLS, ids=[f"{n}[{c}]" for n, c in STEP_CELLS])
def test_one_training_step_matches_the_full_repeat_path(name, column):
    spec = VariantSpec(name, harness.parse_regularization(column))
    model = build_model(spec, TINY.grid(), TINY.zoo_widths, seed=0)
    x, targets, euler = _job(spec, model, n_p=3, seed=2)
    settings = harness.TrainSettings(epochs=1, lr0=0.0, lr_final=0.0, seed=0)
    ref_loss, ref_grads = _full_step(model, x, targets, euler, settings.lambda_euler)

    result = harness.train(model, x, targets, settings, euler)
    grads = [p.grad for p in model.parameters()]
    assert abs(result.final_loss - ref_loss) <= 1e-13 * ref_loss
    scale = max(float(np.max(np.abs(g))) for g in ref_grads)
    for g, g_ref in zip(grads, ref_grads):
        assert np.max(np.abs(g - g_ref)) <= 1e-12 * scale


def _output_repeat_layer(layers):
    i = len(layers) - 1
    while isinstance(layers[i], Reshape):
        i -= 1
    return layers[i]


@pytest.mark.parametrize("column", ["Basic", "BN", "E&SL"])
@pytest.mark.parametrize("name", [n for n in VARIANT_NAMES if n not in NO_REPEAT])
def test_train_never_builds_the_output_repeat(name, column):
    """The head's output repeat never runs in training; the time residual uses its own."""
    spec = VariantSpec(name, harness.parse_regularization(column))
    model = build_model(spec, TINY.grid(), TINY.zoo_widths, seed=0)
    x, targets, euler = _job(spec, model, n_p=2, seed=3)
    calls = []
    for layers in model.heads.values():
        up = _output_repeat_layer(layers)
        assert isinstance(up, Upsample)

        def counted(x, training=False, forward=up.forward):
            calls.append(training)
            return forward(x, training)

        up.forward = counted
    harness.train(model, x, targets, harness.TrainSettings(epochs=2, batch_size=1, seed=0), euler)
    assert calls == []
