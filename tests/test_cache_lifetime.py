"""Layer caches live only from a training forward to its backward.

A training forward stores what each layer's backward needs, and the
backward takes it and clears it.  So after ``Model.backward``, and after
an eval-mode forward, no layer holds an activation, and a backward with
no training forward to consume raises.  Every zoo variant is checked with
every legal regularization column, on the tiny config.
"""

import weakref
from pathlib import Path

import numpy as np
import pytest

from sepconvwave.nn import layers

from sepconvwave.harness import (
    REGULARIZATION_COLUMNS,
    VARIANT_NAMES,
    ExperimentConfig,
    VariantSpec,
    build_model,
    parse_regularization,
)

TINY = ExperimentConfig.from_file(Path(__file__).resolve().parent.parent / "configs" / "tiny.cfg")
CELLS = [(name, column) for name in VARIANT_NAMES for column in REGULARIZATION_COLUMNS]
IDS = [f"{name}[{column}]" for name, column in CELLS]


def _model(name, column, seed=0):
    spec = VariantSpec(name, parse_regularization(column))
    return build_model(spec, TINY.grid(), TINY.zoo_widths, seed=seed)


def _held_arrays(model) -> list[str]:
    """Where the model or a layer holds an array other than its state or a gradient."""
    kept = {id(p.grad) for p in model.parameters()}
    kept |= {id(a) for layer in model.all_layers() for a in layer.state().values()}
    found = []

    def walk(value, where):
        if isinstance(value, np.ndarray):
            if id(value) not in kept:
                found.append(where)
        elif isinstance(value, (list, tuple)):
            for i, item in enumerate(value):
                walk(item, f"{where}[{i}]")

    for key, value in vars(model).items():
        walk(value, f"model.{key}")
    for i, layer in enumerate(model.all_layers()):
        for key, value in vars(layer).items():
            walk(value, f"{i}.{layer.kind}.{key}")
    return found


def _grads(out, seed):
    rng = np.random.default_rng(seed)
    return {h: rng.standard_normal(o.shape) for h, o in out.items()}


@pytest.mark.parametrize("name, column", CELLS, ids=IDS)
def test_caches_live_from_training_forward_to_backward(name, column):
    model = _model(name, column)
    x = np.random.default_rng(1).standard_normal((3,) + model.input_shape)

    model.forward(x, training=False)
    assert _held_arrays(model) == []
    with pytest.raises(RuntimeError):
        model.backward(_grads(model.forward(x), 2))

    out = model.forward(x, training=True)
    assert _held_arrays(model) != []
    model.backward(_grads(out, 2))
    assert _held_arrays(model) == []
    with pytest.raises(RuntimeError):
        model.backward(_grads(out, 2))

    # an eval forward between a training forward and its backward drops the caches
    out = model.forward(x, training=True)
    model.forward(x, training=False)
    assert _held_arrays(model) == []
    with pytest.raises(RuntimeError):
        model.backward(_grads(out, 2))


@pytest.mark.parametrize("name", ["Conv2.5D", "Conv2.5Db", "Conv1.5D_Boundary"])
def test_eval_forward_frees_each_stage_input_when_the_stage_is_done(name, monkeypatch):
    # each stage's plan holds the input the stage read; only a backward needs it
    kept = []  # a weakref to the input each stage's plan holds
    held = []  # at each stage's start, how many earlier inputs are still alive

    def probed(step):
        def wrapper(z, kernel, group, factors):
            held.append(sum(ref() is not None for ref in kept))
            out, plan = step(z, kernel, group, factors)
            kept.append(weakref.ref(plan[0]))
            return out, plan

        return wrapper

    for step in ("_polyphase", "_banded"):
        monkeypatch.setattr(layers, step, probed(getattr(layers, step)))
    model = _model(name, "BN")
    x = np.random.default_rng(1).standard_normal((3,) + model.input_shape)

    stages = [len(layer.groups) for layer in model.all_layers()
              if isinstance(layer, layers.SeparableConv)]
    assert max(stages) > 1

    model.forward(x, training=False)
    assert held == [0] * sum(stages)
    assert all(ref() is None for ref in kept)

    # a training forward keeps every stage's input for its backward
    kept.clear()
    held.clear()
    out = model.forward(x, training=True)
    assert max(held) > 0 and all(ref() is not None for ref in kept)
    model.backward(_grads(out, 2))
    assert all(ref() is None for ref in kept)


@pytest.mark.parametrize("name", ["Conv2D", "Conv3D", "Conv2.5D", "Conv2.5Db", "Conv1.5D_Boundary"])
def test_stage0_geometry_is_planned_once_per_shape(name):
    # a second training step and a second eval forward at the same batch
    # reuse the stage-0 plans that the first ones built
    model = _model(name, "BN")
    x = np.random.default_rng(1).standard_normal((3,) + model.input_shape)

    def step_and_eval():
        model.backward(_grads(model.forward(x, training=True), 2))
        model.forward(x, training=False)

    step_and_eval()
    before = layers._stage0_plan.cache_info()
    step_and_eval()
    after = layers._stage0_plan.cache_info()
    assert after.misses == before.misses and after.hits > before.hits


def _freeze_incoming_gradients(model):
    for layer in model.all_layers():
        def frozen(grad, backward=layer.backward):
            grad.flags.writeable = False
            return backward(grad)

        layer.backward = frozen


@pytest.mark.parametrize("name, column", CELLS, ids=IDS)
def test_step_runs_on_read_only_gradients(name, column):
    # no layer may write to the gradient it is handed: a convolution's
    # input gradient is a broadcast view
    x = np.random.default_rng(1).standard_normal((3,) + _model(name, column).input_shape)
    grads = []
    for frozen in (False, True):
        model = _model(name, column, seed=4)
        if frozen:
            _freeze_incoming_gradients(model)
        model.zero_grad()
        loss_grads = _grads(model.forward(x, training=True), 5)
        if frozen:
            for g in loss_grads.values():
                g.flags.writeable = False
        model.backward(loss_grads)
        grads.append([p.grad.copy() for p in model.parameters()])
    for a, b in zip(*grads):
        assert np.array_equal(a, b)
