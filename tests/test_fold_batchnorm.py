"""Eval-mode BatchNorm folded into the layer that feeds it.

``predict_fields`` runs :func:`sepconvwave.nn.fold_batchnorm` of the
model it is given.  On every zoo cell with batch normalization on
``tiny.cfg`` (normalizations after a convolution, after a ``Dense``,
after a ``Dense`` and a ``Reshape``, in a shared trunk, and in the
boundary cells), the predictions equal the unfolded eval forward to
1e-12 relative, and the model's state keeps its bytes.  A cell without
batch normalization predicts bit-identically to its eval forward.  A
folded convolution is a copy of its layer, and its ``kernel`` is its own
scaled stage, never the original's.
"""

from pathlib import Path

import numpy as np
import pytest

from sepconvwave.harness import evaluation
from sepconvwave.harness import (
    VARIANT_NAMES,
    ExperimentConfig,
    ParamScaler,
    VariantSpec,
    build_model,
    parse_regularization,
    predict_fields,
    prepare_inputs,
)
from sepconvwave.nn import BatchNorm, Conv, Dense, Model, Reshape, Tanh, fold_batchnorm
from sepconvwave.wave import Scaler, generate_dataset

TINY = ExperimentConfig.from_file(Path(__file__).resolve().parent.parent / "configs" / "tiny.cfg")


@pytest.fixture(scope="module")
def data():
    dataset = generate_dataset(TINY.grid(), 3, seed=7)
    return dataset, Scaler().fit(dataset), ParamScaler().fit(dataset.param_matrix())


def _model(name, column):
    spec = VariantSpec(name, parse_regularization(column))
    model = build_model(spec, TINY.grid(), TINY.zoo_widths, seed=3)
    # statistics and affine parameters away from their initial 0 and 1
    rng = np.random.default_rng(4)
    for layer in model.all_layers():
        if isinstance(layer, BatchNorm):
            layer.running_mean[...] = rng.standard_normal(layer.channels)
            layer.running_var[...] = rng.uniform(0.2, 3.0, layer.channels)
            layer.gamma.value[...] = rng.uniform(0.5, 2.0, layer.channels)
            layer.beta.value[...] = rng.standard_normal(layer.channels)
    return spec, model


def _eval_forward_prediction(model, spec, dataset, scaler, param_scaler):
    """``predict_fields`` without the fold: the eval forward, reassembled and un-scaled."""
    out = model.forward(prepare_inputs(spec, dataset, param_scaler), training=False)
    result = {}
    for head, arr in out.items():
        if spec.time_conditioned:
            arr = arr.reshape((len(dataset), dataset.grid.nt) + arr.shape[1:])
        mean, std = scaler.stats[head]
        result[head] = arr * std + mean
    return result


@pytest.mark.parametrize("name", VARIANT_NAMES)
@pytest.mark.parametrize("column", ["BN", "BN&SL"])
def test_folded_prediction_equals_the_eval_forward(name, column, data):
    spec, model = _model(name, column)
    before = {key: array.tobytes() for key, array in model.state_dict().items()}

    got = predict_fields(model, spec, *data)

    assert {key: array.tobytes() for key, array in model.state_dict().items()} == before
    expected = _eval_forward_prediction(model, spec, *data)
    for head, ref in expected.items():
        assert got[head].shape == ref.shape
        assert np.max(np.abs(got[head] - ref)) <= 1e-12 * np.max(np.abs(ref)), head
    folded = fold_batchnorm(model)
    assert not any(isinstance(layer, BatchNorm) for layer in folded.all_layers())
    # every layer the fold does not replace is the model's own
    own = {id(layer) for layer in model.all_layers()}
    replaced = [layer for layer in folded.all_layers() if id(layer) not in own]
    n_norm = sum(isinstance(layer, BatchNorm) for layer in model.all_layers())
    assert len(replaced) == n_norm


@pytest.mark.parametrize("name", VARIANT_NAMES)
@pytest.mark.parametrize("column", ["Basic", "E&SL"])
def test_cell_without_batchnorm_predicts_its_eval_forward_bit_for_bit(name, column, data):
    spec, model = _model(name, column)
    got = predict_fields(model, spec, *data)
    for head, ref in _eval_forward_prediction(model, spec, *data).items():
        assert np.array_equal(got[head], ref), head
    assert fold_batchnorm(model).all_layers() == model.all_layers()


def test_folded_conv_is_a_copy_whose_kernel_is_its_scaled_stage():
    _, model = _model("Conv3D", "BN")
    originals = {id(layer): layer.kernel for layer in model.all_layers() if isinstance(layer, Conv)}
    copies = [layer for layer in fold_batchnorm(model).all_layers()
              if isinstance(layer, Conv) and id(layer) not in originals]
    assert copies
    for conv in copies:
        assert conv.kernel is conv.stage_kernels[0] is dict(conv.parameters())["kernel"]
        assert all(conv.kernel is not kernel for kernel in originals.values())
    for layer in model.all_layers():
        if isinstance(layer, Conv):
            assert layer.kernel is originals[id(layer)] is layer.stage_kernels[0]
    with pytest.raises(AttributeError):
        copies[0].kernel = copies[0].bias


def test_batchnorm_without_a_feeder_stays():
    rng = np.random.default_rng(0)
    layers_ = [Dense(3, 8, rng), Tanh(), BatchNorm(8), Reshape((2, 4)), BatchNorm(2)]
    model = Model([], {"u": layers_}, input_shape=(3,))
    folded = fold_batchnorm(model)
    assert folded.heads["u"] == layers_
    x = rng.standard_normal((4, 3))
    assert np.array_equal(folded.forward(x)["u"], model.forward(x)["u"])


def test_prediction_in_chunks_matches_one_chunk(data, monkeypatch):
    # one row per (sample, time step): 3 samples of tiny.cfg are one chunk
    spec, model = _model("Conv2D_t", "BN")
    whole = predict_fields(model, spec, *data)
    monkeypatch.setattr(evaluation, "_CHUNK_ROWS", 7)
    chunked = predict_fields(model, spec, *data)
    for head, ref in whole.items():
        assert chunked[head].shape == ref.shape
        assert np.max(np.abs(chunked[head] - ref)) <= 1e-12 * np.max(np.abs(ref)), head
