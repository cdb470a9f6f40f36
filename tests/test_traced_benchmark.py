"""The traced benchmark's instrumentation still runs on a model with folded upsamples.

``benchmarks/tracing.py`` wraps every layer instance's ``forward`` and
``backward`` and costs each convolution from the shape it is called
with.  The file is loaded by path, unchanged, so a change to the layers
that breaks ``benchmarks/run.py --trace 1`` fails here first, on the
full-kernel path (Conv3D), on the separable one (Conv2.5Db) and on a
batch-normalized separable model (Conv2.5D[BN], as in the desk-sep
workload).
"""

import importlib.util
from pathlib import Path

import pytest

from sepconvwave import harness, wave
from sepconvwave.nn import Upsample

ROOT = Path(__file__).resolve().parent.parent


def _load_tracing(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "benchmarks"))  # it imports ``flops`` by name
    spec = importlib.util.spec_from_file_location("bench_tracing", ROOT / "benchmarks" / "tracing.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize(
    "variant, regularization, kind",
    [("Conv3D", (), "conv"), ("Conv2.5Db", (), "sepconv"), ("Conv2.5D", ("BN",), "sepconv")],
    ids=["Conv3D", "Conv2.5Db", "Conv2.5D[BN]"],
)
def test_traced_training_epoch_on_a_linked_model(monkeypatch, variant, regularization, kind):
    tracing = _load_tracing(monkeypatch)
    cfg = harness.ExperimentConfig.from_file(ROOT / "configs" / "tiny.cfg")
    grid = cfg.grid()
    dataset = wave.generate_dataset(grid, 2, seed=cfg.seed, bounds=cfg.bounds())
    spec = harness.VariantSpec(variant, regularization)
    model = harness.build_model(spec, grid, cfg.zoo_widths, seed=cfg.seed)
    assert any(isinstance(layer, Upsample) and layer.linked for layer in model.all_layers())

    tracer = tracing.Tracer("tier1")
    tracer.instrument_model(model)
    pscaler = harness.ParamScaler().fit(dataset.param_matrix())
    inputs = harness.prepare_inputs(spec, dataset, pscaler)
    targets = harness.prepare_targets(spec, dataset, wave.Scaler().fit(dataset))
    result = harness.train(model, inputs, targets, harness.TrainSettings(epochs=1, seed=cfg.seed))

    assert len(result.history) == 1
    names = {span[0] for span in tracer.spans}
    assert {f"nn.{kind}.fwd", f"nn.{kind}.bwd", "nn.upsample.fwd", "nn.upsample.bwd"} <= names
    if regularization:
        assert {"nn.batchnorm.fwd", "nn.batchnorm.bwd"} <= names
    assert tracer.counts[f"nn.{kind}.flop"] > 0 and tracer.counts[f"nn.{kind}.bytes"] > 0
