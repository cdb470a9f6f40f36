"""Stage 0's chunk budget bounds the scratch of every chunk.

A stage-0 chunk holds its copy of the sliding-window view (taps per
output, per sample) and the contraction's output before it lands in the
layer's output.  The plans of every zoo variant on the committed configs
keep that scratch within ``max(budget, one sample's)`` at every batch the
harness runs, a full-kernel ``Conv`` forward on a desk batch of 25 stays
within 16 MiB of scratch, and the prediction does not depend on how the
batch is chunked.
"""

import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from sepconvwave import harness
from sepconvwave.harness.evaluation import _CHUNK_ROWS
from sepconvwave.harness.variants import VARIANT_NAMES
from sepconvwave.nn import Conv, layers
from sepconvwave.wave import Scaler, generate_dataset

CONFIGS = Path(__file__).resolve().parents[1] / "configs"
# large enough that no plan chunks: at the old budget (8,000,000 window
# entries, the output not counted) no desk plan at these batches chunked
ONE_CHUNK = 2**62
# predictions whose stage-0 GEMMs are now split into chunks of other row
# counts; BLAS rounds those differently, by at most 2.7e-16 of the largest
# |prediction| (desk, seeds 3 and 4); every other prediction is bit-equal
ROUNDED = {("Conv2D_t", 25), ("Conv2D_t", 100), ("Conv3D", 100)}


def _scratch(plan) -> int:
    """One sample's scratch under ``plan``: its window copy and its output rows."""
    g = len(plan.taps)
    n_out = tuple(n - t + 1 for n, t in zip(plan.padded[-g:], plan.taps))
    return math.prod(plan.padded[1:-g] + n_out + plan.taps) + math.prod(plan.positions[1:])


def _stage0_keys(model, monkeypatch):
    """The (per-sample input shape, kernel shape, factors) of each stage-0 call of ``model``."""
    keys, build = [], layers._stage0_plan

    def record(shape, kernel_shape, factors):
        keys.append((shape[1:], kernel_shape, factors))
        return build(shape, kernel_shape, factors)

    with monkeypatch.context() as m:
        m.setattr(layers, "_stage0_plan", record)
        model.forward(np.zeros((1,) + model.input_shape))
    return list(dict.fromkeys(keys))


@pytest.mark.parametrize("config", ["desk", "sweep", "tiny"])
def test_every_chunk_of_every_zoo_plan_fits_the_budget(config, monkeypatch):
    cfg = harness.ExperimentConfig.from_file(CONFIGS / f"{config}.cfg")
    grid = cfg.grid()
    train_batch, checked = cfg.batch_size or cfg.train_samples, set()
    for name in VARIANT_NAMES:
        spec = harness.VariantSpec(name)
        model = harness.build_model(spec, grid, cfg.zoo_widths, seed=0)
        samples = (1, train_batch, cfg.test_samples, cfg.train_samples)
        # slice-wise models run one row per (sample, time), in rows of at most _CHUNK_ROWS
        rows = ({min(n * grid.nt, _CHUNK_ROWS) for n in samples} | {1, train_batch}
                if spec.time_conditioned else set(samples))
        for shape, kernel_shape, factors in _stage0_keys(model, monkeypatch):
            checked.add(name)
            for batch in sorted(rows):
                plan = layers._stage0_plan((batch,) + shape, kernel_shape, factors)
                sizes = [len(range(batch)[chunk]) for chunk in plan.chunks]
                assert sum(sizes) == batch, (name, shape, batch)
                held = max(sizes) * _scratch(plan)
                assert held <= max(layers._CHUNK_BUDGET, _scratch(plan)), (name, shape, batch, held)
    # every variant but the two dense ones has a stage 0
    assert len(checked) == len(VARIANT_NAMES) - 2


@pytest.mark.parametrize("n_f, extents, shape", [
    # the benchmark's closing separable == full check: Conv2.5D's largest-input
    # separable layer at the desk widths (its one-filter L9), batch 25
    (1, (5, 5, 5), (25, 14, 36, 12, 12)),
    # a full 7x5x5 kernel on Conv2.5D's second-layer input
    (14, (7, 5, 5), (25, 14, 12, 16, 16)),
], ids=["closing_check", "conv2p5d_L6"])
def test_full_conv_forward_at_batch_25_stays_within_16_mib(n_f, extents, shape):
    rng = np.random.default_rng(0)
    conv = Conv(shape[1], n_f, extents, rng)
    x = rng.standard_normal(shape)
    conv.forward(x[:1])  # the layer's one-off set-up, out of the measurement
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        out = conv.forward(x)
        peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    assert out.shape == (25,) + conv.output_shape(shape[1:])
    assert peak <= 16 * 2**20, f"peak {peak / 2**20:.1f} MiB above the start"


@pytest.fixture(scope="module")
def desk_data():
    cfg = harness.ExperimentConfig.from_file(CONFIGS / "desk.cfg")
    dataset = generate_dataset(cfg.grid(), 100, seed=5)
    scaler = Scaler().fit(dataset)
    return cfg, dataset, scaler, harness.ParamScaler().fit(dataset.params)


def _predict(model, spec, dataset, scaler, pscaler):
    layers._stage0_plan.cache_clear()
    try:
        return harness.predict_fields(model, spec, dataset, scaler, pscaler)
    finally:
        layers._stage0_plan.cache_clear()


@pytest.mark.parametrize("n_samples", [25, 100])
@pytest.mark.parametrize("name", VARIANT_NAMES)
def test_predictions_do_not_depend_on_the_budget(desk_data, monkeypatch, name, n_samples):
    cfg, dataset, scaler, pscaler = desk_data
    dataset = dataset if n_samples == len(dataset) else type(dataset)(
        dataset.grid, dataset.params[:n_samples], dataset.u[:n_samples])
    spec = harness.VariantSpec(name)
    model = harness.build_model(spec, cfg.grid(), cfg.zoo_widths, seed=3)
    new = _predict(model, spec, dataset, scaler, pscaler)
    monkeypatch.setattr(layers, "_CHUNK_BUDGET", ONE_CHUNK)
    old = _predict(model, spec, dataset, scaler, pscaler)
    for head in new:
        if (name, n_samples) in ROUNDED:
            scale = np.max(np.abs(old[head]))
            assert np.max(np.abs(new[head] - old[head])) <= 1e-15 * scale, (name, head)
        else:
            np.testing.assert_array_equal(new[head], old[head], err_msg=f"{name} {head}")
