#!/usr/bin/env python3
"""Train one separable-convolution surrogate end to end (small scale).

Fits a Conv2.5D model with batch normalization on a reduced dataset and
reports losses, parameter counts and the relative error indicator
against the zero-model baseline.
"""

import numpy as np

from sepconvwave.harness import VariantSpec, build_model, error_indicator, predict_fields
from sepconvwave.harness.evaluation import zero_baseline
from sepconvwave.harness.training import (
    ParamScaler,
    TrainSettings,
    prepare_inputs,
    prepare_targets,
    train,
)
from sepconvwave.nn import count_params
from sepconvwave.wave import Scaler, generate_dataset, make_grid

WIDTHS = {
    "conv3d.nf": 8, "conv3d.kt": 5, "conv3d.ks": 3,
    "conv3d.kt3": 5, "conv3d.ks3": 3, "conv3d.mid3_t": 1,
    "conv3d.up_t": 2, "conv3d.up_s": 2,
}

# sources near the window keep every energized slice's reference max
# healthy, so the relative error indicator measures fit quality
grid = make_grid(nx=32, ny=32, zoom_nx=8, zoom_ny=8, nt=24)
bounds = [(np.pi, 4 * np.pi), (-0.55, 0.55), (-0.55, 0.55)]
train_ds = generate_dataset(grid, 16, seed=11, bounds=bounds)
test_ds = generate_dataset(grid, 4, seed=12, bounds=bounds)
scaler = Scaler().fit(train_ds)
pscaler = ParamScaler().fit(train_ds.param_matrix())

spec = VariantSpec("Conv2.5D", ("BN",))
model = build_model(spec, grid, WIDTHS, seed=0)
full = count_params(build_model(VariantSpec("Conv3D", ("BN",)), grid, WIDTHS, seed=0))
print(f"{spec.label()}: {count_params(model).decomposed_count} trainable weights "
      f"(Conv3D[BN], its full-kernel twin: {full.decomposed_count})")

result = train(
    model,
    prepare_inputs(spec, train_ds, pscaler),
    prepare_targets(spec, train_ds, scaler),
    TrainSettings(epochs=300, batch_size=4, seed=0),
)
print(f"loss: {result.history[0]['loss']:.4f} -> {result.history[-1]['loss']:.4f} "
      f"over {len(result.history)} epochs "
      f"({np.mean(result.epoch_seconds[1:]) * 1000:.0f} ms/epoch)")

train_eps = error_indicator(
    predict_fields(model, spec, train_ds, scaler, pscaler)["u"], train_ds.stack("u")
)
preds = predict_fields(model, spec, test_ds, scaler, pscaler)
eps = error_indicator(preds["u"], test_ds.stack("u"))
print(f"train eps (displacement): {train_eps.scalar:.4f} "
      f"(zero model {zero_baseline(train_ds.stack('u')):.4f})")
# 16 training samples: generalization is limited at this scale
print(f"test eps (displacement):  {eps.scalar:.4f} "
      f"(zero model {zero_baseline(test_ds.stack('u')):.4f})")
print("per-time test eps (first 8):", np.round(eps.eps_t[:8], 3))
