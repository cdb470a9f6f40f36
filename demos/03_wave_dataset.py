#!/usr/bin/env python3
"""Parametric wave data: stratified sampling, solving, zoom consistency.

Generates a small dataset, then demonstrates the central modeling
assumption behind boundary-driven submodels: re-solving the zoom window
from exact boundary traces reproduces the restricted reference field.
"""

import tempfile
from pathlib import Path

import numpy as np

from sepconvwave.wave import (
    Scaler,
    extract_boundary,
    generate_dataset,
    lhs_sample,
    load_dataset,
    make_grid,
    restrict,
    save_dataset,
    solve_wave,
    submodel_solve,
)

grid = make_grid(nx=48, ny=48, zoom_nx=12, zoom_ny=12, nt=48)
print(f"grid: {grid.nx}x{grid.ny}, zoom {grid.zoom_nx}x{grid.zoom_ny}, "
      f"{grid.nt} steps, dt={grid.dt:.4f}, CFL={grid.cfl_number():.3f}")

# stratified parameters; the source never lands inside the zoom window
params = lhs_sample(
    8,
    [(np.pi, 4 * np.pi), (-1.0, 1.0), (-1.0, 1.0)],
    seed=3,
    exclusion=grid.zoom_footprint(),
)
print("first sample:", params[0])

# full solve, restriction and ring traces
full = solve_wave(params[0], grid)
zoom_ref = restrict(full, grid)
traces = extract_boundary(full, grid)
print("field:", full.shape, " zoom:", zoom_ref.shape, " traces:", traces.shape)

# the submodel driven by exact traces reproduces the restriction
zoom_resolved = submodel_solve(traces, params[0], grid)
rel = np.abs(zoom_resolved - zoom_ref).max() / np.abs(zoom_ref).max()
print(f"zoom consistency, relative error: {rel:.2e}")

# dataset generation + standard scaling
ds = generate_dataset(grid, 5, seed=4)
scaler = Scaler().fit(ds)
scaled = scaler.transform(ds.stack("u"), "u")
print(f"scaled displacement: mean {scaled.mean():.2e}, std {scaled.std():.3f}")

# bit-exact round trip through the binary dataset format
with tempfile.TemporaryDirectory() as tmp:
    path = Path(tmp) / "demo_waves.wds"
    save_dataset(path, ds)
    same = np.array_equal(load_dataset(path).stack("u"), ds.stack("u"))
    print(f"dataset file: {path.stat().st_size} bytes, round trip bit-exact: {same}")
