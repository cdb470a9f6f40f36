from .dataset import (
    Sample,
    Scaler,
    WaveDataset,
    default_bounds,
    generate_dataset,
    load_dataset,
    save_dataset,
)
from .grid import GridSpec, extract_boundary, make_grid, restrict, ring_index, ring_traces
from .sampling import WaveParams, lhs_sample
from .solver import (
    solve_wave,
    solve_zoom,
    source_node,
    submodel_solve,
    submodel_solve_batch,
    velocity_field,
)

__all__ = [
    "GridSpec",
    "Sample",
    "Scaler",
    "WaveDataset",
    "WaveParams",
    "default_bounds",
    "extract_boundary",
    "generate_dataset",
    "lhs_sample",
    "load_dataset",
    "make_grid",
    "restrict",
    "ring_index",
    "ring_traces",
    "save_dataset",
    "solve_wave",
    "solve_zoom",
    "source_node",
    "submodel_solve",
    "submodel_solve_batch",
    "velocity_field",
]
