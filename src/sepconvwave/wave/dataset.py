"""Dataset generation, standard scaling and the binary dataset format.

A sample couples a parameter vector with the simulated displacement and
velocity on the zoom window plus their ring traces.  Files use the
``WDS1`` layout (little-endian): magic, format version u32, grid block,
sample count u64, then per-sample records of 3 float64 parameters
followed by the four tensors in the tensor record encoding shared with
checkpoints (rank u64, extents u64, float64 data; see
:mod:`sepconvwave.records`).  Identical grids and samples produce
byte-identical files; truncated or padded files, and sample arrays whose
shapes disagree with the grid block, are rejected on load.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np

from ..records import RecordReader, atomic_write, write_array, write_header
from .grid import GridSpec, boundary_index_arrays
from .sampling import WaveParams, lhs_sample
from .solver import solve_zoom, velocity_field

__all__ = [
    "Sample",
    "WaveDataset",
    "Scaler",
    "default_bounds",
    "make_sample",
    "generate_dataset",
    "save_dataset",
    "load_dataset",
]

MAGIC = b"WDS1"
VERSION = 1
# bytes of time levels and stepper temporaries per block of full solves:
# half of a 2 MB L2, so the block's working set stays in cache
_BLOCK_BYTES = 1 << 20


@dataclass(frozen=True)
class Sample:
    params: WaveParams
    u: np.ndarray
    v: np.ndarray
    boundary_u: np.ndarray
    boundary_v: np.ndarray


@dataclass
class WaveDataset:
    grid: GridSpec
    samples: list[Sample]

    def __len__(self) -> int:
        return len(self.samples)

    def stack(self, field: str) -> np.ndarray:
        """All samples' arrays stacked on a leading batch axis."""
        return np.stack([getattr(s, field) for s in self.samples])

    def param_matrix(self) -> np.ndarray:
        return np.array([list(s.params) for s in self.samples])


def default_bounds(grid: GridSpec) -> list[tuple[float, float]]:
    """Sampling box: omega in [pi, 4 pi], source anywhere in the domain."""
    return [
        (np.pi, 4.0 * np.pi),
        (-grid.lx, grid.lx),
        (-grid.ly, grid.ly),
    ]


def _make_samples(params, grid: GridSpec) -> list[Sample]:
    """Samples of one block of full solves, each array a view of the block's."""
    u = solve_zoom(params, grid)
    v = velocity_field(u, grid.dt)
    ii, jj = boundary_index_arrays(grid)
    boundary_u, boundary_v = u[:, :, ii, jj], v[:, :, ii, jj]
    return [Sample(p, u[b], v[b], boundary_u[b], boundary_v[b]) for b, p in enumerate(params)]


def make_sample(params: WaveParams, grid: GridSpec) -> Sample:
    return _make_samples([params], grid)[0]


def generate_dataset(
    grid: GridSpec,
    n_samples: int,
    seed: int,
    bounds=None,
) -> WaveDataset:
    """Simulate ``n_samples`` parameter vectors drawn by stratified LHS.

    Sources are excluded from the zoom-window footprint, keeping the
    window source-free for the submodel.  The full solves run in blocks
    sized to ``_BLOCK_BYTES``: two time levels and two interior
    temporaries per sample.
    """
    if bounds is None:
        bounds = default_bounds(grid)
    params = lhs_sample(n_samples, bounds, seed=seed, exclusion=grid.zoom_footprint())
    block = max(1, _BLOCK_BYTES // (4 * grid.nx * grid.ny * 8))
    samples = []
    for start in range(0, len(params), block):
        samples += _make_samples(params[start : start + block], grid)
    return WaveDataset(grid, samples)


class Scaler:
    """Standard scaler with one (mean, std) pair per field.

    Fit on the training split only; degenerate spreads fall back to
    ``std = 1`` so constants map to zero.
    """

    _GUARD = 1e-12

    def __init__(self):
        self.stats: dict[str, tuple[float, float]] = {}

    def fit(self, train: WaveDataset) -> "Scaler":
        for field in ("u", "v"):
            data = train.stack(field)
            std = float(data.std())
            self.stats[field] = (float(data.mean()), std if std > self._GUARD else 1.0)
        return self

    def transform(self, x: np.ndarray, field: str) -> np.ndarray:
        mean, std = self.stats[field]
        return (x - mean) / std

    def inverse(self, x: np.ndarray, field: str) -> np.ndarray:
        mean, std = self.stats[field]
        return x * std + mean


# the grid block: four float64 fields, then seven u64 fields
_GRID_FIELDS = ("lx", "ly", "c", "dt", "nx", "ny", "zoom_ix", "zoom_iy", "zoom_nx", "zoom_ny", "nt")
_GRID_FORMAT = "<4d7Q"
_SAMPLE_FIELDS = ("u", "v", "boundary_u", "boundary_v")


def save_dataset(path, dataset: WaveDataset) -> None:
    g = dataset.grid
    with atomic_write(path) as fh:
        write_header(fh, MAGIC, VERSION)
        fh.write(struct.pack(_GRID_FORMAT, *(getattr(g, f) for f in _GRID_FIELDS)))
        fh.write(struct.pack("<Q", len(dataset.samples)))
        for s in dataset.samples:
            fh.write(struct.pack("<3d", *s.params))
            for field in _SAMPLE_FIELDS:
                write_array(fh, getattr(s, field))


def load_dataset(path) -> WaveDataset:
    with RecordReader(path) as reader:
        reader.header(MAGIC, VERSION, "dataset")
        grid = GridSpec(**dict(zip(_GRID_FIELDS, reader.unpack(_GRID_FORMAT, "grid block"))))
        (count,) = reader.unpack("<Q", "sample count")
        field_shape = (grid.nt, grid.zoom_nx, grid.zoom_ny)
        ring_shape = (grid.nt, grid.n_boundary)
        expected = dict(zip(_SAMPLE_FIELDS, (field_shape, field_shape, ring_shape, ring_shape)))
        samples = []
        for i in range(count):
            params = WaveParams(*reader.unpack("<3d", f"sample {i} parameters"))
            fields = []
            for name in _SAMPLE_FIELDS:
                start = reader.offset
                array = reader.array(f"sample {i} {name}")
                if array.shape != expected[name]:
                    raise ValueError(
                        f"{path}: sample {i} {name} at byte {start} has shape {array.shape}, "
                        f"the grid block gives {expected[name]}"
                    )
                fields.append(array)
            samples.append(Sample(params, *fields))
        reader.finish()
    return WaveDataset(grid, samples)
