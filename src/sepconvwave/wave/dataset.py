"""Dataset generation, standard scaling and the binary dataset format.

A dataset holds the parameter vectors and, on a leading sample axis,
the zoom-window displacement, velocity and ring traces.  A ``.wds`` file
is those arrays: magic ``WDS1``, format version u32 (2), the grid block,
then the records ``params [n, 3]``, ``u``, ``v``, ``boundary_u`` and
``boundary_v`` in the tensor encoding shared with checkpoints (see
:mod:`sepconvwave.records`).  Identical grids and samples produce
byte-identical files; truncated or padded files, a grid block that fails
:meth:`GridSpec.validate`, a sample count n of 0, and fields whose shapes
are not ``(n, *grid shape)`` are rejected on load.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np

from ..records import RecordReader, atomic_write, write_array, write_header
from .grid import GridSpec, ring_traces
from .sampling import WaveParams, lhs_sample
from .solver import solve_zoom, velocity_field

__all__ = [
    "Sample",
    "WaveDataset",
    "Scaler",
    "default_bounds",
    "generate_dataset",
    "save_dataset",
    "load_dataset",
]

MAGIC = b"WDS1"
VERSION = 2
_SAMPLE_FIELDS = ("u", "v", "boundary_u", "boundary_v")


@dataclass(frozen=True)
class Sample:
    params: WaveParams
    u: np.ndarray
    v: np.ndarray
    boundary_u: np.ndarray
    boundary_v: np.ndarray


@dataclass(frozen=True, eq=False)
class WaveDataset:
    """``params[b]`` and row ``b`` of each array are sample ``b``; the arrays are read-only."""

    grid: GridSpec
    params: tuple[WaveParams, ...]
    u: np.ndarray
    v: np.ndarray
    boundary_u: np.ndarray
    boundary_v: np.ndarray

    def __post_init__(self):
        for field in _SAMPLE_FIELDS:
            getattr(self, field).flags.writeable = False

    def __len__(self) -> int:
        return len(self.params)

    @property
    def samples(self) -> list[Sample]:
        """One :class:`Sample` per row, its arrays views of the dataset's."""
        return list(map(Sample, self.params, self.u, self.v, self.boundary_u, self.boundary_v))

    def stack(self, field: str) -> np.ndarray:
        """The field's array over all samples: the dataset's own, not a copy."""
        return getattr(self, field)

    def param_matrix(self) -> np.ndarray:
        return np.array(self.params)


def default_bounds(grid: GridSpec) -> list[tuple[float, float]]:
    """Sampling box: omega in [pi, 4 pi], source anywhere in the domain."""
    return [
        (np.pi, 4.0 * np.pi),
        (-grid.lx, grid.lx),
        (-grid.ly, grid.ly),
    ]


def generate_dataset(
    grid: GridSpec,
    n_samples: int,
    seed: int,
    bounds=None,
) -> WaveDataset:
    """Simulate ``n_samples`` parameter vectors drawn by stratified LHS.

    Sources are excluded from the zoom-window footprint, keeping the
    window source-free for the submodel.  The displacement comes from
    :func:`solve_zoom`, the velocity from the whole displacement, and
    the ring traces from both.
    """
    if bounds is None:
        bounds = default_bounds(grid)
    params = tuple(lhs_sample(n_samples, bounds, seed=seed, exclusion=grid.zoom_footprint()))
    u = solve_zoom(params, grid)
    v = velocity_field(u, grid.dt)
    return WaveDataset(grid, params, u, v, ring_traces(u, grid), ring_traces(v, grid))


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
        """``(x - mean) / std`` in one new array, rounded as that expression."""
        mean, std = self.stats[field]
        out = np.subtract(x, mean)
        out /= std
        return out

    def inverse(self, x: np.ndarray, field: str) -> np.ndarray:
        """``x * std + mean``, bit-equal, written into ``x`` (which is returned)."""
        mean, std = self.stats[field]
        x *= std
        x += mean
        return x


# the grid block: four float64 fields, then seven u64 fields
_GRID_FIELDS = ("lx", "ly", "c", "dt", "nx", "ny", "zoom_ix", "zoom_iy", "zoom_nx", "zoom_ny", "nt")
_GRID_FORMAT = "<4d7Q"


def save_dataset(path, dataset: WaveDataset) -> None:
    with atomic_write(path) as fh:
        write_header(fh, MAGIC, VERSION)
        fh.write(struct.pack(_GRID_FORMAT, *(getattr(dataset.grid, f) for f in _GRID_FIELDS)))
        write_array(fh, dataset.param_matrix())
        for field in _SAMPLE_FIELDS:
            write_array(fh, getattr(dataset, field))


def load_dataset(path) -> WaveDataset:
    with RecordReader(path) as reader:
        reader.header(MAGIC, VERSION, "dataset")
        grid = GridSpec(**dict(zip(_GRID_FIELDS, reader.unpack(_GRID_FORMAT, "grid block"))))
        try:
            grid.validate()
        except ValueError as exc:
            raise ValueError(f"{path}: grid block: {exc}") from None
        start = reader.offset
        params = reader.array("params")
        if params.ndim != 2 or params.shape[1] != 3:
            raise ValueError(f"{path}: params at byte {start} has shape {params.shape}, not (n, 3)")
        if len(params) == 0:
            raise ValueError(f"{path}: sample count is 0; a dataset needs at least one sample")
        window = (len(params), grid.nt, grid.zoom_nx, grid.zoom_ny)
        ring = (len(params), grid.nt, grid.n_boundary)
        fields = []
        for name, expected in zip(_SAMPLE_FIELDS, (window, window, ring, ring)):
            start = reader.offset
            array = reader.array(name)
            if array.shape != expected:
                raise ValueError(
                    f"{path}: {name} at byte {start} has shape {array.shape}, "
                    f"the params record and grid block give {expected}"
                )
            fields.append(array)
        reader.finish()
    return WaveDataset(grid, tuple(map(WaveParams._make, params.tolist())), *fields)
