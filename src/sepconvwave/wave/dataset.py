"""Dataset generation, standard scaling and the binary dataset format.

A dataset is ``params [n, 3]`` and the zoom-window displacement ``u``;
:class:`WaveDataset` derives the velocity and ring traces from ``u``.  A
``.wds`` file holds what the solver cannot re-derive: magic ``WDS1``,
format version u32 (3), the grid block, then the records ``params`` and
``u`` in the tensor encoding shared with checkpoints (see
:mod:`sepconvwave.records`).  Identical grids and samples produce
byte-identical files.  :func:`load_dataset` alone rejects invalid files:
truncated or padded, a grid block that fails :meth:`GridSpec.validate` or
has ``nt < 3``, n = 0 samples, a record shape other than ``(n, 3)`` or
``(n, *grid shape)``, non-finite ``params`` or ``u``, or a ``u`` whose
derived velocity overflows.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field

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
VERSION = 3


@dataclass(frozen=True)
class Sample:
    params: WaveParams
    u: np.ndarray
    v: np.ndarray
    boundary_u: np.ndarray
    boundary_v: np.ndarray


@dataclass(frozen=True, eq=False)
class WaveDataset:
    """Row ``b`` of each array is sample ``b``; the five arrays are read-only.

    ``v`` and the ring traces ``boundary_u``, ``boundary_v`` are derived from ``u`` here alone.
    """

    grid: GridSpec
    params: np.ndarray
    u: np.ndarray
    v: np.ndarray = field(init=False)
    boundary_u: np.ndarray = field(init=False)
    boundary_v: np.ndarray = field(init=False)

    def __post_init__(self):
        v = velocity_field(self.u, self.grid.dt)
        derived = v, ring_traces(self.u, self.grid), ring_traces(v, self.grid)
        for name, array in zip(("v", "boundary_u", "boundary_v"), derived):
            object.__setattr__(self, name, array)
        for array in (self.params, self.u, *derived):
            array.flags.writeable = False

    def __len__(self) -> int:
        return len(self.params)

    @property
    def samples(self) -> list[Sample]:
        """One :class:`Sample` per row, its arrays views of the dataset's."""
        params = map(WaveParams._make, self.params.tolist())
        return list(map(Sample, params, self.u, self.v, self.boundary_u, self.boundary_v))

    def stack(self, field: str) -> np.ndarray:
        """The field's array over all samples: the dataset's own, not a copy."""
        return getattr(self, field)

    def param_matrix(self) -> np.ndarray:
        """``params``, the dataset's own ``[n, 3]`` array."""
        return self.params


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
    :func:`solve_zoom`; :class:`WaveDataset` derives the rest.
    """
    if bounds is None:
        bounds = default_bounds(grid)
    params = np.array(lhs_sample(n_samples, bounds, seed=seed, exclusion=grid.zoom_footprint()))
    return WaveDataset(grid, params, solve_zoom(params, grid))


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
        write_array(fh, dataset.params)
        write_array(fh, dataset.u)


def load_dataset(path) -> WaveDataset:
    with RecordReader(path) as reader:
        reader.header(MAGIC, VERSION, "dataset")
        grid = GridSpec(**dict(zip(_GRID_FIELDS, reader.unpack(_GRID_FORMAT, "grid block"))))
        try:
            grid.validate()
        except ValueError as exc:
            raise ValueError(f"{path}: grid block: {exc}") from None
        if grid.nt < 3:
            raise ValueError(f"{path}: grid block: nt = {grid.nt}; the velocity needs nt >= 3")
        start = reader.offset
        params = reader.array("params")
        if params.ndim != 2 or params.shape[1] != 3:
            raise ValueError(f"{path}: params at byte {start} has shape {params.shape}, not (n, 3)")
        if len(params) == 0:
            raise ValueError(f"{path}: sample count is 0; a dataset needs at least one sample")
        start = reader.offset
        u = reader.array("u")
        window = (len(params), grid.nt, grid.zoom_nx, grid.zoom_ny)
        if u.shape != window:
            raise ValueError(f"{path}: u at byte {start} has shape {u.shape}, "
                             f"the params record and grid block give {window}")
        reader.finish()
    _check_finite(path, "params", params)
    _check_finite(path, "u", u)
    # a finite u can still differ by more than the largest float64
    with np.errstate(over="ignore"):
        dataset = WaveDataset(grid, params, u)
    _check_finite(path, "v", dataset.v)
    return dataset


def _check_finite(path, name: str, array: np.ndarray) -> None:
    finite = np.isfinite(array).reshape(len(array), -1).all(axis=1)
    if not finite.all():
        raise ValueError(f"{path}: {name} of sample {np.argmin(finite)} is not finite")
