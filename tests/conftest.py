"""Fixtures shared by the test modules."""

import struct

import pytest

from sepconvwave.records import write_array, write_header
from sepconvwave.wave import dataset as dataset_module


def _write_wds(path, grid, rows):
    """A ``.wds`` file of ``(params, u, v, boundary_u, boundary_v)`` rows, whatever their shapes.

    The bytes follow the format's layout field by field, so a row that
    ``WaveDataset`` could not hold still reaches the file.
    """
    with open(path, "wb") as fh:
        write_header(fh, dataset_module.MAGIC, dataset_module.VERSION)
        fields = (getattr(grid, f) for f in dataset_module._GRID_FIELDS)
        fh.write(struct.pack(dataset_module._GRID_FORMAT, *fields))
        fh.write(struct.pack("<Q", len(rows)))
        for params, *arrays in rows:
            fh.write(struct.pack("<3d", *params))
            for array in arrays:
                write_array(fh, array)


@pytest.fixture
def write_wds():
    return _write_wds
