"""Fixtures shared by the test modules."""

import struct

import pytest

from sepconvwave.records import write_array, write_header
from sepconvwave.wave import dataset as dataset_module


def _write_wds(path, grid, params, u):
    """A ``.wds`` file of these ``params`` and ``u`` arrays, whatever their shapes.

    The bytes follow the format's layout record by record: header, grid
    block, then ``params`` and ``u``, so arrays that ``WaveDataset``
    could not hold still reach the file.
    """
    with open(path, "wb") as fh:
        write_header(fh, dataset_module.MAGIC, dataset_module.VERSION)
        fields = (getattr(grid, f) for f in dataset_module._GRID_FIELDS)
        fh.write(struct.pack(dataset_module._GRID_FORMAT, *fields))
        for array in (params, u):
            write_array(fh, array)


@pytest.fixture
def write_wds():
    return _write_wds
