"""Property tests: both record files round-trip their float64 bits.

Checkpoints (``save_tensors``/``load_tensors``) over random UTF-8 names,
ranks 0-4 and extents 0-3, and datasets (``save_dataset``/``load_dataset``)
over small random grids with ``nt >= 3`` and 1-4 samples.  Values are
drawn as raw u64 bit patterns, with signed zeros and subnormals mixed in,
so equality is checked on the bytes, not with ``==``.  Checkpoint values
also take NaN payloads and infinities; a dataset's ``params`` and ``u``
are finite, since ``load_dataset`` refuses anything else, and the fields
derived from ``u`` on load must match those of the saved dataset bit for
bit.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from sepconvwave.nn.checkpoint import load_tensors, save_tensors
from sepconvwave.wave import WaveDataset, load_dataset, make_grid, save_dataset

FIELDS = ("u", "v", "boundary_u", "boundary_v")
SPECIAL_BITS = (
    0x0000000000000000,  # +0.0
    0x8000000000000000,  # -0.0
    0x7FF0000000000000,  # +inf
    0xFFF0000000000000,  # -inf
    0x7FF8000000000000,  # the default quiet NaN
    0x7FF8000000000123,  # quiet NaN with a payload
    0xFFF4000000000001,  # negative signalling NaN with a payload
    0x0000000000000001,  # smallest subnormal
)
BITS = st.one_of(st.integers(0, 2**64 - 1), st.sampled_from(SPECIAL_BITS))
FINITE_BITS = BITS.filter(lambda bits: (bits >> 52) & 0x7FF != 0x7FF)  # exponent not all ones


def float_arrays(shape, elements=BITS):
    return arrays(np.uint64, shape, elements=elements).map(lambda bits: bits.view(np.float64))


@st.composite
def tensors(draw):
    shape = tuple(draw(st.lists(st.integers(0, 3), max_size=4)))
    return draw(float_arrays(shape))


@st.composite
def datasets(draw):
    nx, ny = draw(st.integers(5, 10)), draw(st.integers(5, 10))
    grid = make_grid(nx=nx, ny=ny, zoom_nx=draw(st.integers(3, nx)), zoom_ny=draw(st.integers(3, ny)),
                     nt=draw(st.integers(3, 4)))
    n = draw(st.integers(1, 4))
    params = draw(float_arrays((n, 3), FINITE_BITS))
    u = draw(float_arrays((n, grid.nt, grid.zoom_nx, grid.zoom_ny), FINITE_BITS))
    return WaveDataset(grid, params, u), params


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("records")


def _assert_same_bits(loaded: np.ndarray, original: np.ndarray) -> None:
    assert loaded.dtype == np.float64 and loaded.shape == original.shape
    assert loaded.tobytes() == original.tobytes()
    assert not loaded.flags.writeable


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(st.dictionaries(st.text(st.characters(codec="utf-8"), max_size=8), tensors(), max_size=5))
def test_checkpoint_round_trips_names_order_and_bits(workdir, named):
    path = workdir / "model.scnn"
    save_tensors(path, named)
    loaded = load_tensors(path)
    assert list(loaded) == list(named)
    for name, array in named.items():
        _assert_same_bits(loaded[name], array)


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(datasets())
def test_dataset_round_trips_grid_and_bits(workdir, drawn):
    dataset, params = drawn
    path = workdir / "data.wds"
    save_dataset(path, dataset)
    loaded = load_dataset(path)
    assert loaded.grid == dataset.grid and len(loaded) == len(dataset)
    assert loaded.param_matrix().tobytes() == params.tobytes()
    for field in FIELDS:
        _assert_same_bits(loaded.stack(field), dataset.stack(field))
