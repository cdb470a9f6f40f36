"""The window ring has one owner: ``ring_index`` fixes its nodes and their order.

``ring_traces`` reads traces through it, and ``extract_boundary`` is
``ring_traces`` of the restriction.  The oracle is fancy indexing with
the ``(i, j)`` form, whose order is checked against the canonical order
written out here: first row, last row, then the interior of the first
and last columns.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sepconvwave.wave import (
    extract_boundary,
    make_grid,
    restrict,
    ring_index,
    ring_traces,
)


@st.composite
def _cases(draw):
    znx, zny = draw(st.integers(3, 12)), draw(st.integers(3, 12))
    nx, ny = znx + draw(st.integers(0, 4)), zny + draw(st.integers(0, 4))
    grid = make_grid(nx=nx, ny=ny, zoom_nx=znx, zoom_ny=zny, nt=2,
                     zoom_ix=draw(st.integers(0, nx - znx)), zoom_iy=draw(st.integers(0, ny - zny)))
    lead = tuple(draw(st.lists(st.integers(1, 3), max_size=2)))  # 2-D, 3-D or 4-D fields
    return grid, lead, draw(st.integers(0, 2**32 - 1))


def _canonical(znx, zny):
    ii = [0] * zny + [znx - 1] * zny + list(range(1, znx - 1)) * 2
    jj = list(range(zny)) * 2 + [0] * (znx - 2) + [zny - 1] * (znx - 2)
    return ii, jj


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(_cases())
def test_ring_traces_index_the_ring_in_canonical_order(case):
    grid, lead, seed = case
    ii, jj = (np.array(a) for a in _canonical(grid.zoom_nx, grid.zoom_ny))
    assert np.array_equal(ring_index(grid), ii * grid.zoom_ny + jj)
    assert len(ii) == grid.n_boundary

    rng = np.random.default_rng(seed)
    window = rng.standard_normal(lead + (grid.zoom_nx, grid.zoom_ny))
    traces = ring_traces(window, grid)
    assert traces.shape == lead + (grid.n_boundary,)
    assert traces.tobytes() == window[..., ii, jj].tobytes()

    field = rng.standard_normal(lead + (grid.nx, grid.ny))
    assert extract_boundary(field, grid).tobytes() == ring_traces(restrict(field, grid), grid).tobytes()


def test_ring_traces_reject_a_field_off_the_window():
    grid = make_grid(nx=10, ny=9, zoom_nx=5, zoom_ny=4, nt=2)
    with pytest.raises(ValueError, match=r"expected trailing shape \(5, 4\), got \(2, 4, 5\)"):
        ring_traces(np.zeros((2, 4, 5)), grid)
