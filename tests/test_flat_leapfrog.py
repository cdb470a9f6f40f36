"""The flat-span leapfrog against the interior-slice stepper it replaced.

The solver steps each time level as one contiguous span of the block and
rewrites the ring after every step.  The oracle here is the stepper that
ran the 5-point stencil on the interior view ``u[:, 1:-1, 1:-1]`` only,
with the source forcing built one ``np.sin`` call at a time.  Both solve
paths must give its bytes on any grid: nx != ny, windows on every wall,
sources on walls, blocks of several samples and random ring traces.  The
solver steps only the rows its light-cone rule keeps; the oracle, which
steps every row, pins both halves of that rule.
"""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sepconvwave.wave import (
    WaveParams,
    make_grid,
    ring_index,
    solve_zoom,
    source_node,
    submodel_solve_batch,
)
from sepconvwave.wave import solver

_INNER = (slice(None), slice(1, -1), slice(1, -1))


def _oracle_leapfrog(u, grid, out, origin=(0, 0), ring=None, source=None):
    """The interior-slice stepper: only interior nodes are stepped, the ring is kept or set."""
    dx2, dy2, k = grid.dx**2, grid.dy**2, (grid.c * grid.dt) ** 2
    (ox, oy), (wx, wy) = origin, out.shape[2:]
    cur, prev = u, u.copy()
    rhs, tmp = np.empty_like(u[_INNER]), np.empty_like(u[_INNER])
    out[:, 0] = cur[:, ox : ox + wx, oy : oy + wy]
    for n in range(grid.nt - 1):
        c = cur[_INNER]
        np.multiply(c, 2.0, out=tmp)
        np.subtract(cur[:, 2:, 1:-1], tmp, out=rhs)
        np.add(rhs, cur[:, :-2, 1:-1], out=rhs)
        np.divide(rhs, dx2, out=rhs)
        np.subtract(cur[:, 1:-1, 2:], tmp, out=tmp)
        np.add(tmp, cur[:, 1:-1, :-2], out=tmp)
        np.divide(tmp, dy2, out=tmp)
        np.add(rhs, tmp, out=rhs)
        if source is not None:
            rows, i, j, f = source
            rhs[rows, i - 1, j - 1] += f[:, n]
        if n == 0:
            np.multiply(rhs, 0.5 * k, out=rhs)
            np.add(c, rhs, out=prev[_INNER])
        else:
            np.multiply(c, 2.0, out=tmp)
            np.subtract(tmp, prev[_INNER], out=tmp)
            np.multiply(rhs, k, out=rhs)
            np.add(tmp, rhs, out=prev[_INNER])
        cur, prev = prev, cur
        if ring is not None:
            ii, jj, traces = ring
            cur[:, ii, jj] = traces[:, n + 1]
        out[:, n + 1] = cur[:, ox : ox + wx, oy : oy + wy]


def _oracle_source(params, grid):
    amplitude = 1.0 / (grid.dx * grid.dy)
    rows, nodes, f = [], [], []
    for b, p in enumerate(params):
        si, sj = source_node(p, grid)
        if 0 < si < grid.nx - 1 and 0 < sj < grid.ny - 1:
            rows.append(b)
            nodes.append((si, sj))
            f.append([np.sin(p.omega * n * grid.dt) * amplitude for n in range(grid.nt - 1)])
    if not rows:
        return None
    i, j = np.array(nodes).T
    return np.array(rows), i, j, np.array(f)


def _oracle_zoom(params, grid):
    out = np.empty((len(params), grid.nt, grid.zoom_nx, grid.zoom_ny))
    _oracle_leapfrog(np.zeros((len(params), grid.nx, grid.ny)), grid, out,
                     (grid.zoom_ix, grid.zoom_iy), source=_oracle_source(params, grid))
    return out


def _oracle_resolve(traces, grid):
    ii, jj = np.divmod(ring_index(grid), grid.zoom_ny)
    u = np.zeros((len(traces), grid.zoom_nx, grid.zoom_ny))
    u[:, ii, jj] = traces[:, 0]
    out = np.empty((len(traces), grid.nt, grid.zoom_nx, grid.zoom_ny))
    _oracle_leapfrog(u, grid, out, ring=(ii, jj, traces))
    return out


def _at_node(grid, i, j, omega):
    """Parameters whose source lies on node ``(i, j)``."""
    return WaveParams(omega, -grid.lx + i * grid.dx, -grid.ly + j * grid.dy)


@st.composite
def _cases(draw):
    """A grid with its window anywhere, touching walls often, and a block of sources."""
    nx, ny = draw(st.integers(5, 30)), draw(st.integers(5, 30))
    if nx == ny:
        ny += 1
    znx, zny = draw(st.integers(3, nx)), draw(st.integers(3, ny))
    ix = draw(st.sampled_from([0, nx - znx]) | st.integers(0, nx - znx))
    iy = draw(st.sampled_from([0, ny - zny]) | st.integers(0, ny - zny))
    grid = make_grid(nx=nx, ny=ny, zoom_nx=znx, zoom_ny=zny, nt=draw(st.integers(2, 12)),
                     zoom_ix=ix, zoom_iy=iy)
    batch = draw(st.integers(1, 5))
    nodes = [(draw(st.sampled_from([0, 1, nx - 2, nx - 1]) | st.integers(0, nx - 1)),
              draw(st.sampled_from([0, 1, ny - 2, ny - 1]) | st.integers(0, ny - 1)))
             for _ in range(batch)]
    params = [_at_node(grid, i, j, draw(st.floats(1.0, 13.0))) for i, j in nodes]
    return grid, params, draw(st.integers(0, 2**32 - 1))


@settings(max_examples=60, deadline=None)
@given(case=_cases())
def test_solve_zoom_equals_the_interior_stepper(case):
    grid, params, _ = case
    assert solve_zoom(params, grid).tobytes() == _oracle_zoom(params, grid).tobytes()


@settings(max_examples=60, deadline=None)
@given(case=_cases())
def test_resolve_equals_the_interior_stepper(case):
    grid, params, seed = case
    # the re-solve reads params only to refuse a source inside the window: put them on a corner
    params = [_at_node(grid, 0, 0, p.omega) for p in params]
    traces = np.random.default_rng(seed).standard_normal((len(params), grid.nt, grid.n_boundary))
    got = submodel_solve_batch(traces, params, grid)
    assert got.tobytes() == _oracle_resolve(traces, grid).tobytes()


def test_desk_blocks_equal_the_interior_stepper():
    # 64 x 64 gives blocks of 8 samples; 9 samples leave a block of one
    grid = make_grid(nx=64, ny=64, zoom_nx=16, zoom_ny=16, nt=64)
    rng = np.random.default_rng(27)
    params = [WaveParams(float(rng.uniform(np.pi, 4 * np.pi)), *rng.uniform(-1, 1, 2))
              for _ in range(9)]
    want = _oracle_zoom(params, grid)
    assert np.any(want != 0.0)
    assert solve_zoom(params, grid).tobytes() == want.tobytes()


@st.composite
def _cone_cases(draw):
    """:func:`_cases` with ``nt`` drawn both below and above ``nx``."""
    grid, params, seed = draw(_cases())
    return replace(grid, nt=draw(st.integers(2, 2 * grid.nx + 2))), params, seed


def _window_rows(grid):
    return grid.zoom_ix, grid.zoom_ix + grid.zoom_nx - 1


@settings(max_examples=60, deadline=None)
@given(case=_cone_cases())
def test_rows_left_out_on_the_source_side_are_exact_zeros(case):
    grid, params, seed = case
    i, j = source_node(params, grid)
    rows = np.flatnonzero((0 < i) & (i < grid.nx - 1) & (0 < j) & (j < grid.ny - 1))
    # a forcing already nonzero at step 0, unlike sin(omega t), so the rule must be tight
    f = np.random.default_rng(seed).standard_normal((len(rows), grid.nt - 1))
    field = np.empty((len(params), grid.nt, grid.nx, grid.ny))
    _oracle_leapfrog(np.zeros((len(params), grid.nx, grid.ny)), grid, field,
                     source=(rows, i[rows], j[rows], f) if len(rows) else None)
    if not len(rows):  # every source on a wall: nothing leaves rest
        assert not field.any() and not np.signbit(field).any()
        return
    for t in range(grid.nt - 1):
        # the window side kept out of it: the whole grid is recorded
        lo, hi = solver._cone(t, grid.nt, grid.nx, (i[rows].min(), i[rows].max()), (0, grid.nx - 1))
        left_out = np.delete(field[:, t + 1], np.s_[lo:hi], axis=1)
        assert not left_out.any() and not np.signbit(left_out).any(), t


@settings(max_examples=60, deadline=None)
@given(case=_cone_cases())
def test_nan_in_rows_left_out_on_the_window_side_never_reaches_the_window(case):
    grid, params, seed = case
    nx, ny, nt = grid.nx, grid.ny, grid.nt
    u = np.zeros((len(params), nx, ny))
    u[_INNER] = np.random.default_rng(seed).standard_normal(u[_INNER].shape)
    # every interior node gets a forcing: NaN in the rows step t leaves out, else +0.0,
    # so both time levels the next step reads hold NaN wherever the solver keeps a stale row
    b, ii, jj = (a.ravel() for a in np.meshgrid(np.arange(len(u)), np.arange(1, nx - 1),
                                                np.arange(1, ny - 1), indexing="ij"))
    poison = np.zeros((len(b), nt - 1))
    for t in range(nt - 1):
        lo, hi = solver._cone(t, nt, nx, (0, nx - 1), _window_rows(grid))
        poison[(ii < lo) | (ii >= hi), t] = np.nan
    whole = np.empty((len(u), nt, nx, ny))
    _oracle_leapfrog(u.copy(), grid, whole, source=(b, ii, jj, poison))
    clean = np.empty((len(u), nt, grid.zoom_nx, grid.zoom_ny))
    _oracle_leapfrog(u.copy(), grid, clean, (grid.zoom_ix, grid.zoom_iy))
    window = whole[:, :, grid.zoom_ix : grid.zoom_ix + grid.zoom_nx,
                   grid.zoom_iy : grid.zoom_iy + grid.zoom_ny]
    assert np.isfinite(window).all() and np.array_equal(window, clean)
    assert np.isnan(whole).any() == np.isnan(poison).any()


@pytest.mark.parametrize("per_block", [2, 3])
@pytest.mark.parametrize("order", ["reverse", "shuffled"])
def test_blocks_of_sorted_source_rows_equal_the_interior_stepper(monkeypatch, per_block, order):
    # nt > nx; rows on both walls and repeated rows, whose stable sort keeps caller order
    grid = make_grid(nx=30, ny=22, zoom_nx=8, zoom_ny=6, nt=36)
    monkeypatch.setattr(solver, "_BLOCK_BYTES", per_block * 4 * grid.nx * grid.ny * 8)
    rng = np.random.default_rng(34)
    rows = [0, 1, 3, 7, 7, 7, 12, 15, 15, 21, 26, 28, 29]
    params = [_at_node(grid, i, int(rng.integers(1, grid.ny - 1)), float(rng.uniform(1.0, 13.0)))
              for i in rows]
    if order == "reverse":
        params = params[::-1]
    else:
        params = [params[k] for k in rng.permutation(len(params))]
    want = _oracle_zoom(params, grid)
    assert np.any(want != 0.0)
    assert solve_zoom(params, grid).tobytes() == want.tobytes()


# The stepper derives the rows step 0 can light from the sources, the ring rows and
# step 0's nonzero rows, each of the last two widened by one row.


@settings(max_examples=60, deadline=None)
@given(case=_cone_cases(), data=st.data())
def test_solve_wave_from_a_compact_field_equals_the_interior_stepper(case, data):
    grid, params, seed = case
    # nonzero in a few rows only, and maybe a row of -0.0, which stepping turns into +0.0
    lo = data.draw(st.integers(0, grid.nx - 1))
    hi = data.draw(st.integers(lo + 1, min(lo + 3, grid.nx)))
    u0 = np.zeros((grid.nx, grid.ny))
    u0[lo:hi] = np.random.default_rng(seed).standard_normal((hi - lo, grid.ny))
    negative = data.draw(st.none() | st.integers(0, grid.nx - 1))
    if negative is not None and not lo <= negative < hi:
        u0[negative] = -0.0
    u = np.zeros((1, grid.nx, grid.ny))
    u[_INNER] = u0[1:-1, 1:-1]
    want = np.empty((1, grid.nt, grid.nx, grid.ny))
    _oracle_leapfrog(u, grid, want, source=_oracle_source(params[:1], grid))
    assert solver.solve_wave(params[0], grid, u0).tobytes() == want[0].tobytes()


@settings(max_examples=60, deadline=None)
@given(case=_cone_cases())
def test_resolve_from_traces_at_rest_at_step_0_equals_the_interior_stepper(case):
    grid, params, seed = case
    params = [_at_node(grid, 0, 0, p.omega) for p in params]
    traces = np.random.default_rng(seed).standard_normal((len(params), grid.nt, grid.n_boundary))
    traces[:, 0] = 0.0  # the ring rows light step 0 even so
    got = submodel_solve_batch(traces, params, grid)
    assert got.tobytes() == _oracle_resolve(traces, grid).tobytes()


@settings(max_examples=30, deadline=None)
@given(case=_cone_cases())
def test_a_block_at_rest_without_an_interior_source_records_zeros(case):
    grid, params, _ = case
    # every source on a wall node, where the full solve drops it
    walls = [(0, 0), (grid.nx - 1, 1), (1, grid.ny - 1), (grid.nx - 1, grid.ny - 1)]
    params = [_at_node(grid, *walls[k % 4], p.omega) for k, p in enumerate(params)]
    got = solve_zoom(params, grid)
    assert not got.any() and not np.signbit(got).any()
    assert got.tobytes() == _oracle_zoom(params, grid).tobytes()
