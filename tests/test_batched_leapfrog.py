"""The batched leapfrog: a sample's result does not depend on its block.

Every solve runs through one stepper that advances a block of samples
together.  These tests pin that a block gives, byte for byte, what the
same samples give one at a time, that a refusal or a dropped source
stays with its own sample, and that the node rule on a block of
parameters equals the one-coordinate rule it replaced.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sepconvwave.wave import (
    Sample,
    WaveParams,
    generate_dataset,
    make_grid,
    restrict,
    ring_index,
    solve_wave,
    solve_zoom,
    source_node,
    submodel_solve,
    submodel_solve_batch,
    velocity_field,
)
from sepconvwave.wave import solver as solver_module

FIELDS = ("u", "v", "boundary_u", "boundary_v")


def _one_at_a_time(params, grid):
    """Each sample solved as a block of one, its velocity and ring taken from that block."""
    ii, jj = np.divmod(ring_index(grid), grid.zoom_ny)
    out = []
    for p in params:
        u = solve_zoom([p], grid)
        v = velocity_field(u, grid.dt)
        out.append(Sample(p, u[0], v[0], u[:, :, ii, jj][0], v[:, :, ii, jj][0]))
    return out


def _same_samples(got, want):
    assert len(got) == len(want)
    for a, b in zip(got, want):
        assert tuple(a.params) == tuple(b.params)
        for field in FIELDS:
            assert getattr(a, field).tobytes() == getattr(b, field).tobytes(), field


class TestBlockedGeneration:
    def test_default_block_not_dividing_the_count(self):
        # a desk-sized domain gives blocks of several samples; 11 is not a multiple
        grid = make_grid(nx=64, ny=64, zoom_nx=16, zoom_ny=16, nt=12)
        block = solver_module._BLOCK_BYTES // (4 * grid.nx * grid.ny * 8)
        assert 1 < block < 11 and 11 % block != 0
        ds = generate_dataset(grid, 11, seed=5)
        _same_samples(ds.samples, _one_at_a_time(ds.params, grid))

    def test_small_budget_gives_the_same_samples(self, monkeypatch):
        grid = make_grid(nx=20, ny=20, zoom_nx=6, zoom_ny=6, nt=14)
        whole = generate_dataset(grid, 11, seed=6)
        monkeypatch.setattr(solver_module, "_BLOCK_BYTES", 4 * (4 * grid.nx * grid.ny * 8))
        blocked = generate_dataset(grid, 11, seed=6)
        _same_samples(blocked.samples, whole.samples)
        _same_samples(blocked.samples, _one_at_a_time(whole.params, grid))

    def test_one_sample_per_block_gives_the_same_bytes(self, monkeypatch):
        grid = make_grid(nx=64, ny=64, zoom_nx=16, zoom_ny=16, nt=12)
        params = generate_dataset(grid, 7, seed=8).params
        default = solve_zoom(params, grid)
        monkeypatch.setattr(solver_module, "_BLOCK_BYTES", 4 * grid.nx * grid.ny * 8)
        assert solve_zoom(params, grid).tobytes() == default.tobytes()

    def test_wall_source_dropped_for_its_sample_only(self):
        grid = make_grid(nx=16, ny=16, zoom_nx=6, zoom_ny=6, nt=20)
        params = [WaveParams(7.0, 0.7, -0.6), WaveParams(7.0, 1.0, -1.0), WaveParams(5.0, -0.7, 0.5)]
        assert source_node(params[1], grid) == (grid.nx - 1, 0)
        block = solve_zoom(params, grid)
        assert np.all(block[1] == 0.0)
        for b in (0, 2):
            one = restrict(solve_wave(params[b], grid), grid)
            assert np.any(one != 0.0)
            assert block[b].tobytes() == one.tobytes()


class TestBatchedResolve:
    def test_source_inside_window_names_the_sample(self):
        grid = make_grid(nx=24, ny=24, zoom_nx=8, zoom_ny=8, nt=16)
        params = [WaveParams(3.0, 0.8, 0.8), WaveParams(3.0, -0.9, 0.1),
                  WaveParams(3.0, 0.0, 0.0), WaveParams(3.0, 0.8, -0.8)]
        traces = np.zeros((len(params), grid.nt, grid.n_boundary))
        with pytest.raises(ValueError, match=r"sample 2\b.*inside"):
            submodel_solve_batch(traces, params, grid)
        ok = [p for b, p in enumerate(params) if b != 2]
        assert submodel_solve_batch(traces[:3], ok, grid).shape == (3, grid.nt, 8, 8)

    def test_first_of_several_offending_samples_is_named(self):
        grid = make_grid(nx=24, ny=24, zoom_nx=8, zoom_ny=8, nt=16)
        params = np.array([[3.0, 0.8, 0.8], [3.0, 0.05, 0.0], [3.0, -0.9, 0.1], [3.0, 0.0, 0.0]])
        traces = np.zeros((len(params), grid.nt, grid.n_boundary))
        with pytest.raises(ValueError, match=r"^sample 1: .*inside"):
            submodel_solve_batch(traces, params, grid)

    def test_trace_batch_shape_mismatch(self):
        grid = make_grid(nx=24, ny=24, zoom_nx=8, zoom_ny=8, nt=16)
        with pytest.raises(ValueError, match="traces shape"):
            submodel_solve_batch(np.zeros((2, grid.nt, grid.n_boundary)), [WaveParams(3.0, 0.8, 0.8)], grid)

    @settings(max_examples=25, deadline=None)
    @given(
        n=st.integers(6, 14),
        zoom=st.integers(3, 5),
        nt=st.integers(3, 12),
        batch=st.integers(1, 7),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_batch_equals_one_at_a_time(self, n, zoom, nt, batch, seed):
        grid = make_grid(nx=n, ny=n + 1, zoom_nx=zoom, zoom_ny=zoom + 1, nt=nt)
        rng = np.random.default_rng(seed)
        traces = rng.standard_normal((batch, grid.nt, grid.n_boundary))
        # sources on the left wall, never inside the window interior
        params = [WaveParams(float(rng.uniform(1, 9)), -grid.lx, float(rng.uniform(-1, 1)))
                  for _ in range(batch)]
        got = submodel_solve_batch(traces, params, grid)
        for b in range(batch):
            assert got[b].tobytes() == submodel_solve(traces[b], params[b], grid).tobytes()


def _scalar_node(x: float, lo: float, h: float, n: int) -> int:
    """The one-coordinate rule: nearest node, half to even, clamped to the grid."""
    return min(max(int(round((x + lo) / h)), 0), n - 1)


class TestSourceNode:
    # dx = 1/8 and dy = 1/4 exactly, so k + 1/2 spacings from a wall is a true half-way point
    GRID = make_grid(nx=17, ny=9, zoom_nx=3, zoom_ny=3, nt=3)

    @staticmethod
    def coordinates(h):
        return st.one_of(
            st.floats(-1e300, 1e300),
            st.integers(-40, 40).map(lambda k: -1.0 + (k + 0.5) * h),  # half-way, in and outside
            st.sampled_from([-1.0, 1.0, -1e300, 1e300, 0.0, -0.0]),  # walls and far outside
        )

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(data=st.data(), batch=st.integers(1, 6))
    def test_array_rule_equals_the_scalar_rule(self, data, batch):
        grid = self.GRID
        xs = data.draw(st.lists(self.coordinates(grid.dx), min_size=batch, max_size=batch))
        ys = data.draw(st.lists(self.coordinates(grid.dy), min_size=batch, max_size=batch))
        params = np.array([[3.0, x, y] for x, y in zip(xs, ys)])
        i, j = source_node(params, grid)
        assert i.shape == j.shape == (batch,)
        for b, (x, y) in enumerate(zip(xs, ys)):
            want = (_scalar_node(x, grid.lx, grid.dx, grid.nx), _scalar_node(y, grid.ly, grid.dy, grid.ny))
            assert (int(i[b]), int(j[b])) == want
            assert source_node(WaveParams(3.0, x, y), grid) == want

    def test_half_way_rounds_to_even(self):
        grid = self.GRID
        params = np.array([[1.0, -1.0 + 2.5 * grid.dx, -1.0 + 3.5 * grid.dy]])
        assert [a.tolist() for a in source_node(params, grid)] == [[2], [4]]

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_coordinate_raises(self, bad):
        grid = self.GRID
        params = np.array([[1.0, 0.0, 0.0], [1.0, 0.5, bad]])
        with pytest.raises(ValueError, match="not finite"):
            source_node(params, grid)
        with pytest.raises(ValueError, match="not finite"):
            solve_zoom(params, grid)
        with pytest.raises(ValueError, match="not finite"):
            source_node(WaveParams(1.0, bad, 0.0), grid)
