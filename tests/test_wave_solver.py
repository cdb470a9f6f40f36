"""Wave solver: analytic oracle, boundaries, stability, zoom submodel."""

import dataclasses

import numpy as np
import pytest

from sepconvwave.wave import (
    GridSpec,
    WaveParams,
    extract_boundary,
    make_grid,
    restrict,
    ring_index,
    solve_wave,
    source_node,
    submodel_solve,
    velocity_field,
)


def energy_series(u, grid):
    """Discrete energy ``sum((u_t/c)^2 + |grad u|^2) dx dy`` per step.

    Time derivative by central differences, gradient by forward
    differences; defined on steps ``1 .. nt-2``.
    """
    dx, dy, dt, c = grid.dx, grid.dy, grid.dt, grid.c
    ut = (u[2:] - u[:-2]) / (2.0 * dt)
    mid = u[1:-1]
    gx = (mid[:, 1:, :] - mid[:, :-1, :]) / dx
    gy = (mid[:, :, 1:] - mid[:, :, :-1]) / dy
    kinetic = np.sum((ut / c) ** 2, axis=(1, 2))
    potential = np.sum(gx**2, axis=(1, 2)) + np.sum(gy**2, axis=(1, 2))
    return (kinetic + potential) * dx * dy


def standing_mode(grid):
    """First Dirichlet eigenmode and its exact cosine-in-time evolution."""
    kx = np.pi / (2.0 * grid.lx)
    ky = np.pi / (2.0 * grid.ly)
    xs = grid.xs()[:, None]
    ys = grid.ys()[None, :]
    shape = np.sin(kx * (xs + grid.lx)) * np.sin(ky * (ys + grid.ly))
    omega0 = grid.c * np.hypot(kx, ky)
    return shape, omega0


class TestSolveWave:
    def test_zero_source_zero_ic(self):
        grid = make_grid(nx=24, ny=24, zoom_nx=8, zoom_ny=8, nt=30)
        u = solve_wave(WaveParams(0.0, 0.7, 0.7), grid)
        assert np.all(u == 0.0)

    def test_dirichlet_boundary_exact_zero(self):
        grid = make_grid(nx=24, ny=20, zoom_nx=6, zoom_ny=6, nt=40)
        u = solve_wave(WaveParams(7.0, 0.55, -0.62), grid)
        assert np.all(u[:, 0, :] == 0.0)
        assert np.all(u[:, -1, :] == 0.0)
        assert np.all(u[:, :, 0] == 0.0)
        assert np.all(u[:, :, -1] == 0.0)
        assert np.any(u != 0.0)

    def test_source_on_wall_dropped(self):
        # the source node clamps onto the wall corner, where Dirichlet wins
        grid = make_grid(nx=16, ny=16, zoom_nx=6, zoom_ny=6, nt=20)
        params = WaveParams(7.0, 1.0, -1.0)
        assert source_node(params, grid) == (grid.nx - 1, 0)
        assert np.all(solve_wave(params, grid) == 0.0)

    def test_standing_mode_second_order_convergence(self):
        # nt pinned so dx and dt both halve exactly between refinements
        t_final = 0.5
        errors = []
        for n, nt in ((17, 11), (33, 21), (65, 41)):
            grid = make_grid(nx=n, ny=n, zoom_nx=4, zoom_ny=4, nt=nt, t_final=t_final)
            assert grid.nt == nt
            shape, omega0 = standing_mode(grid)
            u = solve_wave(WaveParams(0.0, 0.9, 0.9), grid, u0=shape)
            exact = np.cos(omega0 * grid.t_final) * shape
            errors.append(np.max(np.abs(u[-1] - exact)))
        orders = [np.log2(errors[i] / errors[i + 1]) for i in range(2)]
        for order in orders:
            assert 1.8 <= order <= 2.2, f"observed orders {orders}"

    def test_cfl_violation_refused(self):
        grid = make_grid(nx=24, ny=24, zoom_nx=8, zoom_ny=8, nt=16)
        bad = GridSpec(
            lx=grid.lx, ly=grid.ly, nx=grid.nx, ny=grid.ny,
            zoom_ix=grid.zoom_ix, zoom_iy=grid.zoom_iy,
            zoom_nx=grid.zoom_nx, zoom_ny=grid.zoom_ny,
            nt=grid.nt, dt=grid.dt * 2.0, c=grid.c,
        )
        with pytest.raises(ValueError, match="stability"):
            solve_wave(WaveParams(3.0, 0.5, 0.5), bad)

    def test_source_node_nearest(self):
        grid = make_grid(nx=21, ny=21, zoom_nx=5, zoom_ny=5, nt=8)
        si, sj = source_node(WaveParams(1.0, 0.0, -1.0), grid)
        assert (si, sj) == (10, 0)

    def test_energy_bounded_without_source(self):
        # smooth initial bump, forcing off for the whole run: leapfrog
        # keeps the discrete energy within 1% over 1000+ steps
        grid = make_grid(nx=65, ny=65, zoom_nx=8, zoom_ny=8, nt=1050)
        xs = grid.xs()[:, None]
        ys = grid.ys()[None, :]
        bump = np.exp(-8.0 * (xs**2 + ys**2))
        u = solve_wave(WaveParams(0.0, 0.9, 0.9), grid, u0=bump)
        energy = energy_series(u, grid)
        drift = np.max(np.abs(energy - energy[0])) / energy[0]
        assert drift < 0.01, f"energy drift {drift:.4f}"


class TestVelocityField:
    def test_constant_field(self):
        u = np.ones((5, 3, 3))
        assert np.all(velocity_field(u, 0.1) == 0.0)

    def test_linear_in_time(self):
        t = np.arange(6.0).reshape(6, 1, 1)
        u = np.broadcast_to(t, (6, 4, 4)).copy()
        assert np.allclose(velocity_field(u, 1.0), 1.0, atol=1e-14, rtol=0)

    def test_sine_matches_cosine_derivative(self):
        omega = 2.0
        dt = 1e-3
        times = dt * np.arange(200)
        u = np.sin(omega * times)[:, None, None] * np.ones((1, 2, 2))
        v = velocity_field(u, dt)
        exact = omega * np.cos(omega * times)[:, None, None] * np.ones((1, 2, 2))
        interior_err = np.max(np.abs(v[1:-1] - exact[1:-1]))
        assert interior_err < omega**3 * dt**2  # O(dt^2) central difference

    def test_too_few_steps(self):
        with pytest.raises(ValueError):
            velocity_field(np.zeros((2, 3, 3)), 0.1)

    @pytest.mark.parametrize("shape", [(4, 12, 5, 6), (12, 5, 6), (3, 5, 6)],
                             ids=["batch", "single", "nt3"])
    def test_bit_equal_to_np_gradient(self, shape):
        # central differences over 2 dt inside, one-sided over dt at the ends
        u = np.random.default_rng(7).standard_normal(shape)
        expected = np.gradient(u, 0.0137, axis=-3, edge_order=1)
        assert velocity_field(u, 0.0137).tobytes() == expected.tobytes()


class TestRestrictAndBoundary:
    def test_full_window_is_identity(self):
        grid = make_grid(nx=16, ny=16, zoom_nx=16, zoom_ny=16, nt=4, zoom_ix=0, zoom_iy=0)
        rng = np.random.default_rng(61)
        field = rng.standard_normal((4, 16, 16))
        assert np.array_equal(restrict(field, grid), field)

    def test_constant_field_constant_trace(self):
        grid = make_grid(nx=20, ny=20, zoom_nx=6, zoom_ny=6, nt=4)
        field = np.full((4, 20, 20), 2.5)
        traces = extract_boundary(field, grid)
        assert traces.shape == (4, grid.n_boundary)
        assert np.all(traces == 2.5)

    def test_restrict_matches_direct_indexing(self):
        grid = make_grid(nx=20, ny=18, zoom_nx=7, zoom_ny=5, nt=3)
        rng = np.random.default_rng(62)
        field = rng.standard_normal((3, 20, 18))
        zoom = restrict(field, grid)
        for t in range(3):
            for a in range(grid.zoom_nx):
                for b in range(grid.zoom_ny):
                    assert zoom[t, a, b] == field[t, grid.zoom_ix + a, grid.zoom_iy + b]

    def test_boundary_ring_covers_rim_once(self):
        grid = make_grid(nx=20, ny=20, zoom_nx=6, zoom_ny=5, nt=4)
        ii, jj = np.divmod(ring_index(grid), grid.zoom_ny)
        assert len(ii) == grid.n_boundary
        pairs = set(zip(ii.tolist(), jj.tolist()))
        assert len(pairs) == grid.n_boundary
        for a, b in pairs:
            assert a in (0, grid.zoom_nx - 1) or b in (0, grid.zoom_ny - 1)

    def test_window_out_of_range(self):
        with pytest.raises(ValueError):
            make_grid(nx=16, ny=16, zoom_nx=10, zoom_ny=10, nt=4, zoom_ix=10, zoom_iy=0)


class TestGridRule:
    @pytest.mark.parametrize("field, value", [
        ("lx", 0.0), ("ly", 0.0), ("lx", float("inf")), ("c", -1.0), ("c", float("nan")),
        ("dt", 0.0), ("dt", float("nan")),
    ])
    def test_validate_rejects_before_dividing(self, field, value):
        # lx = 0 used to divide by zero in cfl_number; c = -1 and the NaNs passed
        grid = make_grid(nx=24, ny=24, zoom_nx=8, zoom_ny=8, nt=16)
        bad = dataclasses.replace(grid, **{field: value})
        with pytest.raises(ValueError, match=rf"grid needs finite lx, ly, c, dt > 0, got {field} = {value}$"):
            bad.validate()

    @pytest.mark.parametrize("field, value", [("lx", float("inf")), ("ly", -1.0), ("c", float("nan"))])
    def test_make_grid_states_the_same_rule(self, field, value):
        with pytest.raises(ValueError, match=rf"grid needs finite lx, ly, c > 0, got {field} = {value}$"):
            make_grid(nx=24, ny=24, zoom_nx=8, zoom_ny=8, nt=16, **{field: value})


class TestSubmodelSolve:
    def test_zero_traces_zero_field(self):
        grid = make_grid(nx=24, ny=24, zoom_nx=8, zoom_ny=8, nt=20)
        traces = np.zeros((grid.nt, grid.n_boundary))
        zoom = submodel_solve(traces, WaveParams(3.0, 0.8, 0.8), grid)
        assert np.all(zoom == 0.0)

    def test_exact_traces_reproduce_restriction(self):
        grid = make_grid(nx=32, ny=32, zoom_nx=10, zoom_ny=10, nt=48)
        params = WaveParams(9.0, 0.62, -0.55)
        full = solve_wave(params, grid)
        traces = extract_boundary(full, grid)
        zoom = submodel_solve(traces, params, grid)
        reference = restrict(full, grid)
        rel = np.max(np.abs(zoom - reference)) / max(np.max(np.abs(reference)), 1e-300)
        assert rel < 1e-8, f"relative mismatch {rel:.3e}"

    def test_constant_traces_stay_bounded(self):
        # a step-applied constant boundary focuses to ~3.2x the amplitude
        # in 2D; the stability claim is boundedness with no growth trend
        grid = make_grid(nx=24, ny=24, zoom_nx=8, zoom_ny=8, nt=400)
        amp = 0.75
        traces = np.full((grid.nt, grid.n_boundary), amp)
        zoom = submodel_solve(traces, WaveParams(1.0, 0.8, 0.8), grid)
        peaks = np.max(np.abs(zoom), axis=(1, 2))
        assert peaks.max() <= 4.0 * amp
        assert peaks[200:].max() <= peaks[:200].max() + 1e-9

    def test_source_inside_window_rejected(self):
        grid = make_grid(nx=24, ny=24, zoom_nx=8, zoom_ny=8, nt=16)
        traces = np.zeros((grid.nt, grid.n_boundary))
        with pytest.raises(ValueError, match="inside"):
            submodel_solve(traces, WaveParams(3.0, 0.0, 0.0), grid)

    def test_trace_shape_mismatch(self):
        grid = make_grid(nx=24, ny=24, zoom_nx=8, zoom_ny=8, nt=16)
        with pytest.raises(ValueError):
            submodel_solve(np.zeros((3, 3)), WaveParams(3.0, 0.8, 0.8), grid)
