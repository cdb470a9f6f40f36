"""Explicit second-order solver for the 2D wave equation.

Integrates ``(1/c^2) u_tt - lap(u) = f`` by leapfrog time stepping on
the 5-point Laplacian, with a Taylor first step consistent with zero
initial velocity.  One stepper serves both solves: it advances the
interior nodes and leaves each step's ring as given.  The full solve
gives it homogeneous Dirichlet walls and a point source
``f = sin(omega t)`` at the grid node nearest the source coordinates,
scaled by ``1/(dx dy)`` as a discrete Dirac (a source on a wall node is
dropped).  The zoom submodel gives it the window grid with the ring set
from boundary traces.
"""

from __future__ import annotations

import numpy as np

from .grid import GridSpec, boundary_index_arrays
from .sampling import WaveParams

__all__ = [
    "solve_wave",
    "submodel_solve",
    "velocity_field",
    "energy_series",
    "source_node",
]


def _laplacian(u: np.ndarray, dx: float, dy: float) -> np.ndarray:
    """5-point Laplacian on interior nodes of a 2D array."""
    return (u[2:, 1:-1] - 2.0 * u[1:-1, 1:-1] + u[:-2, 1:-1]) / dx**2 + (
        u[1:-1, 2:] - 2.0 * u[1:-1, 1:-1] + u[1:-1, :-2]
    ) / dy**2


def _leapfrog(u: np.ndarray, grid: GridSpec, source=None) -> None:
    """Step ``u[1:]`` from ``u[0]`` in place: a Taylor start, then leapfrog.

    Only interior nodes are written; each step's ring keeps the values
    ``u`` already holds there.  ``source`` is ``((i, j), f)``: ``f[n]`` is
    added to the right-hand side of step ``n`` at interior node ``(i, j)``.
    """
    dx, dy, k = grid.dx, grid.dy, (grid.c * grid.dt) ** 2
    for n in range(grid.nt - 1):
        rhs = _laplacian(u[n], dx, dy)
        if source is not None:
            (i, j), f = source
            rhs[i - 1, j - 1] += f[n]
        if n == 0:
            u[1, 1:-1, 1:-1] = u[0, 1:-1, 1:-1] + 0.5 * k * rhs
        else:
            u[n + 1, 1:-1, 1:-1] = 2.0 * u[n, 1:-1, 1:-1] - u[n - 1, 1:-1, 1:-1] + k * rhs


def source_node(params: WaveParams, grid: GridSpec) -> tuple[int, int]:
    """Grid node nearest the source coordinates."""
    i = int(round((params.x_s + grid.lx) / grid.dx))
    j = int(round((params.y_s + grid.ly) / grid.dy))
    return min(max(i, 0), grid.nx - 1), min(max(j, 0), grid.ny - 1)


def solve_wave(params: WaveParams, grid: GridSpec, u0: np.ndarray | None = None) -> np.ndarray:
    """Full-domain space-time field ``U[nt, nx, ny]``.

    Refuses to run when the grid violates the stability bound.  ``u0``
    (default zero) sets the initial displacement; initial velocity is
    zero, so the first step is the second-order Taylor start.
    """
    grid.validate()
    u = np.zeros((grid.nt, grid.nx, grid.ny))
    if u0 is not None:
        if u0.shape != (grid.nx, grid.ny):
            raise ValueError(f"u0 shape {u0.shape} != {(grid.nx, grid.ny)}")
        u[0, 1:-1, 1:-1] = u0[1:-1, 1:-1]
    si, sj = source_node(params, grid)
    amplitude = 1.0 / (grid.dx * grid.dy)
    f = [np.sin(params.omega * n * grid.dt) * amplitude for n in range(grid.nt - 1)]
    on_wall = si in (0, grid.nx - 1) or sj in (0, grid.ny - 1)
    _leapfrog(u, grid, None if on_wall else ((si, sj), f))
    return u


def submodel_solve(traces: np.ndarray, params: WaveParams, grid: GridSpec) -> np.ndarray:
    """Re-solve on the zoom window from prescribed boundary traces.

    The window problem is source-free (the source must sit outside the
    window interior); interior nodes start at rest and the ring holds
    ``traces[n]`` at step ``n``, making the scheme identical to the full
    solve restricted to the window.
    """
    grid.validate()
    znx, zny = grid.zoom_nx, grid.zoom_ny
    if traces.shape != (grid.nt, grid.n_boundary):
        raise ValueError(
            f"traces shape {traces.shape} != {(grid.nt, grid.n_boundary)}"
        )
    si, sj = source_node(params, grid)
    if (
        grid.zoom_ix < si < grid.zoom_ix + znx - 1
        and grid.zoom_iy < sj < grid.zoom_iy + zny - 1
    ):
        raise ValueError("source node lies inside the zoom window interior")

    ii, jj = boundary_index_arrays(grid)
    u = np.zeros((grid.nt, znx, zny))
    u[:, ii, jj] = traces
    _leapfrog(u, grid)
    return u


def velocity_field(u: np.ndarray, dt: float) -> np.ndarray:
    """Time derivative of a ``[nt, ...]`` field.

    Central differences on interior steps, first-order one-sided at the
    two ends; needs at least 3 time samples.
    """
    if u.shape[0] < 3:
        raise ValueError("velocity_field needs at least 3 time steps")
    return np.gradient(u, dt, axis=0, edge_order=1)


def energy_series(u: np.ndarray, grid: GridSpec) -> np.ndarray:
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
