"""Explicit second-order solver for the 2D wave equation.

Integrates ``(1/c^2) u_tt - lap(u) = f`` by leapfrog time stepping on
the 5-point Laplacian, with a Taylor first step consistent with zero
initial velocity.  One batched stepper serves every solve: it steps a
block of samples ``[B, nx, ny]`` as one contiguous span per time level,
rewrites the ring after every step, keeps only the two newest time
levels, and records a window of each level.  The full solve gives it homogeneous Dirichlet walls and a point
source ``f = sin(omega t)`` at the grid node nearest each sample's
source coordinates, scaled by ``1/(dx dy)`` as a discrete Dirac (a
source on a wall node is dropped for that sample).  The zoom submodel
gives it the window grid with the ring set from boundary traces.  A
single-sample call is a block of one, and :func:`solve_zoom` sizes its
blocks to the cache.  Every elementwise operation runs in the same order
for any block size, so a sample's result does not depend on its block.
"""

from __future__ import annotations

import numpy as np

from .grid import GridSpec, ring_index
from .sampling import WaveParams

__all__ = [
    "solve_wave",
    "solve_zoom",
    "submodel_solve",
    "submodel_solve_batch",
    "velocity_field",
    "source_node",
]

# bytes of a block of full solves, counted as four [nx, ny] levels of doubles
# per sample (solve_zoom); the stepper holds five, the two time levels and
# three span buffers, so a block's working set of ~1.25 MB stays in a 2 MB L2
_BLOCK_BYTES = 1 << 20


def _leapfrog(
    u: np.ndarray, grid: GridSpec, out: np.ndarray, origin=(0, 0), ring=None, source=None
) -> None:
    """Step a block ``u[B, m, n]`` from step 0 at rest: a Taylor start, then leapfrog.

    ``u`` holds step 0, ring included, and is overwritten.  Each time
    level is one flat span of the block, from row 1 of the first sample
    to row ``m - 2`` of the last; the 5-point stencil runs on it as 1-D
    slices at offsets +-1 and +-n, in 11 passes a step with ``2 u_t``
    formed once.  The span steps wall and ring nodes too, so one ring
    rule overwrites them after every step, before the next step reads
    them: without ``ring`` the walls are zero (step 0's walls for every
    caller); ``ring = (index, traces)`` sets step ``t``'s ring nodes, the
    flat :func:`~sepconvwave.wave.grid.ring_index` of each sample, to
    ``traces[:, t]``.  An interior node gets the operations of an
    interior-only stencil on the same operands in the same order.
    ``out[:, t]`` receives the window of step ``t`` at ``origin``, of
    shape ``out.shape[2:]``.  ``source = (idx, f)`` adds ``f[:, t]`` to
    step ``t``'s right-hand side at span indices ``idx``.
    """
    dx2, dy2, k = grid.dx**2, grid.dy**2, (grid.c * grid.dt) ** 2
    (ox, oy), (wx, wy) = origin, out.shape[2:]
    n, size = u.shape[2], u.size
    span = slice(n, size - n)
    cur, prev = u.reshape(-1), u.flatten()
    two, rhs, tmp = (np.empty(size - 2 * n) for _ in range(3))
    out[:, 0] = u[:, ox : ox + wx, oy : oy + wy]
    for t in range(grid.nt - 1):
        # rhs = (a - 2c + b)/dx^2 + (d - 2c + e)/dy^2, each operation in this order
        np.multiply(cur[span], 2.0, out=two)
        np.subtract(cur[2 * n :], two, out=rhs)
        np.add(rhs, cur[: size - 2 * n], out=rhs)
        np.divide(rhs, dx2, out=rhs)
        np.subtract(cur[n + 1 : size - n + 1], two, out=tmp)
        np.add(tmp, cur[n - 1 : size - n - 1], out=tmp)
        np.divide(tmp, dy2, out=tmp)
        np.add(rhs, tmp, out=rhs)
        if source is not None:
            idx, f = source
            rhs[idx] += f[:, t]
        if t == 0:  # u_1 = u_0 + (0.5 k) rhs
            np.multiply(rhs, 0.5 * k, out=rhs)
            np.add(cur[span], rhs, out=prev[span])
        else:  # u_{t+1} = (2 u_t - u_{t-1}) + k rhs, written over u_{t-1}
            np.subtract(two, prev[span], out=two)
            np.multiply(rhs, k, out=rhs)
            np.add(two, rhs, out=prev[span])
        cur, prev = prev, cur
        level = cur.reshape(u.shape)
        if ring is None:
            level[:, 0] = level[:, -1] = level[:, :, 0] = level[:, :, -1] = 0.0
        else:
            index, traces = ring
            level.reshape(len(u), -1)[:, index] = traces[:, t + 1]
        out[:, t + 1] = level[:, ox : ox + wx, oy : oy + wy]


def source_node(params, grid: GridSpec) -> tuple[np.ndarray, np.ndarray]:
    """Grid node ``(i, j)`` nearest the source coordinates of ``params[..., 3]``.

    Per axis ``min(max(int(round(x)), 0), n - 1)``, clipped in float so any
    finite coordinate gives a node; a non-finite one raises ``ValueError``.
    """
    xy = np.asarray(params, dtype=np.float64)[..., 1:]
    finite = np.isfinite(xy).all(axis=-1)
    if not finite.all():
        raise ValueError(f"source coordinates {xy[~finite][0].tolist()} are not finite")
    i = np.clip(np.round((xy[..., 0] + grid.lx) / grid.dx), 0, grid.nx - 1)
    j = np.clip(np.round((xy[..., 1] + grid.ly) / grid.dy), 0, grid.ny - 1)
    return i.astype(np.intp), j.astype(np.intp)


def _full_solve(params: np.ndarray, grid: GridSpec, u: np.ndarray, out, origin) -> None:
    """Full-domain solves of ``params[B, 3]`` from step 0 ``u[B, nx, ny]`` (zero ring)."""
    grid.validate()
    i, j = source_node(params, grid)
    rows = np.flatnonzero((0 < i) & (i < grid.nx - 1) & (0 < j) & (j < grid.ny - 1))
    source = None
    if len(rows):
        steps = np.arange(grid.nt - 1)
        f = np.sin(params[rows, :1] * steps * grid.dt) * (1.0 / (grid.dx * grid.dy))
        # node (row, i, j) sits n before its place in the [B, m, n] block, m = nx, n = ny
        source = ((rows * grid.nx + i[rows]) * grid.ny + j[rows] - grid.ny, f)
    _leapfrog(u, grid, out, origin, source=source)


def solve_wave(params: WaveParams, grid: GridSpec, u0: np.ndarray | None = None) -> np.ndarray:
    """Full-domain space-time field ``U[nt, nx, ny]``.

    Refuses to run when the grid violates the stability bound.  ``u0``
    (default zero) sets the initial displacement; initial velocity is
    zero, so the first step is the second-order Taylor start.
    """
    u = np.zeros((1, grid.nx, grid.ny))
    if u0 is not None:
        if u0.shape != (grid.nx, grid.ny):
            raise ValueError(f"u0 shape {u0.shape} != {(grid.nx, grid.ny)}")
        u[0, 1:-1, 1:-1] = u0[1:-1, 1:-1]
    out = np.empty((1, grid.nt, grid.nx, grid.ny))
    _full_solve(np.array([params], dtype=np.float64), grid, u, out, (0, 0))
    return out[0]


def solve_zoom(params, grid: GridSpec) -> np.ndarray:
    """Full-domain solves of a block of samples ``params[B, 3]``, kept on the zoom window only.

    Gives ``[B, nt, zoom_nx, zoom_ny]``, equal to :func:`solve_wave`
    restricted to the window, sample by sample.  No sample's
    ``[nt, nx, ny]`` history is built: the samples are stepped in blocks
    sized to ``_BLOCK_BYTES``, each written straight into its rows.
    """
    params = np.asarray(params, dtype=np.float64)
    out = np.empty((len(params), grid.nt, grid.zoom_nx, grid.zoom_ny))
    block = max(1, _BLOCK_BYTES // (4 * grid.nx * grid.ny * 8))
    for start in range(0, len(params), block):
        rows = slice(start, start + block)
        _full_solve(params[rows], grid, np.zeros((len(out[rows]), grid.nx, grid.ny)), out[rows],
                    (grid.zoom_ix, grid.zoom_iy))
    return out


def submodel_solve_batch(traces: np.ndarray, params, grid: GridSpec) -> np.ndarray:
    """Re-solve a batch of samples ``params[B, 3]`` on the zoom window from their ring traces.

    ``traces[b]`` is sample ``b``'s ``[nt, n_boundary]`` ring; the result
    is ``[B, nt, zoom_nx, zoom_ny]``.  The window problem is source-free:
    a sample whose source node lies inside the window interior is
    refused, naming the first.  Interior nodes start at rest and the ring
    holds ``traces[b, n]`` at step ``n``, making the scheme identical to
    the full solve restricted to the window.
    """
    grid.validate()
    znx, zny = grid.zoom_nx, grid.zoom_ny
    if traces.shape != (len(params), grid.nt, grid.n_boundary):
        raise ValueError(
            f"traces shape {traces.shape} != {(len(params), grid.nt, grid.n_boundary)}"
        )
    si, sj = source_node(params, grid)
    inside = ((grid.zoom_ix < si) & (si < grid.zoom_ix + znx - 1)
              & (grid.zoom_iy < sj) & (sj < grid.zoom_iy + zny - 1))
    if inside.any():
        raise ValueError(
            f"sample {np.argmax(inside)}: source node lies inside the zoom window interior"
        )

    index = ring_index(grid)
    u = np.zeros((len(params), znx, zny))
    u.reshape(len(u), -1)[:, index] = traces[:, 0]
    out = np.empty((len(params), grid.nt, znx, zny))
    _leapfrog(u, grid, out, ring=(index, traces))
    return out


def submodel_solve(traces: np.ndarray, params: WaveParams, grid: GridSpec) -> np.ndarray:
    """One sample's :func:`submodel_solve_batch`.

    Maps ``traces[nt, n_boundary]`` to the window field ``[nt, zoom_nx, zoom_ny]``.
    """
    if traces.shape != (grid.nt, grid.n_boundary):
        raise ValueError(
            f"traces shape {traces.shape} != {(grid.nt, grid.n_boundary)}"
        )
    return submodel_solve_batch(traces[None], [params], grid)[0]


def velocity_field(u: np.ndarray, dt: float) -> np.ndarray:
    """Time derivative of a ``[nt, nx, ny]`` field or a batch ``[B, nt, nx, ny]``.

    Time is the third axis from the end.  Central differences on
    interior steps, first-order one-sided at the two ends; needs at
    least 3 time samples.  The differences are written into the result
    with ``np.gradient``'s rounding, so it equals
    ``np.gradient(u, dt, axis=-3, edge_order=1)`` without its temporary.
    """
    if u.shape[-3] < 3:
        raise ValueError("velocity_field needs at least 3 time steps")
    out = np.empty_like(u)
    ut, vt = np.moveaxis(u, -3, 0), np.moveaxis(out, -3, 0)  # time-first views
    np.subtract(ut[2:], ut[:-2], out=vt[1:-1])
    np.divide(vt[1:-1], 2.0 * dt, out=vt[1:-1])
    np.subtract(ut[1], ut[0], out=vt[0])
    np.subtract(ut[-1], ut[-2], out=vt[-1])
    ends = vt[:: len(vt) - 1]
    np.divide(ends, dt, out=ends)
    return out

