"""Explicit second-order solver for the 2D wave equation.

Integrates ``(1/c^2) u_tt - lap(u) = f`` by leapfrog time stepping on
the 5-point Laplacian, with a Taylor first step consistent with zero
initial velocity.  One batched stepper, :func:`_leapfrog`, serves every
solve and alone knows its block: callers pass the grid's extents, the
recorded window, an optional step 0, the source nodes with their forcing
and the ring traces; it lays the samples out rows outermost and steps
them as flat spans of rows, applies the boundary rule at every level,
keeps only the two newest time levels, and records the window of each
level.  A value moves one node a step, so each step updates only the
rows inside two light cones: those step 0 can have reached (the rest are
exact zeros) and those that can still reach the window (the rest are
never read again).  The full solve gives it homogeneous Dirichlet walls
and a point source ``f = sin(omega t)`` at the grid node nearest each
sample's source coordinates, scaled by ``1/(dx dy)`` as a discrete Dirac
(a source on a wall node is dropped for that sample).  The zoom submodel
gives it the window grid with the ring set from boundary traces.  A
single-sample call is a block of one, and :func:`solve_zoom` sorts its
samples by source row and sizes its blocks to the cache.  Every
elementwise operation runs in the same order for any block size, so a
sample's result does not depend on its block.
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
# three row-span buffers, so a block's working set of ~1.25 MB stays in a 2 MB L2
_BLOCK_BYTES = 1 << 20


def _cone(t: int, nt: int, m: int, lit, window) -> tuple[int, int]:
    """Rows ``[lo, hi)`` of an ``m``-row grid that step ``t`` (level ``t`` to ``t + 1``) updates.

    A value moves one row per step.  ``lit = (a, b)`` bounds the rows
    step 0 can make nonzero (:func:`_leapfrog` derives it), so level
    ``t + 1`` is zero more than ``t`` rows outside it; ``window = (c,
    d)`` bounds the recorded rows, which
    a row of level ``t + 1`` more than ``nt - 2 - t`` rows outside it
    cannot reach.  The wall rows 0 and ``m - 1`` are never stepped.
    """
    reach = nt - 2 - t
    lo = max(1, lit[0] - t, window[0] - reach)
    hi = min(m - 1, lit[1] + t + 1, window[1] + reach + 1)
    return lo, max(lo, hi)


def _leapfrog(grid: GridSpec, shape, window, u0=None, source=None, traces=None) -> np.ndarray:
    """Solves of ``B`` samples on an ``m x n`` grid from step 0: windows ``[B, nt, wx, wy]``.

    Callers pass the block ``shape = (B, m, n)``, the recorded ``window =
    ((ox, oy), (wx, wy))``, an optional step 0 ``u0[B, m, n]`` (default
    rest; its walls are dropped), the sources ``((i, b, j), f)``, adding
    ``f[s, t]`` to step ``t``'s right-hand side at node ``(i[s], j[s])``
    of sample ``b[s]``, and a window grid's ring ``traces[B, nt,
    n_boundary]``.  Initial velocity is zero: a Taylor start, then leapfrog.

    The rest is derived here.  The block is laid out ``[m, B, n]``, rows
    outermost: a run of rows across the block is one flat span, and the
    5-point stencil runs on it as 1-D slices at offsets +-1 and +-B n, in
    11 passes a step with ``2 u_t`` formed once.  The span steps wall and
    ring nodes too, so one boundary rule sets every level, step 0
    included: the walls are zero, or with ``traces`` the ring nodes of
    :func:`~sepconvwave.wave.grid.ring_index` hold ``traces[:, t]``.
    Step 0 can light the source rows and the rows within one of a ring row
    (counted even at zero) or of a nonzero row of step 0, and step ``t``
    updates only the rows :func:`_cone` gives for them and the window.  A
    row left out on the lit side holds the exact zeros stepping would
    give; one left out on the window side keeps a stale level that no
    updated row reads again.  An interior node gets the operations of an
    interior-only stencil on the same operands in the same order.
    """
    (B, m, n), ((ox, oy), (wx, wy)) = shape, window
    dx2, dy2, k = grid.dx**2, grid.dy**2, (grid.c * grid.dt) ** 2
    u, live = np.zeros((m, B, n)), np.zeros(m, dtype=bool)
    if u0 is not None:
        u[1:-1, :, 1:-1] = u0[:, 1:-1, 1:-1].transpose(1, 0, 2)
        live = ((u != 0.0) | np.signbit(u)).any(axis=(1, 2))  # a -0.0 steps to +0.0
    if traces is not None:
        ri, rj = np.divmod(ring_index(grid), n)
        live[ri] = True
    lit = np.convolve(live, [1, 1, 1], "same") > 0
    if source is not None:
        (si, sb, sj), f = source
        lit[si] = True
        idx = (si * B + sb) * n + sj
    rows = np.flatnonzero(lit)  # with none, a seed beyond every step's reach
    seed = (rows[0], rows[-1]) if len(rows) else (m + grid.nt,) * 2
    w, lo, hi = B * n, 0, m  # step 0's boundary rule covers every row
    cur, prev = u.reshape(-1), u.flatten()
    # indexed like the block; a source row the window cone has dropped adds into
    # scratch that no step reads, since each step writes its span before reading it
    two_, rhs_, tmp_ = (np.zeros(u.size) for _ in range(3))
    out = np.empty((B, grid.nt, wx, wy))
    for t in range(grid.nt):
        level = cur.reshape(u.shape)
        if traces is None:
            level[lo:hi, :, 0] = level[lo:hi, :, -1] = 0.0
        else:
            level[ri, :, rj] = traces[:, t].T
        out[:, t] = level[ox : ox + wx, :, oy : oy + wy].transpose(1, 0, 2)
        if t == grid.nt - 1:
            break
        lo, hi = _cone(t, grid.nt, m, seed, (ox, ox + wx - 1))
        i0, i1 = lo * w, hi * w
        two, rhs, tmp = two_[i0:i1], rhs_[i0:i1], tmp_[i0:i1]
        # rhs = (a - 2c + b)/dx^2 + (d - 2c + e)/dy^2, each operation in this order
        np.multiply(cur[i0:i1], 2.0, out=two)
        np.subtract(cur[i0 + w : i1 + w], two, out=rhs)
        np.add(rhs, cur[i0 - w : i1 - w], out=rhs)
        np.divide(rhs, dx2, out=rhs)
        np.subtract(cur[i0 + 1 : i1 + 1], two, out=tmp)
        np.add(tmp, cur[i0 - 1 : i1 - 1], out=tmp)
        np.divide(tmp, dy2, out=tmp)
        np.add(rhs, tmp, out=rhs)
        if source is not None:
            rhs_[idx] += f[:, t]
        if t == 0:  # u_1 = u_0 + (0.5 k) rhs
            np.multiply(rhs, 0.5 * k, out=rhs)
            np.add(cur[i0:i1], rhs, out=prev[i0:i1])
        else:  # u_{t+1} = (2 u_t - u_{t-1}) + k rhs, written over u_{t-1}
            np.subtract(two, prev[i0:i1], out=two)
            np.multiply(rhs, k, out=rhs)
            np.add(two, rhs, out=prev[i0:i1])
        cur, prev = prev, cur
    return out


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


def _full_solve(params: np.ndarray, grid: GridSpec, window, u0=None) -> np.ndarray:
    """Solves of ``params[B, 3]`` from ``u0[B, nx, ny]`` or rest, kept on ``window``."""
    grid.validate()
    i, j = source_node(params, grid)
    b = np.flatnonzero((0 < i) & (i < grid.nx - 1) & (0 < j) & (j < grid.ny - 1))
    f = np.sin(params[b, :1] * np.arange(grid.nt - 1) * grid.dt) * (1.0 / (grid.dx * grid.dy))
    return _leapfrog(grid, (len(params), grid.nx, grid.ny), window, u0, ((i[b], b, j[b]), f))


def solve_wave(params: WaveParams, grid: GridSpec, u0: np.ndarray | None = None) -> np.ndarray:
    """Full-domain space-time field ``U[nt, nx, ny]``.

    Refuses to run when the grid violates the stability bound.  ``u0``
    (default zero) sets the initial displacement; initial velocity is
    zero, so the first step is the second-order Taylor start.
    """
    if u0 is not None and u0.shape != (grid.nx, grid.ny):
        raise ValueError(f"u0 shape {u0.shape} != {(grid.nx, grid.ny)}")
    return _full_solve(np.array([params], dtype=np.float64), grid, ((0, 0), (grid.nx, grid.ny)),
                       None if u0 is None else u0[None])[0]


def solve_zoom(params, grid: GridSpec) -> np.ndarray:
    """Full-domain solves of a block of samples ``params[B, 3]``, kept on the zoom window only.

    Gives ``[B, nt, zoom_nx, zoom_ny]``, equal to :func:`solve_wave`
    restricted to the window, sample by sample.  No sample's
    ``[nt, nx, ny]`` history is built: the samples are sorted by source
    row, so a block's source rows lie close together, and stepped in
    blocks sized to ``_BLOCK_BYTES``, each written back to its rows.
    """
    params = np.asarray(params, dtype=np.float64)
    out = np.empty((len(params), grid.nt, grid.zoom_nx, grid.zoom_ny))
    block = max(1, _BLOCK_BYTES // (4 * grid.nx * grid.ny * 8))
    order = np.argsort(source_node(params, grid)[0], kind="stable") if len(params) else []
    for start in range(0, len(params), block):
        rows = order[start : start + block]
        out[rows] = _full_solve(params[rows], grid, ((grid.zoom_ix, grid.zoom_iy), out.shape[2:]))
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

    return _leapfrog(grid, (len(params), znx, zny), ((0, 0), (znx, zny)), traces=traces)


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

