"""Explicit second-order solver for the 2D wave equation.

Integrates ``(1/c^2) u_tt - lap(u) = f`` by leapfrog time stepping on
the 5-point Laplacian, with a Taylor first step consistent with zero
initial velocity.  One batched stepper serves every solve: it steps a
block of samples ``[nx, B, ny]``, rows outermost, as flat spans of rows,
rewrites the ring after every step, keeps only the two newest time
levels, and records a window of each level.  A value moves one node a
step, so each step updates only the rows inside two light cones: those
the sources can have reached (the rest are exact zeros) and those that
can still reach a recorded window (the rest are never read again).
The full solve gives it homogeneous Dirichlet walls and a point
source ``f = sin(omega t)`` at the grid node nearest each sample's
source coordinates, scaled by ``1/(dx dy)`` as a discrete Dirac (a
source on a wall node is dropped for that sample).  The zoom submodel
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
    step 0 can make nonzero, so level ``t + 1`` is zero more than ``t``
    rows outside it; ``window = (c, d)`` bounds the recorded rows, which
    a row of level ``t + 1`` more than ``nt - 2 - t`` rows outside it
    cannot reach.  The wall rows 0 and ``m - 1`` are never stepped.
    """
    reach = nt - 2 - t
    lo = max(1, lit[0] - t, window[0] - reach)
    hi = min(m - 1, lit[1] + t + 1, window[1] + reach + 1)
    return lo, max(lo, hi)


def _leapfrog(
    u: np.ndarray, grid: GridSpec, out: np.ndarray, lit, origin=(0, 0), ring=None, source=None
) -> None:
    """Step a block ``u[m, B, n]`` from step 0 at rest: a Taylor start, then leapfrog.

    ``u`` holds step 0, ring included, and is overwritten.  A run of rows
    across the block is one flat span; the 5-point stencil runs on it as
    1-D slices at offsets +-1 and +-B n, in 11 passes a step with
    ``2 u_t`` formed once.  Step ``t`` updates only the rows
    :func:`_cone` gives for ``lit`` and the window.  A row left out on
    the ``lit`` side was never written and holds the exact zeros stepping
    would give; one left out on the window side keeps a stale level that
    no updated row reads again.  The span steps wall and ring nodes too,
    so one ring rule overwrites them after every step: without ``ring``
    the walls are zero (step 0's walls for every caller); ``ring = ((ri,
    rj), traces)`` sets step ``t``'s ring nodes, the rows and columns of
    :func:`~sepconvwave.wave.grid.ring_index`, to ``traces[:, t]``.  An
    interior node gets the operations of an interior-only stencil on the
    same operands in the same order.  ``out[:, t]`` receives the window
    of step ``t`` at ``origin``, of shape ``out.shape[2:]``.  ``source =
    (idx, f)`` adds ``f[:, t]`` to step ``t``'s right-hand side at flat
    indices ``idx`` of the block.
    """
    dx2, dy2, k = grid.dx**2, grid.dy**2, (grid.c * grid.dt) ** 2
    (ox, oy), (wx, wy) = origin, out.shape[2:]
    m, w = u.shape[0], u.shape[1] * u.shape[2]
    cur, prev = u.reshape(-1), u.flatten()
    # indexed like the block; a source row the window cone has dropped adds into
    # scratch that no step reads, since each step writes its span before reading it
    two_, rhs_, tmp_ = (np.zeros(u.size) for _ in range(3))
    out[:, 0] = u[ox : ox + wx, :, oy : oy + wy].transpose(1, 0, 2)
    for t in range(grid.nt - 1):
        lo, hi = _cone(t, grid.nt, m, lit, (ox, ox + wx - 1))
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
            idx, f = source
            rhs_[idx] += f[:, t]
        if t == 0:  # u_1 = u_0 + (0.5 k) rhs
            np.multiply(rhs, 0.5 * k, out=rhs)
            np.add(cur[i0:i1], rhs, out=prev[i0:i1])
        else:  # u_{t+1} = (2 u_t - u_{t-1}) + k rhs, written over u_{t-1}
            np.subtract(two, prev[i0:i1], out=two)
            np.multiply(rhs, k, out=rhs)
            np.add(two, rhs, out=prev[i0:i1])
        cur, prev = prev, cur
        level = cur.reshape(u.shape)
        if ring is None:
            level[lo:hi, :, 0] = level[lo:hi, :, -1] = 0.0
        else:
            (ri, rj), traces = ring
            level[ri, :, rj] = traces[:, t + 1].T
        out[:, t + 1] = level[ox : ox + wx, :, oy : oy + wy].transpose(1, 0, 2)


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


def _full_solve(params: np.ndarray, grid: GridSpec, u: np.ndarray, origin, shape) -> np.ndarray:
    """Solves of ``params[B, 3]`` from step 0 ``u[nx, B, ny]``: windows ``[B, nt, *shape]``."""
    grid.validate()
    i, j = source_node(params, grid)
    rows = np.flatnonzero((0 < i) & (i < grid.nx - 1) & (0 < j) & (j < grid.ny - 1))
    source = None
    if len(rows):
        steps = np.arange(grid.nt - 1)
        f = np.sin(params[rows, :1] * steps * grid.dt) * (1.0 / (grid.dx * grid.dy))
        # node (i, row, j) of the [nx, B, ny] block
        source = ((i[rows] * len(params) + rows) * grid.ny + j[rows], f)
    # the rows step 0 can make nonzero: at rest, the source rows' hull (with no source,
    # rows beyond every step's reach); every row when u is not at rest
    lit = (i[rows].min(), i[rows].max()) if len(rows) else (grid.nx + grid.nt,) * 2
    lit = (0, grid.nx - 1) if u.any() else lit
    out = np.empty((len(params), grid.nt) + shape)
    _leapfrog(u, grid, out, lit, origin, source=source)
    return out


def solve_wave(params: WaveParams, grid: GridSpec, u0: np.ndarray | None = None) -> np.ndarray:
    """Full-domain space-time field ``U[nt, nx, ny]``.

    Refuses to run when the grid violates the stability bound.  ``u0``
    (default zero) sets the initial displacement; initial velocity is
    zero, so the first step is the second-order Taylor start.
    """
    u = np.zeros((grid.nx, 1, grid.ny))
    if u0 is not None:
        if u0.shape != (grid.nx, grid.ny):
            raise ValueError(f"u0 shape {u0.shape} != {(grid.nx, grid.ny)}")
        u[1:-1, 0, 1:-1] = u0[1:-1, 1:-1]
    return _full_solve(np.array([params], dtype=np.float64), grid, u, (0, 0), (grid.nx, grid.ny))[0]


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
        out[rows] = _full_solve(params[rows], grid, np.zeros((grid.nx, len(rows), grid.ny)),
                                (grid.zoom_ix, grid.zoom_iy), out.shape[2:])
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

    ri, rj = np.divmod(ring_index(grid), zny)
    u = np.zeros((znx, len(params), zny))
    u[ri, :, rj] = traces[:, 0].T
    out = np.empty((len(params), grid.nt, znx, zny))
    _leapfrog(u, grid, out, (0, znx - 1), ring=((ri, rj), traces))
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

