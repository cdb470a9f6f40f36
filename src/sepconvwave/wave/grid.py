"""Cartesian simulation grid with a nested zoom window.

The full domain ``[-lx, lx] x [-ly, ly]`` is discretized by ``nx x ny``
nodes including the boundary; the zone of interest is a contiguous index
window of that node set, so restriction is a pure index-window copy.  The
window's rectangle ring gives the boundary-trace nodes: :func:`ring_index`
alone fixes their order, and every trace is read (:func:`ring_traces`) or
written through it.  The time step is tied to the explicit-scheme
stability bound ``c * dt * sqrt(1/dx^2 + 1/dy^2) <= 1``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = ["GridSpec", "make_grid", "restrict", "ring_index", "ring_traces", "extract_boundary"]


@dataclass(frozen=True)
class GridSpec:
    lx: float
    ly: float
    nx: int
    ny: int
    zoom_ix: int
    zoom_iy: int
    zoom_nx: int
    zoom_ny: int
    nt: int
    dt: float
    c: float

    @property
    def dx(self) -> float:
        return 2.0 * self.lx / (self.nx - 1)

    @property
    def dy(self) -> float:
        return 2.0 * self.ly / (self.ny - 1)

    @property
    def t_final(self) -> float:
        return (self.nt - 1) * self.dt

    @property
    def n_boundary(self) -> int:
        return 2 * self.zoom_ny + 2 * (self.zoom_nx - 2)

    def xs(self) -> np.ndarray:
        return -self.lx + self.dx * np.arange(self.nx)

    def ys(self) -> np.ndarray:
        return -self.ly + self.dy * np.arange(self.ny)

    def times(self) -> np.ndarray:
        return self.dt * np.arange(self.nt)

    def cfl_number(self) -> float:
        return self.c * self.dt * math.sqrt(1.0 / self.dx**2 + 1.0 / self.dy**2)

    def zoom_footprint(self) -> tuple[float, float, float, float]:
        """(x_lo, x_hi, y_lo, y_hi) covered by the zoom window nodes."""
        xs, ys = self.xs(), self.ys()
        return (
            xs[self.zoom_ix],
            xs[self.zoom_ix + self.zoom_nx - 1],
            ys[self.zoom_iy],
            ys[self.zoom_iy + self.zoom_ny - 1],
        )

    def validate(self) -> None:
        _check_divisors(self.nx, self.ny, lx=self.lx, ly=self.ly, c=self.c, dt=self.dt)
        if self.nt < 2:
            raise ValueError(f"grid needs nt >= 2, got nt = {self.nt}")
        if self.zoom_nx < 3 or self.zoom_ny < 3:
            raise ValueError("zoom window needs at least 3 nodes per side")
        if not (0 <= self.zoom_ix and self.zoom_ix + self.zoom_nx <= self.nx):
            raise ValueError("zoom window outside the grid in x")
        if not (0 <= self.zoom_iy and self.zoom_iy + self.zoom_ny <= self.ny):
            raise ValueError("zoom window outside the grid in y")
        if self.cfl_number() > 1.0:
            raise ValueError(
                f"stability bound violated: c*dt*sqrt(1/dx^2+1/dy^2) = "
                f"{self.cfl_number():.6f} > 1"
            )


def _check_divisors(nx: int, ny: int, **positive: float) -> None:
    """The values the node spacing and the time step divide by, checked before any division."""
    if nx < 3 or ny < 3:
        raise ValueError(f"grid needs nx, ny >= 3, got nx = {nx}, ny = {ny}")
    bad = [f"{k} = {v}" for k, v in positive.items() if not (math.isfinite(v) and v > 0)]
    if bad:
        raise ValueError(f"grid needs finite {', '.join(positive)} > 0, got {', '.join(bad)}")


def make_grid(
    nx: int = 64,
    ny: int = 64,
    zoom_nx: int = 16,
    zoom_ny: int = 16,
    nt: int = 64,
    lx: float = 1.0,
    ly: float = 1.0,
    c: float = 1.0,
    cfl_margin: float = 0.9,
    t_final: float | None = None,
    zoom_ix: int | None = None,
    zoom_iy: int | None = None,
) -> GridSpec:
    """Build a validated grid.

    Without ``t_final`` the time step is the stability bound scaled by
    ``cfl_margin`` and the final time follows from ``nt``.  With
    ``t_final`` given, ``nt`` is raised as needed so the step stays
    within the margin and ``dt = t_final / (nt - 1)`` exactly.
    """
    if not 0 < cfl_margin <= 1.0:
        raise ValueError("cfl_margin must be in (0, 1]")
    # checked before the divisions below, which these values would break
    _check_divisors(nx, ny, lx=lx, ly=ly, c=c)
    dx = 2.0 * lx / (nx - 1)
    dy = 2.0 * ly / (ny - 1)
    dt_max = cfl_margin / (c * math.sqrt(1.0 / dx**2 + 1.0 / dy**2))
    if t_final is None:
        dt = dt_max
    else:
        nt = max(int(math.ceil(t_final / dt_max)) + 1, nt, 2)
        dt = t_final / (nt - 1)
    if zoom_ix is None:
        zoom_ix = (nx - zoom_nx) // 2
    if zoom_iy is None:
        zoom_iy = (ny - zoom_ny) // 2
    grid = GridSpec(
        lx=lx, ly=ly, nx=nx, ny=ny,
        zoom_ix=zoom_ix, zoom_iy=zoom_iy, zoom_nx=zoom_nx, zoom_ny=zoom_ny,
        nt=nt, dt=dt, c=c,
    )
    grid.validate()
    return grid


def restrict(field: np.ndarray, grid: GridSpec) -> np.ndarray:
    """Index-window copy of a full-domain field onto the zoom window.

    Works on ``[nx, ny]`` and ``[nt, nx, ny]`` arrays alike.
    """
    if field.shape[-2] != grid.nx or field.shape[-1] != grid.ny:
        raise ValueError(f"expected trailing shape ({grid.nx}, {grid.ny}), got {field.shape}")
    return field[
        ...,
        grid.zoom_ix : grid.zoom_ix + grid.zoom_nx,
        grid.zoom_iy : grid.zoom_iy + grid.zoom_ny,
    ].copy()


def ring_index(grid: GridSpec) -> np.ndarray:
    """The window's rectangle ring as flat indices into a C-ordered ``[zoom_nx, zoom_ny]`` window.

    Canonical order: first row, last row, then the interior of the first
    and last columns.  The order is part of the trace format.
    """
    znx, zny = grid.zoom_nx, grid.zoom_ny
    rows = np.arange(1, znx - 1) * zny
    return np.concatenate([np.arange(zny), (znx - 1) * zny + np.arange(zny), rows, rows + zny - 1])


def ring_traces(window: np.ndarray, grid: GridSpec) -> np.ndarray:
    """Traces ``[..., n_boundary]`` of ``[..., zoom_nx, zoom_ny]`` window fields on the ring."""
    if window.shape[-2:] != (grid.zoom_nx, grid.zoom_ny):
        raise ValueError(f"expected trailing shape ({grid.zoom_nx}, {grid.zoom_ny}), "
                         f"got {window.shape}")
    return np.take(window.reshape(window.shape[:-2] + (-1,)), ring_index(grid), axis=-1)


def extract_boundary(field: np.ndarray, grid: GridSpec) -> np.ndarray:
    """Traces of a full-domain ``[nt, nx, ny]`` or ``[nx, ny]`` field on the zoom ring."""
    return ring_traces(restrict(field, grid), grid)
