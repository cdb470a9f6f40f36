"""Latin hypercube sampling of wave parameters.

Each dimension of ``p = (omega, x_s, y_s)`` is split into ``n`` equal
strata, and stratum assignments are permuted independently so every
stratum holds exactly one sample.  Source coordinates falling inside the
excluded rectangle (the zoom-window footprint) are redrawn uniformly
inside their own cell.  A (x, y) cell lying entirely inside the
exclusion cannot be fixed by redrawing, so such pairings are repaired
first by swapping y-strata between samples, which keeps every marginal
stratum occupied exactly once; when no swap partner exists the exclusion
is unsatisfiable and sampling fails.
"""

from __future__ import annotations

from typing import NamedTuple, Sequence

import numpy as np

__all__ = ["WaveParams", "lhs_sample"]

_MAX_REDRAWS = 50_000
# a cell is treated as swallowed by the exclusion when the uncovered
# remainder is below this fraction of its area; thinner slivers (e.g.
# float roundoff at shared edges) would defeat rejection sampling
_MIN_FREE_FRACTION = 1e-3


class WaveParams(NamedTuple):
    omega: float
    x_s: float
    y_s: float


def _inside(x: float, y: float, rect) -> bool:
    x0, x1, y0, y1 = rect
    return x0 <= x <= x1 and y0 <= y <= y1


def _overlap(lo: float, hi: float, lo_r: float, hi_r: float) -> float:
    return max(0.0, min(hi, hi_r) - max(lo, lo_r))


def _covered(lo: float, hi: float, lo_r: float, hi_r: float) -> bool:
    width = hi - lo
    return _overlap(lo, hi, lo_r, hi_r) >= (1.0 - _MIN_FREE_FRACTION) * width


def _repair_pairings(perm_x, perm_y, x_covered, y_covered, rng) -> None:
    """Swap y-strata so no sample's (x, y) cell is fully excluded."""
    n = len(perm_x)
    for i in range(n):
        if not (x_covered[perm_x[i]] and y_covered[perm_y[i]]):
            continue
        candidates = [
            j
            for j in range(n)
            if j != i and not y_covered[perm_y[j]] and not x_covered[perm_x[j]]
        ]
        if not candidates:
            raise ValueError(
                "exclusion rectangle swallows a whole stratum: no cell pairing "
                "can place this sample outside it"
            )
        j = candidates[int(rng.integers(len(candidates)))]
        perm_y[i], perm_y[j] = perm_y[j], perm_y[i]


def lhs_sample(
    n: int,
    bounds: Sequence[tuple[float, float]],
    seed: int,
    exclusion: tuple[float, float, float, float] | None = None,
) -> list[WaveParams]:
    """Draw ``n`` stratified parameter vectors.

    ``bounds`` holds (lo, hi) per dimension in the order (omega, x_s,
    y_s); ``exclusion`` is an (x_lo, x_hi, y_lo, y_hi) rectangle the
    source must avoid.
    """
    if n < 1:
        raise ValueError("need n >= 1 samples")
    if len(bounds) != 3:
        raise ValueError("bounds must cover (omega, x_s, y_s)")
    for lo, hi in bounds:
        if not lo < hi:
            raise ValueError(f"invalid bounds ({lo}, {hi})")
    rng = np.random.default_rng(seed)
    perms = [rng.permutation(n) for _ in range(3)]
    widths = [(hi - lo) / n for lo, hi in bounds]

    def cell(dim: int, i: int) -> tuple[float, float]:
        lo = bounds[dim][0] + perms[dim][i] * widths[dim]
        return lo, lo + widths[dim]

    if exclusion is not None:
        # per stratum of x_s and of y_s: is it swallowed by the exclusion?
        x_covered, y_covered = (
            [_covered(bounds[d][0] + s * widths[d], bounds[d][0] + (s + 1) * widths[d], lo, hi)
             for s in range(n)]
            for d, (lo, hi) in ((1, exclusion[:2]), (2, exclusion[2:]))
        )
        _repair_pairings(perms[1], perms[2], x_covered, y_covered, rng)

    out = []
    for i in range(n):
        c_omega, c_x, c_y = cell(0, i), cell(1, i), cell(2, i)
        omega = rng.uniform(*c_omega)
        x = rng.uniform(*c_x)
        y = rng.uniform(*c_y)
        if exclusion is not None:
            for _ in range(_MAX_REDRAWS):
                if not _inside(x, y, exclusion):
                    break
                x = rng.uniform(*c_x)
                y = rng.uniform(*c_y)
            else:
                raise ValueError("could not draw a source outside the exclusion rectangle")
        out.append(WaveParams(float(omega), float(x), float(y)))
    return out
