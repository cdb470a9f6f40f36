"""Desk-scale model zoo: one architecture recipe per variant.

Every recipe is a dense lift into a small latent grid followed by
upsample/convolution blocks that land exactly on the target output
shape; kernel sizes, filter counts and upsample factors are width knobs
resolved from the experiment config (committed config files pin them per
grid, so all parameter counts are reproducible).  The ``N.5D`` variants
reuse their parent's skeleton with each full kernel swapped for the
a-priori separable stack.  With weight sharing the lift and first blocks
form a single trunk referenced by both field heads; otherwise each head
carries an independent copy of the whole stack.
"""

from __future__ import annotations

from functools import partial

import numpy as np

from ..nn import BatchNorm, Conv, Dense, Model, Reshape, SeparableConv, Tanh, Upsample
from ..wave import GridSpec
from .variants import VariantSpec

__all__ = ["WIDTH_DEFAULTS", "resolve_widths", "build_model"]

# Desk-scale knobs (64-step time grid, 16x16 zoom window); the sweep
# config overrides these for its reduced grid.
WIDTH_DEFAULTS = {
    "fc.width": 128,
    "fcb.width": 64,
    "conv2d.c0": 32,
    "conv2d.nf": 32,
    "conv2d.k": 5,
    "conv2d.up": 2,
    "conv2dt.c0": 16,
    "conv2dt.nf": 16,
    "conv2dt.k": 5,
    "conv2dt.up": 2,
    "conv3d.nf": 14,
    "conv3d.kt": 7,
    "conv3d.ks": 5,
    "conv3d.kt3": 5,
    "conv3d.ks3": 5,
    "conv3d.mid3_t": 6,
    "conv3d.up_t": 2,
    "conv3d.up_s": 2,
    "conv1db.c0": 16,
    "conv1db.nf": 16,
    "conv1db.k": 5,
    "conv2db.c0": 4,
    "conv2db.nf": 16,
    "conv2db.kt": 5,
    "conv2db.ks": 5,
    "conv2db.up_t": 2,
}


def resolve_widths(overrides: dict | None = None) -> dict[str, int]:
    widths = dict(WIDTH_DEFAULTS)
    if overrides:
        unknown = set(overrides) - set(widths)
        if unknown:
            raise ValueError(f"unknown zoo width keys: {sorted(unknown)}")
        widths.update({k: int(v) for k, v in overrides.items()})
    return widths


def _chain_back(target: int, kernels, ups) -> list[int]:
    """Solve the latent extent of an alternating upsample/conv chain.

    The chain applies, per block i, an upsample by ``ups[i]`` followed by
    a valid conv shrinking by ``kernels[i] - 1``; a trailing entry in
    ``ups`` (one longer than ``kernels``) is the final upsample onto the
    target.  Returns the extent after every step, latent first; raises
    when no integer chain lands on the target.
    """
    sizes = [target]
    n = target
    if n % ups[-1]:
        raise ValueError(f"target extent {target} not divisible by final upsample {ups[-1]}")
    n //= ups[-1]
    sizes.append(n)
    for k, up in zip(reversed(kernels), reversed(ups[:-1])):
        n = n + k - 1
        sizes.append(n)
        if n % up:
            raise ValueError(
                f"no integer chain onto {target} with kernels {kernels} and upsamples {ups}"
            )
        n //= up
        sizes.append(n)
    if n < 1:
        raise ValueError(f"degenerate chain for target {target} (kernels {kernels} too large)")
    return list(reversed(sizes))


def _time_channels(spec, grid, spatial):
    """Output channels and per-sample output shape: every time step, or one slice for (p, t)."""
    return (1, spatial) if spec.time_conditioned else (grid.nt, (grid.nt, *spatial))


def _lift_and_two_blocks(spec, rng, conv, c0, latent, n_f, extents):
    """Dense lift onto ``(c0, *latent)``, then two x2 upsample/conv blocks."""
    def norm(n):
        return [BatchNorm(n)] if spec.batch_norm else []

    ups = (1,) + (2,) * len(latent)
    return [
        Dense(spec.input_dim, c0 * int(np.prod(latent)), rng),
        Reshape((c0, *latent)),
        *norm(c0),
        Tanh(),
        Upsample(ups),
        conv(c0, n_f, extents, rng),
        *norm(n_f),
        Tanh(),
        Upsample(ups),
        conv(n_f, n_f, extents, rng),
        *norm(n_f),
        Tanh(),
    ]


def _stack_3d(spec, grid, w, rng, conv):
    """(t, x, y) conv stack emitting the full zoom field.

    Two wide blocks run at reduced time resolution; a mid upsample grows
    the time axis before the cheap single-filter block, and a final x2
    repeat lands on the target grid.
    """
    n_f, kt, ks = w["conv3d.nf"], w["conv3d.kt"], w["conv3d.ks"]
    kt3, ks3, mid3_t = w["conv3d.kt3"], w["conv3d.ks3"], w["conv3d.mid3_t"]
    up_t, up_s = w["conv3d.up_t"], w["conv3d.up_s"]
    t0 = _chain_back(grid.nt, (kt, kt, kt3), (2, 2, mid3_t, up_t))[0]
    x0 = _chain_back(grid.zoom_nx, (ks, ks, ks3), (2, 2, 1, up_s))[0]
    y0 = _chain_back(grid.zoom_ny, (ks, ks, ks3), (2, 2, 1, up_s))[0]
    prefix = [
        Dense(spec.input_dim, t0 * x0 * y0, rng),
        Reshape((1, t0, x0, y0)),
        Upsample((1, 2, 2, 2)),
        conv(1, n_f, (kt, ks, ks), rng),
        *(([BatchNorm(n_f)] if spec.batch_norm else [])),
        Tanh(),
        Upsample((1, 2, 2, 2)),
        conv(n_f, n_f, (kt, ks, ks), rng),
        *(([BatchNorm(n_f)] if spec.batch_norm else [])),
        Tanh(),
    ]
    final = [
        Upsample((1, mid3_t, 1, 1)),
        conv(n_f, 1, (kt3, ks3, ks3), rng),
        Upsample((1, up_t, up_s, up_s)),
        Reshape((grid.nt, grid.zoom_nx, grid.zoom_ny)),
    ]
    return prefix, final


def _stack_2d(spec, grid, w, rng):
    """2D spatial stack: the time axis as output channels, or one slice for (p, t)."""
    key = "conv2dt" if spec.time_conditioned else "conv2d"
    c0, n_f, k, up = w[f"{key}.c0"], w[f"{key}.nf"], w[f"{key}.k"], w[f"{key}.up"]
    x0 = _chain_back(grid.zoom_nx, (k, k, k), (2, 2, 1, up))[0]
    y0 = _chain_back(grid.zoom_ny, (k, k, k), (2, 2, 1, up))[0]
    prefix = _lift_and_two_blocks(spec, rng, Conv, c0, (x0, y0), n_f, (k, k))
    out_channels, out_shape = _time_channels(spec, grid, (grid.zoom_nx, grid.zoom_ny))
    final = [
        Conv(n_f, out_channels, (k, k), rng),
        Upsample((1, up, up)),
        Reshape(out_shape),
    ]
    return prefix, final


def _stack_fc(spec, grid, w, rng):
    width = w["fcb.width"] if spec.boundary else w["fc.width"]
    if spec.boundary:
        out_shape = (grid.n_boundary,)
    else:
        out_shape = (grid.zoom_nx, grid.zoom_ny)
    out_dim = int(np.prod(out_shape))
    prefix = [
        Dense(spec.input_dim, width, rng),
        *(([BatchNorm(width)] if spec.batch_norm else [])),
        Tanh(),
        Dense(width, width, rng),
        *(([BatchNorm(width)] if spec.batch_norm else [])),
        Tanh(),
    ]
    final = [Dense(width, out_dim, rng)]
    if len(out_shape) > 1:
        final.append(Reshape(out_shape))
    return prefix, final


def _stack_1d_traces(spec, grid, w, rng):
    """Ring-axis 1D convs; time as output channels (or one slice)."""
    c0, n_f, k = w["conv1db.c0"], w["conv1db.nf"], w["conv1db.k"]
    s0 = _chain_back(grid.n_boundary, (k, k, k), (2, 2, 1, 1))[0]
    prefix = _lift_and_two_blocks(spec, rng, Conv, c0, (s0,), n_f, (k,))
    out_channels, out_shape = _time_channels(spec, grid, (grid.n_boundary,))
    return prefix, [Conv(n_f, out_channels, (k,), rng), Reshape(out_shape)]


def _stack_2d_traces(spec, grid, w, rng, conv):
    """(t, ring) 2D conv stack emitting full traces."""
    c0, n_f = w["conv2db.c0"], w["conv2db.nf"]
    kt, ks, up_t = w["conv2db.kt"], w["conv2db.ks"], w["conv2db.up_t"]
    t0 = _chain_back(grid.nt, (kt, kt, kt), (2, 2, 1, up_t))[0]
    s0 = _chain_back(grid.n_boundary, (ks, ks, ks), (2, 2, 1, 1))[0]
    ext = (kt, ks)
    prefix = _lift_and_two_blocks(spec, rng, conv, c0, (t0, s0), n_f, ext)
    final = [
        conv(n_f, 1, ext, rng),
        Upsample((1, up_t, 1)),
        Reshape((grid.nt, grid.n_boundary)),
    ]
    return prefix, final


_BUILDERS = {
    "FC_t": _stack_fc,
    "FC_t_Boundary": _stack_fc,
    "Conv2D": _stack_2d,
    "Conv2D_t": _stack_2d,
    "Conv3D": partial(_stack_3d, conv=Conv),
    # 2D spatial stage, then 1D temporal stage
    "Conv2.5D": partial(_stack_3d, conv=partial(SeparableConv, groups=((1, 2), (0,)))),
    # 1D stages only, last axis first
    "Conv2.5Db": partial(_stack_3d, conv=SeparableConv),
    "Conv1D_Boundary": _stack_1d_traces,
    "Conv1D_t_Boundary": _stack_1d_traces,
    "Conv2D_Boundary": partial(_stack_2d_traces, conv=Conv),
    "Conv1.5D_Boundary": partial(_stack_2d_traces, conv=SeparableConv),
}


def build_model(
    spec: VariantSpec,
    grid: GridSpec,
    widths: dict | None = None,
    seed: int = 0,
    heads: tuple[str, ...] = ("u", "v"),
) -> Model:
    """Construct the model for a variant at the given grid.

    By default both field heads are built; a single-field job passes
    ``heads=("u",)``.  With SL the prefix is built once and shared as
    the trunk; otherwise every head gets an independently initialized
    full stack.  Construction order is fixed, so a seed pins every
    initial weight.
    """
    if not heads or any(h not in ("u", "v") for h in heads):
        raise ValueError(f"heads must be a subset of ('u', 'v'), got {heads}")
    w = resolve_widths(widths)
    builder = _BUILDERS[spec.name]
    rng = np.random.default_rng(seed)
    if spec.shared:
        head_map = {}
        trunk = None
        for h in heads:
            prefix, final = builder(spec, grid, w, rng)
            if trunk is None:
                trunk = prefix
            # later builds' prefixes are discarded; the redraw keeps head
            # inits mutually independent with a deterministic draw order
            head_map[h] = final
    else:
        trunk = []
        head_map = {}
        for h in heads:
            prefix, final = builder(spec, grid, w, rng)
            head_map[h] = prefix + final
    return Model(trunk, head_map, input_shape=(spec.input_dim,), variant=spec.name)
