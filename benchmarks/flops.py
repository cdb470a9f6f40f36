"""Analytic operation and byte counts for the convolution layers.

The counts follow the channel-summed contract of ``sepconvwave.nn``: a
layer sums its input channels once, then correlates that sum with one
kernel per output filter (``Conv``) or with one small kernel per axis
group, stage after stage (``SeparableConv``).  A multiply-add counts as two
operations.

Bytes are *computed*, not measured: each operation reads every operand
once and writes every result once, at the layer's float width.  Cache
misses, im2col window copies and the per-tap temporaries of the stage loops
are ignored, so real memory traffic is higher.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import prod


@dataclass(frozen=True)
class Cost:
    flop: int = 0
    bytes: int = 0

    def __add__(self, other: "Cost") -> "Cost":
        return Cost(self.flop + other.flop, self.bytes + other.bytes)


def _shrink(spatial, extents, axes) -> tuple[int, ...]:
    out = list(spatial)
    for a in axes:
        out[a] = spatial[a] - extents[a] + 1
        if out[a] < 1:
            raise ValueError(f"kernel extents {extents} do not fit {spatial}")
    return tuple(out)


def _sum_and_bias(batch, c_in, n_in, n_out, n_f, item):
    """Channel sum and bias add (forward) and their adjoints (backward)."""
    fwd = {
        "channel_sum": Cost(batch * (c_in - 1) * n_in, item * (batch * c_in * n_in + batch * n_in)),
        "bias": Cost(n_out, item * (2 * n_out + n_f)),
    }
    bwd = {
        "bias": Cost(n_out, item * (n_out + n_f)),
        "channel_broadcast": Cost(0, item * (batch * n_in + batch * c_in * n_in)),
    }
    return fwd, bwd


def conv_ops(c_in: int, n_f: int, extents, x_shape, itemsize: int = 8):
    """Per-operation ``(forward, backward)`` costs of one ``Conv`` call.

    ``x_shape`` is the full input shape ``[batch, c_in, *spatial]``.
    Returns ``{name: (forward Cost, backward Cost)}``; an operation that
    runs in only one direction has ``Cost()`` in the other.
    """
    batch, spatial = x_shape[0], tuple(x_shape[2:])
    extents = tuple(extents)
    out_sp = _shrink(spatial, extents, range(len(extents)))
    n_in, taps = prod(spatial), prod(extents)
    n_out = batch * n_f * prod(out_sp)
    item = itemsize
    fwd, bwd = _sum_and_bias(batch, c_in, n_in, n_out, n_f, item)
    corr = 2 * n_out * taps
    return {
        "channel_sum": (fwd["channel_sum"], bwd["channel_broadcast"]),
        "correlate": (Cost(corr, item * (batch * n_in + n_f * taps + n_out)), Cost()),
        "kernel_grad": (Cost(), Cost(corr, item * (batch * n_in + n_out + n_f * taps))),
        "input_grad": (Cost(), Cost(corr, item * (n_out + n_f * taps + batch * n_in))),
        "bias": (fwd["bias"], bwd["bias"]),
    }


def sepconv_ops(c_in: int, n_f: int, extents, groups, x_shape, itemsize: int = 8,
                stage_activation: bool = False):
    """Per-operation ``(forward, backward)`` costs of one ``SeparableConv`` call.

    Stage ``s`` is reported as ``stage{s}``; its backward pass holds the
    kernel gradient and the input gradient of that stage.  A tanh between
    stages counts one operation per element forward and three backward.
    """
    batch, spatial = x_shape[0], tuple(x_shape[2:])
    extents = tuple(extents)
    item = itemsize
    n_in = prod(spatial)
    final = _shrink(spatial, extents, range(len(extents)))
    fwd, bwd = _sum_and_bias(batch, c_in, n_in, batch * n_f * prod(final), n_f, item)
    ops = {"channel_sum": (fwd["channel_sum"], bwd["channel_broadcast"])}
    cur = spatial
    for s, group in enumerate(groups):
        taps = prod(extents[a] for a in group)
        nxt = _shrink(cur, extents, group)
        elems_in = batch * prod(cur) * (1 if s == 0 else n_f)
        elems_out = batch * n_f * prod(nxt)
        corr = 2 * elems_out * taps
        kernel = n_f * taps
        f = Cost(corr, item * (elems_in + kernel + elems_out))
        b = Cost(2 * corr, item * ((elems_in + elems_out + kernel) + (elems_out + kernel + elems_in)))
        if stage_activation and s < len(groups) - 1:
            f = f + Cost(elems_out, item * 2 * elems_out)
            b = b + Cost(3 * elems_out, item * 3 * elems_out)
        ops[f"stage{s}"] = (f, b)
        cur = nxt
    ops["bias"] = (fwd["bias"], bwd["bias"])
    return ops


def layer_cost(layer, x_shape) -> tuple[Cost, Cost]:
    """Total ``(forward, backward)`` cost of a ``Conv`` or ``SeparableConv`` call."""
    if layer.kind == "conv":
        item = layer.kernel.value.itemsize
        ops = conv_ops(layer.c_in, layer.n_f, layer.extents, x_shape, item)
    elif layer.kind == "sepconv":
        item = layer.bias.value.itemsize
        ops = sepconv_ops(layer.c_in, layer.n_f, layer.extents, layer.groups, x_shape, item,
                          layer.stage_activation)
    else:
        raise ValueError(f"no cost model for layer kind {layer.kind!r}")
    return sum((f for f, _ in ops.values()), Cost()), sum((b for _, b in ops.values()), Cost())
