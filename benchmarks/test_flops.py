"""Hand-computed checks of the analytic convolution cost model.

Run with ``PYTHONPATH=src python -m pytest benchmarks/test_flops.py``.
"""

import numpy as np

from flops import Cost, conv_ops, layer_cost, sepconv_ops
from sepconvwave.nn import Conv, SeparableConv


def _totals(ops):
    fwd = sum((f for f, _ in ops.values()), Cost())
    bwd = sum((b for _, b in ops.values()), Cost())
    return fwd, bwd


def test_full_conv_hand_count():
    # x [2, 3, 6, 5], kernel [4, 3, 2]: |S| = 30, out [2, 4, 4, 4], |O| = 16, 6 taps
    ops = conv_ops(c_in=3, n_f=4, extents=(3, 2), x_shape=(2, 3, 6, 5))
    # channel sum: 2*(3-1)*30 adds; reads 2*3*30, writes 2*30 doubles
    assert ops["channel_sum"][0] == Cost(120, 8 * (180 + 60))
    # correlation: 2 * (2*4*16 outputs) * 6 taps; reads sum + kernel, writes output
    assert ops["correlate"][0] == Cost(1536, 8 * (60 + 24 + 128))
    assert ops["bias"][0] == Cost(128, 8 * (128 + 4 + 128))
    # backward: kernel and input gradients each repeat the correlation count
    assert ops["kernel_grad"][1] == Cost(1536, 8 * (60 + 128 + 24))
    assert ops["input_grad"][1] == Cost(1536, 8 * (128 + 24 + 60))
    assert ops["channel_sum"][1] == Cost(0, 8 * (60 + 180))
    assert _totals(ops) == (Cost(1784, 5696), Cost(3200, 6368))


def test_separable_conv_hand_count():
    # x [2, 1, 5, 6, 7], extents (3, 2, 4), 2 filters; 2D stage over axes
    # (1, 2) first (8 taps), then the 1D stage over axis 0 (3 taps)
    ops = sepconv_ops(c_in=1, n_f=2, extents=(3, 2, 4), groups=((1, 2), (0,)),
                      x_shape=(2, 1, 5, 6, 7))
    # stage 0: [2, 5, 6, 7] (420) -> [2, 2, 5, 5, 4] (400)
    assert ops["stage0"][0] == Cost(2 * 400 * 8, 8 * (420 + 16 + 400))
    # stage 1: [2, 2, 5, 5, 4] (400) -> [2, 2, 3, 5, 4] (240)
    assert ops["stage1"][0] == Cost(2 * 240 * 3, 8 * (400 + 6 + 240))
    assert ops["stage1"][1] == Cost(2 * 2 * 240 * 3, 8 * 2 * (400 + 240 + 6))
    assert _totals(ops) == (Cost(8080, 22432), Cost(15920, 32368))


def test_layer_cost_reads_the_layer_shapes():
    rng = np.random.default_rng(0)
    full = Conv(3, 4, (3, 2), rng)
    sep = SeparableConv(1, 2, (3, 2, 4), rng, groups=((1, 2), (0,)))
    assert layer_cost(full, (2, 3, 6, 5)) == (Cost(1784, 5696), Cost(3200, 6368))
    assert layer_cost(sep, (2, 1, 5, 6, 7)) == (Cost(8080, 22432), Cost(15920, 32368))
