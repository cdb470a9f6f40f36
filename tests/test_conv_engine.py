"""The two engines behind Conv and SeparableConv.

Stage 0 is a windowed contraction: its batch-chunked path is forced by
lowering the chunk budget before its plan is built, and checked against
the one-chunk result and the ``conv_valid`` oracle.  A depthwise stage
is one banded operator per filter, and stage 0 reads an upsample through
the same band's rows (polyphase form): both are checked against
``conv_valid`` on an explicit repeat of their input.  A property test
checks every grouping of the separable layer against the full
convolution loaded with its equivalent kernels.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sepconvwave.nn import Conv, SeparableConv
from sepconvwave.nn import layers
from sepconvwave.tensor_core import conv_valid

BATCH, N_F, TAPS = 7, 3, (2, 3)


def _engine(z, kernel, grad):
    # stage 0 at factor 1 on every axis: one phase, whose merged kernel is the kernel;
    # its group is the trailing spatial axes
    group = tuple(range(z.ndim - 1 - len(TAPS), z.ndim - 1))
    out, stage = layers._polyphase(z, kernel, group, (1,) * len(TAPS))
    kgrad, igrad = layers._polyphase_backward(grad, stage)
    return (out, kgrad, igrad), stage[2].chunks


def _oracle(z, kernel, grad, filter_axis):
    """Per-slice ``conv_valid`` of the trailing axes; ``z`` holds the filter axis or not."""
    out = np.zeros(grad.shape)
    kgrad = np.zeros(kernel.shape)
    igrad = np.zeros(z.shape)
    g = kernel.ndim - 1
    flipped = kernel[(slice(None),) + (slice(None, None, -1),) * g]
    pad = [(k - 1, k - 1) for k in kernel.shape[1:]]
    for idx in np.ndindex(*grad.shape[:-g]):
        b, f, rest = idx[0], idx[1], idx[2:]
        zi = (b, f) + rest if filter_axis else (b,) + rest
        out[idx] = conv_valid(z[zi], kernel[f])
        kgrad[f] += conv_valid(z[zi], grad[idx])
        igrad[zi] += conv_valid(np.pad(grad[idx], pad), flipped[f])
    return out, kgrad, igrad


@pytest.mark.parametrize("rest", [(2,)], ids=["stage0"])
def test_chunked_path_matches_one_chunk_and_oracle(monkeypatch, rest):
    rng = np.random.default_rng(40)
    z = rng.standard_normal((BATCH,) + rest + (6, 7))
    kernel = rng.standard_normal((N_F,) + TAPS)
    grad = rng.standard_normal((BATCH, N_F) + rest + (5, 5))
    # the chunk bounds are fixed when a plan is built: build this test's
    # plans afresh, and drop the small-chunk plan afterwards
    layers._stage0_plan.cache_clear()
    one_chunk, one_chunk_bounds = _engine(z, kernel, grad)

    # a sample's scratch: its window copy (taps per output) and its N_F outputs
    per_sample = int(np.prod(rest)) * 5 * 5 * (int(np.prod(TAPS)) + N_F)
    monkeypatch.setattr(layers, "_CHUNK_BUDGET", 2 * per_sample)
    layers._stage0_plan.cache_clear()
    try:
        chunked, chunk_bounds = _engine(z, kernel, grad)
    finally:
        layers._stage0_plan.cache_clear()
    # forward, kernel gradient and input gradient share the bounds: batch 7 in chunks of 2
    assert len(one_chunk_bounds) == 1 and len(chunk_bounds) == 4

    for name, a, b, ref in zip(("forward", "kernel grad", "input grad"), one_chunk, chunked,
                               _oracle(z, kernel, grad, filter_axis=False)):
        assert a.shape == ref.shape, name
        assert np.max(np.abs(b - a)) < 1e-12, name
        assert np.max(np.abs(b - ref)) < 1e-12, name


@pytest.mark.parametrize("factors, taps, small", [
    ((1,), (3,), (6,)),
    ((2,), (5,), (4,)),
    ((6,), (5,), (3,)),
    ((6,), (2,), (2,)),  # k < f: some outputs read a single entry
    ((1, 1), (2, 3), (4, 5)),
    ((2, 6), (3, 4), (3, 2)),
    ((6, 2), (1, 5), (2, 4)),
], ids=lambda v: "x".join(map(str, v)))
def test_banded_stage_matches_conv_of_the_repeat(factors, taps, small):
    """Both engines read the un-repeated input: a depthwise stage and stage 0.

    Each is checked against ``conv_valid`` on an explicit ``np.repeat`` of
    its input: the depthwise stage per filter slice, stage 0 on the input
    every filter shares.
    """
    rng = np.random.default_rng(41)
    z = rng.standard_normal((BATCH, N_F, 2) + small)
    kernel = rng.standard_normal((N_F,) + taps)
    out_shape = tuple(f * n - k + 1 for f, n, k in zip(factors, small, taps))
    grad = rng.standard_normal((BATCH, N_F, 2) + out_shape)
    shared = rng.standard_normal((BATCH, 2) + small)
    engines = [("banded", z, layers._banded, layers._banded_backward, True),
               ("stage 0", shared, layers._polyphase, layers._polyphase_backward, False)]
    for engine, x, forward, backward, filter_axis in engines:
        out, plan = forward(x, kernel, tuple(range(1, 1 + len(factors))), factors)
        kgrad, igrad = backward(grad, plan)
        repeated = x
        for axis, f in enumerate(factors, start=x.ndim - len(factors)):
            repeated = np.repeat(repeated, f, axis=axis)
        ref_out, ref_kgrad, ref_igrad = _oracle(repeated, kernel, grad, filter_axis)
        # the repeat's adjoint sums each block of copies
        for axis, f in enumerate(factors, start=x.ndim - len(factors)):
            shape = ref_igrad.shape[:axis] + (ref_igrad.shape[axis] // f, f) + ref_igrad.shape[axis + 1:]
            ref_igrad = ref_igrad.reshape(shape).sum(axis=axis + 1)
        for name, got, ref in (("forward", out, ref_out), ("kernel grad", kgrad, ref_kgrad),
                               ("input grad", igrad, ref_igrad)):
            assert got.shape == ref.shape, (engine, name)
            assert np.max(np.abs(got - ref)) < 1e-12 * max(1.0, np.max(np.abs(ref))), (engine, name)


@st.composite
def _layer_cases(draw):
    nd = draw(st.integers(1, 3))
    extents = tuple(draw(st.integers(1, 4)) for _ in range(nd))
    order = draw(st.permutations(range(nd)))
    cuts = sorted(draw(st.sets(st.integers(1, nd - 1), max_size=nd - 1))) if nd > 1 else []
    bounds = [0, *cuts, nd]
    groups = tuple(tuple(order[a:b]) for a, b in zip(bounds, bounds[1:]))
    spatial = tuple(e + draw(st.integers(0, 3)) for e in extents)
    c_in, n_f, batch = draw(st.integers(1, 3)), draw(st.integers(1, 3)), draw(st.integers(1, 3))
    return extents, groups, spatial, c_in, n_f, batch, draw(st.integers(0, 2**32 - 1))


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(_layer_cases())
# a depthwise stage along a middle axis, and a group of two non-adjacent
# axes out of order, which the layer moves next to each other first
@example(((2, 3, 2), ((2,), (1,), (0,)), (4, 5, 3), 2, 3, 2, 5))
@example(((2, 3, 2), ((1,), (2, 0)), (4, 5, 3), 2, 3, 2, 6))
def test_separable_equals_full_conv_with_equivalent_kernels(case):
    extents, groups, spatial, c_in, n_f, batch, seed = case
    rng = np.random.default_rng(seed)
    sep = SeparableConv(c_in, n_f, extents, rng, groups=groups)
    full = Conv(c_in, n_f, extents, rng)
    full.kernel.value[...] = sep.equivalent_kernels()
    full.bias.value[...] = sep.bias.value
    x = rng.standard_normal((batch, c_in) + spatial)
    out_sep = sep.forward(x, training=True)
    out_full = full.forward(x, training=True)
    scale = max(1.0, np.max(np.abs(out_full)))
    expected_shape = (batch,) + full.output_shape((c_in,) + spatial)
    assert out_sep.shape == out_full.shape == expected_shape
    assert np.max(np.abs(out_sep - out_full)) < 1e-12 * scale
    grad = rng.standard_normal(out_full.shape)
    gin_sep, gin_full = sep.backward(grad), full.backward(grad)
    assert np.max(np.abs(gin_sep - gin_full)) < 1e-12 * max(1.0, np.max(np.abs(gin_full)))
