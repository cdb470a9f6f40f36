"""The windowed-contraction engine behind Conv and SeparableConv.

The batch-chunked path is forced by lowering the chunk budget and checked
against the one-chunk result and the ``conv_valid`` oracle; a property
test checks every grouping of the separable layer against the full
convolution loaded with its equivalent kernels.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sepconvwave.nn import Conv, SeparableConv
from sepconvwave.nn import layers
from sepconvwave.tensor_core import conv_valid

BATCH, N_F, TAPS = 7, 3, (2, 3)


def _stage_input(rng, depthwise):
    # one leading non-convolved axis of 2, then the two correlated axes
    lead = (BATCH, N_F) if depthwise else (BATCH,)
    return rng.standard_normal(lead + (2, 6, 7))


def _engine(z, kernel, grad, depthwise):
    out = layers._correlate(z, TAPS, depthwise, kernel)
    kgrad = layers._correlate(z, TAPS, depthwise, grad, kernel_grad=True)
    igrad = layers._correlate_input_grad(grad, kernel, depthwise)
    return out, kgrad, igrad


def _oracle(z, kernel, grad, depthwise):
    out = np.zeros(grad.shape)
    kgrad = np.zeros(kernel.shape)
    igrad = np.zeros(z.shape)
    flipped = kernel[:, ::-1, ::-1]
    pad = [(k - 1, k - 1) for k in TAPS]
    for b, f, r in np.ndindex(BATCH, N_F, 2):
        zi = (b, f, r) if depthwise else (b, r)
        out[b, f, r] = conv_valid(z[zi], kernel[f])
        kgrad[f] += conv_valid(z[zi], grad[b, f, r])
        igrad[zi] += conv_valid(np.pad(grad[b, f, r], pad), flipped[f])
    return out, kgrad, igrad


@pytest.mark.parametrize("depthwise", [False, True], ids=["stage0", "depthwise"])
def test_chunked_path_matches_one_chunk_and_oracle(monkeypatch, depthwise):
    rng = np.random.default_rng(40)
    z = _stage_input(rng, depthwise)
    kernel = rng.standard_normal((N_F,) + TAPS)
    grad = rng.standard_normal((BATCH, N_F, 2, 5, 5))
    one_chunk = _engine(z, kernel, grad, depthwise)

    per_sample = int(np.prod(z.shape[1:-2])) * 5 * 5 * int(np.prod(TAPS))
    monkeypatch.setattr(layers, "_CHUNK_BUDGET", 2 * per_sample)
    chunk_counts = []
    batch_chunks = layers._batch_chunks

    def counting(n_batch, per_sample_elements):
        chunks = list(batch_chunks(n_batch, per_sample_elements))
        chunk_counts.append(len(chunks))
        return chunks

    monkeypatch.setattr(layers, "_batch_chunks", counting)
    chunked = _engine(z, kernel, grad, depthwise)
    # forward and kernel gradient: batch 7 in chunks of 2; the input
    # gradient's own window copies are at least as large
    assert chunk_counts[:2] == [4, 4] and chunk_counts[2] >= 4

    for name, a, b, ref in zip(("forward", "kernel grad", "input grad"), one_chunk, chunked,
                               _oracle(z, kernel, grad, depthwise)):
        assert a.shape == ref.shape, name
        assert np.max(np.abs(b - a)) < 1e-12, name
        assert np.max(np.abs(b - ref)) < 1e-12, name


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
