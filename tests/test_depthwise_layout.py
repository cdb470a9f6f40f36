"""Depthwise stages run along their own axes, against the moved form.

A depthwise stage of ``SeparableConv`` applies its band operator where
its axes lie (``A @ z`` on each ``[group, after]`` slice).  The oracle is
the earlier form of the same stage: the group's axes moved last, a
contiguous copy, ``z @ A^T``, and the result moved back.  Every depthwise
stage shape of the zoo's separable cells on ``desk.cfg`` and
``sweep.cfg`` is checked.  The in-place form multiplies the same numbers
in another order (the operator on the left, and the kernel gradient
summed per ``before`` slice rather than in one GEMM over every axis but
the group's), which BLAS may round differently, so the forward pass and
both gradients agree to a few units in the last place of the largest
entry.  The backward reads the forward's view of the stage input and its
gradient as they are, so its memory peak holds no copy of either.
"""

import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from sepconvwave.harness import ExperimentConfig, VariantSpec, build_model
from sepconvwave.nn import SeparableConv, Upsample, layers

CONFIGS = Path(__file__).resolve().parent.parent / "configs"
SEPARABLE = ("Conv2.5D", "Conv2.5Db", "Conv1.5D_Boundary")
BATCH = 5


def _moved(z, kernel, factors, group, grad):
    """The stage with its group's axes moved last: forward, kernel gradient, input gradient."""
    source, g = [2 + a for a in group], len(group)
    end = range(z.ndim - g, z.ndim)
    z = np.moveaxis(z, source, end)
    lead, small = z.shape[:-g], z.shape[-g:]
    bands = [layers._band(k, f, n) for k, f, n in zip(kernel.shape[1:], factors, small)]
    op = layers._band_operator(kernel, bands)
    z = np.ascontiguousarray(z).reshape(lead[:2] + (-1, op.shape[2]))
    y = np.matmul(z, np.ascontiguousarray(op.transpose(0, 2, 1)))
    y = np.moveaxis(y.reshape(lead + tuple(band.shape[1] for band in bands)), end, source)
    grad = np.moveaxis(grad, source, end)
    grad = np.ascontiguousarray(grad).reshape(z.shape[:3] + (op.shape[1],))
    dop = np.matmul(grad.transpose(0, 1, 3, 2), z).sum(axis=0)
    gin = np.moveaxis(np.matmul(grad, op).reshape(lead + small), end, source)
    return y, layers._band_operator_adjoint(dop, bands), gin


def _in_place(z, kernel, factors, group, grad):
    """The stage as ``SeparableConv`` runs it, along its axes where they lie."""
    y, plan = layers._banded(z, kernel, group, factors)
    kgrad, gin = layers._banded_backward(grad, plan)
    return y, kgrad, gin


def _depthwise_stages(model, batch=BATCH):
    """``(input shape, group, kernel extents, factors)`` of every depthwise stage.

    A convolution that reads a linked upsample starts from the un-repeated
    input, and each stage folds in its own axes' factors.
    """
    stages = set()
    for part in [model.trunk + layers_ for layers_ in model.heads.values()]:
        shape, before = model.input_shape, None
        for layer in part:
            if isinstance(layer, SeparableConv):
                nd = len(layer.extents)
                linked = isinstance(before, Upsample) and before.linked
                factors = before.factors[1:] if linked else (1,) * nd
                extent = [n // f for n, f in zip(shape[1:], factors)]
                for s, group in enumerate(layer.groups):
                    if s:
                        stages.add(((batch, layer.n_f, *extent), group,
                                    tuple(layer.extents[a] for a in group),
                                    tuple(factors[a] for a in group)))
                    for a in group:
                        extent[a] = factors[a] * extent[a] - layer.extents[a] + 1
            shape, before = layer.output_shape(shape), layer
    return sorted(stages)


def _cases():
    for config in ("desk", "sweep"):
        cfg = ExperimentConfig.from_file(CONFIGS / f"{config}.cfg")
        for name in SEPARABLE:
            model = build_model(VariantSpec(name), cfg.grid(), cfg.zoo_widths)
            for shape, group, extents, factors in _depthwise_stages(model):
                axes = "+".join(map(str, group))
                yield pytest.param(shape, group, extents, factors,
                                   id=f"{config}-{name}-{'x'.join(map(str, shape))}-axis{axes}")


def _stage_arrays(shape, group, extents, factors):
    """A random stage input, kernel and output gradient for this stage."""
    rng = np.random.default_rng(sum(shape))
    z = rng.standard_normal(shape)
    kernel = rng.standard_normal(shape[1:2] + extents)
    out = list(shape)
    for a, k, f in zip(group, extents, factors):
        out[2 + a] = f * shape[2 + a] - k + 1
    return z, kernel, rng.standard_normal(out)


@pytest.mark.parametrize("shape, group, extents, factors", list(_cases()))
def test_stage_along_its_axes_matches_the_moved_form(shape, group, extents, factors):
    z, kernel, grad = _stage_arrays(shape, group, extents, factors)
    y, kgrad, gin = _in_place(z, kernel, factors, group, grad)
    ref_y, ref_kgrad, ref_gin = _moved(z, kernel, factors, group, grad)
    assert y.flags.c_contiguous and gin.flags.c_contiguous
    for name, got, ref in (("forward", y, ref_y), ("kernel grad", kgrad, ref_kgrad),
                           ("input grad", gin, ref_gin)):
        assert got.shape == ref.shape, name
        assert np.max(np.abs(got - ref)) <= 8 * np.spacing(np.max(np.abs(ref))), name


def _desk_stages():
    cfg = ExperimentConfig.from_file(CONFIGS / "desk.cfg")
    for name in SEPARABLE:
        model = build_model(VariantSpec(name), cfg.grid(), cfg.zoo_widths)
        for shape, group, extents, factors in _depthwise_stages(model, batch=cfg.batch_size):
            axes = "+".join(map(str, group))
            yield pytest.param(shape, group, extents, factors,
                               id=f"{name}-{'x'.join(map(str, shape))}-axis{axes}")


@pytest.mark.parametrize("shape, group, extents, factors", list(_desk_stages()))
def test_backward_copies_neither_the_stage_input_nor_its_gradient(shape, group, extents, factors):
    """The backward's peak is its input gradient and the per-slice operator gradients.

    The rest is operator-sized: the summed operator gradient, room for a
    copy of the transposed operator, and 16 KiB for the kernel gradient
    and bookkeeping, each below the smallest stage input or gradient.
    """
    z, kernel, grad = _stage_arrays(shape, group, extents, factors)
    _, plan = layers._banded(z, kernel, group, factors)
    x, op = plan[:2]
    products = 8 * math.prod(x.shape[:3] + op.shape[1:])  # [batch, n_f, before, out, in]
    tracemalloc.start()
    try:
        _, gin = layers._banded_backward(grad, plan)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    slack = 2 * op.nbytes + 16 * 1024
    assert peak <= gin.nbytes + products + slack, (peak, gin.nbytes, products, z.nbytes)
