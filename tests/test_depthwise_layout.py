"""Depthwise stages run along their own axes, against the moved form.

A depthwise stage of ``SeparableConv`` applies its band operator where
its axes lie (``A @ z`` on each ``[group, after]`` slice).  The oracle is
the earlier form of the same stage: the group's axes moved last, a
contiguous copy, ``z @ A^T``, and the result moved back.  Every depthwise
stage shape of the zoo's separable cells on ``desk.cfg`` and
``sweep.cfg`` is checked.  The kernel gradient is the same GEMM in both
forms (every axis but the group's contracted at once, ``before`` major,
then the batch summed), so it is bit-equal.  The forward pass and the
input gradient multiply the same numbers in the other operand order,
which BLAS may round differently on some shapes, so they agree to a few
units in the last place of the largest entry.
"""

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
    view, moved = layers._along(z, group)
    y, plan = layers._banded(view, kernel, factors)
    grad_view, grad_moved = layers._along(grad, group)
    kgrad, gin = layers._banded_backward(grad_view, plan)
    return layers._unalong(y, moved, group), kgrad, layers._unalong(gin, grad_moved, group)


def _depthwise_stages(model):
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
                        stages.add(((BATCH, layer.n_f, *extent), group,
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


@pytest.mark.parametrize("shape, group, extents, factors", list(_cases()))
def test_stage_along_its_axes_matches_the_moved_form(shape, group, extents, factors):
    rng = np.random.default_rng(sum(shape))
    z = rng.standard_normal(shape)
    kernel = rng.standard_normal(shape[1:2] + extents)
    out = list(shape)
    for a, k, f in zip(group, extents, factors):
        out[2 + a] = f * shape[2 + a] - k + 1
    grad = rng.standard_normal(out)

    y, kgrad, gin = _in_place(z, kernel, factors, group, grad)
    ref_y, ref_kgrad, ref_gin = _moved(z, kernel, factors, group, grad)
    assert y.flags.c_contiguous and gin.flags.c_contiguous
    assert np.array_equal(kgrad, ref_kgrad)
    for name, got, ref in (("forward", y, ref_y), ("input grad", gin, ref_gin)):
        assert got.shape == ref.shape, name
        assert np.max(np.abs(got - ref)) <= 8 * np.spacing(np.max(np.abs(ref))), name

