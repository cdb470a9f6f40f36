"""Trainable layers with explicit forward/backward passes.

Every layer consumes a batch-first float64 array.  A training-mode
forward (``training=True``) stores what the layer's backward pass needs,
and that backward takes the cache and clears it, so activations live
only from a training forward to its backward: an eval-mode forward
stores nothing, and frees each separable stage's input once that stage
is done.  A backward without a training forward before it raises
``RuntimeError``.  ``Upsample`` keeps no state at all: its backward
needs nothing from a forward, so it may run without one.  A backward
may return a read-only view, so no layer writes to the gradient it
receives.

A layer's ``state()`` is its persistent tensors, the parameters and
``BatchNorm``'s running statistics, given as the layer's own arrays.
Layers have no load path of their own:
:meth:`sepconvwave.nn.Model.load_state_dict` checks every name, shape
and value and then writes into those arrays.

Convolutions follow the channel-summed contract: one kernel per output
channel, applied to the sum over input channels, stride 1, no padding,
so :func:`sepconvwave.tensor_core.conv_valid` of the channel sum is
their reference.  The separable layer replaces each d-way kernel with a
sequence of small per-stage kernels (one per axis group), each applied
along its own axes, so a filter costs the sum of its extents instead of
their product; the full convolution ``Conv`` is its one-stage case, a single
group holding every axis.  The stages are linear, so the layer is the
convolution with the outer product of its stage kernels (a rank-1 CP
format), whatever order the stages run in.

A convolution can read a nearest-neighbour upsample without the repeat
being built (resize-convolution; Odena, Dumoulin & Olah 2016, and the
sub-pixel identity of Shi et al. 2016): every stage computes the valid
correlation of its input repeated f-fold from the un-repeated input.  A
stage folds only its own axes' repeats: the others commute with it and
wait for their stage.  The input gradient lands on the un-repeated
tensor, and a factor of 1 is the degenerate case of the same code.
:class:`~sepconvwave.nn.Model` links each upsample that a convolution
reads directly; a linked :class:`Upsample` passes the convolution a
NaN-filled stand-in of the repeated shape that carries the un-repeated
tensor and the factors.

Both engines below read one 0/1 band per axis, ``S[t, o, i] = 1 iff
(o + t) // f == i``, of shape ``[k, f*n - k + 1, n]``: it writes the
correlation of the signal repeated f-fold as a matrix on the un-repeated
one, and the kernel contracted with its axes' bands is a dense operator
``A[n_f, out, in]``, with ``n_f * prod(f*n - k + 1) * prod(n)`` entries.

* Stage 0 (all of ``Conv``, and the first stage of every separable
  layer) reads the input shared by every filter.  Its geometry is
  planned once per input shape, kernel shape and factors
  (:func:`_stage0_plan`), and every call executes the plan.  One
  ``einsum`` contraction over a read-only sliding-window view gives the
  forward pass and, with the output gradient in the kernel's place, the
  kernel gradient; its adjoint, a scatter-add of taps (col2im), gives the
  input gradient.  The repeat enters in polyphase form: output phase
  p < f is a valid correlation of the un-repeated signal with the merged
  kernel, row p of the band operator, which has ``(p + k - 1) // f + 1``
  taps (at f = 2, 7 taps become 4 and 5 become 3).  Each phase is
  written right after its output position, so one reshape interleaves
  them (depth-to-space) before the crop to ``f * n - k + 1``.
* A depthwise stage (every later stage; each filter convolves its own
  slice) is the whole band operator, one small dense matrix per filter,
  applied by a batched matrix product where the group's axes lie
  (:func:`_along`).  With the stage input viewed as ``[batch, n_f,
  before, group, after]``, the forward pass is ``A @ z``, the input
  gradient ``A^T @ g`` and the operator gradient ``g @ z^T`` summed over
  batch and ``before``, which the bands' adjoint turns into the kernel
  gradient.  On a group whose axes are adjacent and in order, as in every
  layer of the zoo, neither pass moves an axis or copies the input or its
  gradient, and the output is C-ordered.

The whole operator pays ``prod(n)`` multiply-adds per output, not k taps,
which is cheap for the short one-axis groups of a depthwise stage but
not for stage 0: for Conv3D's second layer at desk scale a three-axis
operator would hold 14 * 864 * 384 = 4.6M entries (37 MB) and cost 116M
multiply-adds per forward at batch 25, against 11M for the windowed
contraction (36 merged taps per output).

Each engine takes a stage's input as :class:`SeparableConv` holds it
(``[batch, *spatial]`` at stage 0, ``[batch, n_f, *spatial]`` later),
makes its own axis moves and undoes them in its backward, so the layer's
forward and backward are each one engine call per stage.
"""

from __future__ import annotations

import functools
import math
from typing import NamedTuple

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

__all__ = [
    "Parameter",
    "Layer",
    "Dense",
    "Conv",
    "SeparableConv",
    "BatchNorm",
    "Tanh",
    "Reshape",
    "Upsample",
]


class Parameter:
    """A trainable tensor together with its accumulated gradient."""

    __slots__ = ("value", "grad")

    def __init__(self, value: np.ndarray):
        self.value = np.ascontiguousarray(value, dtype=np.float64)
        self.grad = np.zeros_like(self.value)

    @property
    def size(self) -> int:
        return self.value.size


class Layer:
    """Base layer: shape propagation, parameters, persistent state."""

    kind = "layer"
    _cache = None

    def _take_cache(self):
        """The last training forward's cache, cleared; its backward takes it once."""
        cache, self._cache = self._cache, None
        if cache is None:
            raise RuntimeError(f"{self.kind} backward without a preceding training forward")
        return cache

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        raise NotImplementedError

    def backward(self, grad: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def output_shape(self, in_shape: tuple[int, ...]) -> tuple[int, ...]:
        """Per-sample output shape for a per-sample input shape."""
        raise NotImplementedError

    def parameters(self) -> list[tuple[str, Parameter]]:
        return []

    def state(self) -> dict[str, np.ndarray]:
        """Every persistent tensor (trainable or not): the layer's own arrays."""
        return {name: p.value for name, p in self.parameters()}


def _uniform_init(rng: np.random.Generator, shape, fan_in: int) -> np.ndarray:
    bound = np.sqrt(1.0 / max(fan_in, 1))
    return rng.uniform(-bound, bound, size=shape)


# the float64s one stage-0 chunk may hold as scratch (8 MiB), unless one
# sample's scratch is larger: its copy of the sliding-window view (taps x
# outputs, the im2col cost) and the contraction's output, which ``einsum``
# builds before writing it into the layer's; the backward's columns and
# transposed gradient are the same sizes.  At 8 MiB a full 5x5x5 Conv on
# Conv2.5D's largest desk input, whose window copy at batch 25 is 49 MiB,
# runs in chunks of 4, while the largest desk Conv3D, Conv2.5D and
# Conv2.5Db layer at batch 25 (537,600 float64s) stays one chunk
_CHUNK_BUDGET = 1_048_576


@functools.lru_cache(maxsize=256)
def _band(k: int, f: int, n: int) -> np.ndarray:
    """0/1 band of a ``k``-tap valid correlation read through an ``f``-fold repeat.

    ``S[t, o, i]`` is 1 where tap ``t`` of output ``o`` reads entry ``i``
    of the un-repeated signal, ``(o + t) // f == i``; its shape is
    ``[k, f * n - k + 1, n]``.  So ``sum_t K[t] S[t]`` is the correlation
    of the repeated signal with ``K``, as a matrix on the un-repeated one.
    Row ``p < f`` of that matrix is output phase p's merged kernel, which
    :func:`_stage0_plan` reads with ``n`` the longest phase's tap count,
    ``(f + k - 2) // f + 1``.  Read-only, because every caller shares it.
    """
    t, o = np.ogrid[:k, :f * n - k + 1]
    band = np.zeros((k, f * n - k + 1, n))
    band[t, o, (o + t) // f] = 1.0
    band.flags.writeable = False
    return band


def _band_operator(kernel: np.ndarray, bands) -> np.ndarray:
    """The kernel as one matrix per filter, ``A[n_f, prod(out), prod(in)]``.

    The kernel is contracted with each axis's band; a multi-axis group
    gets the Kronecker product of its axes' bands.  On whole bands this
    is a depthwise stage's operator; on their first f rows it gives stage
    0's merged kernels.
    """
    op = kernel
    for band in bands:
        op = np.tensordot(op, band, axes=([1], [0]))
    g = len(bands)
    op = op.transpose(0, *range(1, 2 * g, 2), *range(2, 2 * g + 1, 2))
    return op.reshape(len(kernel), -1, int(np.prod([band.shape[2] for band in bands])))


def _band_operator_adjoint(grad: np.ndarray, bands) -> np.ndarray:
    """Adjoint of :func:`_band_operator`: the kernel gradient from the operator's."""
    g = len(bands)
    shape = tuple(band.shape[1] for band in bands) + tuple(band.shape[2] for band in bands)
    out = grad.reshape((len(grad),) + shape)
    out = out.transpose(0, *(a for i in range(g) for a in (1 + i, 1 + g + i)))
    for band in bands:
        out = np.tensordot(out, band, axes=([1, 2], [1, 2]))
    return out


class _Stage0(NamedTuple):
    """Stage 0's geometry for one input shape, kernel shape and factor tuple.

    The input ``[batch, *rest, *small]`` is correlated over its trailing
    axes with the merged kernels ``[n_f, *phases, *taps]``; a factor-1
    axis has one phase and no phase axis.  The output is ``[batch, n_f,
    *rest, q1, p1, q2, p2, ...]``, each phase axis after its position
    axis.  It holds only shapes, slices and the shared read-only bands.
    """

    taps: tuple  # merged taps per axis, the longest phase's: (f + k - 2) // f + 1
    bands: tuple  # each axis's first f band rows: the phases' merged kernels
    phase_shape: tuple  # the merged kernels, [n_f, *phases, *taps]
    pad: tuple  # np.pad widths of the input, () if none
    axes: tuple  # the correlated (trailing) axes of the input
    forward: str  # einsum subscripts: windows, merged kernels -> output
    kernel_grad: str  # windows, output gradient -> merged kernels' gradient
    input_grad: str  # output gradient, merged kernels -> columns, taps first
    chunks: tuple  # batch slices whose scratch (window copy + output) fits _CHUNK_BUDGET
    interleaved: tuple  # the output with each phase merged into its position
    crop: tuple  # index of the f * n - k + 1 valid outputs per axis
    grad_pad: tuple  # np.pad widths of the output gradient over the cropped phases
    positions: tuple  # the padded gradient as (position, phase) pairs
    padded: tuple  # the padded input's shape, onto which col2im scatters
    slabs: tuple  # (tap, input slab) pairs of the col2im scatter-add
    unpad: tuple  # index of the un-padded input within ``padded``


@functools.lru_cache(maxsize=256)
def _stage0_plan(shape, kernel_shape, factors) -> _Stage0:
    """The :class:`_Stage0` record of these shapes, worked out once and shared."""
    g, extents = len(factors), kernel_shape[1:]
    lead, small = shape[:-g], shape[-g:]
    taps = tuple((f + k - 2) // f + 1 for f, k in zip(factors, extents))
    # a phase one tap shorter than the longest reads one entry past the end
    pad = tuple(t - (k - 1) // f - 1 for f, k, t in zip(factors, extents, taps))
    padded = lead + tuple(n + p for n, p in zip(small, pad))
    n_out = tuple(n - t + 1 for n, t in zip(padded[-g:], taps))
    valid = tuple(f * n - k + 1 for f, n, k in zip(factors, small, extents))
    extra = tuple(f * n - v for f, n, v in zip(factors, n_out, valid))
    phases = tuple((f,) if f > 1 else () for f in factors)
    rest, out, tap = "ghi"[: len(shape) - g - 1], "lmn"[:g], "pqr"[:g]
    phase = tuple(p * len(f) for p, f in zip("stu", phases))
    win, ker = "b" + rest + out + tap, "f" + "".join(phase) + tap
    res = "bf" + rest + "".join(q + p for q, p in zip(out, phase))
    head = (shape[0], kernel_shape[0]) + lead[1:]
    positions = head + sum(((n,) + f for n, f in zip(n_out, phases)), ())
    # one sample's scratch: its window copy and its rows of the contraction's output
    scratch = math.prod(padded[1:-g] + n_out + taps) + math.prod(positions[1:])
    step = max(1, _CHUNK_BUDGET // max(scratch, 1))
    return _Stage0(
        taps=taps,
        bands=tuple(_band(k, f, t)[:, :f] for k, f, t in zip(extents, factors, taps)),
        phase_shape=kernel_shape[:1] + sum(phases, ()) + taps,
        pad=tuple((0, p) for p in (0,) * len(lead) + pad) if any(pad) else (),
        axes=tuple(range(len(shape) - g, len(shape))),
        forward=f"{win},{ker}->{res}",
        kernel_grad=f"{win},{res}->{ker}",
        input_grad=f"{res},{ker}->{tap}{win[:-g]}",
        chunks=tuple(slice(a, a + step) for a in range(0, shape[0], step)),
        interleaved=head + tuple(f * n for f, n in zip(factors, n_out)),
        crop=(Ellipsis,) + tuple(slice(n) for n in valid),
        grad_pad=tuple((0, p) for p in (0,) * len(head) + extra) if any(extra) else (),
        positions=positions,
        padded=padded,
        slabs=tuple((t, (Ellipsis,) + tuple(slice(i, i + n) for i, n in zip(t, n_out)))
                    for t in np.ndindex(*taps)),
        unpad=(Ellipsis,) + tuple(slice(n) for n in small),
    )


def _polyphase(z: np.ndarray, kernel: np.ndarray, group, factors):
    """Stage 0: valid correlation of ``z`` repeated ``factors``-fold along ``group``'s axes.

    ``z`` is ``[batch, *spatial]``, the input every filter shares.  The
    group's axes are moved last, and :func:`_stage0_plan`'s geometry
    is executed on them (see the module docstring): the merged kernels
    from ``kernel``, one contraction per batch chunk over a sliding-window
    view, written into that chunk's rows of one output, one reshape to
    interleave the phases and one slice to crop.  The output ``[batch,
    n_f, *spatial]`` has the group's axes back in their places.  Returns
    it and ``(moved input, merged kernels, plan, group)`` for
    :func:`_polyphase_backward`.
    """
    z = np.moveaxis(z, [1 + a for a in group], range(-len(group), 0))
    plan = _stage0_plan(z.shape, kernel.shape, factors)
    phase = _band_operator(kernel, plan.bands).reshape(plan.phase_shape)
    if plan.pad:
        z = np.pad(z, plan.pad)
    windows = sliding_window_view(z, plan.taps, axis=plan.axes)
    y = np.empty(plan.positions)
    for rows in plan.chunks:
        np.einsum(plan.forward, windows[rows], phase, out=y[rows], optimize=True)
    y = y.reshape(plan.interleaved)[plan.crop]
    return np.moveaxis(y, range(-len(group), 0), [2 + a for a in group]), (z, phase, plan, group)


def _polyphase_backward(grad: np.ndarray, stage):
    """Kernel and input gradients of :func:`_polyphase`, the input's un-repeated.

    Executes the forward's plan on ``grad`` with the group's axes moved
    last, and moves them back on the input gradient.  The output gradient,
    zero-padded over the cropped phases, is viewed as (position, phase)
    pairs (space-to-depth).  The merged kernels' gradient is the forward's
    contraction with the gradient in the kernel's place, scatter-added
    onto the kernel's taps by :func:`_band_operator_adjoint`; the input
    gradient is the contraction's adjoint, adding the phases up on ``z``.
    """
    z, phase, plan, group = stage
    grad = np.moveaxis(grad, [2 + a for a in group], range(-len(group), 0))
    if plan.grad_pad:
        grad = np.pad(grad, plan.grad_pad)
    grad = grad.reshape(plan.positions)
    windows = sliding_window_view(z, plan.taps, axis=plan.axes)
    dphase, gin = 0, np.zeros(plan.padded)
    for rows in plan.chunks:
        dphase = dphase + np.einsum(plan.kernel_grad, windows[rows], grad[rows], optimize=True)
        cols = np.einsum(plan.input_grad, grad[rows], phase, optimize=True)
        part = gin[rows]
        for tap, slab in plan.slabs:
            part[slab] += cols[tap]
    gin = np.moveaxis(gin[plan.unpad], range(-len(group), 0), [1 + a for a in group])
    return _band_operator_adjoint(dphase.reshape(len(dphase), -1), plan.bands), gin


def _banded(z: np.ndarray, kernel: np.ndarray, group, factors):
    """A depthwise stage: valid correlation of ``z`` repeated ``factors``-fold along ``group``.

    ``z`` is ``[batch, n_f, *spatial]``, and each filter correlates its
    own slice over the group's axes.  The stage is one dense operator per
    filter (:func:`_band_operator`) applied as ``A @ z`` to each ``[group,
    after]`` slice of :func:`_along`'s view, so the input is never
    transposed, the output is C-ordered, and the repeat is never built.
    The operator has ``n_f * prod(f*n - k + 1) * prod(n)`` entries and
    costs ``prod(n)`` multiply-adds per output in place of k taps; for
    the one-axis groups of the zoo on the committed configs that is at
    most 11,520 entries (Conv1.5D_Boundary on ``desk.cfg``).  Returns the
    output ``[batch, n_f, *spatial]`` and ``(view, operator, bands, group,
    moved shape)`` for :func:`_banded_backward`.
    """
    x, moved = _along(z, group)
    lo, g = 2 + min(group), len(group)
    bands = [_band(k, f, n) for k, f, n in zip(kernel.shape[1:], factors, moved[lo:lo + g])]
    op = _band_operator(kernel, bands)
    out = moved[:lo] + tuple(band.shape[1] for band in bands) + moved[lo + g:]
    return _unalong(np.matmul(op[:, None], x), out, group), (x, op, bands, group, moved)


def _banded_backward(grad: np.ndarray, plan):
    """Kernel and input gradients of :func:`_banded`, the input's un-repeated.

    On each ``[group, after]`` slice of the forward's view and of
    :func:`_along`'s view of ``grad``, the input gradient is ``A^T @ g``
    and the operator gradient ``g @ z^T``, summed over batch and
    ``before`` and turned into the kernel gradient by the bands' adjoint.
    For a group whose axes are adjacent and in order, neither view is a copy.
    """
    x, op, bands, group, moved = plan
    grad = _along(grad, group)[0]
    gin = np.matmul(op.transpose(0, 2, 1)[:, None], grad)
    dop = np.matmul(grad, x.swapaxes(3, 4)).sum(axis=(0, 2))
    return _band_operator_adjoint(dop, bands), _unalong(gin, moved, group)


def _along(z: np.ndarray, group):
    """``z [batch, n_f, *spatial]`` viewed as ``[batch, n_f, before, group, after]``.

    The group's axes are moved next to each other, in group order, at
    the first one's place: a no-op when they are adjacent and in order,
    as in every layer of the zoo.  The axes before, in and after the
    group are then flattened into one each (extent 1 when there are
    none).  Returns that view and the moved shape, for :func:`_unalong`.
    """
    lo, g = 2 + min(group), len(group)
    z = np.moveaxis(z, [2 + a for a in group], range(lo, lo + g))
    flat = (math.prod(z.shape[2:lo]), math.prod(z.shape[lo:lo + g]), math.prod(z.shape[lo + g:]))
    return z.reshape(z.shape[:2] + flat), z.shape


def _unalong(y: np.ndarray, moved, group) -> np.ndarray:
    """:func:`_along` undone: ``y`` reshaped to the moved shape and its group axes put back."""
    lo, g = 2 + min(group), len(group)
    return np.moveaxis(y.reshape(moved), range(lo, lo + g), [2 + a for a in group])


class Dense(Layer):
    """Affine map on the trailing feature axis: ``y = x W^T + b``."""

    kind = "dense"

    def __init__(self, n_in: int, n_out: int, rng: np.random.Generator):
        self.n_in = n_in
        self.n_out = n_out
        self.weight = Parameter(_uniform_init(rng, (n_out, n_in), n_in))
        self.bias = Parameter(_uniform_init(rng, (n_out,), n_in))

    def forward(self, x, training=False):
        self.output_shape(x.shape[1:])
        self._cache = x if training else None
        return x @ self.weight.value.T + self.bias.value

    def backward(self, grad):
        x = self._take_cache()
        self.weight.grad += grad.T @ x
        self.bias.grad += grad.sum(axis=0)
        return grad @ self.weight.value

    def output_shape(self, in_shape):
        if in_shape != (self.n_in,):
            raise ValueError(f"dense expects ({self.n_in},), got {in_shape}")
        return (self.n_out,)

    def parameters(self):
        return [("weight", self.weight), ("bias", self.bias)]


class SeparableConv(Layer):
    """A-priori decomposed convolution: one small kernel per axis group.

    ``groups`` lists spatial-axis tuples in application order; the
    default decomposes fully into 1D stages applied from the last spatial
    axis to the first, mirroring the reshape/transpose pipeline (apply
    the spatial kernel along the trailing axis, transpose, apply the
    temporal kernel, combine, add bias).  A 2.5D layer over (t, x, y)
    uses ``groups=((1, 2), (0,))``: a 2D spatial stage then a 1D temporal
    stage.  The layer stores ``n_f * sum(group sizes)`` kernel weights
    plus ``n_f`` biases, never the full product.

    Stage 0 runs every filter over the channel-summed input, as a
    windowed contraction; each later stage is depthwise, each filter
    convolving its own slice, as one banded operator per filter (see the
    module docstring).  A depthwise group of several axes gets the
    Kronecker product of its axes' bands; only hand-passed ``groups``
    make one.

    Every stage is linear, so the layer is one linear map: it equals
    ``Conv`` loaded with :meth:`equivalent_kernels` up to rounding, and
    ``groups`` fixes only the order in which the stages run.

    The output is C-ordered.  The input gradient, the same for every
    input channel, is a read-only broadcast view of the gradient of the
    channel sum.
    """

    kind = "sepconv"
    # the stages are always linear; benchmarks/flops.py:118 (layer_cost)
    # still reads this flag in traced runs, so it stays until that read goes
    stage_activation = False

    def __init__(self, c_in: int, n_f: int, extents, rng: np.random.Generator, groups=None):
        self.c_in = c_in
        self.n_f = n_f
        self.extents = tuple(int(e) for e in extents)
        if any(e < 1 for e in self.extents):
            raise ValueError(f"kernel extents must be >= 1, got {self.extents}")
        nd = len(self.extents)
        if groups is None:
            groups = tuple((a,) for a in reversed(range(nd)))
        self.groups = tuple(tuple(g) for g in groups)
        covered = sorted(a for g in self.groups for a in g)
        if covered != list(range(nd)):
            raise ValueError(f"groups {self.groups} must partition axes 0..{nd - 1}")
        fan_in = self._fan_in()
        self.stage_kernels = [
            Parameter(_uniform_init(rng, (n_f,) + tuple(self.extents[a] for a in g), fan_in))
            for g in self.groups
        ]
        self.bias = Parameter(_uniform_init(rng, (n_f,), fan_in))

    def _fan_in(self) -> int:
        return self.c_in * sum(self.extents)

    def equivalent_kernels(self) -> np.ndarray:
        """Full kernels ``[n_f, *extents]`` as outer products of the stages."""
        full = np.ones((self.n_f,) + (1,) * len(self.extents))
        for g, ker in zip(self.groups, self.stage_kernels):
            shape = [self.n_f] + [1] * len(self.extents)
            for a in g:
                shape[1 + a] = self.extents[a]
            # a stage kernel's axes follow its group's order, not the spatial order
            in_spatial_order = ker.value.transpose(0, *(1 + np.argsort(g)))
            full = full * in_spatial_order.reshape(shape)
        return full

    def set_stage_kernels(self, factors) -> None:
        """Overwrite stage kernels, e.g. with SVD factors of full kernels."""
        if len(factors) != len(self.stage_kernels):
            raise ValueError("one factor tensor per stage required")
        for p, f in zip(self.stage_kernels, factors):
            if p.value.shape != f.shape:
                raise ValueError(f"stage kernel shape {p.value.shape} vs {f.shape}")
            p.value[...] = f

    def forward(self, x, training=False):
        self.output_shape(x.shape[1:])
        nd = len(self.extents)
        # a linked Upsample's stand-in: compute from the un-repeated tensor
        small, factors = (x.small, x.factors[1:]) if isinstance(x, _Repeated) else (x, (1,) * nd)
        # channels fold into the multi-index first (the sum commutes with
        # the repeat); the filter axis is created by the first stage and
        # carried through the later ones.  A stage folds in only its own
        # axes' repeats; the others commute with it and wait for their
        # own stage.
        z = small.sum(axis=1)
        plans = []
        for s, (group, ker) in enumerate(zip(self.groups, self.stage_kernels)):
            # stage 0 reads the input every filter shares; the later stages are depthwise
            z, plan = (_banded if s else _polyphase)(z, ker.value, group,
                                                     tuple(factors[a] for a in group))
            if training:
                plans.append(plan)
            del plan  # an eval forward frees each stage's input once the stage is done
        self._cache = plans if training else None
        # the last stage's output is a fresh array: the bias goes in place,
        # unless that output is a view that is not C-ordered (a cropped
        # stage 0, a hand-passed group moved back), which np.add copies
        bias = self.bias.value.reshape((1, self.n_f) + (1,) * nd)
        return np.add(z, bias, out=z if z.flags.c_contiguous else None, order="C")

    def backward(self, grad):
        plans = self._take_cache()
        nd = len(self.extents)
        self.bias.grad += grad.sum(axis=(0,) + tuple(range(2, 2 + nd)))
        g = grad
        for s in reversed(range(len(self.groups))):
            kgrad, g = (_banded_backward if s else _polyphase_backward)(g, plans[s])
            self.stage_kernels[s].grad += kgrad
        # every input channel gets the same gradient: a read-only view, no copy
        return np.broadcast_to(g[:, None], (len(g), self.c_in) + g.shape[1:])

    def output_shape(self, in_shape):
        nd = len(self.extents)
        if len(in_shape) != 1 + nd or in_shape[0] != self.c_in:
            raise ValueError(f"{self.kind} expects ({self.c_in}, *spatial({nd})), got {in_shape}")
        out = tuple(n - k + 1 for n, k in zip(in_shape[1:], self.extents))
        if any(n < 1 for n in out):
            raise ValueError(f"kernel extents {self.extents} do not fit {in_shape[1:]}")
        return (self.n_f,) + out

    def parameters(self):
        out = [(f"stage{i}", p) for i, p in enumerate(self.stage_kernels)]
        out.append(("bias", self.bias))
        return out


class Conv(SeparableConv):
    """Full N-dimensional convolution layer (N = 1, 2 or 3).

    Input ``[batch, c_in, *spatial]``, output ``[batch, n_f, *spatial -
    extents + 1]``.  This is the one-stage separable layer: its single
    group spans every axis, so its kernel is the full ``[n_f, *extents]``.
    """

    kind = "conv"

    def __init__(self, c_in: int, n_f: int, extents, rng: np.random.Generator):
        extents = tuple(extents)
        super().__init__(c_in, n_f, extents, rng, groups=(tuple(range(len(extents))),))

    @property
    def kernel(self) -> Parameter:
        """The one stage's kernel ``[n_f, *extents]``."""
        return self.stage_kernels[0]

    def _fan_in(self) -> int:
        return self.c_in * int(np.prod(self.extents))

    def parameters(self):
        return [("kernel", self.kernel), ("bias", self.bias)]


class BatchNorm(Layer):
    """Per-channel batch normalization over batch and spatial axes.

    A training forward normalizes with the batch's statistics, updates
    the running ones in place, and caches the normalized input; an eval
    forward uses the running statistics and caches nothing.  The running
    statistics are state like the parameters: ``state()`` lists the
    arrays themselves.  Both work on the ``[batch, channels, rest]``
    view, so each per-channel statistic is one reduction and the
    normalization runs in place on one new array.
    """

    kind = "batchnorm"
    eps = 1e-5
    momentum = 0.1

    def __init__(self, channels: int):
        self.channels = channels
        self.gamma = Parameter(np.ones(channels))
        self.beta = Parameter(np.zeros(channels))
        self.running_mean = np.zeros(channels)
        self.running_var = np.ones(channels)

    def forward(self, x, training=False):
        self.output_shape(x.shape[1:])
        x3 = x.reshape(len(x), self.channels, -1)
        if training:
            n = x3.shape[0] * x3.shape[2]
            mean = np.einsum("bcs->c", x3) / n
            xhat = x3 - mean[:, None]
            var = np.einsum("bcs,bcs->c", xhat, xhat) / n
            for running, batch in ((self.running_mean, mean), (self.running_var, var)):
                running *= 1 - self.momentum
                running += self.momentum * batch
        else:
            mean, var = self.running_mean, self.running_var
            xhat = x3 - mean[:, None]
        inv_std = 1.0 / np.sqrt(var + self.eps)
        xhat *= inv_std[:, None]
        self._cache = (xhat, inv_std) if training else None
        # only a training forward keeps xhat, for its backward
        gamma = self.gamma.value[:, None]
        out = xhat * gamma if training else np.multiply(xhat, gamma, out=xhat)
        out += self.beta.value[:, None]
        return out.reshape(x.shape)

    def backward(self, grad):
        xhat, inv_std = self._take_cache()
        g3 = grad.reshape(xhat.shape)
        dgamma = np.einsum("bcs,bcs->c", g3, xhat)
        dbeta = np.einsum("bcs->c", g3)
        self.gamma.grad += dgamma
        self.beta.grad += dbeta
        # dx = gamma * inv_std * (grad - (xhat * dgamma + dbeta) / n), in
        # place on the cache, which is this call's to overwrite
        n = xhat.shape[0] * xhat.shape[2]
        xhat *= (-dgamma / n)[:, None]
        xhat += g3
        xhat -= (dbeta / n)[:, None]
        xhat *= (self.gamma.value * inv_std)[:, None]
        return xhat.reshape(grad.shape)

    def output_shape(self, in_shape):
        if in_shape[:1] != (self.channels,):
            raise ValueError(f"batchnorm expects {self.channels} channels, got {in_shape}")
        return in_shape

    def parameters(self):
        return [("gamma", self.gamma), ("beta", self.beta)]

    def state(self):
        return {**super().state(), "running_mean": self.running_mean, "running_var": self.running_var}


class Tanh(Layer):
    kind = "tanh"

    def forward(self, x, training=False):
        out = np.tanh(x)
        self._cache = out if training else None
        return out

    def backward(self, grad):
        # grad * (1 - out**2), in place on one temporary
        out = self._take_cache()
        g = np.square(out)
        np.subtract(1.0, g, out=g)
        g *= grad
        return g

    def output_shape(self, in_shape):
        return in_shape


class Reshape(Layer):
    """Per-sample reshape; element count must be preserved."""

    kind = "reshape"

    def __init__(self, out_shape):
        self.out = tuple(int(n) for n in out_shape)

    def forward(self, x, training=False):
        self.output_shape(x.shape[1:])
        self._cache = x.shape if training else None
        return x.reshape((x.shape[0],) + self.out)

    def backward(self, grad):
        return grad.reshape(self._take_cache())

    def output_shape(self, in_shape):
        if int(np.prod(in_shape)) != int(np.prod(self.out)):
            raise ValueError(f"cannot reshape per-sample {in_shape} to {self.out}")
        return self.out


class _Repeated(np.ndarray):
    """Read-only, NaN-filled stand-in for ``small`` repeated ``factors``-fold.

    It has the repeated shape but no storage of its own (a broadcast
    scalar), so shape checks and cost models see the upsampled tensor
    while the convolution reading it computes from ``small`` and
    ``factors``.  Anything that reads it as data reads NaN.
    """

    def __new__(cls, small: np.ndarray, factors: tuple[int, ...]):
        shape = (len(small),) + tuple(n * f for n, f in zip(small.shape[1:], factors))
        standin = np.broadcast_to(np.float64(np.nan), shape).view(cls)
        standin.small, standin.factors = small, factors
        return standin


class Upsample(Layer):
    """Repeat entries along per-sample axes (reshape-and-repeat upsampling).

    A linked upsample (``linked``, set by :class:`~sepconvwave.nn.Model`
    when a convolution reads it directly and the channel factor is 1)
    never builds the repeat.  Its forward returns a zero-copy stand-in of
    the repeated shape carrying the input and the factors, and the
    convolution folds the repeat into each stage's correlation (see the
    module docstring); its backward passes the convolution's gradient,
    already on the un-repeated input, straight through.
    """

    kind = "upsample"

    def __init__(self, factors):
        self.factors = tuple(int(f) for f in factors)
        if any(f < 1 for f in self.factors):
            raise ValueError(f"factors must be >= 1, got {self.factors}")
        self.linked = False

    def forward(self, x, training=False):
        self.output_shape(x.shape[1:])
        if self.linked:
            return _Repeated(x, self.factors)
        # innermost first, so each later repeat copies longer contiguous runs
        out = x
        for ax, f in reversed(list(enumerate(self.factors, start=1))):
            if f > 1:
                out = np.repeat(out, f, axis=ax)
        return out

    def backward(self, grad):
        if self.linked:
            return grad
        # each block sum as f strided slice-adds, outermost axis first
        g = grad
        for ax, f in enumerate(self.factors, start=1):
            if f > 1:
                phase = [(slice(None),) * ax + (slice(p, None, f),) for p in range(f)]
                total = g[phase[0]] + g[phase[1]]
                for p in phase[2:]:
                    total += g[p]
                g = total
        return g

    def output_shape(self, in_shape):
        if len(in_shape) != len(self.factors):
            raise ValueError(f"expected {len(self.factors)} per-sample axes, got {in_shape}")
        return tuple(n * f for n, f in zip(in_shape, self.factors))
