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
:meth:`sepconvwave.nn.Model.load_state_dict` checks every name and shape
and then writes into those arrays.

Convolutions follow the channel-summed contract: one kernel per output
channel, applied to the sum over input channels, stride 1, no padding,
so :func:`sepconvwave.tensor_core.conv_valid` of the channel sum is
their reference.  The separable layer replaces each d-way kernel with a
sequence of small per-stage kernels (one per axis group) connected by
axis moves, so a filter costs the sum of its extents instead of their
product; the full convolution ``Conv`` is its one-stage case, a single
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
  layer) reads the input shared by every filter.  One ``einsum``
  contraction over a read-only sliding-window view gives the forward
  pass and, with the output gradient in the kernel's place, the kernel
  gradient; its adjoint, a scatter-add of taps (col2im), gives the input
  gradient.  The repeat enters in polyphase form: output phase p < f is
  a valid correlation of the un-repeated signal with the merged kernel,
  row p of the band operator, which has ``(p + k - 1) // f + 1`` taps
  (at f = 2, 7 taps become 4 and 5 become 3).  The phases are extra
  filters of the one contraction; they are interleaved and cropped to
  ``f * n - k + 1``, and the kernel gradient is the band operator's
  adjoint.
* A depthwise stage (every later stage; each filter convolves its own
  slice) is the whole band operator, one small dense matrix per filter,
  applied by a batched matrix product.  The forward pass is ``z @ A^T``,
  the input gradient ``g @ A``, and the kernel gradient the bands'
  adjoint applied to ``sum_b g^T @ z``.

The whole operator pays ``prod(n)`` multiply-adds per output, not k taps,
which is cheap for the short one-axis groups of a depthwise stage but
not for stage 0: for Conv3D's second layer at desk scale a three-axis
operator would hold 14 * 864 * 384 = 4.6M entries (37 MB) and cost 116M
multiply-adds per forward at batch 25, against 11M for the windowed
contraction (36 merged taps per output).
"""

from __future__ import annotations

import functools

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


# batch-chunked windows: every window copy that stage 0 materialises
# stays below this many float64s (depthwise stages copy no windows)
_CHUNK_BUDGET = 8_000_000


def _batch_chunks(n_batch: int, per_sample_elements: int):
    step = max(1, _CHUNK_BUDGET // max(per_sample_elements, 1))
    for start in range(0, n_batch, step):
        yield start, min(start + step, n_batch)


def _subscripts(ndim: int, g: int) -> tuple[str, str, str]:
    """einsum subscripts ``(windows, kernel, output)`` of stage 0's correlation.

    The correlation runs over the trailing ``g`` axes of an ``ndim``-axis
    input shared by every filter; the filter axis ``f`` comes from the
    kernel.
    """
    rest = "ghi"[: ndim - g - 1]
    out, taps = "lmn"[:g], "pqr"[:g]
    return "b" + rest + out + taps, "f" + taps, "bf" + rest + out


def _correlate(z: np.ndarray, taps, operand: np.ndarray, kernel_grad: bool = False) -> np.ndarray:
    """Stage 0's windowed contraction over the trailing axes of ``z``.

    Forward: ``operand`` is the kernel ``[n_f, *taps]`` and the result is
    the valid correlation ``[batch, n_f, *rest, *out]``.  With
    ``kernel_grad`` the operand is that result's gradient and the result is
    the kernel gradient: the same contraction, output and kernel swapped.
    Both contract over the taps as a matrix product on a window copy.
    """
    win, ker, out = _subscripts(z.ndim, len(taps))
    spec = f"{win},{out}->{ker}" if kernel_grad else f"{win},{ker}->{out}"
    windows = sliding_window_view(z, taps, axis=tuple(range(z.ndim - len(taps), z.ndim)))
    parts = [
        np.einsum(spec, windows[a:b], operand[a:b] if kernel_grad else operand, optimize=True)
        for a, b in _batch_chunks(len(z), windows[0].size)
    ]
    return sum(parts) if kernel_grad else np.concatenate(parts)


def _correlate_input_grad(grad: np.ndarray, kernel: np.ndarray) -> np.ndarray:
    """Adjoint of :func:`_correlate` in its input: a scatter-add of taps (col2im).

    The contraction with the kernel spreads every output-gradient entry
    over the taps of its window, laid out taps first, so folding them onto
    the input adds one contiguous slab per tap.
    """
    taps = kernel.shape[1:]
    g = len(taps)
    win, ker, out = _subscripts(grad.ndim - 1, g)
    spec = f"{out},{ker}->{ker[1:]}{win[:-g]}"
    out_sp = grad.shape[-g:]
    lead = grad.shape[:1] + grad.shape[2:-g]
    gin = np.zeros(lead + tuple(n + k - 1 for n, k in zip(out_sp, taps)))
    for a, b in _batch_chunks(len(grad), kernel[0].size * int(np.prod(lead[1:] + out_sp))):
        cols = np.einsum(spec, grad[a:b], kernel, optimize=True)
        for tap in np.ndindex(*taps):
            window = tuple(slice(t, t + n) for t, n in zip(tap, out_sp))
            gin[(slice(a, b), Ellipsis) + window] += cols[tap]
    return gin


@functools.lru_cache(maxsize=256)
def _band(k: int, f: int, n: int) -> np.ndarray:
    """0/1 band of a ``k``-tap valid correlation read through an ``f``-fold repeat.

    ``S[t, o, i]`` is 1 where tap ``t`` of output ``o`` reads entry ``i``
    of the un-repeated signal, ``(o + t) // f == i``; its shape is
    ``[k, f * n - k + 1, n]``.  So ``sum_t K[t] S[t]`` is the correlation
    of the repeated signal with ``K``, as a matrix on the un-repeated one.
    Row ``p < f`` of that matrix is output phase p's merged kernel, which
    :func:`_polyphase` reads with ``n`` the longest phase's tap count,
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


def _polyphase(z: np.ndarray, kernel: np.ndarray, factors):
    """Stage 0: valid correlation of ``z`` repeated ``factors``-fold along its trailing axes.

    The repeat is never built.  Output phase ``p`` (the output index modulo
    the factor, per axis) is a valid correlation of ``z`` itself with that
    phase's merged kernel, row p of the kernel's band operator
    (:func:`_band`); the phases are stacked as extra filters of one
    contraction, then interleaved (depth-to-space) and cropped to
    ``f * n - k + 1``.  With every factor 1 there is one phase, whose
    merged kernel is the kernel.  Returns the output and the plan that
    :func:`_polyphase_backward` reuses.
    """
    g = len(factors)
    taps = tuple((f + k - 2) // f + 1 for f, k in zip(factors, kernel.shape[1:]))
    bands = [_band(k, f, t)[:, :f] for k, f, t in zip(kernel.shape[1:], factors, taps)]
    phase = _band_operator(kernel, bands).reshape((len(kernel),) + tuple(factors) + taps)
    small = z.shape[-g:]
    # a phase one tap shorter than the longest reads one entry past the end
    pad = [t - (k - 1) // f - 1 for f, k, t in zip(factors, kernel.shape[1:], taps)]
    if any(pad):
        z = np.pad(z, [(0, 0)] * (z.ndim - g) + [(0, n) for n in pad])
    y = _correlate(z, taps, phase.reshape((-1,) + taps))
    r = z.ndim - g - 1  # axes that are neither batch nor correlated
    y = y.reshape((len(z), len(kernel)) + tuple(factors) + y.shape[-(r + g):])
    out = y.shape[2 + g + r:]
    y = y.transpose(0, 1, *range(2 + g, 2 + g + r),
                    *(a for i in range(g) for a in (2 + g + r + i, 2 + i)))
    y = y.reshape(y.shape[:2 + r] + tuple(n * f for n, f in zip(out, factors)))
    crop = tuple(slice(f * n - k + 1) for f, n, k in zip(factors, small, kernel.shape[1:]))
    return y[(Ellipsis,) + crop], (z, bands, phase, small)


def _polyphase_backward(grad: np.ndarray, plan):
    """Kernel and input gradients of :func:`_polyphase`, the input's un-repeated.

    The output gradient is zero-padded over the cropped phases and split
    back into phases (space-to-depth).  The merged kernels' gradient is
    the band operator's gradient, so :func:`_band_operator_adjoint`
    scatter-adds it onto the kernel's taps; the input gradients of the
    phases add up on ``z``.
    """
    z, bands, phase, small = plan
    g = len(bands)
    factors = tuple(band.shape[1] for band in bands)
    taps = phase.shape[1 + g:]
    n_out = tuple(n - t + 1 for n, t in zip(z.shape[-g:], taps))
    extra = [f * n - L for f, n, L in zip(factors, n_out, grad.shape[-g:])]
    if any(extra):
        grad = np.pad(grad, [(0, 0)] * (grad.ndim - g) + [(0, n) for n in extra])
    lead = grad.ndim - g
    grad = grad.reshape(grad.shape[:lead] + tuple(n for nf in zip(n_out, factors) for n in nf))
    grad = grad.transpose(0, 1, *(lead + 2 * i + 1 for i in range(g)), *range(2, lead),
                          *(lead + 2 * i for i in range(g)))
    grad = grad.reshape((len(grad), -1) + grad.shape[2 + g:])
    dphase = _correlate(z, taps, grad, kernel_grad=True)
    gin = _correlate_input_grad(grad, phase.reshape((-1,) + taps))
    dkernel = _band_operator_adjoint(dphase.reshape(len(phase), -1), bands)
    return dkernel, gin[(Ellipsis,) + tuple(slice(n) for n in small)]


def _banded(z: np.ndarray, kernel: np.ndarray, factors):
    """A depthwise stage: valid correlation of ``z`` repeated ``factors``-fold.

    ``z`` is ``[batch, n_f, *rest, *group]`` and each filter correlates
    its own slice over the trailing group axes.  The stage is one dense
    operator per filter (:func:`_band_operator`) applied by a batched
    matrix product, so the repeat is never built and the phases need no
    interleave or crop.  The operator has ``n_f * prod(f*n - k + 1) *
    prod(n)`` entries and costs ``prod(n)`` multiply-adds per output in
    place of k taps; for the one-axis groups of the zoo on the committed
    configs that is at most 11,520 entries (Conv1.5D_Boundary on
    ``desk.cfg``).  Returns the output and the plan that
    :func:`_banded_backward` reuses.
    """
    g = len(factors)
    lead, small = z.shape[:-g], z.shape[-g:]
    bands = [_band(k, f, n) for k, f, n in zip(kernel.shape[1:], factors, small)]
    op = _band_operator(kernel, bands)
    z = np.ascontiguousarray(z).reshape(lead[:2] + (-1, op.shape[2]))
    # matmul runs up to 2x faster on a contiguous transpose than on the view
    y = np.matmul(z, np.ascontiguousarray(op.transpose(0, 2, 1)))
    return y.reshape(lead + tuple(band.shape[1] for band in bands)), (z, op, bands, small)


def _banded_backward(grad: np.ndarray, plan):
    """Kernel and input gradients of :func:`_banded`, the input's un-repeated.

    With ``g`` the output gradient as ``[batch, n_f, rest, out]``, the
    input gradient is ``g @ A``, the operator gradient ``sum_b g^T @ z``,
    and the kernel gradient is that contracted with the bands.
    """
    z, op, bands, small = plan
    lead = grad.shape[:-len(bands)]
    grad = np.ascontiguousarray(grad).reshape(z.shape[:3] + (op.shape[1],))
    dop = np.matmul(grad.transpose(0, 1, 3, 2), z).sum(axis=0)
    return _band_operator_adjoint(dop, bands), np.matmul(grad, op).reshape(lead + small)


class Dense(Layer):
    """Affine map on the trailing feature axis: ``y = x W^T + b``."""

    kind = "dense"

    def __init__(self, n_in: int, n_out: int, rng: np.random.Generator):
        self.n_in = n_in
        self.n_out = n_out
        self.weight = Parameter(_uniform_init(rng, (n_out, n_in), n_in))
        self.bias = Parameter(_uniform_init(rng, (n_out,), n_in))

    def forward(self, x, training=False):
        if x.ndim != 2 or x.shape[1] != self.n_in:
            raise ValueError(f"dense expects [batch, {self.n_in}], got {x.shape}")
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
        nd = len(self.extents)
        if x.ndim != 2 + nd or x.shape[1] != self.c_in:
            raise ValueError(
                f"{self.kind} expects [batch, {self.c_in}, *spatial({nd})], got {x.shape}"
            )
        self._out_spatial(x.shape[2:])
        # a linked Upsample's stand-in: compute from the un-repeated tensor
        small, factors = (x.small, x.factors[1:]) if isinstance(x, _Repeated) else (x, (1,) * nd)
        # channels fold into the multi-index first (the sum commutes with
        # the repeat); the filter axis is created by the first stage and
        # carried through the pipeline of axis moves and correlations.  A
        # stage folds in only its own axes' repeats; the others commute
        # with it and wait for their own stage.
        z = small.sum(axis=1)
        plans = []
        for s, (group, ker) in enumerate(zip(self.groups, self.stage_kernels)):
            offset = 1 if s == 0 else 2
            z = np.moveaxis(z, [offset + a for a in group], range(z.ndim - len(group), z.ndim))
            # stage 0 reads the input every filter shares; later stages are depthwise
            z, plan = (_banded if s else _polyphase)(z, ker.value, tuple(factors[a] for a in group))
            if training:
                plans.append(plan)
            del plan  # an eval forward frees each stage's input once the stage is done
            z = np.moveaxis(z, range(z.ndim - len(group), z.ndim), [2 + a for a in group])
        self._cache = plans if training else None
        # the last stage leaves its axes permuted; the output is C-ordered
        return np.add(z, self.bias.value.reshape((1, self.n_f) + (1,) * nd), order="C")

    def backward(self, grad):
        plans = self._take_cache()
        nd = len(self.extents)
        self.bias.grad += grad.sum(axis=(0,) + tuple(range(2, 2 + nd)))
        g = grad
        for s in reversed(range(len(self.groups))):
            group = self.groups[s]
            g = np.moveaxis(g, [2 + a for a in group], range(g.ndim - len(group), g.ndim))
            kgrad, g = (_banded_backward if s else _polyphase_backward)(g, plans[s])
            self.stage_kernels[s].grad += kgrad
            offset = 1 if s == 0 else 2
            g = np.moveaxis(g, range(g.ndim - len(group), g.ndim), [offset + a for a in group])
        # every input channel gets the same gradient: a read-only view, no copy
        return np.broadcast_to(g[:, None], (len(g), self.c_in) + g.shape[1:])

    def _out_spatial(self, spatial):
        if len(spatial) != len(self.extents):
            raise ValueError(f"expected {len(self.extents)} spatial axes, got {spatial}")
        out = tuple(n - k + 1 for n, k in zip(spatial, self.extents))
        if any(n < 1 for n in out):
            raise ValueError(f"kernel extents {self.extents} do not fit {spatial}")
        return out

    def output_shape(self, in_shape):
        if in_shape[0] != self.c_in:
            raise ValueError(f"{self.kind} expects {self.c_in} channels, got {in_shape[0]}")
        return (self.n_f,) + self._out_spatial(in_shape[1:])

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
        (self.kernel,) = self.stage_kernels

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
        if x.ndim < 2 or x.shape[1] != self.channels:
            raise ValueError(f"batchnorm expects channel axis {self.channels}, got {x.shape}")
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
        if in_shape[0] != self.channels:
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
        if int(np.prod(x.shape[1:])) != int(np.prod(self.out)):
            raise ValueError(f"cannot reshape per-sample {x.shape[1:]} to {self.out}")
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
        if x.ndim - 1 != len(self.factors):
            raise ValueError(f"expected {len(self.factors)} per-sample axes, got {x.shape}")
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
