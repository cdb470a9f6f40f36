"""Sequential models with an optional shared trunk and named heads.

A model is a trunk (possibly empty) followed by one or two heads, one per
predicted field.  When layers are shared, the trunk parameters are a
single storage instance referenced by both heads' computation paths, and
its gradients accumulate the contributions of every head.  Shapes are
validated end to end at construction time.

Construction also links each ``Upsample`` whose channel factor is 1 and
whose next layer in the same list (trunk or head) is a convolution: the
upsample then hands over its un-repeated input and the convolution folds
the repeat into its own correlation (see :mod:`sepconvwave.nn.layers`).
The layer list, the state-dict names and the results are those of the
materialised repeat; only the work changes.  An upsample followed by
anything else builds the repeated tensor.

A head's *output repeat* is a final upsample followed only by
``Reshape``s.  A training forward stops before it and returns the
coarse tensor the upsample reads, and ``backward`` takes the gradient of
that tensor: the loss scores it against block means of the targets (see
:mod:`sepconvwave.nn.losses`), so the head's repeat runs only in the
eval forward; the layer lists and the state-dict names still include it.

:func:`fold_batchnorm` gives the eval-only form of a model: each
``BatchNorm`` folded into the layer that feeds it (Jacob et al. 2018,
arXiv:1712.05877), every other layer shared.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass

import numpy as np

from .layers import BatchNorm, Dense, Layer, Parameter, Reshape, SeparableConv, Upsample

__all__ = ["Model", "ParamBudget", "count_params", "fold_batchnorm"]


class Model:
    """A shared ``trunk`` followed by one or two named ``heads``.

    ``input_shape`` is the per-sample input shape, and every layer's
    shape is checked against it here.  ``variant`` is the zoo name, kept
    for reports.  Regularization is set up outside the model:
    :func:`sepconvwave.harness.parse_regularization` is the one place that
    rejects batch normalization together with the Euler penalty.

    Activations are cached only by a training forward and released by
    the backward that follows it: an eval-mode forward leaves no layer
    holding an array, and a ``backward`` without a training forward
    before it, or a second one, raises ``RuntimeError``.

    A training forward returns, for a head with an output repeat, the
    coarse tensor that repeat reads; :meth:`output_repeat` gives its shape
    and the factors with which ``Upsample`` maps it onto the output.
    """

    def __init__(
        self,
        trunk: list[Layer],
        heads: dict[str, list[Layer]],
        input_shape: tuple[int, ...],
        variant: str = "",
    ):
        if not heads or len(heads) > 2:
            raise ValueError("a model needs one or two heads")
        self.trunk = list(trunk)
        self.heads = {name: list(layers) for name, layers in heads.items()}
        self.input_shape = tuple(input_shape)
        self.variant = variant
        # fold each upsample into the convolution that reads it
        for part in [self.trunk, *self.heads.values()]:
            for layer, after in zip(part, part[1:]):
                if isinstance(layer, Upsample):
                    layer.linked = layer.factors[0] == 1 and isinstance(after, SeparableConv)
        # a training forward stops each head before its output repeat
        self._cut = {name: _repeat_index(layers) for name, layers in self.heads.items()}
        self._coarse = {}
        for name, layers in self.heads.items():
            shapes = [self.input_shape]
            for layer in self.trunk + layers:
                shapes.append(layer.output_shape(shapes[-1]))
            self._coarse[name] = shapes[len(self.trunk) + self._cut[name]]

    @property
    def head_names(self) -> tuple[str, ...]:
        return tuple(self.heads.keys())

    def output_repeat(self, name: str) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """``(shape, factors)``: what a training forward returns for head ``name``.

        ``shape`` is the per-sample shape of the coarse tensor, which the
        head's output repeat takes ``factors``-fold before the reshapes
        onto the output.  A head without an output repeat returns its
        output, with every factor 1.
        """
        layers, cut = self.heads[name], self._cut[name]
        shape = self._coarse[name]
        return shape, layers[cut].factors if cut < len(layers) else (1,) * len(shape)

    def forward(self, x: np.ndarray, training: bool = False) -> dict[str, np.ndarray]:
        """Every head's output, or with ``training`` its coarse tensor.

        A training forward caches what :meth:`backward` needs and stops
        each head before its output repeat (:meth:`output_repeat`); an
        eval forward runs every layer.
        """
        if tuple(x.shape[1:]) != self.input_shape:
            raise ValueError(f"expected per-sample shape {self.input_shape}, got {x.shape[1:]}")
        z = x
        for layer in self.trunk:
            z = layer.forward(z, training)
        outputs = {}
        for name, layers in self.heads.items():
            h = z
            for layer in layers[: self._cut[name]] if training else layers:
                h = layer.forward(h, training)
            outputs[name] = h
        return outputs

    def backward(self, grads: dict[str, np.ndarray]) -> None:
        """Backpropagate loss gradients through every head, then the trunk.

        ``grads`` holds, per head, the gradient on what the training
        forward returned: the coarse tensor for a head with an output
        repeat.  Trunk gradients are the sum over heads, so a shared
        trunk is updated by all predicted fields.  Requires a preceding
        training forward pass, whose caches this releases; without one,
        the first layer's backward raises ``RuntimeError``.
        """
        trunk_grad = None
        for name, layers in self.heads.items():
            if name not in grads:
                raise ValueError(f"missing gradient for head {name!r}")
            g = grads[name]
            for layer in reversed(layers[: self._cut[name]]):
                g = layer.backward(g)
            trunk_grad = g if trunk_grad is None else trunk_grad + g
        g = trunk_grad
        for layer in reversed(self.trunk):
            g = layer.backward(g)

    def _named_layers(self):
        for i, layer in enumerate(self.trunk):
            yield f"trunk.{i:02d}.{layer.kind}", layer
        for name, layers in self.heads.items():
            for i, layer in enumerate(layers):
                yield f"head_{name}.{i:02d}.{layer.kind}", layer

    def parameters(self) -> list[Parameter]:
        return [p for _, layer in self._named_layers() for _, p in layer.parameters()]

    def zero_grad(self) -> None:
        for p in self.parameters():
            p.grad[...] = 0.0

    def state_dict(self) -> dict[str, np.ndarray]:
        """Every persistent tensor by its full name, as the model's own arrays."""
        return {
            f"{prefix}.{key}": array
            for prefix, layer in self._named_layers()
            for key, array in layer.state().items()
        }

    def load_state_dict(self, tensors: dict[str, np.ndarray]) -> None:
        """Restore every tensor of :meth:`state_dict`, or none of them.

        This is the one load path.  Every name, shape and value is checked
        first, and a mismatch, a non-finite entry or a negative BatchNorm
        running variance raises ``ValueError`` naming the full tensor name
        (``head_u.04.batchnorm.running_mean``) with the model unchanged;
        only then is each tensor copied into the model's own array.
        """
        own = self.state_dict()
        missing, extra = own.keys() - tensors.keys(), tensors.keys() - own.keys()
        if missing or extra:
            raise ValueError(f"state mismatch: missing {sorted(missing)}, extra {sorted(extra)}")
        for name, array in own.items():
            if tensors[name].shape != array.shape:
                raise ValueError(
                    f"shape mismatch for {name!r}: expected {array.shape}, got {tensors[name].shape}"
                )
            if not np.isfinite(tensors[name]).all():
                raise ValueError(f"tensor {name!r} is not finite")
            if name.endswith(".running_var") and (tensors[name] < 0).any():
                raise ValueError(f"tensor {name!r} has a negative variance")
        for name, array in own.items():
            array[...] = tensors[name]

    def all_layers(self) -> list[Layer]:
        return [layer for _, layer in self._named_layers()]


def _repeat_index(layers: list[Layer]) -> int:
    """Index of the output repeat in a head's ``layers``, or ``len(layers)``.

    The output repeat is a final upsample followed only by reshapes.
    """
    cut = len(layers)
    while cut and isinstance(layers[cut - 1], Reshape):
        cut -= 1
    return cut - 1 if cut and isinstance(layers[cut - 1], Upsample) else len(layers)


def _scaled(layer, norm: BatchNorm):
    """A copy of ``layer`` whose output is ``norm``'s eval forward of the old one's.

    At eval ``norm`` is the per-channel affine map ``(x - mu) s + beta``,
    ``s = gamma / sqrt(var + eps)``.  A convolution's stage-0 kernel is
    scaled per filter by ``s`` (its later stages are shared) and a
    ``Dense``'s rows by their channel's ``s``, a channel covering a run
    of ``n_out / channels`` rows; the bias becomes ``(b - mu) s + beta``.
    The copy gets new parameters for what is scaled and shares the rest.
    """
    s = norm.gamma.value / np.sqrt(norm.running_var + norm.eps)
    mean, beta = norm.running_mean, norm.beta.value
    new = copy.copy(layer)
    if isinstance(layer, Dense):
        s, mean, beta = (np.repeat(v, layer.n_out // norm.channels) for v in (s, mean, beta))
        new.weight = Parameter(layer.weight.value * s[:, None])
    else:
        kernel = layer.stage_kernels[0].value
        scaled = Parameter(kernel * s.reshape((-1,) + (1,) * (kernel.ndim - 1)))
        new.stage_kernels = [scaled, *layer.stage_kernels[1:]]
    new.bias = Parameter((layer.bias.value - mean) * s + beta)
    return new


def _feeder(layers: list[Layer]):
    """Index of the layer a ``BatchNorm`` after ``layers`` folds into, or None."""
    if layers and isinstance(layers[-1], (Dense, SeparableConv)):
        return len(layers) - 1
    # a Dense may feed it through a Reshape onto its channels
    if len(layers) > 1 and isinstance(layers[-1], Reshape) and isinstance(layers[-2], Dense):
        return len(layers) - 2
    return None


def _folded(layers: list[Layer]) -> list[Layer]:
    """``layers`` with each ``BatchNorm`` that has a feeder folded into it."""
    out = []
    for layer in layers:
        at = _feeder(out) if isinstance(layer, BatchNorm) else None
        if at is None:
            out.append(layer)
        else:
            out[at] = _scaled(out[at], layer)
    return out


def fold_batchnorm(model: Model) -> Model:
    """An eval-only model that computes ``model.forward(x, training=False)``.

    Every ``BatchNorm`` whose input comes straight from a convolution, a
    ``Dense`` or a ``Dense`` followed by a ``Reshape`` in the same layer
    list is folded into that layer (:func:`_scaled`), so the eval forward
    skips one pass over each normalized activation; any other
    ``BatchNorm`` stays.  The results agree with the unfolded forward up
    to rounding.  Every other layer is ``model``'s own, shared, and the
    model's arrays are read, never written, so its checkpoint and
    training are unchanged.  Build it again after the weights change.
    """
    heads = {name: _folded(layers) for name, layers in model.heads.items()}
    return Model(_folded(model.trunk), heads, model.input_shape, model.variant)


@dataclass(frozen=True)
class ParamBudget:
    """Trainable-parameter count of a model as it is built."""

    decomposed_count: int


def count_params(model: Model) -> ParamBudget:
    """Exact trainable-scalar count: what the model actually trains.

    A separable layer counts its stage kernels, never the full product of
    its extents.  Batch-norm gains/shifts count, running statistics do not.
    """
    return ParamBudget(sum(p.size for layer in model.all_layers() for _, p in layer.parameters()))
