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
anything else, such as the final repeat before a ``Reshape``, still
builds the repeated tensor.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .layers import Layer, Parameter, SeparableConv, Upsample

__all__ = ["Model", "ParamBudget", "count_params"]


class Model:
    """A shared ``trunk`` followed by one or two named ``heads``.

    ``input_shape`` is the per-sample input shape, and every layer's
    shape is checked against it here.  ``variant`` is the zoo name, kept
    for reports.  Regularization is set up outside the model:
    :func:`sepconvwave.harness.parse_regularization` is the one place that
    rejects batch normalization together with the Euler penalty.
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
        shape = self.input_shape
        for layer in self.trunk:
            shape = layer.output_shape(shape)
        self.trunk_output_shape = shape
        self.output_shapes = {}
        for name, layers in self.heads.items():
            hshape = shape
            for layer in layers:
                hshape = layer.output_shape(hshape)
            self.output_shapes[name] = hshape
        # fold each upsample into the convolution that reads it
        for part in [self.trunk, *self.heads.values()]:
            for layer, after in zip(part, part[1:]):
                if isinstance(layer, Upsample):
                    layer.linked = layer.factors[0] == 1 and isinstance(after, SeparableConv)
        self._trunk_out = None

    @property
    def head_names(self) -> tuple[str, ...]:
        return tuple(self.heads.keys())

    def forward(self, x: np.ndarray, training: bool = False) -> dict[str, np.ndarray]:
        if tuple(x.shape[1:]) != self.input_shape:
            raise ValueError(f"expected per-sample shape {self.input_shape}, got {x.shape[1:]}")
        z = x
        for layer in self.trunk:
            z = layer.forward(z, training)
        self._trunk_out = z
        outputs = {}
        for name, layers in self.heads.items():
            h = z
            for layer in layers:
                h = layer.forward(h, training)
            outputs[name] = h
        return outputs

    def backward(self, grads: dict[str, np.ndarray]) -> None:
        """Backpropagate loss gradients through every head, then the trunk.

        Trunk gradients are the sum over heads, so a shared trunk is
        updated by all predicted fields.  Requires a preceding training
        forward pass.
        """
        if self._trunk_out is None:
            raise RuntimeError("backward called without a preceding forward pass")
        trunk_grad = None
        for name, layers in self.heads.items():
            if name not in grads:
                raise ValueError(f"missing gradient for head {name!r}")
            g = grads[name]
            for layer in reversed(layers):
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
        return {
            f"{prefix}.{key}": array
            for prefix, layer in self._named_layers()
            for key, array in layer.state().items()
        }

    def load_state_dict(self, tensors: dict[str, np.ndarray]) -> None:
        own = dict(self.state_dict())
        missing = set(own) - set(tensors)
        extra = set(tensors) - set(own)
        if missing or extra:
            raise ValueError(f"state mismatch: missing {sorted(missing)}, extra {sorted(extra)}")
        for prefix, layer in self._named_layers():
            layer.load_state(
                {
                    key: tensors[f"{prefix}.{key}"]
                    for key in layer.state()
                }
            )

    def all_layers(self) -> list[Layer]:
        return [layer for _, layer in self._named_layers()]


@dataclass(frozen=True)
class ParamBudget:
    """Trainable-parameter counts for full versus decomposed kernels."""

    per_layer_full: tuple[int, ...]
    per_layer_decomposed: tuple[int, ...]
    full_count: int
    decomposed_count: int


def count_params(model: Model) -> ParamBudget:
    """Exact trainable-scalar counts per layer.

    ``decomposed_count`` is what the model actually trains;
    ``full_count`` replaces every separable layer by the equivalent full
    kernel (product of extents), so the pair quantifies the compression.
    Batch-norm gains/shifts count, running statistics do not.
    """
    per_full = []
    per_dec = []
    for layer in model.all_layers():
        actual = sum(p.size for _, p in layer.parameters())
        if isinstance(layer, SeparableConv):
            full = layer.n_f * int(np.prod(layer.extents)) + layer.bias.size
        else:
            full = actual
        per_full.append(full)
        per_dec.append(actual)
    return ParamBudget(
        per_layer_full=tuple(per_full),
        per_layer_decomposed=tuple(per_dec),
        full_count=sum(per_full),
        decomposed_count=sum(per_dec),
    )
