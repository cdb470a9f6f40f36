"""Separable-convolution surrogates for parametric 2D wave fields.

Subpackages: :mod:`sepconvwave.tensor_core` (the reference valid
correlation and a small SVD), :mod:`sepconvwave.kernel_decomp` (low-rank
kernel decomposition), :mod:`sepconvwave.nn` (layers whose convolutions
read one 0/1 band per axis, reverse-mode gradients, Adam, checkpoints),
:mod:`sepconvwave.wave` (finite-difference data generator) and
:mod:`sepconvwave.harness` (model zoo, training protocols, error tables,
CLI).
"""

from . import harness, kernel_decomp, nn, tensor_core, wave

__version__ = "0.1.0"

__all__ = ["harness", "kernel_decomp", "nn", "tensor_core", "wave", "__version__"]
