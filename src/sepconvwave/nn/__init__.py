from .layers import (
    BatchNorm,
    Conv,
    Dense,
    Layer,
    Parameter,
    Reshape,
    SeparableConv,
    Tanh,
    Upsample,
)
from .losses import block_mse, block_targets, euler_residual, euler_residual_grads, mse, mse_grad
from .model import Model, count_params, fold_batchnorm
from .optim import Adam, lr_schedule

__all__ = [
    "Adam",
    "BatchNorm",
    "Conv",
    "Dense",
    "Layer",
    "Model",
    "Parameter",
    "Reshape",
    "SeparableConv",
    "Tanh",
    "Upsample",
    "block_mse",
    "block_targets",
    "count_params",
    "euler_residual",
    "euler_residual_grads",
    "fold_batchnorm",
    "lr_schedule",
    "mse",
    "mse_grad",
]
