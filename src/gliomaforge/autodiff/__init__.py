"""Numpy-backed reverse-mode autodiff: tensors, spatial ops, checkpoints."""

from .checkpoint import MAGIC, load_checkpoint, save_checkpoint
from .conv import (
    channel_avg,
    channel_max,
    conv3d,
    global_avg_pool,
    transpose_conv3d,
    trilinear_resize,
)
from .gradcheck import gradcheck, numeric_grad
from .tensor import Parameter, Tensor, concat, is_grad_enabled, layer_norm, no_grad, softmax

__all__ = [
    "MAGIC",
    "Parameter",
    "Tensor",
    "channel_avg",
    "channel_max",
    "concat",
    "conv3d",
    "global_avg_pool",
    "gradcheck",
    "is_grad_enabled",
    "layer_norm",
    "load_checkpoint",
    "no_grad",
    "numeric_grad",
    "save_checkpoint",
    "softmax",
    "transpose_conv3d",
    "trilinear_resize",
]
