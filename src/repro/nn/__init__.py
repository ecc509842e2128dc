"""A from-scratch NumPy deep-learning substrate.

This replaces PyTorch for the executable *mini* models (detector, pose,
depth).  Design notes, per the HPC-parallel guides:

* tensors are NCHW float32 throughout; convolution uses an im2col +
  GEMM formulation so the hot loop is a single large matrix multiply
  (BLAS-backed), not Python-level iteration;
* ``sliding_window_view`` provides the im2col patches as a *view* — the
  only copy is the one into GEMM layout; every eval convolution, unfused
  or folded, runs the one kernel ``conv2d_eval``;
* every layer implements ``forward``/``backward`` with cached
  activations, exposes ``params()``/``grads()`` dicts, and is
  gradient-checked in the test suite.
"""

from .init import he_init, xavier_init, zeros_init
from .layers import (
    Layer,
    Conv2d,
    BatchNorm2d,
    SiLU,
    MaxPool2d,
    Upsample2x,
    Linear,
    Flatten,
    conv2d_eval,
    sigmoid,
)
from .blocks import ConvBNAct, ResidualBlock, CSPBlock, SPPFBlock
from .network import Sequential, count_parameters
from .workspace import Workspace
from .fuse import FusedConvBNAct, FusedSequential, fold_conv_bn, fuse_eval
from .optim import SGD, Adam, CosineWarmupSchedule
from .losses import bce_with_logits
from .flops import conv2d_flops

__all__ = [
    "he_init", "xavier_init", "zeros_init",
    "Layer", "Conv2d", "BatchNorm2d", "SiLU", "MaxPool2d", "Upsample2x",
    "Linear", "Flatten", "conv2d_eval", "sigmoid",
    "ConvBNAct", "ResidualBlock", "CSPBlock", "SPPFBlock",
    "Sequential", "count_parameters",
    "Workspace", "fuse_eval", "fold_conv_bn",
    "FusedSequential", "FusedConvBNAct",
    "SGD", "Adam", "CosineWarmupSchedule",
    "bce_with_logits",
    "conv2d_flops",
]
