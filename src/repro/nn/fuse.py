"""Eval-time graph folding: Conv→BN folding with a SiLU epilogue.

Training wants every intermediate (BatchNorm batch statistics, pre-
activation tensors for the backward pass); frame-rate inference wants
none of them.  This module rewrites a trained :class:`Sequential` into
an eval-only pipeline where:

* every ConvBNAct's Conv2d→BatchNorm2d pair is *folded* — the BN
  running statistics and affine parameters are absorbed into the
  convolution's weights and bias, so the BN layer disappears entirely
  (see ``fold_conv_bn`` for the algebra);
* its SiLU becomes a GEMM *epilogue*: it runs in place on the 2-D GEMM
  output buffer before the NCHW transpose, so no intermediate
  activation tensor is materialised;
* every fused conv runs the shared eval kernel
  :func:`~repro.nn.layers.conv2d_eval`, with im2col columns, padded
  inputs and GEMM outputs in a shared
  :class:`~repro.nn.workspace.Workspace` arena reused across frames;
* a Residual/CSP/SPPF block becomes a copy of the same block class with
  its sub-units replaced by their fused forms, so the block's own eval
  forward (argmax-free pooling included) runs over them.

Folding rules, applied to each layer on its own (DESIGN.md
§"Fusion/workspace layer" has the same table):

=======================================  ===============================
layer in the eval graph                  fused form
=======================================  ===============================
ConvBNAct (Conv2d → BatchNorm2d → SiLU)  FusedConvBNAct (GEMM + SiLU)
Conv2d (standalone)                      FusedConvBNAct (identity fold)
ResidualBlock / CSPBlock / SPPFBlock     same class over fused sub-units
anything else                            passed through unchanged
=======================================  ===============================

The fused network is **eval-only**: ``forward(training=True)``,
``backward()`` and ``load()`` all raise :class:`~repro.errors.ModelError`
(every fused sub-unit refuses training forwards and backwards, so a
rebuilt block does too) — folded weights cannot be trained or restored
without desynchronising from the BN buffers they absorbed.  Re-fold from
the source network after any parameter change.
"""

from __future__ import annotations

import copy
from typing import Dict, Optional, Tuple

import numpy as np

from ..errors import ModelError
from ..obs import current_tracer
from .blocks import ConvBNAct, CSPBlock, ResidualBlock, SPPFBlock
from .layers import BatchNorm2d, Conv2d, Layer, conv2d_eval
from .network import Sequential
from .workspace import Workspace


def fold_conv_bn(conv: Conv2d, bn: Optional[BatchNorm2d]
                 ) -> Tuple[np.ndarray, np.ndarray]:
    """Fold BN running statistics into conv weights/bias.

    Eval-mode BN computes ``gamma * (y - mean) / sqrt(var + eps) + beta``
    on the conv output ``y = W*x + b``.  Distributing gives an ordinary
    convolution with ``W' = W * s`` and ``b' = (b - mean) * s + beta``
    where ``s = gamma / sqrt(var + eps)`` per output channel.  With no
    BN the fold is the identity (fresh copies, zero bias if absent).
    """
    weight = conv.weight.astype(np.float32, copy=True)
    bias = (conv.bias.astype(np.float32, copy=True)
            if conv.bias is not None
            else np.zeros(conv.out_channels, dtype=np.float32))
    if bn is None:
        return weight, bias
    if bn.channels != conv.out_channels:
        raise ModelError(
            f"cannot fold BN over {bn.channels} channels into conv with "
            f"{conv.out_channels} outputs")
    scale = (bn.gamma / np.sqrt(bn.running_var + bn.eps)).astype(np.float32)
    weight *= scale[:, None, None, None]
    bias = ((bias - bn.running_mean) * scale + bn.beta).astype(np.float32)
    return weight, bias


class FusedConvBNAct(Layer):
    """Folded convolution with an in-buffer SiLU (or identity) epilogue.

    Runs :func:`~repro.nn.layers.conv2d_eval` over the workspace arena;
    with ``silu`` the activation is applied in place on the 2-D GEMM
    output before the single NCHW transpose.  Eval-only by construction.
    """

    def __init__(self, weight: np.ndarray, bias: np.ndarray,
                 stride: int, padding: int, silu: bool = False,
                 workspace: Optional[Workspace] = None) -> None:
        self.weight = weight
        self.bias = bias
        self.out_channels, self.in_channels = weight.shape[0], weight.shape[1]
        self.kernel = weight.shape[2]
        self.stride = stride
        self.padding = padding
        self.silu = silu
        self.workspace = workspace
        self.name = f"fused_conv{self.kernel}x{self.kernel}" \
            + ("_silu" if silu else "")

    def forward(self, x: np.ndarray, training: bool = True) -> np.ndarray:
        if training:
            raise ModelError(
                "fused layers are eval-only; train the unfused network "
                "and re-fold")
        tracer = current_tracer()
        if not tracer.enabled:
            return self._forward(x)
        # Same span name as Conv2d — the taxonomy names the operation,
        # the layer attr carries the fused identity — so fused and
        # unfused captures of the same workload diff on common paths.
        with tracer.span("nn.conv2d", layer=self.name):
            return self._forward(x)

    def _forward(self, x: np.ndarray) -> np.ndarray:
        return conv2d_eval(x, self.weight.reshape(self.out_channels, -1),
                           self.bias, self.kernel, self.stride,
                           self.padding, ws=self.workspace, owner=self,
                           epilogue=True, silu=self.silu)

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        raise ModelError("fused layers are eval-only; no backward")

    def params(self) -> Dict[str, np.ndarray]:
        return {"weight": self.weight, "bias": self.bias}


class FusedSequential(Sequential):
    """Eval-only folded pipeline produced by :func:`fuse_eval`.

    Refuses ``load()``: restoring parameters/buffers into folded weights
    would silently desynchronise them from the BN statistics they
    absorbed.  Load into the *source* network and call its ``fuse()``
    again instead.
    """

    def __init__(self, layers, name: str = "net-fused",
                 workspace: Optional[Workspace] = None) -> None:
        super().__init__(layers, name=name)
        self.workspace = workspace

    def forward(self, x: np.ndarray, training: bool = True) -> np.ndarray:
        if training:
            raise ModelError(
                "fused network is eval-only; call forward(training=False) "
                "or train the unfused source network")
        return super().forward(x, training=False)

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        raise ModelError("fused network is eval-only; no backward")

    def load(self, path: str) -> Dict:
        raise ModelError(
            "cannot load() into a fused network: folded weights would "
            "desynchronise from the restored BN buffers. Load the "
            "unfused source network and re-fuse.")

    def reset_workspace(self) -> None:
        """Drop arena buffers (e.g. between differently-shaped workloads)."""
        if self.workspace is not None:
            self.workspace.reset()


def _fuse_block(layer: Layer, ws: Optional[Workspace]) -> Optional[Layer]:
    """Fused equivalent of one layer, or None if it has none.

    A ConvBNAct folds to one :class:`FusedConvBNAct` with the SiLU
    epilogue, a bare Conv2d (the 1×1 heads) to an identity-epilogue one.
    A Residual/CSP/SPPF block is copied with a fresh sub-layer table
    (and bottleneck list) holding the fused form of each sub-unit, so
    the block's own forward runs over fused units and the source stays
    trainable.
    """
    if isinstance(layer, ConvBNAct):
        weight, bias = fold_conv_bn(layer.conv, layer.bn)
        return FusedConvBNAct(weight, bias, layer.conv.stride,
                              layer.conv.padding, silu=True, workspace=ws)
    if isinstance(layer, Conv2d):
        weight, bias = fold_conv_bn(layer, None)
        return FusedConvBNAct(weight, bias, layer.stride, layer.padding,
                              workspace=ws)
    if not isinstance(layer, (ResidualBlock, CSPBlock, SPPFBlock)):
        return None
    blk = copy.copy(layer)
    blk._sub = {}
    for name, sub in layer._sub.items():
        unit = blk._register(name, _fuse_block(sub, ws) or sub)
        if hasattr(blk, name):  # c1/c2, proj/fuse, pre/post
            setattr(blk, name, unit)
    if isinstance(blk, CSPBlock):
        blk.bottlenecks = [blk._sub[f"b{i}"]
                           for i in range(len(blk.bottlenecks))]
    return blk


def fuse_eval(net: Sequential,
              workspace: Optional[Workspace] = None) -> FusedSequential:
    """Fold ``net`` into an eval-only :class:`FusedSequential`.

    Replaces each layer by its fused form (see :func:`_fuse_block`) and
    passes everything else through unchanged.  ``workspace`` (shared by
    every fused conv) keeps the conv intermediates in one arena reused
    across frames; without it every forward allocates them fresh.

    The source network is left untouched — folding copies parameters, so
    continued training of ``net`` never corrupts the fused graph (but
    does make it stale: re-fuse after updates).
    """
    fused = [_fuse_block(layer, workspace) or layer for layer in net.layers]
    return FusedSequential(fused, name=f"{net.name}-fused",
                           workspace=workspace)
