"""FLOP, parameter and memory-traffic accounting.

These formulas drive two things: Table 2's parameter counts for the
full-scale architecture descriptors, and the roofline latency model's
compute/memory terms.  Conventions: one multiply-accumulate = 2 FLOPs
(the convention Ultralytics' reported GFLOPs use); memory traffic counts
each weight and activation byte once (a perfectly cached execution —
device-level inefficiency is absorbed into the roofline's effective
bandwidth).
"""

from __future__ import annotations

from typing import Tuple

from ..errors import ModelError


def conv2d_params(in_channels: int, out_channels: int, kernel: int,
                  bias: bool = False) -> int:
    """Parameter count of a conv layer."""
    if min(in_channels, out_channels, kernel) < 1:
        raise ModelError("conv dimensions must be positive")
    n = in_channels * out_channels * kernel * kernel
    return n + (out_channels if bias else 0)


def conv2d_flops(in_channels: int, out_channels: int, kernel: int,
                 out_h: int, out_w: int) -> int:
    """FLOPs of a conv layer (2 × MACs)."""
    if out_h < 1 or out_w < 1:
        raise ModelError(f"bad conv output {out_h}x{out_w}")
    macs = in_channels * out_channels * kernel * kernel * out_h * out_w
    return 2 * macs


def conv_output_hw(h: int, w: int, kernel: int, stride: int,
                   padding: int) -> Tuple[int, int]:
    """Spatial output size of a convolution."""
    oh = (h + 2 * padding - kernel) // stride + 1
    ow = (w + 2 * padding - kernel) // stride + 1
    if oh < 1 or ow < 1:
        raise ModelError(
            f"conv output empty: {h}x{w} k={kernel} s={stride} p={padding}")
    return oh, ow
