"""Composite blocks: Conv-BN-SiLU, residual, CSP-style and SPPF blocks.

These are width/depth-scaled miniatures of the building blocks in the
YOLOv8 (C2f) and YOLOv11 (C3k2) backbones.  Each block is itself a
:class:`~repro.nn.layers.Layer`, composing sub-layers internally and
namespacing their parameters, so :class:`~repro.nn.network.Sequential`
models stay flat and checkpointable.
"""

from __future__ import annotations

from typing import Dict, List, Optional

import numpy as np

from ..errors import ShapeError
from .layers import BatchNorm2d, Conv2d, Layer, SiLU
from .sanitizer import freeze


class _Composite(Layer):
    """Helper base: parameter/grad namespacing over named sub-layers."""

    def __init__(self) -> None:
        self._sub: Dict[str, Layer] = {}

    def _register(self, name: str, layer: Layer) -> Layer:
        self._sub[name] = layer
        return layer

    def params(self) -> Dict[str, np.ndarray]:
        out: Dict[str, np.ndarray] = {}
        for name, layer in self._sub.items():
            for pname, arr in layer.params().items():
                out[f"{name}.{pname}"] = arr
        return out

    def grads(self) -> Dict[str, np.ndarray]:
        out: Dict[str, np.ndarray] = {}
        for name, layer in self._sub.items():
            for pname, arr in layer.grads().items():
                out[f"{name}.{pname}"] = arr
        return out

    def buffers(self) -> Dict[str, np.ndarray]:
        out: Dict[str, np.ndarray] = {}
        for name, layer in self._sub.items():
            for bname, arr in layer.buffers().items():
                out[f"{name}.{bname}"] = arr
        return out


class ConvBNAct(_Composite):
    """Conv → BatchNorm → SiLU, the universal YOLO stem unit."""

    def __init__(self, in_channels: int, out_channels: int,
                 kernel: int = 3, stride: int = 1,
                 rng: Optional[np.random.Generator] = None) -> None:
        super().__init__()
        self.conv = self._register(
            "conv", Conv2d(in_channels, out_channels, kernel,
                           stride=stride, bias=False, rng=rng))
        self.bn = self._register("bn", BatchNorm2d(out_channels))
        self.act = self._register("act", SiLU())
        self.name = f"convbnact{kernel}s{stride}"

    def forward(self, x: np.ndarray, training: bool = True) -> np.ndarray:
        return self.act(self.bn(self.conv(x, training), training), training)

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        return self.conv.backward(
            self.bn.backward(self.act.backward(grad_out)))


class ResidualBlock(_Composite):
    """Two 3×3 ConvBNAct units with an identity skip (bottleneck)."""

    def __init__(self, channels: int,
                 rng: Optional[np.random.Generator] = None) -> None:
        super().__init__()
        self.c1 = self._register("c1", ConvBNAct(channels, channels, 3,
                                                 rng=rng))
        self.c2 = self._register("c2", ConvBNAct(channels, channels, 3,
                                                 rng=rng))
        self.name = "residual"

    def forward(self, x: np.ndarray, training: bool = True) -> np.ndarray:
        return x + self.c2(self.c1(x, training), training)

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        return grad_out + self.c1.backward(self.c2.backward(grad_out))


class CSPBlock(_Composite):
    """Cross-stage-partial block (miniature C2f/C3k2 analogue).

    The input is projected, split in half; one half passes through ``n``
    residual bottlenecks; both halves are concatenated and fused by a
    1×1 convolution.  This is the exact dataflow of the C2f block with
    the hidden expansion fixed at 0.5.
    """

    def __init__(self, in_channels: int, out_channels: int, n: int = 1,
                 rng: Optional[np.random.Generator] = None) -> None:
        super().__init__()
        if out_channels % 2:
            raise ShapeError(
                f"CSPBlock out_channels must be even, got {out_channels}")
        self.half = out_channels // 2
        self.proj = self._register(
            "proj", ConvBNAct(in_channels, out_channels, 1, rng=rng))
        self.bottlenecks: List[Layer] = [
            self._register(f"b{i}", ResidualBlock(self.half, rng=rng))
            for i in range(n)]
        self.fuse = self._register(
            "fuse", ConvBNAct(out_channels, out_channels, 1, rng=rng))
        self.name = f"csp_n{n}"

    def forward(self, x: np.ndarray, training: bool = True) -> np.ndarray:
        y = self.proj(x, training)
        a = y[:, :self.half]
        b = np.ascontiguousarray(y[:, self.half:])
        for blk in self.bottlenecks:
            b = blk(b, training)
        cat = np.concatenate([a, b], axis=1)
        return self.fuse(cat, training)

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        dcat = self.fuse.backward(grad_out)
        da = dcat[:, :self.half]
        db = np.ascontiguousarray(dcat[:, self.half:])
        for blk in reversed(self.bottlenecks):
            db = blk.backward(db)
        dy = np.concatenate([da, db], axis=1)
        return self.proj.backward(dy)


class SPPFBlock(_Composite):
    """Spatial-pyramid-pooling (fast): repeated maxpool + concat + fuse.

    YOLO's SPPF uses stride-1 5×5 pools; at mini resolution we use the
    stride-2 pool + upsample-free variant: three successive 2×2 pools of
    the *same* tensor emulated by stacking progressively smoothed maps.
    For backward simplicity we use stride-1 3×3 max pooling implemented
    via padding + shifted maxima.
    """

    def __init__(self, channels: int,
                 rng: Optional[np.random.Generator] = None) -> None:
        super().__init__()
        self.pre = self._register(
            "pre", ConvBNAct(channels, channels // 2 or 1, 1, rng=rng))
        c_half = channels // 2 or 1
        self.post = self._register(
            "post", ConvBNAct(c_half * 4, channels, 1, rng=rng))
        self._cache = None
        self.name = "sppf"

    @staticmethod
    def _pool3_s1(x: np.ndarray):
        """Stride-1 3×3 max pool; returns (out, argwhere mask indices)."""
        n, c, h, w = x.shape
        xp = np.pad(x, ((0, 0), (0, 0), (1, 1), (1, 1)),
                    constant_values=-np.inf)
        from numpy.lib.stride_tricks import sliding_window_view
        win = sliding_window_view(xp, (3, 3), axis=(2, 3))
        flat = win.reshape(n, c, h, w, 9)
        arg = flat.argmax(axis=-1)
        out = np.take_along_axis(flat, arg[..., None], axis=-1)[..., 0]
        return np.ascontiguousarray(out, dtype=np.float32), arg

    @staticmethod
    def _pool3_s1_backward(grad: np.ndarray, arg: np.ndarray,
                           shape) -> np.ndarray:
        n, c, h, w = shape
        dxp = np.zeros((n, c, h + 2, w + 2), dtype=np.float32)
        ki = arg // 3
        kj = arg % 3
        ys, xs = np.meshgrid(np.arange(h), np.arange(w), indexing="ij")
        rows = ys[None, None] + ki
        cols = xs[None, None] + kj
        nn_idx = np.arange(n)[:, None, None, None]
        cc_idx = np.arange(c)[None, :, None, None]
        np.add.at(dxp, (nn_idx, cc_idx, rows, cols), grad)
        return dxp[:, :, 1:-1, 1:-1]

    @staticmethod
    def _pool3_s1_eval(x: np.ndarray) -> np.ndarray:
        """Stride-1 3×3 max pool without the argmax bookkeeping.

        Training needs the argmax for backward routing; eval only needs
        the maxima, which nine in-place ``np.maximum`` passes over the
        shifted window views compute far cheaper (bitwise the same).
        """
        h, w = x.shape[2], x.shape[3]
        xp = np.pad(x, ((0, 0), (0, 0), (1, 1), (1, 1)),
                    constant_values=-np.inf)
        out = np.ascontiguousarray(xp[:, :, 0:h, 0:w])
        for di in range(3):
            for dj in range(3):
                if di == 0 and dj == 0:
                    continue
                np.maximum(out, xp[:, :, di:di + h, dj:dj + w], out=out)
        return out.astype(np.float32, copy=False)

    def forward(self, x: np.ndarray, training: bool = True) -> np.ndarray:
        y = self.pre(x, training)
        if training:
            p1, a1 = self._pool3_s1(y)
            p2, a2 = self._pool3_s1(p1)
            p3, a3 = self._pool3_s1(p2)
            self._cache = (y.shape, freeze(a1), freeze(a2), freeze(a3))
        else:
            p1 = self._pool3_s1_eval(y)
            p2 = self._pool3_s1_eval(p1)
            p3 = self._pool3_s1_eval(p2)
            self._cache = None
        return self.post(np.concatenate([y, p1, p2, p3], axis=1), training)

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        if self._cache is None:
            raise ShapeError("backward before forward in SPPFBlock")
        shape, a1, a2, a3 = self._cache
        dcat = self.post.backward(grad_out)
        c = shape[1]
        dy = dcat[:, :c].copy()
        dp1 = dcat[:, c:2 * c].copy()
        dp2 = dcat[:, 2 * c:3 * c].copy()
        dp3 = dcat[:, 3 * c:]
        dp2 += self._pool3_s1_backward(
            np.ascontiguousarray(dp3), a3, shape)
        dp1 += self._pool3_s1_backward(dp2, a2, shape)
        dy += self._pool3_s1_backward(dp1, a1, shape)
        return self.pre.backward(dy)
