"""Neural-network layers with forward/backward passes (NCHW, float32).

Convolution is im2col + GEMM: patches come from
``numpy.lib.stride_tricks.sliding_window_view`` (a view, no copy), and a
single ``cols @ W.T`` matmul does all the arithmetic — the vectorisation
pattern the HPC guides prescribe.  Every eval convolution, unfused or
folded, runs the one kernel :func:`conv2d_eval`; the training forward
keeps its column matrix for the backward, where ``col2im`` scatter-adds
gradients back with a loop over the (small) kernel footprint only, never
over pixels.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from ..errors import ShapeError
from ..obs import current_tracer
from .init import he_init, xavier_init, zeros_init
from .sanitizer import freeze
from .workspace import Workspace

#: Target bytes for one im2col row-block in :func:`conv2d_eval`: the
#: strided window copy proceeds in chunks of output rows sized to stay
#: cache-resident instead of streaming one cold pass over the whole
#: column matrix.
IM2COL_BLOCK_BYTES = 1 << 19


def sigmoid(x: np.ndarray) -> np.ndarray:
    """Numerically stable logistic function; float32 for any input.

    With ``t = exp(-|x|)`` (never overflows) the logistic is
    ``1 / (1 + t)`` for ``x >= 0`` and ``t / (1 + t)`` below: one
    ``exp`` of a non-positive value, in the input's precision, rounded
    to float32 once by the final divide.  ``-|x|`` is taken as
    ``min(x, -x)``, which passes a NaN through with its own bits.  For
    float32 input the divide writes into the numerator's own buffer.
    This is the only sigmoid: training, the fused SiLU epilogue, the
    losses and the model heads all call it.
    """
    t = np.empty(x.shape, x.dtype if x.dtype.kind == "f" else np.float64)
    np.negative(x, out=t)
    np.minimum(x, t, out=t)
    np.exp(t, out=t)
    num = np.where(x >= 0, 1.0, t)
    np.add(t, 1.0, out=t)
    out = num if num.dtype == np.float32 \
        else np.empty(x.shape, dtype=np.float32)
    return np.divide(num, t, out=out)


class Layer:
    """Base layer: forward/backward with cached state, parameter access.

    Cache contract: a ``training=True`` forward stores whatever the
    matching ``backward`` needs; a ``training=False`` forward *clears*
    that state, so a ``backward`` issued after an eval forward raises
    :class:`~repro.errors.ShapeError` instead of silently computing
    gradients against a previous training batch's activations.
    """

    name: str = "layer"

    def forward(self, x: np.ndarray, training: bool = True) -> np.ndarray:
        raise NotImplementedError

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def params(self) -> Dict[str, np.ndarray]:
        """Trainable parameters by name (shared mutable arrays)."""
        return {}

    def grads(self) -> Dict[str, np.ndarray]:
        """Gradients matching :meth:`params` keys (valid after backward)."""
        return {}

    def buffers(self) -> Dict[str, np.ndarray]:
        """Non-trainable state that checkpoints must carry (e.g.
        BatchNorm running statistics)."""
        return {}

    def __call__(self, x: np.ndarray, training: bool = True) -> np.ndarray:
        return self.forward(x, training=training)


def _conv_geometry(x: np.ndarray, in_channels: int, k: int, s: int,
                   p: int) -> Tuple[int, int, int, int]:
    """(ho, wo, hp, wp) of the conv output / padded input.

    The one input check of every conv path: a non-NCHW input, the wrong
    channel count and an empty output all raise :class:`ShapeError`.
    """
    if x.ndim != 4 or x.shape[1] != in_channels:
        raise ShapeError(
            f"conv expects (N, {in_channels}, H, W), got {x.shape}")
    hp, wp = x.shape[2] + 2 * p, x.shape[3] + 2 * p
    ho, wo = (hp - k) // s + 1, (wp - k) // s + 1
    if ho < 1 or wo < 1:
        raise ShapeError(
            f"conv output empty for input {x.shape} (k={k}, s={s}, "
            f"p={p})")
    return ho, wo, hp, wp


def conv2d_eval(x: np.ndarray, w2d: np.ndarray, b: Optional[np.ndarray],
                k: int, s: int, p: int, ws: Optional[Workspace] = None,
                owner: object = None, epilogue: bool = False,
                silu: bool = False) -> np.ndarray:
    """Eval convolution: blocked im2col, one GEMM, in-place epilogue.

    ``w2d`` is the ``(O, C*k*k)`` weight matrix and ``b`` the optional
    bias.  The padded input, the column matrix and the GEMM output live
    in ``ws`` buffers keyed by ``owner`` (reused across frames), or are
    fresh arrays when ``ws`` is None; the two are bitwise identical.
    The window→column copy is cache-blocked over output rows and the
    bias is added on the GEMM output.  With ``epilogue`` (the folded
    layers) the activation — SiLU when ``silu``, else the identity —
    then runs in place on it under its own ``nn.act`` span, so every
    folded conv has the same span shape.  The returned NCHW tensor is
    always a fresh array, never an arena view.
    """
    tracer = current_tracer()
    c = w2d.shape[1] // (k * k)
    ho, wo, hp, wp = _conv_geometry(x, c, k, s, p)
    n, o, ckk = x.shape[0], w2d.shape[0], w2d.shape[1]
    rows = n * ho * wo
    # Arena bookkeeping happens outside the kernel spans: the
    # im2col/gemm self-times measure the copies and the GEMM, not the
    # buffer-table lookups (those land in nn.conv2d self-time).
    if p:
        xp = np.empty((n, c, hp, wp), dtype=np.float32) if ws is None \
            else ws.buffer(owner, "pad", (n, c, hp, wp))
        xp.fill(0.0)
        xp[:, :, p:p + x.shape[2], p:p + x.shape[3]] = x
    else:
        xp = x
    cols = np.empty((rows, ckk), dtype=np.float32) if ws is None \
        else ws.buffer(owner, "cols", (rows, ckk))
    out2d = np.empty((rows, o), dtype=np.float32) if ws is None \
        else ws.buffer(owner, "gemm", (rows, o))
    with tracer.span("nn.im2col"):
        win = sliding_window_view(xp, (k, k), axis=(2, 3))[:, :, ::s, ::s]
        cols6 = cols.reshape(n, ho, wo, c, k, k)
        hb = max(1, min(ho, IM2COL_BLOCK_BYTES // max(1, wo * ckk * 4)))
        for i in range(n):
            for h0 in range(0, ho, hb):
                # (C, hb, Wo, k, k) → (hb, Wo, C, k, k): one strided
                # copy straight into the column buffer.
                cols6[i, h0:h0 + hb] = win[i, :, h0:h0 + hb].transpose(
                    1, 2, 0, 3, 4)
    with tracer.span("nn.gemm"):
        np.dot(cols, w2d.T, out=out2d)
        if b is not None:
            out2d += b
    if epilogue:
        with tracer.span("nn.act"):
            if silu:
                np.multiply(out2d, sigmoid(out2d), out=out2d)
    out = out2d.reshape(n, ho, wo, o)
    # .copy(), not ascontiguousarray: when the transposed view is
    # already contiguous (1x1 spatial output) ascontiguousarray returns
    # the view itself — an arena buffer escaping to the caller,
    # overwritten on the next frame.  An explicit copy is
    # bitwise-identical and always fresh (RL203).
    return out.transpose(0, 3, 1, 2).copy()


class Conv2d(Layer):
    """2-D convolution (OIHW weights), stride/pad, optional bias."""

    def __init__(self, in_channels: int, out_channels: int, kernel: int,
                 stride: int = 1, padding: Optional[int] = None,
                 bias: bool = True,
                 rng: Optional[np.random.Generator] = None) -> None:
        if min(in_channels, out_channels, kernel, stride) < 1:
            raise ShapeError(
                f"bad conv config: in={in_channels} out={out_channels} "
                f"k={kernel} s={stride}")
        self.in_channels = in_channels
        self.out_channels = out_channels
        self.kernel = kernel
        self.stride = stride
        self.padding = kernel // 2 if padding is None else padding
        gen = rng if rng is not None else np.random.default_rng(0)
        self.weight = he_init(
            (out_channels, in_channels, kernel, kernel), gen)
        self.bias = zeros_init((out_channels,)) if bias else None
        self.dweight = np.zeros_like(self.weight)
        self.dbias = np.zeros_like(self.bias) if bias else None
        self._cache: Optional[Tuple] = None
        self.name = f"conv{kernel}x{kernel}"

    def forward(self, x: np.ndarray, training: bool = True) -> np.ndarray:
        tracer = current_tracer()
        if not tracer.enabled:
            return self._forward(x, training)
        with tracer.span("nn.conv2d", layer=self.name):
            return self._forward(x, training)

    def _forward(self, x: np.ndarray, training: bool) -> np.ndarray:
        k, s, p = self.kernel, self.stride, self.padding
        w_mat = self.weight.reshape(self.out_channels, -1)
        if not training:
            # Eval forwards never feed a backward; clear the training
            # cache so a stray backward() raises instead of silently
            # differentiating a previous batch's activations.
            self._cache = None
            return conv2d_eval(x, w_mat, self.bias, k, s, p)
        tracer = current_tracer()
        ho, wo, hp, wp = _conv_geometry(x, self.in_channels, k, s, p)
        n = x.shape[0]
        if p:
            xp = np.pad(x, ((0, 0), (0, 0), (p, p), (p, p)))
        else:
            xp = x
        with tracer.span("nn.im2col"):
            # (N, C, Ho*, Wo*, k, k) view, strided to the requested
            # stride; GEMM layout rows = output positions, cols =
            # receptive field.  The reshape copies; backward reuses it.
            win = sliding_window_view(
                xp, (k, k), axis=(2, 3))[:, :, ::s, ::s]
            cols = win.transpose(0, 2, 3, 1, 4, 5).reshape(
                n * ho * wo, self.in_channels * k * k)
        with tracer.span("nn.gemm"):
            out = cols @ w_mat.T
            if self.bias is not None:
                out += self.bias
        out = out.reshape(n, ho, wo, self.out_channels)
        out = np.ascontiguousarray(out.transpose(0, 3, 1, 2),
                                   dtype=np.float32)
        self._cache = (x.shape, freeze(cols), (n, ho, wo, hp, wp))
        return out

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        if self._cache is None:
            raise ShapeError("backward before forward in Conv2d")
        x_shape, cols, (n, ho, wo, hp, wp) = self._cache
        k, s, p = self.kernel, self.stride, self.padding
        g = grad_out.transpose(0, 2, 3, 1).reshape(
            n * ho * wo, self.out_channels)
        w_mat = self.weight.reshape(self.out_channels, -1)
        self.dweight[...] = (g.T @ cols).reshape(self.weight.shape)
        if self.bias is not None:
            self.dbias[...] = g.sum(axis=0)
        dcols = g @ w_mat  # (N*Ho*Wo, C*k*k)
        dcols = dcols.reshape(n, ho, wo, self.in_channels, k, k)
        dcols = dcols.transpose(0, 3, 4, 5, 1, 2)  # (N, C, k, k, Ho, Wo)
        dxp = np.zeros((n, self.in_channels, hp, wp), dtype=np.float32)
        for i in range(k):
            for j in range(k):
                dxp[:, :, i:i + s * ho:s, j:j + s * wo:s] += dcols[:, :, i, j]
        if p:
            return dxp[:, :, p:hp - p, p:wp - p]
        return dxp

    def params(self) -> Dict[str, np.ndarray]:
        out = {"weight": self.weight}
        if self.bias is not None:
            out["bias"] = self.bias
        return out

    def grads(self) -> Dict[str, np.ndarray]:
        out = {"weight": self.dweight}
        if self.bias is not None:
            out["bias"] = self.dbias
        return out


class BatchNorm2d(Layer):
    """Batch normalisation over (N, H, W) per channel with running stats."""

    def __init__(self, channels: int, momentum: float = 0.1,
                 eps: float = 1e-5) -> None:
        if channels < 1:
            raise ShapeError(f"bad channel count {channels}")
        self.channels = channels
        self.momentum = momentum
        self.eps = eps
        self.gamma = np.ones(channels, dtype=np.float32)
        self.beta = np.zeros(channels, dtype=np.float32)
        self.dgamma = np.zeros_like(self.gamma)
        self.dbeta = np.zeros_like(self.beta)
        self.running_mean = np.zeros(channels, dtype=np.float32)
        self.running_var = np.ones(channels, dtype=np.float32)
        self._cache: Optional[Tuple] = None
        self.name = "batchnorm"

    def forward(self, x: np.ndarray, training: bool = True) -> np.ndarray:
        if x.ndim != 4 or x.shape[1] != self.channels:
            raise ShapeError(
                f"batchnorm expects (N, {self.channels}, H, W), got "
                f"{x.shape}")
        if training:
            mean = x.mean(axis=(0, 2, 3))
            var = x.var(axis=(0, 2, 3))
            self.running_mean += self.momentum * (mean - self.running_mean)
            self.running_var += self.momentum * (var - self.running_var)
        else:
            mean, var = self.running_mean, self.running_var
        inv_std = 1.0 / np.sqrt(var + self.eps)
        x_hat = (x - mean[None, :, None, None]) \
            * inv_std[None, :, None, None]
        out = (self.gamma[None, :, None, None] * x_hat
               + self.beta[None, :, None, None]).astype(np.float32)
        self._cache = (freeze(x_hat), freeze(inv_std), x.shape) \
            if training else None
        return out

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        if self._cache is None:
            raise ShapeError("backward before forward in BatchNorm2d")
        x_hat, inv_std, shape = self._cache
        n, _, h, w = shape
        m = n * h * w
        self.dgamma[...] = (grad_out * x_hat).sum(axis=(0, 2, 3))
        self.dbeta[...] = grad_out.sum(axis=(0, 2, 3))
        g = grad_out * self.gamma[None, :, None, None]
        sum_g = g.sum(axis=(0, 2, 3), keepdims=True)
        sum_gx = (g * x_hat).sum(axis=(0, 2, 3), keepdims=True)
        dx = (g - sum_g / m - x_hat * sum_gx / m) \
            * inv_std[None, :, None, None]
        return dx.astype(np.float32)

    def params(self) -> Dict[str, np.ndarray]:
        return {"gamma": self.gamma, "beta": self.beta}

    def grads(self) -> Dict[str, np.ndarray]:
        return {"gamma": self.dgamma, "beta": self.dbeta}

    def buffers(self) -> Dict[str, np.ndarray]:
        return {"running_mean": self.running_mean,
                "running_var": self.running_var}


class SiLU(Layer):
    """SiLU / swish: ``x * sigmoid(x)`` — the YOLOv8/v11 activation."""

    def __init__(self) -> None:
        self._cache: Optional[np.ndarray] = None
        self.name = "silu"

    def forward(self, x: np.ndarray, training: bool = True) -> np.ndarray:
        # Copy, not a reference: the caller owns x and may reuse its
        # buffer before backward runs (RL202 — the same by-reference-
        # cache family as the Linear gradient bug).  The backward
        # recomputes sigmoid(x) rather than caching it.
        self._cache = freeze(x.copy()) if training else None
        s = sigmoid(x)
        return np.multiply(x, s, out=s)

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        if self._cache is None:
            raise ShapeError("backward before forward in SiLU")
        x = self._cache
        s = sigmoid(x)
        # grad * s * (1 + x * (1 - s)), built up in one float32 buffer.
        d = np.subtract(1.0, s)
        np.multiply(x, d, out=d)
        np.add(d, 1.0, out=d)
        np.multiply(s, d, out=d)
        return np.multiply(grad_out, d, out=d)


class MaxPool2d(Layer):
    """Max pooling with ``kernel == stride`` (the YOLO downsample case)."""

    def __init__(self, kernel: int = 2) -> None:
        if kernel < 1:
            raise ShapeError(f"bad pool kernel {kernel}")
        self.kernel = kernel
        self._cache: Optional[Tuple] = None
        self.name = f"maxpool{kernel}"

    def forward(self, x: np.ndarray, training: bool = True) -> np.ndarray:
        k = self.kernel
        n, c, h, w = x.shape
        if h % k or w % k:
            raise ShapeError(
                f"pool input {h}x{w} not divisible by kernel {k}")
        ho, wo = h // k, w // k
        windows = x.reshape(n, c, ho, k, wo, k)
        windows = windows.transpose(0, 1, 2, 4, 3, 5).reshape(
            n, c, ho, wo, k * k)
        arg = windows.argmax(axis=-1)
        out = np.take_along_axis(windows, arg[..., None],
                                 axis=-1)[..., 0]
        self._cache = (freeze(arg), x.shape) if training else None
        return np.ascontiguousarray(out, dtype=np.float32)

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        if self._cache is None:
            raise ShapeError("backward before forward in MaxPool2d")
        arg, (n, c, h, w) = self._cache
        k = self.kernel
        ho, wo = h // k, w // k
        dwin = np.zeros((n, c, ho, wo, k * k), dtype=np.float32)
        np.put_along_axis(dwin, arg[..., None],
                          grad_out[..., None].astype(np.float32), axis=-1)
        dwin = dwin.reshape(n, c, ho, wo, k, k).transpose(0, 1, 2, 4, 3, 5)
        return np.ascontiguousarray(dwin.reshape(n, c, h, w))


class Upsample2x(Layer):
    """Nearest-neighbour 2× upsampling (FPN/decoder path)."""

    def __init__(self) -> None:
        self._in_shape: Optional[Tuple[int, ...]] = None
        self.name = "upsample2x"

    def forward(self, x: np.ndarray, training: bool = True) -> np.ndarray:
        self._in_shape = x.shape if training else None
        return np.repeat(np.repeat(x, 2, axis=2), 2, axis=3)

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        if self._in_shape is None:
            raise ShapeError("backward before forward in Upsample2x")
        n, c, h, w = self._in_shape
        g = grad_out.reshape(n, c, h, 2, w, 2)
        return np.ascontiguousarray(g.sum(axis=(3, 5)), dtype=np.float32)


class Flatten(Layer):
    """NCHW → (N, C*H*W)."""

    def __init__(self) -> None:
        self._in_shape: Optional[Tuple[int, ...]] = None
        self.name = "flatten"

    def forward(self, x: np.ndarray, training: bool = True) -> np.ndarray:
        self._in_shape = x.shape if training else None
        return np.ascontiguousarray(x.reshape(x.shape[0], -1))

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        if self._in_shape is None:
            raise ShapeError("backward before forward in Flatten")
        return grad_out.reshape(self._in_shape)


class Linear(Layer):
    """Fully connected layer: ``y = x W^T + b``."""

    def __init__(self, in_features: int, out_features: int,
                 bias: bool = True,
                 rng: Optional[np.random.Generator] = None) -> None:
        if in_features < 1 or out_features < 1:
            raise ShapeError(
                f"bad linear config {in_features}->{out_features}")
        self.in_features = in_features
        self.out_features = out_features
        gen = rng if rng is not None else np.random.default_rng(0)
        self.weight = xavier_init((out_features, in_features), gen)
        self.bias = zeros_init((out_features,)) if bias else None
        self.dweight = np.zeros_like(self.weight)
        self.dbias = np.zeros_like(self.bias) if bias else None
        self._x: Optional[np.ndarray] = None
        self.name = "linear"

    def forward(self, x: np.ndarray, training: bool = True) -> np.ndarray:
        if x.ndim != 2 or x.shape[1] != self.in_features:
            raise ShapeError(
                f"linear expects (N, {self.in_features}), got {x.shape}")
        if training:
            # Copy: callers may mutate x in place between forward and
            # backward, which would silently corrupt dweight.
            self._x = x.copy()
            self._x.flags.writeable = False
        else:
            self._x = None
        out = x @ self.weight.T
        if self.bias is not None:
            out = out + self.bias
        return out.astype(np.float32)

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        if self._x is None:
            raise ShapeError("backward before forward in Linear")
        self.dweight[...] = grad_out.T @ self._x
        if self.bias is not None:
            self.dbias[...] = grad_out.sum(axis=0)
        return (grad_out @ self.weight).astype(np.float32)

    def params(self) -> Dict[str, np.ndarray]:
        out = {"weight": self.weight}
        if self.bias is not None:
            out["bias"] = self.bias
        return out

    def grads(self) -> Dict[str, np.ndarray]:
        out = {"weight": self.dweight}
        if self.bias is not None:
            out["bias"] = self.dbias
        return out
