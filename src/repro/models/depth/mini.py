"""Executable mini depth network: encoder–decoder disparity regression.

Monodepth2 substitute.  The mini model predicts *normalised disparity*
``d = d_min/z`` in (0, 1] at quarter resolution; ground truth comes from
the renderer's z-buffer.  (Monodepth2 itself trains self-supervised from
monocular video; with exact synthetic depth available we train the same
architecture shape supervised — the runtime profile, which is what the
paper benchmarks, is unchanged.)
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

import numpy as np

from ...errors import ShapeError, TrainingError
from ...nn.blocks import ConvBNAct, CSPBlock
from ...nn.layers import Conv2d, Upsample2x, sigmoid
from ...nn.network import Sequential, clip_grads_, count_parameters
from ...nn.optim import Adam
from ...rng import make_rng

#: Nearest depth the disparity encoding can represent (metres).
D_MIN = 1.0
#: Farthest depth (matches the renderer's sky depth).
D_MAX = 80.0


def depth_to_disparity(depth: np.ndarray) -> np.ndarray:
    """Metric depth → normalised disparity in (0, 1]."""
    return (D_MIN / np.clip(depth, D_MIN, D_MAX)).astype(np.float32)


def disparity_to_depth(disp: np.ndarray) -> np.ndarray:
    """Normalised disparity → metric depth."""
    return (D_MIN / np.clip(disp, D_MIN / D_MAX, 1.0)).astype(np.float32)


@dataclass(frozen=True)
class MiniDepthConfig:
    """Mini depth network configuration."""

    image_size: int = 64
    output_stride: int = 4     # decoder stops at quarter resolution
    base_channels: int = 12

    def __post_init__(self) -> None:
        if self.image_size % (self.output_stride * 2):
            raise ShapeError(
                f"image size {self.image_size} incompatible with stride "
                f"{self.output_stride}")

    @property
    def out_size(self) -> int:
        return self.image_size // self.output_stride


class MiniDepth:
    """Encoder–decoder disparity network."""

    def __init__(self, config: MiniDepthConfig = MiniDepthConfig(),
                 seed: int = 7) -> None:
        self.config = config
        rng = make_rng(seed, "mini-depth")
        c = config.base_channels
        self.net = Sequential([
            ConvBNAct(3, c, 3, stride=2, rng=rng),        # /2
            ConvBNAct(c, 2 * c, 3, stride=2, rng=rng),    # /4
            CSPBlock(2 * c, 2 * c, n=1, rng=rng),
            ConvBNAct(2 * c, 4 * c, 3, stride=2, rng=rng),  # /8
            CSPBlock(4 * c, 4 * c, n=1, rng=rng),
            Upsample2x(),                                  # /4
            ConvBNAct(4 * c, 2 * c, 3, rng=rng),
            Conv2d(2 * c, 1, 1, bias=True, rng=rng),
        ], name="mini-depth")

    def forward(self, images: np.ndarray,
                training: bool = True) -> np.ndarray:
        """Images NCHW → raw disparity logits ``(N, 1, S/4, S/4)``."""
        if images.ndim != 4 or images.shape[1] != 3:
            raise ShapeError(f"expected (N, 3, H, W), got {images.shape}")
        return self.net.forward(images, training=training)

    def predict_disparity(self, images: np.ndarray) -> np.ndarray:
        """σ(logits): normalised disparity maps ``(N, S/4, S/4)``."""
        return sigmoid(self.forward(images, training=False))[:, 0]

    def predict_depth(self, images: np.ndarray) -> np.ndarray:
        """Metric depth maps at quarter resolution."""
        return disparity_to_depth(self.predict_disparity(images))

    def num_parameters(self) -> int:
        return count_parameters(self.net)


def downsample_depth(depth: np.ndarray, factor: int) -> np.ndarray:
    """Block-mean downsample of ``(N, H, W)`` depth to target stride."""
    n, h, w = depth.shape
    if h % factor or w % factor:
        raise ShapeError(
            f"depth {h}x{w} not divisible by factor {factor}")
    return depth.reshape(n, h // factor, factor,
                         w // factor, factor).mean(axis=(2, 4))


class DepthTrainer:
    """Adam training loop: BCE-style loss on disparity via sigmoid."""

    def __init__(self, model: MiniDepth, lr: float = 5e-3,
                 epochs: int = 25, batch_size: int = 16,
                 seed: int = 7) -> None:
        if epochs <= 0 or batch_size <= 0:
            raise TrainingError("epochs and batch_size must be positive")
        self.model = model
        self.epochs = epochs
        self.batch_size = batch_size
        self.optimizer = Adam(model.net.params(), model.net.grads(), lr=lr)
        self.rng = make_rng(seed, "depth-train")

    def fit(self, images: np.ndarray,
            depth_maps: np.ndarray) -> List[float]:
        """Train on NCHW images and ``(N, H, W)`` metric depth maps."""
        n = len(images)
        if n == 0 or len(depth_maps) != n:
            raise TrainingError(
                f"bad training data: {n} images, {len(depth_maps)} depths")
        target_disp = depth_to_disparity(
            downsample_depth(depth_maps, self.model.config.output_stride))
        target_disp = target_disp[:, None]  # (N, 1, G, G)
        history: List[float] = []
        for _ in range(self.epochs):
            order = self.rng.permutation(n)
            losses = []
            for start in range(0, n, self.batch_size):
                idx = order[start:start + self.batch_size]
                logits = self.model.forward(images[idx], training=True)
                pred = sigmoid(logits)
                diff = (pred - target_disp[idx]).astype(np.float64)
                loss = float(np.mean(diff ** 2))
                # d(mse)/dlogits = 2*diff*σ'(z); σ' = pred(1-pred).
                grad = (2.0 * diff * pred * (1.0 - pred)
                        / diff.size).astype(np.float32)
                self.model.net.backward(grad)
                clip_grads_(self.model.net, 10.0)
                self.optimizer.step()
                losses.append(loss)
            history.append(float(np.mean(losses)))
        if not np.isfinite(history[-1]):
            raise TrainingError("depth training diverged")
        return history
