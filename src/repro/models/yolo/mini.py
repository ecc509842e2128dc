"""Executable mini-YOLO: a trainable anchor-free single-shot detector.

Structurally a miniature of the YOLOv8/v11 design: Conv-BN-SiLU stem,
CSP stages, SPPF, and an anchor-free per-cell head predicting
``[objectness, tx, ty, tw, th]`` on a stride-8 grid.  Size variants n/m/x
scale width and depth exactly the way the full models do, so the
capacity-vs-robustness trend of Fig. 4 emerges from the same mechanism.

The v11-style variants use an extra 1×1 bottleneck projection (cheaper
per parameter, mirroring C3k2's thinner hidden channels), giving v11
minis slightly fewer parameters at matched size — as in Table 2.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

import numpy as np

from ...errors import ModelError, ShapeError
from ...nn.blocks import ConvBNAct, CSPBlock, SPPFBlock
from ...nn.layers import Conv2d, sigmoid
from ...nn.network import Sequential, count_parameters
from ...nn.workspace import Workspace
from ...rng import make_rng

#: Output channels per grid cell: objectness + (tx, ty, tw, th).
HEAD_CHANNELS = 5


@dataclass(frozen=True)
class MiniYoloConfig:
    """Width/depth scaling of a mini variant."""

    family: str            # "yolov8" or "yolov11"
    variant: str           # "n" / "m" / "x"
    base_channels: int
    csp_repeats: int
    image_size: int = 64
    stride: int = 8

    def __post_init__(self) -> None:
        if self.image_size % self.stride:
            raise ModelError(
                f"image size {self.image_size} not divisible by stride "
                f"{self.stride}")
        if self.base_channels < 4 or self.csp_repeats < 1:
            raise ModelError("mini variant too small")

    @property
    def grid(self) -> int:
        return self.image_size // self.stride

    @property
    def name(self) -> str:
        return f"mini-{self.family}-{self.variant}"


#: The six mini variants mirroring the paper's model matrix.
MINI_YOLO_VARIANTS: Dict[str, MiniYoloConfig] = {
    cfg.name: cfg for cfg in (
        MiniYoloConfig("yolov8", "n", base_channels=8, csp_repeats=1),
        MiniYoloConfig("yolov8", "m", base_channels=16, csp_repeats=2),
        MiniYoloConfig("yolov8", "x", base_channels=24, csp_repeats=3),
        MiniYoloConfig("yolov11", "n", base_channels=8, csp_repeats=1),
        MiniYoloConfig("yolov11", "m", base_channels=16, csp_repeats=2),
        MiniYoloConfig("yolov11", "x", base_channels=24, csp_repeats=3),
    )
}


class MiniYolo:
    """Trainable mini detector with decode to image-space boxes."""

    def __init__(self, config: MiniYoloConfig, seed: int = 7) -> None:
        self.config = config
        rng = make_rng(seed, "mini-yolo", config.name)
        c = config.base_channels
        layers = [
            ConvBNAct(3, c, 3, stride=2, rng=rng),           # /2
            ConvBNAct(c, 2 * c, 3, stride=2, rng=rng),       # /4
            CSPBlock(2 * c, 2 * c, n=config.csp_repeats, rng=rng),
            ConvBNAct(2 * c, 4 * c, 3, stride=2, rng=rng),   # /8
            CSPBlock(4 * c, 4 * c, n=config.csp_repeats, rng=rng),
        ]
        if config.family == "yolov11":
            # C3k2-style thin projection: extra cheap 1×1 stage.
            layers.append(ConvBNAct(4 * c, 4 * c, 1, rng=rng))
        layers.append(SPPFBlock(4 * c, rng=rng))
        layers.append(Conv2d(4 * c, HEAD_CHANNELS, 1, bias=True, rng=rng))
        self.net = Sequential(layers, name=config.name)
        #: Folded eval pipeline; built lazily by :meth:`fuse`, dropped by
        #: any training forward (folded weights would go stale).
        self._fused = None

    # -- eval-time folding -------------------------------------------------

    def fuse(self) -> None:
        """Fold Conv→BN(+SiLU) chains for fast eval forwards.

        Subsequent ``forward(training=False)`` calls run through the
        fused pipeline; training forwards keep using (and updating) the
        unfused network and invalidate the fold.  ``load()`` re-folds
        automatically so the fused weights track the checkpoint.  The
        fused convs keep their intermediates in one workspace arena
        reused across frames.
        """
        self._fused = self.net.fuse(workspace=Workspace())

    @property
    def fused(self) -> bool:
        """Whether eval forwards currently run the folded pipeline."""
        return self._fused is not None

    # -- core passes -------------------------------------------------------

    def forward(self, images: np.ndarray,
                training: bool = True) -> np.ndarray:
        """Raw head output ``(N, 5, G, G)`` from NCHW images."""
        if images.ndim != 4 or images.shape[1] != 3:
            raise ShapeError(
                f"expected (N, 3, H, W) images, got {images.shape}")
        if images.shape[2] != self.config.image_size \
                or images.shape[3] != self.config.image_size:
            raise ShapeError(
                f"expected {self.config.image_size}px input, got "
                f"{images.shape[2:]} — letterbox first")
        if training:
            # Parameters are about to change; the fold would go stale.
            self._fused = None
            out = self.net.forward(images, training=True)
        elif self._fused is not None:
            out = self._fused.forward(images, training=False)
        else:
            out = self.net.forward(images, training=False)
        g = self.config.grid
        if out.shape[1:] != (HEAD_CHANNELS, g, g):
            raise ShapeError(
                f"head produced {out.shape}, expected (N, "
                f"{HEAD_CHANNELS}, {g}, {g})")
        return out

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        return self.net.backward(grad_out)

    # -- decode ------------------------------------------------------------

    def decode(self, raw: np.ndarray
               ) -> Tuple[np.ndarray, np.ndarray]:
        """Head output → per-cell scores and boxes.

        Returns ``(scores (N, G*G), boxes (N, G*G, 4) xyxy pixels)``.
        Box parameterisation: centre = (cell + σ(txy)) · stride,
        size = exp(twh) · stride (clamped for stability).
        """
        n, _, g, _ = raw.shape
        stride = self.config.stride
        obj = sigmoid(raw[:, 0])                      # (N, G, G)
        txy = sigmoid(raw[:, 1:3])                    # (N, 2, G, G)
        twh = np.clip(raw[:, 3:5], -4.0, 4.0)
        gy, gx = np.meshgrid(np.arange(g), np.arange(g), indexing="ij")
        cx = (gx[None] + txy[:, 0]) * stride
        cy = (gy[None] + txy[:, 1]) * stride
        w = np.exp(twh[:, 0]) * stride
        h = np.exp(twh[:, 1]) * stride
        boxes = np.stack([cx - w / 2, cy - h / 2, cx + w / 2, cy + h / 2],
                         axis=-1)                     # (N, G, G, 4)
        return (obj.reshape(n, g * g),
                boxes.reshape(n, g * g, 4).astype(np.float64))

    # -- convenience -------------------------------------------------------

    def num_parameters(self) -> int:
        return count_parameters(self.net)

    def save(self, path: str) -> None:
        self.net.save(path, meta={
            "family": self.config.family,
            "variant": self.config.variant,
            "image_size": self.config.image_size,
        })

    def load(self, path: str) -> None:
        meta = self.net.load(path)
        if meta.get("family") not in (None, self.config.family):
            raise ModelError(
                f"checkpoint family {meta.get('family')!r} does not match "
                f"model {self.config.family!r}")
        if self._fused is not None:
            # Re-fold from the restored parameters; the previous fold
            # captured pre-checkpoint weights.
            self.fuse()


def build_mini_yolo(family: str, variant: str, seed: int = 7,
                    image_size: Optional[int] = None) -> MiniYolo:
    """Construct a mini variant by family/size (optionally resized)."""
    key = f"mini-{family}-{variant}"
    try:
        cfg = MINI_YOLO_VARIANTS[key]
    except KeyError:
        raise ModelError(
            f"unknown mini variant {key!r}; known: "
            f"{sorted(MINI_YOLO_VARIANTS)}") from None
    if image_size is not None and image_size != cfg.image_size:
        cfg = MiniYoloConfig(cfg.family, cfg.variant, cfg.base_channels,
                             cfg.csp_repeats, image_size=image_size,
                             stride=cfg.stride)
    return MiniYolo(cfg, seed=seed)
