"""Adversarial-condition augmentation.

The Ocularone dataset's fifth category (4,384 images) contains frames
captured under adversarial conditions: "low light, blur, cropped image,
etc." plus tilted orientations (paper §2).  This module reproduces those
corruptions as parameterised transforms with a severity knob in
``[0, 1]``, so the ablation benchmark can sweep corruption strength and
show where small models break before large ones (Fig. 4's mechanism).

Each transform also remaps annotations (bounding boxes) so corrupted
frames keep valid ground truth.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from ..errors import ConfigError
from ..geometry.bbox import BBox, clip_boxes, boxes_to_array
from ..rng import coerce_rng
from . import ops

#: Strongest condition of each corruption, reached at severity 1.0.
MAX_BLUR_SIGMA = 3.0
MIN_BRIGHTNESS = 0.15
MAX_TILT_DEG = 20.0
MAX_CROP_FRACTION = 0.35
MAX_NOISE_SIGMA = 0.12


class AdversarialKind(enum.Enum):
    """The adversarial conditions enumerated in Table 1 row 5."""

    LOW_LIGHT = "low_light"
    BLUR = "blur"
    CROP = "crop"
    TILT = "tilt"
    NOISE = "noise"


@dataclass(frozen=True)
class AugmentConfig:
    """Severity-parameterised corruption settings.

    ``severity`` in ``[0, 1]`` linearly interpolates each corruption from
    imperceptible to the strongest condition present in the dataset
    (e.g. severity 1.0 low light ≈ dusk footage at 15 % exposure).
    """

    severity: float = 0.5

    def __post_init__(self) -> None:
        if not 0.0 <= self.severity <= 1.0:
            raise ConfigError(
                f"severity must be in [0, 1], got {self.severity}")


def apply_adversarial(
    img: np.ndarray,
    boxes: Sequence[BBox],
    kind: AdversarialKind,
    cfg: AugmentConfig = AugmentConfig(),
    rng: Optional[np.random.Generator] = None,
) -> Tuple[np.ndarray, List[BBox]]:
    """Apply one adversarial corruption; returns (image, remapped boxes).

    Boxes may be dropped if a crop removes them entirely.
    """
    gen = coerce_rng(rng, "augment", kind.value)
    s = cfg.severity
    h, w = img.shape[:2]

    if kind is AdversarialKind.LOW_LIGHT:
        factor = 1.0 + s * (MIN_BRIGHTNESS - 1.0)
        out = ops.adjust_brightness(img, factor)
        # Low light also reduces contrast and raises sensor noise.
        out = ops.adjust_contrast(out, 1.0 - 0.4 * s)
        out = ops.add_noise(out, 0.5 * MAX_NOISE_SIGMA * s, gen)
        return out, list(boxes)

    if kind is AdversarialKind.BLUR:
        sigma = s * MAX_BLUR_SIGMA
        return ops.gaussian_blur(img, sigma), list(boxes)

    if kind is AdversarialKind.NOISE:
        return ops.add_noise(img, s * MAX_NOISE_SIGMA, gen), list(boxes)

    if kind is AdversarialKind.TILT:
        angle = float(gen.uniform(-1.0, 1.0)) * s * MAX_TILT_DEG
        out = ops.rotate(img, angle)
        # Boxes stay approximately valid for small drone-roll angles; we
        # expand them by the rotation-induced slack and clip.
        arr = boxes_to_array(list(boxes))
        if len(arr):
            slack = np.abs(np.sin(np.deg2rad(angle)))
            cx = 0.5 * (arr[:, 0] + arr[:, 2])
            cy = 0.5 * (arr[:, 1] + arr[:, 3])
            bw = (arr[:, 2] - arr[:, 0]) * (1.0 + slack)
            bh = (arr[:, 3] - arr[:, 1]) * (1.0 + slack)
            arr = np.stack([cx - bw / 2, cy - bh / 2,
                            cx + bw / 2, cy + bh / 2], axis=1)
            arr = clip_boxes(arr, w, h)
            kept = [BBox(*row, cls=b.cls, conf=b.conf)
                    for row, b in zip(arr, boxes)
                    if row[2] - row[0] > 1 and row[3] - row[1] > 1]
        else:
            kept = []
        return out, kept

    if kind is AdversarialKind.CROP:
        frac = s * MAX_CROP_FRACTION
        dx = int(frac * w * float(gen.random()))
        dy = int(frac * h * float(gen.random()))
        x2 = w - int(frac * w * float(gen.random()))
        y2 = h - int(frac * h * float(gen.random()))
        x2 = max(x2, dx + 8)
        y2 = max(y2, dy + 8)
        cropped = ops.crop(img, dx, dy, min(x2, w), min(y2, h))
        kept: List[BBox] = []
        for b in boxes:
            nx1, ny1 = b.x1 - dx, b.y1 - dy
            nx2, ny2 = b.x2 - dx, b.y2 - dy
            ch, cw = cropped.shape[:2]
            nx1, nx2 = np.clip([nx1, nx2], 0, cw)
            ny1, ny2 = np.clip([ny1, ny2], 0, ch)
            if nx2 - nx1 > 1 and ny2 - ny1 > 1:
                kept.append(BBox(float(nx1), float(ny1), float(nx2),
                                 float(ny2), cls=b.cls, conf=b.conf))
        return cropped, kept

    raise ConfigError(f"unknown adversarial kind {kind!r}")
