"""Thermal-imaging channel rendered from scene ground truth.

A thermal camera sees emitted infrared, not reflected visible light: a
person reads ~34 °C against a ~15–25 °C background regardless of scene
illumination.  The renderer therefore synthesises the thermal frame from
the scene *geometry* (person/vehicle masks via the z-buffer and object
boxes), never from the RGB pixels — which is exactly why the modality is
robust to the low-light/blur corruptions that break the RGB detector
(the property the multimodal ablation measures).

Output: ``(H, W)`` float32 temperature map in °C.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from ..dataset.renderer import RenderedFrame
from ..errors import ConfigError
from ..rng import coerce_rng

#: Typical surface temperatures (°C).
PERSON_TEMP_C = 33.5
ENGINE_TEMP_C = 45.0
AMBIENT_DAY_C = 22.0
AMBIENT_NIGHT_C = 12.0
SKY_TEMP_C = -5.0          # clear sky reads very cold in LWIR
#: Optical blur of microbolometer arrays (pixels).
BLUR_SIGMA = 0.5


@dataclass(frozen=True)
class ThermalConfig:
    """Thermal sensor characteristics."""

    ambient_c: float = AMBIENT_DAY_C
    #: NETD-like sensor noise (°C std).
    noise_c: float = 0.25
    #: Atmospheric attenuation length (metres) toward ambient.
    attenuation_m: float = 150.0

    def __post_init__(self) -> None:
        if self.noise_c < 0:
            raise ConfigError("thermal noise must be non-negative")
        if self.attenuation_m <= 0:
            raise ConfigError("attenuation length must be positive")


class ThermalRenderer:
    """Renders the thermal channel for a :class:`RenderedFrame`."""

    def __init__(self, config: ThermalConfig = ThermalConfig()) -> None:
        self.config = config

    def render(self, frame: RenderedFrame,
               rng: Optional[np.random.Generator] = None) -> np.ndarray:
        """Temperature map (°C) aligned with the frame's pixels."""
        gen = coerce_rng(rng, "thermal")
        cfg = self.config
        h, w = frame.depth.shape

        temp = np.full((h, w), cfg.ambient_c, dtype=np.float32)
        # Sky: anything at the far plane above the horizon.
        temp[frame.depth >= frame.depth.max() - 1e-3] = SKY_TEMP_C

        # Warm bodies: VIP + pedestrians from their boxes, gated by the
        # z-buffer so occluded pixels stay at the occluder's temperature.
        for box in frame.vest_boxes:
            # The vest covers the torso; the warm body extends further
            # vertically (head/legs) than laterally.
            self._paint_warm(temp, frame, box, PERSON_TEMP_C,
                             expand_x=0.5, expand_y=1.5)
        for box in frame.object_boxes:
            if box.cls == 1:                    # pedestrian
                self._paint_warm(temp, frame, box, PERSON_TEMP_C,
                                 expand_x=0.1, expand_y=0.1)
            elif box.cls == 3:                  # parked car: warm engine
                self._paint_warm(temp, frame, box, ENGINE_TEMP_C,
                                 expand_x=0.2, expand_y=0.2)

        # Atmospheric attenuation: distant objects fade toward ambient.
        fade = np.exp(-frame.depth / cfg.attenuation_m)
        temp = cfg.ambient_c + (temp - cfg.ambient_c) * fade

        # Sensor blur + NETD noise.
        from ..image.ops import gaussian_blur
        temp = gaussian_blur(np.repeat(temp[:, :, None], 3, axis=2),
                             BLUR_SIGMA)[:, :, 0]
        if cfg.noise_c > 0:
            temp = temp + gen.normal(0.0, cfg.noise_c,
                                     size=temp.shape).astype(np.float32)
        return np.ascontiguousarray(temp, dtype=np.float32)

    @staticmethod
    def _paint_warm(temp: np.ndarray, frame: RenderedFrame, box,
                    temperature: float, expand_x: float,
                    expand_y: float) -> None:
        """Write a warm region for a person/engine box.

        ``expand_x``/``expand_y`` grow the box toward the full warm
        silhouette.  Only pixels whose depth matches the object's
        (within 1 m) are painted, so occlusion is respected.
        """
        h, w = temp.shape
        cx = 0.5 * (box.x1 + box.x2)
        cy = 0.5 * (box.y1 + box.y2)
        half_w = 0.5 * (box.x2 - box.x1) * (1.0 + expand_x)
        half_h = 0.5 * (box.y2 - box.y1) * (1.0 + expand_y)
        x1 = int(np.clip(cx - half_w, 0, w - 1))
        x2 = int(np.clip(cx + half_w + 1, x1 + 1, w))
        y1 = int(np.clip(cy - half_h, 0, h - 1))
        y2 = int(np.clip(cy + half_h + 1, y1 + 1, h))
        region_depth = frame.depth[y1:y2, x1:x2]
        centre_depth = float(np.median(
            frame.depth[int(np.clip(cy, 0, h - 1)),
                        int(np.clip(cx, 0, w - 1))]))
        mask = np.abs(region_depth - centre_depth) < 1.0
        temp[y1:y2, x1:x2][mask] = temperature

