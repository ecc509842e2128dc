"""Planar LiDAR simulator ray-cast against the renderer's depth buffer.

A single-plane scanning LiDAR (the class of sensor a small drone or a
smart cane could carry) sweeps an angular field of view and returns one
range per beam.  We ray-cast each beam against the rendered depth map
along the camera's horizontal mid-line: the depth buffer *is* the range
field, so the scan is geometrically consistent with the RGB/depth/pose
ground truth.  Range noise, quantisation and beam dropout model the real
sensor.

Obstacle extraction clusters consecutive returns at similar range — the
classic jump-distance segmentation — giving range/bearing obstacles that
complement monocular depth (the LiDAR sees *absolute metric* range where
Monodepth2 is scale-ambiguous).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from ..dataset.renderer import RenderedFrame, SKY_DEPTH
from ..errors import ConfigError
from ..rng import coerce_rng

#: Returns at or beyond this range are dropped (no return).
MAX_RANGE_M = 40.0


@dataclass(frozen=True)
class LidarConfig:
    """Sensor model parameters."""

    num_beams: int = 64
    fov_deg: float = 90.0            # centred on the camera axis
    range_noise_m: float = 0.03      # 1σ per-return noise
    dropout_prob: float = 0.02       # absorbing surfaces / specular miss
    quantisation_m: float = 0.01

    def __post_init__(self) -> None:
        if self.num_beams < 2:
            raise ConfigError("need at least 2 beams")
        if not 0 < self.fov_deg <= 180:
            raise ConfigError(f"fov {self.fov_deg} outside (0, 180]")
        if not 0.0 <= self.dropout_prob < 1.0:
            raise ConfigError("dropout probability outside [0, 1)")


@dataclass(frozen=True)
class LidarScan:
    """One sweep: per-beam bearings (rad) and ranges (m, NaN = no
    return)."""

    bearings_rad: np.ndarray
    ranges_m: np.ndarray

    def __post_init__(self) -> None:
        if self.bearings_rad.shape != self.ranges_m.shape:
            raise ConfigError("bearing/range shape mismatch")

    @property
    def valid(self) -> np.ndarray:
        return np.isfinite(self.ranges_m)

    def min_range(self) -> float:
        """Nearest return in the sweep (∞ if empty)."""
        if not self.valid.any():
            return float("inf")
        return float(np.nanmin(self.ranges_m))


def simulate_lidar_scan(frame: RenderedFrame,
                        config: LidarConfig = LidarConfig(),
                        rng: Optional[np.random.Generator] = None
                        ) -> LidarScan:
    """Ray-cast a planar sweep against the frame's depth buffer.

    Beams sample the depth map along the row just below the horizon
    (chest height for the close-range scene), mapping bearing linearly
    to image column — the small-angle pinhole approximation consistent
    with the renderer's projection.
    """
    gen = coerce_rng(rng, "lidar")
    h, w = frame.depth.shape
    horizon_row = int(frame.spec.camera.horizon * h)
    scan_row = min(h - 1, horizon_row + max(2, h // 10))

    half_fov = np.deg2rad(config.fov_deg) / 2.0
    bearings = np.linspace(-half_fov, half_fov, config.num_beams)
    # Bearing → column: linear across the FoV.
    cols = ((bearings + half_fov) / (2 * half_fov) * (w - 1)).astype(
        np.intp)
    ranges = frame.depth[scan_row, cols].astype(np.float64)

    # Beyond max range (or sky) → no return.
    ranges[ranges >= min(MAX_RANGE_M, SKY_DEPTH - 1e-3)] = np.nan
    # Noise, dropout, quantisation.
    noise = gen.normal(0.0, config.range_noise_m, size=ranges.shape)
    ranges = ranges + noise
    drop = gen.random(ranges.shape) < config.dropout_prob
    ranges[drop] = np.nan
    with np.errstate(invalid="ignore"):
        ranges = np.where(
            np.isfinite(ranges),
            np.round(ranges / config.quantisation_m)
            * config.quantisation_m,
            np.nan)
        ranges[ranges <= 0] = np.nan
    return LidarScan(bearings_rad=bearings, ranges_m=ranges)


@dataclass(frozen=True)
class LidarObstacle:
    """A segmented obstacle: bearing span and median range."""

    bearing_rad: float
    range_m: float
    width_beams: int


def scan_obstacles(scan: LidarScan,
                   jump_threshold_m: float = 1.0,
                   min_beams: int = 2) -> List[LidarObstacle]:
    """Jump-distance segmentation of a sweep into discrete obstacles."""
    if jump_threshold_m <= 0:
        raise ConfigError("jump threshold must be positive")
    obstacles: List[LidarObstacle] = []
    current: List[int] = []

    def flush() -> None:
        if len(current) >= min_beams:
            rs = scan.ranges_m[current]
            bs = scan.bearings_rad[current]
            obstacles.append(LidarObstacle(
                bearing_rad=float(np.median(bs)),
                range_m=float(np.median(rs)),
                width_beams=len(current)))
        current.clear()

    prev_r: Optional[float] = None
    for i in range(len(scan.ranges_m)):
        r = scan.ranges_m[i]
        if not np.isfinite(r):
            flush()
            prev_r = None
            continue
        if prev_r is not None and abs(r - prev_r) > jump_threshold_m:
            flush()
        current.append(i)
        prev_r = float(r)
    flush()
    return obstacles
