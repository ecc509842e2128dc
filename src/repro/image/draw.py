"""Vectorised rasterisation primitives for the synthetic scene renderer.

The renderer composes scenes (ground plane, sky, pedestrians, bicycles,
cars, the neon-vested VIP) from these primitives.  Every primitive writes
through a boolean mask computed on the full coordinate grid — no per-pixel
Python loops — and optionally writes the object's depth into a z-buffer
(closer objects overwrite farther ones), which is how the renderer gets
pixel-accurate ground-truth depth for the Monodepth2 substitute.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from ..errors import ConfigError

Color = Tuple[float, float, float]


def _grid(h: int, w: int) -> Tuple[np.ndarray, np.ndarray]:
    ys, xs = np.meshgrid(np.arange(h, dtype=np.float32),
                         np.arange(w, dtype=np.float32), indexing="ij")
    return ys, xs


def _paint(img: np.ndarray, mask: np.ndarray, color: Color,
           depth: Optional[np.ndarray], z: float) -> None:
    """Write ``color`` where ``mask`` is set and the z-test passes."""
    if depth is not None:
        mask = mask & (z < depth)
        depth[mask] = z
    img[mask] = np.asarray(color, dtype=np.float32)


def fill_rect(img: np.ndarray, x1: float, y1: float, x2: float, y2: float,
              color: Color, depth: Optional[np.ndarray] = None,
              z: float = 0.0) -> None:
    """Fill an axis-aligned rectangle (in-place)."""
    h, w = img.shape[:2]
    ix1, iy1 = max(0, int(np.floor(x1))), max(0, int(np.floor(y1)))
    ix2, iy2 = min(w, int(np.ceil(x2))), min(h, int(np.ceil(y2)))
    if ix1 >= ix2 or iy1 >= iy2:
        return
    if depth is not None:
        region = depth[iy1:iy2, ix1:ix2]
        mask = z < region
        region[mask] = z
        img[iy1:iy2, ix1:ix2][mask] = np.asarray(color, dtype=np.float32)
    else:
        img[iy1:iy2, ix1:ix2] = np.asarray(color, dtype=np.float32)


def fill_circle(img: np.ndarray, cx: float, cy: float, radius: float,
                color: Color, depth: Optional[np.ndarray] = None,
                z: float = 0.0) -> None:
    """Fill a disc (in-place)."""
    if radius <= 0:
        raise ConfigError(f"radius must be positive, got {radius}")
    h, w = img.shape[:2]
    ys, xs = _grid(h, w)
    mask = (xs - cx) ** 2 + (ys - cy) ** 2 <= radius ** 2
    _paint(img, mask, color, depth, z)


def draw_line(img: np.ndarray, x1: float, y1: float, x2: float, y2: float,
              color: Color, thickness: float = 1.0,
              depth: Optional[np.ndarray] = None, z: float = 0.0) -> None:
    """Draw a thick line segment (distance-to-segment mask)."""
    if thickness <= 0:
        raise ConfigError(f"thickness must be positive, got {thickness}")
    h, w = img.shape[:2]
    ys, xs = _grid(h, w)
    dx, dy = x2 - x1, y2 - y1
    seg_len2 = dx * dx + dy * dy
    if seg_len2 < 1e-12:
        fill_circle(img, x1, y1, max(thickness / 2.0, 0.75), color, depth, z)
        return
    t = ((xs - x1) * dx + (ys - y1) * dy) / seg_len2
    t = np.clip(t, 0.0, 1.0)
    px = x1 + t * dx
    py = y1 + t * dy
    dist2 = (xs - px) ** 2 + (ys - py) ** 2
    mask = dist2 <= (thickness / 2.0) ** 2
    _paint(img, mask, color, depth, z)


def vertical_gradient(h: int, w: int, top: Color, bottom: Color) -> np.ndarray:
    """Sky/ground background: linear vertical blend between two colors."""
    if h <= 0 or w <= 0:
        raise ConfigError(f"bad canvas size {h}x{w}")
    t = np.linspace(0.0, 1.0, h, dtype=np.float32)[:, None, None]
    top_c = np.asarray(top, dtype=np.float32)[None, None, :]
    bot_c = np.asarray(bottom, dtype=np.float32)[None, None, :]
    return np.broadcast_to(top_c * (1 - t) + bot_c * t, (h, w, 3)).copy()


def checker_texture(h: int, w: int, cell: int, a: Color, b: Color) -> np.ndarray:
    """Checkerboard texture (paving tiles on footpath scenes)."""
    if cell <= 0:
        raise ConfigError(f"cell must be positive, got {cell}")
    ys, xs = np.meshgrid(np.arange(h) // cell, np.arange(w) // cell,
                         indexing="ij")
    mask = ((ys + xs) % 2).astype(bool)
    out = np.empty((h, w, 3), dtype=np.float32)
    out[~mask] = np.asarray(a, dtype=np.float32)
    out[mask] = np.asarray(b, dtype=np.float32)
    return out
