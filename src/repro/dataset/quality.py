"""Dataset quality control: the checks a 30k-image collection needs.

Real drone datasets accumulate defects that silently poison training:
near-duplicate frames (the 30→10 FPS decimation leaves temporally
adjacent, almost-identical frames) and strata whose content drifts.
This module provides:

* perceptual fingerprints (difference-hash) and their Hamming distance,
  which tell near-duplicate frames apart from distinct scenes;
* per-stratum content statistics for the curation report.
"""

from __future__ import annotations

from typing import Dict

import numpy as np

from ..errors import DatasetError
from .builder import DatasetIndex
from .renderer import SceneRenderer

#: dHash grid size (hash length = HASH_SIZE² bits).
HASH_SIZE = 8


def _block_mean(gray: np.ndarray, out_h: int, out_w: int) -> np.ndarray:
    """Average-pooling downsample (not point sampling).

    Each output cell averages its whole source block, so per-pixel
    sensor noise attenuates by 1/√N — the property that makes the hash
    noise-robust on the renderer's large flat regions.
    """
    h, w = gray.shape
    row_edges = np.linspace(0, h, out_h + 1).astype(np.intp)
    col_edges = np.linspace(0, w, out_w + 1).astype(np.intp)
    out = np.empty((out_h, out_w), dtype=np.float64)
    for i in range(out_h):
        rows = gray[row_edges[i]:max(row_edges[i + 1],
                                     row_edges[i] + 1)]
        for j in range(out_w):
            block = rows[:, col_edges[j]:max(col_edges[j + 1],
                                             col_edges[j] + 1)]
            out[i, j] = block.mean()
    return out


#: Gradient dead-zone: |diff| below this encodes as 0.  The renderer's
#: sky/ground are horizontally uniform, so without a dead-zone those
#: exactly-zero diffs would be noise-driven coin flips.
_HASH_EPS = 0.004


def perceptual_hash(image: np.ndarray) -> int:
    """Difference hash over both gradient directions, with a dead-zone.

    Robust to sensor noise (block averaging + dead-zone) while distinct
    scenes differ through object placement and the vertical gradient
    structure.  Hash length: 2 · HASH_SIZE² bits.
    """
    if image.ndim != 3:
        raise DatasetError(f"expected (H, W, 3) image, got {image.shape}")
    gray = np.asarray(image.mean(axis=2), dtype=np.float64)
    sh = _block_mean(gray, HASH_SIZE, HASH_SIZE + 1)
    sv = _block_mean(gray, HASH_SIZE + 1, HASH_SIZE)
    bits = np.concatenate([
        (sh[:, 1:] - sh[:, :-1] > _HASH_EPS).ravel(),
        (sv[1:, :] - sv[:-1, :] > _HASH_EPS).ravel(),
    ])
    value = 0
    for b in bits:
        value = (value << 1) | int(b)
    return value


def hamming_distance(a: int, b: int) -> int:
    """Bit distance between two hashes."""
    return bin(a ^ b).count("1")


def stratum_statistics(index: DatasetIndex, renderer: SceneRenderer,
                       per_stratum: int = 8
                       ) -> Dict[str, Dict[str, float]]:
    """Per-stratum content statistics from a sample of rendered frames.

    Returns, per sub-category: mean image brightness, mean vest-box
    height, vest-presence rate, and mean object count — the inputs a
    curation decision actually uses.
    """
    if per_stratum < 1:
        raise DatasetError("per_stratum must be >= 1")
    stats: Dict[str, Dict[str, float]] = {}
    for key, count in index.category_counts().items():
        records = index.by_category(key)[:per_stratum]
        brightness, heights, vests, objects = [], [], 0, []
        for rec in records:
            frame = rec.render(renderer)
            brightness.append(float(frame.image.mean()))
            objects.append(len(frame.object_boxes))
            if frame.vest_boxes:
                vests += 1
                heights.append(frame.vest_boxes[0].height)
        stats[key] = {
            "images": float(count),
            "mean_brightness": float(np.mean(brightness)),
            "vest_presence": vests / len(records),
            "mean_vest_height_px": float(np.mean(heights))
            if heights else 0.0,
            "mean_distractors": float(np.mean(objects)),
        }
    return stats
