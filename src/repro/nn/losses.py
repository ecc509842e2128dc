"""Loss functions.

The detector trains with BCE on objectness plus a box-regression term on
positive cells (the standard single-shot recipe).  ``heatmap_loss`` returns a ``(value, grad)`` pair; the detector computes
its BCE gradient next to its box terms in ``detection_loss``.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from ..errors import TrainingError


def bce_with_logits(logits: np.ndarray, targets: np.ndarray,
                    weights: np.ndarray = None) -> float:
    """Mean binary cross-entropy on logits (numerically stable)."""
    if logits.shape != targets.shape:
        raise TrainingError(
            f"bce shapes differ: {logits.shape} vs {targets.shape}")
    z = logits.astype(np.float64)
    t = targets.astype(np.float64)
    # log(1 + exp(-|z|)) + max(z, 0) - z*t form.
    per = np.maximum(z, 0) - z * t + np.log1p(np.exp(-np.abs(z)))
    if weights is not None:
        per = per * weights
        denom = max(float(np.sum(weights)), 1e-12)
        return float(np.sum(per) / denom)
    return float(np.mean(per))


def heatmap_loss(pred: np.ndarray, target: np.ndarray,
                 pos_weight: float = 10.0) -> Tuple[float, np.ndarray]:
    """Weighted MSE for keypoint heatmaps.

    Positive (peak) pixels are rare, so they are up-weighted; this is the
    simple stable alternative to focal loss at mini scale.
    """
    if pred.shape != target.shape:
        raise TrainingError(
            f"heatmap shapes differ: {pred.shape} vs {target.shape}")
    if pos_weight <= 0:
        raise TrainingError(f"pos_weight must be positive, got {pos_weight}")
    w = np.where(target > 0.1, pos_weight, 1.0)
    diff = (pred - target).astype(np.float64)
    value = float(np.mean(w * diff ** 2))
    grad = (2.0 * w * diff / diff.size).astype(np.float32)
    return value, grad
