"""Loss functions and the CIoU box-overlap measure.

The detector trains with BCE on objectness plus a box-regression term on
positive cells (the standard single-shot recipe); CIoU is provided as the
evaluation-side overlap measure matching the paper's IoU-0.7 protocol.
``heatmap_loss`` returns a ``(value, grad)`` pair; the detector computes
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


def ciou(pred: np.ndarray, target: np.ndarray) -> np.ndarray:
    """Complete-IoU between aligned ``xyxy`` box arrays → ``(N,)``.

    CIoU = IoU − (centre distance)²/(enclosing diagonal)² − α·v, where v
    penalises aspect-ratio mismatch.  Used as a quality measure during
    evaluation and by the detector's box-loss diagnostics.
    """
    pred = np.asarray(pred, dtype=np.float64)
    target = np.asarray(target, dtype=np.float64)
    if pred.shape != target.shape or pred.ndim != 2 or pred.shape[1] != 4:
        raise TrainingError(
            f"ciou expects matching (N, 4) arrays, got {pred.shape} and "
            f"{target.shape}")
    if len(pred) == 0:
        return np.zeros((0,), dtype=np.float64)

    lt = np.maximum(pred[:, :2], target[:, :2])
    rb = np.minimum(pred[:, 2:], target[:, 2:])
    wh = np.clip(rb - lt, 0.0, None)
    inter = wh[:, 0] * wh[:, 1]
    area_p = np.clip((pred[:, 2] - pred[:, 0])
                     * (pred[:, 3] - pred[:, 1]), 0.0, None)
    area_t = np.clip((target[:, 2] - target[:, 0])
                     * (target[:, 3] - target[:, 1]), 0.0, None)
    union = area_p + area_t - inter
    iou = np.where(union > 0, inter / np.maximum(union, 1e-12), 0.0)

    # Enclosing box diagonal.
    enc_lt = np.minimum(pred[:, :2], target[:, :2])
    enc_rb = np.maximum(pred[:, 2:], target[:, 2:])
    enc_wh = np.clip(enc_rb - enc_lt, 1e-12, None)
    c2 = enc_wh[:, 0] ** 2 + enc_wh[:, 1] ** 2

    # Centre distance.
    cp = 0.5 * (pred[:, :2] + pred[:, 2:])
    ct = 0.5 * (target[:, :2] + target[:, 2:])
    rho2 = np.sum((cp - ct) ** 2, axis=1)

    # Aspect-ratio consistency.
    wp = np.clip(pred[:, 2] - pred[:, 0], 1e-12, None)
    hp = np.clip(pred[:, 3] - pred[:, 1], 1e-12, None)
    wt = np.clip(target[:, 2] - target[:, 0], 1e-12, None)
    ht = np.clip(target[:, 3] - target[:, 1], 1e-12, None)
    v = (4.0 / np.pi ** 2) * (np.arctan(wt / ht) - np.arctan(wp / hp)) ** 2
    alpha = v / np.maximum(1.0 - iou + v, 1e-12)
    return iou - rho2 / c2 - alpha * v


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
