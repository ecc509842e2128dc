"""Mini-detector training: target assignment, loss, epoch loop.

Implements the single-shot training recipe at mini scale:

* each ground-truth box is assigned to the grid cell containing its
  centre (anchor-free, one positive per object);
* objectness trains with BCE over all cells, positives up-weighted by
  the background/foreground ratio;
* the box trains with smooth-L1 on (σ(txy) − fractional offset) and on
  (twh − log(size/stride)) at positive cells only.

The loop follows the paper's protocol shape (§3.1): fixed image size,
fixed batch size, LR schedule with warmup, validation each epoch.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ...errors import TrainingError
from ...geometry.bbox import BBox
from ...nn.layers import sigmoid
from ...nn.losses import bce_with_logits
from ...nn.network import clip_grads_
from ...nn.optim import Adam, CosineWarmupSchedule
from ...rng import make_rng
from .mini import HEAD_CHANNELS, MiniYolo


def frames_to_arrays(frames: Sequence) -> Tuple[np.ndarray,
                                                List[List[BBox]]]:
    """Rendered frames → (NCHW image batch, per-image vest boxes)."""
    if not frames:
        raise TrainingError("no frames to convert")
    images = np.stack([f.image.transpose(2, 0, 1) for f in frames]) \
        .astype(np.float32)
    boxes = [list(f.vest_boxes) for f in frames]
    return images, boxes


def build_targets(boxes: Sequence[Sequence[BBox]], grid: int,
                  stride: int) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Assign ground truth to cells.

    Returns ``(obj (N, G, G), box_t (N, 4, G, G), pos_mask (N, G, G))``
    where ``box_t`` holds ``[fx, fy, log(w/stride), log(h/stride)]``.
    """
    n = len(boxes)
    obj = np.zeros((n, grid, grid), dtype=np.float32)
    box_t = np.zeros((n, 4, grid, grid), dtype=np.float32)
    for i, img_boxes in enumerate(boxes):
        for b in img_boxes:
            cx, cy = b.center
            gx = int(cx // stride)
            gy = int(cy // stride)
            if not (0 <= gx < grid and 0 <= gy < grid):
                continue  # centre off-canvas after corruption
            obj[i, gy, gx] = 1.0
            box_t[i, 0, gy, gx] = cx / stride - gx
            box_t[i, 1, gy, gx] = cy / stride - gy
            box_t[i, 2, gy, gx] = np.log(max(b.width, 1e-3) / stride)
            box_t[i, 3, gy, gx] = np.log(max(b.height, 1e-3) / stride)
    return obj, box_t, obj > 0.5


def detection_loss(raw: np.ndarray, obj_t: np.ndarray, box_t: np.ndarray,
                   pos: np.ndarray, box_weight: float = 2.0
                   ) -> Tuple[float, Dict[str, float], np.ndarray]:
    """Loss value, components and the gradient w.r.t. the raw head output."""
    if raw.shape[1] != HEAD_CHANNELS:
        raise TrainingError(f"raw head has {raw.shape[1]} channels")
    n, _, g, _ = raw.shape
    grad = np.zeros_like(raw, dtype=np.float32)

    # Objectness: BCE with foreground up-weighting.
    n_pos = max(int(pos.sum()), 1)
    n_cells = n * g * g
    pos_weight = (n_cells - n_pos) / n_pos
    weights = np.where(obj_t > 0.5, pos_weight, 1.0).astype(np.float32)
    obj_logits = raw[:, 0]
    obj_loss = bce_with_logits(obj_logits, obj_t, weights)
    denom = max(float(weights.sum()), 1e-12)
    grad[:, 0] = (sigmoid(obj_logits) - obj_t) * weights / denom

    # Box regression at positive cells.
    txy_loss = twh_loss = 0.0
    if n_pos > 0 and pos.any():
        sxy = sigmoid(raw[:, 1:3])
        t_xy = box_t[:, 0:2]
        mask = pos[:, None, :, :]
        diff_xy = np.where(mask, sxy - t_xy, 0.0)
        txy_loss = float(np.sum(np.where(np.abs(diff_xy) < 1.0,
                                         0.5 * diff_xy ** 2,
                                         np.abs(diff_xy) - 0.5))) / n_pos
        d_sxy = np.where(np.abs(diff_xy) < 1.0, diff_xy,
                         np.sign(diff_xy)) / n_pos
        grad[:, 1:3] = box_weight * d_sxy * sxy * (1.0 - sxy)

        twh = np.clip(raw[:, 3:5], -4.0, 4.0)
        t_wh = box_t[:, 2:4]
        diff_wh = np.where(mask, twh - t_wh, 0.0)
        twh_loss = float(np.sum(np.where(np.abs(diff_wh) < 1.0,
                                         0.5 * diff_wh ** 2,
                                         np.abs(diff_wh) - 0.5))) / n_pos
        d_wh = np.where(np.abs(diff_wh) < 1.0, diff_wh,
                        np.sign(diff_wh)) / n_pos
        in_range = (raw[:, 3:5] > -4.0) & (raw[:, 3:5] < 4.0)
        grad[:, 3:5] = box_weight * np.where(in_range, d_wh, 0.0)

    total = obj_loss + box_weight * (txy_loss + twh_loss)
    parts = {"obj": obj_loss, "txy": txy_loss, "twh": twh_loss}
    if not np.isfinite(total):
        raise TrainingError(f"non-finite detection loss: {parts}")
    return float(total), parts, grad


@dataclass
class DetectorTrainResult:
    """Per-epoch training history."""

    losses: List[float] = field(default_factory=list)
    val_losses: List[float] = field(default_factory=list)
    epochs_run: int = 0

    @property
    def final_loss(self) -> float:
        if not self.losses:
            raise TrainingError("no epochs recorded")
        return self.losses[-1]


class DetectorTrainer:
    """Epoch loop for a :class:`MiniYolo` on in-memory arrays."""

    def __init__(self, model: MiniYolo, lr: float = 5e-3,
                 weight_decay: float = 5e-4, epochs: int = 30,
                 batch_size: int = 16, warmup_epochs: int = 3,
                 seed: int = 7) -> None:
        if epochs <= 0 or batch_size <= 0:
            raise TrainingError("epochs and batch_size must be positive")
        self.model = model
        self.epochs = epochs
        self.batch_size = batch_size
        self.base_lr = lr
        self.optimizer = Adam(model.net.params(), model.net.grads(),
                              lr=lr, weight_decay=weight_decay)
        self.schedule = CosineWarmupSchedule(
            epochs, warmup_epochs=min(warmup_epochs, max(epochs - 1, 0)))
        self.rng = make_rng(seed, "detector-train",
                            model.config.name)

    def _run_batch(self, images: np.ndarray,
                   boxes: List[List[BBox]], train: bool) -> float:
        cfg = self.model.config
        raw = self.model.forward(images, training=train)
        obj_t, box_t, pos = build_targets(boxes, cfg.grid, cfg.stride)
        loss, _, grad = detection_loss(raw, obj_t, box_t, pos)
        if train:
            self.model.backward(grad)
            clip_grads_(self.model.net, 10.0)
            self.optimizer.step()
        return loss

    def fit(self, images: np.ndarray, boxes: List[List[BBox]],
            val_images: Optional[np.ndarray] = None,
            val_boxes: Optional[List[List[BBox]]] = None
            ) -> DetectorTrainResult:
        """Train; returns per-epoch loss history."""
        n = len(images)
        if n == 0 or n != len(boxes):
            raise TrainingError(
                f"bad training data: {n} images, {len(boxes)} box lists")
        result = DetectorTrainResult()
        for epoch in range(self.epochs):
            self.optimizer.lr = self.base_lr * self.schedule(epoch)
            order = self.rng.permutation(n)
            epoch_losses = []
            for start in range(0, n, self.batch_size):
                idx = order[start:start + self.batch_size]
                batch_imgs = images[idx]
                batch_boxes = [boxes[int(i)] for i in idx]
                epoch_losses.append(
                    self._run_batch(batch_imgs, batch_boxes, train=True))
            result.losses.append(float(np.mean(epoch_losses)))
            if val_images is not None and val_boxes is not None:
                raw = self.model.forward(val_images, training=False)
                obj_t, box_t, pos = build_targets(
                    val_boxes, self.model.config.grid,
                    self.model.config.stride)
                val_loss, _, _ = detection_loss(raw, obj_t, box_t, pos)
                result.val_losses.append(val_loss)
            result.epochs_run = epoch + 1
        return result
