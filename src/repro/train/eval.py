"""VIP-detection evaluation protocol.

The paper's task is *unique identification*: exactly one vest-wearing VIP
per frame.  Evaluation therefore scores the single highest-confidence
detection per image:

* TP — top detection overlaps the ground-truth vest (IoU ≥ threshold);
* FP — a detection fired but missed the vest (or fired on a vest-free
  frame);
* FN — a vest was present but nothing (correct) fired.

Under this protocol the paper's observation "since there are no false
positives, precision equals accuracy" holds whenever every error is a
miss; :class:`VipEvalResult` reports both quantities plus that identity.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence

from ..errors import BenchmarkError
from ..geometry.bbox import boxes_to_array, iou_matrix
from .metrics import DetectionCounts, precision, recall


@dataclass(frozen=True)
class VipEvalResult:
    """Outcome of a VIP-detection evaluation run."""

    counts: DetectionCounts
    num_images: int
    iou_threshold: float
    conf_threshold: float

    @property
    def accuracy(self) -> float:
        """Fraction of vest-bearing frames where the VIP was detected."""
        denom = self.counts.total_truth
        return self.counts.tp / denom if denom else 1.0

    @property
    def precision(self) -> float:
        return precision(self.counts)

    @property
    def recall(self) -> float:
        return recall(self.counts)

    @property
    def precision_equals_accuracy(self) -> bool:
        """The paper's §4.2 identity (exact when FP == 0)."""
        return self.counts.fp == 0

    def as_dict(self) -> dict:
        return {
            "accuracy": self.accuracy, "precision": self.precision,
            "recall": self.recall, "tp": self.counts.tp,
            "fp": self.counts.fp, "fn": self.counts.fn,
            "num_images": self.num_images,
        }


def evaluate_vip_detection(detections_per_image: Sequence[Sequence],
                           truth_per_image: Sequence[Sequence],
                           iou_threshold: float = 0.5,
                           conf_threshold: float = 0.5) -> VipEvalResult:
    """Top-1 VIP evaluation over a batch.

    ``detections_per_image`` holds
    :class:`~repro.models.yolo.postprocess.Detection` lists;
    ``truth_per_image`` holds ground-truth :class:`BBox` lists.
    """
    if len(detections_per_image) != len(truth_per_image):
        raise BenchmarkError(
            f"{len(detections_per_image)} detection lists for "
            f"{len(truth_per_image)} truth lists")
    counts = DetectionCounts()
    for dets, truths in zip(detections_per_image, truth_per_image):
        strong = [d for d in dets if d.score >= conf_threshold]
        top = max(strong, key=lambda d: d.score) if strong else None
        if not truths:
            if top is not None:
                counts.fp += 1
            continue
        if top is None:
            counts.fn += 1
            continue
        t_arr = boxes_to_array(list(truths))
        iou = float(iou_matrix(
            boxes_to_array([top.box]), t_arr).max())
        if iou >= iou_threshold:
            counts.tp += 1
        else:
            counts.fp += 1
            counts.fn += 1
    return VipEvalResult(counts=counts,
                         num_images=len(truth_per_image),
                         iou_threshold=iou_threshold,
                         conf_threshold=conf_threshold)


def evaluate_detector_on_frames(model, frames: Sequence,
                                iou_threshold: float = 0.5,
                                conf_threshold: float = 0.5,
                                batch_size: int = 64) -> VipEvalResult:
    """Run a :class:`MiniYolo` over rendered frames and evaluate top-1.

    Batched to bound memory (im2col buffers scale with batch size).
    """
    from ..models.yolo.postprocess import decode_predictions
    from ..models.yolo.train import frames_to_arrays

    if not frames:
        raise BenchmarkError("no frames to evaluate")
    all_dets: List[List] = []
    all_truth: List[List] = []
    for start in range(0, len(frames), batch_size):
        chunk = list(frames[start:start + batch_size])
        images, boxes = frames_to_arrays(chunk)
        raw = model.forward(images, training=False)
        scores, pboxes = model.decode(raw)
        dets = decode_predictions(
            scores, pboxes, model.config.image_size,
            conf_threshold=min(conf_threshold, 0.95),
            iou_threshold=0.7)
        all_dets.extend(dets)
        all_truth.extend(boxes)
    return evaluate_vip_detection(all_dets, all_truth,
                                  iou_threshold=iou_threshold,
                                  conf_threshold=conf_threshold)
