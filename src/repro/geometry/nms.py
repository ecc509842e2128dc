"""Non-maximum suppression kernels.

The YOLO single-shot heads emit one candidate per grid cell; NMS collapses
duplicates before evaluation.  Greedy NMS is inherently sequential in its
outer loop but each suppression step is vectorised over all remaining
candidates, which is the standard practical compromise (the inner IoU work
dominates).
"""

from __future__ import annotations

import numpy as np

from ..errors import AnnotationError
from .bbox import box_area


def nms(boxes: np.ndarray, scores: np.ndarray,
        iou_threshold: float = 0.7) -> np.ndarray:
    """Greedy NMS; returns indices of kept boxes in descending score order.

    Parameters mirror the paper's training setup (IoU threshold 0.7,
    §3.1).  ``boxes`` is ``(N, 4)`` ``xyxy``; ``scores`` is ``(N,)``.
    """
    boxes = np.asarray(boxes, dtype=np.float64)
    scores = np.asarray(scores, dtype=np.float64)
    if boxes.ndim != 2 or boxes.shape[1] != 4:
        raise AnnotationError(f"expected (N, 4) boxes, got {boxes.shape}")
    if scores.shape != (boxes.shape[0],):
        raise AnnotationError(
            f"scores shape {scores.shape} does not match {boxes.shape[0]} "
            "boxes")
    if not 0.0 < iou_threshold <= 1.0:
        raise AnnotationError(
            f"iou_threshold must be in (0, 1], got {iou_threshold}")
    n = len(boxes)
    if n == 0:
        return np.zeros((0,), dtype=np.intp)

    order = np.argsort(-scores, kind="stable")
    suppressed = np.zeros(n, dtype=bool)
    keep = []
    areas = box_area(boxes)
    for pos in range(n):
        i = order[pos]
        if suppressed[i]:
            continue
        keep.append(i)
        rest = order[pos + 1:]
        rest = rest[~suppressed[rest]]
        if rest.size == 0:
            continue
        # Vectorised IoU of the kept box against all survivors.
        lt = np.maximum(boxes[i, :2], boxes[rest, :2])
        rb = np.minimum(boxes[i, 2:], boxes[rest, 2:])
        wh = np.clip(rb - lt, 0.0, None)
        inter = wh[:, 0] * wh[:, 1]
        union = areas[i] + areas[rest] - inter
        iou = np.where(union > 0.0, inter / np.maximum(union, 1e-12), 0.0)
        suppressed[rest[iou > iou_threshold]] = True
    return np.asarray(keep, dtype=np.intp)

