"""RGB + thermal late fusion for VIP detection.

Mechanism: the RGB detector keys on the vest's colour signature, which
low light destroys; the thermal channel keys on body heat, which low
light cannot touch.  Late fusion takes, per frame, the higher-confidence
of the two single-modality detections (with a small agreement bonus when
both fire on overlapping boxes) — the simplest fusion that exhibits the
headline property: *fused accuracy ≥ max(single modalities)* under every
illumination condition.

``thermal_detect`` is a deliberately simple physics-based detector
(connected warm-region extraction), not a trained network: its job in
the ablation is to isolate the value of the modality, not the model.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence

import numpy as np

from ..errors import ConfigError
from ..geometry.bbox import BBox, boxes_to_array, iou_matrix
from ..models.yolo.postprocess import Detection
from .thermal import PERSON_TEMP_C


def thermal_detect(temp_map: np.ndarray,
                   person_temp_c: float = PERSON_TEMP_C,
                   tolerance_c: float = 7.0,
                   min_pixels: int = 4) -> List[Detection]:
    """Warm-blob detector: threshold + connected-region boxes.

    Confidence grows with how tightly the blob's temperature matches a
    human signature.
    """
    if tolerance_c <= 0:
        raise ConfigError("tolerance must be positive")
    mask = np.abs(temp_map - person_temp_c) < tolerance_c
    if not mask.any():
        return []
    # Connected components via scipy (4-connectivity).
    from scipy import ndimage
    labels, n = ndimage.label(mask)
    detections: List[Detection] = []
    for idx in range(1, n + 1):
        ys, xs = np.nonzero(labels == idx)
        if len(ys) < min_pixels:
            continue
        x1, x2 = float(xs.min()), float(xs.max() + 1)
        y1, y2 = float(ys.min()), float(ys.max() + 1)
        # Blur erodes small blobs toward ambient; the hottest pixels
        # carry the signature, so score on the blob's upper tail.
        blob_temp = float(np.percentile(temp_map[ys, xs], 90))
        conf = float(np.clip(
            1.0 - abs(blob_temp - person_temp_c) / tolerance_c,
            0.05, 0.99))
        detections.append(Detection(
            BBox(x1, y1, x2, y2, cls=0, conf=conf), conf))
    detections.sort(key=lambda d: -d.score)
    return detections


#: Minimum RGB/thermal IoU for two detections to confirm each other.
AGREEMENT_IOU = 0.3
#: Score bonus of a cross-confirmed detection (capped at 0.99).
AGREEMENT_BONUS = 0.15


@dataclass(frozen=True)
class FusionConfig:
    """Late-fusion parameters."""

    #: Score multiplier for detections only one modality saw — ranks
    #: cross-confirmed detections above confidently-wrong singletons.
    unconfirmed_penalty: float = 0.8

    def __post_init__(self) -> None:
        if not 0 < self.unconfirmed_penalty <= 1:
            raise ConfigError("unconfirmed penalty outside (0, 1]")


def fuse_detections(rgb: Sequence[Detection],
                    thermal: Sequence[Detection],
                    config: FusionConfig = FusionConfig()
                    ) -> List[Detection]:
    """Late fusion: union of detections with an agreement bonus.

    Overlapping RGB/thermal pairs merge into one detection keeping the
    *RGB* box (the RGB head localises the vest; the thermal blob spans
    the whole warm body) with the max score plus the agreement bonus
    (capped at 0.99); unmatched detections pass through unchanged.
    """
    def penalised(det: Detection) -> Detection:
        score = float(det.score * config.unconfirmed_penalty)
        box = BBox(det.box.x1, det.box.y1, det.box.x2, det.box.y2,
                   cls=det.box.cls, conf=score)
        return Detection(box, score)

    if not rgb and not thermal:
        return []
    if not rgb or not thermal:
        return sorted((penalised(d) for d in list(rgb) + list(thermal)),
                      key=lambda d: -d.score)
    r_arr = boxes_to_array([d.box for d in rgb])
    t_arr = boxes_to_array([d.box for d in thermal])
    iou = iou_matrix(r_arr, t_arr)

    fused: List[Detection] = []
    used_t = np.zeros(len(thermal), dtype=bool)
    for i, rdet in enumerate(rgb):
        j = int(iou[i].argmax()) if iou.shape[1] else -1
        if j >= 0 and iou[i, j] >= AGREEMENT_IOU \
                and not used_t[j]:
            used_t[j] = True
            score = float(min(max(rdet.score, thermal[j].score)
                              + AGREEMENT_BONUS, 0.99))
            # Union box: covers the thermal body blob and the RGB vest.
            box = BBox(min(rdet.box.x1, thermal[j].box.x1),
                       min(rdet.box.y1, thermal[j].box.y1),
                       max(rdet.box.x2, thermal[j].box.x2),
                       max(rdet.box.y2, thermal[j].box.y2),
                       cls=0, conf=score)
            fused.append(Detection(box, score))
        else:
            fused.append(penalised(rdet))
    fused.extend(penalised(t) for k, t in enumerate(thermal)
                 if not used_t[k])
    fused.sort(key=lambda d: -d.score)
    return fused
