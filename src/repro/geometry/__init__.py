"""Geometric primitives: bounding boxes, IoU, NMS and body keypoints."""

from .bbox import (
    BBox,
    boxes_to_array,
    array_to_boxes,
    iou_matrix,
    pairwise_iou,
    xyxy_to_cxcywh,
    cxcywh_to_xyxy,
    clip_boxes,
    box_area,
    normalize_boxes,
    denormalize_boxes,
)
from .nms import nms
from .keypoints import (
    SKELETON_EDGES,
    KEYPOINT_NAMES,
    NUM_KEYPOINTS,
    KeypointSet,
    keypoints_to_features,
    oks,
)

__all__ = [
    "BBox", "boxes_to_array", "array_to_boxes", "iou_matrix",
    "pairwise_iou", "xyxy_to_cxcywh", "cxcywh_to_xyxy", "clip_boxes",
    "box_area", "normalize_boxes", "denormalize_boxes",
    "nms",
    "SKELETON_EDGES", "KEYPOINT_NAMES", "NUM_KEYPOINTS", "KeypointSet",
    "keypoints_to_features", "oks",
]
