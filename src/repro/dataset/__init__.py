"""Synthetic Ocularone dataset: taxonomy, scenes, renderer, video, splits.

This subpackage substitutes for the paper's 43 drone videos and 30,711
Roboflow-annotated frames (§2).  A procedural renderer draws scenes from
the same taxonomy (footpath / path / side-of-road / mixed / adversarial),
a synthetic video source replays them at 30 FPS with drone-like camera
motion, and a frame extractor samples at 10 FPS — the moviepy substitute.
Ground truth (vest box, keypoints, depth) comes from the renderer, exact
by construction.
"""

from .taxonomy import (
    Category,
    SubCategory,
    TAXONOMY,
    TABLE1_COUNTS,
    TOTAL_IMAGES,
    subcategory_by_key,
    all_subcategories,
)
from .scene import SceneSpec, SceneObject, ObjectKind, CameraSpec, sample_scene
from .renderer import RenderedFrame, SceneRenderer
from .video import VideoClip, SyntheticVideoSource, DroneMotionModel
from .extraction import FrameExtractor, extract_dataset_frames
from .annotations import (
    Annotation,
    AnnotatedImage,
)
from .builder import DatasetBuilder, DatasetIndex, ImageRecord
from .sampling import (
    SplitSpec,
    stratified_sample,
    random_sample,
    train_val_split,
    paper_protocol_split,
)
from .stats import dataset_summary, table1_rows

__all__ = [
    "Category", "SubCategory", "TAXONOMY", "TABLE1_COUNTS", "TOTAL_IMAGES",
    "subcategory_by_key", "all_subcategories",
    "SceneSpec", "SceneObject", "ObjectKind", "CameraSpec", "sample_scene",
    "RenderedFrame", "SceneRenderer",
    "VideoClip", "SyntheticVideoSource", "DroneMotionModel",
    "FrameExtractor", "extract_dataset_frames",
    "Annotation", "AnnotatedImage",
    "DatasetBuilder", "DatasetIndex", "ImageRecord",
    "SplitSpec", "stratified_sample", "random_sample", "train_val_split",
    "paper_protocol_split",
    "dataset_summary", "table1_rows",
]
