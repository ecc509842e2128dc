"""Annotation records: class label plus corner coordinates per box.

§2: frames "are annotated in Roboflow by drawing a bounding box around
the region of interest, the 'neon hazard vest' … The Roboflow annotation
file includes the class label of the image, along with the top-left and
bottom-right coordinates of the bounding box."

Here the renderer's ground truth replaces that manual labelling, so a
record is built straight from a rendered frame's vest boxes; no export
format is written.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Tuple

from ..errors import AnnotationError
from ..geometry.bbox import BBox

#: Class-name table (class 0 is the paper's target).
CLASS_NAMES: Tuple[str, ...] = (
    "hazard_vest", "pedestrian", "bicycle", "parked_car",
    "tree", "lamp_post", "bin",
)


@dataclass(frozen=True)
class Annotation:
    """A single annotated box on one image."""

    box: BBox
    class_name: str = "hazard_vest"

    def __post_init__(self) -> None:
        if self.class_name not in CLASS_NAMES:
            raise AnnotationError(
                f"unknown class {self.class_name!r}; known: {CLASS_NAMES}")
        if CLASS_NAMES[self.box.cls] != self.class_name:
            raise AnnotationError(
                f"box class id {self.box.cls} does not match name "
                f"{self.class_name!r}")


@dataclass(frozen=True)
class AnnotatedImage:
    """An image id with its annotations and image dimensions."""

    image_id: str
    width: int
    height: int
    annotations: Tuple[Annotation, ...] = field(default_factory=tuple)

    def __post_init__(self) -> None:
        if self.width <= 0 or self.height <= 0:
            raise AnnotationError(
                f"bad image size {self.width}x{self.height}")
        for ann in self.annotations:
            b = ann.box
            if b.x2 > self.width + 1e-6 or b.y2 > self.height + 1e-6:
                raise AnnotationError(
                    f"box {b.as_tuple()} exceeds image "
                    f"{self.width}x{self.height}")

    def vest_boxes(self) -> List[BBox]:
        return [a.box for a in self.annotations
                if a.class_name == "hazard_vest"]


def annotate_frame(image_id: str, frame) -> AnnotatedImage:
    """Build the annotation record for a rendered frame (vest boxes only,
    matching the paper's single-class labelling)."""
    h, w = frame.size
    anns = tuple(Annotation(b, CLASS_NAMES[b.cls])
                 for b in frame.vest_boxes)
    return AnnotatedImage(image_id=image_id, width=w, height=h,
                          annotations=anns)
