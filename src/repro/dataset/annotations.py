"""Annotation records in the paper's Roboflow/makesense format.

§2: frames "are annotated in Roboflow by drawing a bounding box around
the region of interest, the 'neon hazard vest' … The Roboflow annotation
file includes the class label of the image, along with the top-left and
bottom-right coordinates of the bounding box."

We reproduce that record shape (class + corner coordinates per box) and
the YOLO-format label line (class cx cy w h, normalised) that
Ultralytics-style training reads.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Tuple

from ..errors import AnnotationError
from ..geometry.bbox import BBox

#: Class-name table for exported datasets (class 0 is the paper's target).
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


def to_roboflow_record(img: AnnotatedImage) -> Dict:
    """Serialise to the Roboflow-export-like dict (JSON-compatible)."""
    return {
        "image_id": img.image_id,
        "width": img.width,
        "height": img.height,
        "boxes": [
            {
                "label": a.class_name,
                # top-left and bottom-right corners, per the paper.
                "x_min": a.box.x1, "y_min": a.box.y1,
                "x_max": a.box.x2, "y_max": a.box.y2,
            }
            for a in img.annotations
        ],
    }


def to_yolo_label(img: AnnotatedImage) -> str:
    """YOLO txt label: one ``cls cx cy w h`` line per box (normalised).

    This is the format the Roboflow export produces for Ultralytics
    training (§3.1).
    """
    lines = []
    for a in img.annotations:
        b = a.box
        cx = 0.5 * (b.x1 + b.x2) / img.width
        cy = 0.5 * (b.y1 + b.y2) / img.height
        w = (b.x2 - b.x1) / img.width
        h = (b.y2 - b.y1) / img.height
        lines.append(f"{b.cls} {cx:.6f} {cy:.6f} {w:.6f} {h:.6f}")
    return "\n".join(lines)


def parse_yolo_label(text: str, width: int, height: int) -> List[BBox]:
    """Parse YOLO label text back to pixel-space boxes."""
    boxes: List[BBox] = []
    for line_no, line in enumerate(text.strip().splitlines()):
        parts = line.split()
        if len(parts) != 5:
            raise AnnotationError(
                f"line {line_no}: expected 5 fields, got {len(parts)}")
        cls = int(parts[0])
        cx, cy, w, h = (float(p) for p in parts[1:])
        if not all(0.0 <= v <= 1.0 for v in (cx, cy, w, h)):
            raise AnnotationError(
                f"line {line_no}: normalised values outside [0, 1]")
        boxes.append(BBox((cx - w / 2) * width, (cy - h / 2) * height,
                          (cx + w / 2) * width, (cy + h / 2) * height,
                          cls=cls))
    return boxes


def annotate_frame(image_id: str, frame) -> AnnotatedImage:
    """Build the annotation record for a rendered frame (vest boxes only,
    matching the paper's single-class labelling)."""
    h, w = frame.size
    anns = tuple(Annotation(b, CLASS_NAMES[b.cls])
                 for b in frame.vest_boxes)
    return AnnotatedImage(image_id=image_id, width=w, height=h,
                          annotations=anns)
