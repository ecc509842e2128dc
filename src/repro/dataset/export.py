"""Dataset export: YOLO directory layout + ``data.yaml`` (Roboflow-style).

§3.1: "The final training and validation datasets are uploaded to
Roboflow … to generate a YAML file required for training the YOLOv8 and
YOLOv11 model."  This module writes the equivalent on-disk layout:

```
<root>/
  data.yaml                  # names, nc, train/val/test paths
  images/{train,val,test}/   # .npy images (no image codecs offline)
  labels/{train,val,test}/   # YOLO txt labels
  annotations.json           # Roboflow-style records
```
"""

from __future__ import annotations

import json
import os
from typing import Dict, List, Optional

import numpy as np

from ..errors import SerializationError
from ..io.yamlish import dump_yaml
from .annotations import (CLASS_NAMES, AnnotatedImage, to_roboflow_record,
                          to_yolo_label)
from .builder import DatasetIndex
from .renderer import SceneRenderer


def _safe_name(image_id: str) -> str:
    return image_id.replace("/", "__")


def export_split(root: str, split_name: str, index: DatasetIndex,
                 renderer: SceneRenderer,
                 max_images: Optional[int] = None) -> List[Dict]:
    """Materialise one split to disk; returns Roboflow records written."""
    img_dir = os.path.join(root, "images", split_name)
    lbl_dir = os.path.join(root, "labels", split_name)
    os.makedirs(img_dir, exist_ok=True)
    os.makedirs(lbl_dir, exist_ok=True)
    records: List[Dict] = []
    for i, rec in enumerate(index):
        if max_images is not None and i >= max_images:
            break
        frame = rec.render(renderer)
        ann = AnnotatedImage(
            image_id=rec.image_id, width=frame.size[1],
            height=frame.size[0],
            annotations=tuple(
                __ann(b) for b in frame.vest_boxes))
        name = _safe_name(rec.image_id)
        np.save(os.path.join(img_dir, name + ".npy"), frame.image)
        with open(os.path.join(lbl_dir, name + ".txt"), "w",
                  encoding="utf-8") as fh:
            fh.write(to_yolo_label(ann) + "\n")
        records.append(to_roboflow_record(ann))
    return records


def __ann(box):
    from .annotations import Annotation
    return Annotation(box, CLASS_NAMES[box.cls])


def export_dataset(root: str, splits: Dict[str, DatasetIndex],
                   renderer: SceneRenderer,
                   max_images_per_split: Optional[int] = None) -> str:
    """Write the full Roboflow-style dataset tree; returns data.yaml path.

    ``splits`` maps split name ("train"/"val"/"test") to its index.
    """
    if not splits:
        raise SerializationError("no splits to export")
    os.makedirs(root, exist_ok=True)
    all_records: List[Dict] = []
    for split_name, index in splits.items():
        all_records.extend(
            export_split(root, split_name, index, renderer,
                         max_images=max_images_per_split))

    with open(os.path.join(root, "annotations.json"), "w",
              encoding="utf-8") as fh:
        json.dump(all_records, fh, indent=1)

    data = {
        "path": root,
        "nc": 1,  # the paper annotates the single hazard-vest class
        "names": [CLASS_NAMES[0]],
    }
    for split_name in splits:
        data[split_name] = f"images/{split_name}"
    yaml_path = os.path.join(root, "data.yaml")
    with open(yaml_path, "w", encoding="utf-8") as fh:
        fh.write(dump_yaml(data))
    return yaml_path


def load_exported_image(root: str, split_name: str,
                        image_id: str) -> np.ndarray:
    """Read one exported image back (round-trip helper for tests)."""
    path = os.path.join(root, "images", split_name,
                        _safe_name(image_id) + ".npy")
    if not os.path.exists(path):
        raise SerializationError(f"no exported image at {path}")
    return np.load(path)
