"""Tests for annotation records and format round-trips."""

import pytest

from repro.dataset.annotations import (CLASS_NAMES, AnnotatedImage,
                                       Annotation, annotate_frame,
                                       parse_yolo_label,
                                       to_roboflow_record, to_yolo_label)
from repro.errors import AnnotationError
from repro.geometry.bbox import BBox


def make_annotated(width=64, height=64):
    return AnnotatedImage(
        image_id="footpath/no_pedestrians/000001",
        width=width, height=height,
        annotations=(
            Annotation(BBox(10, 20, 30, 40, cls=0), "hazard_vest"),
        ))


class TestAnnotation:
    def test_unknown_class_rejected(self):
        with pytest.raises(AnnotationError):
            Annotation(BBox(0, 0, 1, 1), "unicorn")

    def test_class_id_name_mismatch(self):
        with pytest.raises(AnnotationError):
            Annotation(BBox(0, 0, 1, 1, cls=2), "hazard_vest")

    def test_box_outside_image_rejected(self):
        with pytest.raises(AnnotationError):
            AnnotatedImage("x", 16, 16, (
                Annotation(BBox(0, 0, 32, 8), "hazard_vest"),))

    def test_vest_boxes_filter(self):
        img = AnnotatedImage("x", 64, 64, (
            Annotation(BBox(1, 1, 5, 5, cls=0), "hazard_vest"),
            Annotation(BBox(10, 10, 20, 20, cls=1), "pedestrian"),
        ))
        assert len(img.vest_boxes()) == 1


class TestRoboflowFormat:
    def test_record_fields(self):
        rec = to_roboflow_record(make_annotated())
        assert rec["image_id"].startswith("footpath")
        box = rec["boxes"][0]
        # Paper §2: class label + top-left and bottom-right corners.
        assert box["label"] == "hazard_vest"
        assert (box["x_min"], box["y_min"]) == (10, 20)
        assert (box["x_max"], box["y_max"]) == (30, 40)


class TestYoloFormat:
    def test_label_line_format(self):
        text = to_yolo_label(make_annotated())
        parts = text.split()
        assert parts[0] == "0"
        assert len(parts) == 5
        # cx = 20/64, cy = 30/64, w = 20/64, h = 20/64.
        assert float(parts[1]) == pytest.approx(20 / 64)
        assert float(parts[4]) == pytest.approx(20 / 64)

    def test_roundtrip(self):
        img = make_annotated()
        text = to_yolo_label(img)
        boxes = parse_yolo_label(text, img.width, img.height)
        assert boxes[0].as_tuple() == pytest.approx(
            img.annotations[0].box.as_tuple())

    def test_parse_bad_field_count(self):
        with pytest.raises(AnnotationError):
            parse_yolo_label("0 0.5 0.5 0.1", 64, 64)

    def test_parse_out_of_range(self):
        with pytest.raises(AnnotationError):
            parse_yolo_label("0 1.5 0.5 0.1 0.1", 64, 64)


class TestAnnotateFrame:
    def test_from_rendered_frame(self, builder, small_index):
        rec = small_index[0]
        frame = rec.render(builder.renderer)
        ann = annotate_frame(rec.image_id, frame)
        assert ann.image_id == rec.image_id
        assert ann.width == 64 and ann.height == 64
        assert all(a.class_name == CLASS_NAMES[0]
                   for a in ann.annotations)
