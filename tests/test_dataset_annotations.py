"""Tests for annotation records."""

import pytest

from repro.dataset.annotations import (CLASS_NAMES, AnnotatedImage,
                                       Annotation, annotate_frame)
from repro.errors import AnnotationError
from repro.geometry.bbox import BBox


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


class TestAnnotateFrame:
    def test_from_rendered_frame(self, builder, small_index):
        rec = small_index[0]
        frame = rec.render(builder.renderer)
        ann = annotate_frame(rec.image_id, frame)
        assert ann.image_id == rec.image_id
        assert ann.width == 64 and ann.height == 64
        assert all(a.class_name == CLASS_NAMES[0]
                   for a in ann.annotations)
