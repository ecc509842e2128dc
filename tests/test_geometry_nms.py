"""Tests for greedy NMS."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import AnnotationError
from repro.geometry.bbox import iou_matrix
from repro.geometry.nms import nms


def _boxes(n, rng):
    xy = rng.uniform(0, 50, size=(n, 2))
    wh = rng.uniform(2, 20, size=(n, 2))
    return np.concatenate([xy, xy + wh], axis=1)


class TestNms:
    def test_empty(self):
        assert nms(np.zeros((0, 4)), np.zeros(0)).tolist() == []

    def test_single_box_kept(self):
        keep = nms(np.array([[0, 0, 10, 10.0]]), np.array([0.9]))
        assert keep.tolist() == [0]

    def test_duplicates_suppressed(self):
        boxes = np.array([[0, 0, 10, 10.0], [0.5, 0.5, 10.5, 10.5],
                          [30, 30, 40, 40.0]])
        scores = np.array([0.9, 0.8, 0.7])
        keep = nms(boxes, scores, iou_threshold=0.5)
        assert keep.tolist() == [0, 2]

    def test_keeps_highest_score_of_cluster(self):
        boxes = np.array([[0, 0, 10, 10.0], [0, 0, 10, 10.0]])
        scores = np.array([0.3, 0.9])
        keep = nms(boxes, scores, iou_threshold=0.5)
        assert keep.tolist() == [1]

    def test_threshold_validation(self):
        with pytest.raises(AnnotationError):
            nms(np.zeros((1, 4)) + [[0, 0, 1, 1]], np.array([1.0]),
                iou_threshold=0.0)

    def test_score_shape_validation(self):
        with pytest.raises(AnnotationError):
            nms(np.array([[0, 0, 1, 1.0]]), np.array([0.5, 0.6]))

    @given(st.integers(1, 30), st.integers(0, 1000))
    @settings(max_examples=30, deadline=None)
    def test_kept_boxes_mutually_below_threshold(self, n, seed):
        rng = np.random.default_rng(seed)
        boxes = _boxes(n, rng)
        scores = rng.random(n)
        keep = nms(boxes, scores, iou_threshold=0.5)
        kept = boxes[keep]
        m = iou_matrix(kept, kept)
        np.fill_diagonal(m, 0.0)
        assert np.all(m <= 0.5 + 1e-9)

    @given(st.integers(1, 30), st.integers(0, 1000))
    @settings(max_examples=30, deadline=None)
    def test_output_sorted_by_score(self, n, seed):
        rng = np.random.default_rng(seed)
        boxes = _boxes(n, rng)
        scores = rng.random(n)
        keep = nms(boxes, scores, iou_threshold=0.6)
        kept_scores = scores[keep]
        assert np.all(np.diff(kept_scores) <= 1e-12)
