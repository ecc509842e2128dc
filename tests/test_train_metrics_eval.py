"""Tests for detection metrics and the VIP evaluation protocol."""

import pytest

from repro.errors import BenchmarkError
from repro.geometry.bbox import BBox
from repro.models.yolo.postprocess import Detection
from repro.train.eval import (evaluate_detector_on_frames,
                              evaluate_vip_detection)
from repro.train.metrics import (DetectionCounts, f1_score, precision,
                                 recall)


def det(x1, y1, x2, y2, score):
    return Detection(BBox(x1, y1, x2, y2, conf=score), score)


class TestCounts:
    def test_precision_recall_f1(self):
        c = DetectionCounts(tp=8, fp=2, fn=2)
        assert precision(c) == pytest.approx(0.8)
        assert recall(c) == pytest.approx(0.8)
        assert f1_score(c) == pytest.approx(0.8)

    def test_empty_conventions(self):
        c = DetectionCounts()
        assert precision(c) == 1.0
        assert recall(c) == 1.0

    def test_addition(self):
        a = DetectionCounts(1, 2, 3)
        b = DetectionCounts(4, 5, 6)
        s = a + b
        assert (s.tp, s.fp, s.fn) == (5, 7, 9)


class TestVipEvaluation:
    def test_top1_correct(self):
        dets = [[det(0, 0, 10, 10, 0.9)]]
        truth = [[BBox(0, 0, 10, 10)]]
        res = evaluate_vip_detection(dets, truth)
        assert res.counts.tp == 1
        assert res.accuracy == 1.0
        assert res.precision_equals_accuracy

    def test_miss_counts_fn(self):
        res = evaluate_vip_detection([[]], [[BBox(0, 0, 10, 10)]])
        assert res.counts.fn == 1
        assert res.accuracy == 0.0
        # Misses keep FP at zero → precision = accuracy identity holds.
        assert res.precision_equals_accuracy

    def test_wrong_location_fp_and_fn(self):
        dets = [[det(50, 50, 60, 60, 0.9)]]
        truth = [[BBox(0, 0, 10, 10)]]
        res = evaluate_vip_detection(dets, truth)
        assert res.counts.fp == 1 and res.counts.fn == 1
        assert not res.precision_equals_accuracy

    def test_detection_on_empty_frame_fp(self):
        res = evaluate_vip_detection([[det(0, 0, 5, 5, 0.9)]], [[]])
        assert res.counts.fp == 1

    def test_conf_threshold_filters(self):
        dets = [[det(0, 0, 10, 10, 0.3)]]
        truth = [[BBox(0, 0, 10, 10)]]
        res = evaluate_vip_detection(dets, truth, conf_threshold=0.5)
        assert res.counts.fn == 1

    def test_top1_uses_best_scoring(self):
        dets = [[det(50, 50, 60, 60, 0.6), det(0, 0, 10, 10, 0.9)]]
        truth = [[BBox(0, 0, 10, 10)]]
        res = evaluate_vip_detection(dets, truth)
        assert res.counts.tp == 1

    def test_length_mismatch(self):
        with pytest.raises(BenchmarkError):
            evaluate_vip_detection([[]], [[], []])

    def test_as_dict(self):
        res = evaluate_vip_detection([[]], [[]])
        d = res.as_dict()
        assert {"accuracy", "precision", "recall", "tp", "fp",
                "fn"} <= set(d)


class TestEvaluateOnFrames:
    def test_trained_model_end_to_end(self, trained_detector,
                                      clean_frames):
        res = evaluate_detector_on_frames(trained_detector,
                                          clean_frames[100:116],
                                          conf_threshold=0.5)
        assert res.num_images == 16
        assert 0.0 <= res.accuracy <= 1.0

    def test_empty_frames_rejected(self, trained_detector):
        with pytest.raises(BenchmarkError):
            evaluate_detector_on_frames(trained_detector, [])

    def test_batching_equivalent(self, trained_detector, clean_frames):
        frames = clean_frames[100:110]
        a = evaluate_detector_on_frames(trained_detector, frames,
                                        batch_size=3)
        b = evaluate_detector_on_frames(trained_detector, frames,
                                        batch_size=64)
        assert a.as_dict() == b.as_dict()
