"""Integration tests: trained mini models wired into the full pipeline.

Everything end to end, no oracles: the session-trained detector feeds
the tracker; the Kalman tracker and range estimator run on its outputs.
"""

import numpy as np
import pytest

from repro.core.kalman import KalmanTracker
from repro.core.pipeline import PipelineConfig, VipPipeline
from repro.core.range_estimation import (RangeFusion,
                                         range_from_box_height,
                                         range_from_depth_map)
from repro.dataset.extraction import FrameExtractor
from repro.dataset.video import SyntheticVideoSource
from repro.models.yolo.postprocess import decode_predictions


def _detector_fn(model, conf=0.4):
    """Wrap a trained MiniYolo as a pipeline perceptor."""
    def perceive(frame):
        img = frame.image.transpose(2, 0, 1)[None].astype(np.float32)
        raw = model.forward(img, training=False)
        scores, boxes = model.decode(raw)
        dets = decode_predictions(scores, boxes,
                                  model.config.image_size,
                                  conf_threshold=conf)[0]
        return [d.box for d in dets]
    return perceive


class TestTrainedDetectorPipeline:
    def test_pipeline_with_real_detector(self, trained_detector,
                                         clean_frames):
        pipe = VipPipeline(
            PipelineConfig(detector_model="yolov8-n",
                           device="rtx4090"),
            perceptor=_detector_fn(trained_detector), seed=7)
        report = pipe.run(clean_frames[100:120])
        assert report.frames_processed == 20
        assert report.detection_rate > 0.5

    def test_video_sequence_tracking(self, trained_detector, builder):
        """Track the VIP through an extracted clip with the Kalman
        tracker on real detections."""
        source = SyntheticVideoSource(image_size=64, seed=7)
        clip = source.clips(num_clips=1, duration_s=4.0)[0]
        frames = [ef.frame for ef in FrameExtractor().extract(clip)]
        detect = _detector_fn(trained_detector)
        tracker = KalmanTracker()
        hits = 0
        for frame in frames:
            tracker.update(detect(frame))
            if tracker.primary_track() is not None:
                hits += 1
        # The VIP is trackable through most of the clip.
        assert hits >= len(frames) // 2

    def test_range_estimation_on_detections(self, trained_detector,
                                            clean_frames):
        detect = _detector_fn(trained_detector)
        fusion = RangeFusion()
        estimates, truths = [], []
        for frame in clean_frames[100:116]:
            boxes = detect(frame)
            if not boxes or frame.spec.vip is None:
                continue
            box = max(boxes, key=lambda b: b.conf)
            r_box = range_from_box_height(box, 64,
                                          focal=frame.spec.camera.focal)
            r_depth = range_from_depth_map(frame.depth, box)
            estimates.append(fusion.update(r_box, r_depth))
            truths.append(frame.spec.vip.z)
        if len(estimates) < 4:
            pytest.skip("too few confident detections this seed")
        rel_err = np.abs(np.array(estimates) - np.array(truths)) \
            / np.array(truths)
        assert float(np.median(rel_err)) < 0.5
