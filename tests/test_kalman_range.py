"""Tests for Kalman tracking and monocular range estimation."""

import numpy as np
import pytest

from repro.core.kalman import (KalmanBoxFilter, KalmanTracker,
                               _box_to_z, _z_to_box)
from repro.core.range_estimation import (FollowController, RangeFusion,
                                         range_from_box_height,
                                         range_from_depth_map)
from repro.errors import BenchmarkError
from repro.geometry.bbox import BBox


class TestStateConversion:
    def test_roundtrip(self):
        box = BBox(10, 20, 30, 60)
        back = _z_to_box(_box_to_z(box))
        assert back.as_tuple() == pytest.approx(box.as_tuple())

    def test_aspect_preserved(self):
        box = BBox(0, 0, 20, 10)
        z = _box_to_z(box)
        assert z[3] == pytest.approx(2.0)  # w/h


class TestKalmanFilter:
    def test_stationary_converges(self):
        box = BBox(10, 10, 20, 30)
        kf = KalmanBoxFilter(box)
        for _ in range(10):
            kf.predict()
            kf.update(box)
        est = kf.current_box()
        assert est.as_tuple() == pytest.approx(box.as_tuple(), abs=0.5)
        assert kf.speed_px < 0.5

    def test_learns_velocity(self):
        kf = KalmanBoxFilter(BBox(10, 10, 20, 30))
        for i in range(1, 15):
            kf.predict()
            kf.update(BBox(10 + 2 * i, 10, 20 + 2 * i, 30))
        # Prediction continues the motion through a gap.
        pred = kf.predict()
        cx_pred = 0.5 * (pred.x1 + pred.x2)
        assert cx_pred > 15 + 2 * 14  # beyond the last measurement
        assert kf.speed_px == pytest.approx(2.0, abs=0.6)

    def test_prediction_through_gap_beats_constant_position(self):
        """The motivating property vs the IoU tracker."""
        kf = KalmanBoxFilter(BBox(10, 10, 20, 30))
        last = None
        for i in range(1, 12):
            kf.predict()
            last = BBox(10 + 3 * i, 10, 20 + 3 * i, 30)
            kf.update(last)
        # Three missed frames, then the object reappears further on.
        for _ in range(3):
            pred = kf.predict()
        future = BBox(10 + 3 * 14, 10, 20 + 3 * 14, 30)
        assert pred.iou(future) > last.iou(future)

    def test_scale_never_negative(self):
        kf = KalmanBoxFilter(BBox(10, 10, 12, 12))
        # Shrinking measurements drive scale velocity negative.
        for s in (10, 8, 6, 4, 3, 2):
            kf.predict()
            kf.update(BBox(10, 10, 10 + s, 10 + s))
        for _ in range(20):
            box = kf.predict()
        assert box.width > 0 and box.height > 0


class TestKalmanTracker:
    def test_tracks_moving_object(self):
        tracker = KalmanTracker()
        for i in range(10):
            tracker.update([BBox(5 + 2 * i, 10, 15 + 2 * i, 30)])
        primary = tracker.primary_track()
        assert primary is not None
        assert primary.hits == 10

    def test_survives_detection_gaps(self):
        tracker = KalmanTracker(max_misses=5)
        for i in range(6):
            tracker.update([BBox(5 + 2 * i, 10, 15 + 2 * i, 30)])
        tid = tracker.primary_track().track_id
        for _ in range(3):   # dropout
            tracker.update([])
        tracker.update([BBox(5 + 2 * 9, 10, 15 + 2 * 9, 30)])
        primary = tracker.primary_track()
        assert primary is not None and primary.track_id == tid

    def test_track_death(self):
        tracker = KalmanTracker(max_misses=2)
        tracker.update([BBox(0, 0, 10, 10)])
        for _ in range(4):
            tracker.update([])
        assert tracker.tracks == []

    def test_multiple_objects(self):
        tracker = KalmanTracker()
        a = BBox(0, 0, 10, 10)
        b = BBox(40, 40, 50, 50)
        for i in range(4):
            tracker.update([a.shifted(i, 0), b.shifted(0, i)])
        assert len(tracker.tracks) == 2

    def test_validation(self):
        with pytest.raises(BenchmarkError):
            KalmanTracker(iou_threshold=0.0)
        with pytest.raises(BenchmarkError):
            KalmanTracker(max_misses=0)


class TestRangeEstimation:
    def test_box_height_inverse_of_renderer(self, builder, small_index):
        """Range from the vest-box height recovers the scene's VIP
        depth (the renderer's projection, inverted)."""
        from repro.dataset.scene import sample_scene
        from repro.dataset.taxonomy import subcategory_by_key
        from repro.rng import make_rng
        sub = subcategory_by_key("footpath/no_pedestrians")
        errors = []
        for i in range(12):
            spec = sample_scene(sub, make_rng(i, "range"))
            frame = builder.renderer.render(spec, make_rng(i, "rr"))
            if not frame.vest_boxes or spec.vip is None:
                continue
            est = range_from_box_height(
                frame.vest_boxes[0], 64, focal=spec.camera.focal,
                person_height_m=spec.vip.height_m)
            errors.append(abs(est - spec.vip.z) / spec.vip.z)
        assert errors and float(np.median(errors)) < 0.35

    def test_depth_map_ranging(self, builder, small_index):
        rec = small_index[0]
        frame = rec.render(builder.renderer)
        if frame.vest_boxes:
            r = range_from_depth_map(frame.depth, frame.vest_boxes[0])
            assert 1.0 < r < 15.0

    def test_monotone_in_box_height(self):
        near = BBox(0, 0, 10, 30)
        far = BBox(0, 0, 4, 10)
        assert range_from_box_height(near, 64) < \
            range_from_box_height(far, 64)

    def test_validation(self):
        with pytest.raises(BenchmarkError):
            range_from_box_height(BBox(0, 0, 5, 5), 0)
        with pytest.raises(BenchmarkError):
            range_from_box_height(BBox(0, 0, 5, 5), 64,
                                  person_height_m=0.0)


class TestRangeFusion:
    def test_fuses_toward_lower_variance_cue(self):
        fusion = RangeFusion(sigma_box_m=1.0, sigma_depth_m=0.1,
                             alpha=1.0)
        est = fusion.update(box_range_m=10.0, depth_range_m=4.0)
        assert abs(est - 4.0) < abs(est - 10.0)

    def test_smoothing(self):
        fusion = RangeFusion(alpha=0.5)
        fusion.update(4.0, 4.0)
        est = fusion.update(8.0, 8.0)
        assert 4.0 < est < 8.0

    def test_coasts_without_cues(self):
        fusion = RangeFusion()
        fusion.update(5.0, None)
        assert fusion.update(None, None) == pytest.approx(
            fusion.estimate_m)

    def test_no_prior_rejected(self):
        with pytest.raises(BenchmarkError):
            RangeFusion().update(None, None)

    def test_validation(self):
        with pytest.raises(BenchmarkError):
            RangeFusion(alpha=0.0)
        with pytest.raises(BenchmarkError):
            RangeFusion().update(-1.0, None)


class TestFollowController:
    def test_deadband(self):
        ctrl = FollowController(target_range_m=3.0, deadband_m=0.5)
        assert ctrl.command(3.2) == 0.0

    def test_closes_gap(self):
        ctrl = FollowController(target_range_m=3.0)
        assert ctrl.command(6.0) > 0.0   # too far → speed up
        assert ctrl.command(1.5) < 0.0   # too close → back off

    def test_speed_clamped(self):
        ctrl = FollowController(max_speed_m_s=2.0)
        assert ctrl.command(100.0) == pytest.approx(2.0)

    def test_validation(self):
        with pytest.raises(BenchmarkError):
            FollowController(target_range_m=0.0)
        with pytest.raises(BenchmarkError):
            FollowController().command(0.0)
