"""Tests for the core API: tradeoff, deployment, tracker, pipeline,
alerts and the suite facade."""

import numpy as np
import pytest

from repro.core.alerts import (Alert, AlertKind, AlertPolicy,
                               obstacle_distance)
from repro.core.deployment import (DeploymentAdvisor,
                                   PlacementConstraints)
from repro.core.pipeline import PipelineConfig, VipPipeline
from repro.core.suite import OcularoneBench
from repro.core.tracker import IoUTracker, greedy_iou_match
from repro.core.tradeoff import accuracy_latency_tradeoff, pareto_front
from repro.errors import BenchmarkError, ConfigError
from repro.geometry.bbox import BBox


class TestTradeoff:
    @pytest.fixture(scope="class")
    def points(self):
        return accuracy_latency_tradeoff()

    def test_grid_size(self, points):
        assert len(points) == 6 * 4  # YOLO variants × benchmark devices

    def test_pareto_front_nonempty_and_nondominated(self, points):
        front = pareto_front(points)
        assert front
        for p in front:
            assert not any(q.dominates(p) for q in points)

    def test_front_sorted_by_latency(self, points):
        front = pareto_front(points)
        lats = [p.median_latency_ms for p in front]
        assert lats == sorted(lats)

    def test_front_contains_workstation_xlarge(self, points):
        """The paper's conclusion: big accurate models belong on the
        workstation — so a 4090-hosted model is on the front."""
        front = pareto_front(points)
        assert any(p.device == "rtx4090" for p in front)

    def test_empty_points_rejected(self):
        with pytest.raises(BenchmarkError):
            pareto_front([])


class TestDeployment:
    @pytest.fixture(scope="class")
    def advisor(self):
        return DeploymentAdvisor()

    def test_relaxed_constraints_prefer_accuracy(self, advisor):
        plan = advisor.recommend(PlacementConstraints(
            target_fps=2.0, min_accuracy_pct=98.0))
        # With 500 ms budget the most accurate model (v11-m) wins.
        assert plan.model == "yolov11-m"

    def test_tight_fps_forces_workstation(self, advisor):
        plan = advisor.recommend(PlacementConstraints(
            target_fps=30.0, min_accuracy_pct=98.0))
        assert plan.device == "rtx4090"
        assert not plan.onboard

    def test_edge_only_feasible_at_10fps(self, advisor):
        plan = advisor.recommend(
            PlacementConstraints(target_fps=10.0,
                                 min_accuracy_pct=98.0,
                                 network_rtt_ms=1e9),
            devices=("orin-agx", "orin-nano", "xavier-nx"))
        assert plan.device in ("orin-agx", "orin-nano", "xavier-nx")
        assert plan.headroom_ms >= 0

    def test_adversarial_requirement_prunes_nano(self, advisor):
        plans = advisor.feasible_plans(PlacementConstraints(
            target_fps=5.0, min_accuracy_pct=98.0,
            require_adversarial_robustness=True,
            min_adversarial_pct=95.0))
        assert plans
        assert all(not p.model.endswith("-n") for p in plans)

    def test_infeasible_raises(self, advisor):
        with pytest.raises(BenchmarkError):
            advisor.recommend(PlacementConstraints(
                target_fps=1000.0, min_accuracy_pct=99.4))

    def test_onboard_weight_rule(self, advisor):
        plans = advisor.enumerate_plans(PlacementConstraints(
            max_onboard_weight_g=300.0))
        by_dev = {p.device: p.onboard for p in plans}
        assert by_dev["orin-nano"] is True      # 176 g
        assert by_dev["orin-agx"] is False      # 872.5 g
        assert by_dev["rtx4090"] is False

    def test_constraint_validation(self):
        with pytest.raises(BenchmarkError):
            PlacementConstraints(target_fps=0.0)


class TestTracker:
    def test_track_continuity(self):
        tracker = IoUTracker()
        for i in range(5):
            tracker.update([BBox(10 + i, 10, 20 + i, 30)])
        primary = tracker.primary_track()
        assert primary is not None
        assert primary.hits == 5

    def test_new_id_for_disjoint_object(self):
        tracker = IoUTracker()
        tracker.update([BBox(0, 0, 10, 10)])
        tracker.update([BBox(50, 50, 60, 60)])
        assert len(tracker.tracks) == 2

    def test_track_dies_after_misses(self):
        tracker = IoUTracker(max_misses=2)
        tracker.update([BBox(0, 0, 10, 10)])
        for _ in range(4):
            tracker.update([])
        assert tracker.tracks == []

    def test_primary_none_when_unconfirmed(self):
        tracker = IoUTracker()
        tracker.update([BBox(0, 0, 10, 10)])
        assert tracker.primary_track() is None  # needs 2 hits

    def test_multi_object_association(self):
        tracker = IoUTracker()
        a, b = BBox(0, 0, 10, 10), BBox(40, 40, 50, 50)
        tracker.update([a, b])
        matched = tracker.update([a.shifted(1, 0), b.shifted(0, 1)])
        assert len(matched) == 2
        assert len(tracker.tracks) == 2

    def test_validation(self):
        with pytest.raises(BenchmarkError):
            IoUTracker(iou_threshold=1.5)

    def test_greedy_match_takes_best_pair_first(self):
        a, b = BBox(0, 0, 10, 10), BBox(40, 40, 50, 50)
        far = BBox(100, 100, 110, 110)
        # Track 1 overlaps a more than track 0 does; a goes to track 1,
        # b to nobody above threshold, far to nobody at all.
        tracks = [a.shifted(3, 0), a.shifted(1, 0), b.shifted(9, 9)]
        pairs = greedy_iou_match(tracks, [far, a, b], 0.3)
        assert pairs == [(1, 1)]
        assert greedy_iou_match(tracks, [a, b], 0.001) == [(1, 0), (2, 1)]


class TestAlerts:
    def test_persistence_debounce(self):
        policy = AlertPolicy(persistence=3, cooldown=5)
        assert policy.observe(AlertKind.FALL, True, 0, "f") is None
        assert policy.observe(AlertKind.FALL, True, 1, "f") is None
        alert = policy.observe(AlertKind.FALL, True, 2, "f")
        assert isinstance(alert, Alert)

    def test_cooldown(self):
        policy = AlertPolicy(persistence=1, cooldown=10)
        assert policy.observe(AlertKind.FALL, True, 0, "f")
        assert policy.observe(AlertKind.FALL, True, 1, "f") is None
        assert policy.observe(AlertKind.FALL, True, 11, "f")

    def test_streak_resets(self):
        policy = AlertPolicy(persistence=2, cooldown=0)
        policy.observe(AlertKind.OBSTACLE, True, 0, "o")
        policy.observe(AlertKind.OBSTACLE, False, 1, "o")
        assert policy.observe(AlertKind.OBSTACLE, True, 2, "o") is None

    def test_obstacle_distance(self):
        depth = np.full((32, 32), 20.0, dtype=np.float32)
        depth[10:20, 10:20] = 3.0
        d = obstacle_distance(depth, BBox(10, 10, 19, 19))
        assert d == pytest.approx(3.0)

    def test_obstacle_distance_bounds(self):
        depth = np.full((8, 8), 1.0, dtype=np.float32)
        with pytest.raises(ConfigError):
            obstacle_distance(depth, BBox(20, 20, 30, 30))

    def test_policy_validation(self):
        with pytest.raises(ConfigError):
            AlertPolicy(persistence=0)

    def test_cooldown_zero_refires_every_frame(self):
        policy = AlertPolicy(persistence=1, cooldown=0)
        fired = [policy.observe(AlertKind.OBSTACLE, True, i, "o")
                 for i in range(5)]
        assert all(isinstance(a, Alert) for a in fired)

    def test_streak_resets_after_condition_gap(self):
        policy = AlertPolicy(persistence=3, cooldown=0)
        assert policy.observe(AlertKind.FALL, True, 0, "f") is None
        assert policy.observe(AlertKind.FALL, True, 1, "f") is None
        # Gap: the streak must restart from zero, not resume at 2.
        assert policy.observe(AlertKind.FALL, False, 2, "f") is None
        assert policy.observe(AlertKind.FALL, True, 3, "f") is None
        assert policy.observe(AlertKind.FALL, True, 4, "f") is None
        assert policy.observe(AlertKind.FALL, True, 5, "f")

    def test_per_kind_streaks_and_cooldowns_independent(self):
        policy = AlertPolicy(persistence=2, cooldown=10)
        # FALL builds a streak; OBSTACLE's own streak starts cold.
        assert policy.observe(AlertKind.FALL, True, 0, "f") is None
        assert policy.observe(AlertKind.OBSTACLE, True, 1, "o") is None
        assert policy.observe(AlertKind.FALL, True, 1, "f")
        # FALL is now cooling down; OBSTACLE still fires on its own
        # second consecutive frame.
        assert policy.observe(AlertKind.OBSTACLE, True, 2, "o")
        assert policy.observe(AlertKind.FALL, True, 2, "f") is None

    def test_obstacle_distance_clamps_at_map_borders(self):
        depth = np.full((16, 16), 5.0, dtype=np.float32)
        # Box hangs off every border: the intersection is still valid.
        d = obstacle_distance(depth, BBox(-4, -4, 20, 20))
        assert d == pytest.approx(5.0)
        # A corner sliver clamps to a single-pixel region.
        depth[0, 0] = 1.5
        d = obstacle_distance(depth, BBox(-10, -10, 0, 0))
        assert d == pytest.approx(1.5)


class TestPipeline:
    def test_fast_device_realtime(self, clean_frames):
        pipe = VipPipeline(PipelineConfig(detector_model="yolov8-n",
                                          device="rtx4090"), seed=7)
        report = pipe.run(clean_frames[:60])
        assert report.realtime
        assert report.detection_rate > 0.9

    def test_slow_device_drops(self, clean_frames):
        pipe = VipPipeline(PipelineConfig(detector_model="yolov8-x",
                                          device="xavier-nx"), seed=7)
        report = pipe.run(clean_frames[:60])
        assert report.drop_rate > 0.5

    def test_summary_keys(self, clean_frames):
        pipe = VipPipeline(seed=7)
        report = pipe.run(clean_frames[:30])
        assert {"offered", "processed", "dropped", "drop_rate",
                "detection_rate", "alerts"} <= set(report.summary())

    def test_empty_frames_rejected(self):
        with pytest.raises(BenchmarkError):
            VipPipeline().run([])

    def test_summary_total_on_empty_report(self):
        from repro.core.pipeline import PipelineReport
        summary = PipelineReport().summary()
        assert summary["offered"] == 0
        assert summary["drop_rate"] == 0.0
        assert summary["detection_rate"] == 1.0
        assert summary["mean_latency_ms"] != summary["mean_latency_ms"]
        assert summary["availability"] != summary["availability"]

    def test_zero_distance_obstacle_message_not_blank(self, monkeypatch,
                                                      clean_frames):
        # An obstacle at exactly 0.0 m must not silence the message
        # (the old `if nearest` truthiness bug).
        pipe = VipPipeline(PipelineConfig(detector_model="yolov8-n",
                                          device="rtx4090"), seed=7)
        monkeypatch.setattr(pipe, "_nearest_from_depth",
                            lambda frame: 0.0)
        report = pipe.run(clean_frames[:30])
        obstacle = [a for a in report.alerts
                    if a.kind is AlertKind.OBSTACLE]
        assert obstacle
        assert all(a.message == "Obstacle at 0.0 m" for a in obstacle)

    def test_custom_perceptor(self, clean_frames):
        calls = []

        def perceptor(frame):
            calls.append(1)
            return list(frame.vest_boxes)

        pipe = VipPipeline(PipelineConfig(device="rtx4090"),
                           perceptor=perceptor, seed=7)
        report = pipe.run(clean_frames[:20])
        assert len(calls) == report.frames_processed
        assert report.detection_rate == 1.0

    def test_config_validation(self):
        with pytest.raises(BenchmarkError):
            PipelineConfig(frame_rate=0.0)
        with pytest.raises(BenchmarkError):
            PipelineConfig(pose_every=0)


class TestSuiteFacade:
    @pytest.fixture(scope="class")
    def bench(self):
        return OcularoneBench()

    def test_accuracy_matrix(self, bench):
        m = bench.accuracy_matrix()
        assert len(m) == 6
        assert m["yolov11-m"]["diverse"] == pytest.approx(99.49)

    def test_latency_grid(self, bench):
        g = bench.latency_grid()
        assert g["xavier-nx"]["yolov8-x"] == pytest.approx(989.0,
                                                           abs=10.0)

    def test_tradeoff_front(self, bench):
        front = bench.tradeoff_front()
        assert front

    def test_dataset_builder_scaled(self, bench):
        idx = bench.build_dataset(0.01)
        assert len(idx.category_counts()) == 12

    def test_run_selected_experiments(self, bench):
        report = bench.run_all(ids=["table2", "table3"])
        assert report.all_claims_hold
        assert "Table 2" in report.to_markdown()
