"""Tests for the adaptive deployment controller and batching model."""

import pytest

from repro.core.adaptive import (HEADROOM_UP, AdaptiveArm,
                                 AdaptiveController, AdaptiveDeployment,
                                 AdaptivePolicy, default_arms)
from repro.errors import BenchmarkError, HardwareError
from repro.latency.batching import BatchingModel
from repro.hardware.registry import device_spec
from repro.models.spec import model_spec


class TestAdaptivePolicy:
    def test_budget_from_fps(self):
        assert AdaptivePolicy(target_fps=10.0).budget_ms == \
            pytest.approx(100.0)

    def test_validation(self):
        with pytest.raises(BenchmarkError):
            AdaptivePolicy(target_fps=0.0)


class TestAdaptiveArm:
    def test_offboard_needs_rtt(self):
        with pytest.raises(BenchmarkError):
            AdaptiveArm("yolov8-n", "rtx4090", offboard=True,
                        network_rtt_ms=0.0)

    def test_name(self):
        arm = AdaptiveArm("yolov8-n", "orin-nano")
        assert "onboard" in arm.name


class TestController:
    def _controller(self, **policy_kwargs):
        policy = AdaptivePolicy(target_fps=10.0, window=5,
                                dwell_frames=5, **policy_kwargs)
        return AdaptiveController(default_arms(), policy), policy

    def test_starts_on_most_accurate(self):
        ctrl, _ = self._controller()
        accs = [ctrl.accuracy[a.name] for a in ctrl.arms]
        assert accs == sorted(accs, reverse=True)
        assert ctrl.current is ctrl.arms[0]

    def test_downswitch_on_violations(self):
        ctrl, policy = self._controller()
        switch = None
        for _ in range(20):
            switch = ctrl.observe(policy.budget_ms * 2) or switch
        assert switch is not None and switch["direction"] == "down"

    def test_no_switch_within_dwell(self):
        ctrl, policy = self._controller()
        for i in range(4):  # fewer than dwell_frames
            assert ctrl.observe(policy.budget_ms * 2) is None

    def test_upswitch_requires_predicted_fit(self):
        """From the bottom arm, good observations climb only to arms
        whose expected latency fits the headroom criterion."""
        ctrl, policy = self._controller()
        # Force to the bottom.
        for _ in range(40):
            ctrl.observe(policy.budget_ms * 3)
        bottom = ctrl.current
        assert bottom is ctrl.arms[-1]
        # Now feed comfortable latencies; the controller may climb, but
        # never to an arm with expected median above the threshold.
        for _ in range(60):
            ctrl.observe(5.0)
        assert ctrl.expected_ms[ctrl.current.name] <= \
            HEADROOM_UP * policy.budget_ms or \
            ctrl.current is bottom

    def test_demotion_backoff(self):
        policy = AdaptivePolicy(target_fps=10.0, window=5,
                                dwell_frames=5,
                                demotion_backoff_frames=1000)
        ctrl = AdaptiveController(default_arms(), policy)
        top = ctrl.current
        for _ in range(20):
            ctrl.observe(policy.budget_ms * 2)
        assert ctrl.current is not top
        for _ in range(100):
            ctrl.observe(1.0)
        # Backoff prevents returning to the demoted top arm.
        assert ctrl.current is not top

    def test_empty_arms_rejected(self):
        with pytest.raises(BenchmarkError):
            AdaptiveController([])

    def test_bad_observation(self):
        ctrl, _ = self._controller()
        with pytest.raises(BenchmarkError):
            ctrl.observe(0.0)


class TestAdaptiveDeployment:
    def test_stable_network_no_switches(self):
        dep = AdaptiveDeployment(default_arms(),
                                 AdaptivePolicy(target_fps=10.0),
                                 seed=7)
        report = dep.run(n_frames=300)
        assert report.switches == []
        assert report.violation_rate < 0.02

    def test_degradation_triggers_adaptation(self):
        dep = AdaptiveDeployment(default_arms(),
                                 AdaptivePolicy(target_fps=10.0),
                                 seed=7)
        report = dep.run(n_frames=500, network_degradation_at=150)
        assert len(report.switches) >= 1
        assert report.switches[0]["direction"] == "down"
        # Adaptation keeps the violation rate bounded.
        assert report.violation_rate < 0.5

    def test_summary_fields(self):
        dep = AdaptiveDeployment(default_arms(), seed=7)
        s = dep.run(n_frames=120).summary()
        assert {"frames", "switches", "violation_rate",
                "frames_per_arm", "mean_expected_accuracy"} <= set(s)

    def test_frame_count_validation(self):
        with pytest.raises(BenchmarkError):
            AdaptiveDeployment(default_arms(), seed=7).run(n_frames=0)


class TestBatching:
    @pytest.fixture(scope="class")
    def bm(self):
        return BatchingModel()

    def test_per_frame_latency_decreases(self, bm):
        curve = bm.curve("yolov8-n", "rtx4090")
        per_frame = [p.per_frame_ms for p in curve]
        assert per_frame[-1] < per_frame[0]

    def test_throughput_increases(self, bm):
        curve = bm.curve("yolov8-m", "rtx4090")
        fps = [p.throughput_fps for p in curve]
        assert all(b >= a - 1e-9 for a, b in zip(fps, fps[1:]))

    def test_batch1_matches_roofline(self, bm):
        from repro.latency.estimator import LatencyEstimator
        est = LatencyEstimator()
        p = bm.batch_point(model_spec("yolov8-x"),
                           device_spec("xavier-nx"), 1)
        assert p.batch_latency_ms == pytest.approx(
            est.median_ms("yolov8-x", "xavier-nx"), rel=0.02)

    def test_small_model_gains_more_from_batching(self, bm):
        def gain(model):
            curve = bm.curve(model, "rtx4090", batches=(1, 32))
            return curve[0].per_frame_ms / curve[1].per_frame_ms
        assert gain("yolov8-n") > gain("yolov8-x")

    def test_best_batch_under_deadline(self, bm):
        b, fps = bm.best_batch_under_deadline("yolov8-n", "rtx4090",
                                              100.0)
        assert b >= 1 and fps > 100

    def test_infeasible_deadline(self, bm):
        with pytest.raises(HardwareError):
            bm.best_batch_under_deadline("yolov8-x", "xavier-nx", 10.0)

    def test_best_batch_scans_every_size(self, bm):
        """Regression: the scan must cover *all* feasible batch sizes.
        Throughput rises with batch, so the optimum is the largest
        feasible batch — usually not a power of two.  The old
        powers-of-two scan stopped at 32 here and left ~3 % throughput
        on the table."""
        m, d = model_spec("yolov8-n"), device_spec("rtx4090")
        best, fps = bm.best_batch_under_deadline(
            "yolov8-n", "rtx4090", 40.0)
        assert best & (best - 1) != 0  # not a power of two
        # Strictly better than the best the old pow-2 scan could find.
        pow2_fps = max(
            bm.batch_point(m, d, b).throughput_fps
            for b in (1, 2, 4, 8, 16, 32)
            if bm.batch_point(m, d, b).batch_latency_ms <= 40.0)
        assert fps > pow2_fps
        # And it really is the largest feasible batch.
        assert bm.batch_point(m, d, best).batch_latency_ms <= 40.0
        assert bm.batch_point(m, d, best + 1).batch_latency_ms > 40.0

    def test_best_batch_validates_max_batch(self, bm):
        with pytest.raises(HardwareError):
            bm.best_batch_under_deadline("yolov8-n", "rtx4090", 40.0,
                                         max_batch=0)

    def test_drones_servable_structure(self, bm):
        wk = bm.drones_servable("yolov8-x", "rtx4090")
        nx = bm.drones_servable("yolov8-n", "xavier-nx")
        assert wk >= 3       # workstation serves a small fleet
        assert nx >= 1       # a Jetson serves its own drone

    def test_validation(self, bm):
        with pytest.raises(HardwareError):
            bm.batch_point(model_spec("yolov8-n"),
                           device_spec("rtx4090"), 0)
        with pytest.raises(HardwareError):
            BatchingModel(saturation_batch=0.0)
        with pytest.raises(HardwareError):
            bm.drones_servable("yolov8-n", "rtx4090", per_drone_fps=0.0)
