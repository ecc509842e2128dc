"""Tests for latency calibration, estimation and the stochastic runtime."""

import numpy as np
import pytest

from repro.errors import BenchmarkError, CalibrationError
from repro.latency.calibration import (LATENCY_ANCHORS,
                                       verify_latency_anchors)
from repro.latency.estimator import LatencyEstimator, latency_table_ms
from repro.latency.runtime import InferenceRun, SimulatedRuntime
from repro.latency.sampler import LatencySampler


class TestCalibration:
    def test_all_anchors_satisfied(self):
        assert verify_latency_anchors() == []

    def test_anchor_coverage(self):
        """Every §4.2.3/4 latency statement has machine-checked anchors."""
        assert len(LATENCY_ANCHORS) >= 40
        pairs = {(a.model, a.device) for a in LATENCY_ANCHORS}
        # All 8 models on the workstation; key models on every edge dev.
        assert all((m, "rtx4090") in pairs for m in (
            "yolov8-n", "yolov8-x", "trt_pose", "monodepth2"))
        assert ("yolov8-x", "xavier-nx") in pairs

    def test_anchor_check_messages(self):
        from repro.latency.calibration import PaperAnchor
        a = PaperAnchor("yolov8-n", "rtx4090", 5.0, 10.0, "test")
        assert a.check(7.0) is None
        assert "below" in a.check(3.0)
        assert "above" in a.check(12.0)


class TestEstimator:
    @pytest.fixture(scope="class")
    def est(self):
        return LatencyEstimator()

    def test_paper_headline_numbers(self, est):
        # §4.2.3: YOLOv8-x reaches ≈989 ms on Xavier NX.
        assert est.median_ms("yolov8-x", "xavier-nx") == \
            pytest.approx(989.0, abs=10.0)
        # §4.2.4: ≈50× NX→4090 speed-up for x-large.
        assert est.speedup("yolov8-x", "rtx4090", "xavier-nx") == \
            pytest.approx(50.0, abs=5.0)

    def test_workstation_bounds(self, est):
        for m in ("yolov8-n", "yolov8-m", "yolov11-n", "yolov11-m",
                  "trt_pose", "monodepth2"):
            assert est.median_ms(m, "rtx4090") <= 10.0
        for m in ("yolov8-x", "yolov11-x"):
            assert est.median_ms(m, "rtx4090") <= 20.0

    def test_meets_deadline(self, est):
        assert est.meets_deadline("yolov8-n", "orin-agx", 100.0)
        assert not est.meets_deadline("yolov8-x", "xavier-nx", 100.0)

    def test_breakdown_totals(self, est):
        b = est.breakdown("monodepth2", "xavier-nx")
        assert b.total_ms == pytest.approx(
            est.median_ms("monodepth2", "xavier-nx"))

    def test_table_grid_complete(self):
        table = latency_table_ms()
        assert len(table) == 4
        assert all(len(row) == 8 for row in table.values())
        assert all(v > 0 for row in table.values()
                   for v in row.values())


class TestSampler:
    def test_deterministic(self):
        s = LatencySampler(seed=3)
        a = s.sample("yolov8-n", "orin-agx", 100)
        b = s.sample("yolov8-n", "orin-agx", 100)
        assert np.array_equal(a, b)

    def test_median_near_roofline(self):
        s = LatencySampler(seed=3)
        samples = s.sample("yolov8-m", "orin-nano", 800)
        est = LatencyEstimator()
        assert np.median(samples) == pytest.approx(
            est.median_ms("yolov8-m", "orin-nano"), rel=0.1)

    def test_warmup_included_slower_at_head(self):
        s = LatencySampler(seed=3)
        with_warm = s.sample("yolov8-m", "orin-nano", 200,
                             include_warmup=True)
        assert with_warm[0] > np.median(with_warm) * 1.5

    def test_warmup_excluded_by_default(self):
        s = LatencySampler(seed=3)
        samples = s.sample("yolov8-m", "orin-nano", 200)
        assert samples[0] < np.median(samples) * 1.5

    def test_positive_samples(self):
        s = LatencySampler(seed=4)
        samples = s.sample("monodepth2", "xavier-nx", 300)
        assert np.all(samples > 0)

    def test_workstation_jitter_larger_relative(self):
        s = LatencySampler(seed=5)
        edge = s.sample("yolov8-m", "orin-agx", 500)
        work = s.sample("yolov8-m", "rtx4090", 500)
        rel_edge = np.std(edge) / np.median(edge)
        rel_work = np.std(work) / np.median(work)
        assert rel_work > rel_edge * 0.8  # shared workstation is noisier

    def test_frame_count_validation(self):
        with pytest.raises(CalibrationError):
            LatencySampler().sample("yolov8-n", "orin-agx", 0)


class TestRuntime:
    def test_run_summary(self):
        rt = SimulatedRuntime()
        run = rt.run("yolov8-n", "rtx4090", n_frames=200)
        s = run.summary()
        assert s["median_ms"] <= s["p95_ms"] <= s["p99_ms"] <= \
            s["max_ms"]
        assert s["min_ms"] <= s["median_ms"]
        assert run.fps == pytest.approx(1000.0 / run.mean_ms)

    def test_default_frame_count_is_paper(self):
        rt = SimulatedRuntime()
        run = rt.run("yolov8-n", "orin-agx")
        assert len(run.samples_ms) == 1000  # §4.2: ~1,000 images

    def test_grid(self):
        rt = SimulatedRuntime()
        grid = rt.run_grid(["yolov8-n"], ["orin-agx", "rtx4090"],
                           n_frames=50)
        assert set(grid) == {"orin-agx", "rtx4090"}

    def test_grid_validation(self):
        rt = SimulatedRuntime()
        with pytest.raises(BenchmarkError):
            rt.run_grid([], ["orin-agx"])

    def test_inference_run_validation(self):
        with pytest.raises(BenchmarkError):
            InferenceRun("m", "d", np.array([]))
        with pytest.raises(BenchmarkError):
            InferenceRun("m", "d", np.array([1.0, -2.0]))
