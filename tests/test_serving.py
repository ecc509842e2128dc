"""Tests for the dynamic-batching serving simulator (repro.serving)."""

import json

import pytest

from repro.cli import main
from repro.errors import BenchmarkError
from repro.hardware.registry import device_spec
from repro.latency.batching import BatchingModel
from repro.models.spec import model_spec
from repro.obs import TelemetryBus, use_telemetry
from repro.rng import make_rng
from repro.serving import (AdmissionController, AdmissionPolicy,
                           MicroBatcher, Request, ServingConfig,
                           ServingReport, ServingSimulator, ShedReason,
                           generate_arrivals, serving_slo_policy)
from repro.serving.request import schedule_arrivals

OVERLOAD = ServingConfig(num_streams=32, policy="full")
NOSHED_OVERLOAD = ServingConfig(num_streams=32, policy="none")


@pytest.fixture(scope="module")
def overload_report():
    return ServingSimulator(OVERLOAD).run()


@pytest.fixture(scope="module")
def noshed_report():
    return ServingSimulator(NOSHED_OVERLOAD).run()


class TestRequestStreams:
    def test_arrivals_sorted_and_complete(self):
        reqs = generate_arrivals(4, 10.0, 2.0, 100.0)
        assert len(reqs) == 4 * 20
        times = [r.arrival_ms for r in reqs]
        assert times == sorted(times)
        assert {r.stream for r in reqs} == set(range(4))

    def test_jitter_is_seeded(self):
        a = generate_arrivals(3, 10.0, 1.0, 100.0, jitter_ms=5.0,
                              seed=9)
        b = generate_arrivals(3, 10.0, 1.0, 100.0, jitter_ms=5.0,
                              seed=9)
        c = generate_arrivals(3, 10.0, 1.0, 100.0, jitter_ms=5.0,
                              seed=10)
        assert [r.arrival_ms for r in a] == [r.arrival_ms for r in b]
        assert [r.arrival_ms for r in a] != [r.arrival_ms for r in c]

    def test_vector_jitter_matches_scalar_draws(self):
        # Reference: one scalar draw per request, stream-major — the
        # loop the vectorised schedule replaced, bit for bit.
        rng = make_rng(9, "serving-arrivals")
        period = 100.0
        expected = []
        for stream in range(3):
            for seq in range(10):
                t = period * stream / 3 + seq * period
                t += float(rng.uniform(0.0, 5.0))
                expected.append(Request(stream=stream, seq=seq,
                                        arrival_ms=t,
                                        deadline_ms=t + 100.0))
        expected.sort(key=lambda r: (r.arrival_ms, r.stream, r.seq))
        assert generate_arrivals(3, 10.0, 1.0, 100.0, jitter_ms=5.0,
                                 seed=9) == expected

    def test_validation(self):
        with pytest.raises(BenchmarkError):
            generate_arrivals(0, 10.0, 1.0, 100.0)
        with pytest.raises(BenchmarkError):
            generate_arrivals(1, 10.0, 1.0, -1.0)
        with pytest.raises(BenchmarkError):
            schedule_arrivals([0], 1, 10.0, 1.0, 100.0, ramp=(1.0, 0.0))
        with pytest.raises(BenchmarkError):
            schedule_arrivals([2], 2, 10.0, 1.0, 100.0)
        with pytest.raises(BenchmarkError):
            Request(stream=0, seq=0, arrival_ms=5.0, deadline_ms=5.0)


class TestMicroBatcher:
    def _batcher(self, **kwargs):
        return MicroBatcher(4, lambda b: 10.0 * b, **kwargs)

    def _req(self, stream, seq, t, deadline=1000.0):
        return Request(stream=stream, seq=seq, arrival_ms=t,
                       deadline_ms=t + deadline)

    def test_round_robin_across_streams(self):
        b = self._batcher()
        # Stream 0 floods 6 requests before stream 1's single one.
        for i in range(6):
            b.push(self._req(0, i, float(i)))
        b.push(self._req(1, 0, 6.0))
        batch = b.take_batch()
        assert len(batch) == 4
        assert {r.stream for r in batch} == {0, 1}

    def test_full_batch_dispatches_now(self):
        b = self._batcher()
        for i in range(4):
            b.push(self._req(0, i, float(i)))
        assert b.next_dispatch_ms(50.0) == 50.0

    def test_slack_forces_partial_batch(self):
        b = self._batcher()
        b.push(self._req(0, 0, 0.0, deadline=100.0))
        # One pending request, exec 10 ms: must leave by t=90.
        assert b.next_dispatch_ms(0.0) == pytest.approx(90.0)

    def test_fixed_batch_waits_unless_draining(self):
        b = self._batcher(fixed_batch=3)
        b.push(self._req(0, 0, 0.0))
        assert b.next_dispatch_ms(0.0) == float("inf")
        assert b.next_dispatch_ms(0.0, draining=True) == 0.0

    def test_capacity_and_validation(self):
        b = MicroBatcher(2, lambda b: 1.0, capacity=2)
        b.push(self._req(0, 0, 0.0))
        b.push(self._req(0, 1, 1.0))
        assert b.full
        with pytest.raises(BenchmarkError):
            b.push(self._req(0, 2, 2.0))
        with pytest.raises(BenchmarkError):
            MicroBatcher(0, lambda b: 1.0)
        with pytest.raises(BenchmarkError):
            MicroBatcher(4, lambda b: 1.0, capacity=2)
        with pytest.raises(BenchmarkError):
            MicroBatcher(4, lambda b: 1.0, fixed_batch=8)
        with pytest.raises(BenchmarkError):
            self._batcher().take_batch()


class TestAdmission:
    def _controller(self, policy):
        batcher = MicroBatcher(4, lambda b: 10.0, capacity=8)
        return AdmissionController(policy, batcher, 100.0), batcher

    def _req(self, t=0.0):
        return Request(stream=0, seq=0, arrival_ms=t,
                       deadline_ms=t + 100.0)

    def test_none_policy_only_bounds_queue(self):
        ctrl, batcher = self._controller(AdmissionPolicy.NONE)
        ok, reason = ctrl.admit(self._req(), 1e9, 0.0)
        assert ok and reason is None
        for i in range(8):
            batcher.push(Request(stream=0, seq=i, arrival_ms=0.0,
                                 deadline_ms=100.0))
        ok, reason = ctrl.admit(self._req(), 0.0, 0.0)
        assert not ok and reason is ShedReason.QUEUE_FULL

    def test_deadline_screening(self):
        ctrl, _ = self._controller(AdmissionPolicy.DEADLINE)
        ok, _ = ctrl.admit(self._req(), 99.0, 0.0)
        assert ok
        ok, reason = ctrl.admit(self._req(), 101.0, 0.0)
        assert not ok and reason is ShedReason.DEADLINE
        assert ctrl.shed_counts[ShedReason.DEADLINE] == 1

    def test_burn_shedding_trips_and_clears(self):
        ctrl, _ = self._controller(AdmissionPolicy.SLO)
        # Saturate both burn windows with violations.
        for i in range(200):
            ctrl.observe_completion(500.0, float(i) * 5.0)
        now = 200 * 5.0
        assert ctrl.burning(now)
        ok, reason = ctrl.admit(self._req(now), 0.0, now)
        assert not ok and reason is ShedReason.SLO_BURN
        # Far in the future both windows have rotated clean.
        later = now + 60_000.0
        assert not ctrl.burning(later)
        ok, _ = ctrl.admit(self._req(later), 1e12, later)
        assert ok  # SLO policy never screens on predictions

    def test_slo_policy_scaling(self):
        policy = serving_slo_policy(42.0)
        (obj,) = policy.objectives
        assert obj.threshold_ms == 42.0
        assert policy.fast.window_s < policy.slow.window_s


class TestServingInvariants:
    def test_request_conservation(self, overload_report,
                                  noshed_report):
        for rep in (overload_report, noshed_report):
            assert rep.conservation_holds()
            assert rep.generated == OVERLOAD.num_streams * int(
                OVERLOAD.frame_rate * OVERLOAD.duration_s)

    def test_no_starvation_under_overload(self, overload_report):
        counts = list(overload_report.per_stream_completed.values())
        assert len(counts) == OVERLOAD.num_streams
        assert min(counts) > 0
        assert min(counts) >= 0.5 * (sum(counts) / len(counts))

    def test_every_batch_fits_the_deadline_budget(self):
        sim = ServingSimulator(OVERLOAD)
        budget = sim.deadline_ms * OVERLOAD.batch_budget_fraction
        assert sim.batch_latency_ms(sim.max_batch) <= budget
        rep = sim.run()
        assert max(rep.batch_sizes) <= sim.max_batch

    def test_shedder_holds_p99_under_deadline(self, overload_report,
                                              noshed_report):
        deadline = overload_report.deadline_ms
        assert overload_report.p99_ms <= deadline + 1e-9
        assert overload_report.violation_rate < 0.01
        # Without shedding the same load blows the SLO wide open.
        assert noshed_report.violation_rate > 0.5
        assert noshed_report.p99_ms > deadline

    def test_shedding_preserves_goodput(self, overload_report,
                                        noshed_report):
        assert overload_report.throughput_fps >= \
            0.95 * noshed_report.throughput_fps

    def test_rerun_is_byte_identical(self):
        cfg = ServingConfig(num_streams=24, policy="full",
                            arrival_jitter_ms=3.0, seed=1234,
                            duration_s=4.0)
        a = ServingSimulator(cfg).run()
        b = ServingSimulator(cfg).run()
        assert json.dumps(a.summary(), sort_keys=True) == \
            json.dumps(b.summary(), sort_keys=True)
        assert a.latencies_ms == b.latencies_ms
        assert a.batch_sizes == b.batch_sizes

    def test_low_load_violation_free(self):
        rep = ServingSimulator(
            ServingConfig(num_streams=4, policy="none")).run()
        assert rep.violation_rate == 0.0
        assert rep.admitted_fraction == 1.0


class TestBatchingModelCrossValidation:
    def test_fixed_batch_matches_analytic_per_frame(self):
        """Acceptance: simulated per-frame latency at a fixed batch
        agrees with ``BatchingModel.batch_point`` within 1 %."""
        cfg = ServingConfig(num_streams=16, policy="none",
                            fixed_batch=8, queue_capacity=512)
        rep = ServingSimulator(cfg).run()
        point = BatchingModel().batch_point(
            model_spec(cfg.model), device_spec(cfg.device), 8)
        assert rep.mean_batch == 8.0
        assert rep.exec_per_frame_ms == pytest.approx(
            point.per_frame_ms, rel=0.01)

    def test_saturated_throughput_tracks_analytic(self):
        cfg = ServingConfig(num_streams=16, policy="none",
                            fixed_batch=8, queue_capacity=512)
        rep = ServingSimulator(cfg).run()
        point = BatchingModel().batch_point(
            model_spec(cfg.model), device_spec(cfg.device), 8)
        assert rep.throughput_fps == pytest.approx(
            point.throughput_fps, rel=0.02)

    def test_auto_max_batch_uses_batching_model(self):
        sim = ServingSimulator(ServingConfig())
        bm = BatchingModel()
        best, _ = bm.best_batch_under_deadline(
            "yolov8-m", "rtx4090",
            sim.deadline_ms * sim.config.batch_budget_fraction)
        assert sim.max_batch == best

    def test_infeasible_budget_falls_back_to_singles(self):
        sim = ServingSimulator(ServingConfig(
            model="yolov8-x", device="xavier-nx", deadline_ms=10.0))
        assert sim.max_batch == 1


class TestServingTelemetry:
    def test_stage_sketches_reach_the_bus(self):
        bus = TelemetryBus()
        with use_telemetry(bus):
            rep = ServingSimulator(ServingConfig(
                num_streams=6, duration_s=3.0)).run()
        stages = set(bus.stages())
        assert {"e2e", "queue", "batch", "exec"} <= stages
        e2e = sum(
            bus.cumulative_sketch(d, "e2e").count
            for d in bus.devices()
            if bus.cumulative_sketch(d, "e2e") is not None)
        assert e2e == rep.completed
        batch = bus.cumulative_sketch("server", "batch")
        assert batch is not None
        assert batch.count == len(rep.batch_sizes)

    def test_null_bus_emits_nothing(self):
        rep = ServingSimulator(ServingConfig(
            num_streams=6, duration_s=3.0)).run()
        assert rep.completed > 0  # ran fine without a bus


class TestServingConfigValidation:
    def test_bad_parameters(self):
        with pytest.raises(BenchmarkError):
            ServingConfig(num_streams=0)
        with pytest.raises(BenchmarkError):
            ServingConfig(deadline_ms=-1.0)
        with pytest.raises(BenchmarkError):
            ServingConfig(batch_budget_fraction=0.0)
        with pytest.raises(BenchmarkError):
            ServingConfig(arrival_jitter_ms=-0.5)
        with pytest.raises(ValueError):
            ServingConfig(policy="warp-speed")

    def test_policy_string_coercion(self):
        assert ServingConfig(policy="slo").policy is \
            AdmissionPolicy.SLO

    def test_empty_report_guards(self):
        # An all-shed run violated nothing: rate is 0.0, not a crash.
        rep = ServingReport(policy="full", model="m", device="d",
                            deadline_ms=100.0, max_batch=8)
        assert rep.violation_rate == 0.0
        assert rep.summary()["violation_rate"] == 0.0

    def test_all_shed_run_summarises(self):
        # Regression: queue_capacity=1 plus an infeasible deadline on
        # a slow device sheds every request; summary() must not raise.
        cfg = ServingConfig(model="yolov8-x", device="xavier-nx",
                            deadline_ms=10.0, queue_capacity=1,
                            num_streams=8, duration_s=2.0,
                            policy=AdmissionPolicy.DEADLINE, seed=3)
        rep = ServingSimulator(cfg).run()
        assert rep.completed == 0
        assert rep.total_shed == rep.generated
        out = rep.summary()
        assert out["violation_rate"] == 0.0
        assert out["completed"] == 0


class TestServeSimCli:
    def test_serve_sim_check_passes(self, capsys):
        assert main(["serve-sim", "--streams", "16", "--duration",
                     "3", "--check"]) == 0
        out = capsys.readouterr().out
        assert "checks passed" in out
        assert "throughput" in out

    def test_serve_sim_overload_no_shed_reports(self, capsys):
        assert main(["serve-sim", "--streams", "32", "--duration",
                     "3", "--policy", "none"]) == 0
        assert "past deadline" in capsys.readouterr().out

    def test_serve_sim_bad_model_errors(self, capsys):
        assert main(["serve-sim", "--model", "resnet152"]) == 2
