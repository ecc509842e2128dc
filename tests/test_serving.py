"""Tests for dynamic-batching serving on one server (repro.serving).

One workstation GPU is a one-replica
:class:`~repro.serving.cluster.ClusterSimulator`; these tests pin its
request streams, batching, admission policies, invariants, and the
cross-validation against the analytic ``BatchingModel``.
"""

import json

import pytest

from repro.cli import main
from repro.errors import BenchmarkError
from repro.hardware.registry import device_spec
from repro.latency.batching import BatchingModel
from repro.models.spec import model_spec
from repro.obs import TelemetryBus, use_telemetry
from repro.rng import make_rng
from repro.serving import (AdmissionPolicy, ClusterConfig, ClusterReport,
                           ClusterSimulator, MicroBatcher, ReplicaSpec,
                           Request, generate_arrivals,
                           serving_slo_policy)
from repro.serving.cluster import BATCH_BUDGET_FRACTION
from repro.serving.request import schedule_arrivals

_SPEC_FIELDS = ("model", "device", "queue_capacity", "max_batch")


def one_server(**kwargs) -> ClusterConfig:
    """A one-replica pool: replica fields go to its ReplicaSpec."""
    spec = ReplicaSpec(**{k: kwargs.pop(k) for k in _SPEC_FIELDS
                          if k in kwargs})
    return ClusterConfig(replicas=(spec,), **kwargs)


OVERLOAD = one_server(num_streams=32, admission="full")
NOSHED_OVERLOAD = one_server(num_streams=32, admission="none")
SATURATED_B8 = one_server(num_streams=16, admission="none",
                          max_batch=8, queue_capacity=512)


@pytest.fixture(scope="module")
def overload_report():
    return ClusterSimulator(OVERLOAD).run()


@pytest.fixture(scope="module")
def noshed_report():
    return ClusterSimulator(NOSHED_OVERLOAD).run()


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
            self._batcher().take_batch()


class TestAdmission:
    def test_none_policy_only_bounds_queue(self, noshed_report):
        shed = noshed_report.shed
        assert shed["queue_full"] > 0
        assert sum(shed.values()) == shed["queue_full"]
        assert "slo_burn" not in shed

    def test_deadline_screening(self):
        rep = ClusterSimulator(one_server(
            num_streams=32, admission="deadline", duration_s=4.0)).run()
        assert rep.shed["deadline"] > 0
        assert rep.violation_rate < 0.01
        assert "slo_burn" not in rep.shed

    def test_burn_shedding_trips_and_clears(self):
        sim = ClusterSimulator(one_server(num_streams=32,
                                          admission="slo"))
        # Step the run in 250 ms windows: (admitted, burn-shed) deltas.
        deltas, last = [], (0, 0)
        for t in range(250, 10_250, 250):
            sim.run(pause_at_ms=float(t))
            rep = sim.live_report
            now = (rep.admitted, rep.shed["slo_burn"])
            deltas.append((now[0] - last[0], now[1] - last[1]))
            last = now
        tripped = [i for i, (_, burn) in enumerate(deltas) if burn]
        assert tripped
        # The burn clears again: admission resumes after the trip.
        assert any(adm for adm, _ in deltas[tripped[0] + 1:])
        rep = sim.resume()
        assert rep.shed["deadline"] == 0  # SLO never screens
        assert rep.conservation_holds()

    def test_slo_burn_tallied_only_under_burn_policies(self):
        for policy in AdmissionPolicy:
            rep = ClusterSimulator(one_server(
                num_streams=4, duration_s=1.0, admission=policy)).run()
            burns = policy in (AdmissionPolicy.SLO, AdmissionPolicy.FULL)
            assert ("slo_burn" in rep.shed) is burns

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
        sim = ClusterSimulator(OVERLOAD)
        budget = sim.deadline_ms * BATCH_BUDGET_FRACTION
        assert sim.batch_latency_ms(0, sim.max_batch[0]) <= budget
        rep = sim.run()
        assert max(rep.batch_sizes) <= sim.max_batch[0]

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
        cfg = one_server(num_streams=24, admission="full",
                         arrival_jitter_ms=3.0, seed=1234,
                         duration_s=4.0)
        a = ClusterSimulator(cfg).run()
        b = ClusterSimulator(cfg).run()
        assert json.dumps(a.summary(), sort_keys=True) == \
            json.dumps(b.summary(), sort_keys=True)
        assert a.latencies_ms == b.latencies_ms
        assert a.batch_sizes == b.batch_sizes

    def test_low_load_violation_free(self):
        rep = ClusterSimulator(
            one_server(num_streams=4, admission="none")).run()
        assert rep.violation_rate == 0.0
        assert rep.admitted_fraction == 1.0


class TestBatchingModelCrossValidation:
    def test_full_batches_match_analytic_per_frame(self):
        """Acceptance: simulated per-frame latency with every batch at
        the cap agrees with ``BatchingModel.batch_point`` within 1 %."""
        rep = ClusterSimulator(SATURATED_B8).run()
        point = BatchingModel().batch_point(
            model_spec("yolov8-m"), device_spec("rtx4090"), 8)
        assert rep.mean_batch == 8.0
        assert rep.exec_per_frame_ms == pytest.approx(
            point.per_frame_ms, rel=0.01)

    def test_saturated_throughput_tracks_analytic(self):
        rep = ClusterSimulator(SATURATED_B8).run()
        point = BatchingModel().batch_point(
            model_spec("yolov8-m"), device_spec("rtx4090"), 8)
        assert rep.throughput_fps == pytest.approx(
            point.throughput_fps, rel=0.02)

    def test_auto_max_batch_uses_batching_model(self):
        sim = ClusterSimulator(one_server())
        bm = BatchingModel()
        best, _ = bm.best_batch_under_deadline(
            "yolov8-m", "rtx4090",
            sim.deadline_ms * BATCH_BUDGET_FRACTION)
        assert sim.max_batch == [best]

    def test_infeasible_budget_falls_back_to_singles(self):
        sim = ClusterSimulator(one_server(
            model="yolov8-x", device="xavier-nx", deadline_ms=10.0))
        assert sim.max_batch == [1]


class TestServingTelemetry:
    def test_stage_sketches_reach_the_bus(self):
        bus = TelemetryBus()
        with use_telemetry(bus):
            rep = ClusterSimulator(one_server(
                num_streams=6, duration_s=3.0)).run()
        stages = set(bus.stages())
        assert {"e2e", "queue", "batch", "exec"} <= stages
        e2e = sum(
            bus.cumulative_sketch(d, "e2e").count
            for d in bus.devices()
            if bus.cumulative_sketch(d, "e2e") is not None)
        assert e2e == rep.completed
        batch = bus.cumulative_sketch("replica-0", "batch")
        assert batch is not None
        assert batch.count == len(rep.batch_sizes)

    def test_null_bus_emits_nothing(self):
        rep = ClusterSimulator(one_server(
            num_streams=6, duration_s=3.0)).run()
        assert rep.completed > 0  # ran fine without a bus


class TestServingValidation:
    def test_bad_parameters(self):
        with pytest.raises(BenchmarkError):
            one_server(num_streams=0)
        with pytest.raises(BenchmarkError):
            one_server(deadline_ms=-1.0)
        with pytest.raises(BenchmarkError):
            one_server(arrival_jitter_ms=-0.5)
        with pytest.raises(ValueError):
            one_server(admission="warp-speed")

    def test_policy_string_coercion(self):
        assert one_server(admission="slo").admission is \
            AdmissionPolicy.SLO

    def test_empty_report_guards(self):
        # An all-shed run violated nothing: rate is 0.0, not a crash.
        rep = ClusterReport(router="least-loaded",
                            replicas=["m@d"], deadline_ms=100.0)
        assert rep.violation_rate == 0.0
        assert rep.mean_batch == 0.0
        assert rep.exec_per_frame_ms == 0.0
        assert rep.summary()["violation_rate"] == 0.0

    def test_all_shed_run_summarises(self):
        # Regression: queue_capacity=1 plus an infeasible deadline on
        # a slow device sheds every request; summary() must not raise.
        cfg = one_server(model="yolov8-x", device="xavier-nx",
                         deadline_ms=10.0, queue_capacity=1,
                         num_streams=8, duration_s=2.0,
                         admission=AdmissionPolicy.DEADLINE, seed=3)
        rep = ClusterSimulator(cfg).run()
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

    def test_serve_sim_policy_reaches_the_pool(self, capsys):
        # An explicit --policy holds in pool mode: 'none' bounds the
        # queues only, so overload sheds on queue_full, not deadline.
        assert main(["serve-sim", "--replicas", "2", "--policy", "none",
                     "--streams", "64", "--duration", "3"]) == 0
        out = capsys.readouterr().out
        assert "admission=none" in out
        assert "queue_full=" in out
        assert "deadline=" not in out

    def test_serve_sim_fleet_rejects_policy(self, capsys):
        assert main(["serve-sim", "--cells", "2", "--duration", "1",
                     "--policy", "full"]) == 2
        assert "--policy" in capsys.readouterr().err
