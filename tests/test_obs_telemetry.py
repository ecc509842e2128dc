"""Telemetry layer tests: sketches, windows, SLO burn, CLI surfaces.

The load-bearing properties:

* :class:`QuantileSketch` merges are associative and commutative up to
  observable state — any grouping of partial sketches yields the same
  snapshot (seeded-RNG property style);
* sliding windows rotate exactly at clock boundaries and clamp stale
  timestamps monotonic;
* telemetry recorded in ``parallel_map`` worker processes adopts back
  into the parent bus identically to a serial run;
* an injected latency spike trips the fast+slow burn windows and drives
  :class:`HealthMonitor` to DEGRADED within one fast window;
* ten deterministic latency, serving and fleet probe snapshots
  reproduce ``tests/golden/bench_probes.json`` byte for byte.
"""

import math
import os

import numpy as np
import pytest

from repro.bench import profiler
from repro.bench.parallel import parallel_map
from repro.cli import main
from repro.core.fleet import (FleetConfig, FleetScheduler,
                              SchedulingPolicy)
from repro.core.pipeline import PipelineConfig, VipPipeline
from repro.errors import ConfigError
from repro.faults import FaultInjector, FaultKind, FaultSpec
from repro.faults.health import HealthState
from repro.io.jsonio import dumps_json
from repro.latency.runtime import SimulatedRuntime
from repro.obs import (Aggregator, BurnWindow, MetricsRegistry,
                       MonitorSession, QuantileSketch,
                       SloObjective, SloPolicy, SloTracker,
                       TelemetryBus, TelemetrySample, WindowedCounter,
                       WindowedSketch, current_telemetry,
                       use_telemetry)
from repro.rng import make_rng
from repro.serving import (ClusterConfig, ClusterSimulator,
                           FleetSimulator, ReplicaSpec,
                           default_chaos_faults)

QS = (0.1, 0.5, 0.9, 0.99)


def _snap_close(a: dict, b: dict) -> None:
    """Snapshot equality, tolerating FP summation-order drift in sum."""
    assert set(a) == set(b)
    for key, av in a.items():
        if key in ("sum", "mean"):
            assert av == pytest.approx(b[key], rel=1e-12)
        else:
            assert av == b[key], key


def _sketch_of(values) -> QuantileSketch:
    sk = QuantileSketch()
    for v in values:
        sk.observe(float(v))
    return sk


class TestQuantileSketch:
    def test_exact_phase_small_streams(self):
        sk = QuantileSketch(buffer_cap=16)
        for v in (5.0, 1.0, 3.0):
            sk.observe(v)
        assert sk.exact
        assert sk.quantile(0.5) == 3.0
        assert sk.min == 1.0 and sk.max == 5.0

    def test_spills_to_buckets_past_cap(self):
        sk = QuantileSketch(buffer_cap=8)
        for v in range(10):
            sk.observe(float(v))
        assert not sk.exact
        assert sk.count == 10
        assert sk.snapshot()["exact"] is False

    def test_nonfinite_counted_dropped(self):
        sk = QuantileSketch()
        for v in (math.inf, -math.inf, math.nan, 4.0):
            sk.observe(v)
        assert sk.count == 1 and sk.dropped == 3
        assert sk.min == 4.0 and sk.max == 4.0
        assert sk.snapshot()["dropped"] == 3

    def test_merge_associative_and_commutative(self):
        rng = make_rng(11, "sketch", "assoc")
        values = rng.lognormal(mean=3.0, sigma=1.0, size=900)
        parts = [_sketch_of(p) for p in np.array_split(values, 5)]

        left = parts[0]
        for sk in parts[1:]:
            left = left.merge(sk)
        right = parts[-1]
        for sk in reversed(parts[:-1]):
            right = sk.merge(right)
        shuffled_order = [parts[i] for i in (3, 0, 4, 2, 1)]
        shuffled = QuantileSketch.merged(shuffled_order)

        for other in (right, shuffled):
            _snap_close(left.snapshot(QS), other.snapshot(QS))
        assert left.count == len(values)

    def test_merge_stays_exact_only_when_combined_fits(self):
        small_a = _sketch_of(range(5))
        small_b = _sketch_of(range(5))
        assert small_a.merge(small_b).exact
        big = _sketch_of(range(300))
        assert not small_a.merge(big).exact

    def test_merge_rejects_incompatible_bounds(self):
        a = QuantileSketch(buckets=(1.0, 2.0))
        b = QuantileSketch(buckets=(1.0, 3.0))
        with pytest.raises(ConfigError):
            a.merge(b)

    def test_exact_quantiles_match_numpy(self):
        rng = make_rng(11, "sketch", "exact")
        values = rng.uniform(1.0, 50.0, size=100)
        sk = _sketch_of(values)
        assert sk.exact
        for q in QS:
            assert sk.quantile(q) == pytest.approx(
                float(np.quantile(values, q)))


class TestSlidingWindows:
    def test_rotation_at_clock_boundary(self):
        ws = WindowedSketch(window_s=1.0, subwindows=4)
        ws.observe(10.0, 0.0)
        # Still inside the window right up to the boundary...
        assert ws.merged(0.99).count == 1
        # ...and expired exactly at it (epoch 0 leaves at t=1.0).
        assert ws.merged(1.0).count == 0

    def test_subwindows_age_out_individually(self):
        ws = WindowedSketch(window_s=1.0, subwindows=4)
        for k in range(4):
            ws.observe(float(k), k * 0.25)
        assert ws.merged(0.75).count == 4
        assert ws.merged(1.0).count == 3    # cell [0, 0.25) gone
        assert ws.merged(1.5).count == 1
        assert ws.merged(2.0).count == 0

    def test_stale_timestamps_clamped_monotonic(self):
        ws = WindowedSketch(window_s=1.0, subwindows=4)
        ws.observe(1.0, 5.0)
        ws.observe(2.0, 3.0)   # stale: lands in the current cell
        assert ws.merged(5.0).count == 2

    def test_windowed_counter_bad_fraction(self):
        wc = WindowedCounter(window_s=2.0, subwindows=4)
        for i in range(8):
            wc.record(good=(i % 2 == 0), now_s=i * 0.25)
        assert wc.totals(1.75) == (4, 4)
        assert wc.bad_fraction(1.75) == 0.5
        assert wc.bad_fraction(10.0) == 0.0


class TestTelemetryBus:
    def test_ambient_default_is_null(self):
        bus = current_telemetry()
        assert not bus.enabled
        bus.emit("d", "e2e", 1.0, 0.0)  # discarded, no error
        assert bus.samples == []

    def test_emit_requires_tags(self):
        with pytest.raises(ConfigError):
            TelemetryBus().emit("", "e2e", 1.0, 0.0)

    def test_fleet_merge_matches_direct_observation(self):
        bus = TelemetryBus()
        rng = make_rng(11, "bus", "fleet")
        for i in range(60):
            bus.emit(f"drone-{i % 3}", "e2e",
                     float(rng.uniform(5, 50)), i * 0.1)
        agg = Aggregator(bus)
        per = agg.per_device(bus.end_s, windowed=False)
        assert sorted(per) == ["drone-0", "drone-1", "drone-2"]
        fleet = agg.fleet_sketch("e2e", bus.end_s, windowed=False)
        direct = _sketch_of(s.value for s in bus.samples)
        _snap_close(fleet.snapshot(QS), direct.snapshot(QS))

    def test_adopt_replays_into_sketches(self):
        src = TelemetryBus()
        src.emit("d0", "e2e", 12.0, 0.1)
        src.emit("d0", "e2e", 30.0, 0.2)
        dst = TelemetryBus()
        dst.adopt(src.samples)
        assert dst.cumulative_sketch("d0", "e2e").snapshot() == \
            src.cumulative_sketch("d0", "e2e").snapshot()


def _emit_work(item: int) -> int:
    """Module-level worker: emits a seeded sample stream, returns 2x."""
    bus = current_telemetry()
    rng = make_rng(123, "pmap-telemetry", item)
    for j in range(30):
        bus.emit(f"dev-{item}", "e2e", float(rng.uniform(5, 50)),
                 j * 0.05)
    return item * 2


class TestCrossProcessAggregation:
    def test_parallel_map_adopts_worker_samples(self):
        items = list(range(6))
        bus_par = TelemetryBus()
        with use_telemetry(bus_par):
            out = parallel_map(_emit_work, items, workers=2)
        assert out == [i * 2 for i in items]

        bus_ser = TelemetryBus()
        with use_telemetry(bus_ser):
            parallel_map(_emit_work, items, force_serial=True)

        assert len(bus_par.samples) == len(bus_ser.samples) == 180
        assert bus_par.devices() == bus_ser.devices()
        for device in bus_ser.devices():
            a = bus_par.cumulative_sketch(device, "e2e")
            b = bus_ser.cumulative_sketch(device, "e2e")
            # Same per-device stream order → exact snapshot equality.
            assert a.snapshot(QS) == b.snapshot(QS)


class TestSloBurn:
    def test_all_good_never_burns(self):
        tracker = SloTracker()
        for i in range(600):
            tracker.record_latency(10.0, i / 30.0)
        status = tracker.status(600 / 30.0)
        assert not status.burning
        assert status.burning_names() == ()

    def test_burn_needs_both_windows(self):
        policy = SloPolicy(fast=BurnWindow(1.0, 10.0),
                           slow=BurnWindow(10.0, 5.0))
        tracker = SloTracker(policy)
        # 9 s of good traffic, then one bad second: the fast window
        # saturates but the slow window still filters the blip...
        t = 0.0
        for _ in range(90):
            tracker.record_latency(10.0, t)
            t += 0.1
        for _ in range(4):
            tracker.record_latency(500.0, t)
            t += 0.1
        st = tracker.status(t)
        obj = st.objectives["latency_e2e"]
        assert obj.fast_burn >= 10.0
        assert not obj.burning

    def test_spike_flips_within_one_fast_window(self):
        policy = SloPolicy()
        tracker = SloTracker(policy)
        dt = 1.0 / 30.0
        t = 0.0
        while t < 70.0:
            tracker.record_latency(10.0, t)
            t += dt
        flipped_at = None
        while t < 90.0:
            tracker.record_latency(200.0, t)
            if tracker.status(t).burning:
                flipped_at = t
                break
            t += dt
        assert flipped_at is not None
        assert flipped_at - 70.0 <= policy.fast.window_s

    def test_unknown_event_objective_raises(self):
        with pytest.raises(ConfigError):
            SloTracker().record_event("nonesuch", True, 0.0)


class TestMonitorSession:
    def _spiked_stream(self, spike_at_s=80.0, end_s=95.0):
        dt = 1.0 / 30.0
        samples = []
        t = 0.0
        while t < end_s:
            lat = 10.0 if t < spike_at_s else 200.0
            samples.append(TelemetrySample("drone-00", "e2e", lat, t))
            t += dt
        return samples

    def test_spike_degrades_health_within_fast_window(self):
        session = MonitorSession()
        frames = list(session.replay(self._spiked_stream()))
        state = session.devices["drone-00"]
        assert state.health.state is HealthState.DEGRADED
        first = state.health.transitions[0]
        assert first["to"] == "degraded"
        assert "slo burn" in first["reason"]
        t_flip = first["frame"] / 30.0
        assert 80.0 <= t_flip <= 80.0 + session.policy.fast.window_s
        final = frames[-1]
        assert final.burning_devices == ["drone-00"]
        assert final.degraded_devices == ["drone-00"]
        assert "BURNING" in final.text

    def test_replay_emits_one_frame_per_refresh(self):
        session = MonitorSession(refresh_s=2.0)
        samples = [TelemetrySample("d0", "e2e", 10.0, i * 0.1)
                   for i in range(100)]  # 10 s of stream
        frames = list(session.replay(samples))
        # ~10 s / 2 s cadence plus the final frame.
        assert 4 <= len(frames) <= 6
        assert frames[-1].t_s == pytest.approx(9.9)
        assert all("drone" not in f.burning_devices for f in frames)


class TestPipelineSloIntegration:
    def test_slo_burn_drives_degraded_and_telemetry(self, clean_frames):
        # An impossible 0.01 ms budget: every frame burns the SLO even
        # though the pipeline itself is fault-free.
        policy = SloPolicy(objectives=(
            SloObjective("latency_e2e", target=0.99,
                         threshold_ms=0.01),))
        bus = TelemetryBus()
        with use_telemetry(bus):
            pipe = VipPipeline(
                PipelineConfig(detector_model="yolov8-n",
                               device="rtx4090"),
                seed=7, slo=policy)
            report = pipe.run(clean_frames[:30])
        assert report.slo_burn_frames > 0
        assert report.summary()["slo_burn_frames"] \
            == report.slo_burn_frames
        assert "e2e" in bus.stages()
        e2e = bus.cumulative_sketch("rtx4090", "e2e")
        assert e2e is not None and e2e.count == report.frames_processed

    def test_no_slo_no_bus_is_baseline_identical(self, clean_frames):
        base = VipPipeline(
            PipelineConfig(detector_model="yolov8-n",
                           device="rtx4090"), seed=7
        ).run(clean_frames[:20])
        again = VipPipeline(
            PipelineConfig(detector_model="yolov8-n",
                           device="rtx4090"), seed=7
        ).run(clean_frames[:20])
        a, b = base.summary(), again.summary()
        ma, mb = a.pop("mttr_frames"), b.pop("mttr_frames")
        assert a == b
        assert ma == mb or (math.isnan(ma) and math.isnan(mb))
        assert base.slo_burn_frames == 0


class TestFleetTelemetry:
    def test_fleet_emits_per_drone_samples(self):
        cfg = FleetConfig(num_drones=3, duration_s=4.0)
        bus = TelemetryBus()
        with use_telemetry(bus):
            report = FleetScheduler(cfg).run(SchedulingPolicy.ADAPTIVE)
        drones = [d for d in bus.devices() if d.startswith("drone-")]
        assert drones == ["drone-00", "drone-01", "drone-02"]
        total = sum(bus.cumulative_sketch(d, "e2e").count
                    for d in drones)
        assert total == report.frames

    def test_injector_slowdown_spikes_latency(self):
        cfg = FleetConfig(num_drones=3, duration_s=4.0)
        total = cfg.num_drones * cfg.frames_per_drone
        spec = FaultSpec(FaultKind.THERMAL_THROTTLE,
                         start_frame=total // 2, magnitude=8.0)
        quiet = FleetScheduler(cfg).run(SchedulingPolicy.ADAPTIVE)
        spiked = FleetScheduler(cfg).run(
            SchedulingPolicy.ADAPTIVE, injector=FaultInjector((spec,)))
        assert spiked.mean_response_ms > quiet.mean_response_ms
        assert spiked.deadline_violations > quiet.deadline_violations

    def test_no_injector_no_bus_unchanged(self):
        cfg = FleetConfig(num_drones=3, duration_s=4.0)
        a = FleetScheduler(cfg).run(SchedulingPolicy.ADAPTIVE)
        b = FleetScheduler(cfg).run(SchedulingPolicy.ADAPTIVE,
                                    injector=None)
        assert a.summary() == b.summary()


class TestHistogramSatellites:
    def test_nonfinite_observations_dropped(self):
        reg = MetricsRegistry()
        h = reg.histogram("lat")
        for v in (math.inf, -math.inf, math.nan):
            h.observe(v)
        h.observe(5.0)
        assert h.count == 1 and h.dropped == 3
        snap = reg.snapshot()["lat"]
        assert snap["dropped"] == 3
        assert snap["min"] == snap["max"] == snap["p99"] == 5.0

    def test_configurable_quantiles(self):
        reg = MetricsRegistry()
        h = reg.histogram("lat")
        for v in range(100):
            h.observe(float(v))
        snap = h.snapshot((0.5, 0.9))
        assert "p50" in snap and "p90" in snap and "p95" not in snap
        default = reg.snapshot()["lat"]
        assert {"p50", "p95", "p99"} <= set(default)

    def test_bad_quantiles_rejected(self):
        h = MetricsRegistry().histogram("lat")
        h.observe(1.0)
        with pytest.raises(ConfigError):
            h.quantile(1.5)


PROBES_GOLDEN = os.path.join(
    os.path.dirname(os.path.abspath(__file__)), "golden",
    "bench_probes.json")


def _probe_snapshots() -> dict:
    """Sketch snapshots of ten deterministic probes, by probe name.

    * ``latency/*`` — 150 simulated frames at the paper grid's corners
      (smallest/largest variant on the weakest edge board and on the
      workstation GPU);
    * ``fleet/e2e@adaptive`` — the 8-drone adaptive fleet scheduler's
      end-to-end latency, read back through the telemetry bus;
    * ``serving/e2e@32x-full`` — one dynamic-batching server at 2x
      overload with predictive shedding (admitted requests);
    * ``serving/per_frame@b8`` — saturated full-batch execution time
      per frame, one observation per batch;
    * ``serving/chaos_e2e@2r`` and ``serving/failover_recovery@2r`` —
      two replicas through the canned crash/slowdown ladder;
    * ``fleet/merged_e2e@4c`` — the merged tail of the small
      cell-sharded fleet that ``repro profile``'s ``fleet_cells``
      probe runs.
    """
    suite = {}
    runtime = SimulatedRuntime()
    for model in ("yolov8-n", "yolov11-m"):
        for device in ("orin-nano", "rtx4090"):
            run = runtime.run(model, device, 150)
            suite[f"latency/{model}@{device}"] = \
                _sketch_of(run.samples_ms).snapshot()

    bus = TelemetryBus(record=False)
    with use_telemetry(bus):
        FleetScheduler(FleetConfig(num_drones=8, duration_s=5.0)).run(
            SchedulingPolicy.ADAPTIVE)
    suite["fleet/e2e@adaptive"] = Aggregator(bus).fleet_sketch(
        "e2e", 0.0, windowed=False).snapshot()

    shed = ClusterSimulator(ClusterConfig(
        replicas=(ReplicaSpec(model="yolov8-m", device="rtx4090"),),
        num_streams=32, admission="full", duration_s=5.0)).run()
    suite["serving/e2e@32x-full"] = \
        _sketch_of(shed.latencies_ms).snapshot()

    sim = ClusterSimulator(ClusterConfig(
        replicas=(ReplicaSpec(model="yolov8-m", device="rtx4090",
                              queue_capacity=512, max_batch=8),),
        num_streams=16, admission="none", duration_s=5.0))
    suite["serving/per_frame@b8"] = _sketch_of(
        sim.batch_latency_ms(0, b) / b
        for b in sim.run().batch_sizes).snapshot()

    chaos = ClusterSimulator(ClusterConfig(
        num_streams=16, duration_s=5.0, seed=7,
        faults=default_chaos_faults(5.0, 2))).run()
    suite["serving/chaos_e2e@2r"] = \
        _sketch_of(chaos.latencies_ms).snapshot()
    suite["serving/failover_recovery@2r"] = \
        _sketch_of(chaos.crash_recoveries_ms).snapshot()

    suite["fleet/merged_e2e@4c"] = FleetSimulator(
        profiler._fleet_sim_config()).run().sketch.snapshot()
    return suite


class TestProbePin:
    def test_probes_match_committed_golden(self):
        """Recapturing the ten probe snapshots reproduces the committed
        bytes: any change to a latency, serving or fleet number shows
        up here, with no tolerance."""
        with open(PROBES_GOLDEN, "rb") as fh:
            committed = fh.read()
        fresh = (dumps_json(_probe_snapshots()) + "\n").encode("utf-8")
        assert fresh == committed


class TestCliSurfaces:
    def test_trace_creates_traces_dir(self, tmp_path, monkeypatch,
                                      capsys):
        monkeypatch.chdir(tmp_path)
        assert main(["trace", "table2"]) == 0
        assert (tmp_path / "traces" / "table2_trace.json").exists()

    def test_trace_out_override(self, tmp_path, capsys):
        out = tmp_path / "deep" / "nested" / "t.json"
        assert main(["trace", "table2", "--out", str(out)]) == 0
        assert out.exists()

    def test_monitor_fleet_spike_burns(self, tmp_path, capsys):
        final = tmp_path / "final.txt"
        assert main(["monitor", "ablation_fleet", "--spike",
                     "--drones", "4", "--duration", "8",
                     "--out", str(final)]) == 0
        out = capsys.readouterr().out
        assert "BURNING" in out
        assert "degraded" in out
        assert "SLO burned on:" in out
        assert "fleet/e2e" in final.read_text()

    def test_monitor_fleet_clean_stays_nominal(self, capsys):
        assert main(["monitor", "ablation_fleet", "--drones", "4",
                     "--duration", "6"]) == 0
        out = capsys.readouterr().out
        assert "BURNING" not in out
        assert "nominal" in out

    def test_monitor_spike_rejected_off_fleet(self, capsys):
        assert main(["monitor", "table2", "--spike"]) == 2
