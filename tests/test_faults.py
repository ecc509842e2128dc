"""Fault injection, guarded execution, health ladder and the chaos
acceptance contract."""

import numpy as np
import pytest

from repro.core.alerts import Alert, AlertKind
from repro.core.pipeline import PipelineConfig, VipPipeline
from repro.dataset.builder import DatasetBuilder
from repro.errors import ConfigError, FaultError
from repro.faults import (FaultInjector, FaultKind, FaultSpec,
                          HealthConfig, HealthMonitor, HealthState,
                          ResilienceConfig, StageExecutor, StageStatus,
                          missed_alert_rate, scenario,
                          scenario_description, scenario_names)
from repro.latency.sampler import LatencyHooks, LatencySampler


class TestFaultSpec:
    def test_stage_kinds_require_stage(self):
        with pytest.raises(ConfigError):
            FaultSpec(FaultKind.STAGE_CRASH)
        with pytest.raises(ConfigError):
            FaultSpec(FaultKind.STAGE_HANG, stage="warp")
        FaultSpec(FaultKind.STAGE_CRASH, stage="detect")

    def test_non_stage_kinds_reject_stage(self):
        with pytest.raises(ConfigError):
            FaultSpec(FaultKind.SENSOR_DROPOUT, stage="detect")

    def test_probability_bounds(self):
        with pytest.raises(ConfigError):
            FaultSpec(FaultKind.SENSOR_DROPOUT, probability=0.0)
        with pytest.raises(ConfigError):
            FaultSpec(FaultKind.SENSOR_DROPOUT, probability=1.5)

    def test_window_bounds(self):
        with pytest.raises(ConfigError):
            FaultSpec(FaultKind.NETWORK_OUTAGE, start_frame=-1)
        with pytest.raises(ConfigError):
            FaultSpec(FaultKind.NETWORK_OUTAGE, start_frame=10,
                      end_frame=10)

    def test_magnitude_semantics(self):
        with pytest.raises(ConfigError):
            FaultSpec(FaultKind.FRAME_CORRUPTION, magnitude=1.5)
        with pytest.raises(ConfigError):
            FaultSpec(FaultKind.STAGE_HANG, stage="depth",
                      magnitude=0.5)
        with pytest.raises(ConfigError):
            FaultSpec(FaultKind.THERMAL_THROTTLE, magnitude=0.9)

    def test_active_window(self):
        spec = FaultSpec(FaultKind.NETWORK_OUTAGE, start_frame=5,
                         end_frame=8)
        assert [spec.active(i, 20) for i in range(4, 9)] == \
            [False, True, True, True, False]
        open_ended = FaultSpec(FaultKind.THERMAL_THROTTLE,
                               start_frame=5, magnitude=2.0)
        assert open_ended.active(19, 20)

    def test_label_stability(self):
        assert FaultSpec(FaultKind.STAGE_CRASH,
                         stage="pose").label == "stage_crash:pose"
        assert FaultSpec(FaultKind.SENSOR_DROPOUT).label == \
            "sensor_dropout"


class TestFaultInjector:
    def test_requires_prepare(self):
        inj = FaultInjector((FaultSpec(FaultKind.SENSOR_DROPOUT,
                                       probability=0.5),))
        with pytest.raises(FaultError):
            inj.frame_dropped(0)

    def test_frame_index_bounds(self):
        inj = FaultInjector(()).prepare(10)
        with pytest.raises(FaultError):
            inj.link_down(10)

    def test_seeded_reproducibility(self):
        specs = (FaultSpec(FaultKind.SENSOR_DROPOUT, probability=0.3),
                 FaultSpec(FaultKind.STAGE_CRASH, stage="detect",
                           probability=0.2))
        a = FaultInjector(specs, seed=13).prepare(200)
        b = FaultInjector(specs, seed=13).prepare(200)
        assert [a.frame_dropped(i) for i in range(200)] == \
            [b.frame_dropped(i) for i in range(200)]
        assert [a.stage_crash("detect", i) for i in range(200)] == \
            [b.stage_crash("detect", i) for i in range(200)]
        assert a.injected == b.injected

    def test_seed_changes_stream(self):
        specs = (FaultSpec(FaultKind.SENSOR_DROPOUT, probability=0.3),)
        a = FaultInjector(specs, seed=1).prepare(300)
        b = FaultInjector(specs, seed=2).prepare(300)
        assert [a.frame_dropped(i) for i in range(300)] != \
            [b.frame_dropped(i) for i in range(300)]

    def test_query_order_does_not_perturb(self):
        specs = (FaultSpec(FaultKind.SENSOR_DROPOUT, probability=0.4),
                 FaultSpec(FaultKind.STAGE_HANG, stage="depth",
                           probability=0.4, magnitude=5.0))
        a = FaultInjector(specs, seed=7).prepare(50)
        b = FaultInjector(specs, seed=7).prepare(50)
        # Query b backwards and interleaved; decisions must match a's.
        backwards = [(b.hang_factor("depth", i), b.frame_dropped(i))
                     for i in reversed(range(50))][::-1]
        forwards = [(a.hang_factor("depth", i), a.frame_dropped(i))
                    for i in range(50)]
        assert backwards == forwards

    def test_window_gating(self):
        inj = FaultInjector((FaultSpec(FaultKind.NETWORK_OUTAGE,
                                       start_frame=10, end_frame=20),),
                            seed=7).prepare(40)
        assert not inj.link_down(9)
        assert all(inj.link_down(i) for i in range(10, 20))
        assert not inj.link_down(20)

    def test_battery_sag_ramps(self):
        inj = FaultInjector((FaultSpec(FaultKind.BATTERY_SAG,
                                       start_frame=0, magnitude=3.0),),
                            seed=7).prepare(101)
        assert inj.slowdown(0) == pytest.approx(1.0)
        assert inj.slowdown(50) == pytest.approx(2.0)
        assert inj.slowdown(100) == pytest.approx(3.0)
        # Monotone non-decreasing along the ramp.
        samples = [inj.slowdown(i) for i in range(101)]
        assert all(x <= y for x, y in zip(samples, samples[1:]))

    def test_injected_counters(self):
        inj = FaultInjector((FaultSpec(FaultKind.SENSOR_DROPOUT,
                                       start_frame=5, end_frame=10),),
                            seed=7).prepare(40)
        assert inj.injected == {"sensor_dropout": 5}

    def test_apply_to_frame_functional(self, chaos_frames):
        frame = chaos_frames[0]
        inj = FaultInjector((FaultSpec(FaultKind.FRAME_CORRUPTION,
                                       magnitude=0.8),),
                            seed=7).prepare(10)
        seen = inj.apply_to_frame(frame, 0)
        assert seen is not frame
        assert frame.applied_corruptions == tuple(
            t for t in seen.applied_corruptions
            if not t.startswith("chaos:"))
        assert any(t == "chaos:corrupt:0.8"
                   for t in seen.applied_corruptions)
        assert not np.array_equal(seen.image, frame.image)

    def test_dropout_blanks_everything(self, chaos_frames):
        frame = chaos_frames[0]
        inj = FaultInjector((FaultSpec(FaultKind.SENSOR_DROPOUT),),
                            seed=7).prepare(10)
        seen = inj.apply_to_frame(frame, 0)
        assert not seen.vest_boxes and not seen.object_boxes
        assert float(seen.image.max()) == 0.0
        assert np.isinf(seen.depth).all()
        assert "chaos:dropout" in seen.applied_corruptions


class TestScenarios:
    def test_registry_complete(self):
        names = scenario_names()
        assert len(names) >= 8
        assert names == sorted(names)
        for name in names:
            specs = scenario(name)
            assert specs and all(isinstance(s, FaultSpec)
                                 for s in specs)
            assert scenario_description(name)

    def test_unknown_scenario(self):
        with pytest.raises(ConfigError):
            scenario("kraken_attack")


class TestHealthMonitor:
    def test_single_blip_enters_degraded_and_recovers(self):
        mon = HealthMonitor(HealthConfig(recover_dwell=3))
        rec = mon.observe(0, degraded=True, critical=False)
        assert rec["to"] == "degraded"
        assert mon.observe(1, False, False) is None   # dwell 1
        assert mon.observe(2, False, False) is None   # dwell 2
        rec = mon.observe(3, False, False)            # dwell 3: recover
        assert rec["to"] == "nominal"
        assert mon.recovery_frames == [3]
        assert mon.mttr_frames == pytest.approx(3.0)

    def test_safe_stop_needs_sustained_critical(self):
        mon = HealthMonitor(HealthConfig(safe_stop_after=3))
        mon.observe(0, True, True)
        mon.observe(1, True, True)
        assert mon.state is HealthState.DEGRADED
        rec = mon.observe(2, True, True)
        assert rec["to"] == "safe_stop"

    def test_critical_streak_broken_by_clean_frame(self):
        mon = HealthMonitor(HealthConfig(safe_stop_after=3))
        mon.observe(0, True, True)
        mon.observe(1, True, True)
        mon.observe(2, False, False)    # streak resets
        mon.observe(3, True, True)
        mon.observe(4, True, True)
        assert mon.state is HealthState.DEGRADED

    def test_recovery_steps_down_one_level(self):
        mon = HealthMonitor(HealthConfig(safe_stop_after=2,
                                         recover_dwell=2))
        mon.observe(0, True, True)
        mon.observe(1, True, True)      # -> SAFE_STOP
        assert mon.state is HealthState.SAFE_STOP
        mon.observe(2, False, False)
        rec = mon.observe(3, False, False)
        assert rec["to"] == "degraded"  # never SAFE_STOP -> NOMINAL
        rec = mon.observe(4, False, False)
        assert rec["to"] == "nominal"   # one more dwelled frame
        assert mon.recovery_frames == [4]

    def test_idle_ticks_accumulate_state_time(self):
        mon = HealthMonitor()
        mon.observe(0, True, False)
        for _ in range(4):
            mon.idle_tick()
        assert mon.frames_in_state["degraded"] == 5

    def test_config_validation(self):
        with pytest.raises(ConfigError):
            HealthConfig(safe_stop_after=0)


class TestStageExecutor:
    PERIOD = 100.0

    def _executor(self, specs=(), seed=7, n=50, **overrides):
        inj = FaultInjector(specs, seed=seed).prepare(n) if specs \
            else None
        res = ResilienceConfig(**overrides)
        return StageExecutor(res, inj, self.PERIOD), inj

    def test_clean_run_charges_base_cost(self):
        ex, _ = self._executor()
        out = ex.run("detect", 0, 20.0, lambda: "boxes")
        assert out.status is StageStatus.OK
        assert out.value == "boxes"
        assert out.cost_ms == pytest.approx(20.0)

    def test_watchdog_kills_hang_at_adaptive_timeout(self):
        specs = (FaultSpec(FaultKind.STAGE_HANG, stage="detect",
                           start_frame=5, end_frame=6,
                           magnitude=20.0),)
        ex, _ = self._executor(specs)
        for i in range(5):
            assert ex.run("detect", i, 20.0,
                          lambda: 1).status is StageStatus.OK
        out = ex.run("detect", 5, 20.0, lambda: 1)
        assert out.status is StageStatus.TIMED_OUT
        # Charged the timeout (2.5 × ~20ms baseline, above the 50ms
        # floor), never the full 400ms hang.
        assert out.cost_ms < 20.0 * 20.0
        assert out.cost_ms == pytest.approx(ex.timeout_ms("detect",
                                                          20.0))

    def test_nominally_slow_stage_never_times_out(self):
        # YOLOv8-x on a Xavier NX: ~989 ms every frame.  The adaptive
        # baseline makes that the norm, so the watchdog stays quiet.
        ex, _ = self._executor()
        for i in range(10):
            out = ex.run("detect", i, 989.0, lambda: 1)
            assert out.status is StageStatus.OK
            assert out.cost_ms == pytest.approx(989.0)

    def test_retry_recovers_transient_crash(self):
        specs = (FaultSpec(FaultKind.STAGE_CRASH, stage="pose",
                           start_frame=0, end_frame=1),)
        ex, _ = self._executor(specs, crash_persistence=0.0)
        out = ex.run("pose", 0, 30.0, lambda: "kp")
        assert out.status is StageStatus.OK
        assert out.attempts == 2
        # One failed attempt at half cost + one success.
        assert out.cost_ms == pytest.approx(45.0)

    def test_sticky_crash_exhausts_retries(self):
        specs = (FaultSpec(FaultKind.STAGE_CRASH, stage="pose",
                           start_frame=0, end_frame=1),)
        ex, _ = self._executor(specs, crash_persistence=1.0)
        out = ex.run("pose", 0, 30.0, lambda: "kp")
        assert out.status is StageStatus.CRASHED
        assert out.attempts == 2

    def test_real_exception_treated_as_crash(self):
        ex, _ = self._executor(max_retries=0)
        def boom():
            raise RuntimeError("driver reset")
        out = ex.run("depth", 0, 10.0, boom)
        assert out.status is StageStatus.CRASHED

    def test_unhardened_crash_raises(self):
        specs = (FaultSpec(FaultKind.STAGE_CRASH, stage="detect",
                           start_frame=0, end_frame=1),)
        ex, _ = self._executor(specs, enabled=False)
        with pytest.raises(FaultError):
            ex.run("detect", 0, 20.0, lambda: 1)

    def test_unhardened_pays_hang_in_full(self):
        specs = (FaultSpec(FaultKind.STAGE_HANG, stage="detect",
                           start_frame=0, end_frame=1,
                           magnitude=12.0),)
        ex, _ = self._executor(specs, enabled=False)
        out = ex.run("detect", 0, 20.0, lambda: 1)
        assert out.cost_ms == pytest.approx(240.0)

    def test_config_validation(self):
        with pytest.raises(ConfigError):
            ResilienceConfig(crash_persistence=1.5)


class TestLatencyHooks:
    def test_hooks_compose_factor_and_extra(self):
        hooks = LatencyHooks(factor=lambda i: 2.0,
                             extra_ms=lambda i: 5.0)
        out = hooks.apply(np.array([10.0, 20.0]))
        assert out.tolist() == [25.0, 45.0]

    def test_invalid_hooks_rejected(self):
        from repro.errors import CalibrationError
        with pytest.raises(CalibrationError):
            LatencyHooks(factor=lambda i: 0.0).apply(np.ones(3))
        with pytest.raises(CalibrationError):
            LatencyHooks(extra_ms=lambda i: -1.0).apply(np.ones(3))

    def test_sampler_without_hooks_bit_identical(self):
        sampler = LatencySampler(seed=7)
        a = sampler.sample("yolov8-n", "orin-agx", 40)
        b = sampler.sample("yolov8-n", "orin-agx", 40, hooks=None)
        assert np.array_equal(a, b)

    def test_sampler_applies_injector_hooks(self):
        sampler = LatencySampler(seed=7)
        base = sampler.sample("yolov8-n", "orin-agx", 40)
        inj = FaultInjector(
            (FaultSpec(FaultKind.THERMAL_THROTTLE, start_frame=20,
                       magnitude=2.0),), seed=7).prepare(40)
        hot = sampler.sample("yolov8-n", "orin-agx", 40,
                             hooks=inj.as_latency_hooks())
        assert np.array_equal(hot[:20], base[:20])
        assert np.allclose(hot[20:], 2.0 * base[20:])


class TestMissedAlertRate:
    def _alert(self, kind, frame):
        return Alert(kind=kind, frame_index=frame, message="m")

    def test_empty_reference_is_zero(self):
        assert missed_alert_rate([], [self._alert(
            AlertKind.FALL, 3)]) == 0.0

    def test_matching_within_tolerance(self):
        ref = [self._alert(AlertKind.FALL, 10)]
        obs = [self._alert(AlertKind.FALL, 18)]
        assert missed_alert_rate(ref, obs, tolerance_frames=12) == 0.0
        assert missed_alert_rate(ref, obs, tolerance_frames=5) == 1.0

    def test_kind_must_match(self):
        ref = [self._alert(AlertKind.FALL, 10)]
        obs = [self._alert(AlertKind.OBSTACLE, 10)]
        assert missed_alert_rate(ref, obs) == 1.0

    def test_health_chatter_excluded(self):
        ref = [self._alert(AlertKind.DEGRADED, 10)]
        assert missed_alert_rate(ref, []) == 0.0


@pytest.fixture(scope="module")
def chaos_frames():
    builder = DatasetBuilder(seed=7, image_size=64)
    index = builder.build_scaled(0.005)
    return builder.render_records(index.records[:140])


class TestPipelineUnderFaults:
    """The acceptance contract: the degradation ladder, end to end."""

    CONFIG = PipelineConfig(detector_model="yolov8-n",
                            device="orin-agx")

    def _run(self, frames, specs, seed=7, config=None, **res):
        config = config or self.CONFIG
        resilience = ResilienceConfig(**res) if res else None
        return VipPipeline(
            config, seed=seed,
            injector=FaultInjector(specs, seed=seed),
            resilience=resilience).run(frames)

    def test_clean_run_reports_no_fault_bookkeeping(self, chaos_frames):
        report = VipPipeline(self.CONFIG, seed=7).run(chaos_frames)
        assert report.safe_stop_frames == 0
        assert report.stage_failures == {}
        assert report.availability > 0.95

    def test_hardened_holds_floor_every_scenario(self, chaos_frames):
        for name in scenario_names():
            if name == "network_blackout":
                continue  # needs the off-board placement, below
            report = self._run(chaos_frames, scenario(name))
            assert report.availability >= 0.9, name
            kinds = {a.kind for a in report.alerts}
            assert report.fallback_count > 0, name
            assert kinds & {AlertKind.DEGRADED,
                            AlertKind.SAFE_STOP}, name

    def test_unhardened_crashes_or_stalls_every_scenario(
            self, chaos_frames):
        for name in scenario_names():
            if name == "network_blackout":
                continue
            try:
                report = self._run(chaos_frames, scenario(name),
                                   enabled=False)
            except FaultError:
                continue
            assert report.availability < 0.9, name

    def test_network_outage_offboard_contrast(self, chaos_frames):
        config = PipelineConfig(detector_model="yolov8-n",
                                device="rtx4090", offboard=True,
                                network_rtt_ms=25.0)
        specs = scenario("network_blackout")
        hard = self._run(chaos_frames, specs, config=config)
        assert hard.availability >= 0.9
        with pytest.raises(FaultError):
            self._run(chaos_frames, specs, config=config,
                      enabled=False)

    def test_blackout_walks_full_ladder(self, chaos_frames):
        report = self._run(chaos_frames,
                           scenario("gps_denied_blackout"))
        states = [(t["from"], t["to"])
                  for t in report.health_transitions]
        assert ("nominal", "degraded") in states
        assert ("degraded", "safe_stop") in states
        assert ("safe_stop", "degraded") in states   # steps down
        assert report.safe_stop_frames > 0
        assert report.mttr_frames == report.mttr_frames  # finite
        kinds = {a.kind for a in report.alerts}
        assert AlertKind.SAFE_STOP in kinds

    def test_chaos_run_bit_reproducible(self, chaos_frames):
        a = self._run(chaos_frames, scenario("rough_flight"))
        b = self._run(chaos_frames, scenario("rough_flight"))
        assert a.summary() == b.summary()
        assert [(x.kind, x.frame_index) for x in a.alerts] == \
            [(x.kind, x.frame_index) for x in b.alerts]

    def test_clean_run_unchanged_by_empty_injector(self, chaos_frames):
        bare = VipPipeline(self.CONFIG, seed=7).run(chaos_frames)
        wired = self._run(chaos_frames, ())
        assert bare.summary() == wired.summary()

    def test_depth_failure_keeps_obstacle_alerts(self, chaos_frames):
        # Kill the depth stage outright: bbox ranging must keep the
        # obstacle channel alive (degraded, not silent).
        specs = (FaultSpec(FaultKind.STAGE_CRASH, stage="depth",
                           probability=1.0),)
        report = self._run(chaos_frames, specs)
        assert report.fallback_activations.get("depth:bbox_range",
                                               0) > 0
        reference = VipPipeline(self.CONFIG, seed=7).run(chaos_frames)
        assert missed_alert_rate(reference.alerts,
                                 report.alerts) < 0.5

    def test_offboard_config_validation(self):
        with pytest.raises(Exception):
            PipelineConfig(offboard=True)           # needs RTT
        with pytest.raises(Exception):
            PipelineConfig(network_rtt_ms=10.0)     # needs offboard
