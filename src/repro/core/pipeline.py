"""End-to-end VIP assistance pipeline simulation.

Composes everything the paper's system needs per frame: vest detection →
VIP tracking → pose / fall classification → depth-based obstacle ranging
→ alerts, with a *timing model*: frames arrive at the extraction rate
(10 FPS, §2) and each stage costs its device latency.  When a frame's
total processing exceeds the inter-frame period the pipeline drops
incoming frames (the drone cannot buffer live guidance), so the report's
drop rate and end-to-end lag directly express whether a model/device
pair is real-time feasible — the question §4.2.3/4 answer.

Perception is pluggable: by default an *oracle-with-noise* perceptor
driven by renderer ground truth and the accuracy surrogate's error rate
(fast, deterministic); examples plug in actually-trained mini models.

The loop is hardened against runtime faults (:mod:`repro.faults`):
every stage runs under a guarded executor (watchdog budget, bounded
retries), failures engage a fallback ladder — detector loss → Kalman
coast, depth loss → bbox-size ranging, pose loss → fall check skipped —
and a health state machine (NOMINAL → DEGRADED → SAFE_STOP) converts
fault pressure into explicit DEGRADED / SAFE_STOP alerts instead of
silence.  ``ResilienceConfig(enabled=False)`` reproduces the naive
loop for A/B chaos comparisons.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence

import numpy as np

from ..config import EXTRACTION_FPS
from ..errors import BenchmarkError
from ..faults.guard import ResilienceConfig, StageExecutor
from ..faults.health import HealthMonitor, HealthState
from ..faults.injector import (DROPOUT_TAG, FaultInjector,
                               corruption_severity_from_tags)
from ..geometry.bbox import BBox
from ..latency.sampler import LatencySampler
from ..obs import (SloPolicy, SloTracker, TelemetryBus, Tracer,
                   current_telemetry, current_tracer)
from ..rng import coerce_rng
from ..train.surrogate import AccuracySurrogate, SurrogateQuery
from ..units import fps_to_period_ms
from .alerts import Alert, AlertKind, AlertPolicy, obstacle_distance
from .kalman import KalmanTracker
from .range_estimation import range_from_box_height
from .tracker import IoUTracker

#: Perceptor signature: frame → detected vest boxes.
Perceptor = Callable[[object], List[BBox]]

#: Frames the Kalman tracker may coast without a detection before the
#: track (and with it, guidance) is abandoned.
COAST_MAX_MISSES = 32
#: Load shedding: when a hardened frame overruns its period, skip
#: pose/depth for this many frames, then probe again.
SHED_DWELL_FRAMES = 10


@dataclass(frozen=True)
class PipelineConfig:
    """Pipeline composition and timing."""

    detector_model: str = "yolov8-n"
    device: str = "orin-nano"
    frame_rate: float = float(EXTRACTION_FPS)
    run_pose: bool = True
    run_depth: bool = True
    #: Pose/depth run on every k-th processed frame (stage scheduling —
    #: the situational models need not run at full rate).  The phase
    #: offsets stagger the two heavy stages onto different frames so one
    #: frame never pays for both (keeps worst-case frame time bounded).
    pose_every: int = 2
    depth_every: int = 2
    pose_phase: int = 0
    depth_phase: int = 1
    #: Tracker choice: "kalman" (predicts through detection gaps; the
    #: coast fallback needs it) or "iou" (constant-position greedy
    #: association).  ``None`` resolves to "kalman" when hardened and
    #: "iou" for the unhardened baseline.
    tracker: Optional[str] = None
    #: Detector placed off-board: every frame pays the network RTT and
    #: the link can drop (NETWORK_OUTAGE faults).
    offboard: bool = False
    network_rtt_ms: float = 0.0

    def __post_init__(self) -> None:
        if self.pose_phase < 0 or self.depth_phase < 0:
            raise BenchmarkError("stage phases must be non-negative")
        if self.frame_rate <= 0:
            raise BenchmarkError("frame_rate must be positive")
        if self.pose_every < 1 or self.depth_every < 1:
            raise BenchmarkError("stage periods must be >= 1")
        if self.tracker not in (None, "kalman", "iou"):
            raise BenchmarkError(
                f"unknown tracker {self.tracker!r}; use 'kalman'/'iou'")
        if self.offboard and self.network_rtt_ms <= 0:
            raise BenchmarkError(
                "off-board placement needs a positive network RTT")
        if not self.offboard and self.network_rtt_ms != 0.0:
            raise BenchmarkError("network RTT only applies off-board")


@dataclass
class PipelineReport:
    """What a pipeline run produced."""

    frames_offered: int = 0
    frames_processed: int = 0
    frames_dropped: int = 0
    detections: int = 0
    missed_detections: int = 0
    alerts: List[Alert] = field(default_factory=list)
    per_frame_latency_ms: List[float] = field(default_factory=list)
    track_switches: int = 0
    # -- resilience accounting (all zero/empty on clean runs) -----------
    retries: int = 0
    stage_failures: Dict[str, int] = field(default_factory=dict)
    fallback_activations: Dict[str, int] = field(default_factory=dict)
    health_transitions: List[Dict] = field(default_factory=list)
    frames_by_state: Dict[str, int] = field(default_factory=dict)
    available_frames: int = 0
    recovery_frames: List[int] = field(default_factory=list)
    injected_faults: Dict[str, int] = field(default_factory=dict)
    #: Frames processed while an SLO objective was burning (0 unless
    #: the pipeline runs with an SloPolicy).
    slo_burn_frames: int = 0

    @property
    def drop_rate(self) -> float:
        if self.frames_offered == 0:
            raise BenchmarkError("empty pipeline run")
        return self.frames_dropped / self.frames_offered

    @property
    def detection_rate(self) -> float:
        total = self.detections + self.missed_detections
        return self.detections / total if total else 1.0

    @property
    def mean_latency_ms(self) -> float:
        if not self.per_frame_latency_ms:
            raise BenchmarkError("no processed frames")
        return float(np.mean(self.per_frame_latency_ms))

    @property
    def realtime(self) -> bool:
        """Processed every offered frame within budget."""
        return self.frames_dropped == 0

    @property
    def availability(self) -> float:
        """Fraction of offered frames with fresh, usable guidance
        (processed, not SAFE_STOP, not critically failed)."""
        if self.frames_offered == 0:
            return float("nan")
        return self.available_frames / self.frames_offered

    @property
    def degraded_frames(self) -> int:
        return self.frames_by_state.get(HealthState.DEGRADED.value, 0)

    @property
    def safe_stop_frames(self) -> int:
        return self.frames_by_state.get(HealthState.SAFE_STOP.value, 0)

    @property
    def mttr_frames(self) -> float:
        """Mean frames to recover NOMINAL after leaving it (NaN when
        the run never recovered)."""
        if not self.recovery_frames:
            return float("nan")
        return float(np.mean(self.recovery_frames))

    @property
    def fallback_count(self) -> int:
        return sum(self.fallback_activations.values())

    def summary(self) -> dict:
        """Total summary: safe on empty and all-dropped runs."""
        offered = self.frames_offered
        return {
            "offered": offered,
            "processed": self.frames_processed,
            "dropped": self.frames_dropped,
            "drop_rate": self.frames_dropped / offered
            if offered else 0.0,
            "detection_rate": self.detection_rate,
            "mean_latency_ms": self.mean_latency_ms
            if self.per_frame_latency_ms else float("nan"),
            "alerts": len(self.alerts),
            "availability": self.availability,
            "degraded_frames": self.degraded_frames,
            "safe_stop_frames": self.safe_stop_frames,
            "mttr_frames": self.mttr_frames,
            "fallbacks": dict(self.fallback_activations),
            "stage_failures": dict(self.stage_failures),
            "retries": self.retries,
            "slo_burn_frames": self.slo_burn_frames,
        }

    def _bump(self, counter: Dict[str, int], key: str) -> None:
        counter[key] = counter.get(key, 0) + 1


class _OraclePerceptor:
    """Ground-truth detector with surrogate-calibrated miss rate.

    Corruption-aware: on frames tagged by the fault injector the
    detection probability degrades toward the model's *adversarial*
    accuracy, so larger (more robust) detectors tolerate corrupted
    input measurably better — the paper's adversarial-stratum effect.
    """

    def __init__(self, model: str, seed: int,
                 stream: Optional[str] = None) -> None:
        surrogate = AccuracySurrogate()
        self._p_detect = surrogate.expected_accuracy(
            SurrogateQuery(model, "diverse"))
        self._p_adversarial = surrogate.expected_accuracy(
            SurrogateQuery(model, "adversarial"))
        # ``stream`` decouples the draw sequence from the model name:
        # sweeps that compare models under identical conditions pass a
        # shared stream (common random numbers), so a higher per-frame
        # detection probability implies a superset of detections.
        self._rng = coerce_rng(seed, "pipeline-perceptor",
                               stream if stream is not None else model)

    def __call__(self, frame) -> List[BBox]:
        if not frame.vest_boxes:
            return []
        p = self._p_detect
        severity = corruption_severity_from_tags(
            frame.applied_corruptions)
        if severity > 0.0:
            p *= 1.0 - severity * (1.0 - self._p_adversarial)
        if self._rng.random() > p:
            return []
        return list(frame.vest_boxes)


class VipPipeline:
    """Runs the detect→track→pose→depth→alert loop over frames."""

    def __init__(self, config: PipelineConfig = PipelineConfig(),
                 perceptor: Optional[Perceptor] = None,
                 seed: int = 7,
                 injector: Optional[FaultInjector] = None,
                 resilience: Optional[ResilienceConfig] = None,
                 tracer: Optional[Tracer] = None,
                 slo: Optional[SloPolicy] = None) -> None:
        self.config = config
        #: None means "resolve the ambient tracer at run() time", so a
        #: pipeline built outside ``use_tracer(...)`` still traces when
        #: run inside it.  The default ambient tracer is the no-op.
        self._tracer = tracer
        #: Optional SLO policy: burn-rate state feeds the health
        #: monitor, so sustained latency-budget burn drives
        #: NOMINAL → DEGRADED even without stage faults.
        self.slo = slo
        self.seed = seed
        self.perceptor = perceptor if perceptor is not None \
            else _OraclePerceptor(config.detector_model, seed)
        self.resilience = resilience if resilience is not None \
            else ResilienceConfig()
        self.injector = injector
        tracker_kind = config.tracker or (
            "kalman" if self.resilience.enabled else "iou")
        if tracker_kind == "kalman":
            self.tracker = KalmanTracker(max_misses=COAST_MAX_MISSES)
        else:
            self.tracker = IoUTracker()
        self.alert_policy = AlertPolicy()
        self._sampler = LatencySampler(seed=seed)

    def _stage_latencies(self, n_frames: int) -> dict:
        cfg = self.config
        lat = {"detect": self._sampler.sample(
            cfg.detector_model, cfg.device, n_frames)}
        if cfg.run_pose:
            lat["pose"] = self._sampler.sample(
                "trt_pose", cfg.device, n_frames)
        if cfg.run_depth:
            lat["depth"] = self._sampler.sample(
                "monodepth2", cfg.device, n_frames)
        return lat

    # -- stage payloads ------------------------------------------------------

    def _nearest_from_depth(self, frame) -> Optional[float]:
        """Nominal obstacle ranging: depth-map median per object box."""
        nearest = None
        for obox in frame.object_boxes:
            d = obstacle_distance(frame.depth, obox)
            if not np.isfinite(d):
                continue
            if nearest is None or d < nearest:
                nearest = d
        return nearest

    def _nearest_from_boxes(self, frame) -> Optional[float]:
        """Fallback obstacle ranging from detection geometry alone
        (pinhole inverse on box height) when the depth stage is out."""
        image_h = frame.image.shape[0]
        nearest = None
        for obox in frame.object_boxes:
            try:
                d = range_from_box_height(
                    obox, image_h, focal=frame.spec.camera.focal,
                    box_is_vest=False)
            except BenchmarkError:
                continue
            if nearest is None or d < nearest:
                nearest = d
        return nearest

    # -- the loop ------------------------------------------------------------

    def _note_fallback(self, report: PipelineReport, tracer: Tracer,
                       kind: str) -> None:
        """Count a fallback activation and attach it to the trace."""
        report._bump(report.fallback_activations, kind)
        tracer.event("fallback", kind=kind)
        tracer.metrics.counter("pipeline.fallbacks").inc()

    def run(self, frames: Sequence) -> PipelineReport:
        """Process rendered frames arriving at the configured rate."""
        if not frames:
            raise BenchmarkError("no frames for pipeline run")
        tracer = self._tracer if self._tracer is not None \
            else current_tracer()
        cfg = self.config
        with tracer.span("pipeline.run", model=cfg.detector_model,
                         device=cfg.device,
                         n_frames=len(frames)) as root:
            report = self._run_loop(frames, tracer)
            root.set_attr("frames_processed", report.frames_processed)
            root.set_attr("frames_dropped", report.frames_dropped)
        return report

    def _run_loop(self, frames: Sequence,
                  tracer: Tracer) -> PipelineReport:
        cfg = self.config
        res = self.resilience
        period = fps_to_period_ms(cfg.frame_rate)
        inj = self.injector
        if inj is not None:
            inj.prepare(len(frames))
        lat = self._stage_latencies(len(frames))
        executor = StageExecutor(res, inj, period,
                                 offboard=cfg.offboard, tracer=tracer)
        health = HealthMonitor()
        report = PipelineReport()
        busy_until = 0.0
        prev_track_id: Optional[int] = None
        processed_i = 0
        shed_until = -1
        bus = current_telemetry()
        slo_tracker = SloTracker(self.slo) if self.slo is not None \
            else None
        metrics = tracer.metrics
        frame_latency_hist = metrics.histogram(
            "pipeline.frame_latency_ms")
        dropped_counter = metrics.counter("pipeline.frames_dropped")
        processed_counter = metrics.counter("pipeline.frames_processed")
        alert_counter = metrics.counter("pipeline.alerts")

        for i, frame in enumerate(frames):
            arrival = i * period
            arrival_s = arrival / 1000.0
            report.frames_offered += 1
            if arrival < busy_until:
                report.frames_dropped += 1
                dropped_counter.inc()
                health.idle_tick()       # no fresh guidance this frame
                if slo_tracker is not None:
                    # A dropped frame is stale guidance: an
                    # availability bad event on the SLO clock.
                    slo_tracker.record_available(False, arrival_s)
                continue

            shedding = res.enabled and i <= shed_until
            if tracer.enabled:
                with tracer.span("frame", index=i) as frame_span:
                    total_ms, prev_track_id = self._process_frame(
                        frame, i, processed_i, lat, executor, health,
                        report, tracer, prev_track_id, shedding,
                        arrival_s, bus, slo_tracker)
                    frame_span.set_attr("latency_ms", total_ms)
            else:
                total_ms, prev_track_id = self._process_frame(
                    frame, i, processed_i, lat, executor, health,
                    report, tracer, prev_track_id, shedding,
                    arrival_s, bus, slo_tracker)
            frame_latency_hist.observe(total_ms)
            processed_counter.inc()
            busy_until = arrival + total_ms
            processed_i += 1
            if res.enabled and total_ms > period:
                shed_until = i + SHED_DWELL_FRAMES
                tracer.event("load_shed_enter", frame=i,
                             until=shed_until)

        alert_counter.inc(len(report.alerts))
        report.frames_by_state = dict(health.frames_in_state)
        report.recovery_frames = list(health.recovery_frames)
        if inj is not None:
            report.injected_faults = dict(inj.injected)
        return report

    def _process_frame(self, frame, i: int, processed_i: int,
                       lat: dict, executor: StageExecutor,
                       health: HealthMonitor, report: PipelineReport,
                       tracer: Tracer, prev_track_id: Optional[int],
                       shedding: bool, arrival_s: float,
                       bus: TelemetryBus,
                       slo_tracker: Optional[SloTracker]):
        """One processed frame: detect → track → pose → depth → alert.

        Returns ``(total_ms, prev_track_id)``; every stage runs inside
        its own span, so guard events (retries, watchdog kills) attach
        to the stage that suffered them.  Stage and end-to-end costs
        are emitted on the ambient telemetry bus (device-tagged, on the
        simulated clock), and when an SLO tracker is wired in, its
        burn-rate verdict counts as degradation evidence for the
        health monitor.
        """
        cfg = self.config
        res = self.resilience
        inj = self.injector
        # The disabled-tracer path skips span creation entirely at each
        # stage site: the null objects are cheap but not free, and the
        # latency benches hold this loop to < 2% instrumentation cost.
        traced = tracer.enabled
        seen = inj.apply_to_frame(frame, i) if inj is not None \
            else frame
        sensor_out = DROPOUT_TAG in seen.applied_corruptions
        degraded = False
        critical = False

        # -- detect stage (guarded) --------------------------------
        detect_cost = float(lat["detect"][processed_i])
        if cfg.offboard:
            detect_cost += cfg.network_rtt_ms
        if traced:
            with tracer.span("detect", frame=i) as sp:
                out = executor.run("detect", i, detect_cost,
                                   lambda: list(self.perceptor(seen)))
                sp.set_attr("status", out.status.value)
                sp.set_attr("cost_ms", out.cost_ms)
        else:
            out = executor.run("detect", i, detect_cost,
                               lambda: list(self.perceptor(seen)))
        total_ms = out.cost_ms
        report.retries += out.attempts - 1
        if bus.enabled:
            bus.emit(cfg.device, "detect", out.cost_ms, arrival_s)

        has_truth = bool(frame.vest_boxes)
        if out.status.failed:
            report._bump(report.stage_failures, "detect")
            boxes: Optional[List[BBox]] = None
        else:
            boxes = out.value
            if boxes and has_truth:
                report.detections += 1
            elif has_truth:
                report.missed_detections += 1

        # Track update; a failed detect stage coasts the tracker
        # through the gap (Kalman predicts, IoU merely ages).
        def track_stage():
            nonlocal degraded, critical, prev_track_id
            self.tracker.update(boxes if boxes is not None else [])
            primary = self.tracker.primary_track()
            if boxes is None:
                degraded = True
                critical = primary is None
                self._note_fallback(report, tracer, "detect:kalman_coast")
            if sensor_out:
                degraded = True
                critical = critical or primary is None
                self._note_fallback(report, tracer, "sensor:kalman_coast")

            if primary is not None and prev_track_id is not None \
                    and primary.track_id != prev_track_id:
                report.track_switches += 1
            if primary is not None:
                prev_track_id = primary.track_id

            # VIP-lost alert from tracker state.
            lost = primary is None
            alert = self.alert_policy.observe(
                AlertKind.VIP_LOST, lost, i,
                "VIP lost — re-acquiring")
            if alert:
                report.alerts.append(alert)

        if traced:
            with tracer.span("track", frame=i):
                track_stage()
        else:
            track_stage()

        # -- pose stage: fall detection (guarded) ------------------
        pose_due = cfg.run_pose and \
            processed_i % cfg.pose_every == \
            cfg.pose_phase % cfg.pose_every
        if pose_due and shedding:
            self._note_fallback(report, tracer, "load_shed:pose")
            degraded = True
        elif pose_due:
            def pose_fn():
                # A blanked frame yields a silent "no fall" — the
                # dangerous failure mode DEGRADED alerts surface.
                if sensor_out:
                    return False
                return bool(frame.spec.is_fall())

            if traced:
                with tracer.span("pose", frame=i) as sp:
                    out = executor.run(
                        "pose", i, float(lat["pose"][processed_i]),
                        pose_fn)
                    sp.set_attr("status", out.status.value)
                    sp.set_attr("cost_ms", out.cost_ms)
            else:
                out = executor.run("pose", i,
                                   float(lat["pose"][processed_i]),
                                   pose_fn)
            total_ms += out.cost_ms
            report.retries += out.attempts - 1
            if bus.enabled:
                bus.emit(cfg.device, "pose", out.cost_ms, arrival_s)
            if out.status.failed:
                report._bump(report.stage_failures, "pose")
                degraded = True
                self._note_fallback(report, tracer, "pose:skip_fall_check")
            else:
                alert = self.alert_policy.observe(
                    AlertKind.FALL, bool(out.value), i,
                    "Fall detected!")
                if alert:
                    report.alerts.append(alert)

        # -- depth stage: obstacle ranging (guarded) ---------------
        depth_due = cfg.run_depth and \
            processed_i % cfg.depth_every == \
            cfg.depth_phase % cfg.depth_every
        if depth_due and shedding:
            self._note_fallback(report, tracer, "load_shed:depth")
            degraded = True
        elif depth_due:
            if traced:
                with tracer.span("depth", frame=i) as sp:
                    out = executor.run(
                        "depth", i, float(lat["depth"][processed_i]),
                        lambda: self._nearest_from_depth(seen))
                    sp.set_attr("status", out.status.value)
                    sp.set_attr("cost_ms", out.cost_ms)
            else:
                out = executor.run(
                    "depth", i, float(lat["depth"][processed_i]),
                    lambda: self._nearest_from_depth(seen))
            total_ms += out.cost_ms
            report.retries += out.attempts - 1
            if bus.enabled:
                bus.emit(cfg.device, "depth", out.cost_ms, arrival_s)
            if out.status.failed:
                report._bump(report.stage_failures, "depth")
                degraded = True
                nearest = self._nearest_from_boxes(seen)
                self._note_fallback(report, tracer, "depth:bbox_range")
            else:
                nearest = out.value
            near = (nearest is not None
                    and nearest < self.alert_policy.obstacle_distance_m)
            alert = self.alert_policy.observe(
                AlertKind.OBSTACLE, near, i,
                f"Obstacle at {nearest:.1f} m"
                if nearest is not None else "",
                distance_m=nearest)
            if alert:
                report.alerts.append(alert)

        # -- SLO burn: latency-budget pressure is degradation too ---
        slo_reason: Optional[str] = None
        if slo_tracker is not None:
            slo_tracker.record_latency(total_ms, arrival_s)
            slo_status = slo_tracker.status(arrival_s)
            if slo_status.burning:
                report.slo_burn_frames += 1
                if not degraded:
                    slo_reason = "slo burn: " + ",".join(
                        slo_status.burning_names())
                degraded = True
                tracer.event("slo_burning", frame=i,
                             objectives=slo_status.burning_names())

        # -- health, availability, alerting ------------------------
        def alert_stage():
            nonlocal frame_available
            record = health.observe(i, degraded, critical,
                                    reason=slo_reason)
            if record is not None:
                report.health_transitions.append(record)
                tracer.event("health_transition",
                             frame=i, src=record["from"],
                             dst=record["to"],
                             reason=record["reason"])
                if res.enabled:
                    if record["to"] == HealthState.SAFE_STOP.value:
                        report.alerts.append(Alert(
                            AlertKind.SAFE_STOP, i,
                            "Guidance unavailable — stop and wait"))
                    elif record["to"] == HealthState.DEGRADED.value \
                            and record["from"] == \
                            HealthState.NOMINAL.value:
                        report.alerts.append(Alert(
                            AlertKind.DEGRADED, i,
                            f"Guidance degraded — {record['reason']}"))
            if health.state is not HealthState.SAFE_STOP \
                    and not critical:
                report.available_frames += 1
                frame_available = True

        frame_available = False
        if traced:
            with tracer.span("alert", frame=i):
                alert_stage()
        else:
            alert_stage()
        if slo_tracker is not None:
            slo_tracker.record_available(frame_available, arrival_s)
        if bus.enabled:
            bus.emit(cfg.device, "e2e", total_ms, arrival_s)

        report.per_frame_latency_ms.append(total_ms)
        report.frames_processed += 1
        return total_ms, prev_track_id
