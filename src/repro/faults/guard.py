"""Guarded stage execution: adaptive watchdogs, bounded retries.

The pipeline is a discrete-event simulation — stage "time" is the
sampled latency, not wall clock — so the watchdog is simulated too: a
stage whose (fault-inflated) latency would exceed its timeout is
charged exactly the timeout and reported TIMED_OUT, the way a
deadline-killed thread costs its deadline.

The timeout is *adaptive*, TCP-RTO style: ``envelope × EWMA of the
stage's recently observed latency`` (with an absolute floor in frame
periods).  That distinction matters: a model that is slow *nominally*
(YOLOv8-x on a Xavier NX) must keep paying its real latency so the
feasibility benchmarks stay honest, while a 12× stall on a stage that
normally fits its envelope is an anomaly the watchdog kills.  Gradual
platform slowdowns (thermal throttle, battery sag) inflate the
baseline and are therefore tolerated — load shedding, not the
watchdog, handles those.

Crashes (injected, or real exceptions from a plugged-in perceptor) are
retried with a cheap fail-fast charge; an off-board link outage is
charged the client timeout and reported LINK_DOWN.

With ``ResilienceConfig(enabled=False)`` the guard reproduces the
naive loop: no watchdog (hangs are paid in full), no retries, and
crashes propagate as :class:`~repro.errors.FaultError` — the baseline
the chaos ablation contrasts against.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Any, Callable, Dict, Optional

from ..errors import ConfigError, FaultError
from ..obs import Tracer, current_tracer
from .injector import FaultInjector
from .spec import STAGES

#: Per-stage timeout envelope: kill at ``WATCHDOG_ENVELOPE × EWMA`` of
#: the stage's observed latency (anomaly detection, not a deadline).
WATCHDOG_ENVELOPE = 2.5
#: Never time out below this many frame periods (grace floor for
#: stages whose nominal cost is tiny next to the frame budget).
WATCHDOG_FLOOR_PERIODS = 0.5
#: A failed attempt is charged this fraction of its latency (crashes
#: fail part-way, not at completion).
RETRY_COST_FACTOR = 0.5


class StageStatus(enum.Enum):
    OK = "ok"
    CRASHED = "crashed"
    TIMED_OUT = "timed_out"
    LINK_DOWN = "link_down"

    @property
    def failed(self) -> bool:
        return self is not StageStatus.OK


@dataclass
class AdaptiveEnvelope:
    """The adaptive-timeout rule, TCP-RTO style, as reusable state.

    Timeout = ``envelope × EWMA of recently observed cost`` with an
    absolute floor — an anomaly detector, not a deadline: nominally
    slow work keeps paying its real cost (the EWMA tracks it up),
    while a sudden many-× stall on work that normally fits its
    envelope is killed.  Used per stage by :class:`StageExecutor` and
    per request by the serving cluster's failover router
    (:mod:`repro.serving.cluster`).

    The whole state is one optional float (``baseline``), so it
    checkpoints trivially in event-loop snapshots.
    """

    envelope: float
    floor_ms: float
    beta: float = 0.3
    baseline: Optional[float] = None

    def __post_init__(self) -> None:
        if self.envelope <= 1.0:
            raise ConfigError("envelope must exceed 1")
        if self.floor_ms < 0:
            raise ConfigError("timeout floor must be non-negative")
        if not 0.0 < self.beta <= 1.0:
            raise ConfigError("baseline beta outside (0, 1]")

    def observe(self, cost_ms: float) -> None:
        """Fold one observed cost into the EWMA baseline."""
        self.baseline = cost_ms if self.baseline is None \
            else (1.0 - self.beta) * self.baseline + self.beta * cost_ms

    def timeout_ms(self, seed_cost_ms: float) -> float:
        """Current timeout; ``seed_cost_ms`` stands in for the
        baseline until the first observation lands."""
        baseline = self.baseline if self.baseline is not None \
            else seed_cost_ms
        return max(self.envelope * baseline, self.floor_ms)


@dataclass
class StageOutcome:
    """What one guarded stage execution produced."""

    stage: str
    status: StageStatus
    value: Any = None
    cost_ms: float = 0.0
    attempts: int = 1


@dataclass(frozen=True)
class ResilienceConfig:
    """Hardening knobs for the guarded pipeline."""

    #: Master switch: False reproduces the unguarded (seed) behaviour:
    #: no watchdog, retries, fallbacks or load shedding.
    enabled: bool = True
    #: Extra attempts after a crashed stage (transient-fault recovery).
    max_retries: int = 1
    #: Probability a crash persists across a retry (transient faults
    #: clear; sticky ones survive).
    crash_persistence: float = 0.4

    def __post_init__(self) -> None:
        if self.max_retries < 0:
            raise ConfigError("max_retries must be non-negative")
        if not 0.0 <= self.crash_persistence <= 1.0:
            raise ConfigError("crash_persistence outside [0, 1]")


class StageExecutor:
    """Runs pipeline stages under the resilience policy."""

    def __init__(self, resilience: ResilienceConfig,
                 injector: Optional[FaultInjector],
                 period_ms: float, offboard: bool = False,
                 tracer: Optional[Tracer] = None) -> None:
        if period_ms <= 0:
            raise ConfigError("period must be positive")
        self.resilience = resilience
        self.injector = injector
        self.period_ms = period_ms
        self.offboard = offboard
        #: Retry / watchdog / link events land on whatever span the
        #: caller has open (the pipeline's per-stage span).
        self.tracer = tracer if tracer is not None else current_tracer()
        #: Per-stage adaptive watchdog envelopes (EWMA-tracked).
        self._envelopes: Dict[str, AdaptiveEnvelope] = {}

    def _envelope(self, stage: str) -> AdaptiveEnvelope:
        env = self._envelopes.get(stage)
        if env is None:
            env = self._envelopes[stage] = AdaptiveEnvelope(
                envelope=WATCHDOG_ENVELOPE,
                floor_ms=WATCHDOG_FLOOR_PERIODS * self.period_ms)
        return env

    def timeout_ms(self, stage: str, base_cost_ms: float) -> float:
        """Current watchdog timeout for ``stage`` given this frame's
        sampled base cost (used to seed an unseen stage's baseline)."""
        return self._envelope(stage).timeout_ms(base_cost_ms)

    def run(self, stage: str, frame_index: int, base_cost_ms: float,
            fn: Callable[[], Any]) -> StageOutcome:
        """Execute ``fn`` as ``stage`` for this frame.

        Returns a :class:`StageOutcome`; never raises when hardened.
        Unhardened, injected crashes / down links / real exceptions
        propagate as :class:`FaultError` — the seed pipeline's failure
        mode.
        """
        if stage not in STAGES:
            raise ConfigError(f"unknown stage {stage!r}")
        res = self.resilience
        inj = self.injector
        attempt_cost = base_cost_ms
        if inj is not None:
            attempt_cost *= inj.hang_factor(stage, frame_index) \
                * inj.slowdown(frame_index)

        link_down = (self.offboard and stage == "detect"
                     and inj is not None and inj.link_down(frame_index))
        if not res.enabled:
            return self._run_unguarded(stage, frame_index, attempt_cost,
                                       fn, link_down)

        tracer = self.tracer
        if link_down:
            # The request stalls until the client deadline (one frame
            # period) fires.
            tracer.event("link_down", stage=stage, frame=frame_index)
            tracer.metrics.counter("guard.link_down").inc()
            return StageOutcome(stage, StageStatus.LINK_DOWN,
                                cost_ms=self.period_ms)

        timeout = self.timeout_ms(stage, base_cost_ms)
        cost = 0.0
        attempts = 0
        for attempt in range(res.max_retries + 1):
            attempts += 1
            if attempt_cost > timeout:
                # A hang persists within the frame: abort, don't retry.
                tracer.event("watchdog_timeout", stage=stage,
                             frame=frame_index, timeout_ms=timeout,
                             cost_ms=attempt_cost)
                tracer.metrics.counter("guard.timeouts").inc()
                return StageOutcome(stage, StageStatus.TIMED_OUT,
                                    cost_ms=cost + timeout,
                                    attempts=attempts)
            crashed = False
            if inj is not None:
                crashed = inj.stage_crash(stage, frame_index) \
                    if attempt == 0 else inj.retry_crash(
                        stage, frame_index, res.crash_persistence)
            value = None
            if not crashed:
                try:
                    value = fn()
                except Exception as exc:
                    # Stage exceptions become recorded crash faults
                    # handled by the retry ladder below — but never
                    # silently: the event carries the error type so a
                    # swallowed BenchmarkError is visible in traces.
                    tracer.event("stage_exception", stage=stage,
                                 frame=frame_index,
                                 error=type(exc).__name__)
                    crashed = True
            if crashed:
                cost += attempt_cost * RETRY_COST_FACTOR
                tracer.event("stage_retry", stage=stage,
                             frame=frame_index, attempt=attempt + 1)
                tracer.metrics.counter("guard.retries").inc()
                continue
            self._observe(stage, attempt_cost)
            return StageOutcome(stage, StageStatus.OK, value=value,
                                cost_ms=cost + attempt_cost,
                                attempts=attempts)
        tracer.event("stage_crashed", stage=stage, frame=frame_index,
                     attempts=attempts)
        tracer.metrics.counter("guard.crashes").inc()
        return StageOutcome(stage, StageStatus.CRASHED, cost_ms=cost,
                            attempts=attempts)

    def _observe(self, stage: str, cost_ms: float) -> None:
        """Fold a successful stage execution into the EWMA baseline."""
        self._envelope(stage).observe(cost_ms)

    def _run_unguarded(self, stage: str, frame_index: int,
                       attempt_cost: float, fn: Callable[[], Any],
                       link_down: bool) -> StageOutcome:
        """Seed behaviour: pay hangs in full, crash on any fault."""
        if link_down:
            raise FaultError(
                f"network link down at frame {frame_index} "
                f"({stage} placed off-board)")
        if self.injector is not None and \
                self.injector.stage_crash(stage, frame_index):
            raise FaultError(
                f"{stage} stage crashed at frame {frame_index}")
        try:
            value = fn()
        except FaultError:
            raise
        except Exception as exc:
            raise FaultError(
                f"{stage} stage raised at frame {frame_index}: "
                f"{exc}") from exc
        return StageOutcome(stage, StageStatus.OK, value=value,
                            cost_ms=attempt_cost)
