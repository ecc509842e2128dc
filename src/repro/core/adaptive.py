"""Accuracy-aware adaptive deployment (paper §5 future work).

The paper closes with "developing accuracy-aware adaptive deployment
strategies for seamless execution across edge-cloud environments".  This
module implements such a strategy as a runtime controller:

* a set of :class:`AdaptiveArm` options — (model, device) placements
  with their expected accuracy and the network cost of off-board
  execution;
* an SLO: per-frame deadline (from the target FPS) and a violation
  budget;
* a controller that watches a sliding window of *observed* per-frame
  latencies (which drift under thermal throttling, contention and
  network variance) and switches arms: **down** to a cheaper arm when
  the deadline is being violated, **up** to the most accurate
  currently-safe arm when there is sustained headroom.

Hysteresis (separate up/down thresholds + a dwell time) prevents
flapping.  The simulation in :meth:`AdaptiveDeployment.run` drives the
controller with latency traces from the stochastic sampler, injecting a
mid-run network degradation to exercise the downswitch path — the
scenario a drone flying away from its base station produces.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Deque, Dict, List, Optional, Sequence

import numpy as np

from ..errors import BenchmarkError
from ..hardware.registry import device_spec
from ..latency.sampler import LatencySampler
from ..train.surrogate import AccuracySurrogate, SurrogateQuery
from ..units import fps_to_period_ms


@dataclass(frozen=True)
class AdaptiveArm:
    """One placement the controller can run."""

    model: str
    device: str
    offboard: bool = False
    network_rtt_ms: float = 0.0

    def __post_init__(self) -> None:
        if self.offboard and self.network_rtt_ms <= 0:
            raise BenchmarkError(
                "off-board arm needs a positive network RTT")

    @property
    def name(self) -> str:
        where = "offboard" if self.offboard else "onboard"
        return f"{self.model}@{self.device}[{where}]"


#: Share of late frames in the window that forces a downswitch.
VIOLATE_FRACTION_DOWN = 0.2
#: Window p95 at or below this share of the budget allows an upswitch.
HEADROOM_UP = 0.6


@dataclass(frozen=True)
class AdaptivePolicy:
    """Controller thresholds."""

    target_fps: float = 10.0
    window: int = 20                   # frames in the sliding window
    dwell_frames: int = 30             # min frames between switches
    #: After demoting an arm, do not retry it for this many frames
    #: (exponential-backoff-style flap damping; retry allows recovery
    #: when a transient network problem clears).
    demotion_backoff_frames: int = 150

    def __post_init__(self) -> None:
        if self.target_fps <= 0 or self.window < 2:
            raise BenchmarkError("bad adaptive policy parameters")

    @property
    def budget_ms(self) -> float:
        return fps_to_period_ms(self.target_fps)


@dataclass
class AdaptiveReport:
    """Outcome of an adaptive run."""

    frames: int = 0
    switches: List[Dict] = field(default_factory=list)
    violations: int = 0
    frames_per_arm: Dict[str, int] = field(default_factory=dict)
    accuracy_weighted: float = 0.0     # frame-weighted expected accuracy

    @property
    def violation_rate(self) -> float:
        if self.frames == 0:
            raise BenchmarkError("empty adaptive run")
        return self.violations / self.frames

    def summary(self) -> Dict:
        return {
            "frames": self.frames,
            "switches": len(self.switches),
            "violation_rate": self.violation_rate,
            "frames_per_arm": dict(self.frames_per_arm),
            "mean_expected_accuracy": self.accuracy_weighted,
        }


class AdaptiveController:
    """The switching logic, independent of where latencies come from."""

    def __init__(self, arms: Sequence[AdaptiveArm],
                 policy: AdaptivePolicy = AdaptivePolicy(),
                 surrogate: Optional[AccuracySurrogate] = None) -> None:
        if not arms:
            raise BenchmarkError("need at least one arm")
        self.policy = policy
        sur = surrogate or AccuracySurrogate()
        #: Arms sorted by expected accuracy descending (the preference
        #: order for upswitching).
        self.arms: List[AdaptiveArm] = sorted(
            arms,
            key=lambda a: -sur.expected_accuracy(
                SurrogateQuery(a.model, "diverse")))
        self.accuracy: Dict[str, float] = {
            a.name: sur.expected_accuracy(
                SurrogateQuery(a.model, "diverse"))
            for a in self.arms}
        # Expected medians (nominal network) gate upswitches: never
        # climb to an arm whose *predicted* latency already breaks the
        # headroom criterion — this is what prevents flapping around a
        # marginal arm.
        from ..latency.estimator import LatencyEstimator
        est = LatencyEstimator()
        self.expected_ms: Dict[str, float] = {
            a.name: est.median_ms(a.model, a.device)
            + (a.network_rtt_ms if a.offboard else 0.0)
            for a in self.arms}
        self._index = 0                 # start on the most accurate arm
        self._window: Deque[float] = deque(maxlen=policy.window)
        self._since_switch = 0
        self._frame = 0
        self._demoted_at: Dict[str, int] = {}

    @property
    def current(self) -> AdaptiveArm:
        return self.arms[self._index]

    def observe(self, latency_ms: float) -> Optional[Dict]:
        """Feed one frame's observed latency; maybe switch arms.

        Returns a switch record when a switch happens.
        """
        if latency_ms <= 0:
            raise BenchmarkError("non-positive latency observation")
        self._frame += 1
        self._window.append(latency_ms)
        self._since_switch += 1
        if len(self._window) < self.policy.window \
                or self._since_switch < self.policy.dwell_frames:
            return None

        budget = self.policy.budget_ms
        arr = np.fromiter(self._window, dtype=np.float64)
        late_frac = float(np.mean(arr > budget))
        p95 = float(np.percentile(arr, 95))

        if late_frac > VIOLATE_FRACTION_DOWN \
                and self._index + 1 < len(self.arms):
            self._demoted_at[self.current.name] = self._frame
            return self._switch(self._index + 1, "down",
                                late_frac=late_frac, p95=p95)
        if p95 <= HEADROOM_UP * budget and self._index > 0:
            # Climb to the *most accurate* arm that (a) is predicted to
            # fit the headroom criterion and (b) is not in demotion
            # backoff.
            for idx in range(self._index):
                arm = self.arms[idx]
                if self.expected_ms[arm.name] > HEADROOM_UP * budget:
                    continue
                demoted = self._demoted_at.get(arm.name)
                if demoted is not None and self._frame - demoted \
                        < self.policy.demotion_backoff_frames:
                    continue
                return self._switch(idx, "up", late_frac=late_frac,
                                    p95=p95)
        return None

    def _switch(self, new_index: int, direction: str,
                **info) -> Dict:
        record = {
            "from": self.current.name,
            "to": self.arms[new_index].name,
            "direction": direction, **info,
        }
        self._index = new_index
        self._window.clear()
        self._since_switch = 0
        return record


class AdaptiveDeployment:
    """Drives the controller with simulated latency traces."""

    def __init__(self, arms: Sequence[AdaptiveArm],
                 policy: AdaptivePolicy = AdaptivePolicy(),
                 seed: int = 7) -> None:
        self.controller = AdaptiveController(arms, policy)
        self.policy = policy
        self.seed = seed
        self._sampler = LatencySampler(seed=seed)
        # Pre-sample a long trace per arm; the run indexes into them.
        self._traces: Dict[str, np.ndarray] = {}

    def _trace(self, arm: AdaptiveArm, n: int) -> np.ndarray:
        if arm.name not in self._traces or \
                len(self._traces[arm.name]) < n:
            base = self._sampler.sample(arm.model, arm.device,
                                        max(n, 256))
            self._traces[arm.name] = base
        return self._traces[arm.name]

    def run(self, n_frames: int = 600,
            network_degradation_at: Optional[int] = None,
            degraded_rtt_ms: float = 120.0) -> AdaptiveReport:
        """Simulate ``n_frames``; optionally degrade the network mid-run.

        Off-board arms pay their RTT per frame; after
        ``network_degradation_at`` the RTT jumps to ``degraded_rtt_ms``
        (drone out of range), which should trigger downswitches to
        on-board arms.
        """
        if n_frames <= 0:
            raise BenchmarkError("n_frames must be positive")
        report = AdaptiveReport()
        ctrl = self.controller
        for i in range(n_frames):
            arm = ctrl.current
            trace = self._trace(arm, n_frames)
            latency = float(trace[i % len(trace)])
            if arm.offboard:
                rtt = arm.network_rtt_ms
                if network_degradation_at is not None \
                        and i >= network_degradation_at:
                    rtt = degraded_rtt_ms
                latency += rtt
            if latency > self.policy.budget_ms:
                report.violations += 1
            report.frames += 1
            report.frames_per_arm[arm.name] = \
                report.frames_per_arm.get(arm.name, 0) + 1
            report.accuracy_weighted += ctrl.accuracy[arm.name]
            switch = ctrl.observe(latency)
            if switch is not None:
                switch["frame"] = i
                report.switches.append(switch)
        report.accuracy_weighted /= max(report.frames, 1)
        return report


def default_arms(network_rtt_ms: float = 25.0) -> List[AdaptiveArm]:
    """A sensible arm ladder: accurate off-board → fast on-board."""
    arms = [
        AdaptiveArm("yolov11-m", "rtx4090", offboard=True,
                    network_rtt_ms=network_rtt_ms),
        AdaptiveArm("yolov8-m", "orin-agx"),
        AdaptiveArm("yolov8-n", "orin-nano"),
        AdaptiveArm("yolov11-n", "orin-nano"),
    ]
    # Sanity: every device exists.
    for arm in arms:
        device_spec(arm.device)
    return arms
