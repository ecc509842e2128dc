"""UAV-fleet inference scheduling across edge and cloud.

The paper builds on "Adaptive heuristics for scheduling DNN inferencing
on edge and cloud for personalized UAV fleets" (its reference [8]): a
fleet of buddy drones, each with a small on-board accelerator, shares
one GPU workstation over the network.  This module implements that
setting as a discrete-event simulation plus three placement heuristics:

* ``edge_only`` — every drone runs its own detector locally;
* ``cloud_only`` — every frame ships to the workstation (accuracy-
  maximal until the queue saturates);
* ``adaptive`` — the paper-[8]-style greedy heuristic: per frame, pick
  the placement with the highest accuracy whose *predicted completion
  time* (device queue + execution + network) meets the deadline,
  falling back to the fastest placement when none does.

The simulation tracks per-device busy timelines (single-server FIFO
queues), so cloud saturation emerges naturally as the fleet grows — the
crossover the scheduler exists to manage.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Sequence, Tuple

from ..errors import BenchmarkError
from ..faults.injector import FaultInjector
from ..latency.estimator import LatencyEstimator
from ..obs import current_telemetry
from ..train.surrogate import AccuracySurrogate, SurrogateQuery
from ..units import fps_to_period_ms

#: Each drone's on-board accelerator and the detector it runs.
EDGE_DEVICE = "orin-nano"
EDGE_MODEL = "yolov8-n"
#: The shared workstation GPU and the detector it runs.
CLOUD_DEVICE = "rtx4090"
CLOUD_MODEL = "yolov11-m"


class SchedulingPolicy(enum.Enum):
    EDGE_ONLY = "edge_only"
    CLOUD_ONLY = "cloud_only"
    ADAPTIVE = "adaptive"


@dataclass(frozen=True)
class FleetConfig:
    """Fleet composition and workload."""

    num_drones: int = 4
    frame_rate: float = 10.0
    duration_s: float = 10.0
    network_rtt_ms: float = 25.0

    def __post_init__(self) -> None:
        if self.num_drones < 1:
            raise BenchmarkError("need at least one drone")
        if self.frame_rate <= 0 or self.duration_s <= 0:
            raise BenchmarkError("bad workload parameters")
        if self.network_rtt_ms < 0:
            raise BenchmarkError("negative network RTT")

    @property
    def frames_per_drone(self) -> int:
        return int(self.duration_s * self.frame_rate)

    @property
    def deadline_ms(self) -> float:
        """Frames slower than one period count as violations."""
        return fps_to_period_ms(self.frame_rate)


@dataclass
class FleetReport:
    """Simulation outcome."""

    policy: str
    frames: int = 0
    deadline_violations: int = 0
    cloud_frames: int = 0
    edge_frames: int = 0
    accuracy_weighted: float = 0.0
    mean_response_ms: float = 0.0

    @property
    def violation_rate(self) -> float:
        if self.frames == 0:
            raise BenchmarkError("empty fleet run")
        return self.deadline_violations / self.frames

    @property
    def cloud_fraction(self) -> float:
        return self.cloud_frames / max(self.frames, 1)

    def summary(self) -> Dict:
        return {
            "policy": self.policy, "frames": self.frames,
            "violation_rate": self.violation_rate,
            "cloud_fraction": self.cloud_fraction,
            "mean_expected_accuracy": self.accuracy_weighted,
            "mean_response_ms": self.mean_response_ms,
        }


class FleetScheduler:
    """Discrete-event fleet simulation with pluggable placement."""

    def __init__(self, config: Optional[FleetConfig] = None,
                 estimator: Optional[LatencyEstimator] = None,
                 surrogate: Optional[AccuracySurrogate] = None) -> None:
        # A fresh config per instance: a shared default instance would
        # leak state between schedulers if FleetConfig ever grew a
        # mutable field.
        self.config = config = \
            config if config is not None else FleetConfig()
        est = estimator or LatencyEstimator()
        sur = surrogate or AccuracySurrogate()
        self.edge_exec_ms = est.median_ms(EDGE_MODEL, EDGE_DEVICE)
        self.cloud_exec_ms = est.median_ms(CLOUD_MODEL, CLOUD_DEVICE)
        self.edge_acc = sur.expected_accuracy(
            SurrogateQuery(EDGE_MODEL, "diverse"))
        self.cloud_acc = sur.expected_accuracy(
            SurrogateQuery(CLOUD_MODEL, "diverse"))

    def _arrivals(self) -> List[Tuple[float, int]]:
        """(arrival_ms, drone_id) for every frame, time-ordered.

        Drones are phase-staggered by a fraction of the period so the
        cloud queue sees a realistic interleaving rather than perfectly
        synchronised bursts.
        """
        cfg = self.config
        period = fps_to_period_ms(cfg.frame_rate)
        events: List[Tuple[float, int]] = []
        for drone in range(cfg.num_drones):
            phase = period * drone / max(cfg.num_drones, 1)
            for i in range(cfg.frames_per_drone):
                events.append((phase + i * period, drone))
        events.sort()
        return events

    def run(self, policy: SchedulingPolicy,
            injector: Optional[FaultInjector] = None) -> FleetReport:
        """Simulate the fleet under a placement policy.

        Per-frame ``e2e`` response samples (tagged ``drone-NN``) and
        cloud execution samples flow to the ambient telemetry bus; an
        optional :class:`FaultInjector` applies its per-frame
        ``slowdown`` factor to both placements' execution costs, so a
        windowed THERMAL_THROTTLE spec shows up as a latency spike on
        the dashboard.  With neither, behaviour is byte-identical to
        the uninstrumented simulation.
        """
        cfg = self.config
        report = FleetReport(policy=policy.value)
        bus = current_telemetry()
        arrivals = self._arrivals()
        if injector is not None:
            injector.prepare(len(arrivals))
        # Busy-until timelines: one per edge device, one for the cloud.
        edge_free = [0.0] * cfg.num_drones
        cloud_free = 0.0
        total_response = 0.0

        for ordinal, (arrival, drone) in enumerate(arrivals):
            factor = injector.slowdown(ordinal) if injector is not None \
                else 1.0
            edge_exec = self.edge_exec_ms * factor
            cloud_exec = self.cloud_exec_ms * factor
            # Predicted completion for both placements.
            edge_start = max(arrival, edge_free[drone])
            edge_done = edge_start + edge_exec
            cloud_start = max(arrival + cfg.network_rtt_ms / 2.0,
                              cloud_free)
            cloud_done = cloud_start + cloud_exec \
                + cfg.network_rtt_ms / 2.0

            if policy is SchedulingPolicy.EDGE_ONLY:
                use_cloud = False
            elif policy is SchedulingPolicy.CLOUD_ONLY:
                use_cloud = True
            else:
                # Adaptive: the most accurate placement that meets the
                # deadline; if none does, the earliest-finishing one.
                deadline = arrival + cfg.deadline_ms
                candidates = []
                if cloud_done <= deadline:
                    candidates.append((self.cloud_acc, True, cloud_done))
                if edge_done <= deadline:
                    candidates.append((self.edge_acc, False, edge_done))
                if candidates:
                    candidates.sort(key=lambda c: (-c[0], c[2]))
                    use_cloud = candidates[0][1]
                else:
                    use_cloud = cloud_done < edge_done

            if use_cloud:
                done = cloud_done
                cloud_free = cloud_start + cloud_exec
                report.cloud_frames += 1
                report.accuracy_weighted += self.cloud_acc
                if bus.enabled:
                    bus.emit(CLOUD_DEVICE, "exec", cloud_exec,
                             arrival / 1000.0)
            else:
                done = edge_done
                edge_free[drone] = edge_done
                report.edge_frames += 1
                report.accuracy_weighted += self.edge_acc

            report.frames += 1
            response = done - arrival
            total_response += response
            if response > cfg.deadline_ms:
                report.deadline_violations += 1
            if bus.enabled:
                bus.emit(f"drone-{drone:02d}", "e2e", response,
                         arrival / 1000.0)

        report.accuracy_weighted /= max(report.frames, 1)
        report.mean_response_ms = total_response / max(report.frames, 1)
        return report

    def sweep_fleet_size(self, sizes: Sequence[int],
                         policy: SchedulingPolicy) -> List[FleetReport]:
        """Run the policy across fleet sizes (the saturation sweep)."""
        out = []
        for n in sizes:
            cfg = replace(self.config, num_drones=n)
            out.append(FleetScheduler(cfg).run(policy))
        return out
