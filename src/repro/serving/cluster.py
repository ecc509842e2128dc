"""Fault-tolerant replicated serving: replica pools + failover routing.

The single-server simulator (:mod:`repro.serving.simulator`) proves
out deadline-aware micro-batching; this module makes the serving tier
survive the fault ladder.  A :class:`ReplicaPool` holds N heterogeneous
servers (model × device per replica, resolved through the existing
registries), each with its own :class:`~repro.serving.batcher.
MicroBatcher` queue; a :class:`Router` with pluggable policies
dispatches admitted requests and owns the recovery machinery:

* **per-request timeout** — the adaptive-envelope rule from
  :class:`repro.faults.guard.AdaptiveEnvelope` (``envelope × EWMA`` of
  observed end-to-end latency, floored at the deadline): a request
  stuck in a throttled replica's queue past its envelope is withdrawn
  and re-routed;
* **bounded retries** with deterministic exponential backoff
  (``backoff_base_ms × 2^(attempt-1)``, no jitter — reruns are
  byte-identical);
* **hedged re-dispatch** — once a request has been outstanding longer
  than the observed latency quantile, a second copy races on another
  replica; first completion wins and the loser is cancelled (queued
  copies are withdrawn, in-flight copies complete as counted waste);
* **requeue-on-crash** — a crashed replica's queue and in-flight batch
  are requeued through the router, so a dead server loses work, not
  requests.

Server faults come from :class:`repro.faults.server.ServerFaultStream`
(crash-with-restart after a seeded downtime, slowdown multipliers on
batch latency, link partitions).  The event loop is checkpointable:
:meth:`ClusterSimulator.snapshot` captures queues, in-flight batches,
RNG stream state, and the clock as pure data, and
:meth:`ClusterSimulator.restore` + :meth:`ClusterSimulator.resume`
continues byte-identically to an uninterrupted run (a machine-checked
claim of ``exp_serving_chaos``).
"""

from __future__ import annotations

import bisect
import copy
import enum
from dataclasses import asdict, dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from ..errors import BenchmarkError, HardwareError
from ..faults.guard import AdaptiveEnvelope
from ..faults.server import DOWNTIME_SPREAD_LO, ServerFaultStream
from ..faults.spec import FaultSpec
from ..hardware.registry import device_spec
from ..latency.batching import BatchingModel
from ..models.spec import model_spec
from ..obs import current_telemetry, current_tracer
from ..obs.slo import SloPolicy, SloTracker
from ..rng import make_rng
from ..units import fps_to_period_ms
from .admission import serving_slo_policy
from .batcher import MicroBatcher
from .request import Request, generate_arrivals

_INF = float("inf")

#: Checkpoint payload version (``ClusterSimulator.snapshot``).
#: v2 adds the live replica pool (specs + retiring flags) so a
#: snapshot taken after ``add_replica``/``drain_replica`` restores
#: the scaled pool, not the config's initial one.
SNAPSHOT_SCHEMA = 2

#: Shed/loss reasons tallied by the cluster router.
SHED_REASONS = ("queue_full", "deadline", "no_replica",
                "retries_exhausted")


class RouterPolicy(enum.Enum):
    """How the router picks a replica for an admitted request."""

    #: Fewest queued + in-flight requests (ties to the lowest index).
    LEAST_LOADED = "least-loaded"
    #: Cycle through routable replicas with a persistent cursor.
    ROUND_ROBIN = "round-robin"
    #: Deadline-aware: earliest predicted completion, including the
    #: replica's current fault slowdown.
    FASTEST = "fastest"


@dataclass(frozen=True)
class ReplicaSpec:
    """One server in the pool: model × device from the registries."""

    model: str = "yolov8-m"
    device: str = "rtx4090"
    queue_capacity: int = 256
    #: Batch cap; ``None`` resolves via ``best_batch_under_deadline``.
    max_batch: Optional[int] = None

    def __post_init__(self) -> None:
        if self.queue_capacity < 1:
            raise BenchmarkError("queue capacity must be >= 1")
        if self.max_batch is not None and self.max_batch < 1:
            raise BenchmarkError("max_batch must be >= 1")

    @property
    def label(self) -> str:
        return f"{self.model}@{self.device}"


@dataclass(frozen=True)
class ClusterConfig:
    """Workload, pool, routing, and recovery knobs for one run."""

    replicas: Tuple[ReplicaSpec, ...] = (ReplicaSpec(), ReplicaSpec())
    num_streams: int = 8
    frame_rate: float = 10.0          # requests/s per stream
    duration_s: float = 10.0
    deadline_ms: Optional[float] = None
    deadline_slack: float = 1.0
    batch_budget_fraction: float = 0.5
    router: RouterPolicy = RouterPolicy.LEAST_LOADED
    #: Predictive deadline screening at the door (sheds requests whose
    #: predicted completion on the chosen replica already misses).
    admit_deadline: bool = True
    #: Re-dispatch budget per request (crash requeues + timeouts).
    max_retries: int = 4
    backoff_base_ms: float = 2.0
    #: Adaptive per-request timeout: ``envelope × EWMA(e2e)``, floored
    #: at ``timeout_floor_deadlines × deadline`` (the guard's rule).
    timeout_envelope: float = 2.5
    timeout_floor_deadlines: float = 1.0
    #: Hedge once a request is outstanding past this latency quantile
    #: of completed requests (``None`` disables hedging).
    hedge_quantile: Optional[float] = None
    #: Completions needed before the hedge quantile is trusted.
    hedge_min_observations: int = 20
    #: Server-level fault stream (``SERVER_*`` FaultSpec kinds).
    faults: Tuple[FaultSpec, ...] = ()
    arrival_jitter_ms: float = 0.0
    seed: Optional[int] = None

    def __post_init__(self) -> None:
        if isinstance(self.router, str):
            object.__setattr__(self, "router",
                               RouterPolicy(self.router))
        replicas = tuple(self.replicas)
        object.__setattr__(self, "replicas", replicas)
        faults = tuple(self.faults)
        object.__setattr__(self, "faults", faults)
        if not replicas:
            raise BenchmarkError("need at least one replica")
        for spec in replicas:
            if not isinstance(spec, ReplicaSpec):
                raise BenchmarkError(f"not a ReplicaSpec: {spec!r}")
        if self.num_streams < 1:
            raise BenchmarkError("need at least one stream")
        if self.frame_rate <= 0 or self.duration_s <= 0:
            raise BenchmarkError("bad workload parameters")
        if self.deadline_ms is not None and self.deadline_ms <= 0:
            raise BenchmarkError("deadline must be positive")
        if self.deadline_slack <= 0:
            raise BenchmarkError("deadline slack must be positive")
        if not 0.0 < self.batch_budget_fraction <= 1.0:
            raise BenchmarkError(
                "batch budget fraction must be in (0, 1]")
        if self.max_retries < 0:
            raise BenchmarkError("max_retries must be non-negative")
        if self.backoff_base_ms <= 0:
            raise BenchmarkError("backoff base must be positive")
        if self.timeout_envelope <= 1.0:
            raise BenchmarkError("timeout envelope must exceed 1")
        if self.timeout_floor_deadlines <= 0:
            raise BenchmarkError("timeout floor must be positive")
        if self.hedge_quantile is not None \
                and not 0.0 < self.hedge_quantile < 1.0:
            raise BenchmarkError("hedge quantile outside (0, 1)")
        if self.hedge_min_observations < 1:
            raise BenchmarkError("hedge_min_observations must be >= 1")
        if self.arrival_jitter_ms < 0:
            raise BenchmarkError("arrival jitter must be non-negative")
        ServerFaultStream(faults).validate_replicas(len(replicas))

    @property
    def resolved_deadline_ms(self) -> float:
        if self.deadline_ms is not None:
            return self.deadline_ms
        return fps_to_period_ms(self.frame_rate) * self.deadline_slack

    @property
    def offered_rps(self) -> float:
        return self.num_streams * self.frame_rate


def default_chaos_faults(duration_s: float,
                         num_replicas: int = 2
                         ) -> Tuple[FaultSpec, ...]:
    """The canned chaos ladder used by ``serve-sim --chaos``, the
    ``exp_serving_chaos`` experiment, and the bench-track probes: the
    last replica crashes at 40 % of the run (mean downtime 15 % of the
    run) and replica 0 thermally throttles 3× over the 10–25 % window.
    """
    if duration_s <= 0:
        raise BenchmarkError("duration must be positive")
    if num_replicas < 1:
        raise BenchmarkError("need at least one replica")
    from ..faults.spec import FaultKind
    horizon = duration_s * 1000.0
    victim = num_replicas - 1
    faults = [FaultSpec(FaultKind.SERVER_CRASH, replica=victim,
                        start_ms=0.4 * horizon,
                        magnitude=0.15 * horizon)]
    if num_replicas > 1:
        faults.append(FaultSpec(FaultKind.SERVER_SLOWDOWN, replica=0,
                                start_ms=0.1 * horizon,
                                end_ms=0.25 * horizon, magnitude=3.0))
    return tuple(faults)


@dataclass
class ClusterReport:
    """Outcome of one replicated serving run (drained to empty)."""

    router: str
    replicas: List[str]
    deadline_ms: float
    generated: int = 0
    admitted: int = 0
    completed: int = 0
    violations: int = 0
    shed: Dict[str, int] = field(
        default_factory=lambda: {r: 0 for r in SHED_REASONS})
    per_stream_completed: Dict[int, int] = field(default_factory=dict)
    per_stream_shed: Dict[int, int] = field(default_factory=dict)
    latencies_ms: List[float] = field(default_factory=list)
    completion_ms: List[float] = field(default_factory=list)
    queue_waits_ms: List[float] = field(default_factory=list)
    batch_sizes: List[int] = field(default_factory=list)
    replica_completed: Dict[int, int] = field(default_factory=dict)
    replica_batches: Dict[int, int] = field(default_factory=dict)
    replica_busy_ms: Dict[int, float] = field(default_factory=dict)
    replica_down_ms: Dict[int, float] = field(default_factory=dict)
    replica_crashes: Dict[int, int] = field(default_factory=dict)
    #: Each crash's drawn restart downtime (the MTTR inputs).
    downtimes_ms: List[float] = field(default_factory=list)
    #: Per crash with casualties: last requeued-victim completion
    #: minus crash instant (the failover recovery time).
    crash_recoveries_ms: List[float] = field(default_factory=list)
    requeued_on_crash: int = 0
    timeout_reroutes: int = 0
    retries: int = 0
    hedged: int = 0
    hedge_wins: int = 0
    hedge_wasted_ms: float = 0.0
    lost_exec_ms: float = 0.0
    makespan_ms: float = 0.0

    # -- derived -------------------------------------------------------------

    @property
    def total_shed(self) -> int:
        return sum(self.shed.values())

    @property
    def lost_requests(self) -> int:
        """Admitted requests the cluster failed to serve."""
        return self.shed.get("retries_exhausted", 0)

    @property
    def admitted_fraction(self) -> float:
        return self.admitted / max(self.generated, 1)

    @property
    def violation_rate(self) -> float:
        if self.completed == 0:
            return 0.0
        return self.violations / self.completed

    @property
    def throughput_fps(self) -> float:
        if self.makespan_ms <= 0:
            return 0.0
        return 1000.0 * self.completed / self.makespan_ms

    @property
    def goodput_fps(self) -> float:
        """Deadline-met completions per second."""
        if self.makespan_ms <= 0:
            return 0.0
        return 1000.0 * (self.completed - self.violations) \
            / self.makespan_ms

    def latency_quantile(self, q: float) -> float:
        if not self.latencies_ms:
            return float("nan")
        return float(np.percentile(np.asarray(self.latencies_ms),
                                   100.0 * q))

    @property
    def p50_ms(self) -> float:
        return self.latency_quantile(0.50)

    @property
    def p99_ms(self) -> float:
        return self.latency_quantile(0.99)

    @property
    def mttr_ms(self) -> float:
        """Mean time to recovery: mean crash downtime (NaN = no crash)."""
        if not self.downtimes_ms:
            return float("nan")
        return float(np.mean(self.downtimes_ms))

    def availability(self, replica: int) -> float:
        """Uptime fraction of ``replica`` over the run makespan."""
        if self.makespan_ms <= 0:
            return 1.0
        down = min(self.replica_down_ms.get(replica, 0.0),
                   self.makespan_ms)
        return 1.0 - down / self.makespan_ms

    def min_availability(self) -> float:
        return min((self.availability(r)
                    for r in range(len(self.replicas))), default=1.0)

    def conservation_holds(self) -> bool:
        """Nothing is lost silently: every generated request is either
        completed or tallied under a shed/loss reason, and every
        admitted request is completed unless explicitly counted as
        ``retries_exhausted``."""
        return (self.generated == self.completed + self.total_shed
                and self.admitted == self.completed
                + self.lost_requests)

    def slo_burned(self, policy: Optional[SloPolicy] = None) -> bool:
        """Replay completion latencies through :mod:`repro.obs.slo`:
        did the burn-rate alert (scaled to serving windows) ever trip?
        Pure function of the report — deterministic and golden-safe."""
        tracker = SloTracker(policy if policy is not None
                             else serving_slo_policy(self.deadline_ms))
        order = sorted(range(len(self.completion_ms)),
                       key=lambda i: (self.completion_ms[i], i))
        for i in order:
            done_s = self.completion_ms[i] / 1000.0
            tracker.record_latency(self.latencies_ms[i], done_s)
            if tracker.status(done_s).burning:
                return True
        return False

    def summary(self) -> Dict:
        return {
            "router": self.router,
            "replicas": list(self.replicas),
            "deadline_ms": self.deadline_ms,
            "generated": self.generated,
            "admitted": self.admitted,
            "completed": self.completed,
            "violations": self.violations,
            "shed": {k: v for k, v in sorted(self.shed.items())},
            "lost_requests": self.lost_requests,
            "admitted_fraction": self.admitted_fraction,
            "violation_rate": self.violation_rate,
            "p50_ms": self.p50_ms, "p99_ms": self.p99_ms,
            "throughput_fps": self.throughput_fps,
            "goodput_fps": self.goodput_fps,
            "availability": {
                str(r): self.availability(r)
                for r in range(len(self.replicas))},
            "mttr_ms": self.mttr_ms,
            "crashes": sum(self.replica_crashes.values()),
            "crash_recoveries_ms": list(self.crash_recoveries_ms),
            "requeued_on_crash": self.requeued_on_crash,
            "timeout_reroutes": self.timeout_reroutes,
            "retries": self.retries,
            "hedged": self.hedged,
            "hedge_wins": self.hedge_wins,
            "hedge_wasted_ms": self.hedge_wasted_ms,
            "lost_exec_ms": self.lost_exec_ms,
            "makespan_ms": self.makespan_ms,
        }


# Event priorities at equal simulation time (total order, so reruns
# and restored runs replay identically).
_P_COMPLETE, _P_CRASH, _P_RESTORE, _P_RETRY, _P_ARRIVAL, _P_TIMEOUT, \
    _P_HEDGE, _P_DISPATCH = range(8)


class ClusterSimulator:
    """Replicated discrete-event serving simulation with failover.

    ``run()`` drains the workload to empty and returns a
    :class:`ClusterReport`; ``run(pause_at_ms=t)`` stops the loop at
    the first event past ``t`` (returning ``None``) so the state can
    be checkpointed with :meth:`snapshot` and later revived with
    :meth:`restore` + :meth:`resume`.
    """

    def __init__(self, config: Optional[ClusterConfig] = None,
                 batching: Optional[BatchingModel] = None,
                 arrivals: Optional[Sequence[Request]] = None) -> None:
        self.config = config if config is not None else ClusterConfig()
        self.batching = batching if batching is not None \
            else BatchingModel()
        cfg = self.config
        self.deadline_ms = cfg.resolved_deadline_ms
        self.faults = ServerFaultStream(cfg.faults)
        #: The live pool; grows via :meth:`add_replica`.  The config's
        #: ``replicas`` tuple stays the initial pool.
        self._live_specs: List[ReplicaSpec] = list(cfg.replicas)
        self._models = [model_spec(r.model) for r in self._live_specs]
        self._devices = [device_spec(r.device)
                         for r in self._live_specs]
        #: Resolved batch cap per distinct spec: each resolution is a
        #: 64-point batch scan, and restore re-resolves the live pool.
        self._caps: Dict[ReplicaSpec, int] = {}
        self.max_batch: List[int] = [
            self._resolve_max_batch(spec)
            for spec in self._live_specs]
        self._lat_cache: List[Dict[int, float]] = [
            {} for _ in self._live_specs]
        self._envelope = AdaptiveEnvelope(
            envelope=cfg.timeout_envelope,
            floor_ms=cfg.timeout_floor_deadlines * self.deadline_ms)
        self._rng = make_rng(cfg.seed, "serving", "downtime")
        if arrivals is None:
            self._arrivals = generate_arrivals(
                cfg.num_streams, cfg.frame_rate, cfg.duration_s,
                self.deadline_ms, jitter_ms=cfg.arrival_jitter_ms,
                seed=cfg.seed)
            self._stream_ids: List[int] = list(range(cfg.num_streams))
        else:
            # Explicit schedule (fleet sharding: a cell serves a
            # subset of global stream ids).  Must be time-ordered
            # under the same total order generate_arrivals produces.
            self._arrivals = sorted(
                arrivals, key=lambda r: (r.arrival_ms, r.stream,
                                         r.seq))
            self._stream_ids = sorted({r.stream
                                       for r in self._arrivals})
        self._s: Optional[dict] = None

    # -- per-replica latency model -------------------------------------------

    def _resolve_max_batch(self, spec: ReplicaSpec) -> int:
        if spec.max_batch is not None:
            return min(spec.max_batch, spec.queue_capacity)
        best = self._caps.get(spec)
        if best is None:
            budget = self.deadline_ms * self.config.batch_budget_fraction
            try:
                best, _ = self.batching.best_batch_under_deadline(
                    spec.model, spec.device, budget,
                    max_batch=min(64, spec.queue_capacity))
            except HardwareError:
                best = 1
            self._caps[spec] = best
        return best

    def batch_latency_ms(self, replica: int, batch: int) -> float:
        """Nominal batch execution latency on ``replica`` (cached)."""
        out = self._lat_cache[replica].get(batch)
        if out is None:
            out = self.batching.batch_point(
                self._models[replica], self._devices[replica],
                batch).batch_latency_ms
            self._lat_cache[replica][batch] = out
        return out

    def predicted_done_ms(self, replica: int, t_ms: float) -> float:
        """Completion estimate for a request joining ``replica`` now,
        FIFO-approximated into max-size batches and inflated by the
        replica's current fault slowdown."""
        rep = self._s["replicas"][replica] if self._s is not None \
            else None
        pending = rep["batcher"].pending if rep is not None else 0
        if rep is not None and rep["in_flight"] is not None:
            free_at = rep["in_flight"]["done_ms"]
        else:
            free_at = t_ms
        cap = self.max_batch[replica]
        batches_ahead = pending // cap
        unit = self.batch_latency_ms(replica, cap) \
            * self.faults.slowdown(replica, t_ms)
        return free_at + (batches_ahead + 1) * unit

    # -- lifecycle -----------------------------------------------------------

    def run(self, pause_at_ms: Optional[float] = None
            ) -> Optional[ClusterReport]:
        if self._s is None:
            self._start()
        finished = self._loop(pause_at_ms)
        if not finished:
            return None
        return self._finalize()

    def resume(self) -> ClusterReport:
        """Continue a paused or restored run to completion."""
        if self._s is None:
            raise BenchmarkError("nothing to resume: run() not started")
        return self.run()

    # -- elastic pool (autoscaling) ------------------------------------------

    @property
    def live_report(self) -> Optional[ClusterReport]:
        """The in-progress report (None before the run starts)."""
        return None if self._s is None else self._s["report"]

    @property
    def active_replicas(self) -> int:
        """Replicas currently accepting new work (not retiring)."""
        return len(self.active_indices())

    def active_indices(self) -> List[int]:
        """Indices of replicas that are not retiring."""
        if self._s is None:
            return list(range(len(self._live_specs)))
        return [i for i, rep in enumerate(self._s["replicas"])
                if not rep["retiring"]]

    def add_replica(self, spec: ReplicaSpec) -> int:
        """Grow the pool by one replica mid-run; returns its index.

        The new replica starts idle and fault-free (the configured
        fault stream is indexed by the *initial* pool) and becomes
        routable for the very next event.
        """
        if not isinstance(spec, ReplicaSpec):
            raise BenchmarkError(f"not a ReplicaSpec: {spec!r}")
        if self._s is None:
            self._start()
        idx = len(self._live_specs)
        self._live_specs.append(spec)
        self._models.append(model_spec(spec.model))
        self._devices.append(device_spec(spec.device))
        self.max_batch.append(self._resolve_max_batch(spec))
        self._lat_cache.append({})
        self._s["replicas"].append(
            {"batcher": self._make_batcher(idx), "in_flight": None,
             "down_until": None, "crash_idx": 0, "retiring": False})
        report = self._s["report"]
        report.replicas.append(spec.label)
        report.replica_completed[idx] = 0
        report.replica_batches[idx] = 0
        report.replica_busy_ms[idx] = 0.0
        report.replica_down_ms[idx] = 0.0
        report.replica_crashes[idx] = 0
        return idx

    def drain_replica(self, replica: int) -> int:
        """Retire ``replica``: stop routing to it, move its queued
        requests to live replicas through the router, and let any
        in-flight batch finish.  Returns how many queued requests
        moved.  Draining never consumes a request's re-dispatch
        budget — the drain is the cluster's choice, not a failure of
        the request — so a drain alone can never shed work.
        """
        if self._s is None:
            raise BenchmarkError("drain before run() started")
        if not 0 <= replica < len(self._live_specs):
            raise BenchmarkError(f"no replica {replica} to drain")
        rep = self._s["replicas"][replica]
        if rep["retiring"]:
            return 0
        rep["retiring"] = True
        t = self._s["now"]
        victims = rep["batcher"].drain()
        victims.sort(key=lambda r: (r.arrival_ms, r.stream, r.seq))
        moved = 0
        for req in victims:
            meta = self._s["meta"].get((req.stream, req.seq))
            if meta is None:
                continue  # cancelled hedge copy riding the queue
            meta["locations"] = [loc for loc in meta["locations"]
                                 if loc[1] != replica]
            if meta["locations"]:
                continue  # a live copy elsewhere still races
            routable = self._routable(t)
            if routable:
                self._place(req, meta, self._choose(routable, t), t)
            else:
                # No live home right now: park it in the retry backlog
                # without backoff or budget — it re-places as soon as
                # a replica frees up.
                meta["timeout_at"] = None
                meta["hedge_at"] = None
                bisect.insort(self._s["retry"],
                              [t, req.stream, req.seq])
            moved += 1
        return moved

    def _start(self) -> None:
        cfg = self.config
        report = ClusterReport(
            router=cfg.router.value,
            replicas=[r.label for r in self._live_specs],
            deadline_ms=self.deadline_ms)
        report.generated = len(self._arrivals)
        for stream in self._stream_ids:
            report.per_stream_completed[stream] = 0
            report.per_stream_shed[stream] = 0
        for r in range(len(self._live_specs)):
            report.replica_completed[r] = 0
            report.replica_batches[r] = 0
            report.replica_busy_ms[r] = 0.0
            report.replica_down_ms[r] = 0.0
            report.replica_crashes[r] = 0
        self._s = {
            "now": 0.0,
            "arr_i": 0,
            "last_done": (self._arrivals[0].arrival_ms
                          if self._arrivals else 0.0),
            "rr_cursor": 0,
            "replicas": [
                {"batcher": self._make_batcher(r),
                 "in_flight": None,
                 "down_until": None,
                 "crash_idx": 0,
                 "retiring": False}
                for r in range(len(self._live_specs))],
            "meta": {},
            "retry": [],
            "crash_events": [],
            "report": report,
        }

    def _make_batcher(self, replica: int) -> MicroBatcher:
        spec = self._live_specs[replica]
        cap = self.max_batch[replica]
        return MicroBatcher(
            cap, lambda b, _r=replica: self.batch_latency_ms(_r, b),
            capacity=max(spec.queue_capacity, cap))

    # -- routing -------------------------------------------------------------

    def _up(self, replica: int) -> bool:
        return self._s["replicas"][replica]["down_until"] is None

    def _routable(self, t_ms: float,
                  exclude: Tuple[int, ...] = ()) -> List[int]:
        out = []
        for r in range(len(self._live_specs)):
            if r in exclude or not self._up(r):
                continue
            if self._s["replicas"][r]["retiring"]:
                continue
            if self.faults.partitioned(r, t_ms):
                continue
            if self._s["replicas"][r]["batcher"].full:
                continue
            out.append(r)
        return out

    def _load(self, replica: int) -> int:
        rep = self._s["replicas"][replica]
        in_flight = len(rep["in_flight"]["batch"]) \
            if rep["in_flight"] is not None else 0
        return rep["batcher"].pending + in_flight

    def _choose(self, routable: List[int], t_ms: float) -> int:
        policy = self.config.router
        if policy is RouterPolicy.LEAST_LOADED:
            return min(routable, key=lambda r: (self._load(r), r))
        if policy is RouterPolicy.FASTEST:
            return min(routable,
                       key=lambda r: (self.predicted_done_ms(r, t_ms),
                                      r))
        n = len(self._live_specs)
        cursor = self._s["rr_cursor"]
        for step in range(n):
            r = (cursor + step) % n
            if r in routable:
                self._s["rr_cursor"] = (r + 1) % n
                return r
        return routable[0]  # pragma: no cover — routable is non-empty

    # -- recovery helpers ----------------------------------------------------

    def _timeout_ms(self) -> float:
        return self._envelope.timeout_ms(self.deadline_ms)

    def _hedge_delay_ms(self) -> Optional[float]:
        cfg = self.config
        if cfg.hedge_quantile is None:
            return None
        lat = self._s["report"].latencies_ms
        if len(lat) < cfg.hedge_min_observations:
            return None
        return float(np.percentile(np.asarray(lat),
                                   100.0 * cfg.hedge_quantile))

    def _place(self, req: Request, meta: dict, replica: int,
               t_ms: float, hedge: bool = False) -> None:
        """Queue one copy of ``req`` on ``replica``."""
        self._s["replicas"][replica]["batcher"].push(req)
        meta["locations"].append(["q", replica, t_ms, hedge])
        if len(meta["locations"]) == 1:
            meta["timeout_at"] = t_ms + self._timeout_ms()
            delay = self._hedge_delay_ms()
            meta["hedge_at"] = t_ms + delay \
                if delay is not None else None
        else:
            # Two copies racing: the race *is* the recovery mechanism.
            meta["timeout_at"] = None
            meta["hedge_at"] = None

    def _requeue(self, req: Request, meta: dict, t_ms: float,
                 crash_event: Optional[int]) -> None:
        """Push a copyless request into the retry backlog (or shed it
        once its re-dispatch budget is spent)."""
        report = self._s["report"]
        meta["reroutes"] += 1
        if meta["reroutes"] > self.config.max_retries:
            report.shed["retries_exhausted"] += 1
            report.per_stream_shed[req.stream] += 1
            del self._s["meta"][(req.stream, req.seq)]
            return
        backoff = self.config.backoff_base_ms \
            * 2.0 ** (meta["reroutes"] - 1)
        meta["timeout_at"] = None
        meta["hedge_at"] = None
        if crash_event is not None:
            meta["crash_event"] = crash_event
            self._s["crash_events"][crash_event]["requeued"] += 1
            report.requeued_on_crash += 1
        bisect.insort(self._s["retry"],
                      [t_ms + backoff, req.stream, req.seq])

    # -- the event loop ------------------------------------------------------

    def _next_event(self) -> Tuple[float, int, int, Tuple[int, int]]:
        """The earliest pending event as ``(t, priority, replica,
        request-key)`` under the total order."""
        s = self._s
        best = (_INF, 99, -1, (-1, -1))

        def consider(t: float, prio: int, replica: int = -1,
                     key: Tuple[int, int] = (-1, -1)) -> None:
            nonlocal best
            cand = (t, prio, replica, key)
            if cand < best:
                best = cand

        for r, rep in enumerate(s["replicas"]):
            if rep["in_flight"] is not None:
                consider(rep["in_flight"]["done_ms"], _P_COMPLETE, r)
            schedule = self.faults.crash_schedule(r)
            if rep["crash_idx"] < len(schedule):
                consider(schedule[rep["crash_idx"]].start_ms,
                         _P_CRASH, r)
            if rep["down_until"] is not None:
                consider(rep["down_until"], _P_RESTORE, r)
            if rep["down_until"] is None \
                    and rep["in_flight"] is None \
                    and rep["batcher"].pending:
                draining = s["arr_i"] >= len(self._arrivals) \
                    and not s["retry"]
                t_d = max(s["now"], rep["batcher"].next_dispatch_ms(
                    s["now"], draining=draining))
                consider(t_d, _P_DISPATCH, r)
        if s["retry"]:
            first = s["retry"][0]
            consider(first[0], _P_RETRY, key=(first[1], first[2]))
        if s["arr_i"] < len(self._arrivals):
            consider(self._arrivals[s["arr_i"]].arrival_ms, _P_ARRIVAL)
        for key in sorted(s["meta"]):
            m = s["meta"][key]
            if m["timeout_at"] is not None:
                consider(m["timeout_at"], _P_TIMEOUT, key=key)
            if m["hedge_at"] is not None:
                consider(m["hedge_at"], _P_HEDGE, key=key)
        return best

    #: Span name per event priority — the profiled event-loop surface.
    _SPAN_NAMES = {
        _P_COMPLETE: "cluster.on_complete",
        _P_CRASH: "cluster.on_crash",
        _P_RESTORE: "cluster.on_restore",
        _P_RETRY: "cluster.on_retry",
        _P_ARRIVAL: "cluster.on_arrival",
        _P_TIMEOUT: "cluster.on_timeout",
        _P_HEDGE: "cluster.on_hedge",
        _P_DISPATCH: "cluster.on_dispatch",
    }

    def _loop(self, pause_at_ms: Optional[float]) -> bool:
        """Process events until drained (True) or past the pause."""
        handlers = {
            _P_COMPLETE: self._on_complete,
            _P_CRASH: self._on_crash,
            _P_RESTORE: self._on_restore,
            _P_RETRY: self._on_retry,
            _P_ARRIVAL: self._on_arrival,
            _P_TIMEOUT: self._on_timeout,
            _P_HEDGE: self._on_hedge,
            _P_DISPATCH: self._on_dispatch,
        }
        tracer = current_tracer()
        with tracer.span("cluster.loop"):
            while True:
                t, prio, replica, key = self._next_event()
                if t == _INF:
                    return True
                if pause_at_ms is not None and t > pause_at_ms:
                    return False
                self._s["now"] = max(self._s["now"], t)
                if tracer.enabled:
                    with tracer.span(self._SPAN_NAMES[prio]):
                        handlers[prio](self._s["now"], replica, key)
                else:
                    handlers[prio](self._s["now"], replica, key)

    # -- event handlers ------------------------------------------------------

    def _on_complete(self, t: float, replica: int,
                     _key: Tuple[int, int]) -> None:
        s, report = self._s, self._s["report"]
        bus = current_telemetry()
        rep = s["replicas"][replica]
        flight = rep["in_flight"]
        rep["in_flight"] = None
        exec_ms = flight["exec_ms"]
        batch = flight["batch"]
        report.replica_busy_ms[replica] += exec_ms
        report.replica_batches[replica] += 1
        report.batch_sizes.append(len(batch))
        s["last_done"] = max(s["last_done"], t)
        for req in batch:
            key = (req.stream, req.seq)
            meta = s["meta"].get(key)
            if meta is None:
                # Hedge loser / already-served copy: counted as waste.
                report.hedge_wasted_ms += exec_ms / len(batch)
                continue
            won_hedge = any(
                loc[0] == "f" and loc[1] == replica and loc[3]
                for loc in meta["locations"])
            for loc in meta["locations"]:
                if loc[0] == "q":
                    s["replicas"][loc[1]]["batcher"].remove(req)
            e2e = t - req.arrival_ms
            report.completed += 1
            report.replica_completed[replica] += 1
            report.per_stream_completed[req.stream] += 1
            report.latencies_ms.append(e2e)
            report.completion_ms.append(t)
            if t > req.deadline_ms:
                report.violations += 1
            if won_hedge:
                report.hedge_wins += 1
            self._envelope.observe(e2e)
            if meta["crash_event"] is not None:
                ev = s["crash_events"][meta["crash_event"]]
                ev["last_done"] = t if ev["last_done"] is None \
                    else max(ev["last_done"], t)
            del s["meta"][key]
            if bus.enabled:
                bus.emit(f"stream-{req.stream:02d}", "e2e", e2e,
                         t / 1000.0)
        if bus.enabled:
            bus.emit(f"replica-{replica}", "exec", exec_ms, t / 1000.0)

    def _on_crash(self, t: float, replica: int,
                  _key: Tuple[int, int]) -> None:
        s, report = self._s, self._s["report"]
        bus = current_telemetry()
        rep = s["replicas"][replica]
        spec = self.faults.crash_schedule(replica)[rep["crash_idx"]]
        rep["crash_idx"] += 1
        if rep["down_until"] is not None:
            return  # crash during existing downtime: absorbed
        downtime = spec.magnitude \
            * (DOWNTIME_SPREAD_LO + float(self._rng.random()))
        rep["down_until"] = t + downtime
        report.replica_crashes[replica] += 1
        report.downtimes_ms.append(downtime)
        report.replica_down_ms[replica] += downtime
        event_id = len(s["crash_events"])
        s["crash_events"].append({"replica": replica, "t_ms": t,
                                  "requeued": 0, "last_done": None})
        victims: List[Request] = []
        if rep["in_flight"] is not None:
            report.lost_exec_ms += t - rep["in_flight"]["started_ms"]
            victims.extend(rep["in_flight"]["batch"])
            rep["in_flight"] = None
        victims.extend(rep["batcher"].drain())
        victims.sort(key=lambda r: (r.arrival_ms, r.stream, r.seq))
        for req in victims:
            meta = s["meta"].get((req.stream, req.seq))
            if meta is None:
                continue  # cancelled hedge copy riding the dead batch
            meta["locations"] = [loc for loc in meta["locations"]
                                 if loc[1] != replica]
            if meta["locations"]:
                continue  # a live copy elsewhere still races
            self._requeue(req, meta, t, event_id)
        if bus.enabled:
            bus.emit(f"replica-{replica}", "downtime", downtime,
                     t / 1000.0)

    def _on_restore(self, _t: float, replica: int,
                    _key: Tuple[int, int]) -> None:
        self._s["replicas"][replica]["down_until"] = None

    def _on_retry(self, t: float, _replica: int,
                  key: Tuple[int, int]) -> None:
        s, report = self._s, self._s["report"]
        entry = s["retry"].pop(0)
        assert (entry[1], entry[2]) == key
        meta = s["meta"][key]
        req = meta["request"]
        routable = self._routable(t)
        if not routable:
            # Nowhere to go yet: back off again (bounded by budget).
            self._requeue(req, meta, t, None)
            return
        target = self._choose(routable, t)
        report.retries += 1
        self._place(req, meta, target, t)
        bus = current_telemetry()
        if bus.enabled:
            bus.emit("router", "retry", 1.0, t / 1000.0, unit="count")

    def _on_arrival(self, t: float, _replica: int,
                    _key: Tuple[int, int]) -> None:
        s, report = self._s, self._s["report"]
        req = self._arrivals[s["arr_i"]]
        s["arr_i"] += 1
        routable = self._routable(t)
        if not routable:
            any_up = any(
                self._up(r)
                and not self._s["replicas"][r]["retiring"]
                and not self.faults.partitioned(r, t)
                for r in range(len(self._live_specs)))
            reason = "queue_full" if any_up else "no_replica"
            report.shed[reason] += 1
            report.per_stream_shed[req.stream] += 1
            return
        target = self._choose(routable, t)
        if self.config.admit_deadline \
                and self.predicted_done_ms(target, t) > req.deadline_ms:
            report.shed["deadline"] += 1
            report.per_stream_shed[req.stream] += 1
            return
        report.admitted += 1
        meta = {"request": req, "locations": [], "reroutes": 0,
                "timeout_at": None, "hedge_at": None,
                "crash_event": None}
        s["meta"][(req.stream, req.seq)] = meta
        self._place(req, meta, target, t)

    def _on_timeout(self, t: float, _replica: int,
                    key: Tuple[int, int]) -> None:
        s, report = self._s, self._s["report"]
        meta = s["meta"][key]
        req = meta["request"]
        (_kind, here, _t_q, _hedge), = meta["locations"]
        alternatives = self._routable(t, exclude=(here,))
        if not alternatives:
            # No better home; keep waiting under a fresh envelope.
            meta["timeout_at"] = t + self._timeout_ms()
            return
        if meta["reroutes"] >= self.config.max_retries:
            # Budget spent: stop churning, let the current queue serve
            # it (never drop an admitted request for being slow).
            meta["timeout_at"] = None
            return
        removed = s["replicas"][here]["batcher"].remove(req)
        assert removed, "timed-out request must still be queued"
        meta["locations"] = []
        meta["reroutes"] += 1
        target = self._choose(alternatives, t)
        report.timeout_reroutes += 1
        self._place(req, meta, target, t)
        bus = current_telemetry()
        if bus.enabled:
            bus.emit("router", "retry", 1.0, t / 1000.0, unit="count")

    def _on_hedge(self, t: float, _replica: int,
                  key: Tuple[int, int]) -> None:
        s, report = self._s, self._s["report"]
        meta = s["meta"][key]
        occupied = tuple(loc[1] for loc in meta["locations"])
        others = self._routable(t, exclude=occupied)
        meta["hedge_at"] = None
        if not others:
            return
        target = self._choose(others, t)
        report.hedged += 1
        s["replicas"][target]["batcher"].push(meta["request"])
        meta["locations"].append(["q", target, t, True])
        meta["timeout_at"] = None  # the race supersedes the timeout
        bus = current_telemetry()
        if bus.enabled:
            bus.emit("router", "hedge", 1.0, t / 1000.0, unit="count")

    def _on_dispatch(self, t: float, replica: int,
                     _key: Tuple[int, int]) -> None:
        s, report = self._s, self._s["report"]
        bus = current_telemetry()
        rep = s["replicas"][replica]
        batch = rep["batcher"].take_batch()
        exec_ms = self.batch_latency_ms(replica, len(batch)) \
            * self.faults.slowdown(replica, t)
        rep["in_flight"] = {"done_ms": t + exec_ms, "batch": batch,
                            "exec_ms": exec_ms, "started_ms": t}
        for req in batch:
            meta = s["meta"].get((req.stream, req.seq))
            if meta is None:
                continue
            for loc in meta["locations"]:
                if loc[0] == "q" and loc[1] == replica:
                    loc[0] = "f"
                    wait = t - loc[2]
                    report.queue_waits_ms.append(wait)
                    if bus.enabled:
                        bus.emit(f"replica-{replica}", "queue", wait,
                                 t / 1000.0)
            if len(meta["locations"]) == 1:
                # In flight: execution is bounded by the (possibly
                # throttled) batch latency; hedging covers slowness.
                meta["timeout_at"] = None
        if bus.enabled:
            bus.emit(f"replica-{replica}", "batch", float(len(batch)),
                     t / 1000.0, unit="frames")

    # -- finalization --------------------------------------------------------

    def _finalize(self) -> ClusterReport:
        s = self._s
        report: ClusterReport = s["report"]
        assert not s["meta"] and not s["retry"], \
            "drained loop left outstanding requests"
        first = self._arrivals[0].arrival_ms if self._arrivals else 0.0
        report.makespan_ms = max(s["last_done"] - first, 0.0)
        recoveries = []
        for ev in s["crash_events"]:
            if ev["requeued"] and ev["last_done"] is not None:
                recoveries.append(ev["last_done"] - ev["t_ms"])
        report.crash_recoveries_ms = recoveries
        return report

    # -- checkpoint / restore ------------------------------------------------

    def snapshot(self) -> dict:
        """Pure-data checkpoint of the event loop: clock, queues,
        in-flight batches, retry backlog, report accumulators, and the
        downtime RNG stream state.  Deep-copied, so continuing the
        live run never mutates a taken snapshot."""
        if self._s is None:
            raise BenchmarkError("snapshot before run() started")
        s = self._s

        def req_tuple(r: Request) -> list:
            return [r.stream, r.seq, r.arrival_ms, r.deadline_ms]

        snap = {
            "schema": SNAPSHOT_SCHEMA,
            "now": s["now"],
            "arr_i": s["arr_i"],
            "last_done": s["last_done"],
            "rr_cursor": s["rr_cursor"],
            "specs": [
                [spec.model, spec.device, spec.queue_capacity,
                 spec.max_batch]
                for spec in self._live_specs],
            "replicas": [
                {"queue": rep["batcher"].state(),
                 "in_flight": None if rep["in_flight"] is None else {
                     "done_ms": rep["in_flight"]["done_ms"],
                     "exec_ms": rep["in_flight"]["exec_ms"],
                     "started_ms": rep["in_flight"]["started_ms"],
                     "batch": [req_tuple(r)
                               for r in rep["in_flight"]["batch"]]},
                 "down_until": rep["down_until"],
                 "crash_idx": rep["crash_idx"],
                 "retiring": rep["retiring"]}
                for rep in s["replicas"]],
            "meta": [
                [list(key),
                 {"request": req_tuple(m["request"]),
                  "locations": [list(loc) for loc in m["locations"]],
                  "reroutes": m["reroutes"],
                  "timeout_at": m["timeout_at"],
                  "hedge_at": m["hedge_at"],
                  "crash_event": m["crash_event"]}]
                for key, m in sorted(s["meta"].items())],
            "retry": [list(e) for e in s["retry"]],
            "crash_events": [dict(ev) for ev in s["crash_events"]],
            "report": asdict(s["report"]),
            "rng": self._rng.bit_generator.state,
            "envelope_baseline": self._envelope.baseline,
        }
        snap = copy.deepcopy(snap)
        from ..nn.sanitizer import assert_tree_disjoint, sanitizer_active
        if sanitizer_active():
            # A snapshot aliasing live state (e.g. an RNG state array
            # the deepcopy missed) would mutate retroactively as the
            # run continues; prove every ndarray leaf is disjoint.
            assert_tree_disjoint(
                snap, {"rng": self._rng.bit_generator.state,
                       "report": asdict(s["report"])},
                context="ClusterSimulator.snapshot")
        return snap

    @classmethod
    def restore(cls, config: ClusterConfig, snap: dict,
                batching: Optional[BatchingModel] = None,
                arrivals: Optional[Sequence[Request]] = None
                ) -> "ClusterSimulator":
        """Revive a :meth:`snapshot` under the same config; the
        resumed run is byte-identical to the uninterrupted one."""
        if snap.get("schema") != SNAPSHOT_SCHEMA:
            raise BenchmarkError(
                f"unsupported snapshot schema {snap.get('schema')!r}")
        sim = cls(config, batching=batching, arrivals=arrivals)
        snap = copy.deepcopy(snap)

        # The snapshot's live pool wins over the config's initial one
        # (the run may have scaled since it started).
        specs = [ReplicaSpec(model=m, device=d, queue_capacity=int(qc),
                             max_batch=None if mb is None else int(mb))
                 for m, d, qc, mb in snap["specs"]]
        sim._live_specs = specs
        sim._models = [model_spec(s.model) for s in specs]
        sim._devices = [device_spec(s.device) for s in specs]
        sim.max_batch = [sim._resolve_max_batch(s) for s in specs]
        sim._lat_cache = [{} for _ in specs]

        def req(parts: Sequence[Union[int, float]]) -> Request:
            stream, seq, arrival, deadline = parts
            return Request(stream=int(stream), seq=int(seq),
                           arrival_ms=float(arrival),
                           deadline_ms=float(deadline))

        replicas = []
        for r, rep_snap in enumerate(snap["replicas"]):
            batcher = sim._make_batcher(r)
            batcher.restore_state(rep_snap["queue"])
            flight = rep_snap["in_flight"]
            if flight is not None:
                flight = {"done_ms": flight["done_ms"],
                          "exec_ms": flight["exec_ms"],
                          "started_ms": flight["started_ms"],
                          "batch": [req(p) for p in flight["batch"]]}
            replicas.append({"batcher": batcher,
                             "in_flight": flight,
                             "down_until": rep_snap["down_until"],
                             "crash_idx": rep_snap["crash_idx"],
                             "retiring": rep_snap["retiring"]})
        meta = {}
        for key_parts, m in snap["meta"]:
            m["request"] = req(m["request"])
            meta[(int(key_parts[0]), int(key_parts[1]))] = m
        report_fields = snap["report"]
        # A JSON round-trip stringifies int dict keys; undo that.
        for name in ("per_stream_completed", "per_stream_shed",
                     "replica_completed", "replica_batches",
                     "replica_busy_ms", "replica_down_ms",
                     "replica_crashes"):
            report_fields[name] = {
                int(k): v for k, v in report_fields[name].items()}
        report = ClusterReport(**report_fields)
        sim._s = {
            "now": snap["now"],
            "arr_i": snap["arr_i"],
            "last_done": snap["last_done"],
            "rr_cursor": snap["rr_cursor"],
            "replicas": replicas,
            "meta": meta,
            "retry": [list(e) for e in snap["retry"]],
            "crash_events": snap["crash_events"],
            "report": report,
        }
        sim._rng.bit_generator.state = snap["rng"]
        sim._envelope.baseline = snap["envelope_baseline"]
        return sim
