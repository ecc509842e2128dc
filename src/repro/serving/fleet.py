"""Cross-process sharded fleet serving with SLO-burn autoscaling.

The cluster simulator (:mod:`repro.serving.cluster`) proves out one
replicated pool; a city-scale fleet needs many pools running in
parallel *without* the parallelism changing the answer.  This module
partitions the fleet deterministically and makes shard count a pure
execution detail:

* **cells** — the unit of simulation.  Every stream maps to one of
  ``num_cells`` cells by a stable hash of its id (CRC32, never
  Python's salted ``hash()``), and each cell owns its own replica
  pool, fault stream, and :class:`~repro.serving.cluster.
  ClusterSimulator` event loop.  Cells are atomic and deterministic:
  the same cell produces byte-identical results wherever it runs.
* **shards** — the unit of execution.  ``shards=N`` fans the cells
  out over ``N`` ``parallel_map`` worker processes; ``shards=1`` runs
  them in-process.  Because cells never interact and the merge below
  is canonical, the merged fleet metrics are byte-identical for 1 vs
  N shards — the machine-checked *shard-count invariance* claim of
  ``exp_fleet_scale``.
* **merge algebra** — per-cell results are merged as a *keyed set*,
  folded in sorted-cell order: counters add, latency distributions
  merge through :class:`~repro.obs.sketch.QuantileSketch` (whose
  merge is associative/commutative up to observable state), and the
  canonical fold order pins even the float-summation bytes.
* **autoscaling** — an :class:`Autoscaler` replays merged completion
  telemetry through :mod:`repro.obs.slo` fast/slow burn windows once
  per scaling epoch and adds or drains one replica per cell between
  epochs (drain rides :meth:`ClusterSimulator.drain_replica`, which
  re-homes queued work without spending retry budgets).  Decisions
  are a pure function of merged telemetry, so they too are identical
  regardless of shard count.
"""

from __future__ import annotations

import math
import zlib
from dataclasses import asdict, dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple, Union

from ..errors import ConfigError
from ..faults.server import CellFault, cell_fault_plan
from ..obs.sketch import QuantileSketch
from ..obs.slo import SloTracker
from ..obs.tracer import current_tracer
from ..rng import seed_sequence
from ..units import fps_to_period_ms
from .admission import serving_slo_policy
from .cluster import (SHED_REASONS, ClusterConfig, ClusterReport,
                      ClusterSimulator, ReplicaSpec, RouterPolicy)
from .request import Request, schedule_arrivals

#: Quantiles surfaced in the fleet summary.
_SUMMARY_QUANTILES = (0.50, 0.99)


# -- partitioning -------------------------------------------------------------


def stream_cell(stream: int, num_cells: int) -> int:
    """The cell owning ``stream``: a stable CRC32 hash of the id.

    Stable across processes and Python invocations (unlike the salted
    builtin ``hash``), so every worker agrees on the partition.
    """
    if num_cells < 1:
        raise ConfigError(f"need >= 1 cell, got {num_cells}")
    if stream < 0:
        raise ConfigError(f"negative stream id {stream}")
    return zlib.crc32(f"stream-{stream}".encode("utf-8")) % num_cells


def cell_streams(num_streams: int, num_cells: int
                 ) -> Dict[int, List[int]]:
    """Partition ``range(num_streams)`` into cells (all cells keyed,
    possibly with empty lists)."""
    out: Dict[int, List[int]] = {c: [] for c in range(num_cells)}
    for s in range(num_streams):
        out[stream_cell(s, num_cells)].append(s)
    return out


# -- configuration ------------------------------------------------------------


@dataclass(frozen=True)
class AutoscalePolicy:
    """Epoch-synchronous scaling rule driven by SLO burn rates.

    Scale **up** by one replica per cell when the fleet-wide latency
    objective is burning (fast *and* slow window over threshold — the
    multi-window condition from :mod:`repro.obs.slo`).  Scale **down**
    by one only after ``cooldown_epochs`` consecutive calm epochs with
    pool utilisation below ``scale_down_util`` — the hysteresis that
    keeps a square-wave load from flapping the pool.
    """

    epoch_s: float = 1.0
    min_replicas: int = 1
    max_replicas: int = 3
    target: float = 0.99
    fast_s: float = 1.0
    slow_s: float = 5.0
    scale_down_util: float = 0.35
    cooldown_epochs: int = 2

    def __post_init__(self) -> None:
        if self.epoch_s <= 0:
            raise ConfigError("epoch must be positive")
        if not 1 <= self.min_replicas <= self.max_replicas:
            raise ConfigError(
                f"need 1 <= min_replicas <= max_replicas, got "
                f"[{self.min_replicas}, {self.max_replicas}]")
        if not 0.0 < self.target < 1.0:
            raise ConfigError("target must be in (0, 1)")
        if not 0.0 < self.fast_s < self.slow_s:
            raise ConfigError("need 0 < fast_s < slow_s")
        if not 0.0 < self.scale_down_util < 1.0:
            raise ConfigError("scale_down_util must be in (0, 1)")
        if self.cooldown_epochs < 1:
            raise ConfigError("cooldown_epochs must be >= 1")


@dataclass(frozen=True)
class FleetSimConfig:
    """Workload, partitioning, and scaling knobs for one fleet run.

    ``shards`` is *only* the worker-process count — it never appears
    in the simulation or the merged metrics, which is what makes
    shard-count invariance hold by construction.  ``ramp`` divides the
    run into equal segments with per-segment arrival-rate multipliers
    (the load ramp the autoscaler is judged against).
    """

    num_streams: int = 24
    num_cells: int = 4
    replicas_per_cell: Tuple[ReplicaSpec, ...] = (ReplicaSpec(),)
    frame_rate: float = 10.0
    duration_s: float = 10.0
    #: ``None`` means one frame period.
    deadline_ms: Optional[float] = None
    router: RouterPolicy = RouterPolicy.LEAST_LOADED
    max_retries: int = 4
    arrival_jitter_ms: float = 0.0
    ramp: Tuple[float, ...] = (1.0,)
    faults: Tuple[CellFault, ...] = ()
    autoscale: Optional[AutoscalePolicy] = None
    shards: int = 1
    seed: Optional[int] = None

    def __post_init__(self) -> None:
        if isinstance(self.router, str):
            object.__setattr__(self, "router",
                               RouterPolicy(self.router))
        object.__setattr__(self, "replicas_per_cell",
                           tuple(self.replicas_per_cell))
        object.__setattr__(self, "ramp",
                           tuple(float(m) for m in self.ramp))
        object.__setattr__(self, "faults", tuple(self.faults))
        if self.num_streams < 1:
            raise ConfigError("need at least one stream")
        if self.num_cells < 1:
            raise ConfigError("need at least one cell")
        if not self.replicas_per_cell:
            raise ConfigError("need at least one replica per cell")
        for spec in self.replicas_per_cell:
            if not isinstance(spec, ReplicaSpec):
                raise ConfigError(f"not a ReplicaSpec: {spec!r}")
        if self.frame_rate <= 0 or self.duration_s <= 0:
            raise ConfigError("bad workload parameters")
        if self.deadline_ms is not None and self.deadline_ms <= 0:
            raise ConfigError("deadline must be positive")
        if self.max_retries < 0:
            raise ConfigError("max_retries must be non-negative")
        if self.arrival_jitter_ms < 0:
            raise ConfigError("arrival jitter must be non-negative")
        if not self.ramp or any(m <= 0 for m in self.ramp):
            raise ConfigError("ramp multipliers must be positive")
        if self.shards < 1:
            raise ConfigError(f"need >= 1 shard, got {self.shards}")
        # Validates cell and replica coordinates of every fault.
        cell_fault_plan(self.faults, self.num_cells,
                        len(self.replicas_per_cell))

    @property
    def resolved_deadline_ms(self) -> float:
        if self.deadline_ms is not None:
            return self.deadline_ms
        return fps_to_period_ms(self.frame_rate)


# -- fleet arrival schedule ---------------------------------------------------


def _schedule(cfg: FleetSimConfig,
              streams: Sequence[int]) -> List[Request]:
    """Arrivals of ``streams`` under ``cfg``'s workload and ramp."""
    return schedule_arrivals(
        streams, cfg.num_streams, cfg.frame_rate, cfg.duration_s,
        cfg.resolved_deadline_ms, ramp=cfg.ramp,
        jitter_ms=cfg.arrival_jitter_ms, seed=cfg.seed)


def generate_fleet_arrivals(cfg: FleetSimConfig) -> List[Request]:
    """The full fleet arrival schedule — a pure function of the
    workload parameters and seed, identical in every worker.

    Without a ramp this is exactly :func:`~repro.serving.request.
    generate_arrivals`.
    """
    return _schedule(cfg, range(cfg.num_streams))


def cell_arrivals(cfg: FleetSimConfig, cell: int) -> List[Request]:
    """The slice of the fleet schedule owned by ``cell``, built from
    that cell's streams alone."""
    streams = cell_streams(cfg.num_streams, cfg.num_cells).get(cell, [])
    return _schedule(cfg, streams)


def active_cells(cfg: FleetSimConfig) -> List[int]:
    """Cells that own at least one stream, in canonical order."""
    return sorted(
        c for c, streams in
        cell_streams(cfg.num_streams, cfg.num_cells).items()
        if streams)


def _cell_seed(cfg: FleetSimConfig, cell: int) -> int:
    """Per-cell root seed, derived so cell fault/downtime RNG streams
    are mutually independent yet a pure function of (seed, cell)."""
    return int(seed_sequence(cfg.seed, "fleet-cell",
                             cell).generate_state(1)[0])


def cluster_config_for_cell(cfg: FleetSimConfig,
                            cell: int) -> ClusterConfig:
    """The cell's cluster config (arrivals are passed separately)."""
    streams = cell_streams(cfg.num_streams, cfg.num_cells)[cell]
    if not streams:
        raise ConfigError(f"cell {cell} owns no streams")
    plan = cell_fault_plan(cfg.faults, cfg.num_cells,
                           len(cfg.replicas_per_cell))
    return ClusterConfig(
        replicas=cfg.replicas_per_cell,
        num_streams=len(streams),
        frame_rate=cfg.frame_rate,
        duration_s=cfg.duration_s,
        deadline_ms=cfg.resolved_deadline_ms,
        router=cfg.router,
        max_retries=cfg.max_retries,
        faults=plan.get(cell, ()),
        seed=_cell_seed(cfg, cell))


def _cell_inputs(cfg: FleetSimConfig
                 ) -> Dict[int, Tuple[ClusterConfig, List[Request]]]:
    """Each active cell's cluster config and arrival schedule.

    Built once per run and shipped with every work item, so workers
    never rebuild them per scaling epoch.
    """
    return {c: (cluster_config_for_cell(cfg, c), cell_arrivals(cfg, c))
            for c in active_cells(cfg)}


# -- merge algebra ------------------------------------------------------------


@dataclass
class FleetReport:
    """Canonical merge of per-cell :class:`ClusterReport` results.

    Built only through :func:`merge_cell_reports`, which folds cells
    in sorted-id order — the merge is defined on the *keyed set* of
    cell results, so permutations and shard partitions of the inputs
    cannot change a byte of the output.
    """

    num_cells: int
    num_streams: int
    deadline_ms: float
    router: str
    cells: List[int] = field(default_factory=list)
    generated: int = 0
    admitted: int = 0
    completed: int = 0
    violations: int = 0
    shed: Dict[str, int] = field(
        default_factory=lambda: {r: 0 for r in SHED_REASONS})
    requeued_on_crash: int = 0
    retries: int = 0
    timeout_reroutes: int = 0
    hedged: int = 0
    hedge_wins: int = 0
    crashes: int = 0
    makespan_ms: float = 0.0
    sketch: QuantileSketch = field(default_factory=QuantileSketch)
    per_cell: Dict[int, dict] = field(default_factory=dict)
    replica_seconds: float = 0.0
    max_replicas_per_cell: int = 0
    autoscale_events: List[dict] = field(default_factory=list)

    @property
    def total_shed(self) -> int:
        return sum(self.shed.values())

    @property
    def lost_requests(self) -> int:
        return self.shed.get("retries_exhausted", 0)

    @property
    def violation_rate(self) -> float:
        if self.completed == 0:
            return 0.0
        return self.violations / self.completed

    @property
    def goodput_fps(self) -> float:
        if self.makespan_ms <= 0:
            return 0.0
        return 1000.0 * (self.completed - self.violations) \
            / self.makespan_ms

    def min_availability(self) -> float:
        return min((v["min_availability"]
                    for v in self.per_cell.values()), default=1.0)

    def conservation_holds(self) -> bool:
        """Fleet-wide request conservation (same contract as the
        per-cell :meth:`ClusterReport.conservation_holds`)."""
        return (self.generated == self.completed + self.total_shed
                and self.admitted == self.completed
                + self.lost_requests)

    def summary(self) -> Dict:
        """JSON-able merged metrics.  Deliberately excludes the shard
        count: two runs differing only in ``shards`` must produce
        byte-identical summaries."""
        out: Dict = {
            "num_cells": self.num_cells,
            "num_streams": self.num_streams,
            "cells": list(self.cells),
            "router": self.router,
            "deadline_ms": self.deadline_ms,
            "generated": self.generated,
            "admitted": self.admitted,
            "completed": self.completed,
            "violations": self.violations,
            "violation_rate": self.violation_rate,
            "shed": {k: v for k, v in sorted(self.shed.items())},
            "lost_requests": self.lost_requests,
            "goodput_fps": self.goodput_fps,
            "min_availability": self.min_availability(),
            "crashes": self.crashes,
            "requeued_on_crash": self.requeued_on_crash,
            "retries": self.retries,
            "timeout_reroutes": self.timeout_reroutes,
            "hedged": self.hedged,
            "hedge_wins": self.hedge_wins,
            "makespan_ms": self.makespan_ms,
            "replica_seconds": self.replica_seconds,
            "max_replicas_per_cell": self.max_replicas_per_cell,
            "autoscale_events": list(self.autoscale_events),
            "per_cell": {str(c): dict(v) for c, v in
                         sorted(self.per_cell.items())},
        }
        for q in _SUMMARY_QUANTILES:
            key = f"p{int(q * 100)}_ms"
            out[key] = self.sketch.quantile(q) if self.sketch.count \
                else None
        return out


def merge_cell_sketches(
        sketches: Dict[int, QuantileSketch]) -> QuantileSketch:
    """Fold per-cell sketches in sorted-cell order.

    Sorting first is the whole algebra: ``QuantileSketch.merge`` is
    associative and commutative up to observable state, but float
    summation is not bit-associative — so the merge is defined on the
    *keyed set* of cell results and always folds in one canonical
    order.  Workers ship raw per-cell results (never partial merges),
    making the fold independent of permutation, partitioning, and
    scheduling of the inputs: byte-identical for any shard count.
    """
    out = QuantileSketch()
    for cell in sorted(sketches):
        out = out.merge(sketches[cell])
    return out


def merge_cell_reports(
        cfg: FleetSimConfig,
        reports: Dict[int, Union[ClusterReport, dict]]) -> FleetReport:
    """Merge per-cell reports into one :class:`FleetReport`.

    Accepts either live :class:`ClusterReport` objects or their
    ``asdict`` payloads (the cross-process form).  Cells are folded in
    sorted order regardless of dict insertion order.
    """
    with current_tracer().span("fleet.merge", cells=len(reports)):
        return _merge_cell_reports(cfg, reports)


def _merge_cell_reports(
        cfg: FleetSimConfig,
        reports: Dict[int, Union[ClusterReport, dict]]) -> FleetReport:
    partition = cell_streams(cfg.num_streams, cfg.num_cells)
    fleet = FleetReport(
        num_cells=cfg.num_cells, num_streams=cfg.num_streams,
        deadline_ms=cfg.resolved_deadline_ms,
        router=cfg.router.value, cells=sorted(reports))
    for cell in sorted(reports):
        raw = reports[cell]
        rep = raw if isinstance(raw, ClusterReport) \
            else ClusterReport(**raw)
        fleet.generated += rep.generated
        fleet.admitted += rep.admitted
        fleet.completed += rep.completed
        fleet.violations += rep.violations
        for reason, n in rep.shed.items():
            fleet.shed[reason] = fleet.shed.get(reason, 0) + n
        fleet.requeued_on_crash += rep.requeued_on_crash
        fleet.retries += rep.retries
        fleet.timeout_reroutes += rep.timeout_reroutes
        fleet.hedged += rep.hedged
        fleet.hedge_wins += rep.hedge_wins
        fleet.crashes += sum(rep.replica_crashes.values())
        fleet.makespan_ms = max(fleet.makespan_ms, rep.makespan_ms)
        cell_sketch = QuantileSketch()
        for v in rep.latencies_ms:
            cell_sketch.observe(float(v))
        fleet.sketch = fleet.sketch.merge(cell_sketch)
        fleet.per_cell[cell] = {
            "streams": len(partition[cell]),
            "generated": rep.generated,
            "completed": rep.completed,
            "lost_requests": rep.lost_requests,
            "crashes": sum(rep.replica_crashes.values()),
            "min_availability": rep.min_availability(),
            "p99_ms": cell_sketch.quantile(0.99)
            if cell_sketch.count else None,
        }
    return fleet


# -- autoscaler ---------------------------------------------------------------


class Autoscaler:
    """Replays merged fleet completions through the SLO burn windows
    and emits one scaling decision per epoch.

    Pure function of the observation stream: feeding the same merged
    telemetry in the same order always yields the same decisions —
    which, combined with the canonical merge, makes scaling behaviour
    shard-count invariant.
    """

    def __init__(self, policy: AutoscalePolicy,
                 deadline_ms: float) -> None:
        if deadline_ms <= 0:
            raise ConfigError("deadline must be positive")
        self.policy = policy
        self.tracker = SloTracker(serving_slo_policy(
            deadline_ms, target=policy.target,
            fast_s=policy.fast_s, slow_s=policy.slow_s))
        self._calm = 0
        self.decisions: List[dict] = []

    def observe(self, latency_ms: float, now_s: float) -> None:
        """Feed one merged completion (must arrive time-ordered)."""
        self.tracker.record_latency(latency_ms, now_s)

    def observe_shed(self, count: int, now_s: float) -> None:
        """Feed requests shed this epoch as latency-SLO violations.

        A shed request is an infinite-latency outcome: admission
        control turning load away must burn the same error budget a
        deadline miss does, or door-shedding would mask overload from
        the scaler entirely.
        """
        for _ in range(count):
            self.tracker.record_event("latency_e2e", False, now_s)

    def decide(self, now_s: float, replicas_per_cell: int,
               utilization: float) -> int:
        """The per-cell replica delta for the next epoch: +1, 0, -1.

        Scale-up needs the burn alert (fast AND slow window over
        threshold); scale-down needs ``cooldown_epochs`` consecutive
        calm epochs *and* utilisation below the policy floor.
        """
        pol = self.policy
        status = self.tracker.status(now_s)
        burning = status.burning
        delta = 0
        if burning:
            self._calm = 0
            if replicas_per_cell < pol.max_replicas:
                delta = 1
        else:
            self._calm += 1
            if self._calm >= pol.cooldown_epochs \
                    and utilization < pol.scale_down_util \
                    and replicas_per_cell > pol.min_replicas:
                delta = -1
                self._calm = 0
        self.decisions.append({
            "t_ms": now_s * 1000.0,
            "burning": burning,
            "utilization": utilization,
            "replicas_per_cell": replicas_per_cell + delta,
            "action": {1: "add", 0: "hold", -1: "drain"}[delta],
        })
        return delta


# -- execution ----------------------------------------------------------------


def _map_cells(task, items: List[tuple], shards: int) -> List[dict]:
    """Run cell tasks over ``shards`` workers.

    Always routed through :func:`~repro.bench.parallel.parallel_map`
    (which runs in-process for one worker or few items) so the traced
    span tree — ``map_item`` wrappers included — has the same shape
    for every shard count: the profile analogue of the merged-metrics
    shard invariance.
    """
    from ..bench.parallel import parallel_map
    return parallel_map(task, items, workers=shards)


def _cell_task(item: tuple) -> dict:
    """Worker body: run one cell start-to-drain (module-level so the
    process pool can pickle it)."""
    cell, ccfg, arrivals = item
    with current_tracer().span("fleet.cell", cell=cell):
        report = ClusterSimulator(ccfg, arrivals=arrivals).run()
    return {"cell": cell, "report": asdict(report)}


def _cell_epoch_task(item: tuple) -> dict:
    """Worker body: advance one cell by one scaling epoch.

    Restores the cell from its snapshot (or cold-starts it), applies
    the fleet-wide scale instruction, runs to the epoch boundary
    (``pause_ms=None`` drains to empty), and ships back the new
    snapshot plus this epoch's completion telemetry.
    """
    cell, ccfg, arrivals, snap, instruction, pause_ms = item
    if snap is None:
        sim = ClusterSimulator(ccfg, arrivals=arrivals)
        n0, busy0, shed0 = 0, 0.0, 0
    else:
        sim = ClusterSimulator.restore(ccfg, snap, arrivals=arrivals)
        rep0 = sim.live_report
        n0 = len(rep0.latencies_ms)
        busy0 = sum(rep0.replica_busy_ms.values())
        shed0 = sum(rep0.shed.values())
    if instruction == "add":
        sim.add_replica(ccfg.replicas[0])
    elif instruction == "drain":
        sim.drain_replica(sim.active_indices()[-1])
    final = sim.run(pause_at_ms=pause_ms)
    rep = sim.live_report
    events = [[rep.completion_ms[i], rep.latencies_ms[i]]
              for i in range(n0, len(rep.completion_ms))]
    return {
        "cell": cell,
        "events": events,
        "busy_delta": sum(rep.replica_busy_ms.values()) - busy0,
        "shed_delta": sum(rep.shed.values()) - shed0,
        "active_replicas": sim.active_replicas,
        "report": asdict(rep) if final is not None else None,
        "snapshot": sim.snapshot() if final is None else None,
    }


class FleetSimulator:
    """Run a sharded fleet simulation and merge the results.

    Without autoscaling every cell runs start-to-drain in one worker
    task; with it, the run proceeds in lock-step scaling epochs —
    every epoch each cell advances to the boundary in a worker, the
    parent merges the epoch's completion telemetry canonically, asks
    the :class:`Autoscaler` for a decision, and broadcasts it as the
    next epoch's instruction.
    """

    def __init__(self, config: Optional[FleetSimConfig] = None
                 ) -> None:
        self.config = config if config is not None \
            else FleetSimConfig()

    def run(self) -> FleetReport:
        cfg = self.config
        if cfg.autoscale is None:
            return self._run_flat()
        return self._run_autoscaled()

    def _run_flat(self) -> FleetReport:
        cfg = self.config
        inputs = _cell_inputs(cfg)
        results = _map_cells(
            _cell_task, [(c, *inputs[c]) for c in sorted(inputs)],
            cfg.shards)
        reports = {r["cell"]: r["report"] for r in results}
        fleet = merge_cell_reports(cfg, reports)
        fleet.replica_seconds = (len(cfg.replicas_per_cell)
                                 * len(inputs) * cfg.duration_s)
        fleet.max_replicas_per_cell = len(cfg.replicas_per_cell)
        return fleet

    def _run_autoscaled(self) -> FleetReport:
        cfg = self.config
        pol = cfg.autoscale
        assert pol is not None
        inputs = _cell_inputs(cfg)
        cells = sorted(inputs)
        scaler = Autoscaler(pol, cfg.resolved_deadline_ms)
        epoch_ms = pol.epoch_s * 1000.0
        n_epochs = int(math.ceil(cfg.duration_s * 1000.0 / epoch_ms))
        snaps: Dict[int, Optional[dict]] = {c: None for c in cells}
        reports: Dict[int, dict] = {}
        instruction: Optional[str] = None
        count = len(cfg.replicas_per_cell)
        replica_seconds = 0.0
        # Epochs 0..n_epochs-1 pause at their boundary; the final
        # round (pause None) drains the tail past the horizon.
        for k in range(n_epochs + 1):
            pending = [c for c in cells if c not in reports]
            if not pending:
                break
            pause = None if k == n_epochs else (k + 1) * epoch_ms
            items = [(c, *inputs[c], snaps[c], instruction, pause)
                     for c in pending]
            results = _map_cells(_cell_epoch_task, items, cfg.shards)
            results.sort(key=lambda r: r["cell"])
            # Canonical event order: time-major, sorted-cell minor
            # (the sort is stable and per-cell events are already
            # time-ordered) — identical for any shard count.
            merged = sorted((e for r in results for e in r["events"]),
                            key=lambda e: e[0])
            for t_ms, latency_ms in merged:
                scaler.observe(latency_ms, t_ms / 1000.0)
            active_total = 0
            busy_total = 0.0
            shed_total = 0
            for r in results:
                active_total += r["active_replicas"]
                busy_total += r["busy_delta"]
                shed_total += r["shed_delta"]
                if r["report"] is not None:
                    reports[r["cell"]] = r["report"]
                else:
                    snaps[r["cell"]] = r["snapshot"]
            if pause is None:
                break
            replica_seconds += active_total * pol.epoch_s
            scaler.observe_shed(shed_total, pause / 1000.0)
            if k >= n_epochs - 1:
                instruction = None
                continue
            utilization = busy_total / (epoch_ms * active_total) \
                if active_total else 0.0
            delta = scaler.decide(pause / 1000.0, count, utilization)
            count += delta
            instruction = {1: "add", 0: None, -1: "drain"}[delta]
        fleet = merge_cell_reports(cfg, reports)
        fleet.replica_seconds = replica_seconds
        fleet.autoscale_events = list(scaler.decisions)
        fleet.max_replicas_per_cell = max(
            [len(cfg.replicas_per_cell)]
            + [d["replicas_per_cell"] for d in scaler.decisions])
        return fleet
