"""Continuous-bench performance trajectory (``repro bench-track``).

A trajectory point is one ``BENCH_<label>.json`` file: the cumulative
quantile-sketch snapshots of a fixed probe suite — simulated latency
runs over the paper's model/device grid corners plus a fleet-scheduler
response probe recorded through the telemetry bus.  Every probe is
driven by seeded RNG streams and the injected simulation clock, so the
same tree produces byte-identical points; no timestamps are embedded.

``compare_points`` then gates on regression: if the new point's p99 for
any shared probe exceeds the baseline's by more than the tolerance, the
run fails.  CI runs this as a smoke job against a committed baseline,
turning "the benchmark got slower" into a reviewable diff instead of a
silent drift.
"""

from __future__ import annotations

import glob
import json
import os
from typing import Dict, List, Optional, Tuple

from ..core.fleet import FleetConfig, FleetScheduler, SchedulingPolicy
from ..errors import BenchmarkError
from ..io.jsonio import dump_json
from ..latency.runtime import SimulatedRuntime
from ..obs import Aggregator, QuantileSketch, TelemetryBus, use_telemetry
from ..serving import (ClusterConfig, ClusterSimulator, ReplicaSpec,
                       default_chaos_faults)

SCHEMA_VERSION = 1
DEFAULT_OUT_DIR = "bench_trajectory"
DEFAULT_MAX_REGRESS_PCT = 10.0
#: The gated metric: tail latency is what the 33 ms budget cares about.
REGRESSION_METRIC = "p99"

#: Model/device corners of the paper's grid: smallest and largest
#: variant on the weakest edge board and the workstation GPU.
LATENCY_PROBES: Tuple[Tuple[str, str], ...] = (
    ("yolov8-n", "orin-nano"),
    ("yolov8-n", "rtx4090"),
    ("yolov11-m", "orin-nano"),
    ("yolov11-m", "rtx4090"),
)

#: Serving probes: one dynamic-batching server at 2x overload with
#: predictive shedding (admitted-request e2e latency, p99-gated) and a
#: saturated run of full batches whose per-frame execution time is the
#: inverse of serving throughput — so a throughput regression trips the
#: p99 gate from the correct direction.
SERVING_MODEL = "yolov8-m"
SERVING_DEVICE = "rtx4090"
SERVING_OVERLOAD_STREAMS = 32
SERVING_FIXED_BATCH = 8

#: Chaos probes: the 2-replica cluster under the canned fault ladder
#: (crash + slowdown).  Gated on the e2e tail under faults and on the
#: failover recovery time (last requeued-victim completion minus the
#: crash instant) — a failover regression trips the p99 gate.
CHAOS_REPLICAS = 2
CHAOS_SEED = 7

#: Sharded-fleet probe: the merged e2e tail of a small cell-sharded
#: fleet (deterministic — the merge is byte-identical for any shard
#: count, so the probe never depends on worker scheduling).
FLEET_CELLS = 4
FLEET_STREAMS = 8


def _fleet_sim_config(shards: int = 1):
    from ..serving import FleetSimConfig, ReplicaSpec
    return FleetSimConfig(
        num_streams=FLEET_STREAMS, num_cells=FLEET_CELLS,
        replicas_per_cell=(ReplicaSpec("yolov8-n", "orin-nano"),),
        frame_rate=5.0, duration_s=3.0, deadline_ms=100.0,
        seed=CHAOS_SEED, shards=shards)


def run_suite(n_frames: int = 150, fleet_drones: int = 8,
              fleet_duration_s: float = 5.0) -> Dict[str, dict]:
    """Run every probe; returns ``{probe name: sketch snapshot}``."""
    if n_frames < 1:
        raise BenchmarkError(f"n_frames must be >= 1, got {n_frames}")
    suite: Dict[str, dict] = {}
    runtime = SimulatedRuntime()
    for model, device in LATENCY_PROBES:
        run = runtime.run(model, device, n_frames)
        sketch = QuantileSketch()
        for v in run.samples_ms:
            sketch.observe(float(v))
        suite[f"latency/{model}@{device}"] = sketch.snapshot()

    bus = TelemetryBus(record=False)
    cfg = FleetConfig(num_drones=fleet_drones,
                      duration_s=fleet_duration_s)
    with use_telemetry(bus):
        FleetScheduler(cfg).run(SchedulingPolicy.ADAPTIVE)
    fleet = Aggregator(bus).fleet_sketch("e2e", 0.0, windowed=False)
    if fleet is not None and fleet.count:
        suite["fleet/e2e@adaptive"] = fleet.snapshot()

    # Serving probe 1: 2x overload with predictive shedding — the
    # admitted-request latency tail the deadline SLO is judged on.
    shed = ClusterSimulator(ClusterConfig(
        replicas=(ReplicaSpec(model=SERVING_MODEL,
                              device=SERVING_DEVICE),),
        num_streams=SERVING_OVERLOAD_STREAMS, admission="full",
        duration_s=fleet_duration_s)).run()
    sketch = QuantileSketch()
    for v in shed.latencies_ms:
        sketch.observe(float(v))
    suite[f"serving/e2e@{SERVING_OVERLOAD_STREAMS}x-full"] = \
        sketch.snapshot()

    # Serving probe 2: saturated full-batch per-frame execution time
    # (ms/frame = 1000 / throughput), one observation per batch.
    sim = ClusterSimulator(ClusterConfig(
        replicas=(ReplicaSpec(model=SERVING_MODEL,
                              device=SERVING_DEVICE, queue_capacity=512,
                              max_batch=SERVING_FIXED_BATCH),),
        num_streams=16, admission="none",
        duration_s=fleet_duration_s))
    saturated = sim.run()
    sketch = QuantileSketch()
    for b in saturated.batch_sizes:
        sketch.observe(sim.batch_latency_ms(0, b) / b)
    suite[f"serving/per_frame@b{SERVING_FIXED_BATCH}"] = \
        sketch.snapshot()

    # Chaos probes: replicated serving through the canned fault
    # ladder — e2e tail under faults, plus failover recovery time.
    chaos = ClusterSimulator(ClusterConfig(
        num_streams=SERVING_OVERLOAD_STREAMS // 2,
        duration_s=fleet_duration_s, seed=CHAOS_SEED,
        faults=default_chaos_faults(fleet_duration_s,
                                    CHAOS_REPLICAS))).run()
    sketch = QuantileSketch()
    for v in chaos.latencies_ms:
        sketch.observe(float(v))
    suite[f"serving/chaos_e2e@{CHAOS_REPLICAS}r"] = sketch.snapshot()
    sketch = QuantileSketch()
    for v in chaos.crash_recoveries_ms:
        sketch.observe(float(v))
    if sketch.count:
        suite[f"serving/failover_recovery@{CHAOS_REPLICAS}r"] = \
            sketch.snapshot()

    # Fleet probe: merged e2e tail over the cell-sharded fleet.  The
    # merged sketch is identical for any shard count, so the probe is
    # golden-safe even though cells may run in worker processes.
    from ..serving import FleetSimulator
    fleet_rep = FleetSimulator(_fleet_sim_config()).run()
    suite[f"fleet/merged_e2e@{FLEET_CELLS}c"] = \
        fleet_rep.sketch.snapshot()
    return suite


def point_path(out_dir: str, label: str) -> str:
    return os.path.join(out_dir, f"BENCH_{label}.json")


def write_point(out_dir: str, label: str,
                suite: Dict[str, dict]) -> str:
    """Write one trajectory point; returns its path.

    The payload holds no timestamps or environment detail — two runs of
    the same tree write byte-identical files, which is what the
    determinism tests pin.
    """
    if not label or any(c in label for c in "/\\"):
        raise BenchmarkError(f"bad trajectory label {label!r}")
    point = {"schema": SCHEMA_VERSION, "label": label,
             "metric": REGRESSION_METRIC, "suite": suite}
    return dump_json(point_path(out_dir, label), point)


def load_point(path: str) -> dict:
    if not os.path.exists(path):
        raise BenchmarkError(f"no trajectory point at {path}")
    with open(path, "r", encoding="utf-8") as fh:
        point = json.load(fh)
    if not isinstance(point, dict) or "suite" not in point:
        raise BenchmarkError(f"malformed trajectory point at {path}")
    return point


def previous_point(out_dir: str, label: str) -> Optional[str]:
    """The latest committed point other than ``label`` itself.

    Points are ordered by label (date-style labels sort
    chronologically); an explicit ``BENCH_baseline.json`` — the pinned
    CI reference — wins over dated points when present.
    """
    baseline = point_path(out_dir, "baseline")
    candidates = [p for p in sorted(glob.glob(
        os.path.join(out_dir, "BENCH_*.json")))
        if p != point_path(out_dir, label)]
    if not candidates:
        return None
    if baseline in candidates:
        return baseline
    return candidates[-1]


def compare_points(current: dict, baseline: dict,
                   max_regress_pct: float = DEFAULT_MAX_REGRESS_PCT
                   ) -> List[dict]:
    """Regressions of ``current`` vs ``baseline`` on the gated metric.

    Only probes present in both points are compared; each regression is
    ``{"probe", "baseline", "current", "regress_pct"}``.
    """
    if max_regress_pct < 0:
        raise BenchmarkError("regression tolerance must be >= 0")
    out: List[dict] = []
    base_suite = baseline.get("suite", {})
    for probe, snap in sorted(current.get("suite", {}).items()):
        base = base_suite.get(probe)
        if base is None:
            continue
        b = base.get(REGRESSION_METRIC)
        c = snap.get(REGRESSION_METRIC)
        if b is None or c is None or b <= 0:
            continue
        pct = 100.0 * (c - b) / b
        if pct > max_regress_pct:
            out.append({"probe": probe, "baseline": b, "current": c,
                        "regress_pct": pct})
    return out
