"""Experiment: dynamic-batching serving under load (repro.serving).

Sweeps offered load (number of 10 FPS drone streams) across admission
policies on one workstation GPU (a one-replica
:class:`~repro.serving.cluster.ClusterSimulator`) and cross-validates
the discrete-event simulator against the analytic
:class:`BatchingModel`:

* at low load every policy is violation-free — the deadline-aware
  batcher waits out its slack and ships small batches;
* at 2× the server's saturation throughput, admitting everything
  (``none``) drives admitted-request p99 to tens of frame periods,
  while predictive shedding (``full``) keeps admitted p99 inside the
  deadline at full-capacity goodput;
* reactive burn-only shedding (``slo``) recovers *after* violations
  accumulate — strictly worse than predictive screening, which is the
  Clipper/MArk argument for deadline-aware admission;
* round-robin batch formation keeps every stream served under
  overload (no starvation);
* saturated with a batch cap of 8 (every batch full), the simulator's
  measured per-frame execution latency reproduces
  ``BatchingModel.batch_point`` within 1 %.
"""

from __future__ import annotations

from ...hardware.registry import device_spec
from ...latency.batching import BatchingModel
from ...models.spec import model_spec
from ...serving import ClusterConfig, ClusterSimulator, ReplicaSpec
from ..runner import ExperimentResult

MODEL = "yolov8-m"
DEVICE = "rtx4090"
STREAM_SWEEP = (4, 12, 32)          # light / near-capacity / 2x overload
POLICIES = ("none", "slo", "full")
CROSS_VALIDATION_BATCH = 8


def run(duration_s: float = 10.0) -> ExperimentResult:
    rows = []
    reports = {}
    for streams in STREAM_SWEEP:
        for policy in POLICIES:
            cfg = ClusterConfig(
                replicas=(ReplicaSpec(model=MODEL, device=DEVICE),),
                num_streams=streams, admission=policy,
                duration_s=duration_s)
            rep = ClusterSimulator(cfg).run()
            reports[(streams, policy)] = rep
            rows.append([streams, cfg.offered_rps, policy,
                         rep.admitted_fraction, rep.violation_rate,
                         rep.p99_ms, rep.throughput_fps,
                         rep.mean_batch])

    # Cross-validation: saturate a server capped at the batch size (so
    # every batch is full) and compare the measured per-frame execution
    # latency against the analytic model.
    saturated = ClusterSimulator(ClusterConfig(
        replicas=(ReplicaSpec(model=MODEL, device=DEVICE,
                              queue_capacity=512,
                              max_batch=CROSS_VALIDATION_BATCH),),
        num_streams=16, admission="none",
        duration_s=duration_s)).run()
    point = BatchingModel().batch_point(
        model_spec(MODEL), device_spec(DEVICE),
        CROSS_VALIDATION_BATCH)
    agreement_pct = 100.0 * abs(
        saturated.exec_per_frame_ms - point.per_frame_ms) \
        / point.per_frame_ms

    low, over = STREAM_SWEEP[0], STREAM_SWEEP[-1]
    shed_over = reports[(over, "full")]
    noshed_over = reports[(over, "none")]
    burn_over = reports[(over, "slo")]
    deadline = shed_over.deadline_ms
    counts = list(shed_over.per_stream_completed.values())
    fairness = min(counts) / (sum(counts) / len(counts))
    claims = {
        "every request is conserved (admitted = completed + shed)":
            all(r.conservation_holds() for r in reports.values()),
        "low load is violation-free even without shedding":
            reports[(low, "none")].violation_rate < 0.01,
        "2x overload without shedding blows the deadline SLO":
            noshed_over.violation_rate > 0.5,
        "predictive shedding keeps admitted p99 inside the deadline":
            shed_over.p99_ms <= deadline + 1e-9
            and shed_over.violation_rate < 0.01,
        "shedding preserves goodput at overload":
            shed_over.throughput_fps
            >= 0.95 * noshed_over.throughput_fps,
        "reactive burn-only shedding is worse than predictive":
            burn_over.violation_rate > shed_over.violation_rate,
        "round-robin batching starves no stream under overload":
            fairness >= 0.5,
        "fixed-batch simulation matches BatchingModel within 1%":
            agreement_pct < 1.0,
    }
    return ExperimentResult(
        experiment_id="exp_serving",
        title="Serving: dynamic batching, admission control, shedding",
        headers=["Streams", "Offered rps", "Policy", "Admitted frac",
                 "Violation rate", "p99 (ms)", "Throughput (fps)",
                 "Mean batch"],
        rows=rows,
        claims=claims,
        paper_reference={"overload_shed_violation_rate": 0.0,
                         "batch_model_agreement_pct": 0.0},
        measured={"overload_shed_violation_rate":
                  shed_over.violation_rate,
                  "batch_model_agreement_pct": agreement_pct,
                  "overload_shed_p99_ms": shed_over.p99_ms,
                  "overload_noshed_p99_ms": noshed_over.p99_ms},
    )
