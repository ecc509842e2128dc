"""Experiment: replicated serving under injected server faults.

Runs the canned chaos ladder (replica crash with seeded restart
downtime + a thermal-throttle slowdown window) against the replicated
serving tier of :mod:`repro.serving.cluster` and machine-checks the
fault-tolerance story:

* **zero loss through a crash** — a 2-replica pool with least-loaded
  failover routing completes every admitted request across a replica
  crash (the queue and in-flight batch are requeued through the
  router), and chaos p99 stays within 2× of the nominal run;
* **replication is the load-bearing part** — the same ladder against
  a single server sheds arrivals during the downtime *and* kills
  requests whose retry budget expires with nowhere to go;
* **deadline-aware routing beats load-aware routing under faults** —
  the ``fastest`` policy routes around the throttled replica while
  ``least-loaded`` keeps feeding it and sheds at the door;
* **hedging wins races** — under a slowdown, quantile-triggered
  hedged re-dispatch completes on the healthy replica first without
  inflating p99;
* **the event loop is checkpointable** — ``snapshot()`` →
  ``restore()`` → ``resume()`` reproduces the uninterrupted chaos run
  byte-for-byte (through a JSON round-trip of the checkpoint), and
  chaos reruns are byte-identical (the downtime draw lives on a
  dedicated seeded RNG stream inside the loop state).
"""

from __future__ import annotations

import json

from ...faults.spec import FaultKind, FaultSpec
from ...serving import (ClusterConfig, ClusterSimulator, ReplicaSpec,
                        default_chaos_faults)
from ..runner import ExperimentResult

SEED = 7
DURATION_S = 10.0
ROUTERS = ("least-loaded", "round-robin", "fastest")
#: Pause instant for the checkpoint claim — inside the crash downtime.
CHECKPOINT_MS = 4500.0


def _summary_blob(summary: dict) -> str:
    return json.dumps(summary, sort_keys=True)


def _row(label: str, summary: dict) -> list:
    return [label, summary["router"], summary["generated"],
            summary["completed"], sum(summary["shed"].values()),
            summary["lost_requests"], summary["p99_ms"],
            summary["goodput_fps"],
            min(summary["availability"].values())]


def run(duration_s: float = DURATION_S) -> ExperimentResult:
    chaos = default_chaos_faults(duration_s, 2)
    rows = []

    nominal = ClusterSimulator(
        ClusterConfig(seed=SEED, duration_s=duration_s)).run()
    rows.append(_row("nominal", nominal.summary()))

    chaos_reports = {}
    for router in ROUTERS:
        cfg = ClusterConfig(seed=SEED, duration_s=duration_s,
                            faults=chaos, router=router)
        chaos_reports[router] = ClusterSimulator(cfg).run()
        rows.append(_row("chaos", chaos_reports[router].summary()))
    headline = chaos_reports["least-loaded"]

    single_cfg = ClusterConfig(
        replicas=(ReplicaSpec(),), seed=SEED, duration_s=duration_s,
        faults=default_chaos_faults(duration_s, 1))
    single = ClusterSimulator(single_cfg).run()
    rows.append(_row("chaos-single", single.summary()))

    slowdown = (FaultSpec(FaultKind.SERVER_SLOWDOWN, replica=0,
                          start_ms=200.0 * duration_s,
                          end_ms=600.0 * duration_s, magnitude=4.0),)
    plain = ClusterSimulator(ClusterConfig(
        seed=SEED, duration_s=duration_s, faults=slowdown,
        admission="none")).run()
    hedged = ClusterSimulator(ClusterConfig(
        seed=SEED, duration_s=duration_s, faults=slowdown,
        admission="none", hedge_quantile=0.95)).run()
    rows.append(_row("slowdown", plain.summary()))
    rows.append(_row("slowdown-hedged", hedged.summary()))

    # Determinism: an independent rerun of the headline chaos config.
    rerun = ClusterSimulator(ClusterConfig(
        seed=SEED, duration_s=duration_s, faults=chaos)).run()
    deterministic = _summary_blob(rerun.summary()) \
        == _summary_blob(headline.summary())

    # Checkpoint: pause inside the crash downtime, snapshot through a
    # JSON round-trip, restore into a fresh simulator, resume.
    ckpt_cfg = ClusterConfig(seed=SEED, duration_s=duration_s,
                             faults=chaos)
    paused = ClusterSimulator(ckpt_cfg)
    still_running = paused.run(
        pause_at_ms=CHECKPOINT_MS * duration_s / DURATION_S) is None
    blob = json.dumps(paused.snapshot(), sort_keys=True)
    resumed = ClusterSimulator.restore(ckpt_cfg,
                                       json.loads(blob)).resume()
    restore_identical = still_running and \
        _summary_blob(resumed.summary()) \
        == _summary_blob(headline.summary())

    all_reports = [nominal, single, plain, hedged] \
        + list(chaos_reports.values())
    claims = {
        "every run conserves requests (completed + shed = generated)":
            all(r.conservation_holds() for r in all_reports),
        "2-replica failover loses zero admitted requests in a crash":
            headline.lost_requests == 0
            and headline.requeued_on_crash > 0,
        "chaos p99 stays within 2x of nominal p99":
            headline.p99_ms <= 2.0 * nominal.p99_ms,
        "failover recovery is measured and beats the crash downtime":
            len(headline.crash_recoveries_ms) == 1
            and headline.crash_recoveries_ms[0] < headline.mttr_ms,
        "a single server under the same ladder loses requests":
            single.lost_requests > 0
            and single.shed["no_replica"] > 0,
        "deadline-aware routing sheds less than load-aware in chaos":
            chaos_reports["fastest"].total_shed
            < chaos_reports["least-loaded"].total_shed,
        "hedged re-dispatch wins races without inflating p99":
            hedged.hedge_wins > 0
            and hedged.p99_ms <= plain.p99_ms,
        "chaos reruns are byte-identical": deterministic,
        "snapshot/restore/resume is byte-identical to an "
        "uninterrupted run": restore_identical,
    }
    return ExperimentResult(
        experiment_id="exp_serving_chaos",
        title="Serving chaos: replica failover, hedging, checkpoints",
        headers=["Scenario", "Router", "Generated", "Completed",
                 "Shed", "Lost", "p99 (ms)", "Goodput (fps)",
                 "Min availability"],
        rows=rows,
        claims=claims,
        paper_reference={"chaos_lost_requests": 0.0,
                         "chaos_p99_over_nominal": 1.0},
        measured={"chaos_lost_requests": float(
                      headline.lost_requests),
                  "chaos_p99_over_nominal":
                      headline.p99_ms / nominal.p99_ms,
                  "chaos_p99_ms": headline.p99_ms,
                  "nominal_p99_ms": nominal.p99_ms,
                  "failover_recovery_ms":
                      headline.crash_recoveries_ms[0],
                  "mttr_ms": headline.mttr_ms,
                  "min_availability": headline.min_availability(),
                  "hedge_wins": float(hedged.hedge_wins)},
    )
