"""SLO-burn autoscaler and the elastic replica pool under it.

Unit-level: the scaling rule (burn-triggered scale-up, hysteretic
scale-down, no flapping on a square wave) replayed over synthetic
telemetry.  Integration-level: the elastic pool operations the scaler
rides — ``add_replica`` / ``drain_replica`` mid-run, the v2 snapshot
carrying the live pool — and the determinism of full autoscaled fleet
runs, decisions included.
"""

import json
from collections import Counter
from unittest import mock

import pytest

from repro.errors import BenchmarkError, ConfigError
from repro.latency.batching import BatchingModel
from repro.serving import (AutoscalePolicy, Autoscaler, ClusterConfig,
                           ClusterSimulator, FleetSimConfig,
                           FleetSimulator, ReplicaSpec)
from repro.serving import fleet as fleet_mod

SPEC = ReplicaSpec("yolov8-n", "orin-nano")
DEADLINE_MS = 100.0
POLICY = AutoscalePolicy(epoch_s=1.0, min_replicas=1, max_replicas=3,
                         cooldown_epochs=2, scale_down_util=0.5)


def feed_epoch(scaler: Autoscaler, epoch: int, bad: bool,
               n: int = 60) -> None:
    """One epoch of synthetic completions: 30% violations when bad."""
    for i in range(n):
        t_s = epoch + i / n
        late = bad and i % 10 < 3
        scaler.observe(DEADLINE_MS * (3.0 if late else 0.3), t_s)


class TestAutoscalerRule:
    def test_scale_up_on_fast_and_slow_burn(self):
        scaler = Autoscaler(POLICY, DEADLINE_MS)
        feed_epoch(scaler, 0, bad=True)
        assert scaler.decide(1.0, replicas_per_cell=1,
                             utilization=0.9) == 1
        assert scaler.decisions[-1]["action"] == "add"
        assert scaler.decisions[-1]["burning"]

    def test_no_scale_up_beyond_ceiling(self):
        scaler = Autoscaler(POLICY, DEADLINE_MS)
        feed_epoch(scaler, 0, bad=True)
        assert scaler.decide(1.0, POLICY.max_replicas, 0.9) == 0
        assert scaler.decisions[-1]["action"] == "hold"

    def test_shed_requests_burn_the_budget(self):
        # Door-shedding must not mask overload: sheds alone trip the
        # same burn alert deadline misses do.
        scaler = Autoscaler(POLICY, DEADLINE_MS)
        feed_epoch(scaler, 0, bad=False, n=40)
        scaler.observe_shed(20, 1.0)
        assert scaler.decide(1.0, replicas_per_cell=1,
                             utilization=0.9) == 1

    def test_scale_down_needs_cooldown_and_low_util(self):
        scaler = Autoscaler(POLICY, DEADLINE_MS)
        feed_epoch(scaler, 0, bad=False)
        assert scaler.decide(1.0, 3, utilization=0.1) == 0
        feed_epoch(scaler, 1, bad=False)
        assert scaler.decide(2.0, 3, utilization=0.1) == -1
        assert scaler.decisions[-1]["action"] == "drain"

    def test_no_scale_down_when_busy(self):
        scaler = Autoscaler(POLICY, DEADLINE_MS)
        for epoch in range(4):
            feed_epoch(scaler, epoch, bad=False)
            assert scaler.decide(epoch + 1.0, 3,
                                 utilization=0.9) == 0

    def test_no_scale_down_below_floor(self):
        scaler = Autoscaler(POLICY, DEADLINE_MS)
        for epoch in range(4):
            feed_epoch(scaler, epoch, bad=False)
            assert scaler.decide(epoch + 1.0, POLICY.min_replicas,
                                 utilization=0.0) == 0

    def test_square_wave_never_flaps(self):
        # Alternating hot/calm epochs: the calm streak never reaches
        # the cooldown, so the pool must never drain mid-oscillation.
        scaler = Autoscaler(POLICY, DEADLINE_MS)
        count = 2
        for epoch in range(8):
            feed_epoch(scaler, epoch, bad=(epoch % 2 == 0))
            count += scaler.decide(epoch + 1.0, count,
                                   utilization=0.2)
        assert "drain" not in [d["action"] for d in scaler.decisions]

    def test_decisions_are_deterministic(self):
        def run():
            scaler = Autoscaler(POLICY, DEADLINE_MS)
            count = 1
            for epoch in range(6):
                feed_epoch(scaler, epoch, bad=(epoch < 3))
                count += scaler.decide(epoch + 1.0, count, 0.4)
            return scaler.decisions
        assert json.dumps(run()) == json.dumps(run())

    def test_policy_validation(self):
        with pytest.raises(ConfigError):
            AutoscalePolicy(epoch_s=0.0)
        with pytest.raises(ConfigError):
            AutoscalePolicy(min_replicas=3, max_replicas=1)
        with pytest.raises(ConfigError):
            AutoscalePolicy(target=1.5)
        with pytest.raises(ConfigError):
            AutoscalePolicy(fast_s=5.0, slow_s=1.0)
        with pytest.raises(ConfigError):
            AutoscalePolicy(scale_down_util=0.0)
        with pytest.raises(ConfigError):
            AutoscalePolicy(cooldown_epochs=0)
        with pytest.raises(ConfigError):
            Autoscaler(POLICY, deadline_ms=0.0)


def cluster_config(**extra) -> ClusterConfig:
    base = dict(replicas=(SPEC, SPEC), num_streams=4, frame_rate=5.0,
                duration_s=3.0, deadline_ms=DEADLINE_MS, seed=7)
    base.update(extra)
    return ClusterConfig(**base)


class TestElasticPool:
    def test_add_replica_mid_run(self):
        sim = ClusterSimulator(cluster_config())
        assert sim.run(pause_at_ms=1000.0) is None
        idx = sim.add_replica(SPEC)
        assert idx == 2
        assert sim.active_replicas == 3
        rep = sim.resume()
        assert rep.conservation_holds()
        assert len(rep.replicas) == 3

    def test_drain_never_drops_in_flight(self):
        sim = ClusterSimulator(cluster_config())
        assert sim.run(pause_at_ms=1000.0) is None
        sim.drain_replica(1)
        assert sim.active_indices() == [0]
        rep = sim.resume()
        assert rep.conservation_holds()
        assert rep.lost_requests == 0
        assert rep.completed == rep.admitted

    def test_drained_replica_stops_accepting(self):
        sim = ClusterSimulator(cluster_config())
        assert sim.run(pause_at_ms=1000.0) is None
        completed_before = sim.live_report.replica_completed[1]
        queued = sim.drain_replica(1)
        assert queued >= 0
        rep = sim.resume()
        # Only work already dispatched to the retiring replica (its
        # in-flight batch) may still complete there.
        assert rep.replica_completed[1] - completed_before \
            <= rep.batch_sizes[-1] if rep.batch_sizes else True

    def test_drain_then_add_round_trip(self):
        sim = ClusterSimulator(cluster_config())
        assert sim.run(pause_at_ms=800.0) is None
        sim.drain_replica(0)
        sim.add_replica(SPEC)
        assert sim.active_indices() == [1, 2]
        rep = sim.resume()
        assert rep.conservation_holds()
        assert rep.lost_requests == 0

    def test_drain_guards(self):
        sim = ClusterSimulator(cluster_config())
        with pytest.raises(BenchmarkError):
            sim.drain_replica(0)  # not started
        assert sim.run(pause_at_ms=500.0) is None
        with pytest.raises(BenchmarkError):
            sim.drain_replica(9)
        sim.drain_replica(1)
        assert sim.drain_replica(1) == 0  # idempotent

    def test_snapshot_v2_carries_live_pool(self):
        sim = ClusterSimulator(cluster_config())
        assert sim.run(pause_at_ms=1000.0) is None
        sim.add_replica(SPEC)
        sim.drain_replica(0)
        snap = json.loads(json.dumps(sim.snapshot()))
        assert snap["schema"] == 2
        assert len(snap["specs"]) == 3
        assert [r["retiring"] for r in snap["replicas"]] \
            == [True, False, False]
        restored = ClusterSimulator.restore(cluster_config(), snap)
        direct = sim.resume()
        resumed = restored.resume()
        assert json.dumps(resumed.summary(), sort_keys=True) \
            == json.dumps(direct.summary(), sort_keys=True)


def fleet_config(**extra) -> FleetSimConfig:
    base = dict(num_streams=8, num_cells=4, frame_rate=5.0,
                duration_s=4.0, deadline_ms=DEADLINE_MS, seed=7,
                ramp=(1.0, 3.0, 3.0, 1.0), replicas_per_cell=(SPEC,),
                autoscale=AutoscalePolicy(epoch_s=1.0, min_replicas=1,
                                          max_replicas=3))
    base.update(extra)
    return FleetSimConfig(**base)


class TestAutoscaledFleet:
    def test_autoscaled_fleet_conserves_and_records_decisions(self):
        fleet = FleetSimulator(fleet_config()).run()
        assert fleet.conservation_holds()
        assert fleet.lost_requests == 0
        assert fleet.autoscale_events
        assert fleet.replica_seconds > 0

    def test_autoscaled_fleet_rerun_byte_identical(self):
        a = FleetSimulator(fleet_config()).run()
        b = FleetSimulator(fleet_config()).run()
        assert json.dumps(a.summary(), sort_keys=True) \
            == json.dumps(b.summary(), sort_keys=True)

    def test_autoscaled_fleet_shard_invariant(self):
        # The acceptance claim for the autoscaled path: scaling
        # decisions are computed from merged telemetry, so they are
        # identical — byte for byte — for 1 vs 4 worker shards.
        one = FleetSimulator(fleet_config(shards=1)).run()
        four = FleetSimulator(fleet_config(shards=4)).run()
        assert json.dumps(one.summary(), sort_keys=True) \
            == json.dumps(four.summary(), sort_keys=True)
        assert one.autoscale_events == four.autoscale_events

    def test_cell_inputs_and_batch_caps_built_once(self):
        # Per-epoch rebuilds of a cell's schedule, or a batch-cap scan
        # per replica on every restore, once dominated a fleet run.
        # Two identical replicas: every pool, restored ones included,
        # repeats a spec.
        cfg = fleet_config(replicas_per_cell=(SPEC, SPEC))
        scan = BatchingModel.best_batch_under_deadline
        with mock.patch.object(fleet_mod, "cell_arrivals",
                               wraps=fleet_mod.cell_arrivals) as built, \
                mock.patch.object(BatchingModel,
                                  "best_batch_under_deadline",
                                  autospec=True,
                                  side_effect=scan) as scans, \
                mock.patch.object(ClusterSimulator, "restore",
                                  wraps=ClusterSimulator.restore) \
                as restores:
            FleetSimulator(cfg).run()
        assert restores.call_count > 0
        cells = Counter(call.args[1] for call in built.call_args_list)
        assert sorted(cells) == fleet_mod.active_cells(cfg)
        assert set(cells.values()) == {1}
        # One BatchingModel per simulator; the recorded calls keep each
        # one alive, so its id names one simulator for the whole run.
        per_sim = Counter(
            (id(call.args[0]),) + call.args[1:]
            + tuple(sorted(call.kwargs.items()))
            for call in scans.call_args_list)
        assert per_sim and set(per_sim.values()) == {1}
