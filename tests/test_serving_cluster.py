"""Chaos-serving invariants: replica pools, failover, checkpointing.

The load-bearing guarantees of :mod:`repro.serving.cluster`:

* request conservation through crash/requeue (nothing lost silently);
* chaos runs are byte-identical across reruns (seeded downtime draws,
  total event order);
* ``snapshot()`` → ``restore()`` → ``resume()`` reproduces the
  uninterrupted run byte-for-byte, including through a JSON
  round-trip of the checkpoint;
* a 2-replica pool under the canned chaos ladder loses zero admitted
  requests and holds chaos p99 within 2× of nominal, while the same
  ladder kills requests on a single server (the point of replication).
"""

import json
import struct

import numpy as np
import pytest

from repro.errors import BenchmarkError, ConfigError
from repro.faults import (AdaptiveEnvelope, FaultInjector, FaultKind,
                          FaultSpec, ServerFaultStream)
from repro.obs import TelemetryBus, use_telemetry
from repro.serving import (ClusterConfig, ClusterSimulator,
                           MicroBatcher, ReplicaSpec, Request,
                           RouterPolicy, default_chaos_faults)
from repro.serving import cluster
from repro.serving.cluster import linear_quantile

CHAOS = default_chaos_faults(10.0, 2)


def run_summary(**kwargs):
    cfg = ClusterConfig(seed=7, **kwargs)
    return ClusterSimulator(cfg).run().summary()


@pytest.fixture(scope="module")
def nominal():
    return ClusterSimulator(ClusterConfig(seed=7)).run()


@pytest.fixture(scope="module")
def chaos():
    return ClusterSimulator(ClusterConfig(seed=7, faults=CHAOS)).run()


class TestServerFaultSpecs:
    def test_server_kinds_need_replica_and_windows(self):
        with pytest.raises(ConfigError):
            FaultSpec(FaultKind.SERVER_CRASH, magnitude=100.0)
        with pytest.raises(ConfigError):
            FaultSpec(FaultKind.SERVER_CRASH, replica=0,
                      magnitude=0.0)
        with pytest.raises(ConfigError):  # crash has no end window
            FaultSpec(FaultKind.SERVER_CRASH, replica=0,
                      magnitude=10.0, end_ms=5.0)
        with pytest.raises(ConfigError):  # slowdown must slow down
            FaultSpec(FaultKind.SERVER_SLOWDOWN, replica=0,
                      magnitude=0.5, end_ms=10.0)
        with pytest.raises(ConfigError):  # window must be ordered
            FaultSpec(FaultKind.SERVER_PARTITION, replica=0,
                      start_ms=10.0, end_ms=5.0)

    def test_frame_kinds_reject_server_fields(self):
        with pytest.raises(ConfigError):
            FaultSpec(FaultKind.SENSOR_DROPOUT, start_frame=0,
                      end_frame=10, probability=0.5, replica=1)

    def test_active_window_queries(self):
        spec = FaultSpec(FaultKind.SERVER_SLOWDOWN, replica=0,
                         start_ms=100.0, end_ms=200.0, magnitude=2.0)
        assert not spec.active_ms(99.9)
        assert spec.active_ms(100.0)
        assert spec.active_ms(199.9)
        assert not spec.active_ms(200.0)
        crash = FaultSpec(FaultKind.SERVER_CRASH, replica=1,
                          start_ms=50.0, magnitude=10.0)
        assert crash.label == "server_crash:r1"

    def test_frame_injector_rejects_server_kinds(self):
        spec = FaultSpec(FaultKind.SERVER_CRASH, replica=0,
                         start_ms=0.0, magnitude=10.0)
        with pytest.raises(ConfigError):
            FaultInjector([spec], seed=1)

    def test_stream_rejects_frame_kinds(self):
        frame = FaultSpec(FaultKind.SENSOR_DROPOUT, start_frame=0,
                          end_frame=10, probability=0.5)
        with pytest.raises(ConfigError):
            ServerFaultStream([frame])

    def test_stream_queries(self):
        specs = (
            FaultSpec(FaultKind.SERVER_CRASH, replica=0,
                      start_ms=200.0, magnitude=50.0),
            FaultSpec(FaultKind.SERVER_CRASH, replica=0,
                      start_ms=100.0, magnitude=50.0),
            FaultSpec(FaultKind.SERVER_SLOWDOWN, replica=1,
                      start_ms=0.0, end_ms=100.0, magnitude=2.0),
            FaultSpec(FaultKind.SERVER_SLOWDOWN, replica=1,
                      start_ms=50.0, end_ms=150.0, magnitude=3.0),
            FaultSpec(FaultKind.SERVER_PARTITION, replica=1,
                      start_ms=10.0, end_ms=20.0),
            FaultSpec(FaultKind.SERVER_PARTITION, replica=1,
                      start_ms=15.0, end_ms=30.0),
        )
        stream = ServerFaultStream(specs)
        crashes = stream.crash_schedule(0)
        assert [c.start_ms for c in crashes] == [100.0, 200.0]
        assert stream.crash_schedule(1) == []
        assert stream.slowdown(1, 75.0) == pytest.approx(6.0)
        assert stream.slowdown(1, 125.0) == pytest.approx(3.0)
        assert stream.slowdown(0, 75.0) == 1.0
        assert stream.partitioned(1, 12.0)
        assert not stream.partitioned(1, 30.0)
        # overlapping windows chain: 10–20 extends through 15–30
        assert stream.partition_clears_ms(1, 12.0) == 30.0
        with pytest.raises(ConfigError):
            stream.validate_replicas(1)


class TestAdaptiveEnvelope:
    def test_validation(self):
        with pytest.raises(ConfigError):
            AdaptiveEnvelope(envelope=1.0, floor_ms=10.0)
        with pytest.raises(ConfigError):
            AdaptiveEnvelope(envelope=2.0, floor_ms=-1.0)
        with pytest.raises(ConfigError):
            AdaptiveEnvelope(envelope=2.0, floor_ms=10.0, beta=0.0)

    def test_tracks_ewma_with_floor(self):
        env = AdaptiveEnvelope(envelope=2.0, floor_ms=50.0, beta=0.5)
        # No observations: seeded by the caller's cost estimate.
        assert env.timeout_ms(100.0) == 200.0
        assert env.timeout_ms(10.0) == 50.0  # floor wins
        env.observe(100.0)
        env.observe(200.0)  # EWMA: 150
        assert env.timeout_ms(10.0) == pytest.approx(300.0)


class TestClusterConfigValidation:
    def test_bad_parameters(self):
        with pytest.raises(BenchmarkError):
            ClusterConfig(replicas=())
        with pytest.raises(BenchmarkError):
            ClusterConfig(max_retries=-1)
        with pytest.raises(BenchmarkError):
            ClusterConfig(hedge_quantile=1.0)
        with pytest.raises(BenchmarkError):
            ClusterConfig(arrival_jitter_ms=-1.0)
        with pytest.raises(ConfigError):
            # fault targets a replica the pool doesn't have
            ClusterConfig(replicas=(ReplicaSpec(),),
                          faults=default_chaos_faults(10.0, 2))
        with pytest.raises(BenchmarkError):
            ReplicaSpec(queue_capacity=0)

    def test_router_string_coercion(self):
        cfg = ClusterConfig(router="fastest")
        assert cfg.router is RouterPolicy.FASTEST

    def test_default_chaos_faults_shape(self):
        faults = default_chaos_faults(10.0, 2)
        kinds = sorted(f.kind.value for f in faults)
        assert kinds == ["server_crash", "server_slowdown"]
        solo = default_chaos_faults(10.0, 1)
        assert all(f.replica == 0 for f in solo)
        with pytest.raises(BenchmarkError):
            default_chaos_faults(0.0)


class TestBatcherFailoverSupport:
    @staticmethod
    def _batcher():
        return MicroBatcher(4, lambda b: 10.0 * b, capacity=16)

    def test_remove_withdraws_queued_request(self):
        mb = self._batcher()
        reqs = [Request(stream=s, seq=0, arrival_ms=float(s),
                        deadline_ms=100.0) for s in range(3)]
        for r in reqs:
            mb.push(r)
        assert mb.remove(reqs[1])
        assert mb.pending == 2
        assert not mb.remove(reqs[1])  # already gone
        batch = mb.take_batch()
        assert reqs[1] not in batch

    def test_drain_returns_everything_oldest_first(self):
        mb = self._batcher()
        reqs = [Request(stream=s % 2, seq=s // 2,
                        arrival_ms=float(10 - s), deadline_ms=100.0)
                for s in range(4)]
        for r in reqs:
            mb.push(r)
        out = mb.drain()
        assert mb.pending == 0
        assert [r.arrival_ms for r in out] == sorted(
            r.arrival_ms for r in reqs)

    def test_state_round_trip(self):
        mb = self._batcher()
        for s in range(3):
            mb.push(Request(stream=s, seq=0, arrival_ms=float(s),
                            deadline_ms=100.0))
        mb.take_batch()  # advance the rotation
        mb.push(Request(stream=0, seq=1, arrival_ms=5.0,
                        deadline_ms=105.0))
        snap = json.loads(json.dumps(mb.state()))
        mb2 = self._batcher()
        mb2.restore_state(snap)
        assert mb2.pending == mb.pending
        assert mb2.state() == mb.state()


class TestNominalDeadlines:
    def test_fault_free_load_meets_every_deadline(self, nominal):
        # A pending batch closes early when one more request would
        # push its oldest request past the deadline, so a fault-free
        # load within capacity is violation-free on 2 replicas and 1.
        single = ClusterSimulator(ClusterConfig(
            replicas=(ReplicaSpec(),), num_streams=4, seed=7)).run()
        assert nominal.completed > 0 and single.completed > 0
        assert nominal.violations == 0
        assert single.violations == 0


class TestChaosInvariants:
    def test_conservation_through_crash_requeue(self, chaos):
        assert chaos.replica_crashes[1] == 1
        assert chaos.requeued_on_crash > 0
        assert chaos.conservation_holds()
        assert chaos.generated == chaos.completed + chaos.total_shed
        assert sum(chaos.per_stream_completed.values()) \
            == chaos.completed
        assert sum(chaos.per_stream_shed.values()) == chaos.total_shed

    def test_two_replicas_lose_no_admitted_requests(self, chaos,
                                                    nominal):
        # The headline failover claim: a crash costs work, never
        # admitted requests — and chaos p99 stays within 2× nominal.
        assert chaos.lost_requests == 0
        assert chaos.admitted == chaos.completed
        assert chaos.p99_ms <= 2.0 * nominal.p99_ms
        assert chaos.crash_recoveries_ms  # recovery time measured
        assert chaos.mttr_ms > 0
        assert chaos.availability(1) < 1.0 <= chaos.availability(0)

    def test_single_server_loses_requests_under_same_ladder(self):
        cfg = ClusterConfig(replicas=(ReplicaSpec(),), seed=7,
                            faults=default_chaos_faults(10.0, 1))
        rep = ClusterSimulator(cfg).run()
        assert rep.conservation_holds()  # losses are *counted*
        assert rep.lost_requests > 0
        assert rep.shed["no_replica"] > 0

    def test_chaos_rerun_is_byte_identical(self, chaos):
        again = ClusterSimulator(
            ClusterConfig(seed=7, faults=CHAOS)).run()
        assert json.dumps(again.summary(), sort_keys=True) \
            == json.dumps(chaos.summary(), sort_keys=True)

    def test_seed_changes_downtime_draw(self, chaos):
        other = ClusterSimulator(
            ClusterConfig(seed=8, faults=CHAOS)).run()
        assert other.downtimes_ms != chaos.downtimes_ms

    def test_partition_on_all_replicas_sheds_no_replica(self):
        faults = tuple(
            FaultSpec(FaultKind.SERVER_PARTITION, replica=r,
                      start_ms=3000.0, end_ms=4000.0)
            for r in range(2))
        s = run_summary(faults=faults)
        assert s["shed"]["no_replica"] > 0
        assert s["lost_requests"] == 0

    def test_timeout_reroutes_under_heavy_slowdown(self):
        faults = (FaultSpec(FaultKind.SERVER_SLOWDOWN, replica=0,
                            start_ms=1000.0, end_ms=8000.0,
                            magnitude=8.0),)
        s = run_summary(faults=faults, admission="none",
                        num_streams=12)
        assert s["timeout_reroutes"] > 0
        assert s["lost_requests"] == 0

    def test_hedging_races_and_wins(self):
        faults = (FaultSpec(FaultKind.SERVER_SLOWDOWN, replica=0,
                            start_ms=2000.0, end_ms=6000.0,
                            magnitude=4.0),)
        plain = run_summary(faults=faults, admission="none")
        hedged = run_summary(faults=faults, admission="none",
                             hedge_quantile=0.95)
        assert hedged["hedged"] > 0
        assert hedged["hedge_wins"] > 0
        assert hedged["hedge_wasted_ms"] >= 0
        assert hedged["p99_ms"] <= plain["p99_ms"]
        assert hedged["completed"] == plain["completed"]


class TestRouterPolicies:
    def test_fastest_routes_around_slowdown(self):
        # Deadline-aware routing avoids the throttled replica, so it
        # sheds nothing where least-loaded sheds at the door.
        ll = run_summary(faults=CHAOS, router="least-loaded")
        fast = run_summary(faults=CHAOS, router="fastest")
        assert fast["shed"]["deadline"] < ll["shed"]["deadline"]
        assert fast["completed"] >= ll["completed"]

    def test_round_robin_cycles_replicas(self):
        rep = ClusterSimulator(
            ClusterConfig(seed=7, router="round-robin")).run()
        counts = list(rep.replica_completed.values())
        assert min(counts) > 0
        assert abs(counts[0] - counts[1]) <= rep.completed * 0.1

    def test_heterogeneous_pool(self):
        cfg = ClusterConfig(
            replicas=(ReplicaSpec(model="yolov8-m", device="rtx4090"),
                      ReplicaSpec(model="yolov8-n",
                                  device="orin-agx")),
            router="fastest", seed=7)
        rep = ClusterSimulator(cfg).run()
        assert rep.conservation_holds()
        assert rep.summary()["replicas"] == [
            "yolov8-m@rtx4090", "yolov8-n@orin-agx"]


class TestCheckpointRestore:
    @pytest.mark.parametrize("pause_ms", [1000.0, 4000.0, 4500.0])
    def test_restore_then_resume_is_byte_identical(self, pause_ms,
                                                   chaos):
        # 4500 ms pauses *inside* the crash downtime window.
        cfg = ClusterConfig(seed=7, faults=CHAOS)
        sim = ClusterSimulator(cfg)
        assert sim.run(pause_at_ms=pause_ms) is None
        blob = json.dumps(sim.snapshot(), sort_keys=True)
        revived = ClusterSimulator.restore(cfg, json.loads(blob))
        resumed = revived.resume()
        assert json.dumps(resumed.summary(), sort_keys=True) \
            == json.dumps(chaos.summary(), sort_keys=True)

    def test_restore_keeps_burn_shedding_state(self):
        # Burn shedding trips under a slowdown; pausing mid-burn must
        # restore the SLO windows (replayed from the report) exactly.
        slow = (FaultSpec(FaultKind.SERVER_SLOWDOWN, replica=0,
                          start_ms=2000.0, end_ms=6000.0,
                          magnitude=3.0),)
        cfg = ClusterConfig(replicas=(ReplicaSpec(),), num_streams=8,
                            admission="full", faults=slow, seed=7)
        whole = ClusterSimulator(cfg).run()
        sim = ClusterSimulator(cfg)
        assert sim.run(pause_at_ms=2500.0) is None
        assert 0 < sim.live_report.shed["slo_burn"] \
            < whole.shed["slo_burn"]
        blob = json.dumps(sim.snapshot(), sort_keys=True)
        resumed = ClusterSimulator.restore(cfg, json.loads(blob)).resume()
        assert json.dumps(resumed.summary(), sort_keys=True) \
            == json.dumps(whole.summary(), sort_keys=True)
        assert resumed.latencies_ms == whole.latencies_ms

    @pytest.mark.parametrize("pause_ms", [1500.0, 2000.0])
    def test_hedged_restore_is_byte_identical(self, pause_ms):
        # Paused with hedge and timeout timers armed: the resumed run
        # fires them off the rebuilt timer heap, and places new copies
        # with hedge delays read off the rebuilt latency history.
        cfg = ClusterConfig(seed=7, faults=CHAOS, hedge_quantile=0.95,
                            admission="none", num_streams=12)
        whole = ClusterSimulator(cfg).run()
        sim = ClusterSimulator(cfg)
        assert sim.run(pause_at_ms=pause_ms) is None
        snap = json.loads(json.dumps(sim.snapshot(), sort_keys=True))
        armed = [m for _key, m in snap["meta"]]
        assert any(m["hedge_at"] is not None for m in armed)
        assert any(m["timeout_at"] is not None for m in armed)
        revived = ClusterSimulator.restore(cfg, snap)
        assert revived.live_report.completed >= 20  # hedging is live
        resumed = revived.resume()
        assert resumed.hedged > sim.live_report.hedged
        assert json.dumps(resumed.summary(), sort_keys=True) \
            == json.dumps(whole.summary(), sort_keys=True)
        assert resumed.latencies_ms == whole.latencies_ms

    def test_snapshot_does_not_alias_live_state(self):
        plain = ClusterConfig(seed=7, faults=CHAOS)
        hedged = ClusterConfig(seed=7, faults=CHAOS, hedge_quantile=0.9)
        for cfg, scale in ((plain, False), (hedged, False),
                           (plain, True)):
            sim = ClusterSimulator(cfg)
            sim.run(pause_at_ms=3000.0)
            if scale:
                sim.add_replica(ReplicaSpec())
                assert sim.run(pause_at_ms=3500.0) is None
            snap = sim.snapshot()
            before = json.dumps(snap, sort_keys=True)
            sim.resume()  # keep running the live sim
            assert json.dumps(snap, sort_keys=True) == before

    def test_snapshot_guards(self):
        sim = ClusterSimulator(ClusterConfig(seed=7))
        with pytest.raises(BenchmarkError):
            sim.snapshot()
        with pytest.raises(BenchmarkError):
            sim.resume()
        with pytest.raises(BenchmarkError):
            ClusterSimulator.restore(ClusterConfig(seed=7),
                                     {"schema": 99})


class TestClusterObservability:
    def test_report_metrics_shape(self, chaos):
        s = chaos.summary()
        assert set(s["availability"]) == {"0", "1"}
        assert s["crashes"] == 1
        assert s["makespan_ms"] > 0
        assert isinstance(chaos.slo_burned(), bool)

    def test_telemetry_reaches_bus(self):
        bus = TelemetryBus()
        with use_telemetry(bus):
            ClusterSimulator(
                ClusterConfig(seed=7, faults=CHAOS)).run()
        stages = {(s.device, s.stage) for s in bus.samples}
        assert ("replica-0", "exec") in stages
        assert ("replica-1", "downtime") in stages
        assert ("router", "retry") in stages


# -- hedge quantile: sorted history against np.percentile --------------------


def _bits(x):
    return struct.pack("<d", x)


class TestLinearQuantile:
    def test_matches_numpy_percentile_bitwise(self):
        rng = np.random.default_rng(2026)
        checked = 0
        for trial in range(120):
            n = (20, 2000)[trial] if trial < 2 \
                else int(rng.integers(20, 2001))
            kind = trial % 3
            if kind == 0:    # continuous latencies
                hist = rng.lognormal(3.0, 0.6, n)
            elif kind == 1:  # few distinct values, heavily repeated
                pool = rng.uniform(5.0, 200.0, max(2, n // 25))
                hist = rng.choice(pool, n)
            else:            # rounded: ties between neighbours
                hist = np.round(rng.uniform(5.0, 80.0, n), 1)
            hist = [float(v) for v in hist]
            ordered = sorted(hist)
            qs = [0.5, 0.9, 0.95, 0.99] + [float(q) for q in
                                           rng.uniform(0.0, 1.0, 6)]
            for q in qs:
                want = float(np.percentile(np.asarray(hist), 100.0 * q))
                assert _bits(linear_quantile(ordered, q)) == _bits(want), \
                    (n, q)
                checked += 1
        assert checked == 1200

    def test_edge_quantiles(self):
        hist = [3.0, 1.0, 2.0] * 10
        ordered = sorted(hist)
        for q in (1e-12, 0.5, 1.0 - 1e-16, 1.0 - 2.0 ** -53):
            want = float(np.percentile(np.asarray(hist), 100.0 * q))
            assert _bits(linear_quantile(ordered, q)) == _bits(want)


# -- event order: the timer heap against the full rescan ---------------------

_INF = float("inf")


def _scan_next_event(sim):
    """The earliest pending event by a full rescan of the loop state:
    every replica, the retry backlog, the next arrival, and every
    outstanding request's timeout and hedge timers.  The simulator's
    own ``_next_event`` must pick the same event at every step."""
    s = sim._s
    best = (_INF, 99, -1, (-1, -1))

    def consider(t, prio, replica=-1, key=(-1, -1)):
        nonlocal best
        cand = (t, prio, replica, key)
        if cand < best:
            best = cand

    for r, rep in enumerate(s["replicas"]):
        if rep["in_flight"] is not None:
            consider(rep["in_flight"]["done_ms"], cluster._P_COMPLETE, r)
        schedule = sim.faults.crash_schedule(r)
        if rep["crash_idx"] < len(schedule):
            consider(schedule[rep["crash_idx"]].start_ms,
                     cluster._P_CRASH, r)
        if rep["down_until"] is not None:
            consider(rep["down_until"], cluster._P_RESTORE, r)
        if rep["down_until"] is None and rep["in_flight"] is None \
                and rep["batcher"].pending:
            draining = s["arr_i"] >= len(sim._arrivals) \
                and not s["retry"]
            t_d = max(s["now"], rep["batcher"].next_dispatch_ms(
                s["now"], draining=draining))
            consider(t_d, cluster._P_DISPATCH, r)
    if s["retry"]:
        first = s["retry"][0]
        consider(first[0], cluster._P_RETRY, key=(first[1], first[2]))
    if s["arr_i"] < len(sim._arrivals):
        consider(sim._arrivals[s["arr_i"]].arrival_ms, cluster._P_ARRIVAL)
    for key, m in s["meta"].items():
        if m["timeout_at"] is not None:
            consider(m["timeout_at"], cluster._P_TIMEOUT, key=key)
        if m["hedge_at"] is not None:
            consider(m["hedge_at"], cluster._P_HEDGE, key=key)
    return best


class _ScanCheckedSimulator(ClusterSimulator):
    """Asserts at every step that ``_next_event`` equals the rescan."""

    def _next_event(self):
        got = super()._next_event()
        want = _scan_next_event(self)
        assert got == want, f"event order diverged: {got} != {want}"
        self.checked = getattr(self, "checked", 0) + 1
        self.timer_events = getattr(self, "timer_events", 0) + (
            got[1] in (cluster._P_TIMEOUT, cluster._P_HEDGE))
        return got


#: The cluster_chaos benchmark's shape: three heterogeneous replicas
#: above capacity, crash/slowdown chaos, hedging at p95.
HEDGED_CHAOS = ClusterConfig(
    replicas=(ReplicaSpec("yolov8-m", "rtx4090"),
              ReplicaSpec("yolov8-n", "orin-agx"),
              ReplicaSpec("yolov8-n", "orin-nano")),
    num_streams=24, frame_rate=20.0, duration_s=2.5, router="fastest",
    hedge_quantile=0.95, faults=default_chaos_faults(2.5, 3),
    arrival_jitter_ms=2.0, seed=301001)
#: One replica, 32 streams, no door policy: a deep queue of requests
#: with armed timeout timers.
DEEP_QUEUE = ClusterConfig(replicas=(ReplicaSpec(),), num_streams=32,
                           admission="none")
#: Two replicas under the chaos ladder with hedging at p90.
HEDGED_TWO = ClusterConfig(seed=7, faults=CHAOS, hedge_quantile=0.9,
                           admission="none", num_streams=12)


def _summary_blob(report):
    return json.dumps(report.summary(), sort_keys=True)


class TestEventOrder:
    @pytest.mark.parametrize("cfg", [HEDGED_CHAOS, DEEP_QUEUE],
                             ids=["hedged-chaos", "deep-queue"])
    def test_matches_full_rescan(self, cfg):
        sim = _ScanCheckedSimulator(cfg)
        report = sim.run()
        assert sim.checked > 1000 and sim.timer_events > 0
        assert _summary_blob(report) \
            == _summary_blob(ClusterSimulator(cfg).run())

    def test_matches_full_rescan_through_scaling(self):
        sim = _ScanCheckedSimulator(HEDGED_TWO)
        assert sim.run(pause_at_ms=3000.0) is None
        sim.add_replica(ReplicaSpec())
        assert sim.run(pause_at_ms=6000.0) is None
        sim.drain_replica(0)
        report = sim.resume()
        assert sim.timer_events > 0
        assert report.conservation_holds()

    def test_matches_full_rescan_after_restore(self):
        whole = ClusterSimulator(HEDGED_TWO).run()
        sim = ClusterSimulator(HEDGED_TWO)
        assert sim.run(pause_at_ms=1500.0) is None  # mid hedge burst
        blob = json.dumps(sim.snapshot(), sort_keys=True)
        revived = _ScanCheckedSimulator.restore(HEDGED_TWO,
                                                json.loads(blob))
        resumed = revived.resume()
        assert revived.timer_events > 0
        assert _summary_blob(resumed) == _summary_blob(whole)


class TestProgressGuard:
    def test_handler_that_leaves_its_timer_armed_raises(self):
        """A timeout handler that does nothing leaves the same event
        first in line; the loop must fail, not spin on it."""
        sim = ClusterSimulator(DEEP_QUEUE)
        seen = []

        def stuck_timeout(t, replica, key):
            seen.append((t, key))
            # Without the guard the loop would call this forever.
            assert len(seen) == 1, "loop re-ran a stuck timer"

        sim._on_timeout = stuck_timeout
        with pytest.raises(BenchmarkError, match="no progress"):
            sim.run()
        assert len(seen) == 1

    def test_coincident_crash_windows_are_not_a_stall(self):
        """Two crash specs at one instant on one replica are two
        distinct events with equal tuples; the guard must let both
        through."""
        faults = tuple(
            FaultSpec(FaultKind.SERVER_CRASH, replica=0,
                      start_ms=1000.0, magnitude=m)
            for m in (50.0, 80.0))
        report = ClusterSimulator(
            ClusterConfig(seed=7, faults=faults)).run()
        assert report.conservation_holds()
        assert report.replica_crashes[0] == 1  # the second is absorbed
