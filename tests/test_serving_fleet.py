"""Sharded fleet serving: partitioning, merge algebra, invariance.

The load-bearing property is *shard-count invariance*: the merged
fleet metrics must be byte-identical whether the cells run in one
process or many.  These tests pin the partition function, exercise the
merge algebra across permutations and partitions of the cell results,
machine-check the 1-vs-4-shard acceptance claim, and confirm that a
chaos fault confined to one cell never leaks into fleet-wide loss.
"""

import json

import pytest

from repro.errors import ConfigError
from repro.faults.server import cell_fault_plan
from repro.faults.spec import FaultKind, FaultSpec
from repro.obs.sketch import QuantileSketch
from repro.serving import (FleetSimConfig, FleetSimulator, ReplicaSpec,
                           generate_arrivals)
from repro.serving.fleet import (active_cells, cell_arrivals,
                                 cell_streams, cluster_config_for_cell,
                                 generate_fleet_arrivals,
                                 merge_cell_reports,
                                 merge_cell_sketches, stream_cell)

SPEC = ReplicaSpec("yolov8-n", "orin-nano")


def small_config(**extra) -> FleetSimConfig:
    base = dict(num_streams=8, num_cells=4, frame_rate=5.0,
                duration_s=3.0, deadline_ms=100.0, seed=7,
                replicas_per_cell=(SPEC,))
    base.update(extra)
    return FleetSimConfig(**base)


def blob(summary: dict) -> str:
    return json.dumps(summary, sort_keys=True)


class TestPartitioning:
    def test_stream_cell_is_stable_across_runs(self):
        # Pins the CRC32 assignment: a partition change silently
        # invalidates every committed fleet golden.
        assert [stream_cell(s, 4) for s in range(8)] \
            == [stream_cell(s, 4) for s in range(8)]
        assert all(0 <= stream_cell(s, 4) < 4 for s in range(100))

    def test_cell_streams_is_a_partition(self):
        parts = cell_streams(50, 7)
        seen = sorted(s for streams in parts.values()
                      for s in streams)
        assert seen == list(range(50))
        assert set(parts) == set(range(7))

    def test_single_cell_owns_everything(self):
        assert cell_streams(10, 1)[0] == list(range(10))

    def test_validation(self):
        with pytest.raises(ConfigError):
            stream_cell(0, 0)
        with pytest.raises(ConfigError):
            stream_cell(-1, 4)

    def test_active_cells_skips_empty(self):
        cfg = small_config(num_streams=1, num_cells=8)
        active = active_cells(cfg)
        assert len(active) == 1
        assert cell_streams(1, 8)[active[0]] == [0]


class TestFleetArrivals:
    def test_flat_ramp_matches_generate_arrivals(self):
        for jitter in (0.0, 2.0):
            cfg = small_config(arrival_jitter_ms=jitter)
            assert generate_fleet_arrivals(cfg) == generate_arrivals(
                cfg.num_streams, cfg.frame_rate, cfg.duration_s,
                cfg.resolved_deadline_ms, jitter_ms=jitter,
                seed=cfg.seed)

    def test_ramp_scales_segment_rates(self):
        # duration/rate chosen so every segment's frame count divides
        # evenly — the per-segment truncation would otherwise skew the
        # exact 3x ratio.
        cfg = small_config(duration_s=4.0, ramp=(1.0, 3.0))
        reqs = generate_fleet_arrivals(cfg)
        half = cfg.duration_s * 1000.0 / 2
        calm = sum(1 for r in reqs if r.arrival_ms < half)
        peak = sum(1 for r in reqs if r.arrival_ms >= half)
        assert peak == 3 * calm

    def test_cell_arrivals_partition_the_schedule(self):
        # Jitter is drawn as one fleet-wide vector; every cell must
        # still get exactly the bits the full schedule gives it.
        for ramp in ((1.0,), (1.0, 2.0)):
            for jitter in (0.0, 3.5):
                cfg = small_config(ramp=ramp, arrival_jitter_ms=jitter)
                merged = sorted(
                    (r for c in range(cfg.num_cells)
                     for r in cell_arrivals(cfg, c)),
                    key=lambda r: (r.arrival_ms, r.stream, r.seq))
                assert merged == generate_fleet_arrivals(cfg)

    def test_config_validation(self):
        with pytest.raises(ConfigError):
            small_config(ramp=())
        with pytest.raises(ConfigError):
            small_config(ramp=(1.0, -1.0))
        with pytest.raises(ConfigError):
            small_config(shards=0)
        with pytest.raises(ConfigError):
            small_config(num_cells=0)
        with pytest.raises(ConfigError):
            small_config(replicas_per_cell=())
        with pytest.raises(ConfigError):
            small_config(replicas_per_cell=("yolov8-n",))

    def test_cluster_config_rejects_empty_cell(self):
        cfg = small_config(num_streams=1, num_cells=8)
        empty = [c for c in range(8) if c not in active_cells(cfg)][0]
        with pytest.raises(ConfigError):
            cluster_config_for_cell(cfg, empty)

    def test_per_cell_seeds_differ(self):
        cfg = small_config()
        seeds = {cluster_config_for_cell(cfg, c).seed
                 for c in active_cells(cfg)}
        assert len(seeds) == len(active_cells(cfg))


@pytest.fixture(scope="module")
def cell_reports():
    """Per-cell reports of one flat fleet run (shared; read-only)."""
    cfg = small_config()
    from repro.serving.fleet import _cell_task
    return cfg, {c: _cell_task((c, cluster_config_for_cell(cfg, c),
                                cell_arrivals(cfg, c)))["report"]
                 for c in active_cells(cfg)}


class TestMergeAlgebra:
    def test_merge_is_permutation_invariant(self, cell_reports):
        cfg, reports = cell_reports
        forward = merge_cell_reports(cfg, dict(reports))
        backward = merge_cell_reports(
            cfg, dict(sorted(reports.items(), reverse=True)))
        assert blob(forward.summary()) == blob(backward.summary())

    @pytest.mark.parametrize("groups", [1, 2, 3, 8])
    def test_sketch_fold_is_partition_associative(self, cell_reports,
                                                  groups):
        # Folding contiguous per-group partials then across groups is
        # value-associative: exact on counts/extremes, within float
        # rounding on sums.  Byte-identity is the *canonical* fold's
        # contract (workers ship raw cell results, never partials) —
        # pinned end-to-end by TestShardInvariance.
        _cfg, reports = cell_reports
        sketches = {}
        for cell, rep in reports.items():
            sk = QuantileSketch()
            for v in rep["latencies_ms"]:
                sk.observe(float(v))
            sketches[cell] = sk
        canonical = merge_cell_sketches(sketches)
        cells = sorted(sketches)
        size = -(-len(cells) // groups)
        chunks = [cells[i:i + size]
                  for i in range(0, len(cells), size)]
        partials = [
            merge_cell_sketches({c: sketches[c] for c in chunk})
            for chunk in chunks]
        folded = partials[0]
        for part in partials[1:]:
            folded = folded.merge(part)
        assert folded.count == canonical.count
        assert folded.min == canonical.min
        assert folded.max == canonical.max
        assert folded.total == pytest.approx(canonical.total,
                                             rel=1e-12)
        for q in (0.5, 0.99):
            assert folded.quantile(q) == pytest.approx(
                canonical.quantile(q), rel=1e-12)

    @pytest.mark.parametrize("shards", [1, 2, 3, 8])
    def test_fleet_summary_invariant_across_shard_counts(self,
                                                         shards):
        # The product-level byte contract across the whole shard-count
        # sweep: metrics never depend on how many workers ran cells.
        canonical = FleetSimulator(small_config(shards=1)).run()
        sharded = FleetSimulator(small_config(shards=shards)).run()
        assert blob(sharded.summary()) == blob(canonical.summary())

    def test_summary_excludes_shard_count(self, cell_reports):
        cfg, reports = cell_reports
        summary = merge_cell_reports(cfg, reports).summary()
        assert "shards" not in blob(summary)


class TestShardInvariance:
    def test_flat_fleet_1_vs_4_shards_byte_identical(self):
        # The acceptance claim: shards only change *where* cells run.
        one = FleetSimulator(small_config(shards=1)).run()
        four = FleetSimulator(small_config(shards=4)).run()
        assert blob(one.summary()) == blob(four.summary())

    def test_flat_fleet_rerun_byte_identical(self):
        a = FleetSimulator(small_config()).run()
        b = FleetSimulator(small_config()).run()
        assert blob(a.summary()) == blob(b.summary())

    def test_fleet_conservation(self):
        fleet = FleetSimulator(small_config()).run()
        assert fleet.conservation_holds()
        assert fleet.generated == fleet.completed + fleet.total_shed


class TestChaosUnderSharding:
    def chaos_config(self, **extra):
        horizon = 3.0 * 1000.0
        crash = FaultSpec(FaultKind.SERVER_CRASH, replica=1,
                          start_ms=0.4 * horizon,
                          magnitude=0.15 * horizon)
        return small_config(replicas_per_cell=(SPEC, SPEC),
                            faults=((0, crash),), **extra)

    def test_crash_confined_to_one_cell(self):
        fleet = FleetSimulator(self.chaos_config()).run()
        assert fleet.conservation_holds()
        assert fleet.lost_requests == 0
        assert fleet.crashes == 1
        assert fleet.per_cell[0]["crashes"] == 1
        assert fleet.per_cell[0]["min_availability"] < 1.0
        for cell, stats in fleet.per_cell.items():
            if cell != 0:
                assert stats["crashes"] == 0
                assert stats["min_availability"] == 1.0

    def test_chaos_fleet_shard_invariant(self):
        one = FleetSimulator(self.chaos_config(shards=1)).run()
        four = FleetSimulator(self.chaos_config(shards=4)).run()
        assert blob(one.summary()) == blob(four.summary())

    def test_cell_fault_plan_validation(self):
        spec = FaultSpec(FaultKind.SERVER_CRASH, replica=0,
                         start_ms=10.0, magnitude=5.0)
        plan = cell_fault_plan(((2, spec), (0, spec)), 4, 1)
        assert sorted(plan) == [0, 2]
        with pytest.raises(ConfigError):
            cell_fault_plan(((9, spec),), 4, 1)
        with pytest.raises(ConfigError):
            cell_fault_plan(((True, spec),), 4, 1)
        with pytest.raises(ConfigError):
            cell_fault_plan((spec,), 4, 1)
        with pytest.raises(ConfigError):
            cell_fault_plan(
                ((0, FaultSpec(FaultKind.SERVER_CRASH, replica=3,
                               start_ms=10.0, magnitude=5.0)),),
                4, 2)


class TestSketchState:
    def test_state_round_trip_exact_phase(self):
        sk = QuantileSketch()
        for v in (1.0, 5.0, 250.0):
            sk.observe(v)
        clone = QuantileSketch.from_state(
            json.loads(json.dumps(sk.state())))
        sk.observe(42.0)
        clone.observe(42.0)
        assert json.dumps(sk.state(), sort_keys=True) \
            == json.dumps(clone.state(), sort_keys=True)

    def test_state_round_trip_spilled_phase(self):
        sk = QuantileSketch(buffer_cap=4)
        for v in range(10):
            sk.observe(float(v))
        clone = QuantileSketch.from_state(sk.state())
        assert clone.quantile(0.5) == sk.quantile(0.5)
        assert clone.count == sk.count

    def test_malformed_state_rejected(self):
        with pytest.raises(ConfigError):
            QuantileSketch.from_state({"count": 3})
        good = QuantileSketch().state()
        bad = dict(good, counts=[1, 2])
        with pytest.raises(ConfigError):
            QuantileSketch.from_state(bad)
