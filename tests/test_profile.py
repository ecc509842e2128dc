"""Profile subsystem tests: tick clock, path algebra, determinism,
shard/worker invariance, the one span aggregation, and the CLI surface.

The acceptance criteria live here in machine-checked form:

* ``repro profile`` output is byte-identical across reruns and across
  shard counts {1, 4} (and across 1-vs-N ``parallel_map`` workers);
* the committed ``profile_baseline/PROFILE_baseline.json`` is fresh —
  recapturing it reproduces the committed bytes exactly, and a stale
  baseline fails naming the paths that moved;
* ``build_profile`` on a wall-clock trace equals the recursive
  name-path fold that ``repro trace`` used to print.
"""

from __future__ import annotations

import json
import os

import pytest

from repro.bench import profiler
from repro.bench.parallel import parallel_map
from repro.cli import main
from repro.errors import (BenchmarkError, ConfigError,
                          SerializationError)
from repro.io.jsonio import dumps_json
from repro.obs import (PROFILE_SCHEMA, Profile, TickClock, Tracer,
                       build_profile, folded_stacks, profile_document,
                       render_profile, span_paths, use_tracer)
from repro.obs.profile import PATH_SEP
from repro.obs.tracer import Span

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _traced_item(i):
    """Module-level (picklable) traced work item for parallel_map."""
    from repro.obs import current_tracer
    tracer = current_tracer()
    with tracer.span("work", item=i):
        with tracer.span("inner"):
            pass
    return i


def make_span(name, span_id, parent_id=None, start=0.0, end=1.0,
              n_events=0):
    sp = Span(name=name, span_id=span_id, trace_id="t",
              parent_id=parent_id, start_s=start, end_s=end)
    for i in range(n_events):
        sp.add_event(f"e{i}", start)
    return sp


class TestTickClock:
    def test_each_read_advances_one_quantum(self):
        clock = TickClock()
        assert clock() == pytest.approx(0.001)
        assert clock() == pytest.approx(0.002)
        assert clock.reads == 2

    def test_spawn_starts_fresh(self):
        clock = TickClock(quantum_s=0.5)
        clock()
        child = clock.spawn()
        assert child.reads == 0
        assert child.quantum_s == 0.5

    def test_advance_reads(self):
        clock = TickClock()
        clock.advance_reads(7)
        assert clock() == pytest.approx(8 * 0.001)
        with pytest.raises(ConfigError):
            clock.advance_reads(-1)

    def test_invalid_quantum_rejected(self):
        with pytest.raises(ConfigError):
            TickClock(quantum_s=0.0)

    def test_pickle_roundtrip(self):
        import pickle
        clock = TickClock()
        clock()
        clone = pickle.loads(pickle.dumps(clock))
        assert clone.reads == 1 and clone.quantum_s == 0.001

    def test_tracer_span_duration_counts_reads(self):
        tracer = Tracer(clock=TickClock())
        with tracer.span("outer"):
            with tracer.span("inner"):
                pass
        spans = {s.name: s for s in tracer.finished_spans()}
        # inner: start+end reads = 2 ticks = 1 ms duration
        assert spans["inner"].duration_s == pytest.approx(0.001)
        assert spans["outer"].duration_s == pytest.approx(0.003)


class TestSpanPaths:
    def test_paths_join_name_chain(self):
        spans = [make_span("root", "s1"),
                 make_span("mid", "s2", parent_id="s1"),
                 make_span("leaf", "s3", parent_id="s2")]
        assert span_paths(spans) == {"s1": "root", "s2": "root/mid",
                                     "s3": "root/mid/leaf"}

    def test_orphan_parent_becomes_root(self):
        spans = [make_span("lost", "s9", parent_id="gone")]
        assert span_paths(spans) == {"s9": "lost"}

    def test_cycle_is_broken_not_infinite(self):
        a = make_span("a", "s1", parent_id="s2")
        b = make_span("b", "s2", parent_id="s1")
        paths = span_paths([a, b])
        assert set(paths) == {"s1", "s2"}


class TestBuildProfile:
    def test_self_is_total_minus_direct_children(self):
        spans = [make_span("root", "s1", start=0.0, end=0.010),
                 make_span("kid", "s2", parent_id="s1",
                           start=0.001, end=0.004)]
        prof = build_profile(spans)
        assert prof.paths["root"].total_ms == 10
        assert prof.paths["root"].self_ms == 7
        assert prof.paths["root/kid"].self_ms == 3

    def test_repeated_paths_aggregate(self):
        spans = [make_span("root", "s1", start=0.0, end=0.010)]
        spans += [make_span("kid", f"k{i}", parent_id="s1",
                            start=0.0, end=0.002) for i in range(3)]
        prof = build_profile(spans)
        assert prof.paths["root/kid"].count == 3
        assert prof.paths["root/kid"].self_ms == 6

    def test_unfinished_span_rejected(self):
        sp = Span(name="open", span_id="s1", trace_id="t")
        with pytest.raises(SerializationError):
            build_profile([sp])

    def test_negative_self_clamped(self):
        spans = [make_span("root", "s1", start=0.0, end=0.002),
                 make_span("kid", "s2", parent_id="s1",
                           start=0.0, end=0.005)]
        prof = build_profile(spans)
        assert prof.paths["root"].self_ms == 0


class TestMergeAlgebra:
    def _profiles(self):
        out = []
        for base in (1, 5, 9):
            prof = Profile()
            for i in range(4):
                prof.record("a/b", base + i, base + i + 1, 0)
                prof.record("a", 2 * base, 3 * base, 1)
            out.append(prof)
        return out

    @staticmethod
    def doc(prof):
        return dumps_json(profile_document(prof))

    def test_merge_is_associative(self):
        p1, p2, p3 = self._profiles()
        left = p1.merge(p2).merge(p3)
        right = p1.merge(p2.merge(p3))
        assert self.doc(left) == self.doc(right)

    def test_merge_is_permutation_invariant(self):
        import itertools
        docs = {self.doc(Profile.merged(perm))
                for perm in itertools.permutations(self._profiles())}
        assert len(docs) == 1

    def test_merge_matches_single_observation_stream(self):
        p1, p2, p3 = self._profiles()
        merged = Profile.merged([p1, p2, p3])
        serial = Profile()
        for src in (p1, p2, p3):
            for path, stats in src.paths.items():
                serial.paths[path] = stats.merge(
                    serial.paths.get(path, type(stats)()))
        assert self.doc(merged) == self.doc(serial)

    def test_merge_does_not_mutate_inputs(self):
        p1, p2, _ = self._profiles()
        before = self.doc(p1)
        p1.merge(p2)
        assert self.doc(p1) == before


class TestDeterminism:
    def test_rerun_is_byte_identical(self):
        doc1 = dumps_json(profiler.capture_document(["nn_forward"]))
        doc2 = dumps_json(profiler.capture_document(["nn_forward"]))
        assert doc1 == doc2

    def test_shard_counts_1_and_4_are_byte_identical(self):
        docs = [dumps_json(profiler.capture_document(
            ["fleet_cells"], shards=n)) for n in (1, 4)]
        assert docs[0] == docs[1]
        paths = json.loads(docs[0])["paths"]
        assert any("fleet.merge" in p for p in paths)
        assert any("cluster.loop" in p for p in paths)

    def test_parallel_map_worker_counts_are_byte_identical(self):
        docs = []
        for workers in (1, 4):
            tracer = Tracer(clock=TickClock())
            with use_tracer(tracer):
                with tracer.span("fanout"):
                    parallel_map(_traced_item, list(range(8)),
                                 workers=workers)
            prof = build_profile(tracer.finished_spans())
            docs.append(dumps_json(profile_document(prof)))
        assert docs[0] == docs[1]

    def test_unknown_target_rejected(self):
        with pytest.raises(BenchmarkError):
            profiler.resolve_targets(["no_such_target"])

    def test_empty_targets_resolve_to_baseline_set(self):
        assert tuple(profiler.resolve_targets([])) == \
            profiler.BASELINE_TARGETS


def moved_paths(base, head, limit=20):
    """Name the path keys that differ between two profile path tables:
    added, removed, then changed, at most ``limit`` of them."""
    moved = [f"added {p}" for p in sorted(set(head) - set(base))]
    moved += [f"removed {p}" for p in sorted(set(base) - set(head))]
    moved += [f"changed {p}" for p in sorted(set(base) & set(head))
              if base[p] != head[p]]
    if not moved:
        return "bytes differ, but no path was added, removed or changed"
    more = len(moved) - limit
    lines = moved[:limit] + ([f"... and {more} more"] if more > 0 else [])
    return f"{len(moved)} path(s) moved:\n  " + "\n  ".join(lines)


class TestCommittedBaseline:
    def test_baseline_is_fresh(self):
        """Recapturing the baseline reproduces the committed bytes; a
        mismatch names the paths that moved."""
        path = os.path.join(REPO_ROOT, profiler.DEFAULT_BASELINE_PATH)
        with open(path, "r", encoding="utf-8") as fh:
            committed = fh.read()
        doc = profiler.capture_document(profiler.BASELINE_TARGETS)
        assert dumps_json(doc) + "\n" == committed, moved_paths(
            json.loads(committed)["paths"], doc["paths"])

    def test_moved_paths_names_each_kind(self):
        base = {"a": {"self_ms": 1}, "b": {"self_ms": 2},
                "c": {"self_ms": 3}}
        head = {"a": {"self_ms": 1}, "b": {"self_ms": 5},
                "d": {"self_ms": 3}}
        assert moved_paths(base, head) == (
            "3 path(s) moved:\n  added d\n  removed c\n  changed b")
        assert moved_paths(base, base).startswith("bytes differ")
        many = {f"p{i:02d}": {} for i in range(25)}
        text = moved_paths({}, many)
        assert text.count("\n  added") == 20
        assert text.endswith("... and 5 more")

    def test_baseline_covers_required_hot_paths(self):
        path = os.path.join(REPO_ROOT, profiler.DEFAULT_BASELINE_PATH)
        with open(path, "r", encoding="utf-8") as fh:
            paths = list(json.load(fh)["paths"])
        for needle in ("exp_serving/cluster.loop/cluster.on_dispatch",
                       "fleet.merge",
                       "render.scene", "nn.im2col",
                       "nn_e2e.unfused", "nn_e2e.fused",
                       "layer.fused_convbnact"):
            assert any(needle in p for p in paths), needle


class TestExports:
    def _profile(self):
        prof = Profile()
        prof.record("a/b/c", 5, 7, 0)
        prof.record("a", 2, 9, 1)
        return prof

    def test_folded_stacks_format(self):
        text = folded_stacks(self._profile())
        assert text == "a 2\na;b;c 5\n"

    def test_folded_stacks_empty(self):
        assert folded_stacks(Profile()) == ""

    def test_render_profile_ranks_by_self_time(self):
        lines = render_profile(self._profile()).splitlines()
        assert lines[2].startswith("a/b/c")
        assert "2 of 2 paths" in lines[-1]

    def test_document_roundtrip_validates(self):
        doc = profile_document(self._profile(), targets=["x"])
        assert doc["schema"] == PROFILE_SCHEMA
        assert doc["deterministic"] is True
        assert json.loads(dumps_json(doc)) == doc
        wall = profile_document(self._profile(), deterministic=False)
        assert wall["deterministic"] is False


#: Experiments traced by the equivalence pin: a dataset build plus
#: pipeline frames (9 paths), the serving event loop (6 paths) and a
#: root-only run (1 path).
EQUIVALENCE_TARGETS = ("ablation_pipeline", "exp_serving", "table2")


@pytest.fixture(scope="module")
def wall_traces():
    """Each equivalence target traced once on the wall clock."""
    from repro.bench.experiments.registry import run_experiment
    traces = {}
    for eid in EQUIVALENCE_TARGETS:
        tracer = Tracer()
        with use_tracer(tracer):
            run_experiment(eid, enforce_claims=False)
        traces[eid] = tracer.finished_spans()
    return traces


def _name_fold(spans):
    """Reference fold: ``{path: (count, events, incl ms, excl ms)}``,
    built by recursing from the roots and grouping siblings by name —
    the span tree ``repro trace`` printed before it used the Profile."""
    by_id = {sp.span_id: sp for sp in spans}
    children = {}
    for sp in spans:
        parent = sp.parent_id if sp.parent_id in by_id else None
        children.setdefault(parent, []).append(sp)
    rows = {}

    def fold(prefix, group):
        for sp in group:
            path = f"{prefix}/{sp.name}" if prefix else sp.name
            kids = children.get(sp.span_id, [])
            count, events, incl, excl = rows.get(path, (0, 0, 0.0, 0.0))
            rows[path] = (count + 1, events + len(sp.events),
                          incl + sp.duration_s,
                          excl + sp.duration_s
                          - sum(k.duration_s for k in kids))
            fold(path, kids)

    fold("", children.get(None, []))
    return {path: (count, events, incl * 1e3, excl * 1e3)
            for path, (count, events, incl, excl) in rows.items()}


class TestOneAggregation:
    """``build_profile(quantize=False)`` reproduces the recursive
    name-path fold on real wall-clock traces: same paths, counts and
    events, inclusive == ``total_ms``, exclusive == ``self_ms``, and
    the same closure line."""

    @pytest.mark.parametrize("eid", EQUIVALENCE_TARGETS)
    def test_profile_matches_name_fold(self, wall_traces, eid):
        spans = wall_traces[eid]
        ref = _name_fold(spans)
        prof = build_profile(spans, quantize=False)
        assert set(prof.paths) == set(ref)
        for path, (count, events, incl, excl) in ref.items():
            stats = prof.paths[path]
            assert (stats.count, stats.events) == (count, events), path
            assert stats.total_ms == pytest.approx(incl, abs=1e-6)
            assert stats.self_ms == pytest.approx(excl, abs=1e-6)
        ref_roots = sum(incl for path, (_, _, incl, _) in ref.items()
                        if "/" not in path)
        ref_excl = sum(excl for _, _, _, excl in ref.values())
        roots = sum(stats.total_ms for path, stats in prof.paths.items()
                    if PATH_SEP not in path)
        assert roots == pytest.approx(ref_roots, abs=1e-6)
        assert prof.total_self_ms() == pytest.approx(ref_excl, abs=1e-6)


class TestCli:
    def test_profile_capture_writes_json_and_folded(self, tmp_path,
                                                    capsys):
        out = tmp_path / "deep" / "dir" / "head.json"
        folded = tmp_path / "other" / "head.folded"
        rc = main(["profile", "nn_forward", "--out", str(out),
                   "--folded", str(folded)])
        assert rc == 0
        doc = json.loads(out.read_text())
        assert doc["deterministic"] is True
        assert doc["targets"] == ["nn_forward"]
        text = folded.read_text()
        assert any(line.startswith("probe:nn_forward;nn.conv2d")
                   for line in text.splitlines())
        assert "self ms" in capsys.readouterr().out

    def test_profile_unknown_target_is_cli_error(self, tmp_path):
        assert main(["profile", "bogus_target",
                     "--out", str(tmp_path / "x.json")]) == 2

    def test_trace_json_emits_profile_document(self, tmp_path,
                                               capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        rc = main(["trace", "ablation_pipeline", "--json"])
        assert rc == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["schema"] == 1
        assert doc["deterministic"] is False  # wall-clock capture
        assert doc["targets"] == ["ablation_pipeline"]
        assert any("pipeline.run" in p for p in doc["paths"])

    def test_trace_out_creates_parent_dirs(self, tmp_path):
        out = tmp_path / "nested" / "trace.json"
        jsonl = tmp_path / "also" / "nested" / "spans.jsonl"
        rc = main(["trace", "ablation_pipeline", "--out", str(out),
                   "--jsonl", str(jsonl)])
        assert rc == 0
        assert out.is_file() and jsonl.is_file()
