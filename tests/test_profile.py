"""Profile subsystem tests: tick clock, path algebra, determinism,
shard/worker invariance, the diff gate, and the CLI surface.

The acceptance criteria live here in machine-checked form:

* ``repro profile`` output is byte-identical across reruns and across
  shard counts {1, 4} (and across 1-vs-N ``parallel_map`` workers);
* ``repro profile --diff`` exits non-zero when a tracked path's
  self-time p50 regresses beyond tolerance or a new path reaches the
  noise floor;
* the committed ``profile_baseline/PROFILE_baseline.json`` is fresh —
  recapturing it reproduces the committed bytes exactly.
"""

from __future__ import annotations

import copy
import json
import math
import os

import pytest

from repro.bench import profiler
from repro.bench.parallel import parallel_map
from repro.cli import main
from repro.errors import (BenchmarkError, ConfigError,
                          SerializationError)
from repro.io.jsonio import dumps_json
from repro.obs import (Profile, TickClock, Tracer, build_profile,
                       diff_profiles, folded_stacks,
                       load_profile_document, profile_document,
                       profile_regressions, render_profile,
                       span_paths, use_tracer)
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


class TestCommittedBaseline:
    def test_baseline_is_fresh(self):
        """Recapturing the baseline reproduces the committed bytes."""
        path = os.path.join(REPO_ROOT, profiler.DEFAULT_BASELINE_PATH)
        with open(path, "r", encoding="utf-8") as fh:
            committed = fh.read()
        doc = profiler.capture_document(profiler.BASELINE_TARGETS)
        assert dumps_json(doc) + "\n" == committed

    def test_baseline_covers_required_hot_paths(self):
        doc = profiler.load_profile(
            os.path.join(REPO_ROOT, profiler.DEFAULT_BASELINE_PATH))
        paths = list(doc["paths"])
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
        assert load_profile_document(doc) is doc
        bad = dict(doc, schema=99)
        with pytest.raises(SerializationError):
            load_profile_document(bad)
        with pytest.raises(SerializationError):
            load_profile_document({"schema": 1})


class TestDiffGate:
    def _docs(self):
        prof = Profile()
        for _ in range(4):
            prof.record("hot/path", 10, 12, 0)
            prof.record("cold/path", 1, 1, 0)
        base = profile_document(prof, targets=["t"])
        return base, copy.deepcopy(base)

    def test_identical_profiles_pass(self):
        base, head = self._docs()
        assert profile_regressions(base, head) == []
        rows = diff_profiles(base, head)
        assert all(r["delta_self_ms"] == 0 for r in rows)

    def test_slowed_hot_path_regresses(self):
        base, head = self._docs()
        head["paths"]["hot/path"]["self_p50_ms"] *= 1.5
        hits = profile_regressions(base, head)
        assert [h["path"] for h in hits] == ["hot/path"]
        assert hits[0]["regress_pct"] == pytest.approx(50.0)

    def test_noise_floor_skips_tiny_paths(self):
        base, head = self._docs()
        head["paths"]["cold/path"]["self_p50_ms"] = 100.0
        head["paths"]["new/path"] = dict(base["paths"]["cold/path"])
        assert profile_regressions(base, head) == []

    def test_within_tolerance_passes(self):
        base, head = self._docs()
        head["paths"]["hot/path"]["self_p50_ms"] *= 1.05
        assert profile_regressions(base, head) == []
        assert profile_regressions(base, head,
                                   max_regress_pct=1.0) != []

    def test_added_and_removed_paths_flagged(self):
        base, head = self._docs()
        del head["paths"]["cold/path"]
        head["paths"]["new/path"] = dict(base["paths"]["hot/path"])
        status = {r["path"]: r["status"]
                  for r in diff_profiles(base, head)}
        assert status["cold/path"] == "removed"
        assert status["new/path"] == "added"
        # an added path above the noise floor gates; a removed one never
        hits = profile_regressions(base, head)
        assert [h["path"] for h in hits] == ["new/path"]
        assert hits[0]["baseline"] == 0.0
        assert hits[0]["regress_pct"] == math.inf

    def test_nondeterministic_documents_refuse_to_gate(self):
        base, head = self._docs()
        head["deterministic"] = False
        with pytest.raises(ConfigError):
            profile_regressions(base, head)

    def test_negative_tolerance_rejected(self):
        base, head = self._docs()
        with pytest.raises(ConfigError):
            profile_regressions(base, head, max_regress_pct=-1)


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

    def test_profile_diff_identical_exits_zero(self, tmp_path,
                                               capsys):
        out = tmp_path / "head.json"
        assert main(["profile", "nn_forward",
                     "--out", str(out)]) == 0
        rc = main(["profile", "--diff", str(out), str(out)])
        assert rc == 0
        assert "no self-time p50 regression" in \
            capsys.readouterr().out

    def test_profile_diff_slowed_path_exits_nonzero(self, tmp_path,
                                                    capsys):
        """The acceptance check: a synthetically slowed hot path
        makes ``repro profile --diff`` exit non-zero."""
        base_p = tmp_path / "base.json"
        head_p = tmp_path / "head.json"
        assert main(["profile", "nn_forward",
                     "--out", str(base_p)]) == 0
        doc = json.loads(base_p.read_text())
        hot = max(doc["paths"],
                  key=lambda p: doc["paths"][p]["self_p50_ms"])
        doc["paths"][hot]["self_p50_ms"] *= 2.0
        head_p.write_text(dumps_json(doc))
        rc = main(["profile", "--diff", str(base_p), str(head_p)])
        assert rc == 1
        err = capsys.readouterr().err
        assert "REGRESSION" in err and hot in err

    def test_profile_diff_added_span_exits_nonzero(self, tmp_path,
                                                   capsys):
        """One added span (a new path with 399 ms of self time) fails
        the gate, even though every shared path is unchanged."""
        base_p = tmp_path / "base.json"
        head_p = tmp_path / "head.json"
        assert main(["profile", "nn_forward",
                     "--out", str(base_p)]) == 0
        doc = json.loads(base_p.read_text())
        added = "probe:nn_forward/extra"
        doc["paths"][added] = dict(
            next(iter(doc["paths"].values())), self_ms=399.0,
            self_p50_ms=399.0, self_p99_ms=399.0)
        head_p.write_text(dumps_json(doc))
        rc = main(["profile", "--diff", str(base_p), str(head_p)])
        assert rc == 1
        err = capsys.readouterr().err
        assert f"{added}: 0.00 -> 399.00 ms (new path)" in err

    def test_profile_diff_missing_file_is_cli_error(self, tmp_path):
        assert main(["profile", "--diff", str(tmp_path / "a.json"),
                     str(tmp_path / "b.json")]) == 2

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

    def test_profile_diff_refuses_wall_clock_document(self, tmp_path,
                                                      capsys,
                                                      monkeypatch):
        # A `repro trace --json` document is wall-clock
        # (deterministic: false): the diff table still prints, but the
        # gate refuses it with a CLI error instead of passing.
        monkeypatch.chdir(tmp_path)
        assert main(["trace", "ablation_pipeline", "--json"]) == 0
        wall = tmp_path / "wall.json"
        wall.write_text(capsys.readouterr().out)
        tick = tmp_path / "tick.json"
        assert main(["profile", "nn_forward", "--out", str(tick)]) == 0
        capsys.readouterr()
        for pair in ((tick, wall), (wall, tick)):
            rc = main(["profile", "--diff", str(pair[0]), str(pair[1])])
            assert rc == 2
            captured = capsys.readouterr()
            assert "base self" in captured.out  # diff shown first
            assert "refusing to gate non-deterministic" in captured.err

    def test_trace_out_creates_parent_dirs(self, tmp_path):
        out = tmp_path / "nested" / "trace.json"
        jsonl = tmp_path / "also" / "nested" / "spans.jsonl"
        rc = main(["trace", "ablation_pipeline", "--out", str(out),
                   "--jsonl", str(jsonl)])
        assert rc == 0
        assert out.is_file() and jsonl.is_file()
