"""Tests for the observability layer (``repro.obs``): tracer, metrics,
exporters, and its threading through the pipeline, guard, runner, and
parallel fan-out."""

import json

import numpy as np
import pytest

from repro.bench.parallel import parallel_map
from repro.bench.runner import ExperimentResult, ExperimentRunner
from repro.core.pipeline import PipelineConfig, VipPipeline
from repro.errors import ConfigError, SerializationError
from repro.faults import FaultInjector, FaultKind, FaultSpec
from repro.obs import (DEFAULT_BUCKETS_MS, NULL_SPAN, NULL_TRACER,
                       Aggregator, Counter, MetricsRegistry, NullTracer,
                       QuantileSketch, TelemetryBus, Tracer,
                       aggregate_tree, chrome_trace, current_tracer,
                       exclusive_total_s, record_event, render_tree,
                       use_telemetry, use_tracer, write_chrome_trace,
                       write_spans_jsonl)


class FakeClock:
    """Deterministic clock: each call advances by ``step`` seconds."""

    def __init__(self, step: float = 1.0) -> None:
        self.now = 0.0
        self.step = step

    def __call__(self) -> float:
        t = self.now
        self.now += self.step
        return t


class TestTracer:
    def test_nesting_and_parenting(self):
        t = Tracer(clock=FakeClock())
        with t.span("root") as root:
            with t.span("child") as child:
                assert t.current_span() is child
            assert t.current_span() is root
        assert t.current_span() is None
        spans = {s.name: s for s in t.finished_spans()}
        assert spans["child"].parent_id == spans["root"].span_id
        assert spans["root"].parent_id is None
        assert spans["root"].duration_s > spans["child"].duration_s

    def test_ids_are_deterministic(self):
        def build():
            t = Tracer(clock=FakeClock())
            with t.span("a"):
                with t.span("b"):
                    t.event("e", k=1)
            return [s.to_dict() for s in t.finished_spans()]

        assert build() == build()

    def test_events_attach_to_active_span(self):
        t = Tracer(clock=FakeClock())
        with t.span("s"):
            t.event("retry", attempt=1)
        (span,) = t.finished_spans()
        assert span.events[0].name == "retry"
        assert span.events[0].attrs == {"attempt": 1}

    def test_event_without_span_is_dropped(self):
        t = Tracer(clock=FakeClock())
        t.event("orphan")
        assert t.finished_spans() == []

    def test_empty_name_rejected(self):
        with pytest.raises(ConfigError):
            Tracer(clock=FakeClock()).start_span("")

    def test_ambient_tracer(self):
        assert current_tracer() is NULL_TRACER
        t = Tracer(clock=FakeClock())
        with use_tracer(t):
            assert current_tracer() is t
            with t.span("s"):
                record_event("via-ambient")
        assert current_tracer() is NULL_TRACER
        assert t.finished_spans()[0].events[0].name == "via-ambient"

    def test_adopt_requires_finished(self):
        t = Tracer(clock=FakeClock())
        open_span = t.start_span("open")
        with pytest.raises(ConfigError):
            Tracer(clock=FakeClock()).adopt([open_span])


class TestNullTracer:
    def test_is_free_and_inert(self):
        t = NullTracer()
        assert not t.enabled
        with t.span("x", a=1) as sp:
            assert sp is NULL_SPAN
            t.event("ignored")
        assert t.finished_spans() == []
        assert t.current_context() is None
        assert t.metrics.snapshot() == {}
        # span() hands back the shared no-op without allocation
        assert t.span("y") is NULL_SPAN

    def test_null_span_discards_writes(self):
        NULL_SPAN.set_attr("k", 1)
        NULL_SPAN.add_event("e", 0.0)
        assert NULL_SPAN.attrs == {}
        assert NULL_SPAN.events == []


class TestMetrics:
    def test_counter_gauge(self):
        reg = MetricsRegistry()
        reg.counter("c").inc()
        reg.counter("c").inc(2)
        reg.gauge("g").set(4.5)
        snap = reg.snapshot()
        assert snap["c"] == {"type": "counter", "value": 3.0}
        assert snap["g"] == {"type": "gauge", "value": 4.5}

    def test_counter_cannot_decrease(self):
        with pytest.raises(ConfigError):
            Counter("c").inc(-1)

    def test_type_conflict_rejected(self):
        reg = MetricsRegistry()
        reg.counter("x")
        with pytest.raises(ConfigError):
            reg.gauge("x")

    def test_histogram_quantiles_bracket_truth(self):
        reg = MetricsRegistry()
        h = reg.histogram("lat")
        rng = np.random.default_rng(0)
        values = rng.uniform(5.0, 150.0, 5000)
        for v in values:
            h.observe(float(v))
        snap = reg.snapshot()["lat"]
        assert snap["type"] == "histogram"
        assert snap["count"] == 5000 and snap["exact"] is False
        edges = (0.0,) + DEFAULT_BUCKETS_MS
        for q, key in ((0.5, "p50"), (0.95, "p95"), (0.99, "p99")):
            truth = float(np.quantile(values, q))
            # Past the buffer cap the estimate lies in the bucket that
            # covers the true quantile.
            i = int(np.searchsorted(DEFAULT_BUCKETS_MS, truth))
            assert edges[i] <= snap[key] <= edges[i + 1], \
                (key, snap[key], truth)
        assert snap["min"] == values.min()
        assert snap["max"] == values.max()

    def test_histogram_empty_and_bad_buckets(self):
        reg = MetricsRegistry()
        h = reg.histogram("h")
        assert np.isnan(h.quantile(0.5))
        snap = reg.snapshot()["h"]
        assert snap["count"] == 0
        assert snap["min"] is None and snap["p50"] is None
        with pytest.raises(ConfigError):
            QuantileSketch(buckets=[2.0, 1.0])
        with pytest.raises(ConfigError):
            QuantileSketch(buckets=[])


class TestExport:
    def _trace(self):
        t = Tracer(clock=FakeClock())
        with t.span("root", model="m"):
            with t.span("stage"):
                t.event("retry", attempt=1)
            with t.span("stage"):
                pass
        return t

    def test_chrome_trace_is_valid_json(self, tmp_path):
        t = self._trace()
        path = write_chrome_trace(str(tmp_path / "x.json"),
                                  t.finished_spans())
        doc = json.loads(open(path).read())
        events = doc["traceEvents"]
        assert {e["ph"] for e in events} == {"M", "X", "i"}
        complete = [e for e in events if e["ph"] == "X"]
        assert len(complete) == 3
        assert all(e["dur"] >= 0 for e in complete)

    def test_unfinished_span_rejected(self):
        t = Tracer(clock=FakeClock())
        sp = t.start_span("open")
        with pytest.raises(SerializationError):
            chrome_trace([sp])

    def test_jsonl_round_trip(self, tmp_path):
        from repro.io.jsonio import load_jsonl
        t = self._trace()
        path = write_spans_jsonl(str(tmp_path / "x.jsonl"),
                                 t.finished_spans())
        rows = load_jsonl(path)
        assert len(rows) == 3
        assert {r["name"] for r in rows} == {"root", "stage"}

    def test_aggregate_tree_and_closure(self):
        t = self._trace()
        (root,) = aggregate_tree(t.finished_spans())
        assert root.name == "root"
        assert root.children["stage"].count == 2
        # Exclusive times over the tree sum to the root's inclusive.
        assert exclusive_total_s(root) == pytest.approx(
            root.inclusive_s)
        text = render_tree(t.finished_spans())
        assert "root" in text and "stage" in text

    def test_render_empty(self):
        assert "no spans" in render_tree([])


class TestPipelineTracing:
    def _frames(self, builder, small_index):
        recs = [r for r in small_index
                if r.subcategory_key != "adversarial/all"][:40]
        return builder.render_records(recs)

    def test_stage_spans_and_invariance(self, builder, small_index):
        frames = self._frames(builder, small_index)
        baseline = VipPipeline(PipelineConfig(), seed=7).run(frames)
        tracer = Tracer()
        traced = VipPipeline(PipelineConfig(), seed=7,
                             tracer=tracer).run(frames)
        # Tracing must not perturb results (NaN-tolerant compare).
        from repro.io.jsonio import jsonable
        assert jsonable(traced.summary()) == \
            jsonable(baseline.summary())
        names = {s.name for s in tracer.finished_spans()}
        assert {"pipeline.run", "frame", "detect", "track",
                "alert"} <= names
        assert ("pose" in names) and ("depth" in names)
        n_frames = sum(1 for s in tracer.finished_spans()
                       if s.name == "frame")
        assert n_frames == traced.frames_processed
        snap = tracer.metrics.snapshot()
        assert snap["pipeline.frame_latency_ms"]["count"] == \
            traced.frames_processed
        assert snap["pipeline.frames_dropped"]["value"] == \
            traced.frames_dropped

    def test_frame_latency_histogram_matches_telemetry(self, builder,
                                                       small_index):
        # One quantile structure: the tracer's frame-latency histogram
        # and the telemetry e2e sketch summarise one frame stream with
        # the same numbers.
        frames = self._frames(builder, small_index)
        tracer, bus = Tracer(), TelemetryBus()
        with use_telemetry(bus):
            rep = VipPipeline(PipelineConfig(), seed=7,
                              tracer=tracer).run(frames)
        hist = tracer.metrics.snapshot()["pipeline.frame_latency_ms"]
        e2e = Aggregator(bus).fleet_sketch("e2e", 0.0,
                                           windowed=False).snapshot()
        assert hist["count"] == e2e["count"] == rep.frames_processed
        for key in ("min", "max", "p50", "p95", "p99"):
            assert hist[key] == e2e[key], key
        assert hist["p50"] == float(
            np.quantile(rep.per_frame_latency_ms, 0.5))

    def test_guard_events_reach_stage_spans(self, builder,
                                            small_index):
        frames = self._frames(builder, small_index)
        specs = (FaultSpec(FaultKind.STAGE_CRASH, probability=0.5,
                           magnitude=1.0, stage="detect"),)
        tracer = Tracer()
        rep = VipPipeline(PipelineConfig(), seed=7,
                          injector=FaultInjector(specs, seed=7),
                          tracer=tracer).run(frames)
        assert rep.retries > 0
        events = [e.name for s in tracer.finished_spans()
                  for e in s.events]
        assert "stage_retry" in events
        assert "fallback" in events
        retry_spans = [s.name for s in tracer.finished_spans()
                       if any(e.name == "stage_retry"
                              for e in s.events)]
        assert set(retry_spans) == {"detect"}
        assert tracer.metrics.snapshot()["guard.retries"]["value"] > 0


class TestRunnerTracing:
    def _runner(self):
        def fake(**kwargs):
            pipe_tracer = current_tracer()
            pipe_tracer.metrics.counter("fake.calls").inc()
            return ExperimentResult(
                experiment_id="fake", title="Fake", headers=["x"],
                rows=[[1]], claims={"ok": True})
        return ExperimentRunner({"fake": fake})

    def test_root_span_and_metrics_attach(self):
        tracer = Tracer()
        with use_tracer(tracer):
            result = self._runner().run("fake")
        roots = [s for s in tracer.finished_spans()
                 if s.name == "experiment:fake"]
        assert len(roots) == 1
        assert roots[0].attrs["claims_hold"] is True
        assert result.metrics["fake.calls"]["value"] == 1.0

    def test_disabled_by_default(self):
        result = self._runner().run("fake")
        assert result.metrics == {}


def _traced_square(x):
    record_event("square", x=x)
    return x * x


class TestParallelTracing:
    def test_serial_path_spans(self):
        tracer = Tracer()
        with use_tracer(tracer), tracer.span("caller"):
            out = parallel_map(_traced_square, [1, 2, 3],
                               force_serial=True)
        assert out == [1, 4, 9]
        items = [s for s in tracer.finished_spans()
                 if s.name == "map_item"]
        assert len(items) == 3
        caller = next(s for s in tracer.finished_spans()
                      if s.name == "caller")
        assert all(s.parent_id == caller.span_id for s in items)
        assert sum(len(s.events) for s in items) == 3

    def test_pool_path_adopts_worker_spans(self):
        tracer = Tracer()
        with use_tracer(tracer), tracer.span("caller"):
            out = parallel_map(_traced_square, list(range(8)),
                               workers=2)
        assert out == [x * x for x in range(8)]
        items = [s for s in tracer.finished_spans()
                 if s.name == "map_item"]
        assert len(items) == 8
        caller = next(s for s in tracer.finished_spans()
                      if s.name == "caller")
        # Worker spans parent under the caller's span and share its
        # trace id (whether the pool ran or the env fell back serial).
        assert all(s.parent_id == caller.span_id for s in items)
        assert all(s.trace_id == caller.trace_id for s in items)
        # Ids stay unique after adoption.
        ids = [s.span_id for s in tracer.finished_spans()]
        assert len(ids) == len(set(ids))

    def test_untraced_path_unchanged(self):
        assert parallel_map(_traced_square, [2, 3], workers=2) == \
            [4, 9]
