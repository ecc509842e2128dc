"""Observability layer: span tracing, metrics, telemetry, SLOs.

The harness-wide contract:

* instrumented components resolve :func:`current_tracer` /
  :func:`current_telemetry` at run time and default to the no-op
  :data:`NULL_TRACER` / :data:`NULL_TELEMETRY` — observability is
  opt-in and free when off;
* ``with use_tracer(Tracer()) as t:`` turns every span/metric emitted
  underneath into data on ``t``; ``with use_telemetry(TelemetryBus())``
  does the same for per-frame telemetry samples;
* finished traces export as JSON-lines or Chrome ``trace_event`` files
  and print as an aggregated span tree (``python -m repro trace``);
* telemetry aggregates into mergeable sliding-window quantile sketches
  (:mod:`repro.obs.sketch`), rolls up across the fleet
  (:class:`Aggregator`), is judged against SLO burn-rate policies
  (:mod:`repro.obs.slo`) and renders as a live fleet dashboard
  (``python -m repro monitor``).
"""

from .metrics import (Counter, Gauge, MetricsRegistry, NULL_METRICS,
                      NullMetricsRegistry)
from .tracer import (NULL_SPAN, NULL_TRACER, NullTracer, Span,
                     SpanEvent, TraceContext, Tracer, current_tracer,
                     default_clock, record_event, use_tracer)
from .export import (aggregate_tree, chrome_trace, exclusive_total_s,
                     render_tree, spans_to_jsonl_rows,
                     write_chrome_trace, write_spans_jsonl)
from .profile import (DEFAULT_MAX_REGRESS_PCT, DEFAULT_MIN_SELF_MS,
                      PROFILE_SCHEMA, PathStats, Profile, TickClock,
                      build_profile, diff_profiles, folded_stacks,
                      load_profile_document, profile_document,
                      profile_regressions, render_profile, span_paths)
from .sketch import (DEFAULT_BUCKETS_MS, DEFAULT_BUFFER_CAP,
                     DEFAULT_QUANTILES, QuantileSketch, SlidingWindow,
                     WindowedCounter, WindowedSketch,
                     interpolated_quantile, quantile_key)
from .telemetry import (Aggregator, NULL_TELEMETRY, NullTelemetryBus,
                        TelemetryBus, TelemetrySample,
                        current_telemetry, use_telemetry)
from .slo import (BurnWindow, ObjectiveStatus, REALTIME_BUDGET_MS,
                  SloObjective, SloPolicy, SloStatus, SloTracker)
from .dashboard import DashboardFrame, MonitorSession, SLO_STAGE

__all__ = [
    "Counter", "Gauge", "MetricsRegistry",
    "NullMetricsRegistry", "NULL_METRICS", "DEFAULT_BUCKETS_MS",
    "DEFAULT_QUANTILES", "interpolated_quantile", "quantile_key",
    "Span", "SpanEvent", "TraceContext", "Tracer", "NullTracer",
    "NULL_SPAN", "NULL_TRACER", "current_tracer", "use_tracer",
    "record_event", "default_clock",
    "aggregate_tree", "chrome_trace", "exclusive_total_s",
    "render_tree", "spans_to_jsonl_rows", "write_chrome_trace",
    "write_spans_jsonl",
    "DEFAULT_MAX_REGRESS_PCT", "DEFAULT_MIN_SELF_MS",
    "PROFILE_SCHEMA", "PathStats", "Profile", "TickClock",
    "build_profile", "diff_profiles", "folded_stacks",
    "load_profile_document", "profile_document",
    "profile_regressions", "render_profile", "span_paths",
    "DEFAULT_BUFFER_CAP", "QuantileSketch", "SlidingWindow",
    "WindowedCounter", "WindowedSketch",
    "Aggregator", "NULL_TELEMETRY", "NullTelemetryBus",
    "TelemetryBus", "TelemetrySample", "current_telemetry",
    "use_telemetry",
    "BurnWindow", "ObjectiveStatus", "REALTIME_BUDGET_MS",
    "SloObjective", "SloPolicy", "SloStatus", "SloTracker",
    "DashboardFrame", "MonitorSession", "SLO_STAGE",
]
