"""Span-based tracing for the benchmark harness.

A :class:`Span` is one timed region (an experiment, a pipeline frame, a
stage) with attributes and point-in-time events attached; a
:class:`Tracer` opens spans via a context-manager API, keeps the active
span on a :mod:`contextvars` stack (thread- and task-safe) and collects
every finished span for export.  Design constraints:

* **Zero overhead when disabled.**  The default ambient tracer is
  :data:`NULL_TRACER`, whose ``span()`` hands back one shared no-op span
  and whose metrics are write-discarding singletons, so instrumented hot
  paths pay only a method call when tracing is off.
* **Deterministic under test.**  Span/trace ids are sequence numbers,
  never random, and the clock is injected (``Tracer(clock=...)``), so a
  fake clock produces byte-identical traces.
* **Process-portable timestamps.**  The default clock is
  ``perf_counter`` rebased onto the epoch at import, so spans recorded
  in worker processes (:func:`repro.bench.parallel.parallel_map`) land
  on roughly the same timeline as their parent.
"""

from __future__ import annotations

import contextlib
import contextvars
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterator, List, Optional

from ..errors import ConfigError
from .metrics import NULL_METRICS, MetricsRegistry

#: perf_counter → epoch offset, computed once so every process in a run
#: reports timestamps on (approximately) the same absolute timeline.
# reprolint: disable=RL001 the tracer IS the blessed clock source
_EPOCH_OFFSET = time.time() - time.perf_counter()


def default_clock() -> float:
    """Monotonic seconds, rebased to the epoch (cross-process sortable)."""
    # reprolint: disable=RL001 injected-clock default implementation
    return time.perf_counter() + _EPOCH_OFFSET


@dataclass(frozen=True)
class TraceContext:
    """Portable reference to a live span: what crosses process/thread
    boundaries so remote work attaches under the right parent."""

    trace_id: str
    span_id: str


@dataclass
class SpanEvent:
    """A point-in-time annotation on a span (retry, fallback, shed...)."""

    name: str
    time_s: float
    attrs: Dict[str, object] = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {"name": self.name, "time_s": self.time_s,
                "attrs": dict(self.attrs)}


@dataclass
class Span:
    """One timed region of work."""

    name: str
    span_id: str
    trace_id: str
    parent_id: Optional[str] = None
    start_s: float = 0.0
    end_s: Optional[float] = None
    attrs: Dict[str, object] = field(default_factory=dict)
    events: List[SpanEvent] = field(default_factory=list)

    @property
    def finished(self) -> bool:
        return self.end_s is not None

    @property
    def duration_s(self) -> float:
        """Inclusive wall time (0 while the span is still open)."""
        if self.end_s is None:
            return 0.0
        return self.end_s - self.start_s

    def set_attr(self, key: str, value: object) -> "Span":
        self.attrs[key] = value
        return self

    def add_event(self, name: str, time_s: float, **attrs) -> "Span":
        self.events.append(SpanEvent(name, time_s, dict(attrs)))
        return self

    def to_dict(self) -> dict:
        """JSON-able form (the JSON-lines exporter row)."""
        return {
            "name": self.name,
            "span_id": self.span_id,
            "trace_id": self.trace_id,
            "parent_id": self.parent_id,
            "start_s": self.start_s,
            "end_s": self.end_s,
            "duration_s": self.duration_s,
            "attrs": dict(self.attrs),
            "events": [e.to_dict() for e in self.events],
        }


class _NullSpan(Span):
    """Shared write-discarding span: the disabled-tracing fast path."""

    __slots__ = ()

    def __init__(self) -> None:
        super().__init__(name="", span_id="", trace_id="")

    def set_attr(self, key: str, value: object) -> "Span":
        return self

    def add_event(self, name: str, time_s: float, **attrs) -> "Span":
        return self

    def __enter__(self) -> "Span":
        return self

    def __exit__(self, *exc) -> None:
        return None


#: The one no-op span every disabled call path shares.
NULL_SPAN = _NullSpan()


class Tracer:
    """Collects spans; the context-manager API nests them automatically.

    ``clock`` is any zero-argument callable returning seconds; inject a
    fake for deterministic tests.  ``context`` parents this tracer's
    root spans under a span from another tracer (possibly in another
    process); ``id_prefix`` keeps worker-minted span ids collision-free
    when their spans are :meth:`adopt`-ed back into the parent.
    """

    enabled = True

    def __init__(self, clock: Callable[[], float] = default_clock,
                 context: Optional[TraceContext] = None,
                 id_prefix: str = "") -> None:
        self.clock = clock
        self.metrics = MetricsRegistry()
        self._context = context
        self._id_prefix = id_prefix
        self._next_id = 0
        self._trace_id = context.trace_id if context is not None \
            else f"{id_prefix}t1"
        self._active: contextvars.ContextVar[Optional[Span]] = \
            contextvars.ContextVar("repro-active-span", default=None)
        self.spans: List[Span] = []

    # -- span lifecycle ------------------------------------------------------

    def _mint_id(self) -> str:
        self._next_id += 1
        return f"{self._id_prefix}s{self._next_id}"

    def start_span(self, name: str, **attrs) -> Span:
        """Open a span under the currently active one (or the external
        ``context``).  Prefer :meth:`span` unless you need to close the
        span from a different scope."""
        if not name:
            raise ConfigError("span name must be non-empty")
        parent = self._active.get()
        if parent is not None:
            parent_id: Optional[str] = parent.span_id
        elif self._context is not None:
            parent_id = self._context.span_id
        else:
            parent_id = None
        return Span(name=name, span_id=self._mint_id(),
                    trace_id=self._trace_id, parent_id=parent_id,
                    start_s=self.clock(), attrs=dict(attrs))

    def end_span(self, span: Span) -> Span:
        span.end_s = self.clock()
        self.spans.append(span)
        return span

    @contextlib.contextmanager
    def span(self, name: str, **attrs) -> Iterator[Span]:
        """``with tracer.span("detect", frame=i) as sp: ...``"""
        sp = self.start_span(name, **attrs)
        token = self._active.set(sp)
        try:
            yield sp
        finally:
            self._active.reset(token)
            self.end_span(sp)

    # -- ambient event/metric helpers ---------------------------------------

    def current_span(self) -> Optional[Span]:
        return self._active.get()

    def event(self, name: str, **attrs) -> None:
        """Attach a point-in-time event to the active span (dropped on
        the floor when no span is open — events never raise)."""
        sp = self._active.get()
        if sp is not None:
            sp.add_event(name, self.clock(), **attrs)

    # -- cross-process propagation ------------------------------------------

    def current_context(self) -> Optional[TraceContext]:
        """Portable handle to the active span (None when idle)."""
        sp = self._active.get()
        if sp is None:
            if self._context is not None:
                return self._context
            return None
        return TraceContext(trace_id=self._trace_id,
                            span_id=sp.span_id)

    def adopt(self, spans: List[Span]) -> None:
        """Merge finished spans recorded elsewhere (a worker process)
        into this tracer's collection.

        When the clock is a deterministic tick clock (anything with an
        ``advance_reads`` method, see :class:`repro.obs.profile.
        TickClock`), adoption advances it by exactly the reads the
        spans would have made in-process — two per span plus one per
        event — so spans *enclosing* the adoption see the same
        durations whether the work ran serially or in workers.
        """
        n_events = 0
        for sp in spans:
            if not sp.finished:
                raise ConfigError(
                    f"cannot adopt unfinished span {sp.name!r}")
            n_events += len(sp.events)
            self.spans.append(sp)
        advance = getattr(self.clock, "advance_reads", None)
        if advance is not None and spans:
            advance(2 * len(spans) + n_events)

    # -- inspection ----------------------------------------------------------

    def finished_spans(self) -> List[Span]:
        return list(self.spans)

    def roots(self) -> List[Span]:
        ids = {sp.span_id for sp in self.spans}
        return [sp for sp in self.spans
                if sp.parent_id is None or sp.parent_id not in ids]


class NullTracer(Tracer):
    """Disabled tracer: every operation is a cheap no-op.

    Shares one :data:`NULL_SPAN` and a write-discarding metrics registry
    so instrumentation costs a method call, never allocation.
    """

    enabled = False

    def __init__(self) -> None:
        super().__init__()
        self.metrics = NULL_METRICS

    def start_span(self, name: str, **attrs) -> Span:
        return NULL_SPAN

    def end_span(self, span: Span) -> Span:
        return span

    def span(self, name: str, **attrs):
        # NULL_SPAN is its own context manager: no generator, no
        # allocation — the whole point of the null object.
        return NULL_SPAN

    def current_span(self) -> Optional[Span]:
        return None

    def event(self, name: str, **attrs) -> None:
        return None

    def current_context(self) -> Optional[TraceContext]:
        return None

    def adopt(self, spans: List[Span]) -> None:
        return None


#: The ambient default: tracing off.
NULL_TRACER = NullTracer()

_CURRENT_TRACER: contextvars.ContextVar[Tracer] = contextvars.ContextVar(
    "repro-current-tracer", default=NULL_TRACER)


def current_tracer() -> Tracer:
    """The ambient tracer (:data:`NULL_TRACER` unless one is installed)."""
    return _CURRENT_TRACER.get()


@contextlib.contextmanager
def use_tracer(tracer: Tracer) -> Iterator[Tracer]:
    """Install ``tracer`` as the ambient tracer for the enclosed block.

    Instrumented components resolve :func:`current_tracer` at run time,
    so everything under this block traces into ``tracer``."""
    token = _CURRENT_TRACER.set(tracer)
    try:
        yield tracer
    finally:
        _CURRENT_TRACER.reset(token)


def record_event(name: str, **attrs) -> None:
    """Attach an event to the ambient tracer's active span (no-op when
    tracing is disabled) — the hook deep layers use without plumbing."""
    _CURRENT_TRACER.get().event(name, **attrs)
