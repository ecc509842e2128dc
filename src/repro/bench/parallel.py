"""Process-pool fan-out for embarrassingly parallel benchmark grids.

The latency figures sweep 8 models × 4 devices and the accuracy figures
train/evaluate 6 variants — independent work items.  ``parallel_map``
fans them out over a process pool (NumPy releases the GIL inside BLAS,
but the renderer and training loop are Python-heavy, so processes beat
threads), falling back to serial execution for small inputs or when the
platform lacks working multiprocessing.

Work functions must be module-level picklable callables; per-item seeds
should come from :func:`repro.rng.spawn_rngs` so results are identical
regardless of scheduling order.
"""

from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor
from typing import Callable, List, Optional, Sequence, TypeVar

from ..errors import BenchmarkError, ConfigError
from ..obs import (TelemetryBus, TraceContext, Tracer,
                   current_telemetry, current_tracer, use_telemetry,
                   use_tracer)

T = TypeVar("T")
R = TypeVar("R")

#: Below this many items the pool costs more than it saves.
MIN_PARALLEL_ITEMS = 4


def default_workers() -> int:
    """Worker count: physical-ish core count, capped for memory.

    Prefers the scheduling affinity mask over ``os.cpu_count()``: in
    cgroup/affinity-limited environments (CI containers, ``taskset``)
    the machine may advertise 64 cores while the process is allowed 2,
    and sizing the pool to the machine oversubscribes badly.
    """
    try:
        cpus = len(os.sched_getaffinity(0))
    except (AttributeError, OSError):  # non-Linux / restricted platforms
        cpus = os.cpu_count() or 1
    return max(1, min(cpus - 1, 8))


class _TracedTask:
    """Picklable wrapper: runs one item under worker-local observers.

    Carries the parent's :class:`TraceContext` across the process
    boundary; the worker's spans parent under it and come back with the
    result for :meth:`Tracer.adopt`.  The ``w{index}-`` id prefix keeps
    span ids minted in different workers collision-free.  When the
    caller's telemetry bus is live, a worker-local bus records per-frame
    samples that ride back the same way for
    :meth:`TelemetryBus.adopt` — sketch merges in the parent reproduce
    the single-process aggregate exactly.
    """

    def __init__(self, fn: Callable, context: Optional[TraceContext],
                 index: int, traced: bool, telemetry: bool,
                 clock: Optional[Callable[[], float]] = None) -> None:
        self.fn = fn
        self.context = context
        self.index = index
        self.traced = traced
        self.telemetry = telemetry
        #: Worker-local clock (a spawned deterministic tick clock when
        #: the parent profiles; None → the default wall clock).
        self.clock = clock

    def __call__(self, item):
        if self.traced:
            kwargs = {} if self.clock is None \
                else {"clock": self.clock}
            tracer = Tracer(context=self.context,
                            id_prefix=f"w{self.index}-", **kwargs)
        else:
            tracer = current_tracer()
        bus = TelemetryBus() if self.telemetry else current_telemetry()
        with use_tracer(tracer), use_telemetry(bus):
            if self.traced:
                with tracer.span("map_item", index=self.index):
                    value = self.fn(item)
            else:
                value = self.fn(item)
        spans = tracer.finished_spans() if self.traced else []
        samples = bus.samples if self.telemetry else []
        return value, spans, samples


def _serial_map(fn: Callable[[T], R], items: Sequence[T],
                tracer: Tracer) -> List[R]:
    if not tracer.enabled:
        return [fn(item) for item in items]
    out: List[R] = []
    for i, item in enumerate(items):
        with tracer.span("map_item", index=i):
            out.append(fn(item))
    return out


def parallel_map(fn: Callable[[T], R], items: Sequence[T],
                 workers: Optional[int] = None) -> List[R]:
    """Order-preserving map over a process pool with serial fallback.

    Results arrive in input order regardless of completion order.  Any
    worker exception propagates (wrapped in :class:`BenchmarkError` with
    the failing item's index) — partial silent results are never
    returned.

    When the ambient tracer is enabled, each item runs inside a
    ``map_item`` span; spans recorded in worker processes are adopted
    back into the parent trace under the caller's active span.
    """
    items = list(items)
    n_workers = workers if workers is not None else default_workers()
    # Validate before the empty-input early return: a bad worker count
    # is a config bug whether or not there happens to be work, and it
    # must surface as ConfigError, not whatever the executor raises.
    if not isinstance(n_workers, int) or n_workers < 1:
        raise ConfigError(f"workers must be >= 1, got {n_workers!r}")
    if not items:
        return []
    tracer = current_tracer()
    if n_workers == 1 or len(items) < MIN_PARALLEL_ITEMS:
        return _serial_map(fn, items, tracer)
    bus = current_telemetry()
    traced = tracer.enabled
    observed = traced or bus.enabled
    context = tracer.current_context() if traced else None
    # The serial fallback is safe only before any result has been
    # consumed: once spans/telemetry from a worker were adopted into the
    # parent, re-running every item serially would double-count them.
    # So only pool creation and submission may degrade to serial; any
    # failure while consuming results propagates as BenchmarkError.
    try:
        pool = ProcessPoolExecutor(max_workers=n_workers)
        try:
            if observed:
                # Deterministic tick clocks propagate into workers:
                # each gets a fresh spawn so worker spans tick exactly
                # as the serial path would (profiles stay byte-equal).
                spawn = getattr(tracer.clock, "spawn", None) \
                    if traced else None
                futures = [pool.submit(
                    _TracedTask(fn, context, i, traced, bus.enabled,
                                clock=spawn() if spawn else None),
                    item) for i, item in enumerate(items)]
            else:
                futures = [pool.submit(fn, item) for item in items]
        except Exception:
            pool.shutdown(wait=False, cancel_futures=True)
            raise
    except (OSError, ImportError):
        # Constrained environment (no /dev/shm, sandboxed fork): degrade
        # gracefully to serial execution with identical results.  No
        # result was consumed yet, so nothing can be double-adopted.
        return _serial_map(fn, items, tracer)
    try:
        out: List[R] = []
        for i, fut in enumerate(futures):
            try:
                result = fut.result()
            except Exception as exc:  # noqa: BLE001 — re-raise typed
                raise BenchmarkError(
                    f"parallel_map item {i} failed: {exc}") from exc
            if observed:
                value, spans, samples = result
                if spans:
                    tracer.adopt(spans)
                if samples:
                    bus.adopt(samples)
                out.append(value)
            else:
                out.append(result)
        return out
    finally:
        pool.shutdown(wait=True)

