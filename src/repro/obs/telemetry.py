"""Streaming telemetry: per-frame samples, the bus, fleet aggregation.

A :class:`TelemetrySample` is one measurement tagged by device and
stage (``drone-03 / e2e / 41.2 ms at t=12.4 s``).  Instrumented
components — the VIP pipeline, the fleet scheduler, the latency
sampler's thermal model — resolve :func:`current_telemetry` at run time
and emit into whatever :class:`TelemetryBus` is installed with
:func:`use_telemetry`; the default is :data:`NULL_TELEMETRY`, a
write-discarding bus, so emission is opt-in and cheap when off (the
same contract as the tracer).

The bus maintains, per ``(device, stage)`` key:

* a **sliding-window sketch** (live "last N seconds" percentiles), and
* a **cumulative sketch** (whole-run rollup, what the pinned probe
  snapshots record),

and optionally the raw time-ordered sample log, which is what the
``repro monitor`` replay renders and what crosses process boundaries:
:func:`repro.bench.parallel.parallel_map` workers return their bus's
samples and the parent :meth:`TelemetryBus.adopt`\\ s them.

:class:`Aggregator` is the fleet view: it merges per-device sketches
into per-stage and fleet-wide rollups — merge associativity of
:class:`~repro.obs.sketch.QuantileSketch` is what makes "merge across
devices, then across workers" equal "merge across workers, then across
devices".
"""

from __future__ import annotations

import contextlib
import contextvars
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from ..errors import ConfigError
from .sketch import (DEFAULT_BUCKETS_MS, DEFAULT_QUANTILES,
                     QuantileSketch, WindowedSketch)


@dataclass(frozen=True)
class TelemetrySample:
    """One tagged measurement on the fleet timeline."""

    device: str
    stage: str
    value: float
    t_s: float
    unit: str = "ms"

    def to_dict(self) -> dict:
        return {"device": self.device, "stage": self.stage,
                "value": self.value, "t_s": self.t_s,
                "unit": self.unit}


class TelemetryBus:
    """Collects telemetry samples and keeps per-key sketches current.

    ``window_s``/``subwindows`` size the sliding window behind the live
    percentiles; ``record`` keeps the raw sample log (needed for the
    monitor replay and for cross-process adoption — turn it off for
    long-running emitters that only need rollups).
    """

    enabled = True

    def __init__(self, window_s: float = 5.0, subwindows: int = 10,
                 buckets: Sequence[float] = DEFAULT_BUCKETS_MS,
                 record: bool = True) -> None:
        if window_s <= 0 or subwindows < 1:
            raise ConfigError("bad telemetry window parameters")
        self.window_s = float(window_s)
        self.subwindows = int(subwindows)
        self._buckets = tuple(float(b) for b in buckets)
        self.record = record
        self.samples: List[TelemetrySample] = []
        self._windowed: Dict[Tuple[str, str], WindowedSketch] = {}
        self._cumulative: Dict[Tuple[str, str], QuantileSketch] = {}

    # -- emission ------------------------------------------------------------

    def emit(self, device: str, stage: str, value: float, t_s: float,
             unit: str = "ms") -> None:
        """Record one sample (tags must be non-empty)."""
        if not device or not stage:
            raise ConfigError("telemetry samples need device and stage")
        sample = TelemetrySample(device, stage, float(value),
                                 float(t_s), unit)
        if self.record:
            self.samples.append(sample)
        key = (device, stage)
        win = self._windowed.get(key)
        if win is None:
            win = self._windowed[key] = WindowedSketch(
                self.window_s, self.subwindows, self._buckets)
            self._cumulative[key] = QuantileSketch(self._buckets)
        win.observe(sample.value, sample.t_s)
        self._cumulative[key].observe(sample.value)

    def adopt(self, samples: Sequence[TelemetrySample]) -> None:
        """Merge samples recorded elsewhere (a worker process) into
        this bus — replayed through :meth:`emit`, so the sketches stay
        consistent with the log."""
        for s in samples:
            self.emit(s.device, s.stage, s.value, s.t_s, s.unit)

    # -- views ---------------------------------------------------------------

    def keys(self) -> List[Tuple[str, str]]:
        return sorted(self._windowed)

    def devices(self) -> List[str]:
        return sorted({d for d, _ in self._windowed})

    def stages(self, device: Optional[str] = None) -> List[str]:
        return sorted({s for d, s in self._windowed
                       if device is None or d == device})

    def windowed_sketch(self, device: str,
                        stage: str) -> Optional[WindowedSketch]:
        return self._windowed.get((device, stage))

    def cumulative_sketch(self, device: str,
                          stage: str) -> Optional[QuantileSketch]:
        return self._cumulative.get((device, stage))

    @property
    def end_s(self) -> float:
        """Timestamp of the newest sample (0 when empty)."""
        return max((s.t_s for s in self.samples), default=0.0)


class NullTelemetryBus(TelemetryBus):
    """Disabled bus: every write is discarded without allocation."""

    enabled = False

    def emit(self, device: str, stage: str, value: float, t_s: float,
             unit: str = "ms") -> None:
        return None

    def adopt(self, samples: Sequence[TelemetrySample]) -> None:
        return None


#: The ambient default: telemetry off.
NULL_TELEMETRY = NullTelemetryBus()

_CURRENT_BUS: contextvars.ContextVar[TelemetryBus] = \
    contextvars.ContextVar("repro-current-telemetry",
                           default=NULL_TELEMETRY)


def current_telemetry() -> TelemetryBus:
    """The ambient bus (:data:`NULL_TELEMETRY` unless installed)."""
    return _CURRENT_BUS.get()


@contextlib.contextmanager
def use_telemetry(bus: TelemetryBus) -> Iterator[TelemetryBus]:
    """Install ``bus`` as the ambient telemetry sink for the block."""
    token = _CURRENT_BUS.set(bus)
    try:
        yield bus
    finally:
        _CURRENT_BUS.reset(token)


class Aggregator:
    """Fleet rollups over one bus: per-device, per-stage, fleet-wide.

    ``windowed=True`` (the live dashboard view) merges the sliding
    windows ending at ``now_s``; ``windowed=False`` merges the
    cumulative whole-run sketches.
    """

    def __init__(self, bus: TelemetryBus) -> None:
        self.bus = bus

    def _sketch(self, device: str, stage: str, windowed: bool,
                now_s: float) -> Optional[QuantileSketch]:
        if windowed:
            win = self.bus.windowed_sketch(device, stage)
            return win.merged(now_s) if win is not None else None
        return self.bus.cumulative_sketch(device, stage)

    def per_device(self, now_s: float, windowed: bool = True,
                   quantiles: Sequence[float] = DEFAULT_QUANTILES
                   ) -> Dict[str, Dict[str, dict]]:
        """{device: {stage: sketch snapshot}} (sorted, JSON-able)."""
        out: Dict[str, Dict[str, dict]] = {}
        for device, stage in self.bus.keys():
            sk = self._sketch(device, stage, windowed, now_s)
            if sk is None:
                continue
            out.setdefault(device, {})[stage] = sk.snapshot(quantiles)
        return out

    def fleet_sketch(self, stage: str, now_s: float,
                     windowed: bool = True) -> Optional[QuantileSketch]:
        """One sketch for ``stage`` merged across every device."""
        return QuantileSketch.merged(
            sk for device, st in self.bus.keys() if st == stage
            for sk in (self._sketch(device, stage, windowed, now_s),)
            if sk is not None)

    def fleet(self, now_s: float, windowed: bool = True,
              quantiles: Sequence[float] = DEFAULT_QUANTILES
              ) -> Dict[str, dict]:
        """{stage: snapshot} merged across the whole fleet."""
        out: Dict[str, dict] = {}
        for stage in self.bus.stages():
            sk = self.fleet_sketch(stage, now_s, windowed)
            if sk is not None and sk.count:
                out[stage] = sk.snapshot(quantiles)
        return out
