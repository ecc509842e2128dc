"""Metrics primitives: counters, gauges, histograms.

A :class:`MetricsRegistry` hands out named instruments and snapshots
them into one plain dict (sorted keys, JSON-able) that the experiment
runner attaches to :class:`~repro.bench.runner.ExperimentResult`.
A histogram is a default :class:`~repro.obs.sketch.QuantileSketch`,
the repo's one quantile structure: sample-exact quantiles for small
streams, bucketed with interpolation past its buffer cap, and exact
min/max/sum/count throughout.  Its snapshot carries
``"type": "histogram"`` next to the sketch summary.

The :data:`NULL_METRICS` registry backs the disabled tracer: the same
API, every write discarded, no allocation per call.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from ..errors import ConfigError
from .sketch import QuantileSketch


class Counter:
    """Monotonically increasing count."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ConfigError(
                f"counter {self.name!r} cannot decrease (inc {amount})")
        self.value += amount

    def snapshot(self) -> dict:
        return {"type": "counter", "value": self.value}


class Gauge:
    """Last-write-wins instantaneous value."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value: Optional[float] = None

    def set(self, value: float) -> None:
        self.value = float(value)

    def snapshot(self) -> dict:
        return {"type": "gauge", "value": self.value}


class MetricsRegistry:
    """Named instrument store; one instrument per name, type-stable."""

    def __init__(self) -> None:
        self._instruments: Dict[str, object] = {}

    def _get(self, name: str, cls, factory):
        if not name:
            raise ConfigError("metric name must be non-empty")
        inst = self._instruments.get(name)
        if inst is None:
            inst = factory()
            self._instruments[name] = inst
        elif not isinstance(inst, cls):
            raise ConfigError(
                f"metric {name!r} already registered as "
                f"{type(inst).__name__}")
        return inst

    def counter(self, name: str) -> Counter:
        return self._get(name, Counter, lambda: Counter(name))

    def gauge(self, name: str) -> Gauge:
        return self._get(name, Gauge, lambda: Gauge(name))

    def histogram(self, name: str) -> QuantileSketch:
        return self._get(name, QuantileSketch, QuantileSketch)

    def names(self) -> List[str]:
        return sorted(self._instruments)

    def snapshot(self) -> Dict[str, dict]:
        """All instruments as one JSON-able dict (sorted, stable)."""
        out: Dict[str, dict] = {}
        for name in self.names():
            inst = self._instruments[name]
            if isinstance(inst, QuantileSketch):
                out[name] = {"type": "histogram", **inst.snapshot()}
            else:
                out[name] = inst.snapshot()
        return out


class _NullInstrument:
    """Write-discarding stand-in for every instrument type."""

    __slots__ = ()
    name = ""
    value = None

    def inc(self, amount: float = 1.0) -> None:
        return None

    def set(self, value: float) -> None:
        return None

    def observe(self, value: float) -> None:
        return None

    def snapshot(self, quantiles: Optional[Sequence[float]] = None
                 ) -> dict:
        return {}


_NULL_INSTRUMENT = _NullInstrument()


class NullMetricsRegistry(MetricsRegistry):
    """Disabled registry: hands out one shared no-op instrument."""

    def counter(self, name: str):  # type: ignore[override]
        return _NULL_INSTRUMENT

    def gauge(self, name: str):  # type: ignore[override]
        return _NULL_INSTRUMENT

    def histogram(self, name: str):  # type: ignore[override]
        return _NULL_INSTRUMENT

    def snapshot(self) -> Dict[str, dict]:
        return {}


#: Registry behind :data:`repro.obs.tracer.NULL_TRACER`.
NULL_METRICS = NullMetricsRegistry()
