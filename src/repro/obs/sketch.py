"""Mergeable streaming quantile sketches and sliding time windows.

The monitoring layer needs *live* percentiles: per-device p99 over the
last few seconds, mergeable across drones and across ``parallel_map``
worker processes.  Exact sample vectors don't merge cheaply and fixed
histograms alone waste the exactness small streams could have, so
:class:`QuantileSketch` is a hybrid in the spirit of the P² algorithm's
two regimes:

* **exact phase** — up to ``buffer_cap`` samples are kept verbatim, so
  small streams report exact quantiles;
* **bucketed phase** — past the cap the buffer spills into fixed
  log-spaced bucket counts (the Prometheus compromise) and quantiles are
  linearly interpolated inside the covering bucket, with exact
  min/max/sum/count kept alongside.

It is the repo's one quantile structure: telemetry, the fleet
aggregator, the pinned probe snapshots and the metrics registry's
``histogram`` instruments all summarise with it.

The phase a sketch ends up in depends only on its *total* count, never
on the order observations or merges arrived in, which makes ``merge``
associative and commutative up to observable state — the property the
fleet aggregator and the cross-process adoption path rely on (and the
property tests assert).

:class:`SlidingWindow` generalises the time dimension: a ring of
sub-window cells rotated by an injected clock (never wall time), so
"p99 over the last 5 s" is the merge of the live cells.  The SLO burn
counters reuse the same ring via :class:`WindowedCounter`.
"""

from __future__ import annotations

import math
from typing import Callable, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from ..errors import ConfigError

#: Default bucket bounds (ms-scale latencies: 0.1 ms … 10 s).
DEFAULT_BUCKETS_MS: Tuple[float, ...] = (
    0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0, 25.0, 50.0, 100.0,
    250.0, 500.0, 1000.0, 2500.0, 5000.0, 10000.0)

#: Default summary quantiles for snapshots (p50/p95/p99).
DEFAULT_QUANTILES: Tuple[float, ...] = (0.50, 0.95, 0.99)


def quantile_key(q: float) -> str:
    """Stable snapshot key for a quantile (0.99 → ``"p99"``)."""
    return f"p{100.0 * q:g}"


def interpolated_quantile(bounds, counts, count: int, vmin: float,
                          vmax: float, q: float) -> float:
    """Linear-interpolated quantile from fixed bucket counts.

    The quantile estimate of :class:`QuantileSketch`'s bucketed phase.
    Returns NaN when empty.
    """
    if not 0.0 <= q <= 1.0:
        raise ConfigError(f"quantile {q} outside [0, 1]")
    if count == 0:
        return float("nan")
    target = q * count
    cum = 0
    lo = 0.0
    for i, c in enumerate(counts):
        if c == 0:
            lo = float(bounds[i]) if i < len(bounds) else lo
            continue
        if cum + c >= target:
            hi = float(bounds[i]) if i < len(bounds) else vmax
            frac = (target - cum) / c
            est = lo + frac * (hi - lo)
            # Exact extrema beat interpolation at the tails.
            return float(min(max(est, vmin), vmax))
        cum += c
        lo = float(bounds[i]) if i < len(bounds) else lo
    return vmax


#: Exact-phase capacity: small streams stay exact, large ones bucket.
DEFAULT_BUFFER_CAP = 256


class QuantileSketch:
    """Mergeable quantile estimator: exact when small, bucketed at scale.

    Non-finite observations are counted in ``dropped`` and otherwise
    ignored — an infinite sample must never poison ``min``/``max`` or
    the interpolation.
    """

    __slots__ = ("bounds", "counts", "count", "total", "min", "max",
                 "dropped", "buffer_cap", "_buffer")

    def __init__(self, buckets: Sequence[float] = DEFAULT_BUCKETS_MS,
                 buffer_cap: int = DEFAULT_BUFFER_CAP) -> None:
        bounds = [float(b) for b in buckets]
        if not bounds:
            raise ConfigError("sketch needs >= 1 bucket bound")
        if sorted(bounds) != bounds or len(set(bounds)) != len(bounds):
            raise ConfigError("sketch bounds must strictly increase")
        if any(not math.isfinite(b) for b in bounds):
            raise ConfigError("sketch bounds must be finite")
        if buffer_cap < 0:
            raise ConfigError("buffer_cap must be non-negative")
        self.bounds = np.asarray(bounds, dtype=np.float64)
        # counts[i] observations <= bounds[i]; counts[-1] is overflow.
        self.counts = np.zeros(len(bounds) + 1, dtype=np.int64)
        self.count = 0
        self.total = 0.0
        self.min = math.inf
        self.max = -math.inf
        self.dropped = 0
        self.buffer_cap = buffer_cap
        #: Exact-phase samples; ``None`` once spilled into buckets.
        self._buffer: Optional[List[float]] = []

    # -- observation ---------------------------------------------------------

    def observe(self, value: float) -> None:
        v = float(value)
        if not math.isfinite(v):
            self.dropped += 1
            return
        self.count += 1
        self.total += v
        if v < self.min:
            self.min = v
        if v > self.max:
            self.max = v
        if self._buffer is not None:
            self._buffer.append(v)
            if len(self._buffer) > self.buffer_cap:
                self._spill()
        else:
            self.counts[int(np.searchsorted(self.bounds, v))] += 1

    def _spill(self) -> None:
        """Seal the exact phase: move every buffered sample to buckets."""
        if self._buffer is None:
            return
        if self._buffer:
            idx = np.searchsorted(self.bounds,
                                  np.asarray(self._buffer))
            np.add.at(self.counts, idx, 1)
        self._buffer = None

    @property
    def exact(self) -> bool:
        """Still in the exact phase (quantiles are sample-exact)?"""
        return self._buffer is not None

    # -- merging -------------------------------------------------------------

    def _compatible(self, other: "QuantileSketch") -> None:
        if not isinstance(other, QuantileSketch):
            raise ConfigError(f"cannot merge {type(other).__name__}")
        if len(self.bounds) != len(other.bounds) or \
                not np.array_equal(self.bounds, other.bounds):
            raise ConfigError("cannot merge sketches with different "
                              "bucket bounds")
        if self.buffer_cap != other.buffer_cap:
            raise ConfigError("cannot merge sketches with different "
                              "buffer capacities")

    def merge(self, other: "QuantileSketch") -> "QuantileSketch":
        """Pure merge: a new sketch equal to observing both streams.

        Associative and commutative up to observable state: the merged
        sketch stays exact iff the combined count fits the buffer cap,
        which depends only on totals, never on grouping.
        """
        self._compatible(other)
        out = QuantileSketch(self.bounds, self.buffer_cap)
        for src in (self, other):
            out.count += src.count
            out.total += src.total
            out.min = min(out.min, src.min)
            out.max = max(out.max, src.max)
            out.dropped += src.dropped
        if self._buffer is not None and other._buffer is not None \
                and self.count + other.count <= self.buffer_cap:
            out._buffer = list(self._buffer) + list(other._buffer)
            return out
        out._buffer = None
        out.counts = self.counts + other.counts
        for src in (self, other):
            if src._buffer:
                idx = np.searchsorted(out.bounds,
                                      np.asarray(src._buffer))
                np.add.at(out.counts, idx, 1)
        return out

    @classmethod
    def merged(cls, sketches: Iterable["QuantileSketch"]
               ) -> Optional["QuantileSketch"]:
        """Fold an iterable of sketches (None when empty)."""
        acc: Optional[QuantileSketch] = None
        for sk in sketches:
            acc = sk if acc is None else acc.merge(sk)
        return acc

    # -- pure-data transfer --------------------------------------------------

    def state(self) -> dict:
        """JSON-able full state (unlike :meth:`snapshot`, which is a
        lossy summary).  ``from_state(state())`` reproduces the sketch
        exactly, including its phase — the cross-process transfer
        format the fleet shard merge rides on."""
        return {
            "bounds": [float(b) for b in self.bounds],
            "counts": [int(c) for c in self.counts],
            "count": self.count,
            "total": self.total,
            "min": None if self.min == math.inf else self.min,
            "max": None if self.max == -math.inf else self.max,
            "dropped": self.dropped,
            "buffer_cap": self.buffer_cap,
            "buffer": None if self._buffer is None
            else list(self._buffer),
        }

    @classmethod
    def from_state(cls, state: dict) -> "QuantileSketch":
        """Rebuild a sketch from :meth:`state` output."""
        try:
            out = cls(state["bounds"], state["buffer_cap"])
            out.counts = np.asarray(state["counts"], dtype=np.int64)
            out.count = int(state["count"])
            out.total = float(state["total"])
            out.min = math.inf if state["min"] is None \
                else float(state["min"])
            out.max = -math.inf if state["max"] is None \
                else float(state["max"])
            out.dropped = int(state["dropped"])
            out._buffer = None if state["buffer"] is None \
                else [float(v) for v in state["buffer"]]
        except (KeyError, TypeError, ValueError) as exc:
            raise ConfigError(
                f"malformed sketch state: {exc}") from exc
        if len(out.counts) != len(out.bounds) + 1:
            raise ConfigError("sketch state counts/bounds mismatch")
        return out

    # -- summaries -----------------------------------------------------------

    def quantile(self, q: float) -> float:
        if self._buffer is not None:
            if not 0.0 <= q <= 1.0:
                raise ConfigError(f"quantile {q} outside [0, 1]")
            if not self._buffer:
                return float("nan")
            return float(np.quantile(np.asarray(self._buffer), q))
        return interpolated_quantile(self.bounds, self.counts,
                                     self.count, self.min, self.max, q)

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else float("nan")

    def snapshot(self, quantiles: Sequence[float] = DEFAULT_QUANTILES
                 ) -> dict:
        out = {
            "count": self.count,
            "sum": self.total,
            "min": self.min if self.count else None,
            "max": self.max if self.count else None,
            "mean": self.mean if self.count else None,
            "dropped": self.dropped,
            "exact": self.exact,
        }
        for q in quantiles:
            out[quantile_key(q)] = self.quantile(q) if self.count \
                else None
        return out


# -- sliding time windows ----------------------------------------------------


class SlidingWindow:
    """A ring of sub-window cells rotated by an injected clock.

    ``window_s`` seconds of history split into ``subwindows`` cells;
    feeding a timestamp rotates the ring, discarding cells that fell out
    of the window.  Timestamps are clamped monotonic (a slightly stale
    sample lands in the current cell rather than resurrecting an expired
    one), so multi-source replays merge safely.
    """

    def __init__(self, window_s: float, subwindows: int,
                 make_cell: Callable[[], object]) -> None:
        if window_s <= 0:
            raise ConfigError(f"window must be positive, got {window_s}")
        if subwindows < 1:
            raise ConfigError("need at least one sub-window")
        self.window_s = float(window_s)
        self.subwindows = int(subwindows)
        self.sub_width_s = self.window_s / self.subwindows
        self._make_cell = make_cell
        #: slot → (epoch index, cell); lazily rotated.
        self._cells: List[Optional[Tuple[int, object]]] = \
            [None] * self.subwindows
        self._last_s = -math.inf

    def _epoch(self, now_s: float) -> int:
        return int(math.floor(now_s / self.sub_width_s))

    def cell(self, now_s: float) -> object:
        """The cell covering ``now_s`` (created/rotated as needed)."""
        now_s = max(float(now_s), self._last_s)
        self._last_s = now_s
        epoch = self._epoch(now_s)
        slot = epoch % self.subwindows
        entry = self._cells[slot]
        if entry is None or entry[0] != epoch:
            entry = (epoch, self._make_cell())
            self._cells[slot] = entry
        return entry[1]

    def live_cells(self, now_s: float) -> List[object]:
        """Cells still inside the window ending at ``now_s``."""
        now_s = max(float(now_s), self._last_s)
        epoch = self._epoch(now_s)
        lo = epoch - self.subwindows + 1
        return [cell for entry in self._cells if entry is not None
                for e, cell in (entry,) if lo <= e <= epoch]


class WindowedSketch:
    """Sliding-window quantiles: a ring of sub-window sketches."""

    def __init__(self, window_s: float = 5.0, subwindows: int = 10,
                 buckets: Sequence[float] = DEFAULT_BUCKETS_MS,
                 buffer_cap: int = DEFAULT_BUFFER_CAP) -> None:
        self._buckets = tuple(float(b) for b in buckets)
        self._buffer_cap = buffer_cap
        self._ring = SlidingWindow(
            window_s, subwindows,
            lambda: QuantileSketch(self._buckets, self._buffer_cap))

    @property
    def window_s(self) -> float:
        return self._ring.window_s

    def observe(self, value: float, now_s: float) -> None:
        self._ring.cell(now_s).observe(value)

    def merged(self, now_s: float) -> QuantileSketch:
        """One sketch over the window ending at ``now_s``."""
        live = self._ring.live_cells(now_s)
        out = QuantileSketch.merged(live)
        return out if out is not None \
            else QuantileSketch(self._buckets, self._buffer_cap)

    def snapshot(self, now_s: float,
                 quantiles: Sequence[float] = DEFAULT_QUANTILES) -> dict:
        return self.merged(now_s).snapshot(quantiles)


class WindowedCounter:
    """Sliding-window good/bad event counts (the SLO burn substrate)."""

    def __init__(self, window_s: float = 5.0,
                 subwindows: int = 10) -> None:
        self._ring = SlidingWindow(window_s, subwindows,
                                   lambda: [0, 0])

    @property
    def window_s(self) -> float:
        return self._ring.window_s

    def record(self, good: bool, now_s: float) -> None:
        cell = self._ring.cell(now_s)
        cell[0 if good else 1] += 1

    def totals(self, now_s: float) -> Tuple[int, int]:
        """(good, bad) totals over the window ending at ``now_s``."""
        good = bad = 0
        for cell in self._ring.live_cells(now_s):
            good += cell[0]
            bad += cell[1]
        return good, bad

    def bad_fraction(self, now_s: float) -> float:
        good, bad = self.totals(now_s)
        total = good + bad
        return bad / total if total else 0.0
