"""Deterministic profiling: span trees → hotspot rankings → diff gates.

The tracer records *what* ran; this module turns those span trees into
*where the time goes* — and does it deterministically, so profiles are
golden-able artifacts a CI gate can byte-compare:

* **Canonical span paths.**  Every span is keyed by the ``/``-joined
  names on its root-to-span chain (``experiment:ablation_pipeline/
  pipeline.run/frame/detect``).  Two spans share a path iff they are
  the same *place* in the call tree, so per-path stats aggregate
  repeated work (120 ``frame`` spans → one path, count 120).
* **Tick time.**  :class:`TickClock` is an injectable tracer clock
  where every read advances exactly one quantum.  A span's duration
  then equals the number of instrumented clock reads inside it —
  machine-independent, byte-identical run to run, and (with
  :meth:`~repro.obs.tracer.Tracer.adopt`'s read-advancement contract
  plus :meth:`TickClock.spawn` propagation into ``parallel_map``
  workers) identical for any worker/shard count.  Real profiling is
  still available by capturing with the default wall clock; such
  profiles are marked non-deterministic and never regression-gated.
* **Mergeable per-path stats.**  :class:`PathStats` carries count,
  inclusive ("total") and exclusive ("self") time plus a
  :class:`~repro.obs.sketch.QuantileSketch` of per-occurrence self
  time.  Merging is associative and permutation-invariant (integer
  tick sums are exact; the sketch's merge is associative up to
  observable state), so profiles built on shards merge to the same
  bytes as one built serially — the same algebra the fleet merge uses.
* **Exports.**  :func:`render_profile` prints the ranked hotspot
  table; :func:`folded_stacks` emits the standard ``collapsed``
  flamegraph format (``a;b;c <self-units>`` per line, ready for
  ``flamegraph.pl`` / speedscope); :func:`profile_document` is the
  machine-readable JSON; :func:`diff_profiles` computes per-path
  deltas and the regression gate ``repro profile --diff`` exits on.
"""

from __future__ import annotations

import math
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from ..errors import ConfigError, SerializationError
from .sketch import QuantileSketch
from .tracer import Span

#: Profile JSON schema version.
PROFILE_SCHEMA = 1

#: Path separator in canonical span paths (span names never use it).
PATH_SEP = "/"

#: Separator of the ``collapsed`` flamegraph stack format.
FOLDED_SEP = ";"

#: Quantiles surfaced per path (p50 is the gated one).
PROFILE_QUANTILES = (0.50, 0.95, 0.99)

#: Default diff-gate tolerance on self-time p50, in percent.
DEFAULT_MAX_REGRESS_PCT = 10.0

#: Paths whose baseline self-time p50 is below this are not gated —
#: a one-tick path doubling is noise, not a regression.
DEFAULT_MIN_SELF_MS = 2.0


class TickClock:
    """Deterministic tracer clock: every read advances one quantum.

    With the default 1 ms quantum a span's duration in milliseconds is
    exactly the number of instrumented clock reads it encloses (span
    starts/ends and events — nothing else reads the tracer clock), so
    profiles captured under a ``Tracer(clock=TickClock())`` depend only
    on the code path taken, never on machine speed.

    The two extra methods are the cross-process contract:

    * :meth:`spawn` hands ``parallel_map`` workers a fresh clock so
      worker-side spans tick identically to the serial path;
    * :meth:`advance_reads` lets :meth:`Tracer.adopt` advance the
      parent clock by the reads the adopted spans *would* have made
      in-process, keeping ancestor spans' durations shard-invariant.

    Instances are picklable (they cross the process-pool boundary).
    """

    __slots__ = ("quantum_s", "reads")

    #: Marks profiles captured under this clock as golden-able.
    deterministic = True

    def __init__(self, quantum_s: float = 0.001) -> None:
        if quantum_s <= 0:
            raise ConfigError(
                f"quantum must be positive, got {quantum_s}")
        self.quantum_s = float(quantum_s)
        self.reads = 0

    def __call__(self) -> float:
        self.reads += 1
        return self.reads * self.quantum_s

    def spawn(self) -> "TickClock":
        """A fresh clock for a worker process (reads start at zero;
        only durations matter, and those are read *differences*)."""
        return TickClock(self.quantum_s)

    def advance_reads(self, n: int) -> None:
        """Advance as if ``n`` reads had happened on this clock."""
        if n < 0:
            raise ConfigError(f"cannot advance by {n} reads")
        self.reads += int(n)

    def __getstate__(self) -> dict:
        return {"quantum_s": self.quantum_s, "reads": self.reads}

    def __setstate__(self, state: dict) -> None:
        self.quantum_s = state["quantum_s"]
        self.reads = state["reads"]


# -- canonical span paths -----------------------------------------------------


def span_paths(spans: Sequence[Span]) -> Dict[str, str]:
    """``{span_id: canonical path}`` for every span in the trace.

    The path is the ``/``-joined name chain from the span's root; a
    parent id that resolves to no span in the set (an adopted worker
    root whose parent lives in another trace fragment, or a genuinely
    external context) makes the span a root.  Cycles — impossible from
    a well-formed tracer, possible from hand-built spans — are broken
    by rooting at the repeated span.
    """
    by_id = {sp.span_id: sp for sp in spans}
    cache: Dict[str, str] = {}

    def path_of(sp: Span) -> str:
        chain: List[Span] = []
        seen = set()
        cur: Optional[Span] = sp
        while cur is not None and cur.span_id not in cache:
            if cur.span_id in seen:
                break  # defensive: cycle in hand-built spans
            seen.add(cur.span_id)
            chain.append(cur)
            cur = by_id.get(cur.parent_id) \
                if cur.parent_id is not None else None
        prefix = cache[cur.span_id] if cur is not None \
            and cur.span_id in cache else ""
        for node in reversed(chain):
            prefix = node.name if not prefix \
                else f"{prefix}{PATH_SEP}{node.name}"
            cache[node.span_id] = prefix
        return cache[sp.span_id]

    for sp in spans:
        path_of(sp)
    return cache


# -- mergeable per-path statistics --------------------------------------------


class PathStats:
    """Aggregate statistics for one canonical span path.

    ``total`` is inclusive time (the span's own duration); ``self`` is
    exclusive time (inclusive minus direct children).  Per-occurrence
    self times feed a :class:`QuantileSketch`, so merged stats report
    the same quantiles regardless of how occurrences were grouped.
    """

    __slots__ = ("count", "events", "total_ms", "self_ms", "sketch")

    def __init__(self) -> None:
        self.count = 0
        self.events = 0
        self.total_ms = 0
        self.self_ms = 0
        self.sketch = QuantileSketch()

    def observe(self, self_ms, total_ms, events: int) -> None:
        self.count += 1
        self.events += int(events)
        self.total_ms += total_ms
        self.self_ms += self_ms
        self.sketch.observe(float(self_ms))

    def merge(self, other: "PathStats") -> "PathStats":
        """Pure merge — a new PathStats equal to observing both."""
        out = PathStats()
        out.count = self.count + other.count
        out.events = self.events + other.events
        out.total_ms = self.total_ms + other.total_ms
        out.self_ms = self.self_ms + other.self_ms
        out.sketch = self.sketch.merge(other.sketch)
        return out

    def to_dict(self) -> dict:
        snap = self.sketch.snapshot(PROFILE_QUANTILES)
        out = {
            "count": self.count,
            "events": self.events,
            "total_ms": self.total_ms,
            "self_ms": self.self_ms,
            "self_mean_ms": snap["mean"],
            "self_min_ms": snap["min"],
            "self_max_ms": snap["max"],
        }
        for q in PROFILE_QUANTILES:
            key = f"self_p{int(q * 100)}_ms"
            out[key] = snap[f"p{int(q * 100)}"]
        return out


class Profile:
    """Per-path hotspot statistics for one captured run (or a merge).

    Built from spans via :func:`build_profile`; merged with
    :meth:`merge` — an associative, permutation-invariant operation,
    so sharded captures fold to byte-identical documents.
    """

    def __init__(self) -> None:
        self.paths: Dict[str, PathStats] = {}

    def record(self, path: str, self_ms, total_ms,
               events: int) -> None:
        stats = self.paths.get(path)
        if stats is None:
            stats = self.paths[path] = PathStats()
        stats.observe(self_ms, total_ms, events)

    def merge(self, other: "Profile") -> "Profile":
        out = Profile()
        for src in (self, other):
            for path, stats in src.paths.items():
                prev = out.paths.get(path)
                out.paths[path] = stats.merge(prev) if prev is not None \
                    else stats.merge(PathStats())
        return out

    @classmethod
    def merged(cls, profiles: Iterable["Profile"]) -> "Profile":
        acc = cls()
        for prof in profiles:
            acc = acc.merge(prof)
        return acc

    def hotspots(self, top: Optional[int] = None
                 ) -> List[Tuple[str, PathStats]]:
        """Paths ranked by self time (descending, path tie-break)."""
        ranked = sorted(self.paths.items(),
                        key=lambda kv: (-kv[1].self_ms, kv[0]))
        return ranked if top is None else ranked[:top]

    def total_self_ms(self):
        return sum(s.self_ms for s in self.paths.values())


def build_profile(spans: Sequence[Span],
                  quantize: bool = True) -> Profile:
    """Aggregate finished spans into a :class:`Profile`.

    ``quantize=True`` (the tick-clock mode) rounds every duration to
    integer milliseconds, making all downstream arithmetic exact —
    float tick products differ from integers only at the 1e-10 level,
    far inside the rounding margin.  Self time is inclusive minus
    direct children, clamped at zero (overlapping children can occur
    only under a non-monotonic wall clock).
    """
    for sp in spans:
        if not sp.finished:
            raise SerializationError(
                f"cannot profile unfinished span {sp.name!r}")
    paths = span_paths(spans)
    children: Dict[str, List[Span]] = {}
    by_id = {sp.span_id: sp for sp in spans}
    for sp in spans:
        if sp.parent_id is not None and sp.parent_id in by_id:
            children.setdefault(sp.parent_id, []).append(sp)

    def duration_ms(span: Span):
        ms = span.duration_s * 1000.0
        return int(round(ms)) if quantize else ms

    profile = Profile()
    for sp in spans:
        total = duration_ms(sp)
        kids = sum(duration_ms(k) for k in children.get(sp.span_id, []))
        self_ms = total - kids
        if self_ms < 0:
            self_ms = 0
        profile.record(paths[sp.span_id], self_ms, total,
                       len(sp.events))
    return profile


# -- exports ------------------------------------------------------------------


def profile_document(profile: Profile,
                     targets: Sequence[str] = (),
                     deterministic: bool = True) -> dict:
    """The machine-readable profile (what ``repro profile`` writes).

    Deliberately carries no timestamps, host details or span ids: two
    captures of the same tree must be byte-identical after
    :func:`repro.io.jsonio.dumps_json`.
    """
    return {
        "schema": PROFILE_SCHEMA,
        "unit": "ms",
        "deterministic": bool(deterministic),
        "targets": list(targets),
        "paths": {path: stats.to_dict()
                  for path, stats in sorted(profile.paths.items())},
    }


def load_profile_document(doc: dict) -> dict:
    """Validate a loaded profile document (raises on malformed)."""
    if not isinstance(doc, dict) or not isinstance(
            doc.get("paths"), dict):
        raise SerializationError("malformed profile document: "
                                 "missing 'paths' mapping")
    if doc.get("schema") != PROFILE_SCHEMA:
        raise SerializationError(
            f"unsupported profile schema {doc.get('schema')!r} "
            f"(expected {PROFILE_SCHEMA})")
    return doc


def folded_stacks(profile: Profile) -> str:
    """The standard ``collapsed`` flamegraph format.

    One line per path — frames joined by ``;``, then a space and the
    path's integer self-time (ms) — sorted lexicographically so the
    output is canonical.  Feed straight into ``flamegraph.pl`` or
    speedscope.
    """
    lines = []
    for path, stats in sorted(profile.paths.items()):
        stack = path.replace(PATH_SEP, FOLDED_SEP)
        lines.append(f"{stack} {int(round(stats.self_ms))}")
    return "\n".join(lines) + ("\n" if lines else "")


def render_profile(profile: Profile, top: int = 20,
                   digits: int = 2) -> str:
    """The ranked hotspot table (top paths by self time)."""
    if not profile.paths:
        return "(no spans profiled)"
    header = (f"{'path':<52s} {'count':>6s} {'total ms':>10s} "
              f"{'self ms':>10s} {'self p50':>9s} {'self p99':>9s}")
    lines = [header, "-" * len(header)]
    grand = profile.total_self_ms()
    for path, stats in profile.hotspots(top):
        label = path if len(path) <= 52 else "..." + path[-49:]
        d = stats.to_dict()
        lines.append(
            f"{label:<52s} {stats.count:>6d} "
            f"{float(stats.total_ms):>10.{digits}f} "
            f"{float(stats.self_ms):>10.{digits}f} "
            f"{float(d['self_p50_ms']):>9.{digits}f} "
            f"{float(d['self_p99_ms']):>9.{digits}f}")
    shown = sum(s.self_ms for _, s in profile.hotspots(top))
    pct = 100.0 * shown / grand if grand else 100.0
    lines.append(f"(top {min(top, len(profile.paths))} of "
                 f"{len(profile.paths)} paths, {pct:.1f}% of "
                 f"{float(grand):.{digits}f} ms total self time)")
    return "\n".join(lines)


# -- diffing and the regression gate ------------------------------------------


def diff_profiles(base: dict, head: dict) -> List[dict]:
    """Per-path deltas between two profile documents.

    One row per path present in either document, sorted by absolute
    self-time delta (descending, path tie-break).  Paths missing on a
    side contribute zeros there and are flagged ``added``/``removed``.
    """
    base_paths = load_profile_document(base)["paths"]
    head_paths = load_profile_document(head)["paths"]
    rows: List[dict] = []
    for path in sorted(set(base_paths) | set(head_paths)):
        b = base_paths.get(path)
        h = head_paths.get(path)
        b_self = float(b["self_ms"]) if b else 0.0
        h_self = float(h["self_ms"]) if h else 0.0
        rows.append({
            "path": path,
            "status": "added" if b is None
            else "removed" if h is None else "common",
            "base_self_ms": b_self,
            "head_self_ms": h_self,
            "delta_self_ms": h_self - b_self,
            "base_self_p50_ms": float(b["self_p50_ms"]) if b else None,
            "head_self_p50_ms": float(h["self_p50_ms"]) if h else None,
        })
    rows.sort(key=lambda r: (-abs(r["delta_self_ms"]), r["path"]))
    return rows


def profile_regressions(
        base: dict, head: dict,
        max_regress_pct: float = DEFAULT_MAX_REGRESS_PCT,
        min_self_ms: float = DEFAULT_MIN_SELF_MS) -> List[dict]:
    """The gate: tracked paths whose self-time p50 regressed.

    A path present in both documents regresses when its head p50
    exceeds the base p50 by more than ``max_regress_pct`` percent; a
    path only the head has (an added span) regresses when its head p50
    is at least ``min_self_ms``, reported with base 0 and an infinite
    percentage.  Paths below ``min_self_ms`` are never gated (a
    one-tick path doubling is instrumentation noise, not a hotspot
    regression), paths only the base has never gate, and
    non-deterministic (wall-clock) documents refuse to gate at all.
    """
    if max_regress_pct < 0:
        raise ConfigError("regression tolerance must be >= 0")
    if not base.get("deterministic", False) \
            or not head.get("deterministic", False):
        raise ConfigError(
            "refusing to gate non-deterministic (wall-clock) "
            "profiles; capture both sides on the tick clock with "
            "`python -m repro profile --out <path>`")
    out: List[dict] = []
    base_paths = load_profile_document(base)["paths"]
    head_paths = load_profile_document(head)["paths"]
    for path in sorted(head_paths):
        h50 = head_paths[path].get("self_p50_ms")
        if path not in base_paths:
            if h50 is not None and float(h50) >= min_self_ms:
                out.append({"path": path, "baseline": 0.0,
                            "current": float(h50),
                            "regress_pct": math.inf})
            continue
        b50 = base_paths[path].get("self_p50_ms")
        if b50 is None or h50 is None:
            continue
        b50, h50 = float(b50), float(h50)
        if b50 < min_self_ms or b50 <= 0:
            continue
        pct = 100.0 * (h50 - b50) / b50
        if pct > max_regress_pct:
            out.append({"path": path, "baseline": b50, "current": h50,
                        "regress_pct": pct})
    return out
