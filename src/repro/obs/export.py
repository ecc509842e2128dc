"""Span exporters and the span-tree report.

Two interchange formats (both written through :mod:`repro.io.jsonio`):

* **JSON-lines** — one span per line, the :meth:`Span.to_dict` form;
  greppable, streamable, the archival format.
* **Chrome ``trace_event``** — a ``{"traceEvents": [...]}`` document of
  complete (``ph: "X"``) events plus instant (``ph: "i"``) events for
  span annotations; drop it into ``chrome://tracing`` / Perfetto.

Plus the human-facing view: :func:`aggregate_tree` folds repeated
sibling spans (120 ``frame`` spans → one node with ``count=120``) and
:func:`render_tree` prints inclusive/exclusive wall times per node.
*Inclusive* is the span's own duration; *exclusive* subtracts direct
children, so exclusive times over a (sub)tree sum to its root's
inclusive time by construction — the invariant the trace CLI asserts.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from ..errors import SerializationError
from ..io.jsonio import dump_json, dump_jsonl
from .tracer import Span


def spans_to_jsonl_rows(spans: Sequence[Span]) -> List[dict]:
    return [sp.to_dict() for sp in spans]


def write_spans_jsonl(path: str, spans: Sequence[Span]) -> str:
    """Export spans as JSON-lines; returns the path."""
    return dump_jsonl(path, spans_to_jsonl_rows(spans))


def chrome_trace(spans: Sequence[Span],
                 process_name: str = "repro") -> dict:
    """Spans as a Chrome ``trace_event`` document (times in µs)."""
    events: List[dict] = [{
        "name": "process_name", "ph": "M", "pid": 1, "tid": 1,
        "args": {"name": process_name},
    }]
    for sp in spans:
        if not sp.finished:
            raise SerializationError(
                f"cannot export unfinished span {sp.name!r}")
        start_us = sp.start_s * 1e6
        events.append({
            "name": sp.name, "cat": "span", "ph": "X",
            "ts": start_us, "dur": sp.duration_s * 1e6,
            "pid": 1, "tid": 1,
            "args": {"span_id": sp.span_id,
                     "parent_id": sp.parent_id, **sp.attrs},
        })
        for ev in sp.events:
            events.append({
                "name": ev.name, "cat": "event", "ph": "i",
                "ts": ev.time_s * 1e6, "pid": 1, "tid": 1, "s": "t",
                "args": {"span_id": sp.span_id, **ev.attrs},
            })
    return {"traceEvents": events, "displayTimeUnit": "ms"}


def write_chrome_trace(path: str, spans: Sequence[Span],
                       process_name: str = "repro") -> str:
    """Export spans as a Chrome trace JSON file; returns the path."""
    return dump_json(path, chrome_trace(spans, process_name))


# -- aggregated span tree ----------------------------------------------------


@dataclass
class TreeNode:
    """Aggregate of every span sharing one name-path in the trace."""

    name: str
    count: int = 0
    inclusive_s: float = 0.0
    exclusive_s: float = 0.0
    events: int = 0
    children: Dict[str, "TreeNode"] = field(default_factory=dict)

    def walk(self, depth: int = 0):
        yield depth, self
        for name in sorted(self.children):
            yield from self.children[name].walk(depth + 1)


def aggregate_tree(spans: Sequence[Span]) -> List[TreeNode]:
    """Fold spans into per-name-path aggregate nodes (one per root)."""
    by_id = {sp.span_id: sp for sp in spans}
    children: Dict[Optional[str], List[Span]] = {}
    for sp in spans:
        parent = sp.parent_id if sp.parent_id in by_id else None
        children.setdefault(parent, []).append(sp)

    def build(into: Dict[str, TreeNode], group: List[Span]) -> None:
        for sp in group:
            node = into.get(sp.name)
            if node is None:
                node = into[sp.name] = TreeNode(sp.name)
            node.count += 1
            node.inclusive_s += sp.duration_s
            node.events += len(sp.events)
            kids = children.get(sp.span_id, [])
            node.exclusive_s += sp.duration_s - sum(
                k.duration_s for k in kids)
            build(node.children, kids)

    roots: Dict[str, TreeNode] = {}
    build(roots, children.get(None, []))
    return [roots[name] for name in sorted(roots)]


def exclusive_total_s(node: TreeNode) -> float:
    """Sum of exclusive times over the subtree (== the node's inclusive
    time when the clock is monotonic — the 1%-closure invariant)."""
    return sum(n.exclusive_s for _, n in node.walk())


def render_tree(spans: Sequence[Span], digits: int = 2) -> str:
    """Printable aggregated span tree with inclusive/exclusive times."""
    if not spans:
        return "(no spans recorded)"
    header = (f"{'span':<40s} {'count':>6s} {'incl ms':>12s} "
              f"{'excl ms':>12s} {'events':>7s}")
    lines = [header, "-" * len(header)]
    for root in aggregate_tree(spans):
        for depth, node in root.walk():
            label = "  " * depth + node.name
            if len(label) > 40:
                label = label[:37] + "..."
            lines.append(
                f"{label:<40s} {node.count:>6d} "
                f"{node.inclusive_s * 1e3:>12.{digits}f} "
                f"{node.exclusive_s * 1e3:>12.{digits}f} "
                f"{node.events:>7d}")
    return "\n".join(lines)
