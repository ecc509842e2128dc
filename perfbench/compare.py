"""Paired parent/change comparison of the benchmark's end-to-end metrics.

Runs the benchmark in two checkouts, pair by pair, alternating which
side goes first, with the same seed on both sides of a pair (seeds 301,
302, ...).  For every end-to-end metric, and for the wall-clock twin of
every timing metric (``wall:<name>``, read from the details line), it
reports each side's median and quartiles, the change's win fraction,
and a verdict:

* ``gain`` — the change wins at least 9 of 10 pairs (ties count for
  neither) and the medians differ by more than the parent's own
  quartile spread;
* ``unresolved`` — the parent's spread exceeds the bound, unless every
  change run beats every parent run;
* ``regression`` — the change's median is worse than the parent's by
  more than the metric's bound;
* ``no change`` — otherwise.

The plain rows are process CPU time, which host steal does not move; a
wall row is the same figure on the wall clock.  A speed claim cites
both: it needs a ``gain`` on the CPU row and no ``regression`` on the
wall row.  A change that adds threads, worker processes or blocking
shifts work between the two clocks, so it is judged by the wall rows.

Usage, from anywhere:

    python3 perfbench/compare.py --parent ../parent --change . \
        --workload drone_frame --pairs 10
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from typing import Dict, List, Sequence, Tuple

MIN_PAIRS = 10
WIN_FRACTION = 0.9
#: Seed of the first pair; the bounds were measured on seeds 301-310.
FIRST_SEED = 301
#: Prefix of the rows judged on wall-clock time.
WALL = "wall:"


def run_once(checkout: str, command: Sequence[str], workload: str,
             seed: int, seconds: int) -> Tuple[dict, dict]:
    """One benchmark run in ``checkout``: (result object, details)."""
    proc = subprocess.run(
        list(command) + ["--workload", workload, "--seed", str(seed),
                         "--seconds", str(seconds), "--trace", "0"],
        cwd=checkout, capture_output=True, text=True, check=False)
    lines = proc.stdout.strip().splitlines()
    if len(lines) < 2:
        raise RuntimeError(f"no result from {checkout}: {proc.stderr}")
    return json.loads(lines[-1]), json.loads(lines[-2])


def sample(result: dict, details: dict) -> Dict[str, float]:
    """Every figure one run contributes: the end-to-end metrics by name,
    and their wall-clock twins as ``wall:<name>``."""
    values = {k: v["value"] for k, v in result["metrics"].items()}
    values.update({WALL + k: v for k, v in details["wall_clock"].items()})
    return values


def describe(values: Sequence[float]) -> Dict[str, float]:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "spread": (q3 - q1) / abs(median) if median else float("inf")}


def verdict(parent: Sequence[float], change: Sequence[float], bound: float,
            better: str) -> Dict[str, object]:
    """Compare paired samples of one metric (``parent[i]`` vs
    ``change[i]`` ran with the same seed)."""
    if len(parent) != len(change) or len(parent) < 2:
        raise ValueError("need equally many parent and change values")
    sign = 1.0 if better == "higher" else -1.0
    wins = sum(sign * (c - p) > 0 for p, c in zip(parent, change))
    p, c = describe(parent), describe(change)
    delta = sign * (c["median"] - p["median"])
    all_better = min(sign * v for v in change) > max(sign * v
                                                     for v in parent)
    if p["spread"] > bound and not all_better:
        call = "unresolved"
    elif delta < -bound * abs(p["median"]):
        call = "regression"
    elif wins >= WIN_FRACTION * len(parent) \
            and delta > p["q3"] - p["q1"]:
        call = "gain"
    else:
        call = "no change"
    return {"parent": p, "change": c, "win_fraction": wins / len(parent),
            "relative_change": delta / abs(p["median"]), "verdict": call}


def compare(parent_dir: str, change_dir: str, workload: str, pairs: int
            ) -> Dict[str, object]:
    with open(os.path.join(change_dir, "BENCHMARK.json"),
              encoding="utf-8") as fh:
        bench = json.load(fh)
    samples: Dict[str, List[Dict[str, float]]] = {"parent": [], "change": []}
    failures = {"parent": 0, "change": 0}
    for i in range(pairs):
        order = [("parent", parent_dir), ("change", change_dir)]
        if i % 2:
            order.reverse()
        for side, checkout in order:
            result, details = run_once(checkout, bench["command"], workload,
                                       FIRST_SEED + i, bench["run_seconds"])
            failures[side] += result["failed"] + (not result["correct"])
            samples[side].append(sample(result, details))
    rows = {}
    for m in bench["end_to_end"]:
        for name in (m["name"], WALL + m["name"]):
            if all(name in s for side in samples.values() for s in side):
                rows[name] = verdict([s[name] for s in samples["parent"]],
                                     [s[name] for s in samples["change"]],
                                     m["bound"], m["better"])
    return {"workload": workload, "pairs": pairs, "failures": failures,
            "metrics": rows}


def to_markdown(report: Dict[str, object]) -> str:
    rows = [f"workload {report['workload']}, {report['pairs']} pairs, "
            f"failed runs/ops {report['failures']}", "",
            "| metric | parent median [q1, q3] | change median [q1, q3] "
            "| change | wins | verdict |", "|---|---|---|---|---|---|"]
    for name, v in report["metrics"].items():
        p, c = v["parent"], v["change"]
        rows.append(
            f"| {name} | {p['median']:.4g} [{p['q1']:.4g}, {p['q3']:.4g}] "
            f"| {c['median']:.4g} [{c['q1']:.4g}, {c['q3']:.4g}] "
            f"| {v['relative_change']:+.1%} | {v['win_fraction']:.0%} "
            f"| {v['verdict']} |")
    return "\n".join(rows)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True,
                        help="checkout of the parent commit")
    parser.add_argument("--change", required=True,
                        help="checkout of the change")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, default=MIN_PAIRS)
    args = parser.parse_args(argv)
    if args.pairs < MIN_PAIRS:
        parser.error(f"need at least {MIN_PAIRS} pairs")
    report = compare(args.parent, args.change, args.workload, args.pairs)
    print(to_markdown(report))
    print(json.dumps(report, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
