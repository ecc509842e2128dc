"""Timing benchmark of the executed drone path, training and simulators.

Run from the repository root:

    python3 perfbench/run.py --workload drone_frame --seed 1 --seconds 10 \
        --trace 0

Prints every metric with its unit and sample count, then, as the last
line, one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``: the end-to-end metrics with ``--trace 0``, the per-layer
metrics with ``--trace 1``.  Exits 1 when an output check fails and 2
when the program cannot be imported or set up.  BLAS runs one thread
unless ``OPENBLAS_NUM_THREADS`` says otherwise.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("drone_frame", "detector_train",
                                 "cluster_chaos", "fleet_autoscale"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        print("perfbench: need --seed >= 0 and --seconds > 0",
              file=sys.stderr)
        return 2
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    sys.path[:0] = [os.path.join(os.path.dirname(HERE), "src"), HERE]
    try:
        import workloads
    except ImportError as exc:
        print(f"perfbench: cannot import the program: {exc}",
              file=sys.stderr)
        return 2
    try:
        result, details = workloads.run_workload(
            args.workload, args.seed, args.seconds, bool(args.trace))
    except workloads.SetupError as exc:
        print(f"perfbench: set-up failed: {exc}", file=sys.stderr)
        return 2
    samples = {k: v for a in details["activities"].values()
               for k, v in a["samples"].items()}
    for name, metric in result["metrics"].items():
        print(f"{name:34s} {metric['value']:14.6g} {metric['unit']}")
    print("samples: " + ", ".join(f"{n} {k}" for k, n in samples.items()))
    for problem in details["problems"]:
        print(f"CHECK FAILED: {problem}", file=sys.stderr)
    print(json.dumps(details, sort_keys=True))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
