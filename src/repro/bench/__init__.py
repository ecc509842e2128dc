"""Benchmark harness: runner, parallel fan-out, experiments."""

from .runner import ExperimentRunner, ExperimentResult
from .parallel import parallel_map
from .trajectory import (compare_points, load_point, previous_point,
                         run_suite, write_point)
from .experiments.registry import (
    EXPERIMENTS,
    run_experiment,
    experiment_ids,
)

__all__ = [
    "ExperimentRunner", "ExperimentResult",
    "parallel_map",
    "compare_points", "load_point", "previous_point", "run_suite",
    "write_point",
    "EXPERIMENTS", "run_experiment", "experiment_ids",
]
