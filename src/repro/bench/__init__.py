"""Benchmark harness: runner, parallel fan-out, experiments."""

from .runner import ExperimentRunner, ExperimentResult
from .parallel import parallel_map
from .experiments.registry import (
    EXPERIMENTS,
    run_experiment,
    experiment_ids,
)

__all__ = [
    "ExperimentRunner", "ExperimentResult",
    "parallel_map",
    "EXPERIMENTS", "run_experiment", "experiment_ids",
]
