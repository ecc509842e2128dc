"""Latency modelling: calibration anchors, estimator, stochastic runtime."""

from .calibration import (
    PaperAnchor,
    LATENCY_ANCHORS,
    verify_latency_anchors,
)
from .estimator import LatencyEstimator, latency_table_ms
from .sampler import LatencySampler
from .runtime import SimulatedRuntime, InferenceRun
from .batching import BatchingModel, BatchPoint

__all__ = [
    "PaperAnchor", "LATENCY_ANCHORS", "verify_latency_anchors",
    "LatencyEstimator", "latency_table_ms",
    "LatencySampler",
    "SimulatedRuntime", "InferenceRun",
    "BatchingModel", "BatchPoint",
]
