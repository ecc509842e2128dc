"""Name-based latency estimation API over the roofline model.

Thin convenience layer: benchmarks and the deployment advisor talk in
canonical model/device names; this module resolves them to specs and
delegates to :class:`~repro.hardware.roofline.RooflineModel`.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence

from ..hardware.registry import BENCHMARK_DEVICES, device_spec
from ..hardware.roofline import LatencyBreakdown, RooflineModel
from ..models.spec import ALL_MODEL_ORDER, model_spec


class LatencyEstimator:
    """Median latency / throughput queries by name."""

    def __init__(self, roofline: Optional[RooflineModel] = None) -> None:
        self.roofline = roofline if roofline is not None else RooflineModel()

    def median_ms(self, model: str, device: str) -> float:
        """Median per-frame latency in ms."""
        return self.roofline.median_latency_ms(model_spec(model),
                                               device_spec(device))

    def breakdown(self, model: str, device: str) -> LatencyBreakdown:
        """Per-term decomposition."""
        return self.roofline.breakdown(model_spec(model),
                                       device_spec(device))

    def throughput_fps(self, model: str, device: str) -> float:
        """Single-stream sustained FPS."""
        return self.roofline.throughput_fps(model_spec(model),
                                            device_spec(device))

    def speedup(self, model: str, fast_device: str,
                slow_device: str) -> float:
        """Latency ratio slow/fast."""
        return self.roofline.speedup(model_spec(model),
                                     device_spec(fast_device),
                                     device_spec(slow_device))

    def meets_deadline(self, model: str, device: str,
                       deadline_ms: float) -> bool:
        """Can this pair sustain the given per-frame budget?"""
        return self.median_ms(model, device) <= deadline_ms


def latency_table_ms(models: Sequence[str] = ALL_MODEL_ORDER,
                     devices: Sequence[str] = BENCHMARK_DEVICES,
                     estimator: Optional[LatencyEstimator] = None
                     ) -> Dict[str, Dict[str, float]]:
    """Full median-latency grid: ``{device: {model: ms}}``."""
    est = estimator if estimator is not None else LatencyEstimator()
    return {dev: {m: est.median_ms(m, dev) for m in models}
            for dev in devices}
