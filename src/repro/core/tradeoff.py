"""Accuracy–latency trade-off analysis (§4's central theme).

Combines the accuracy surrogate with the latency estimator into
trade-off points per (model, device), and computes the Pareto front —
the set of configurations not dominated in both accuracy and latency.
The paper's qualitative conclusion ("larger models with higher accuracy
on the workstation, smaller models with lower accuracy on edge") falls
out of this front.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

from ..errors import BenchmarkError
from ..hardware.registry import BENCHMARK_DEVICES
from ..latency.estimator import LatencyEstimator
from ..models.spec import YOLO_ORDER
from ..train.surrogate import AccuracySurrogate, SurrogateQuery


@dataclass(frozen=True)
class TradeoffPoint:
    """One (model, device) operating point."""

    model: str
    device: str
    accuracy_pct: float        # expected diverse-set accuracy
    adversarial_pct: float     # expected adversarial-set accuracy
    median_latency_ms: float
    fps: float

    def dominates(self, other: "TradeoffPoint") -> bool:
        """Pareto dominance: at least as good on both axes, better on one."""
        ge_acc = self.accuracy_pct >= other.accuracy_pct
        le_lat = self.median_latency_ms <= other.median_latency_ms
        strictly = (self.accuracy_pct > other.accuracy_pct
                    or self.median_latency_ms < other.median_latency_ms)
        return ge_acc and le_lat and strictly


def accuracy_latency_tradeoff(
        models: Sequence[str] = YOLO_ORDER,
        devices: Sequence[str] = BENCHMARK_DEVICES,
        surrogate: Optional[AccuracySurrogate] = None,
        estimator: Optional[LatencyEstimator] = None
) -> List[TradeoffPoint]:
    """Trade-off points for a model×device grid."""
    if not models or not devices:
        raise BenchmarkError("empty model or device list")
    sur = surrogate if surrogate is not None else AccuracySurrogate()
    est = estimator if estimator is not None else LatencyEstimator()
    points = []
    for model in models:
        acc = sur.expected_precision_pct(SurrogateQuery(model, "diverse"))
        adv = sur.expected_precision_pct(
            SurrogateQuery(model, "adversarial"))
        for device in devices:
            lat = est.median_ms(model, device)
            points.append(TradeoffPoint(
                model=model, device=device, accuracy_pct=acc,
                adversarial_pct=adv, median_latency_ms=lat,
                fps=1000.0 / lat))
    return points


def pareto_front(points: Sequence[TradeoffPoint]) -> List[TradeoffPoint]:
    """Non-dominated subset, sorted by latency ascending."""
    if not points:
        raise BenchmarkError("no points for Pareto front")
    front = [p for p in points
             if not any(q.dominates(p) for q in points)]
    return sorted(front, key=lambda p: p.median_latency_ms)
