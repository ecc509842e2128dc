"""Detection metrics: TP/FP/FN counts and precision/recall/F1.

The paper's headline metric is precision, which it equates with accuracy
because its retrained models produce no false positives (§4.2).
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass
class DetectionCounts:
    """Aggregated TP/FP/FN counts over an evaluation run."""

    tp: int = 0
    fp: int = 0
    fn: int = 0

    def __add__(self, other: "DetectionCounts") -> "DetectionCounts":
        return DetectionCounts(self.tp + other.tp, self.fp + other.fp,
                               self.fn + other.fn)

    @property
    def total_truth(self) -> int:
        return self.tp + self.fn

    @property
    def total_pred(self) -> int:
        return self.tp + self.fp


def precision(counts: DetectionCounts) -> float:
    """TP / (TP + FP); 1.0 by convention with no predictions."""
    denom = counts.tp + counts.fp
    return counts.tp / denom if denom else 1.0


def recall(counts: DetectionCounts) -> float:
    """TP / (TP + FN); 1.0 by convention with no ground truth."""
    denom = counts.tp + counts.fn
    return counts.tp / denom if denom else 1.0


def f1_score(counts: DetectionCounts) -> float:
    """Harmonic mean of precision and recall."""
    p, r = precision(counts), recall(counts)
    return 2 * p * r / (p + r) if (p + r) > 0 else 0.0
