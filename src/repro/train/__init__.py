"""Training/evaluation protocols, detection metrics, accuracy surrogate."""

from .metrics import (
    DetectionCounts,
    precision,
    recall,
    f1_score,
)
from .eval import (
    VipEvalResult,
    evaluate_vip_detection,
    evaluate_detector_on_frames,
)
from .protocol import RetrainProtocol, RetrainOutcome
from .surrogate import (
    AccuracySurrogate,
    SurrogateQuery,
    PAPER_ACCURACY_ANCHORS,
)

__all__ = [
    "DetectionCounts", "precision", "recall", "f1_score",
    "VipEvalResult", "evaluate_vip_detection",
    "evaluate_detector_on_frames",
    "RetrainProtocol", "RetrainOutcome",
    "AccuracySurrogate", "SurrogateQuery", "PAPER_ACCURACY_ANCHORS",
]
