"""Calibrated accuracy surrogate for the full-scale YOLO variants.

Training 68 M-parameter detectors for 100 epochs is an A5000-scale job
the paper ran once; this surrogate replaces those runs with a learning-
curve model anchored to **every accuracy the paper states**, then samples
measured accuracies binomially over the paper's actual test-set sizes so
benchmark output carries realistic evaluation noise.

Model
-----
``error(model, dataset, N, curated) = base_error(model, dataset)
    · (N_ref / N)^b · (κ if not curated else 1)``

* ``base_error`` — anchored per (model, test-dataset) at the paper's
  protocol point (N_ref = 3,866 stratified training images, Figs. 3/4).
* ``b = 1.2`` — data-scaling exponent; together with κ it reproduces
  Fig. 1 (93 % at 1 k random → 99.5 % at 3.8 k curated for YOLOv11-m).
* ``κ = 2.7`` — curation penalty of uniform random sampling (random
  samples over-draw the big 'mixed' stratum and starve adversarial
  conditions).

Baseline (non-retrained) operating points from §1 are anchored directly:
a generic YOLOv9-e at 81 % (SH-17) and a YOLOv8-s retrained on 795
images at 85.7 %.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from ..errors import CalibrationError
from ..rng import coerce_rng

#: Paper's stratified-sample training-set size (§3.1).
N_REF = 3866
#: Data-scaling exponent (fitted to Fig. 1, see module docstring).
SCALING_EXPONENT = 1.2
#: Random-sampling (non-curated) error multiplier (fitted to Fig. 1).
CURATION_PENALTY = 2.7

#: Accuracy (= precision, zero FP) anchors in percent.
#: diverse: Fig. 3 — RT YOLOv8 ≈99 % at every size; RT YOLOv11 peaks
#: 99.49 % (m) and 99.27 % (x), all ≥98.6 %.
#: adversarial: Fig. 4 — rises with model size; peaks 98.11 % (v8-x) and
#: 99.11 % (v11-x); nano lowest.
PAPER_ACCURACY_ANCHORS: Dict[str, Dict[str, float]] = {
    "yolov8-n": {"diverse": 98.86, "adversarial": 89.92},
    "yolov8-m": {"diverse": 99.02, "adversarial": 95.63},
    "yolov8-x": {"diverse": 99.10, "adversarial": 98.11},
    "yolov11-n": {"diverse": 98.61, "adversarial": 90.77},
    "yolov11-m": {"diverse": 99.49, "adversarial": 96.84},
    "yolov11-x": {"diverse": 99.27, "adversarial": 99.11},
}

#: §1 baselines (precision %, their own training regimes).
PAPER_BASELINE_ANCHORS: Dict[str, float] = {
    # SH-17 benchmark: generic YOLOv9-e, no vest-specific retraining.
    "generic-yolov9-e": 81.0,
    # Roboflow hazard-vest dataset: YOLOv8-s retrained on 795 images.
    "yolov8-s@795": 85.7,
}

#: Paper test-set sizes (§4.2) used for binomial sampling.
TEST_SET_SIZES: Dict[str, int] = {"diverse": 23543, "adversarial": 3805}


@dataclass(frozen=True)
class SurrogateQuery:
    """One accuracy query against the surrogate."""

    model: str
    dataset: str = "diverse"          # "diverse" or "adversarial"
    train_size: int = N_REF
    curated: bool = True

    def __post_init__(self) -> None:
        if self.model not in PAPER_ACCURACY_ANCHORS:
            raise CalibrationError(
                f"no anchors for model {self.model!r}; known: "
                f"{sorted(PAPER_ACCURACY_ANCHORS)}")
        if self.dataset not in TEST_SET_SIZES:
            raise CalibrationError(
                f"unknown dataset {self.dataset!r}; known: "
                f"{sorted(TEST_SET_SIZES)}")
        if self.train_size < 10:
            raise CalibrationError(
                f"train_size {self.train_size} too small")


class AccuracySurrogate:
    """Evaluates the calibrated learning-curve model."""

    def __init__(self, scaling_exponent: float = SCALING_EXPONENT,
                 curation_penalty: float = CURATION_PENALTY) -> None:
        if scaling_exponent <= 0:
            raise CalibrationError("scaling exponent must be positive")
        if curation_penalty < 1.0:
            raise CalibrationError("curation penalty must be >= 1")
        self.b = scaling_exponent
        self.kappa = curation_penalty

    # -- expected accuracy --------------------------------------------------

    def expected_accuracy(self, query: SurrogateQuery) -> float:
        """Expected accuracy (fraction in [0, 1]) for a query."""
        anchor_pct = PAPER_ACCURACY_ANCHORS[query.model][query.dataset]
        base_err = 1.0 - anchor_pct / 100.0
        scale = (N_REF / query.train_size) ** self.b
        penalty = 1.0 if query.curated else self.kappa
        err = min(base_err * scale * penalty, 0.95)
        return 1.0 - err

    def expected_precision_pct(self, query: SurrogateQuery) -> float:
        """Expected precision in percent (zero-FP regime: = accuracy)."""
        return 100.0 * self.expected_accuracy(query)

    # -- measured (sampled) accuracy ----------------------------------------

    def measure(self, query: SurrogateQuery,
                n_test: Optional[int] = None,
                rng=None) -> Tuple[float, int, int]:
        """Simulate one evaluation run: binomial over the test set.

        Returns ``(accuracy_pct, correct, n_test)``.  Deterministic given
        the rng stream; the same query measured twice with the same seed
        gives identical numbers (as re-running a fixed checkpoint would).
        """
        gen = coerce_rng(rng, "surrogate", query.model, query.dataset,
                         query.train_size, int(query.curated))
        n = n_test if n_test is not None else TEST_SET_SIZES[query.dataset]
        if n <= 0:
            raise CalibrationError(f"n_test must be positive, got {n}")
        p = self.expected_accuracy(query)
        correct = int(gen.binomial(n, p))
        return 100.0 * correct / n, correct, n

    # -- baselines ------------------------------------------------------------

    @staticmethod
    def baseline_precision_pct(name: str) -> float:
        """Published baseline operating points (§1)."""
        try:
            return PAPER_BASELINE_ANCHORS[name]
        except KeyError:
            raise CalibrationError(
                f"unknown baseline {name!r}; known: "
                f"{sorted(PAPER_BASELINE_ANCHORS)}") from None

    # -- self-check -----------------------------------------------------------

    def verify_fig1_anchors(self, tol_pct: float = 0.6) -> bool:
        """The surrogate must reproduce Fig. 1's two operating points."""
        q_curated = SurrogateQuery("yolov11-m", "diverse",
                                   train_size=3866, curated=True)
        q_random = SurrogateQuery("yolov11-m", "diverse",
                                  train_size=1000, curated=False)
        p_curated = self.expected_precision_pct(q_curated)
        p_random = self.expected_precision_pct(q_random)
        # Fig. 1: ≈99.5 % curated-3.8k vs ≈93 % random-1k.
        if abs(p_curated - 99.49) > tol_pct:
            raise CalibrationError(
                f"curated anchor drifted: {p_curated:.2f} vs 99.49")
        if abs(p_random - 93.0) > tol_pct:
            raise CalibrationError(
                f"random-1k anchor drifted: {p_random:.2f} vs 93.0")
        return True
