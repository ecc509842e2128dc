"""Fall detection: a from-scratch linear SVM over posture features.

The paper integrates the body-pose model "with an SVM classifier to
detect fall scenarios" (§3).  This module implements a linear soft-margin
SVM trained by subgradient descent on the hinge loss (Pegasos-style),
operating on the translation/scale-invariant posture features from
:func:`repro.geometry.keypoints.keypoints_to_features`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from ...errors import TrainingError
from ...geometry.keypoints import KeypointSet, keypoints_to_features
from ...rng import coerce_rng


@dataclass
class LinearSVM:
    """Soft-margin linear SVM with feature standardisation."""

    c_reg: float = 1.0
    epochs: int = 200
    lr: float = 0.05

    def __post_init__(self) -> None:
        if self.c_reg <= 0 or self.lr <= 0 or self.epochs <= 0:
            raise TrainingError("SVM hyper-parameters must be positive")
        self.weights: Optional[np.ndarray] = None
        self.bias: float = 0.0
        self._mean: Optional[np.ndarray] = None
        self._std: Optional[np.ndarray] = None

    def fit(self, features: np.ndarray, labels: np.ndarray,
            rng=None) -> "LinearSVM":
        """Train on ``(N, D)`` features with ±1 labels."""
        x = np.asarray(features, dtype=np.float64)
        y = np.asarray(labels, dtype=np.float64)
        if x.ndim != 2 or y.shape != (x.shape[0],):
            raise TrainingError(
                f"bad SVM data: x {x.shape}, y {y.shape}")
        if not np.all(np.isin(y, (-1.0, 1.0))):
            raise TrainingError("labels must be ±1")
        if len(np.unique(y)) < 2:
            raise TrainingError("need both classes to train")
        gen = coerce_rng(rng, "fall-svm")

        self._mean = x.mean(axis=0)
        self._std = np.maximum(x.std(axis=0), 1e-9)
        xs = (x - self._mean) / self._std

        n, d = xs.shape
        w = np.zeros(d)
        b = 0.0
        lam = 1.0 / (self.c_reg * n)
        for epoch in range(self.epochs):
            lr_t = self.lr / (1.0 + 0.01 * epoch)
            order = gen.permutation(n)
            margins = y[order] * (xs[order] @ w + b)
            viol = margins < 1.0
            # Subgradient over the violating set (batch Pegasos step).
            if viol.any():
                idx = order[viol]
                grad_w = lam * w - (y[idx, None] * xs[idx]).mean(axis=0)
                grad_b = -float(y[idx].mean())
            else:
                grad_w = lam * w
                grad_b = 0.0
            w -= lr_t * grad_w
            b -= lr_t * grad_b
        self.weights = w
        self.bias = b
        return self

    def _require_fit(self) -> None:
        if self.weights is None:
            raise TrainingError("SVM not fitted")

    def decision(self, features: np.ndarray) -> np.ndarray:
        """Signed margin for ``(N, D)`` features."""
        self._require_fit()
        x = (np.asarray(features, dtype=np.float64) - self._mean) \
            / self._std
        return x @ self.weights + self.bias

    def predict(self, features: np.ndarray) -> np.ndarray:
        """±1 class predictions."""
        return np.where(self.decision(features) >= 0.0, 1.0, -1.0)

    def accuracy(self, features: np.ndarray,
                 labels: np.ndarray) -> float:
        pred = self.predict(features)
        return float(np.mean(pred == np.asarray(labels, dtype=np.float64)))


class FallClassifier:
    """Keypoints → fall/no-fall, wrapping the SVM with feature extraction."""

    FALL = 1.0
    UPRIGHT = -1.0

    def __init__(self, svm: Optional[LinearSVM] = None) -> None:
        self.svm = svm if svm is not None else LinearSVM()

    @staticmethod
    def featurize(keypoint_sets: Sequence[KeypointSet]) -> np.ndarray:
        if not keypoint_sets:
            raise TrainingError("no keypoint sets to featurise")
        return np.stack([keypoints_to_features(k) for k in keypoint_sets])

    def fit(self, keypoint_sets: Sequence[KeypointSet],
            is_fall: Sequence[bool], rng=None) -> "FallClassifier":
        feats = self.featurize(keypoint_sets)
        labels = np.where(np.asarray(is_fall, dtype=bool),
                          self.FALL, self.UPRIGHT)
        self.svm.fit(feats, labels, rng=rng)
        return self

    def predict(self, keypoint_sets: Sequence[KeypointSet]) -> np.ndarray:
        """Boolean fall predictions."""
        feats = self.featurize(keypoint_sets)
        return self.svm.predict(feats) == self.FALL

    def accuracy(self, keypoint_sets: Sequence[KeypointSet],
                 is_fall: Sequence[bool]) -> float:
        pred = self.predict(keypoint_sets)
        return float(np.mean(pred == np.asarray(is_fall, dtype=bool)))
