"""Optimisers and LR schedules (SGD+momentum, Adam, warmup-cosine).

The paper trains with Ultralytics defaults — SGD, LR 0.01, momentum and
weight decay (§3.1).  The optimisers update parameter arrays *in place*
(they hold references to the same arrays the layers own), avoiding any
copy of the model state per step — the in-place-operation idiom from the
optimisation guide.
"""

from __future__ import annotations

from typing import Dict

import numpy as np

from ..errors import TrainingError


class Optimizer:
    """Base optimiser over named parameter/grad dicts."""

    def __init__(self, params: Dict[str, np.ndarray],
                 grads: Dict[str, np.ndarray], lr: float) -> None:
        if set(params) != set(grads):
            raise TrainingError(
                "optimiser params/grads key mismatch: "
                f"{sorted(set(params) ^ set(grads))}")
        if lr <= 0:
            raise TrainingError(f"learning rate must be positive, got {lr}")
        self.params = params
        self.grads = grads
        self.lr = lr
        self.step_count = 0

    def step(self) -> None:
        raise NotImplementedError

    def check_finite(self) -> None:
        """Raise if any gradient is non-finite (fail fast, not silently)."""
        for name, g in self.grads.items():
            if not np.all(np.isfinite(g)):
                raise TrainingError(f"non-finite gradient in {name!r}")


class SGD(Optimizer):
    """SGD with classical momentum and decoupled weight decay."""

    def __init__(self, params: Dict[str, np.ndarray],
                 grads: Dict[str, np.ndarray], lr: float = 0.01,
                 momentum: float = 0.937,
                 weight_decay: float = 0.0) -> None:
        super().__init__(params, grads, lr)
        if not 0.0 <= momentum < 1.0:
            raise TrainingError(f"momentum must be in [0, 1), got {momentum}")
        self.momentum = momentum
        self.weight_decay = weight_decay
        self._velocity = {k: np.zeros_like(v) for k, v in params.items()}

    def step(self) -> None:
        self.check_finite()
        for name, p in self.params.items():
            g = self.grads[name]
            if self.weight_decay and "weight" in name:
                g = g + self.weight_decay * p
            v = self._velocity[name]
            v *= self.momentum
            v += g
            p -= self.lr * v
        self.step_count += 1


class Adam(Optimizer):
    """Adam with bias correction and decoupled weight decay (AdamW-style)."""

    def __init__(self, params: Dict[str, np.ndarray],
                 grads: Dict[str, np.ndarray], lr: float = 1e-3,
                 beta1: float = 0.9, beta2: float = 0.999,
                 eps: float = 1e-8, weight_decay: float = 0.0) -> None:
        super().__init__(params, grads, lr)
        if not (0 <= beta1 < 1 and 0 <= beta2 < 1):
            raise TrainingError(f"betas must be in [0, 1): {beta1}, {beta2}")
        self.beta1, self.beta2, self.eps = beta1, beta2, eps
        self.weight_decay = weight_decay
        self._m = {k: np.zeros_like(v) for k, v in params.items()}
        self._v = {k: np.zeros_like(v) for k, v in params.items()}

    def step(self) -> None:
        self.check_finite()
        self.step_count += 1
        t = self.step_count
        bc1 = 1.0 - self.beta1 ** t
        bc2 = 1.0 - self.beta2 ** t
        for name, p in self.params.items():
            g = self.grads[name]
            m, v = self._m[name], self._v[name]
            m *= self.beta1
            m += (1 - self.beta1) * g
            v *= self.beta2
            v += (1 - self.beta2) * (g * g)
            update = (m / bc1) / (np.sqrt(v / bc2) + self.eps)
            if self.weight_decay and "weight" in name:
                update = update + self.weight_decay * p
            p -= self.lr * update


class CosineWarmupSchedule:
    """Linear warmup then cosine decay — the Ultralytics default shape.

    ``schedule(epoch)`` returns the LR multiplier; the training loop sets
    ``optimizer.lr = base_lr * multiplier`` once per epoch.
    """

    def __init__(self, total_epochs: int, warmup_epochs: int = 3,
                 final_fraction: float = 0.01) -> None:
        if total_epochs <= 0:
            raise TrainingError(
                f"total_epochs must be positive, got {total_epochs}")
        if warmup_epochs < 0 or warmup_epochs >= total_epochs:
            raise TrainingError(
                f"warmup {warmup_epochs} incompatible with total "
                f"{total_epochs}")
        if not 0.0 <= final_fraction <= 1.0:
            raise TrainingError(
                f"final_fraction must be in [0, 1], got {final_fraction}")
        self.total = total_epochs
        self.warmup = warmup_epochs
        self.final = final_fraction

    def __call__(self, epoch: int) -> float:
        if epoch < 0:
            raise TrainingError(f"epoch must be non-negative, got {epoch}")
        if self.warmup and epoch < self.warmup:
            return (epoch + 1) / self.warmup
        span = max(self.total - self.warmup, 1)
        progress = min((epoch - self.warmup) / span, 1.0)
        cos = 0.5 * (1.0 + np.cos(np.pi * progress))
        return self.final + (1.0 - self.final) * cos
