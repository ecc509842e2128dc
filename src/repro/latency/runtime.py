"""Simulated inference runtime — the paper's benchmark-script substitute.

§4.2: "To benchmark inference times for all models across devices, we run
a subset of approximately 1,000 images."  :class:`SimulatedRuntime`
replays exactly that: warm-up, then per-frame timed inference of a named
model on a named device, returning an :class:`InferenceRun` with the full
sample vector and summary statistics (median, mean, p95, p99, min, max).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Sequence

import numpy as np

from ..config import ReproConfig, default_config
from ..errors import BenchmarkError
from .sampler import LatencySampler


@dataclass(frozen=True)
class InferenceRun:
    """One benchmark run: model × device × N frames."""

    model: str
    device: str
    samples_ms: np.ndarray

    def __post_init__(self) -> None:
        arr = np.asarray(self.samples_ms, dtype=np.float64)
        if arr.ndim != 1 or len(arr) == 0:
            raise BenchmarkError("empty latency sample vector")
        if (arr <= 0).any():
            raise BenchmarkError("non-positive latency sample")
        object.__setattr__(self, "samples_ms", arr)

    @property
    def median_ms(self) -> float:
        return float(np.median(self.samples_ms))

    @property
    def mean_ms(self) -> float:
        return float(np.mean(self.samples_ms))

    @property
    def p95_ms(self) -> float:
        return float(np.percentile(self.samples_ms, 95))

    @property
    def p99_ms(self) -> float:
        return float(np.percentile(self.samples_ms, 99))

    @property
    def min_ms(self) -> float:
        return float(np.min(self.samples_ms))

    @property
    def max_ms(self) -> float:
        return float(np.max(self.samples_ms))

    @property
    def fps(self) -> float:
        return 1000.0 / self.mean_ms

    def summary(self) -> Dict[str, float]:
        return {
            "median_ms": self.median_ms, "mean_ms": self.mean_ms,
            "p95_ms": self.p95_ms, "p99_ms": self.p99_ms,
            "min_ms": self.min_ms, "max_ms": self.max_ms,
            "fps": self.fps,
        }


class SimulatedRuntime:
    """Runs the paper's latency benchmark over model/device grids."""

    def __init__(self, config: Optional[ReproConfig] = None) -> None:
        self.config = (config or default_config()).validate()
        self.sampler = LatencySampler(seed=self.config.seed)

    def run(self, model: str, device: str,
            n_frames: Optional[int] = None) -> InferenceRun:
        """Benchmark one model on one device (default: ~1,000 frames)."""
        n = n_frames if n_frames is not None else self.config.latency_frames
        samples = self.sampler.sample(model, device, n)
        return InferenceRun(model=model, device=device, samples_ms=samples)

    def run_grid(self, models: Sequence[str], devices: Sequence[str],
                 n_frames: Optional[int] = None
                 ) -> Dict[str, Dict[str, InferenceRun]]:
        """Benchmark a full grid: ``{device: {model: run}}``."""
        if not models or not devices:
            raise BenchmarkError("empty model or device list")
        return {
            dev: {m: self.run(m, dev, n_frames) for m in models}
            for dev in devices
        }
