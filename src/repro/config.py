"""Global configuration objects for the Ocularone-Bench reproduction.

A single :class:`ReproConfig` threads through dataset building, training
and benchmarking so experiments are fully described by one value (plus a
seed).  The defaults mirror the paper's setup:

* drone video at 30 FPS, frames extracted at 10 FPS (§2);
* training images resized to a fixed square, batch 16, 100 epochs,
  LR 0.01, IoU threshold 0.7 (§3.1);
* ≈10 % stratified training sample, 80:20 train/val split (§3.1).

The *mini* scale (used by executable NumPy models in tests/examples) is a
scaled-down but structurally identical configuration; the *paper* scale is
used by descriptors, the accuracy surrogate and the latency model.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, Tuple

from .errors import ConfigError

#: Image size used by the paper for YOLO training (§3.1).
PAPER_IMAGE_SIZE = 640
#: Image size used by the executable mini models (CPU-friendly).
MINI_IMAGE_SIZE = 64

#: Camera frame rate of the DJI Tello feed (§2).
CAMERA_FPS = 30
#: Frame-extraction rate used to build the dataset (§2).
EXTRACTION_FPS = 10


@dataclass(frozen=True)
class TrainConfig:
    """Training hyper-parameters (paper §3.1 defaults)."""

    epochs: int = 100
    batch_size: int = 16
    learning_rate: float = 0.01
    iou_threshold: float = 0.7
    image_size: int = PAPER_IMAGE_SIZE
    val_fraction: float = 0.2     # 80:20 split
    sample_fraction: float = 0.1  # ≈10 % of each scene category
    weight_decay: float = 5e-4
    momentum: float = 0.937       # Ultralytics default
    warmup_epochs: int = 3

    def validate(self) -> "TrainConfig":
        if self.epochs <= 0:
            raise ConfigError(f"epochs must be positive, got {self.epochs}")
        if self.batch_size <= 0:
            raise ConfigError(
                f"batch_size must be positive, got {self.batch_size}")
        if not 0.0 < self.learning_rate:
            raise ConfigError(
                f"learning_rate must be positive, got {self.learning_rate}")
        if not 0.0 < self.iou_threshold < 1.0:
            raise ConfigError(
                f"iou_threshold must be in (0, 1), got {self.iou_threshold}")
        if not 0.0 < self.val_fraction < 1.0:
            raise ConfigError(
                f"val_fraction must be in (0, 1), got {self.val_fraction}")
        if not 0.0 < self.sample_fraction <= 1.0:
            raise ConfigError(
                f"sample_fraction must be in (0, 1], got "
                f"{self.sample_fraction}")
        if self.image_size <= 0 or self.image_size % 8 != 0:
            raise ConfigError(
                f"image_size must be a positive multiple of 8, got "
                f"{self.image_size}")
        return self


@dataclass(frozen=True)
class MiniScale:
    """Scale factors for the executable NumPy models and scenes."""

    image_size: int = MINI_IMAGE_SIZE
    grid_stride: int = 8
    epochs: int = 30
    batch_size: int = 16
    train_images: int = 320
    test_images: int = 160

    def validate(self) -> "MiniScale":
        if self.image_size % self.grid_stride != 0:
            raise ConfigError(
                f"image_size {self.image_size} not divisible by stride "
                f"{self.grid_stride}")
        if min(self.epochs, self.batch_size,
               self.train_images, self.test_images) <= 0:
            raise ConfigError("mini-scale sizes must all be positive")
        return self


@dataclass(frozen=True)
class ReproConfig:
    """Top-level experiment configuration."""

    seed: int = 7
    train: TrainConfig = field(default_factory=TrainConfig)
    mini: MiniScale = field(default_factory=MiniScale)
    camera_fps: int = CAMERA_FPS
    extraction_fps: int = EXTRACTION_FPS
    #: Number of frames used per latency benchmark (paper §4.2: ≈1,000).
    latency_frames: int = 1000

    def validate(self) -> "ReproConfig":
        if self.seed < 0:
            raise ConfigError(f"seed must be non-negative, got {self.seed}")
        if self.camera_fps <= 0 or self.extraction_fps <= 0:
            raise ConfigError("frame rates must be positive")
        if self.extraction_fps > self.camera_fps:
            raise ConfigError(
                f"extraction rate {self.extraction_fps} exceeds camera rate "
                f"{self.camera_fps}")
        if self.latency_frames <= 0:
            raise ConfigError("latency frame count must be positive")
        self.train.validate()
        self.mini.validate()
        return self

    def with_seed(self, seed: int) -> "ReproConfig":
        """Copy with a different seed (keeps everything else)."""
        return replace(self, seed=seed).validate()


def default_config() -> ReproConfig:
    """The validated library-default configuration."""
    return ReproConfig().validate()


def summarize(cfg: ReproConfig) -> Dict[str, Tuple]:
    """Flat, printable summary of a config (used by reports).

    ``"latency"`` is (timed frames, warm-up frames discarded before
    timing).
    """
    from .latency.sampler import WARMUP_FRAMES
    return {
        "seed": (cfg.seed,),
        "train": (cfg.train.epochs, cfg.train.batch_size,
                  cfg.train.learning_rate, cfg.train.image_size),
        "mini": (cfg.mini.image_size, cfg.mini.epochs,
                 cfg.mini.train_images),
        "rates": (cfg.camera_fps, cfg.extraction_fps),
        "latency": (cfg.latency_frames, WARMUP_FRAMES),
    }
