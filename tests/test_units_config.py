"""Tests for unit conversions and configuration validation."""

import numpy as np
import pytest

from repro import units
from repro.config import (MiniScale, ReproConfig, TrainConfig,
                          default_config, summarize)
from repro.errors import ConfigError
from repro.latency.sampler import LatencySampler


class TestUnits:
    def test_seconds_roundtrip(self):
        assert units.ms_to_s(units.s_to_ms(1.25)) == pytest.approx(1.25)

    def test_bytes_mb_roundtrip(self):
        assert units.bytes_to_mb(units.mb_to_bytes(49.61)) == \
            pytest.approx(49.61)

    def test_params_to_millions(self):
        assert units.params_to_millions(3_200_000) == pytest.approx(3.2)

    def test_gflops_roundtrip(self):
        assert units.flops_to_gflops(
            units.gflops_to_flops(257.8)) == pytest.approx(257.8)

    def test_fps_period(self):
        assert units.fps_to_period_ms(10) == pytest.approx(100.0)
        assert units.period_ms_to_fps(100.0) == pytest.approx(10.0)

    def test_fps_zero_rejected(self):
        with pytest.raises(ConfigError):
            units.fps_to_period_ms(0)
        with pytest.raises(ConfigError):
            units.period_ms_to_fps(0)

    def test_fp_sizes(self):
        assert units.fp16_bytes(10) == 20

    def test_tflops_conversion(self):
        assert units.tflops_to_flops_per_s(1.0) == pytest.approx(1e12)


class TestTrainConfig:
    def test_paper_defaults(self):
        cfg = TrainConfig()
        # §3.1: LR 0.01, IoU 0.7, 640px, batch 16, 100 epochs, 80:20.
        assert cfg.learning_rate == pytest.approx(0.01)
        assert cfg.iou_threshold == pytest.approx(0.7)
        assert cfg.image_size == 640
        assert cfg.batch_size == 16
        assert cfg.epochs == 100
        assert cfg.val_fraction == pytest.approx(0.2)
        assert cfg.sample_fraction == pytest.approx(0.1)

    @pytest.mark.parametrize("field,value", [
        ("epochs", 0), ("batch_size", -1), ("learning_rate", 0.0),
        ("iou_threshold", 1.5), ("val_fraction", 0.0),
        ("sample_fraction", 1.5), ("image_size", 37),
    ])
    def test_invalid_rejected(self, field, value):
        import dataclasses
        cfg = dataclasses.replace(TrainConfig(), **{field: value})
        with pytest.raises(ConfigError):
            cfg.validate()


class TestMiniScale:
    def test_default_valid(self):
        MiniScale().validate()

    def test_stride_divisibility(self):
        with pytest.raises(ConfigError):
            MiniScale(image_size=60, grid_stride=8).validate()

    def test_positive_sizes(self):
        with pytest.raises(ConfigError):
            MiniScale(epochs=0).validate()


class TestReproConfig:
    def test_default_valid(self):
        cfg = default_config()
        assert cfg.camera_fps == 30
        assert cfg.extraction_fps == 10
        assert cfg.latency_frames == 1000

    def test_extraction_must_not_exceed_camera(self):
        with pytest.raises(ConfigError):
            ReproConfig(camera_fps=10, extraction_fps=30).validate()

    def test_with_seed(self):
        cfg = default_config().with_seed(42)
        assert cfg.seed == 42

    def test_negative_seed_rejected(self):
        with pytest.raises(ConfigError):
            default_config().with_seed(-1)

    def test_summarize_keys(self):
        s = summarize(default_config())
        assert {"seed", "train", "mini", "rates", "latency"} <= set(s)

    def test_summarized_warmup_is_what_sample_drops(self):
        _, warmup = summarize(default_config())["latency"]
        sampler = LatencySampler(seed=3)
        timed = sampler.sample("yolov8-n", "orin-agx", 100)
        full = sampler.sample("yolov8-n", "orin-agx", 100 + warmup,
                              include_warmup=True)
        np.testing.assert_array_equal(full[warmup:], timed)
