"""Tests for the multi-modal extension: thermal, LiDAR, fusion."""

import numpy as np
import pytest

from repro.errors import ConfigError
from repro.geometry.bbox import BBox
from repro.models.yolo.postprocess import Detection
from repro.multimodal.fusion import (FusionConfig, fuse_detections,
                                     thermal_detect)
from repro.multimodal.lidar import (MAX_RANGE_M, LidarConfig, LidarScan,
                                    scan_obstacles, simulate_lidar_scan)
from repro.multimodal.thermal import (AMBIENT_NIGHT_C, ThermalConfig,
                                      ThermalRenderer)
from repro.rng import make_rng


@pytest.fixture(scope="module")
def vip_frame(builder):
    """A pedestrian-free frame with a visible VIP."""
    from repro.dataset.scene import sample_scene
    from repro.dataset.taxonomy import subcategory_by_key
    sub = subcategory_by_key("footpath/no_pedestrians")
    spec = sample_scene(sub, make_rng(3, "mm"))
    return builder.renderer.render(spec, make_rng(3, "mm2"))


class TestThermal:
    def test_person_is_warmest_region(self, vip_frame):
        temp = ThermalRenderer().render(vip_frame, make_rng(1, "t"))
        assert temp.shape == vip_frame.depth.shape
        if vip_frame.vest_boxes:
            b = vip_frame.vest_boxes[0]
            cy = int((b.y1 + b.y2) / 2)
            cx = int((b.x1 + b.x2) / 2)
            body_temp = temp[cy, cx]
            assert body_temp > temp.mean() + 3.0

    def test_sky_reads_cold(self, vip_frame):
        temp = ThermalRenderer().render(vip_frame, make_rng(1, "t"))
        cfg = ThermalConfig()
        # LWIR sky reads well below ambient (attenuation pulls the
        # far-field toward ambient, but a clear margin remains).
        assert temp.min() < cfg.ambient_c - 10.0

    def test_illumination_independence(self, vip_frame):
        """Thermal output is identical for day and night *lighting* —
        only the configured ambient differs."""
        day = ThermalRenderer(ThermalConfig(noise_c=0.0)).render(
            vip_frame, make_rng(1, "t"))
        night = ThermalRenderer(ThermalConfig(
            ambient_c=AMBIENT_NIGHT_C, noise_c=0.0)).render(
            vip_frame, make_rng(1, "t"))
        # Warm body stands out even more against the cold ambient.
        assert (night.max() - night.mean()) >= \
            (day.max() - day.mean()) - 1.0

    def test_config_validation(self):
        with pytest.raises(ConfigError):
            ThermalConfig(noise_c=-1.0)
        with pytest.raises(ConfigError):
            ThermalConfig(attenuation_m=0.0)


class TestThermalDetect:
    def test_detects_vip(self, vip_frame):
        temp = ThermalRenderer(ThermalConfig(
            ambient_c=AMBIENT_NIGHT_C)).render(vip_frame,
                                               make_rng(4, "t"))
        dets = thermal_detect(temp)
        assert dets
        if vip_frame.vest_boxes:
            b = vip_frame.vest_boxes[0]
            cx, cy = b.center
            top = dets[0].box
            assert top.x1 - 6 <= cx <= top.x2 + 6
            assert top.y1 - 6 <= cy <= top.y2 + 6

    def test_empty_on_cold_scene(self):
        temp = np.full((32, 32), 10.0, dtype=np.float32)
        assert thermal_detect(temp) == []

    def test_tolerance_validation(self):
        with pytest.raises(ConfigError):
            thermal_detect(np.zeros((8, 8)), tolerance_c=0.0)


class TestLidar:
    def test_scan_shape(self, vip_frame):
        scan = simulate_lidar_scan(vip_frame, rng=make_rng(5, "l"))
        assert scan.bearings_rad.shape == scan.ranges_m.shape
        assert len(scan.bearings_rad) == LidarConfig().num_beams

    def test_returns_match_depth(self, vip_frame):
        cfg = LidarConfig(range_noise_m=0.0, dropout_prob=0.0,
                          quantisation_m=0.001)
        scan = simulate_lidar_scan(vip_frame, cfg, make_rng(5, "l"))
        valid = scan.valid
        assert valid.any()
        assert np.nanmin(scan.ranges_m) > 0.5
        assert np.nanmax(scan.ranges_m[valid]) <= MAX_RANGE_M + 0.1

    def test_dropout(self, vip_frame):
        cfg = LidarConfig(dropout_prob=0.9)
        scan = simulate_lidar_scan(vip_frame, cfg, make_rng(6, "l"))
        assert (~scan.valid).sum() > cfg.num_beams // 2

    def test_min_range(self, vip_frame):
        scan = simulate_lidar_scan(vip_frame, rng=make_rng(7, "l"))
        if scan.valid.any():
            assert scan.min_range() == pytest.approx(
                float(np.nanmin(scan.ranges_m)))

    def test_obstacle_segmentation(self):
        bearings = np.linspace(-0.5, 0.5, 10)
        ranges = np.array([5.0, 5.1, 5.0, np.nan, 12.0, 12.1, 12.0,
                           np.nan, np.nan, np.nan])
        obstacles = scan_obstacles(LidarScan(bearings, ranges))
        assert len(obstacles) == 2
        assert obstacles[0].range_m == pytest.approx(5.0, abs=0.2)
        assert obstacles[1].range_m == pytest.approx(12.0, abs=0.2)

    def test_jump_splits_cluster(self):
        bearings = np.linspace(-0.5, 0.5, 6)
        ranges = np.array([5.0, 5.0, 9.0, 9.0, 9.1, 9.1])
        obstacles = scan_obstacles(LidarScan(bearings, ranges),
                                   jump_threshold_m=1.0)
        assert len(obstacles) == 2

    def test_config_validation(self):
        with pytest.raises(ConfigError):
            LidarConfig(num_beams=1)
        with pytest.raises(ConfigError):
            LidarConfig(fov_deg=200.0)
        with pytest.raises(ConfigError):
            scan_obstacles(LidarScan(np.zeros(2), np.zeros(2)),
                           jump_threshold_m=0.0)


def det(x1, y1, x2, y2, score):
    return Detection(BBox(x1, y1, x2, y2, conf=score), score)


class TestFusion:
    def test_agreement_bonus(self):
        rgb = [det(10, 10, 20, 30, 0.7)]
        thermal = [det(8, 5, 22, 35, 0.6)]
        fused = fuse_detections(rgb, thermal)
        assert len(fused) == 1
        assert fused[0].score > 0.7  # bonus applied

    def test_union_box_geometry(self):
        rgb = [det(10, 10, 20, 30, 0.7)]
        thermal = [det(8, 5, 22, 35, 0.6)]
        fused = fuse_detections(rgb, thermal)
        assert fused[0].box.as_tuple() == (8, 5, 22, 35)

    def test_unconfirmed_penalised(self):
        cfg = FusionConfig(unconfirmed_penalty=0.5)
        rgb = [det(10, 10, 20, 30, 0.8)]
        fused = fuse_detections(rgb, [], cfg)
        assert fused[0].score == pytest.approx(0.4)

    def test_disjoint_detections_pass_through(self):
        rgb = [det(0, 0, 10, 10, 0.9)]
        thermal = [det(40, 40, 50, 50, 0.8)]
        fused = fuse_detections(rgb, thermal)
        assert len(fused) == 2

    def test_empty_inputs(self):
        assert fuse_detections([], []) == []

    def test_confirmed_beats_unconfirmed(self):
        """A cross-confirmed true detection outranks a confidently
        wrong single-modality detection."""
        rgb = [det(50, 50, 60, 60, 0.9),        # wrong, RGB-only
               det(10, 10, 20, 30, 0.6)]        # right, confirmed
        thermal = [det(9, 8, 21, 32, 0.55)]
        fused = fuse_detections(rgb, thermal)
        assert fused[0].box.x1 < 30  # the confirmed one ranks first

    def test_config_validation(self):
        with pytest.raises(ConfigError):
            FusionConfig(unconfirmed_penalty=0.0)
