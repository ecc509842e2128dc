"""Tests for drawing primitives and the adversarial augmentation pipeline."""

import numpy as np
import pytest

from repro.errors import ConfigError
from repro.geometry.bbox import BBox
from repro.image import draw
from repro.image.augment import (AdversarialKind, AugmentConfig,
                                 apply_adversarial)


def blank(h=32, w=32):
    return np.zeros((h, w, 3), dtype=np.float32)


class TestDraw:
    def test_fill_rect(self):
        img = blank()
        draw.fill_rect(img, 4, 4, 10, 12, (1, 0, 0))
        assert img[5, 5, 0] == 1.0
        assert img[5, 5, 1] == 0.0
        assert img[20, 20].sum() == 0.0

    def test_fill_rect_clipped(self):
        img = blank()
        draw.fill_rect(img, -10, -10, 5, 5, (0, 1, 0))
        assert img[0, 0, 1] == 1.0

    def test_fill_rect_zbuffer(self):
        img = blank()
        depth = np.full((32, 32), 10.0, dtype=np.float32)
        draw.fill_rect(img, 0, 0, 32, 32, (1, 0, 0), depth, z=5.0)
        draw.fill_rect(img, 0, 0, 32, 32, (0, 1, 0), depth, z=8.0)
        # Farther rect must not overwrite the nearer one.
        assert img[5, 5, 0] == 1.0 and img[5, 5, 1] == 0.0
        assert depth[5, 5] == 5.0

    def test_fill_circle(self):
        img = blank()
        draw.fill_circle(img, 16, 16, 5, (0, 0, 1))
        assert img[16, 16, 2] == 1.0
        assert img[16, 23, 2] == 0.0  # outside the radius

    def test_circle_radius_validation(self):
        with pytest.raises(ConfigError):
            draw.fill_circle(blank(), 5, 5, 0.0, (1, 1, 1))

    def test_draw_line_thickness(self):
        img = blank()
        draw.draw_line(img, 4, 16, 28, 16, (1, 0, 0), thickness=3)
        assert img[16, 16, 0] == 1.0
        assert img[10, 16, 0] == 0.0

    def test_degenerate_line_draws_dot(self):
        img = blank()
        draw.draw_line(img, 16, 16, 16, 16, (1, 0, 0), thickness=2)
        assert img[16, 16, 0] == 1.0

    def test_vertical_gradient(self):
        g = draw.vertical_gradient(10, 4, (0, 0, 0), (1, 1, 1))
        assert g[0].sum() == 0.0
        assert np.allclose(g[-1], 1.0)
        assert g[5, 0, 0] > g[2, 0, 0]

    def test_checker_texture(self):
        t = draw.checker_texture(8, 8, 2, (0, 0, 0), (1, 1, 1))
        assert t[0, 0, 0] == 0.0
        assert t[0, 2, 0] == 1.0
        assert t[2, 0, 0] == 1.0

    def test_checker_cell_validation(self):
        with pytest.raises(ConfigError):
            draw.checker_texture(4, 4, 0, (0, 0, 0), (1, 1, 1))


class TestAdversarial:
    def _img_with_box(self):
        img = np.full((32, 32, 3), 0.5, dtype=np.float32)
        img[10:20, 12:18] = (0.6, 1.0, 0.1)
        return img, [BBox(12, 10, 18, 20)]

    def test_low_light_darkens(self):
        img, boxes = self._img_with_box()
        out, kept = apply_adversarial(img, boxes,
                                      AdversarialKind.LOW_LIGHT,
                                      AugmentConfig(severity=1.0))
        assert out.mean() < img.mean()
        assert len(kept) == 1

    def test_blur_smooths(self):
        img, boxes = self._img_with_box()
        out, kept = apply_adversarial(img, boxes, AdversarialKind.BLUR,
                                      AugmentConfig(severity=1.0))
        assert out.var() < img.var()
        assert kept[0].as_tuple() == boxes[0].as_tuple()

    def test_zero_severity_near_identity_blur(self):
        img, boxes = self._img_with_box()
        out, _ = apply_adversarial(img, boxes, AdversarialKind.BLUR,
                                   AugmentConfig(severity=0.0))
        assert np.allclose(out, img)

    def test_crop_shrinks_canvas_and_remaps(self):
        img, boxes = self._img_with_box()
        out, kept = apply_adversarial(
            img, boxes, AdversarialKind.CROP,
            AugmentConfig(severity=1.0),
            np.random.default_rng(1))
        assert out.shape[0] <= 32 and out.shape[1] <= 32
        for b in kept:
            assert b.x2 <= out.shape[1] + 1e-6
            assert b.y2 <= out.shape[0] + 1e-6

    def test_tilt_keeps_canvas(self):
        img, boxes = self._img_with_box()
        out, kept = apply_adversarial(img, boxes, AdversarialKind.TILT,
                                      AugmentConfig(severity=0.8))
        assert out.shape == img.shape

    def test_noise_changes_pixels(self):
        img, boxes = self._img_with_box()
        out, _ = apply_adversarial(img, boxes, AdversarialKind.NOISE,
                                   AugmentConfig(severity=1.0))
        assert not np.array_equal(out, img)

    def test_severity_validation(self):
        with pytest.raises(ConfigError):
            AugmentConfig(severity=1.5)

    def test_deterministic_given_rng(self):
        img, boxes = self._img_with_box()
        a, _ = apply_adversarial(img, boxes, AdversarialKind.NOISE,
                                 rng=np.random.default_rng(5))
        b, _ = apply_adversarial(img, boxes, AdversarialKind.NOISE,
                                 rng=np.random.default_rng(5))
        assert np.array_equal(a, b)
