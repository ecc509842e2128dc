"""Tests for the pose (heatmap + SVM) and depth mini models."""

import numpy as np
import pytest

from repro.errors import ShapeError, TrainingError
from repro.geometry.keypoints import NUM_KEYPOINTS
from repro.models.depth.metrics import depth_metrics
from repro.models.depth.mini import (D_MAX, D_MIN, DepthTrainer,
                                     MiniDepth, depth_to_disparity,
                                     disparity_to_depth,
                                     downsample_depth)
from repro.models.pose.decode import decode_heatmaps, keypoint_error
from repro.models.pose.fall_svm import FallClassifier, LinearSVM
from repro.models.pose.mini import (MiniPose, MiniPoseConfig,
                                    PoseTrainer, make_heatmaps)
from tests.test_geometry_keypoints import (make_fallen_person,
                                           make_upright_person)


class TestHeatmaps:
    def test_shapes(self):
        cfg = MiniPoseConfig()
        maps, valid = make_heatmaps([make_upright_person()], cfg)
        assert maps.shape == (1, NUM_KEYPOINTS, cfg.grid, cfg.grid)
        assert valid.shape == (1, NUM_KEYPOINTS)

    def test_peak_at_keypoint(self):
        cfg = MiniPoseConfig()
        kps = make_upright_person()
        maps, valid = make_heatmaps([kps], cfg)
        for j in range(NUM_KEYPOINTS):
            if not valid[0, j]:
                continue
            peak = np.unravel_index(maps[0, j].argmax(),
                                    maps[0, j].shape)
            gx = kps.points[j, 0] / cfg.stride
            gy = kps.points[j, 1] / cfg.stride
            assert abs(peak[1] - gx) <= 1.0
            assert abs(peak[0] - gy) <= 1.0

    def test_none_keypoints_zero_maps(self):
        cfg = MiniPoseConfig()
        maps, valid = make_heatmaps([None], cfg)
        assert maps.sum() == 0.0
        assert not valid.any()


class TestDecode:
    def test_roundtrip_through_heatmaps(self):
        cfg = MiniPoseConfig()
        kps = make_upright_person()
        maps, _ = make_heatmaps([kps], cfg)
        decoded = decode_heatmaps(maps, cfg.stride)[0]
        err = keypoint_error(decoded, kps)
        assert err < 2.5 * cfg.stride  # within ~2 cells

    def test_low_peak_marked_invisible(self):
        maps = np.zeros((1, NUM_KEYPOINTS, 16, 16), dtype=np.float32)
        decoded = decode_heatmaps(maps, 4, min_peak=0.1)[0]
        assert not decoded.visible.any()

    def test_shape_validation(self):
        with pytest.raises(ShapeError):
            decode_heatmaps(np.zeros((1, 5, 8, 8)), 4)


class TestPoseTraining:
    def test_loss_decreases(self, clean_frames):
        frames = [f for f in clean_frames if f.keypoints is not None][:48]
        images = np.stack([f.image.transpose(2, 0, 1) for f in frames])
        kps = [f.keypoints for f in frames]
        model = MiniPose(seed=4)
        trainer = PoseTrainer(model, epochs=5, batch_size=16, seed=4)
        history = trainer.fit(images.astype(np.float32), kps)
        assert history[-1] < history[0]

    def test_bad_data_rejected(self):
        model = MiniPose(seed=1)
        trainer = PoseTrainer(model, epochs=1)
        with pytest.raises(TrainingError):
            trainer.fit(np.zeros((0, 3, 64, 64), dtype=np.float32), [])


class TestLinearSVM:
    def _blobs(self, n=60, seed=0):
        rng = np.random.default_rng(seed)
        a = rng.normal(loc=+2.0, size=(n, 3))
        b = rng.normal(loc=-2.0, size=(n, 3))
        x = np.vstack([a, b])
        y = np.concatenate([np.ones(n), -np.ones(n)])
        return x, y

    def test_separable_blobs(self):
        x, y = self._blobs()
        svm = LinearSVM(epochs=100).fit(x, y, rng=np.random.default_rng(1))
        assert svm.accuracy(x, y) > 0.95

    def test_labels_validated(self):
        x, _ = self._blobs()
        with pytest.raises(TrainingError):
            LinearSVM().fit(x, np.zeros(len(x)))

    def test_single_class_rejected(self):
        x, _ = self._blobs()
        with pytest.raises(TrainingError):
            LinearSVM().fit(x, np.ones(len(x)))

    def test_predict_before_fit(self):
        with pytest.raises(TrainingError):
            LinearSVM().predict(np.zeros((1, 3)))

    def test_decision_margin_sign(self):
        x, y = self._blobs()
        svm = LinearSVM(epochs=100).fit(x, y, rng=np.random.default_rng(2))
        d = svm.decision(x)
        assert (np.sign(d) == y).mean() > 0.95


class TestFallClassifier:
    def test_separates_upright_from_fallen(self):
        upright = [make_upright_person(cx=20 + i, height=30 + i)
                   for i in range(15)]
        fallen = [make_fallen_person(cx=40 + i, length=30 + i)
                  for i in range(15)]
        kps = upright + fallen
        labels = [False] * 15 + [True] * 15
        clf = FallClassifier().fit(kps, labels,
                                   rng=np.random.default_rng(3))
        assert clf.accuracy(kps, labels) >= 0.9

    def test_on_rendered_scenes(self, builder):
        """End-to-end: renderer pose ground truth → features → SVM."""
        from repro.dataset.scene import sample_scene
        from repro.dataset.taxonomy import subcategory_by_key
        from repro.rng import make_rng
        sub = subcategory_by_key("footpath/no_pedestrians")
        kps, labels = [], []
        for i in range(60):
            spec = sample_scene(sub, make_rng(i, "fall-test"),
                                fall_probability=0.5)
            frame = builder.renderer.render(spec, make_rng(i, "fr"))
            if frame.keypoints is None or not frame.keypoints.visible.any():
                continue
            kps.append(frame.keypoints)
            labels.append(spec.is_fall())
        if len(set(labels)) < 2:
            pytest.skip("degenerate draw")
        clf = FallClassifier().fit(kps, labels,
                                   rng=np.random.default_rng(4))
        assert clf.accuracy(kps, labels) >= 0.85


class TestDisparity:
    def test_roundtrip(self):
        depth = np.array([[2.0, 10.0, 80.0]], dtype=np.float32)
        disp = depth_to_disparity(depth)
        back = disparity_to_depth(disp)
        assert np.allclose(back, depth, rtol=1e-5)

    def test_range(self):
        depth = np.array([[0.1, 1000.0]], dtype=np.float32)
        disp = depth_to_disparity(depth)
        assert disp.max() <= 1.0
        assert disp.min() >= D_MIN / D_MAX - 1e-6

    def test_downsample(self):
        d = np.arange(16, dtype=np.float32).reshape(1, 4, 4)
        out = downsample_depth(d, 2)
        assert out.shape == (1, 2, 2)
        assert out[0, 0, 0] == pytest.approx((0 + 1 + 4 + 5) / 4)

    def test_downsample_divisibility(self):
        with pytest.raises(ShapeError):
            downsample_depth(np.zeros((1, 5, 5)), 2)


class TestDepthTraining:
    def test_loss_decreases_and_predicts(self, clean_frames):
        frames = clean_frames[:48]
        images = np.stack([f.image.transpose(2, 0, 1)
                           for f in frames]).astype(np.float32)
        depths = np.stack([f.depth for f in frames])
        model = MiniDepth(seed=5)
        trainer = DepthTrainer(model, epochs=6, batch_size=16, seed=5)
        history = trainer.fit(images, depths)
        assert history[-1] < history[0]
        pred = model.predict_depth(images[:4])
        assert pred.shape == (4, 16, 16)
        assert np.all(pred > 0)

    def test_trained_beats_constant_baseline(self, clean_frames):
        frames = clean_frames[:64]
        images = np.stack([f.image.transpose(2, 0, 1)
                           for f in frames]).astype(np.float32)
        depths = np.stack([f.depth for f in frames])
        model = MiniDepth(seed=6)
        DepthTrainer(model, epochs=10, batch_size=16, seed=6).fit(
            images[:48], depths[:48])
        test_imgs, test_depths = images[48:], depths[48:]
        truth = downsample_depth(test_depths, 4)
        pred = model.predict_depth(test_imgs)
        m = depth_metrics(pred, truth)
        const = np.full_like(truth, float(np.median(truth)))
        m_const = depth_metrics(const, truth)
        assert m.abs_rel < m_const.abs_rel

    def test_metrics_validation(self):
        with pytest.raises(TrainingError):
            depth_metrics(np.zeros((2, 2)), np.zeros((3, 3)))
        with pytest.raises(TrainingError):
            depth_metrics(np.zeros((2, 2)), np.zeros((2, 2)))

    def test_metrics_perfect_prediction(self):
        truth = np.full((4, 4), 10.0)
        m = depth_metrics(truth, truth)
        assert m.abs_rel == 0.0
        assert m.delta1 == 1.0
