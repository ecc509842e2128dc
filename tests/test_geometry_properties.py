"""Property-based invariant tests for :mod:`repro.geometry`.

Randomised over many seeded trials (plain ``repro.rng`` streams — no
hypothesis dependency, so failures replay exactly by trial number):

* greedy NMS output is a subset of the input in descending score order,
  kept boxes never overlap above the threshold, and every suppressed
  box overlaps some higher-scoring kept box above the threshold;
* IoU is symmetric, bounded to [0, 1], and 1 on the diagonal;
* coordinate transforms (``xyxy``↔``cxcywh``, normalise/denormalise,
  keypoint/box scaling) round-trip to numerical precision.
"""

import numpy as np
import pytest

from repro.geometry.bbox import (BBox, cxcywh_to_xyxy,
                                 denormalize_boxes,
                                 iou_matrix, normalize_boxes,
                                 xyxy_to_cxcywh)
from repro.geometry.keypoints import NUM_KEYPOINTS, KeypointSet
from repro.geometry.nms import nms
from repro.rng import make_rng

N_TRIALS = 25


def random_boxes(rng, n, size=640.0):
    """``(n, 4)`` random well-formed xyxy boxes inside a size² canvas."""
    x1 = rng.uniform(0.0, size * 0.8, n)
    y1 = rng.uniform(0.0, size * 0.8, n)
    w = rng.uniform(1.0, size * 0.5, n)
    h = rng.uniform(1.0, size * 0.5, n)
    return np.stack([x1, y1, x1 + w, y1 + h], axis=1)


class TestNmsInvariants:
    @pytest.mark.parametrize("trial", range(N_TRIALS))
    def test_greedy_nms_contract(self, trial):
        rng = make_rng(trial, "prop-nms")
        n = int(rng.integers(1, 60))
        thr = float(rng.uniform(0.2, 0.9))
        boxes = random_boxes(rng, n)
        scores = rng.uniform(0.0, 1.0, n)
        keep = nms(boxes, scores, iou_threshold=thr)

        # Subset, no duplicates, descending score order.
        assert set(keep) <= set(range(n))
        assert len(set(keep.tolist())) == len(keep)
        kept_scores = scores[keep]
        assert np.all(np.diff(kept_scores) <= 1e-12)

        iou = iou_matrix(boxes, boxes)
        # No kept pair overlaps above the threshold...
        for ai in range(len(keep)):
            for bi in range(ai + 1, len(keep)):
                assert iou[keep[ai], keep[bi]] <= thr + 1e-12
        # ...and every suppressed box overlaps a higher-scoring kept
        # box above the threshold (it was suppressed for a reason).
        suppressed = sorted(set(range(n)) - set(keep.tolist()))
        for s in suppressed:
            culprits = [k for k in keep
                        if iou[s, k] > thr and scores[k] >= scores[s]]
            assert culprits, f"trial {trial}: box {s} suppressed " \
                             f"with no overlapping kept box"


class TestIouInvariants:
    @pytest.mark.parametrize("trial", range(N_TRIALS))
    def test_symmetry_bounds_diagonal(self, trial):
        rng = make_rng(trial, "prop-iou")
        a = random_boxes(rng, int(rng.integers(1, 40)))
        m = iou_matrix(a, a)
        assert np.all(m >= 0.0) and np.all(m <= 1.0 + 1e-12)
        assert np.allclose(m, m.T)
        assert np.allclose(np.diag(m), 1.0)

    @pytest.mark.parametrize("trial", range(8))
    def test_scalar_wrapper_symmetry(self, trial):
        rng = make_rng(trial, "prop-iou-scalar")
        (a,), (b,) = (random_boxes(rng, 1) for _ in range(2))
        ba = BBox(*a)
        bb = BBox(*b)
        assert ba.iou(bb) == pytest.approx(bb.iou(ba))
        assert 0.0 <= ba.iou(bb) <= 1.0

    def test_disjoint_boxes_zero(self):
        a = np.array([[0.0, 0.0, 10.0, 10.0]])
        b = np.array([[20.0, 20.0, 30.0, 30.0]])
        assert iou_matrix(a, b)[0, 0] == 0.0


class TestTransformRoundTrips:
    @pytest.mark.parametrize("trial", range(N_TRIALS))
    def test_xyxy_cxcywh_round_trip(self, trial):
        rng = make_rng(trial, "prop-xywh")
        boxes = random_boxes(rng, int(rng.integers(1, 40)))
        assert np.allclose(cxcywh_to_xyxy(xyxy_to_cxcywh(boxes)),
                           boxes)

    @pytest.mark.parametrize("trial", range(N_TRIALS))
    def test_normalize_round_trip(self, trial):
        rng = make_rng(trial, "prop-norm")
        w, h = float(rng.uniform(64, 4096)), float(rng.uniform(64, 4096))
        boxes = random_boxes(rng, int(rng.integers(1, 40)), size=64.0)
        norm = normalize_boxes(boxes, w, h)
        assert np.allclose(denormalize_boxes(norm, w, h), boxes)

    @pytest.mark.parametrize("trial", range(N_TRIALS))
    def test_bbox_scale_shift_round_trip(self, trial):
        rng = make_rng(trial, "prop-bbox-rt")
        (arr,) = random_boxes(rng, 1)
        box = BBox(*arr)
        sx, sy = float(rng.uniform(0.1, 8.0)), float(rng.uniform(0.1, 8.0))
        dx, dy = float(rng.uniform(-50, 50)), float(rng.uniform(-50, 50))
        back = box.scaled(sx, sy).scaled(1.0 / sx, 1.0 / sy)
        assert np.allclose(back.as_tuple(), box.as_tuple())
        moved = box.shifted(dx, dy).shifted(-dx, -dy)
        assert np.allclose(moved.as_tuple(), box.as_tuple())

    @pytest.mark.parametrize("trial", range(N_TRIALS))
    def test_keypoint_scale_round_trip(self, trial):
        rng = make_rng(trial, "prop-kps")
        pts = np.zeros((NUM_KEYPOINTS, 3))
        pts[:, 0] = rng.uniform(0, 640, NUM_KEYPOINTS)
        pts[:, 1] = rng.uniform(0, 640, NUM_KEYPOINTS)
        pts[:, 2] = (rng.random(NUM_KEYPOINTS) > 0.2).astype(float)
        kps = KeypointSet(pts)
        sx, sy = float(rng.uniform(0.1, 8.0)), float(rng.uniform(0.1, 8.0))
        back = kps.scaled(sx, sy).scaled(1.0 / sx, 1.0 / sy)
        assert np.allclose(back.points, kps.points)
        # Visibility is untouched by geometric scaling.
        assert np.array_equal(back.visible, kps.visible)

    @pytest.mark.parametrize("trial", range(8))
    def test_keypoint_bbox_tracks_scaling(self, trial):
        rng = make_rng(trial, "prop-kps-bbox")
        pts = np.zeros((NUM_KEYPOINTS, 3))
        pts[:, 0] = rng.uniform(1, 640, NUM_KEYPOINTS)
        pts[:, 1] = rng.uniform(1, 640, NUM_KEYPOINTS)
        pts[:, 2] = 1.0
        kps = KeypointSet(pts)
        sx, sy = float(rng.uniform(0.5, 4.0)), float(rng.uniform(0.5, 4.0))
        x1, y1, x2, y2 = kps.bbox()
        sxy = kps.scaled(sx, sy).bbox()
        assert sxy == pytest.approx((x1 * sx, y1 * sy,
                                     x2 * sx, y2 * sy))
