"""Kalman-filter tracking: constant-velocity motion over box state.

Upgrade path from the greedy IoU tracker: between detections the VIP
moves (drone jitter + walking), and at low processed frame rates (when
heavy models drop frames) the constant-position assumption breaks.  The
Kalman tracker maintains ``[cx, cy, s, r]`` (centre, scale = area,
aspect) plus velocities for the first three — the SORT parameterisation
— predicting through detection gaps and gating association on the
predicted box.

Pure NumPy; the filter is the textbook linear KF with per-track state.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

import numpy as np

from ..errors import BenchmarkError
from ..geometry.bbox import BBox
from .tracker import greedy_iou_match

#: State dimension: [cx, cy, s, r, vcx, vcy, vs].
_DIM_X = 7
#: Measurement dimension: [cx, cy, s, r].
_DIM_Z = 4


def _box_to_z(box: BBox) -> np.ndarray:
    cx, cy = box.center
    s = box.area
    r = box.width / max(box.height, 1e-6)
    return np.array([cx, cy, s, r], dtype=np.float64)


def _z_to_box(z: np.ndarray, conf: float = 1.0) -> BBox:
    cx, cy, s, r = z
    s = max(float(s), 1e-6)
    r = max(float(r), 1e-6)
    w = np.sqrt(s * r)
    h = s / max(w, 1e-6)
    half_w, half_h = max(w / 2, 0.5), max(h / 2, 0.5)
    return BBox(cx - half_w, cy - half_h, cx + half_w, cy + half_h,
                cls=0, conf=min(max(conf, 0.0), 1.0))


class KalmanBoxFilter:
    """One track's constant-velocity Kalman filter (SORT-style)."""

    def __init__(self, box: BBox) -> None:
        self.x = np.zeros(_DIM_X, dtype=np.float64)
        self.x[:4] = _box_to_z(box)
        # State-transition: positions integrate velocities.
        self.F = np.eye(_DIM_X)
        for i in range(3):
            self.F[i, i + 4] = 1.0
        self.H = np.zeros((_DIM_Z, _DIM_X))
        self.H[:4, :4] = np.eye(4)
        # Covariances (SORT-ish tuning).
        self.P = np.eye(_DIM_X) * 10.0
        self.P[4:, 4:] *= 100.0       # high uncertainty on velocities
        self.Q = np.eye(_DIM_X) * 0.01
        self.Q[4:, 4:] *= 0.1
        self.R = np.diag([1.0, 1.0, 10.0, 0.01])

    def predict(self) -> BBox:
        """Advance one frame; returns the predicted box."""
        # Keep scale non-negative: damp negative scale velocity.
        if self.x[2] + self.x[6] <= 0:
            self.x[6] = 0.0
        self.x = self.F @ self.x
        self.P = self.F @ self.P @ self.F.T + self.Q
        return _z_to_box(self.x[:4])

    def update(self, box: BBox) -> None:
        """Fuse a measurement."""
        z = _box_to_z(box)
        y = z - self.H @ self.x
        s_mat = self.H @ self.P @ self.H.T + self.R
        k_gain = self.P @ self.H.T @ np.linalg.inv(s_mat)
        self.x = self.x + k_gain @ y
        self.P = (np.eye(_DIM_X) - k_gain @ self.H) @ self.P

    def current_box(self) -> BBox:
        return _z_to_box(self.x[:4])

    @property
    def speed_px(self) -> float:
        """Current speed estimate in pixels/frame."""
        return float(np.hypot(self.x[4], self.x[5]))


@dataclass
class KalmanTrack:
    """Track bookkeeping around one filter."""

    track_id: int
    filter: KalmanBoxFilter
    hits: int = 1
    misses: int = 0
    age: int = 0

    @property
    def confirmed(self) -> bool:
        return self.hits >= 2


class KalmanTracker:
    """Multi-object tracker: KF prediction + greedy IoU association."""

    def __init__(self, iou_threshold: float = 0.2,
                 max_misses: int = 8) -> None:
        if not 0.0 < iou_threshold < 1.0:
            raise BenchmarkError(
                f"iou_threshold must be in (0, 1), got {iou_threshold}")
        if max_misses < 1:
            raise BenchmarkError("max_misses must be >= 1")
        self.iou_threshold = iou_threshold
        self.max_misses = max_misses
        self._tracks: Dict[int, KalmanTrack] = {}
        self._next_id = 1

    @property
    def tracks(self) -> List[KalmanTrack]:
        return list(self._tracks.values())

    def update(self, detections: Sequence[BBox]) -> List[KalmanTrack]:
        """Advance one frame with (possibly empty) detections."""
        predictions: Dict[int, BBox] = {}
        for tid, track in self._tracks.items():
            track.age += 1
            predictions[tid] = track.filter.predict()

        matched: List[KalmanTrack] = []
        dets = list(detections)
        if predictions and dets:
            tids = list(predictions)
            pairs = greedy_iou_match([predictions[t] for t in tids], dets,
                                     self.iou_threshold)
            for i, j in pairs:
                track = self._tracks[tids[i]]
                track.filter.update(dets[j])
                track.hits += 1
                track.misses = 0
                matched.append(track)
            used_t = {i for i, _ in pairs}
            used_d = {j for _, j in pairs}
            unmatched = [d for k, d in enumerate(dets) if k not in used_d]
            for k, tid in enumerate(tids):
                if k not in used_t:
                    self._tracks[tid].misses += 1
        else:
            unmatched = dets
            for track in self._tracks.values():
                track.misses += 1

        for det in unmatched:
            self._tracks[self._next_id] = KalmanTrack(
                track_id=self._next_id, filter=KalmanBoxFilter(det))
            self._next_id += 1

        for tid in [t for t, tr in self._tracks.items()
                    if tr.misses > self.max_misses]:
            del self._tracks[tid]
        return matched

    def primary_track(self) -> Optional[KalmanTrack]:
        """Longest-lived confirmed track (the VIP)."""
        confirmed = [t for t in self._tracks.values() if t.confirmed]
        if not confirmed:
            return None
        return max(confirmed, key=lambda t: (t.hits, -t.track_id))

    def primary_box(self) -> Optional[BBox]:
        track = self.primary_track()
        return track.filter.current_box() if track else None
