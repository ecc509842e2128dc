"""IoU-based single/multi-object tracker for VIP re-identification.

The Ocularone system must keep identifying *the same* vest-wearing
person across frames; a lightweight IoU tracker (Hungarian-free greedy
association with track aging) is the standard companion to a per-frame
detector at this scale.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..errors import BenchmarkError
from ..geometry.bbox import BBox, boxes_to_array, iou_matrix


@dataclass
class Track:
    """One tracked object."""

    track_id: int
    box: BBox
    hits: int = 1
    misses: int = 0
    age: int = 0

    @property
    def confirmed(self) -> bool:
        return self.hits >= 2

    def predict(self) -> BBox:
        """Constant-position prediction (frame-rate >> motion here)."""
        return self.box


def greedy_iou_match(tracks: Sequence[BBox], detections: Sequence[BBox],
                     iou_threshold: float) -> List[Tuple[int, int]]:
    """Greedy IoU association: ``(track, detection)`` index pairs.

    Repeatedly takes the best remaining pair of the IoU matrix until the
    best left is below ``iou_threshold`` or either side is used up;
    pairs come back in match order (highest IoU first).
    """
    iou = iou_matrix(boxes_to_array(tracks), boxes_to_array(detections))
    used_t = np.zeros(len(tracks), dtype=bool)
    used_d = np.zeros(len(detections), dtype=bool)
    pairs: List[Tuple[int, int]] = []
    while True:
        masked = np.where(used_t[:, None] | used_d[None, :], -1.0, iou)
        i, j = np.unravel_index(int(masked.argmax()), masked.shape)
        if masked[i, j] < iou_threshold:
            break
        pairs.append((int(i), int(j)))
        used_t[i] = used_d[j] = True
        if used_t.all() or used_d.all():
            break
    return pairs


class IoUTracker:
    """Greedy IoU association with birth/death management."""

    def __init__(self, iou_threshold: float = 0.3,
                 max_misses: int = 5) -> None:
        if not 0.0 < iou_threshold < 1.0:
            raise BenchmarkError(
                f"iou_threshold must be in (0, 1), got {iou_threshold}")
        if max_misses < 1:
            raise BenchmarkError("max_misses must be >= 1")
        self.iou_threshold = iou_threshold
        self.max_misses = max_misses
        self._tracks: Dict[int, Track] = {}
        self._next_id = 1

    @property
    def tracks(self) -> List[Track]:
        return list(self._tracks.values())

    def active_tracks(self) -> List[Track]:
        return [t for t in self._tracks.values() if t.confirmed]

    def update(self, detections: Sequence[BBox]) -> List[Track]:
        """Advance one frame; returns tracks matched this frame."""
        for track in self._tracks.values():
            track.age += 1

        matched: List[Track] = []
        unmatched_dets = list(detections)
        if self._tracks and unmatched_dets:
            track_list = list(self._tracks.values())
            pairs = greedy_iou_match([t.predict() for t in track_list],
                                     unmatched_dets, self.iou_threshold)
            for i, j in pairs:
                track = track_list[i]
                track.box = unmatched_dets[j]
                track.hits += 1
                track.misses = 0
                matched.append(track)
            used_t = {i for i, _ in pairs}
            used_d = {j for _, j in pairs}
            unmatched_dets = [d for k, d in enumerate(unmatched_dets)
                              if k not in used_d]
            for k, track in enumerate(track_list):
                if k not in used_t:
                    track.misses += 1
        else:
            for track in self._tracks.values():
                track.misses += 1

        # Births.
        for det in unmatched_dets:
            track = Track(track_id=self._next_id, box=det)
            self._tracks[self._next_id] = track
            self._next_id += 1

        # Deaths.
        dead = [tid for tid, t in self._tracks.items()
                if t.misses > self.max_misses]
        for tid in dead:
            del self._tracks[tid]
        return matched

    def primary_track(self) -> Optional[Track]:
        """The longest-lived confirmed track — presumed to be the VIP."""
        confirmed = self.active_tracks()
        if not confirmed:
            return None
        return max(confirmed, key=lambda t: (t.hits, -t.track_id))
