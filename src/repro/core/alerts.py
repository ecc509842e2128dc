"""Alert generation for the VIP assistance pipeline.

The Ocularone system "offers alerts to enable safe navigation" (§1).
Three alert families are derivable from the three model outputs:

* OBSTACLE — something (pedestrian/bicycle/car/prop) closer than a
  distance threshold in the VIP's heading cone (depth + detection);
* FALL — the pose SVM classifies the VIP's posture as fallen;
* VIP_LOST — the tracker lost the vest for too many frames (the drone
  must re-acquire before guidance can continue).

An :class:`AlertPolicy` debounces: an alert fires only after the
condition persists for ``persistence`` consecutive frames, and refires
only after ``cooldown`` frames — the standard way to keep voice prompts
from chattering.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, Optional

from ..errors import ConfigError


class AlertKind(enum.Enum):
    OBSTACLE = "obstacle"
    FALL = "fall"
    VIP_LOST = "vip_lost"
    #: Fallbacks engaged — guidance continues at reduced fidelity.
    DEGRADED = "degraded"
    #: No usable guidance — the user is told to stop and wait.
    SAFE_STOP = "safe_stop"


@dataclass(frozen=True)
class Alert:
    """One fired alert."""

    kind: AlertKind
    frame_index: int
    message: str
    distance_m: Optional[float] = None


@dataclass
class AlertPolicy:
    """Debounced alert triggering."""

    persistence: int = 3       # frames the condition must persist
    cooldown: int = 15         # frames before the same kind refires
    obstacle_distance_m: float = 4.0

    _streak: Dict[AlertKind, int] = field(default_factory=dict)
    _last_fired: Dict[AlertKind, int] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.persistence < 1 or self.cooldown < 0:
            raise ConfigError("bad persistence/cooldown")
        if self.obstacle_distance_m <= 0:
            raise ConfigError("obstacle distance must be positive")

    def observe(self, kind: AlertKind, condition: bool,
                frame_index: int, message: str,
                distance_m: Optional[float] = None) -> Optional[Alert]:
        """Feed one frame's condition; returns an Alert when it fires."""
        streak = self._streak.get(kind, 0)
        streak = streak + 1 if condition else 0
        self._streak[kind] = streak
        if streak < self.persistence:
            return None
        last = self._last_fired.get(kind)
        if last is not None and frame_index - last < self.cooldown:
            return None
        self._last_fired[kind] = frame_index
        return Alert(kind=kind, frame_index=frame_index,
                     message=message, distance_m=distance_m)

    def reset(self) -> None:
        self._streak.clear()
        self._last_fired.clear()


def obstacle_distance(depth_map, box) -> float:
    """Median depth inside a detection box — the obstacle's range."""
    import numpy as np
    h, w = depth_map.shape
    x1 = max(int(box.x1), 0)
    y1 = max(int(box.y1), 0)
    x2 = min(int(box.x2) + 1, w)
    y2 = min(int(box.y2) + 1, h)
    if x2 <= x1 or y2 <= y1:
        raise ConfigError(f"box {box.as_tuple()} outside depth map")
    region = depth_map[y1:y2, x1:x2]
    return float(np.median(region))
