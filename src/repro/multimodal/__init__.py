"""Multi-modal sensing extension (paper §5 future work).

The paper's future work names "integrating multi-modal sensing (LiDAR,
thermal imaging)".  This subpackage implements that direction on top of
the same substrates:

* :mod:`repro.multimodal.thermal` — a thermal-imaging channel rendered
  from scene ground truth (people are warm, vehicles' engines warm,
  background cool), unaffected by visible-light corruption — the
  physical reason thermal helps at night;
* :mod:`repro.multimodal.lidar` — a planar LiDAR scan simulator ray-cast
  against the renderer's depth buffer, with range noise and dropout;
* :mod:`repro.multimodal.fusion` — late fusion of an RGB detector with
  the thermal channel, and a LiDAR-based obstacle detector that
  complements monocular depth.
"""

from .thermal import ThermalRenderer
from .lidar import LidarConfig, LidarScan, simulate_lidar_scan, \
    scan_obstacles
from .fusion import FusionConfig, thermal_detect

__all__ = [
    "ThermalRenderer",
    "LidarConfig", "LidarScan", "simulate_lidar_scan", "scan_obstacles",
    "FusionConfig", "thermal_detect",
]
