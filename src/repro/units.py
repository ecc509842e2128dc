"""Unit constants and the conversions the benchmark suite uses.

The paper mixes units freely (ms per frame, GFLOPs, MB model sizes, watts,
USD).  Centralising the constants keeps the roofline model and the report
tables consistent.
"""

from __future__ import annotations

from .errors import ConfigError

# ---------------------------------------------------------------------------
# Scalar conversion constants
# ---------------------------------------------------------------------------

MS_PER_S = 1_000.0

KB = 1_024.0
MB = KB * KB
GB = KB * MB

MEGA = 1e6
GIGA = 1e9
TERA = 1e12


def params_to_millions(n_params: int) -> float:
    """Raw parameter count → 'millions of parameters' (Table 2 column)."""
    return n_params / MEGA


def fps_to_period_ms(fps: float) -> float:
    """Frame rate → inter-frame period in milliseconds.

    The drone camera produces 30 FPS; the extraction pipeline samples at
    10 FPS; the VIP pipeline budgets latency against these periods.
    """
    if fps <= 0:
        raise ConfigError(f"fps must be positive, got {fps}")
    return MS_PER_S / fps
