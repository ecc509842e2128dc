"""Unit helpers and conversions used across the benchmark suite.

The paper mixes units freely (ms per frame, GFLOPs, MB model sizes, watts,
USD).  Centralising the conversions keeps the roofline model and the report
tables consistent and lets tests assert dimensional sanity.
"""

from __future__ import annotations

from .errors import ConfigError

# ---------------------------------------------------------------------------
# Scalar conversion constants
# ---------------------------------------------------------------------------

MS_PER_S = 1_000.0
US_PER_S = 1_000_000.0

KB = 1_024.0
MB = KB * KB
GB = KB * MB

KILO = 1e3
MEGA = 1e6
GIGA = 1e9
TERA = 1e12


def s_to_ms(seconds: float) -> float:
    """Seconds → milliseconds."""
    return seconds * MS_PER_S


def ms_to_s(ms: float) -> float:
    """Milliseconds → seconds."""
    return ms / MS_PER_S


def bytes_to_mb(n_bytes: float) -> float:
    """Bytes → mebibytes (MB as used in the paper's Table 2)."""
    return n_bytes / MB


def mb_to_bytes(n_mb: float) -> float:
    """Mebibytes → bytes."""
    return n_mb * MB


def params_to_millions(n_params: int) -> float:
    """Raw parameter count → 'millions of parameters' (Table 2 column)."""
    return n_params / MEGA


def flops_to_gflops(flops: float) -> float:
    """Raw FLOP count → GFLOPs."""
    return flops / GIGA


def gflops_to_flops(gflops: float) -> float:
    """GFLOPs → raw FLOP count."""
    return gflops * GIGA


def tflops_to_flops_per_s(tflops: float) -> float:
    """Device throughput in TFLOPS → FLOPs per second."""
    return tflops * TERA


def fps_to_period_ms(fps: float) -> float:
    """Frame rate → inter-frame period in milliseconds.

    The drone camera produces 30 FPS; the extraction pipeline samples at
    10 FPS; the VIP pipeline budgets latency against these periods.
    """
    if fps <= 0:
        raise ConfigError(f"fps must be positive, got {fps}")
    return MS_PER_S / fps


def period_ms_to_fps(period_ms: float) -> float:
    """Inter-frame period in milliseconds → frame rate."""
    if period_ms <= 0:
        raise ConfigError(f"period must be positive, got {period_ms}")
    return MS_PER_S / period_ms


def fp16_bytes(n_values: int) -> int:
    """Size in bytes of ``n_values`` float16 numbers."""
    return int(n_values) * 2
