"""Stochastic per-frame latency sampling around the roofline medians.

Real benchmark runs (the paper's ~1,000-image sweeps) show three effects
beyond the median: a warm-up transient (JIT/cuDNN autotune, cache fill),
multiplicative jitter (scheduler, DVFS, memory contention), and
occasional heavy-tail spikes (thermal throttling on edge, background
activity on the shared workstation).  The sampler composes:

* median from the roofline model;
* lognormal jitter with device-class-dependent σ;
* an exponential warm-up decay over the first frames;
* a thermal throttle multiplier from the first-order thermal model on
  fan-limited edge devices under sustained load.

Everything is seeded through :mod:`repro.rng` streams, so a benchmark's
sample vector is reproducible bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from ..errors import CalibrationError
from ..hardware.device import DeviceSpec
from ..hardware.power import PowerModel, ThermalState
from ..hardware.registry import device_spec
from ..hardware.roofline import RooflineModel
from ..models.spec import ModelSpec, model_spec
from ..obs import current_telemetry
from ..rng import coerce_rng

#: Lognormal jitter σ by device class (the shared workstation is
#: noisier than a dedicated edge board).
JITTER_SIGMA_EDGE = 0.05
JITTER_SIGMA_WORKSTATION = 0.10
#: Warm-up frames :meth:`LatencySampler.sample` discards by default.
WARMUP_FRAMES = 25
#: First-frame slowdown the warm-up transient decays from.
WARMUP_PEAK_FACTOR = 2.5
#: Non-thermal tail events: per-frame probability and slowdown.
SPIKE_PROBABILITY = 0.004
SPIKE_FACTOR = 1.8


@dataclass(frozen=True)
class LatencyHooks:
    """Injectable per-frame latency perturbations (chaos testing).

    ``factor(i)`` multiplies frame ``i``'s sample (sustained throttle,
    battery sag); ``extra_ms(i)`` adds absolute milliseconds (network
    outage stalls, retransmits).  Indices refer to the *returned*
    vector, i.e. post-warm-up frames.  The fault injector bridges to
    this via :meth:`repro.faults.FaultInjector.as_latency_hooks`.
    """

    factor: Callable[[int], float] = field(
        default=lambda i: 1.0)
    extra_ms: Callable[[int], float] = field(
        default=lambda i: 0.0)

    def apply(self, samples: np.ndarray) -> np.ndarray:
        """Apply both hooks to a sampled latency vector."""
        out = samples.copy()
        for i in range(len(out)):
            factor = float(self.factor(i))
            extra = float(self.extra_ms(i))
            if factor <= 0:
                raise CalibrationError(
                    f"latency hook factor must be positive at frame "
                    f"{i}, got {factor}")
            if extra < 0:
                raise CalibrationError(
                    f"latency hook extra_ms must be non-negative at "
                    f"frame {i}, got {extra}")
            out[i] = out[i] * factor + extra
        return out


class LatencySampler:
    """Draws per-frame latency vectors for a (model, device) pair."""

    def __init__(self, roofline: Optional[RooflineModel] = None,
                 seed: int = 7) -> None:
        self.roofline = roofline if roofline is not None else RooflineModel()
        self.seed = seed
        self._power = PowerModel()

    def sample(self, model: str, device: str, n_frames: int,
               include_warmup: bool = False,
               hooks: Optional[LatencyHooks] = None) -> np.ndarray:
        """Per-frame latency samples (ms) for ``n_frames``.

        With ``include_warmup`` the warm-up transient frames are included
        at the head of the vector (the paper discards warm-up; so do the
        benchmarks by default).  ``hooks`` injects per-frame throttle /
        outage perturbations on top of the stochastic model; without
        hooks the vector is bit-identical to earlier releases.
        """
        if n_frames <= 0:
            raise CalibrationError(
                f"n_frames must be positive, got {n_frames}")
        mspec: ModelSpec = model_spec(model)
        dspec: DeviceSpec = device_spec(device)
        rng = coerce_rng(self.seed, "latency", model, device)

        median = self.roofline.median_latency_ms(mspec, dspec)
        sigma = (JITTER_SIGMA_EDGE if dspec.is_edge
                 else JITTER_SIGMA_WORKSTATION)

        total = n_frames + (0 if include_warmup else WARMUP_FRAMES)
        # Lognormal multiplicative jitter centred on the median.
        jitter = rng.lognormal(mean=0.0, sigma=sigma, size=total)
        samples = median * jitter

        # Warm-up transient: exponential decay from peak_factor to 1.
        decay = np.ones(total)
        k = np.arange(min(WARMUP_FRAMES, total))
        decay[:len(k)] = 1.0 + (WARMUP_PEAK_FACTOR - 1.0) \
            * np.exp(-k / (WARMUP_FRAMES / 4.0))
        samples *= decay

        # Random non-thermal spikes.
        spikes = rng.random(total) < SPIKE_PROBABILITY
        samples[spikes] *= SPIKE_FACTOR

        # Thermal throttling on edge devices under sustained load.
        if dspec.is_edge:
            thermal = ThermalState(
                # Passive boards run hot; scale capacity with board mass.
                heat_capacity=max((dspec.weight_g or 400.0) / 8.0, 15.0))
            utilisation = min(mspec.util_multiplier, 1.0) * 0.9
            power = self._power.draw_watts(dspec, utilisation)
            bus = current_telemetry()
            elapsed_s = 0.0
            for i in range(total):
                mult = thermal.step(power, samples[i] / 1000.0)
                samples[i] *= mult
                if bus.enabled:
                    elapsed_s += samples[i] / 1000.0
                    bus.emit(device, "power", power, elapsed_s, unit="W")
                    bus.emit(device, "temp", thermal.temperature_c,
                             elapsed_s, unit="C")

        if not include_warmup:
            samples = samples[WARMUP_FRAMES:]
        samples = samples.astype(np.float64)
        if hooks is not None:
            samples = hooks.apply(samples)
        return samples
