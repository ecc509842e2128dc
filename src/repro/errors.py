"""Exception hierarchy for the Ocularone-Bench reproduction.

All library-raised errors derive from :class:`ReproError` so callers can
catch one base class at API boundaries.  Specific subclasses exist for the
major subsystems (dataset generation, model construction/training, hardware
modelling and benchmarking) so tests can assert precise failure modes.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by :mod:`repro`."""


class ConfigError(ReproError):
    """Invalid configuration value (bad shape, negative size, unknown key)."""


class DatasetError(ReproError):
    """Dataset construction or sampling failed (empty split, bad taxonomy)."""


class AnnotationError(DatasetError):
    """Malformed annotation record (degenerate box, out-of-range coords)."""


class ModelError(ReproError):
    """Model construction, loading or execution failed."""


class ShapeError(ModelError):
    """Tensor shape mismatch inside the NumPy neural-network substrate."""


class TrainingError(ReproError):
    """Training loop failure (non-finite loss, empty batch, bad protocol)."""


class AliasError(ModelError):
    """Two logical tensors share memory they must not (workspace
    double-borrow, leaked borrow across ``reset()``, an output aliasing
    an arena buffer).  Raised by the runtime array sanitizer."""


class HardwareError(ReproError):
    """Unknown device or inconsistent device specification."""


class CalibrationError(ReproError):
    """Latency/accuracy calibration could not satisfy its paper anchors."""


class BenchmarkError(ReproError):
    """Benchmark harness failure (unknown experiment, invalid config)."""


class SerializationError(ReproError):
    """Checkpoint or annotation file could not be read/written."""


class FaultError(ReproError):
    """An injected (or real) runtime fault surfaced by a pipeline stage."""

