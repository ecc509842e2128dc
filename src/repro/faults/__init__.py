"""Fault injection + graceful degradation for the VIP pipeline.

Everything a chaos run needs: fault specs (:mod:`.spec`), a seeded
injector (:mod:`.injector`), named scenarios (:mod:`.scenarios`), the
guarded stage executor and its resilience policy (:mod:`.guard`), the
NOMINAL → DEGRADED → SAFE_STOP health monitor (:mod:`.health`) and
cross-run resilience metrics (:mod:`.metrics`).
"""

from .guard import (AdaptiveEnvelope, ResilienceConfig, StageExecutor,
                    StageOutcome, StageStatus)
from .health import HealthConfig, HealthMonitor, HealthState
from .injector import (CORRUPTION_TAG, DROPOUT_TAG, FaultInjector,
                       corruption_severity_from_tags)
from .metrics import GUIDANCE_KINDS, missed_alert_rate
from .scenarios import (SCENARIOS, scenario, scenario_description,
                        scenario_names)
from .server import ServerFaultStream
from .spec import SERVER_KINDS, STAGES, FaultKind, FaultSpec

__all__ = [
    "FaultKind", "FaultSpec", "STAGES", "SERVER_KINDS",
    "FaultInjector", "CORRUPTION_TAG", "DROPOUT_TAG",
    "corruption_severity_from_tags",
    "ServerFaultStream",
    "SCENARIOS", "scenario", "scenario_description", "scenario_names",
    "AdaptiveEnvelope", "ResilienceConfig", "StageExecutor",
    "StageOutcome", "StageStatus",
    "HealthConfig", "HealthMonitor", "HealthState",
    "GUIDANCE_KINDS", "missed_alert_rate",
]
