"""Dynamic-batching inference serving on the injected clock.

The serving regime the paper's edge-cloud discussion implies — many
drone streams sharing one workstation GPU through a deadline-aware
dynamic micro-batcher — executed as a deterministic discrete-event
simulation.  See :mod:`repro.serving.cluster` for the one event loop
(one server is a one-replica pool; more replicas add failover routing
with retry/hedging, and the loop is checkpoint/restorable),
:mod:`repro.serving.batcher` for the batching policy,
:mod:`repro.serving.admission` for backpressure + SLO-burn shedding,
and :mod:`repro.serving.fleet` for cell-sharded, autoscaled fleets.
"""

from .request import Request, generate_arrivals
from .batcher import MicroBatcher
from .admission import AdmissionPolicy, serving_slo_policy
from .cluster import (ClusterConfig, ClusterReport, ClusterSimulator,
                      ReplicaSpec, RouterPolicy, default_chaos_faults)
from .fleet import (AutoscalePolicy, Autoscaler, FleetReport,
                    FleetSimConfig, FleetSimulator, cell_streams,
                    generate_fleet_arrivals, merge_cell_reports,
                    stream_cell)

__all__ = [
    "Request", "generate_arrivals",
    "MicroBatcher",
    "AdmissionPolicy", "serving_slo_policy",
    "ClusterConfig", "ClusterReport", "ClusterSimulator",
    "ReplicaSpec", "RouterPolicy", "default_chaos_faults",
    "AutoscalePolicy", "Autoscaler", "FleetReport", "FleetSimConfig",
    "FleetSimulator", "cell_streams", "generate_fleet_arrivals",
    "merge_cell_reports", "stream_cell",
]
