"""Admission policies: backpressure, deadline screening, SLO burn shedding.

Three lines of defence between the drone streams and the batcher
queues, applied at the door by
:class:`~repro.serving.cluster.ClusterSimulator`; the last two can be
switched off independently (the experiment's ablation axis):

* **backpressure** — a full bounded queue rejects unconditionally;
  admitting a request that cannot even be buffered just converts it
  into a guaranteed deadline violation later;
* **deadline screening** (``AdmissionPolicy.DEADLINE``, the cluster
  default) — a request whose *predicted* completion on the chosen
  replica (queue ahead of it + its batch's execution) already misses
  its deadline is shed at the door, Clipper / MArk style, keeping the
  queue's work feasible;
* **burn shedding** (``AdmissionPolicy.SLO``) — a
  :class:`repro.obs.slo.SloTracker` watches completed-request latency
  on the injected clock; while its fast+slow burn windows are both
  tripping, incoming requests are shed outright until the burn clears
  — the SRE-style emergency valve that needs no latency model at all.

``AdmissionPolicy.FULL`` stacks all three.
"""

from __future__ import annotations

import enum

from ..obs.slo import BurnWindow, SloObjective, SloPolicy


class AdmissionPolicy(enum.Enum):
    NONE = "none"            # bounded queue only
    DEADLINE = "deadline"    # + predictive deadline screening
    SLO = "slo"              # + burn-rate shedding (no prediction)
    FULL = "full"            # deadline screening + burn shedding


def serving_slo_policy(deadline_ms: float, target: float = 0.99,
                       fast_s: float = 1.0,
                       slow_s: float = 5.0) -> SloPolicy:
    """Burn-rate policy scaled to serving time constants.

    The SRE-book 5 s/60 s windows assume month-long budgets; a serving
    simulation lasts seconds, so the fast window watches ~1 s and the
    slow ~5 s.  Thresholds keep the standard shape: the fast window
    must burn an order of magnitude above provisioned rate and the slow
    window must confirm it.
    """
    return SloPolicy(
        objectives=(SloObjective("latency_e2e", target=target,
                                 threshold_ms=deadline_ms),),
        fast=BurnWindow(fast_s, 10.0),
        slow=BurnWindow(slow_s, 2.0))
