"""Experiment runner: executes registered experiments, formats reports.

Every table/figure reproduction is an *experiment*: a callable returning
an :class:`ExperimentResult` with the same rows/series the paper prints,
a set of qualitative claims checked against the output (orderings,
bounds, crossovers), and the paper-reported reference values for the
EXPERIMENTS.md paper-vs-measured record.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence

from ..errors import BenchmarkError
from ..io.report import markdown_table
from ..obs import Tracer, current_tracer, use_tracer


@dataclass
class ExperimentResult:
    """Output of one experiment run."""

    experiment_id: str               # e.g. "table1", "fig5"
    title: str
    headers: Sequence[str]
    rows: List[Sequence]             # the table/figure data
    claims: Dict[str, bool] = field(default_factory=dict)
    paper_reference: Dict[str, float] = field(default_factory=dict)
    measured: Dict[str, float] = field(default_factory=dict)
    elapsed_s: float = 0.0
    #: Metrics snapshot from the run's tracer (empty when tracing off).
    #: Deliberately excluded from :meth:`to_markdown` so rendered
    #: reports stay byte-identical run to run (the golden contract).
    metrics: Dict[str, dict] = field(default_factory=dict)

    @property
    def all_claims_hold(self) -> bool:
        return all(self.claims.values())

    def failed_claims(self) -> List[str]:
        return [name for name, ok in self.claims.items() if not ok]

    def to_markdown(self, digits: int = 2) -> str:
        """Render the experiment as a markdown block."""
        lines = [f"### {self.title} ({self.experiment_id})", ""]
        lines.append(markdown_table(self.headers, self.rows,
                                    digits=digits))
        if self.claims:
            lines.append("")
            lines.append("Paper claims checked:")
            for name, ok in self.claims.items():
                lines.append(f"- [{'x' if ok else ' '}] {name}")
        if self.paper_reference:
            lines.append("")
            lines.append("| quantity | paper | measured |")
            lines.append("|---|---|---|")
            for key, ref in self.paper_reference.items():
                meas = self.measured.get(key)
                meas_s = f"{meas:.2f}" if meas is not None else "-"
                lines.append(f"| {key} | {ref:.2f} | {meas_s} |")
        return "\n".join(lines)

    def require_claims(self) -> "ExperimentResult":
        """Raise if any checked paper claim failed (used by tests)."""
        failed = self.failed_claims()
        if failed:
            raise BenchmarkError(
                f"{self.experiment_id}: paper claims failed: {failed}")
        return self


ExperimentFn = Callable[..., ExperimentResult]


class ExperimentRunner:
    """Runs experiments by id with timing and claim enforcement.

    Every run executes inside a root span on the runner's tracer (the
    ambient one unless ``tracer`` is given), so instrumented code deeper
    in the stack — the VIP pipeline, the stage guard, the parallel
    fan-out — lands under one tree per experiment.  The tracer's
    metrics snapshot is attached to the returned result.
    """

    def __init__(self, experiments: Dict[str, ExperimentFn],
                 tracer: Optional[Tracer] = None) -> None:
        if not experiments:
            raise BenchmarkError("no experiments registered")
        self.experiments = dict(experiments)
        self._tracer = tracer

    def run(self, experiment_id: str, *, enforce_claims: bool = True,
            **kwargs) -> ExperimentResult:
        try:
            fn = self.experiments[experiment_id]
        except KeyError:
            raise BenchmarkError(
                f"unknown experiment {experiment_id!r}; known: "
                f"{sorted(self.experiments)}") from None
        tracer = self._tracer if self._tracer is not None \
            else current_tracer()
        with use_tracer(tracer), \
                tracer.span(f"experiment:{experiment_id}",
                            experiment=experiment_id) as root:
            # reprolint: disable=RL001 elapsed_s is wall-time metadata
            start = time.perf_counter()
            result = fn(**kwargs)
            # reprolint: disable=RL001 never part of golden output
            result.elapsed_s = time.perf_counter() - start
            root.set_attr("elapsed_s", result.elapsed_s)
            root.set_attr("claims_hold", result.all_claims_hold)
        result.metrics = tracer.metrics.snapshot()
        if enforce_claims:
            result.require_claims()
        return result

    def run_all(self, ids: Optional[Sequence[str]] = None,
                **kwargs) -> List[ExperimentResult]:
        selected = list(ids) if ids is not None \
            else sorted(self.experiments)
        return [self.run(eid, **kwargs) for eid in selected]
