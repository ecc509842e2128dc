"""Table 1 reproduction: dataset summary.

Builds the full 30,711-record dataset index and tabulates per-category
annotated-image counts, asserting the paper's stated aggregates (mixed
9,169; adversarial 4,384; total 30,711).
"""

from __future__ import annotations

from ...dataset.builder import DatasetBuilder
from ...dataset.stats import paper_totals, table1_rows
from ...dataset.taxonomy import TABLE1_COUNTS
from ..runner import ExperimentResult


def run(seed: int = 7) -> ExperimentResult:
    """Build the full index and reproduce Table 1."""
    builder = DatasetBuilder(seed=seed, image_size=64)
    index = builder.build_full()
    rows = table1_rows(index)
    totals = paper_totals()
    counts = index.category_counts()

    total = len(index)
    mixed = counts["mixed/all"]
    adversarial = counts["adversarial/all"]

    claims = {
        "total is 30,711 annotated images": total == totals["total"],
        "mixed scenarios contribute 9,169": mixed == totals["mixed"],
        "adversarial contributes 4,384": adversarial ==
        totals["adversarial"],
        "all 12 sub-categories present": len(counts) ==
        len(TABLE1_COUNTS),
        "every stratum matches Table 1 exactly": counts == TABLE1_COUNTS,
    }
    table_rows = [list(r) for r in rows]
    table_rows.append(["Total", "", total])
    return ExperimentResult(
        experiment_id="table1",
        title="Table 1: Dataset Summary",
        headers=["Category", "Sub-Category", "# annotated images"],
        rows=table_rows,
        claims=claims,
        paper_reference={"total_images": float(totals["total"]),
                         "mixed_images": float(totals["mixed"]),
                         "adversarial_images":
                         float(totals["adversarial"])},
        measured={"total_images": float(total),
                  "mixed_images": float(mixed),
                  "adversarial_images": float(adversarial)},
    )
