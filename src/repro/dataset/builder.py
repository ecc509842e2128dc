"""Lazy full-dataset index with exact Table 1 counts.

The full Ocularone dataset has 30,711 images.  Materialising all of them
as arrays is wasteful (and unnecessary: the renderer is deterministic),
so :class:`DatasetBuilder` creates a :class:`DatasetIndex` — a list of
:class:`ImageRecord` entries, one per image, each carrying everything
needed to render that image on demand (sub-category + per-image seed).

The index reproduces Table 1 *exactly*: each sub-category contributes its
paper count of records.  Training/evaluation code renders only the
records it actually touches (the paper itself benchmarks latency on a
~1k-image subset, §4.2).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterator, List, Sequence

from ..errors import DatasetError
from ..rng import make_rng
from .annotations import AnnotatedImage, annotate_frame
from .renderer import RenderedFrame, SceneRenderer
from .scene import sample_scene
from .taxonomy import (SubCategory, TAXONOMY, TABLE1_COUNTS, TOTAL_IMAGES,
                       subcategory_by_key)


@dataclass(frozen=True)
class ImageRecord:
    """One dataset image: identity + provenance, no pixels."""

    image_id: str             # e.g. "footpath/no_pedestrians/000137"
    subcategory_key: str
    index_in_category: int
    seed: int                 # root seed of the dataset build

    def render(self, renderer: SceneRenderer) -> RenderedFrame:
        """Materialise this record's frame (deterministic)."""
        sub = subcategory_by_key(self.subcategory_key)
        rng = make_rng(self.seed, "dataset", self.subcategory_key,
                       self.index_in_category)
        spec = sample_scene(sub, rng)
        return renderer.render(spec, rng)

    def annotate(self, renderer: SceneRenderer) -> AnnotatedImage:
        """Materialise and annotate (Roboflow-style record)."""
        return annotate_frame(self.image_id, self.render(renderer))


class DatasetIndex:
    """An ordered collection of image records with category lookups."""

    def __init__(self, records: Sequence[ImageRecord]) -> None:
        if not records:
            raise DatasetError("dataset index cannot be empty")
        self._records: List[ImageRecord] = list(records)
        self._by_cat: Dict[str, List[ImageRecord]] = {}
        for rec in self._records:
            self._by_cat.setdefault(rec.subcategory_key, []).append(rec)

    def __len__(self) -> int:
        return len(self._records)

    def __iter__(self) -> Iterator[ImageRecord]:
        return iter(self._records)

    def __getitem__(self, i: int) -> ImageRecord:
        return self._records[i]

    @property
    def records(self) -> List[ImageRecord]:
        return list(self._records)

    def category_counts(self) -> Dict[str, int]:
        """Images per sub-category (Table 1 reproduction)."""
        return {k: len(v) for k, v in self._by_cat.items()}

    def by_category(self, key: str) -> List[ImageRecord]:
        try:
            return list(self._by_cat[key])
        except KeyError:
            raise DatasetError(f"no records for category {key!r}") from None

    def subset(self, indices: Sequence[int]) -> "DatasetIndex":
        """Index subset preserving order (used by samplers/splits)."""
        recs = [self._records[i] for i in indices]
        return DatasetIndex(recs)

    def without(self, other: "DatasetIndex") -> "DatasetIndex":
        """Records not present in ``other`` (set difference by id).

        The paper trains on ≈3.8k sampled images and evaluates on "the
        remaining images" — this implements that complement.
        """
        taken = {r.image_id for r in other}
        kept = [r for r in self._records if r.image_id not in taken]
        if not kept:
            raise DatasetError("complement is empty")
        return DatasetIndex(kept)


class DatasetBuilder:
    """Builds dataset indices at paper scale or scaled down for tests."""

    def __init__(self, seed: int = 7, image_size: int = 64) -> None:
        self.seed = seed
        self.renderer = SceneRenderer(image_size)

    def build_full(self) -> DatasetIndex:
        """The full 30,711-record index with exact Table 1 counts."""
        return self.build_scaled(1.0)

    def build_scaled(self, fraction: float,
                     min_per_category: int = 2) -> DatasetIndex:
        """A proportionally scaled index (same strata, fewer images).

        ``fraction=1.0`` reproduces Table 1 exactly.  Smaller fractions
        keep every stratum non-empty so the sampling protocol still works
        at test scale.
        """
        if not 0.0 < fraction <= 1.0:
            raise DatasetError(f"fraction must be in (0, 1], got {fraction}")
        records: List[ImageRecord] = []
        for sub in TAXONOMY:
            n = max(min_per_category, int(round(sub.count * fraction)))
            n = min(n, sub.count)
            records.extend(self._records_for(sub, n))
        return DatasetIndex(records)

    def build_counts(self, counts: Dict[str, int]) -> DatasetIndex:
        """An index with explicit per-category counts (ablations)."""
        records: List[ImageRecord] = []
        for key, n in counts.items():
            sub = subcategory_by_key(key)
            if n <= 0:
                raise DatasetError(f"count for {key} must be positive")
            records.extend(self._records_for(sub, n))
        return DatasetIndex(records)

    def _records_for(self, sub: SubCategory, n: int) -> List[ImageRecord]:
        return [
            ImageRecord(
                image_id=f"{sub.key}/{i:06d}",
                subcategory_key=sub.key,
                index_in_category=i,
                seed=self.seed,
            )
            for i in range(n)
        ]

    # -- materialisation helpers ------------------------------------------

    def render_records(self, records: Sequence[ImageRecord]
                       ) -> List[RenderedFrame]:
        """Render a batch of records (order preserved)."""
        return [rec.render(self.renderer) for rec in records]

    def render_records_parallel(self, records: Sequence[ImageRecord],
                                workers: int = None
                                ) -> List[RenderedFrame]:
        """Render a batch over a process pool (order preserved).

        Rendering is embarrassingly parallel and Python-heavy (raster
        masks), so processes beat threads; each record carries its own
        deterministic seed, so the result is bitwise identical to the
        serial path regardless of scheduling.
        """
        from ..bench.parallel import parallel_map
        size = self.renderer.image_size
        return parallel_map(_render_one,
                            [(rec, size) for rec in records],
                            workers=workers)

    def verify_full_counts(self) -> bool:
        """Sanity check: full index counts equal Table 1 (sum 30,711)."""
        idx = self.build_full()
        counts = idx.category_counts()
        if counts != TABLE1_COUNTS:
            raise DatasetError(
                f"index counts {counts} differ from Table 1")
        if len(idx) != TOTAL_IMAGES:
            raise DatasetError(
                f"index size {len(idx)} != {TOTAL_IMAGES}")
        return True


def _render_one(args: "Tuple[ImageRecord, int]") -> RenderedFrame:
    """Process-pool worker: render one record at the given image size.

    Module-level (picklable); builds its own renderer because renderer
    instances don't cross process boundaries.
    """
    record, image_size = args
    return record.render(SceneRenderer(image_size))
