"""Training-set curation and splits (paper §3.1 protocol).

The paper's protocol:

* "randomly sample ≈10 % images from each of the scene category and use a
  total of 3,866 images from 12 different categories as training data" —
  a **stratified** sample over the taxonomy;
* "the remaining images are set aside for testing";
* "training data is further split into an 80:20 ratio, with 20 % serving
  as the validation dataset".

Fig. 1 additionally contrasts a *1k random* training set with the *3.8k
curated* (stratified) one; :func:`random_sample` implements the former.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Tuple

from ..errors import DatasetError
from ..rng import coerce_rng
from .builder import DatasetIndex
from .taxonomy import Category, subcategory_by_key


#: The paper reports "≈10 %" sampled per category but a total of 3,866
#: from 30,711 — i.e. 12.59 %.  This fraction makes the per-stratum
#: rounded sample sizes sum to exactly 3,866.
PAPER_SAMPLE_FRACTION = 0.125863


@dataclass(frozen=True)
class SplitSpec:
    """The train/val/test partition of a dataset index."""

    train: DatasetIndex
    val: DatasetIndex
    test: DatasetIndex

    def sizes(self) -> Tuple[int, int, int]:
        return len(self.train), len(self.val), len(self.test)


def stratified_sample(index: DatasetIndex, fraction: float,
                      rng=None) -> DatasetIndex:
    """Sample ``fraction`` of each sub-category uniformly at random.

    This is the paper's *curated* sampling: every stratum (including
    adversarial) is represented proportionally, which is what lifts
    precision from 93 % to 99.5 % in Fig. 1.
    """
    if not 0.0 < fraction <= 1.0:
        raise DatasetError(f"fraction must be in (0, 1], got {fraction}")
    gen = coerce_rng(rng, "sampling", "stratified")
    chosen = []
    counts = index.category_counts()
    offsets: Dict[str, int] = {}
    # Build a flat position map once (index order groups categories).
    positions: Dict[str, list] = {}
    for pos, rec in enumerate(index):
        positions.setdefault(rec.subcategory_key, []).append(pos)
    for key in counts:
        pos_list = positions[key]
        k = max(1, int(round(len(pos_list) * fraction)))
        pick = gen.choice(len(pos_list), size=k, replace=False)
        chosen.extend(pos_list[int(i)] for i in pick)
    chosen.sort()
    return index.subset(chosen)


def random_sample(index: DatasetIndex, n: int, rng=None) -> DatasetIndex:
    """Uniform sample of ``n`` images ignoring strata (Fig. 1 baseline).

    Random sampling over-represents the large 'mixed' stratum and
    under-represents adversarial frames, which is why models trained this
    way generalise worse.
    """
    if not 0 < n <= len(index):
        raise DatasetError(
            f"cannot sample {n} from index of {len(index)}")
    gen = coerce_rng(rng, "sampling", "random")
    pick = gen.choice(len(index), size=n, replace=False)
    return index.subset(sorted(int(i) for i in pick))


def train_val_split(index: DatasetIndex, val_fraction: float = 0.2,
                    rng=None) -> Tuple[DatasetIndex, DatasetIndex]:
    """The 80:20 train/validation split of §3.1."""
    if not 0.0 < val_fraction < 1.0:
        raise DatasetError(
            f"val_fraction must be in (0, 1), got {val_fraction}")
    gen = coerce_rng(rng, "sampling", "val-split")
    n = len(index)
    n_val = max(1, int(round(n * val_fraction)))
    if n_val >= n:
        raise DatasetError(
            f"validation split {n_val} leaves no training data (n={n})")
    perm = gen.permutation(n)
    val_idx = sorted(int(i) for i in perm[:n_val])
    train_idx = sorted(int(i) for i in perm[n_val:])
    return index.subset(train_idx), index.subset(val_idx)


def paper_protocol_split(index: DatasetIndex,
                         sample_fraction: float = PAPER_SAMPLE_FRACTION,
                         val_fraction: float = 0.2,
                         rng=None) -> SplitSpec:
    """The full §3.1 protocol: stratified 10 % → 80:20 → rest is test.

    At paper scale this yields ≈3,866 training+validation images and the
    remaining ≈26.8k for testing (the paper evaluates on 23,543 diverse +
    3,805 adversarial test images).
    """
    gen = coerce_rng(rng, "sampling", "protocol")
    sampled = stratified_sample(index, sample_fraction, gen)
    test = index.without(sampled)
    train, val = train_val_split(sampled, val_fraction, gen)
    return SplitSpec(train=train, val=val, test=test)


def split_test_by_difficulty(test: DatasetIndex
                             ) -> Tuple[DatasetIndex, DatasetIndex]:
    """Partition the test set into diverse vs adversarial subsets.

    The paper evaluates these separately: 23,543 diverse images (Fig. 3)
    and 3,805 adversarial images (Fig. 4).
    """
    diverse, adversarial = [], []
    for pos, rec in enumerate(test):
        sub = subcategory_by_key(rec.subcategory_key)
        if sub.category is Category.ADVERSARIAL:
            adversarial.append(pos)
        else:
            diverse.append(pos)
    if not diverse or not adversarial:
        raise DatasetError(
            "test set must contain both diverse and adversarial images")
    return test.subset(diverse), test.subset(adversarial)
