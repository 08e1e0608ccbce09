"""The FOCUS deviation framework (Ganti et al., PODS 1999) — §4's engine.

FOCUS quantifies the difference between two datasets *through the
models they induce*.  A model has a **structural component** (a set of
"interesting regions" — frequent itemsets for itemset models, cluster
regions for cluster models) and a **measure component** (the fraction
of the data mapped to each region).  Given two datasets and their
models, the framework:

1. extends both structural components to their **greatest common
   refinement** (GCR) — for itemset models the union of the two
   frequent sets; for cluster models the union of the two cluster
   region sets;
2. computes each dataset's measure over every region of the GCR —
   *this is the step whose cost depends on similarity*: a region native
   to one model has its measure stored, but measuring it on the *other*
   dataset requires scanning that dataset (the paper's Figure 10 spikes
   are exactly these scans);
3. aggregates the per-region measure differences (absolute difference,
   summed, normalized by region count) into the deviation
   ``δ_M(D1, D2) ∈ [0, 1]``-ish (0 = identical measures).
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from collections.abc import Sequence
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from repro.core.blocks import Block
from repro.itemsets.apriori import mine_blocks
from repro.itemsets.itemset import Itemset, Transaction
from repro.itemsets.model import FrequentItemsetModel
from repro.itemsets.prefix_tree import PrefixTree
from repro.storage.telemetry import Telemetry

if TYPE_CHECKING:
    from repro.clustering.model import ClusterModel


@dataclass
class DeviationResult:
    """One deviation computation, with its cost profile.

    Attributes:
        value: The deviation ``δ_M(D1, D2)`` (0 = identical measures).
        regions: Size of the greatest common refinement.
        scans: Dataset scans performed to fill in missing measures
            (0 when both models already cover the GCR — similar blocks;
            up to 2 when they diverge).
        missing_regions: Total GCR regions that had to be measured by
            scanning (absent from the other model's tracked set).  This
            is the per-comparison *work*: similar blocks have few,
            divergent blocks many — the Figure 10 spikes.
        seconds: Wall-clock for the computation.
    """

    value: float
    regions: int
    scans: int
    seconds: float
    missing_regions: int = 0


class DeviationFunction(ABC):
    """FOCUS instantiated for one class of models ``M``."""

    @property
    def telemetry(self) -> Telemetry:
        """Instrumentation spine (lazily created; sessions rebind it)."""
        existing: Telemetry | None = getattr(self, "_telemetry", None)
        if existing is None:
            existing = Telemetry()
            self._telemetry = existing
        return existing

    @telemetry.setter
    def telemetry(self, value: Telemetry) -> None:
        self._telemetry = value

    @abstractmethod
    def model(self, block: Block) -> object:
        """Induce this class's model from one block."""

    @abstractmethod
    def deviation(
        self, block_a: Block, model_a, block_b: Block, model_b
    ) -> DeviationResult:
        """``δ_M`` between two blocks through their models."""

    @abstractmethod
    def measures(self, regions, block: Block, model) -> np.ndarray:
        """Measure of every GCR region on one block.

        Exposed separately so bootstrap significance can re-measure
        fixed regions on resampled pseudo-blocks.
        """

    @abstractmethod
    def gcr(self, model_a, model_b):
        """The greatest common refinement of two structural components."""

    @staticmethod
    def aggregate(measures_a: np.ndarray, measures_b: np.ndarray) -> float:
        """Default difference/aggregation: mean absolute difference."""
        if len(measures_a) == 0:
            return 0.0
        return float(np.abs(measures_a - measures_b).mean())


class ItemsetDeviation(DeviationFunction):
    """FOCUS instantiated with frequent itemset models.

    Regions are frequent itemsets; a region's measure on a dataset is
    its support fraction there.  Measures missing from a model's
    tracked set (``L ∪ NB⁻``) are filled in by one prefix-tree scan of
    the corresponding block.

    Args:
        minsup: Threshold used to induce each block's model.
        max_size: Optional cap on mined itemset size (keeps the
            pattern-detection experiments fast).
    """

    def __init__(self, minsup: float = 0.01, max_size: int | None = None):
        self.minsup = minsup
        self.max_size = max_size

    def model(self, block: Block[Transaction]) -> FrequentItemsetModel:
        result = mine_blocks([block], self.minsup, max_size=self.max_size)
        return FrequentItemsetModel.from_mining_result(result, [block.block_id])

    def gcr(
        self, model_a: FrequentItemsetModel, model_b: FrequentItemsetModel
    ) -> list[Itemset]:
        return sorted(set(model_a.frequent) | set(model_b.frequent))

    def measures(
        self,
        regions: Sequence[Itemset],
        block: Block[Transaction],
        model: FrequentItemsetModel | None,
    ) -> np.ndarray:
        """Support fractions of ``regions`` on ``block``.

        Tracked regions read their stored counts; the rest are counted
        by scanning the block once.  ``model=None`` forces a full scan
        (used by the bootstrap, which has no model for pseudo-blocks).
        """
        total = len(block)
        if total == 0:
            return np.zeros(len(regions))
        tracked = model.tracked() if model is not None else {}
        missing = [region for region in regions if region not in tracked]
        scanned: dict[Itemset, int] = {}
        if missing:
            tree = PrefixTree(missing)
            tree.count_dataset(block.iter_records())
            scanned = tree.counts()
        values = [
            (tracked[region] if region in tracked else scanned.get(region, 0)) / total
            for region in regions
        ]
        return np.asarray(values)

    def deviation(
        self,
        block_a: Block[Transaction],
        model_a: FrequentItemsetModel,
        block_b: Block[Transaction],
        model_b: FrequentItemsetModel,
    ) -> DeviationResult:
        span = self.telemetry.phase("focus.deviation").start()
        regions = self.gcr(model_a, model_b)
        tracked_a = model_a.tracked()
        tracked_b = model_b.tracked()
        missing_a = sum(1 for region in regions if region not in tracked_a)
        missing_b = sum(1 for region in regions if region not in tracked_b)
        scans = int(missing_a > 0) + int(missing_b > 0)
        measures_a = self.measures(regions, block_a, model_a)
        measures_b = self.measures(regions, block_b, model_b)
        value = self.aggregate(measures_a, measures_b)
        self.telemetry.increment("focus.scans", scans)
        self.telemetry.increment("focus.missing_regions", missing_a + missing_b)
        return DeviationResult(
            value=value,
            regions=len(regions),
            scans=scans,
            seconds=span.stop(),
            missing_regions=missing_a + missing_b,
        )


class ClusterDeviation(DeviationFunction):
    """FOCUS instantiated with cluster models.

    Regions are cluster balls (centroid + radius, floored at a small
    epsilon so singleton clusters still capture their members); a
    region's measure on a dataset is the fraction of its points falling
    inside the ball.  Both datasets are scanned to measure the combined
    region set — matching the framework's "at most one scan of each
    dataset" bound.

    Args:
        k: Number of clusters induced per block.
        threshold: BIRCH phase-1 absorption threshold.
        radius_scale: Multiplier on each cluster's RMS radius when
            forming its region (2.0 covers ~95% of a Gaussian cluster).
    """

    def __init__(self, k: int = 5, threshold: float = 0.5, radius_scale: float = 2.0):
        self.k = k
        self.threshold = threshold
        self.radius_scale = radius_scale

    def model(self, block: Block) -> ClusterModel:
        from repro.clustering.birch import birch_cluster

        model, _tree, _timings = birch_cluster(
            block.iter_records(),
            k=self.k,
            threshold=self.threshold,
            block_ids=[block.block_id],
        )
        return model

    def gcr(
        self, model_a: ClusterModel, model_b: ClusterModel
    ) -> list[tuple[np.ndarray, float]]:
        regions: list[tuple[np.ndarray, float]] = []
        for model in (model_a, model_b):
            for cluster in model.clusters:
                radius = max(cluster.radius() * self.radius_scale, 1e-9)
                regions.append((cluster.centroid(), radius))
        return regions

    def measures(
        self,
        regions: Sequence[tuple[np.ndarray, float]],
        block: Block,
        model: ClusterModel | None,
    ) -> np.ndarray:
        points = block.as_array(float)
        if len(points) == 0:
            return np.zeros(len(regions))
        values = []
        for centroid, radius in regions:
            delta = points - centroid
            inside = (delta * delta).sum(axis=1) <= radius * radius
            values.append(float(inside.mean()))
        return np.asarray(values)

    def deviation(
        self,
        block_a: Block,
        model_a: ClusterModel,
        block_b: Block,
        model_b: ClusterModel,
    ) -> DeviationResult:
        span = self.telemetry.phase("focus.deviation").start()
        regions = self.gcr(model_a, model_b)
        measures_a = self.measures(regions, block_a, model_a)
        measures_b = self.measures(regions, block_b, model_b)
        value = self.aggregate(measures_a, measures_b)
        self.telemetry.increment("focus.scans", 2)
        return DeviationResult(
            value=value,
            regions=len(regions),
            scans=2,
            seconds=span.stop(),
        )
