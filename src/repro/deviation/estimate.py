"""Sampled FOCUS-deviation estimation — the scheduler's cheap drift signal.

Full FOCUS deviation (:mod:`repro.deviation.focus`) induces a model per
block and measures the greatest common refinement on the *whole* block —
exactly the work a change-aware maintenance scheduler is trying to
avoid.  :class:`SampledDeviationEstimator` runs the same framework on a
small deterministic sample of each arriving block: induce a miniature
model over the sample (the block's **sketch**), refine it against the
sketch taken at the last full maintenance, and convert the per-region
measure differences into a significance via the χ² approximation from
:mod:`repro.deviation.significance`.

Cost model: one streaming pass over the block to draw the sample (no
materialization — DML015/DML019 discipline holds for any backend), then
mining/measuring over ``sample_size`` records only.  That keeps the
per-block estimate orders of magnitude below one full BORDERS/BIRCH+
maintenance, which ``benchmarks/bench_scheduler.py`` gates at < 10%.

Sampling is a fixed stride over the record stream, so the sketch of a
block is a pure function of its contents — estimates are byte-stable
across backends, worker counts, and kill/restore (sketches ride in the
scheduler's checkpoint state).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Sequence

import numpy as np

from repro.core.blocks import Block
from repro.deviation.focus import (
    ClusterDeviation,
    DeviationFunction,
    ItemsetDeviation,
)
from repro.deviation.significance import chi2_region_significance


@dataclass(frozen=True)
class BlockSketch:
    """A block's sampled stand-in: the sample and the model it induces.

    Attributes:
        block_id: Global identifier of the sketched block.
        sample: In-memory pseudo-block holding the sampled records
            (never routed through any backend — a sketch is scheduler
            state, not data).
        model: The miniature model induced over the sample, or ``None``
            for an empty block.
        n_records: Record count of the *original* block (kept so the
            sampling rate is reconstructable from a checkpoint).
    """

    block_id: int
    sample: Block[Any]
    model: Any
    n_records: int


@dataclass(frozen=True)
class DriftEstimate:
    """One reference-vs-arrival comparison of two sketches.

    Attributes:
        value: Estimated FOCUS deviation ``δ_M`` between the sketches
            (mean absolute per-region measure difference).
        significance: ``P`` that the measure differences are not noise,
            in ``[0, 1]`` — values near 1 mean the sampled blocks are
            almost surely drawn from different distributions.
        regions: Size of the sketches' greatest common refinement.
    """

    value: float
    significance: float
    regions: int


class SampledDeviationEstimator:
    """FOCUS deviation over fixed-size deterministic samples.

    Args:
        sample_size: Records drawn per block (stride-sampled; blocks
            smaller than this are taken whole).
        minsup: Support threshold for the sketch's itemset model.
            Deliberately coarser than a typical maintenance threshold —
            the sketch only needs the head of the distribution.
        max_size: Cap on mined itemset size for transaction data (the
            pairwise structure is where drift shows first).
        k: Clusters per sketch for numeric data.
    """

    kind = "sampled"

    def __init__(
        self,
        sample_size: int = 256,
        minsup: float = 0.05,
        max_size: int = 2,
        k: int = 4,
    ) -> None:
        if sample_size < 1:
            raise ValueError(f"sample_size must be >= 1, got {sample_size}")
        if not 0.0 < minsup <= 1.0:
            raise ValueError(f"minsup must be in (0, 1], got {minsup}")
        self.sample_size = sample_size
        self.minsup = minsup
        self.max_size = max_size
        self.k = k
        # Resolved from the first sampled record's shape (int-tuple
        # transactions -> itemset models, numeric rows -> cluster
        # models); re-derived lazily after a restore.  ``_unsupported``
        # latches when the records fit neither shape (e.g. labelled
        # points) — those streams get no drift signal and the
        # scheduler falls back to eager behavior.
        self._fn: DeviationFunction | None = None
        self._unsupported = False

    def spec(self) -> dict[str, Any]:
        """Constructor-shaped description (rides in scheduler specs)."""
        return {
            "kind": self.kind,
            "sample_size": self.sample_size,
            "minsup": self.minsup,
            "max_size": self.max_size,
            "k": self.k,
        }

    # ------------------------------------------------------------------
    # Sketching
    # ------------------------------------------------------------------

    def _sample(self, block: Block[Any]) -> tuple[Any, ...]:
        """Up to ``sample_size`` records at a fixed stride (one pass)."""
        total = block.num_records
        if total <= self.sample_size:
            return tuple(block.iter_records())
        stride = total / self.sample_size
        picks = {int(i * stride) for i in range(self.sample_size)}
        sampled: list[Any] = []
        for index, record in enumerate(block.iter_records()):
            if index in picks:
                sampled.append(record)
        return tuple(sampled)

    def _fn_for(self, records: Sequence[Any]) -> DeviationFunction | None:
        """The deviation function matching the data's shape (cached).

        Returns ``None`` when the records fit neither FOCUS model
        family — flat int tuples (transactions) or flat numeric rows
        (points).  Nested or mixed records (labelled points,
        arbitrary payloads) carry no sampled drift signal, and
        :meth:`estimate` conservatively reports certain drift so the
        scheduler maintains every block, exactly matching eager.
        """
        if self._fn is None and not self._unsupported:
            first = records[0]
            try:
                components = list(first)
            except TypeError:
                components = None
            if components is not None and all(
                isinstance(value, (int, np.integer)) for value in components
            ):
                self._fn = ItemsetDeviation(
                    minsup=self.minsup, max_size=self.max_size
                )
            elif components is not None and all(
                isinstance(value, (int, float, np.integer, np.floating))
                for value in components
            ):
                self._fn = ClusterDeviation(k=self.k)
            else:
                self._unsupported = True
        return self._fn

    def sketch(self, block: Block[Any]) -> BlockSketch:
        """Sample ``block`` and induce its miniature model."""
        sampled = self._sample(block)
        pseudo: Block[Any] = Block(
            block.block_id, tuples=sampled, label=block.label
        )
        fn = self._fn_for(sampled) if len(sampled) > 0 else None
        model = fn.model(pseudo) if fn is not None else None
        return BlockSketch(
            block_id=block.block_id,
            sample=pseudo,
            model=model,
            n_records=block.num_records,
        )

    # ------------------------------------------------------------------
    # Estimation
    # ------------------------------------------------------------------

    def estimate(
        self, reference: BlockSketch, arrived: BlockSketch
    ) -> DriftEstimate:
        """Estimated deviation and significance between two sketches."""
        ref_records = tuple(reference.sample.iter_records())
        arr_records = tuple(arrived.sample.iter_records())
        for records in (ref_records, arr_records):
            if len(records) > 0 and self._fn_for(records) is None:
                # Records FOCUS cannot model: no drift signal exists,
                # so report certain drift — the scheduler maintains
                # every block and the session behaves exactly eagerly.
                return DriftEstimate(value=1.0, significance=1.0, regions=0)
        if reference.model is None or arrived.model is None:
            if (reference.model is None) != (arrived.model is None):
                # One side empty, the other not: maximal drift.
                return DriftEstimate(value=1.0, significance=1.0, regions=0)
            return DriftEstimate(value=0.0, significance=0.0, regions=0)
        fn = self._fn_for(ref_records)
        assert fn is not None  # both models exist, so the shape resolved
        regions = fn.gcr(reference.model, arrived.model)
        measures_a = fn.measures(regions, reference.sample, reference.model)
        measures_b = fn.measures(regions, arrived.sample, arrived.model)
        value = fn.aggregate(measures_a, measures_b)
        total_a = len(reference.sample)
        total_b = len(arrived.sample)
        significance = chi2_region_significance(
            np.round(measures_a * total_a).astype(int),
            total_a,
            np.round(measures_b * total_b).astype(int),
            total_b,
        )
        return DriftEstimate(
            value=value, significance=significance, regions=len(regions)
        )


def estimator_from_spec(spec: dict[str, Any]) -> SampledDeviationEstimator:
    """Rebuild an estimator from :meth:`SampledDeviationEstimator.spec`."""
    kind = spec.get("kind")
    if kind != SampledDeviationEstimator.kind:
        raise ValueError(f"unknown estimator spec kind {kind!r}")
    return SampledDeviationEstimator(
        sample_size=int(spec["sample_size"]),
        minsup=float(spec["minsup"]),
        max_size=int(spec["max_size"]),
        k=int(spec["k"]),
    )
