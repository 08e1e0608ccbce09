"""Statistical significance of a deviation value (§4, Definition 4.1).

The significance of ``δ_M(D1, D2)`` is, informally, the probability
that a deviation this large would arise if both blocks were drawn from
the same underlying generating process.  We estimate it by a
**permutation bootstrap**: pool the two blocks' tuples, repeatedly
resplit the pool at random into pseudo-blocks of the original sizes,
re-measure the *fixed* GCR regions on each pseudo-pair, and report the
fraction of resampled deviations that fall below the observed one.  A
significance of 0.99 means the observed deviation exceeds 99% of the
same-process resamples — the blocks are almost surely different.

A cheap χ²-based approximation is also provided for callers that need
many pairwise significances (the compact-sequence miner over dozens of
blocks) without the bootstrap's repeated scans.
"""

from __future__ import annotations

import random
from collections.abc import Sequence

import numpy as np

from repro.core.blocks import Block, make_block
from repro.deviation.focus import DeviationFunction


def bootstrap_significance(
    deviation_fn: DeviationFunction,
    block_a: Block,
    block_b: Block,
    model_a,
    model_b,
    observed: float | None = None,
    resamples: int = 30,
    seed: int = 0,
) -> float:
    """Permutation-bootstrap significance of the observed deviation.

    Args:
        deviation_fn: The FOCUS instantiation in use.
        block_a: First block.
        block_b: Second block.
        model_a: Model induced from ``block_a``.
        model_b: Model induced from ``block_b``.
        observed: The observed deviation; recomputed when omitted.
        resamples: Number of pooled resplits.
        seed: RNG seed (results are deterministic given it).

    Returns:
        The fraction of resampled deviations strictly below the
        observed one, in ``[0, 1]``.
    """
    if resamples < 1:
        raise ValueError(f"resamples must be >= 1, got {resamples}")
    if observed is None:
        observed = deviation_fn.deviation(block_a, model_a, block_b, model_b).value
    regions = deviation_fn.gcr(model_a, model_b)
    pool = list(block_a.iter_records()) + list(block_b.iter_records())
    size_a = len(block_a)
    rng = random.Random(seed)

    below = 0
    for _ in range(resamples):
        rng.shuffle(pool)
        pseudo_a = make_block(1, pool[:size_a])
        pseudo_b = make_block(2, pool[size_a:])
        measures_a = deviation_fn.measures(regions, pseudo_a, None)
        measures_b = deviation_fn.measures(regions, pseudo_b, None)
        if deviation_fn.aggregate(measures_a, measures_b) < observed:
            below += 1
    return below / resamples


def chi2_region_significance(
    counts_a: Sequence[int],
    total_a: int,
    counts_b: Sequence[int],
    total_b: int,
) -> float:
    """χ² approximation of the deviation significance from region counts.

    Treats each GCR region as an independent 2×2 contingency table
    (region present / absent × block A / block B), sums the χ²
    statistics, and converts through the χ² CDF with one degree of
    freedom per region.  Regions of itemset models overlap, so this is
    a heuristic upper bound on significance — adequate for ranking
    pairwise similarities, which is all the compact-sequence miner
    needs — and orders of magnitude cheaper than the bootstrap.

    Returns:
        ``P(χ²_df <= statistic)`` in ``[0, 1]``; values near 1 mean the
        blocks are almost surely different.
    """
    # scipy.stats.chi2.cdf evaluates chdtr; importing scipy.stats too
    # would cost a scheduled session's first estimate about a second.
    from scipy.special import chdtr

    counts_a = np.asarray(counts_a, dtype=float)
    counts_b = np.asarray(counts_b, dtype=float)
    if len(counts_a) != len(counts_b):
        raise ValueError("region count vectors must align")
    if len(counts_a) == 0 or total_a <= 0 or total_b <= 0:
        return 0.0
    statistic = 0.0
    for na, nb in zip(counts_a, counts_b):
        pooled = (na + nb) / (total_a + total_b)
        if pooled <= 0 or pooled >= 1:
            continue
        expected_a = total_a * pooled
        expected_b = total_b * pooled
        variance_a = expected_a * (1 - pooled)
        variance_b = expected_b * (1 - pooled)
        statistic += (na - expected_a) ** 2 / max(variance_a, 1e-12)
        statistic += (nb - expected_b) ** 2 / max(variance_b, 1e-12)
    df = len(counts_a)
    return float(chdtr(df, statistic))
