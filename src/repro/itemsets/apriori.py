"""Apriori (Agrawal & Srikant 1994) with negative-border tracking.

This is the from-scratch miner that bootstraps the BORDERS maintainer:
one run over the initial data yields both the set of frequent itemsets
``L(D, κ)`` *and* the negative border ``NB⁻(D, κ)`` — the infrequent
itemsets all of whose proper subsets are frequent.  Apriori enumerates
the border for free: its level-``k`` candidates are exactly the
itemsets whose ``(k-1)``-subsets are all frequent, so the candidates
that fail the support test at each level are the border members.

:func:`mine_transactions`, the reference that tests compare against,
counts each level by a prefix-tree scan; ``BordersMaintainer.build``
counts on the blocks' TID-lists.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Callable, Iterable, Mapping
from dataclasses import dataclass, field

from repro.itemsets.itemset import (
    Itemset,
    Transaction,
    generate_candidates,
    minimum_count,
)
from repro.itemsets.prefix_tree import count_supports


@dataclass
class MiningResult:
    """Output of one Apriori run.

    Attributes:
        frequent: ``L(D, κ)`` with absolute support counts.
        border: ``NB⁻(D, κ)`` with absolute support counts.
        n_transactions: ``|D|``, the denominator for support fractions.
        minsup: The minimum support threshold ``κ`` used.
        passes: Number of dataset scans performed (one per level).
    """

    frequent: dict[Itemset, int] = field(default_factory=dict)
    border: dict[Itemset, int] = field(default_factory=dict)
    n_transactions: int = 0
    minsup: float = 0.0
    passes: int = 0

    def support(self, itemset: Itemset) -> float:
        """Support fraction of a tracked itemset (0.0 if untracked)."""
        count = self.frequent.get(itemset)
        if count is None:
            count = self.border.get(itemset, 0)
        if self.n_transactions == 0:
            return 0.0
        return count / self.n_transactions

    def frequent_of_size(self, size: int) -> dict[Itemset, int]:
        """The frequent itemsets with exactly ``size`` items."""
        return {x: c for x, c in self.frequent.items() if len(x) == size}


def apriori(
    item_counts: Mapping[int, int],
    n_transactions: int,
    minsup: float,
    count_level: Callable[[set[Itemset]], Mapping[Itemset, int]],
    max_size: int | None = None,
) -> MiningResult:
    """Mine frequent itemsets and the negative border, level by level.

    Args:
        item_counts: Support count of every item in the dataset.
        n_transactions: ``|D|``.
        minsup: Minimum support threshold ``κ`` in ``(0, 1)``.
        count_level: Counts one level's candidates over the dataset.
        max_size: Optional cap on itemset size (mainly for tests).

    Returns:
        A :class:`MiningResult`; ``passes`` counts the item level too.
    """
    result = MiningResult(n_transactions=n_transactions, minsup=minsup, passes=1)
    if n_transactions == 0:
        return result
    mincount = minimum_count(minsup, n_transactions)

    counted: Mapping[Itemset, int] = {(item,): c for item, c in item_counts.items()}
    while True:
        current_level: dict[Itemset, int] = {}
        for itemset, count in counted.items():
            if count >= mincount:
                current_level[itemset] = count
                result.frequent[itemset] = count
            else:
                result.border[itemset] = count
        if not current_level or (max_size is not None and result.passes >= max_size):
            break
        candidates = generate_candidates(current_level.keys())
        if not candidates:
            break
        counted = count_level(candidates)
        result.passes += 1
    return result


def mine_transactions(
    transactions_factory: Callable[[], Iterable[Transaction]],
    minsup: float,
    max_size: int | None = None,
) -> MiningResult:
    """The reference miner: Apriori by scans through a prefix tree.

    Args:
        transactions_factory: Zero-argument callable returning a fresh
            iterable of canonical transactions; it is invoked once per
            level (Apriori is a multi-pass algorithm, and the dataset
            may live in a metered :class:`~repro.storage.BlockStore`).
        minsup: Minimum support threshold ``κ`` in ``(0, 1)``.
        max_size: Optional cap on itemset size (mainly for tests).
    """
    item_counts: Counter[int] = Counter()
    total = 0
    for total, transaction in enumerate(transactions_factory(), 1):
        item_counts.update(transaction)
    return apriori(
        item_counts,
        total,
        minsup,
        lambda candidates: count_supports(candidates, transactions_factory()),
        max_size=max_size,
    )


def mine_blocks(blocks, minsup: float, max_size: int | None = None) -> MiningResult:
    """Apriori over a list of :class:`~repro.core.blocks.Block` objects."""
    block_list = list(blocks)

    def factory():
        for block in block_list:
            yield from block.iter_records()

    return mine_transactions(factory, minsup, max_size=max_size)
