"""The frequent-itemset model maintained by BORDERS.

The model is the pair ``(L(D, κ), NB⁻(D, κ))`` with absolute support
counts, together with the bookkeeping an incremental maintainer needs:
the number of transactions seen, the item universe observed, and the
identifiers of the blocks the model was extracted from (so a support
counter knows which blocks to touch when new candidates must be
counted).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.itemsets.apriori import MiningResult
from repro.itemsets.itemset import Itemset, minimum_count


@dataclass
class FrequentItemsetModel:
    """``L`` + ``NB⁻`` with counts over the selected blocks.

    Attributes:
        minsup: Minimum support threshold ``κ``.
        n_transactions: Number of transactions across selected blocks.
        frequent: ``L(D, κ)`` mapping itemset → absolute count.
        border: ``NB⁻(D, κ)`` mapping itemset → absolute count.
        items: Item universe observed in the selected blocks.
        selected_block_ids: Blocks the model is extracted from, in
            ascending order.
    """

    minsup: float
    n_transactions: int = 0
    frequent: dict[Itemset, int] = field(default_factory=dict)
    border: dict[Itemset, int] = field(default_factory=dict)
    items: set[int] = field(default_factory=set)
    selected_block_ids: list[int] = field(default_factory=list)

    @classmethod
    def from_mining_result(
        cls, result: MiningResult, block_ids: list[int]
    ) -> "FrequentItemsetModel":
        """Wrap an Apriori run output into a maintainable model."""
        items = {itemset[0] for itemset in result.frequent if len(itemset) == 1}
        items.update(itemset[0] for itemset in result.border if len(itemset) == 1)
        return cls(
            minsup=result.minsup,
            n_transactions=result.n_transactions,
            frequent=dict(result.frequent),
            border=dict(result.border),
            items=items,
            selected_block_ids=sorted(block_ids),
        )

    def __getstate__(self) -> dict[str, object]:
        """Canonical pickle state for byte-identical checkpoints.

        Set iteration order follows the hash-table layout its insertion
        history produced, and serial vs parallel maintenance insert into
        ``items`` in different orders — equal models would pickle to
        different bytes.  Rebuilding the set from its sorted elements
        makes the layout a function of the contents alone (the same
        reason ``selected_block_ids`` is kept sorted).
        """
        state = dict(self.__dict__)
        state["items"] = set(sorted(self.items))
        return state

    @property
    def min_count(self) -> int:
        """The absolute count threshold at the current dataset size."""
        if self.n_transactions == 0:
            return 1
        return minimum_count(self.minsup, self.n_transactions)

    def support(self, itemset: Itemset) -> float:
        """Support fraction of a tracked itemset (0.0 if untracked)."""
        count = self.frequent.get(itemset)
        if count is None:
            count = self.border.get(itemset, 0)
        if self.n_transactions == 0:
            return 0.0
        return count / self.n_transactions

    def is_frequent(self, itemset: Itemset) -> bool:
        """Whether the itemset is in ``L``."""
        return itemset in self.frequent

    def tracked(self) -> dict[Itemset, int]:
        """All tracked itemsets (``L ∪ NB⁻``) with their counts."""
        combined = dict(self.frequent)
        combined.update(self.border)
        return combined

    def frequent_of_size(self, size: int) -> dict[Itemset, int]:
        """The frequent itemsets with exactly ``size`` items."""
        return {x: c for x, c in self.frequent.items() if len(x) == size}

    def copy(self) -> "FrequentItemsetModel":
        """An independent deep copy (dict/set contents are immutable)."""
        return FrequentItemsetModel(
            minsup=self.minsup,
            n_transactions=self.n_transactions,
            frequent=dict(self.frequent),
            border=dict(self.border),
            items=set(self.items),
            selected_block_ids=list(self.selected_block_ids),
        )

    def raise_threshold(self, new_minsup: float) -> "FrequentItemsetModel":
        """Re-derive the model at a *higher* threshold ``κ' > κ``.

        Trivial per §3.1.1: ``L(D, κ') ⊆ L(D, κ)``, so it is a filter
        plus border recomputation from the already-known counts.  Newly
        demoted itemsets become border members when all their subsets
        stay frequent; old border members whose subsets got demoted are
        dropped (their counts are still known but they no longer satisfy
        the border condition).
        """
        if new_minsup < self.minsup:
            raise ValueError(
                "raise_threshold only supports increasing the threshold; "
                "use BordersMaintainer.lower_threshold for decreases"
            )
        new_model = FrequentItemsetModel(
            minsup=new_minsup,
            n_transactions=self.n_transactions,
            items=set(self.items),
            selected_block_ids=list(self.selected_block_ids),
        )
        threshold = minimum_count(new_minsup, self.n_transactions) if self.n_transactions else 1
        for itemset, count in self.frequent.items():
            if count >= threshold:
                new_model.frequent[itemset] = count
        from repro.itemsets.border import is_on_border

        frequent_set = set(new_model.frequent)
        for itemset, count in {**self.frequent, **self.border}.items():
            if itemset not in frequent_set and is_on_border(itemset, frequent_set):
                new_model.border[itemset] = count
        return new_model
