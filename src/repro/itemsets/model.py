"""The frequent-itemset model maintained by BORDERS.

The model is the pair ``(L(D, κ), NB⁻(D, κ))`` with absolute support
counts, together with the bookkeeping an incremental maintainer needs:
the number of transactions seen, the item universe observed, and the
identifiers of the blocks the model was extracted from (so a support
counter knows which blocks to touch when new candidates must be
counted).

The tracked ``k``-itemsets are one :class:`Level`: an ``(n_k, k)`` item
matrix (:mod:`repro.itemsets.rows`) in lexicographic row order, aligned
counts, and a mask of the rows in ``L``.  Level arrays are read-only
and replaced, never written, so a clone shares them, and their order is
a function of the contents (serial and pooled checkpoints pickle to the
same bytes).  ``frequent`` and ``border`` read them as fresh dicts.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping
from typing import Any, NamedTuple

import numpy as np

from repro.itemsets.apriori import MiningResult
from repro.itemsets.itemset import Itemset, minimum_count
from repro.itemsets.rows import item_matrix, lexsorted, subsets_in


class Level(NamedTuple):
    """The tracked itemsets of one size, as aligned read-only arrays."""

    rows: np.ndarray
    counts: np.ndarray
    frequent: np.ndarray


def _narrow(values: np.ndarray) -> np.ndarray:
    low, high = (np.min_scalar_type(int(v)) for v in (values.min(), values.max()))
    return values.astype(np.promote_types(low, high))


class FrequentItemsetModel:
    """``L`` + ``NB⁻`` with counts over the selected blocks.

    Attributes:
        minsup: Minimum support threshold ``κ``.
        n_transactions: Number of transactions across selected blocks.
        levels: Size ``k`` → the tracked ``k``-itemsets (no empty level).
        items: Item universe observed in the selected blocks.
        selected_block_ids: Blocks the model is extracted from, in
            ascending order.
    """

    def __init__(
        self,
        minsup: float,
        n_transactions: int = 0,
        frequent: Mapping[Itemset, int] | None = None,
        border: Mapping[Itemset, int] | None = None,
        items: Iterable[int] = (),
        selected_block_ids: Iterable[int] = (),
    ):
        self.minsup = minsup
        self.n_transactions = n_transactions
        self.items = set(items)
        self.selected_block_ids = list(selected_block_ids)
        self.levels: dict[int, Level] = {}
        self.assign(frequent or {}, border or {})

    @classmethod
    def from_mining_result(
        cls, result: MiningResult, block_ids: list[int]
    ) -> "FrequentItemsetModel":
        """Wrap an Apriori run output into a maintainable model."""
        items = (x[0] for x in (*result.frequent, *result.border) if len(x) == 1)
        return cls(
            result.minsup, result.n_transactions, result.frequent, result.border,
            items, sorted(block_ids),
        )

    def assign(
        self, frequent: Mapping[Itemset, int], border: Mapping[Itemset, int]
    ) -> None:
        """Replace ``L`` and ``NB⁻`` by the given tables."""
        members: dict[int, list[tuple[Itemset, int, bool]]] = {}
        for in_l, table in ((True, frequent), (False, border)):
            for itemset, count in table.items():
                members.setdefault(len(itemset), []).append((itemset, count, in_l))
        self.levels = {}
        for k, group in members.items():
            itemsets, counts, flags = zip(*group)
            rows = item_matrix(itemsets, k)
            self.add_rows(k, rows, np.array(counts, dtype=np.int64), np.array(flags))

    def add_rows(
        self, k: int, rows: np.ndarray, counts: np.ndarray, frequent: np.ndarray
    ) -> None:
        """Insert untracked ``k``-itemsets, keeping level ``k`` lexsorted."""
        if k in self.levels:
            pairs = zip(self.levels[k], (rows, counts, frequent))
            rows, counts, frequent = (np.concatenate(pair) for pair in pairs)
        order = lexsorted(rows)
        self.set_level(k, rows[order], counts[order], frequent[order])

    def set_level(
        self, k: int, rows: np.ndarray, counts: np.ndarray, frequent: np.ndarray
    ) -> None:
        """Replace level ``k`` (rows already lexsorted); drop it if empty."""
        self.levels.pop(k, None)
        if len(rows):
            for array in (rows, counts, frequent):
                array.flags.writeable = False
            self.levels[k] = Level(rows, counts, frequent)

    def _table(self, in_l: bool) -> dict[Itemset, int]:
        table: dict[Itemset, int] = {}
        for _, (rows, counts, frequent) in sorted(self.levels.items()):
            pick = frequent == in_l
            table.update(zip(map(tuple, rows[pick].tolist()), counts[pick].tolist()))
        return table

    @property
    def frequent(self) -> dict[Itemset, int]:
        """``L(D, κ)``: a fresh itemset → count dict."""
        return self._table(True)

    @property
    def border(self) -> dict[Itemset, int]:
        """``NB⁻(D, κ)``: a fresh itemset → count dict."""
        return self._table(False)

    def __getstate__(self) -> dict[str, Any]:
        """Canonical pickle state: a set pickles in the hash-table order
        its insertion history left, so ``items`` is rebuilt sorted; rows
        and counts pickle in the narrowest integer type that holds them."""
        state = dict(self.__dict__)
        state["items"] = set(sorted(self.items))
        state["levels"] = {
            k: Level(_narrow(rows), _narrow(counts), frequent)
            for k, (rows, counts, frequent) in self.levels.items()
        }
        return state

    def __setstate__(self, state: dict[str, Any]) -> None:
        # Unpickled arrays carry their own dtype instances, and pickle
        # memoizes dtypes by identity: astype() re-types them onto the
        # shared ones, so a model from a worker re-pickles identically.
        self.__dict__.update(state, levels={})
        for k, (rows, counts, frequent) in state["levels"].items():
            retyped = rows.astype(np.int64), counts.astype(np.int64), frequent.astype(bool)
            self.set_level(k, *retyped)

    @property
    def min_count(self) -> int:
        """The absolute count threshold at the current dataset size."""
        if self.n_transactions == 0:
            return 1
        return minimum_count(self.minsup, self.n_transactions)

    def support(self, itemset: Itemset) -> float:
        """Support fraction of a tracked itemset (0.0 if untracked)."""
        if self.n_transactions == 0:
            return 0.0
        return self.tracked().get(itemset, 0) / self.n_transactions

    def is_frequent(self, itemset: Itemset) -> bool:
        """Whether the itemset is in ``L``."""
        return itemset in self.frequent

    def tracked(self) -> dict[Itemset, int]:
        """All tracked itemsets (``L ∪ NB⁻``) with their counts."""
        return {**self.frequent, **self.border}

    def frequent_of_size(self, size: int) -> dict[Itemset, int]:
        """The frequent itemsets with exactly ``size`` items."""
        return {x: c for x, c in self.frequent.items() if len(x) == size}

    def copy(self) -> "FrequentItemsetModel":
        """An independent copy; it shares the read-only level arrays."""
        twin = FrequentItemsetModel(
            self.minsup, self.n_transactions, None, None, self.items,
            self.selected_block_ids,
        )
        twin.levels = dict(self.levels)
        return twin

    def raise_threshold(self, new_minsup: float) -> "FrequentItemsetModel":
        """Re-derive the model at a *higher* threshold ``κ' > κ``.

        Trivial per §3.1.1: ``L(D, κ') ⊆ L(D, κ)``, so it is one
        :meth:`demote` pass over the already-known counts.
        """
        if new_minsup < self.minsup:
            raise ValueError(
                "raise_threshold only supports increasing the threshold; "
                "use BordersMaintainer.lower_threshold for decreases"
            )
        raised = self.copy()
        raised.minsup = new_minsup
        raised.demote()
        return raised

    def demote(self) -> int:
        """Move the ``L`` rows under :attr:`min_count` out of ``L``;
        returns how many moved.

        A demoted itemset joins the border only while all its proper
        subsets stay frequent; border members whose subsets got demoted
        are deleted (paper footnote 6).  Every tracked itemset had its
        immediate subsets in ``L``, and only demotion removes itemsets
        from ``L``: one stays on the border iff none was demoted.
        """
        threshold = self.min_count
        demoted = {
            k: level.rows[level.frequent & (level.counts < threshold)]
            for k, level in self.levels.items()
        }
        for k, (rows, counts, frequent) in sorted(self.levels.items()):
            frequent = frequent & (counts >= threshold)
            below = demoted.get(k - 1)
            if below is not None and len(below):
                keep = frequent | ~subsets_in(rows, below).any(axis=1)
                rows, counts, frequent = rows[keep], counts[keep], frequent[keep]
            self.set_level(k, rows, counts, frequent)
        return sum(map(len, demoted.values()))
