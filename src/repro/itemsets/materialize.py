"""ECUT+ 2-itemset TID-list materialization (§3.1.1).

ECUT+ improves on ECUT when extra disk space is available: counting an
itemset ``X`` from TID-lists of *itemsets* ``Y1 ∪ ... ∪ Yk = X`` is
faster when the ``Yi`` are larger than single items, because their
lists are shorter and fewer of them are needed.  Choosing which lists
to materialize optimally is the NP-hard view-materialization problem on
AND-OR graphs, so the paper uses a heuristic:

    For a new block, materialize the TID-lists of all frequent
    2-itemsets of the current model; if their total size exceeds the
    space budget ``M``, keep as many as fit, preferring itemsets with
    higher overall support (they are more likely to be subsets of
    future counting targets).

:class:`PairTidListStore` implements that heuristic per block, with the
same byte-metered fetch interface as the single-item store.
"""

from __future__ import annotations

from collections.abc import Collection, Iterable, Mapping

import numpy as np

from repro.core.blocks import Block
from repro.itemsets.itemset import Itemset, Transaction
from repro.itemsets.kernels import pack_rows
from repro.itemsets.tidlist import TID_BYTES, TID_DTYPE
from repro.storage.iostats import IOStats, IOStatsRegistry

#: A pair (frequent 2-itemset) is a length-2 canonical tuple.
Pair = tuple[int, int]


class PairTidListStore:
    """Per-block TID-lists of selected frequent 2-itemsets.

    Args:
        registry: I/O registry to charge fetches to; private if omitted.
        counter_name: Counter name within the registry.
    """

    def __init__(
        self,
        registry: IOStatsRegistry | None = None,
        counter_name: str = "pair_tidlist_fetch",
    ):
        self.registry = registry if registry is not None else IOStatsRegistry()
        self._stats = self.registry.get(counter_name)
        self._lists: dict[int, dict[Pair, np.ndarray]] = {}
        self._base_tids: dict[int, int] = {}
        self._packed: dict[int, tuple[dict[Pair, int], np.ndarray, np.ndarray]] = {}

    @property
    def stats(self) -> IOStats:
        """The counter fetches are charged to."""
        return self._stats

    def materialize_block(
        self,
        block: Block[Transaction],
        pairs: Collection[Pair],
        overall_supports: Mapping[Itemset, int],
        budget_bytes: int | None = None,
        base_tid: int = 0,
    ) -> list[Pair]:
        """Build per-block TID-lists for (a budgeted subset of) ``pairs``.

        Args:
            block: The arriving block; scanned once.
            pairs: Candidate 2-itemsets, typically the frequent
                2-itemsets of the current model ``L(D[1, t], κ)``.
            overall_supports: Overall support counts ``σ_D`` used to
                order pairs when the budget forces a choice (higher
                support materialized first, per the paper's heuristic).
            budget_bytes: The space budget ``M`` for this block; ``None``
                means unbounded (materialize everything).
            base_tid: Global tid of the block's first transaction; must
                match the single-item store so intersections align.

        Returns:
            The pairs actually materialized, in choice order.
        """
        if block.block_id in self._lists:
            raise ValueError(
                f"pair TID-lists for block {block.block_id} already built"
            )
        wanted = set(pairs)
        buffers: dict[Pair, list[int]] = {pair: [] for pair in wanted}
        # One scan of the block: enumerate each transaction's pairs that
        # are wanted.  Transactions are short (tens of items), so the
        # quadratic inner loop is bounded.
        tid = base_tid
        for chunk in block.iter_chunks():
            for transaction in chunk:
                n = len(transaction)
                for i in range(n):
                    for j in range(i + 1, n):
                        pair = (transaction[i], transaction[j])
                        if pair in wanted:
                            buffers[pair].append(tid)
                tid += 1

        ordered = sorted(
            wanted,
            key=lambda pair: (-overall_supports.get(pair, 0), pair),
        )
        chosen: list[Pair] = []
        used = 0
        block_lists: dict[Pair, np.ndarray] = {}
        for pair in ordered:
            cost = TID_BYTES * len(buffers[pair])
            if budget_bytes is not None and used + cost > budget_bytes:
                continue
            tids = np.asarray(buffers[pair], dtype=TID_DTYPE)
            # Fetches alias this array; freeze it so a caller mutating a
            # fetched (or intersection-returned) list cannot corrupt the
            # store in place.
            tids.flags.writeable = False
            block_lists[pair] = tids
            used += cost
            chosen.append(pair)
        self._lists[block.block_id] = block_lists
        self._base_tids[block.block_id] = base_tid
        return chosen

    def has_block(self, block_id: int) -> bool:
        """Whether this block has been processed (even if nothing fit)."""
        return block_id in self._lists

    def available(self, block_id: int) -> set[Pair]:
        """The pairs materialized for one block."""
        return set(self._lists.get(block_id, ()))

    def has_pair(self, block_id: int, pair: Pair) -> bool:
        """Whether one pair's list exists for one block."""
        return pair in self._lists.get(block_id, ())

    def pair_count(self, block_id: int, pair: Pair) -> int:
        """Length of one pair list (catalog metadata, not charged)."""
        return len(self._lists[block_id][pair])

    def lists_view(self, block_id: int) -> Mapping[Pair, np.ndarray]:
        """Direct (read-only by convention) view of one block's lists.

        Same contract as :meth:`TidListStore.lists_view`: the batched
        engine meters its own aggregate reads, so every list taken from
        the view must be charged by the caller.
        """
        return self._lists.get(block_id, {})

    def packed_rows(
        self, block_id: int, block_size: int
    ) -> tuple[dict[Pair, int], np.ndarray, np.ndarray]:
        """Lazily-built (pair → row, bitset rows, lengths) per block.

        The batched counting engine's bulk access path for pair keys.
        Unlike :meth:`TidListStore.packed_rows`, which packs per call,
        the rows are packed once per block (``ceil(block_size / 64)``
        words per pair) and dropped with the block; fetch charges stay
        metered per batch by the engine.  Pair lists are always sorted
        arrays, so the physical size of row ``r`` is
        ``TID_BYTES * lens[r]``.
        """
        packed = self._packed.get(block_id)
        if packed is None:
            block_lists = self._lists.get(block_id)
            if block_lists is None:
                # Not materialized yet: a transient empty result, not
                # cached — it would go stale when the block arrives.
                n_words = (block_size + 63) >> 6
                return (
                    {},
                    np.zeros((0, n_words), dtype=np.uint64),
                    np.zeros(0, dtype=np.int64),
                )
            base = self._base_tids.get(block_id, 0)
            pairs = list(block_lists)
            index = {pair: r for r, pair in enumerate(pairs)}
            arrays = list(block_lists.values())
            lens = np.fromiter(
                (len(a) for a in arrays), dtype=np.int64, count=len(arrays)
            )
            matrix = pack_rows(arrays, base, block_size)
            matrix.flags.writeable = False
            lens.flags.writeable = False
            packed = (index, matrix, lens)
            self._packed[block_id] = packed
        return packed

    def fetch(self, block_id: int, pair: Pair) -> np.ndarray:
        """Fetch one pair's TID-list for one block, charging the read."""
        tids = self._lists[block_id][pair]
        self._stats.record_read(TID_BYTES * len(tids))
        return tids

    def nbytes(self, block_id: int) -> int:
        """Logical size of one block's materialized pair lists."""
        return TID_BYTES * sum(len(t) for t in self._lists.get(block_id, {}).values())

    def total_nbytes(self) -> int:
        """Logical size of all materialized pair lists."""
        return sum(self.nbytes(block_id) for block_id in self._lists)

    def drop_block(self, block_id: int) -> None:
        """Discard a block's pair lists."""
        self._lists.pop(block_id, None)
        self._base_tids.pop(block_id, None)
        self._packed.pop(block_id, None)

    def __getstate__(self) -> dict[str, object]:
        # The packed-row cache is derived from ``_lists`` and rebuilt
        # lazily; persisting it would make checkpoint bytes depend on
        # which process happened to count which block (the sharded
        # counting path packs rows worker-side).
        state = dict(self.__dict__)
        state["_packed"] = {}
        return state

    def __setstate__(self, state: dict[str, object]) -> None:
        state.setdefault("_packed", {})
        self.__dict__.update(state)


def plan_cover(
    itemset: Itemset, available_pairs: Collection[Pair]
) -> tuple[list[Pair], list[int]]:
    """Choose pairs + leftover single items whose union is ``itemset``.

    A greedy matching: walk the itemset's items in order and pair each
    yet-uncovered item with the nearest uncovered partner for which a
    materialized pair exists.  Remaining items fall back to single-item
    TID-lists.  Pairs beat singles because a pair's list is never longer
    than either item's list, and one fetch replaces two.

    Returns:
        (pairs, singles) such that the pairs are disjoint, contain only
        items of ``itemset``, and pairs ∪ singles = itemset.
    """
    available = set(available_pairs)
    uncovered = list(itemset)
    pairs: list[Pair] = []
    singles: list[int] = []
    while uncovered:
        item = uncovered.pop(0)
        partner_index = None
        for idx, other in enumerate(uncovered):
            candidate = (item, other) if item < other else (other, item)
            if candidate in available:
                partner_index = idx
                break
        if partner_index is None:
            singles.append(item)
        else:
            other = uncovered.pop(partner_index)
            pairs.append((item, other) if item < other else (other, item))
    return pairs, singles
