"""FUP (Cheung et al. 1996) — the first incremental itemset maintainer.

Included as the related-work baseline (§6): FUP proceeds level-wise and
may rescan the *old* database once per level, which is exactly the cost
BORDERS avoids by keeping the negative border.  The level-``k`` logic:

* **Winners** — old frequent ``k``-itemsets have stored counts; one scan
  of the increment updates them, and those below the new threshold drop.
* **New candidates** — Apriori candidates over the updated ``(k-1)``
  level that were not previously frequent.  FUP's pruning trick: a new
  winner must be frequent *within the increment itself* (otherwise its
  overall support cannot have risen above the threshold), so candidates
  are first counted on the increment alone and only the survivors incur
  a scan of the old database.

The maintainer keeps only ``L`` (no negative border) — its whole point
is what not having the border costs.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.contracts import maintainer_contract, pure_unless_cloned
from repro.core.blocks import Block
from repro.core.maintainer import IncrementalModelMaintainer
from repro.itemsets.apriori import mine_transactions
from repro.itemsets.itemset import (
    Itemset,
    Transaction,
    generate_candidates,
    minimum_count,
)
from repro.itemsets.model import FrequentItemsetModel
from repro.itemsets.prefix_tree import PrefixTree
from repro.itemsets.borders import ItemsetMiningContext
from repro.storage.telemetry import DiagnosticsLog, Telemetry


@dataclass
class FUPStats:
    """Accounting for one FUP maintenance step.

    Attributes:
        old_db_scans: Full scans of the pre-existing database performed
            (one per level that produced surviving new candidates).
        levels: Number of levels processed.
        seconds: Wall-clock for the whole step.
    """

    old_db_scans: int = 0
    levels: int = 0
    seconds: float = 0.0


@maintainer_contract
class FUPMaintainer(IncrementalModelMaintainer[FrequentItemsetModel, Transaction]):
    """FUP incremental maintenance of ``L`` under block additions.

    Args:
        minsup: Minimum support threshold ``κ``.
        context: Shared storage; a private one is created if omitted.
    """

    def __init__(self, minsup: float, context: ItemsetMiningContext | None = None):
        if not 0 < minsup < 1:
            raise ValueError(f"minimum support must be in (0, 1), got {minsup}")
        self.minsup = minsup
        self.context = context if context is not None else ItemsetMiningContext()
        #: Observability side channel (DML012: pure methods report
        #: their costs here instead of storing run state on ``self``).
        self.diagnostics = DiagnosticsLog()
        #: Instrumentation spine; a session rebinds this onto its own.
        self.telemetry = Telemetry()

    @property
    def last_stats(self) -> FUPStats:
        """Stats of the most recent ``add_block``."""
        return self.diagnostics.latest("fup.update", FUPStats())

    def _register(self, block: Block[Transaction]) -> None:
        if block.block_id not in self.context.block_store:
            self.context.block_store.append_block(block)

    def empty_model(self) -> FrequentItemsetModel:
        return FrequentItemsetModel(minsup=self.minsup)

    def build(self, blocks) -> FrequentItemsetModel:
        """``A_M(D, φ)``: Apriori over the given blocks (border discarded)."""
        block_list = list(blocks)
        if not block_list:
            return self.empty_model()
        for block in block_list:
            self._register(block)
        block_ids = [b.block_id for b in block_list]

        def factory():
            return self.context.block_store.scan_many(block_ids)

        result = mine_transactions(factory, self.minsup)
        model = FrequentItemsetModel(
            minsup=self.minsup,
            n_transactions=result.n_transactions,
            frequent=dict(result.frequent),
            selected_block_ids=block_ids,
        )
        for block in block_list:
            for transaction in block.iter_records():
                model.items.update(transaction)
        return model

    def clone(self, model: FrequentItemsetModel) -> FrequentItemsetModel:
        return model.copy()

    @pure_unless_cloned
    def add_block(
        self, model: FrequentItemsetModel, block: Block[Transaction]
    ) -> FrequentItemsetModel:
        """FUP level-wise maintenance for one added block."""
        self._register(block)
        stats = FUPStats()
        span = self.telemetry.phase("fup.update").start()

        inc_size = block.num_records
        old_block_ids = list(model.selected_block_ids)
        new_total = model.n_transactions + inc_size
        threshold = minimum_count(self.minsup, new_total) if new_total else 1
        inc_threshold = minimum_count(self.minsup, inc_size) if inc_size else 1

        # One scan of the increment: item counts plus counts of every
        # previously frequent itemset.
        old_frequent = model.frequent
        tree = PrefixTree(old_frequent.keys()) if old_frequent else None
        item_counts: dict[int, int] = {}
        for transaction in self.context.block_store.scan(block.block_id):
            if tree is not None:
                tree.count_transaction(transaction)
            for item in transaction:
                item_counts[item] = item_counts.get(item, 0) + 1
        inc_counts = tree.counts() if tree is not None else {}

        new_frequent: dict[Itemset, int] = {}

        # Level 1: winners among old frequent singletons, then new
        # singleton candidates frequent within the increment.
        stats.levels = 1
        for itemset, old_count in old_frequent.items():
            if len(itemset) != 1:
                continue
            updated = old_count + inc_counts.get(itemset, 0)
            if updated >= threshold:
                new_frequent[itemset] = updated
        singleton_inc_counts: dict[Itemset, int] = {
            (item,): count
            for item, count in item_counts.items()
            if (item,) not in old_frequent and count >= inc_threshold
        }
        new_frequent.update(
            self._count_over_old(
                list(singleton_inc_counts),
                old_block_ids,
                singleton_inc_counts,
                threshold,
                stats,
            )
        )

        # Levels 2 and up.
        level = 2
        current_level = {x: c for x, c in new_frequent.items() if len(x) == 1}
        while current_level:
            stats.levels = level
            winners: dict[Itemset, int] = {}
            for itemset, old_count in old_frequent.items():
                if len(itemset) != level:
                    continue
                if not all(
                    subset in new_frequent
                    for subset in self._immediate_subsets(itemset)
                ):
                    continue
                updated = old_count + inc_counts.get(itemset, 0)
                if updated >= threshold:
                    winners[itemset] = updated

            candidates = generate_candidates(current_level.keys())
            fresh = [c for c in candidates if c not in old_frequent]
            # FUP prune: a fresh candidate must be frequent in the
            # increment alone.
            fresh_inc_counts = self._count_on_increment(fresh, block)
            survivors = {
                c: n for c, n in fresh_inc_counts.items() if n >= inc_threshold
            }
            promoted = self._count_over_old(
                list(survivors), old_block_ids, survivors, threshold, stats
            )
            next_level = dict(winners)
            next_level.update(promoted)
            for itemset, count in next_level.items():
                new_frequent[itemset] = count
            current_level = next_level
            level += 1

        model.frequent = new_frequent
        model.border = {}
        model.n_transactions = new_total
        model.selected_block_ids.append(block.block_id)
        model.selected_block_ids.sort()
        model.items.update(item_counts)
        stats.seconds = span.stop()
        self.diagnostics.record("fup.update", stats)
        return model

    @staticmethod
    def _immediate_subsets(itemset: Itemset):
        for i in range(len(itemset)):
            yield itemset[:i] + itemset[i + 1 :]

    def _count_on_increment(
        self, itemsets: list[Itemset], block: Block[Transaction]
    ) -> dict[Itemset, int]:
        if not itemsets:
            return {}
        tree = PrefixTree(itemsets)
        tree.count_dataset(block.iter_records())
        return tree.counts()

    def _count_over_old(
        self,
        itemsets: list[Itemset],
        old_block_ids: list[int],
        inc_counts: dict[Itemset, int],
        threshold: int,
        stats: FUPStats,
    ) -> dict[Itemset, int]:
        """Count candidates over the old database, add increment counts,
        and return the ones meeting the overall threshold."""
        if not itemsets:
            return {}
        result: dict[Itemset, int] = {}
        if old_block_ids:
            stats.old_db_scans += 1
            tree = PrefixTree(itemsets)
            tree.count_dataset(self.context.block_store.scan_many(old_block_ids))
            old_counts = tree.counts()
        else:
            old_counts = {x: 0 for x in itemsets}
        for itemset in itemsets:
            total = old_counts.get(itemset, 0) + inc_counts.get(itemset, 0)
            if total >= threshold:
                result[itemset] = total
        return result
