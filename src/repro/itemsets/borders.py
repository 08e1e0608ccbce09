"""The BORDERS incremental frequent-itemset maintainer (§3.1.1).

BORDERS (Feldman et al. 1997; Thomas et al. 1997) keeps the set of
frequent itemsets ``L`` *and* the negative border ``NB⁻`` with exact
counts.  When a block arrives it runs two phases:

* **Detection** — scan just the new block once to update the counts of
  every tracked itemset, then check which border itemsets crossed the
  threshold (and which frequent itemsets fell below it).  If no border
  itemset became frequent, the model is already correct.
* **Update** — promote the newly frequent border itemsets into ``L``,
  generate fresh candidates by the prefix join, and count them over the
  *entire* selected history; iterate until no new itemset is frequent.

The update phase's counting step is pluggable — PT-Scan (full scan, as
in the original BORDERS), ECUT, or ECUT+ — which is precisely the
comparison in the paper's Figures 2 and 4–7.

The maintainer implements :class:`DeletableModelMaintainer`, so it both
instantiates GEMM and supports the direct add+delete alternative
``A^u_M`` of §3.2.4.  It also implements the threshold-change protocol
of §3.1.1 (trivial filtering for ``κ' > κ``; BORDERS-with-ECUT
expansion for ``κ' < κ``).
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field
from typing import Any

from repro.contracts import maintainer_contract, pure_unless_cloned
from repro.core.blocks import Block
from repro.core.maintainer import DeletableModelMaintainer
from repro.itemsets.apriori import apriori
from repro.itemsets.border import is_on_border
from repro.itemsets.counting import (
    ECUTCounter,
    ECUTPlusCounter,
    PTScanCounter,
    SupportCounter,
)
from repro.itemsets.itemset import (
    Itemset,
    Transaction,
    generate_candidates,
    proper_subsets,
)
from repro.itemsets.materialize import PairTidListStore
from repro.itemsets.model import FrequentItemsetModel
from repro.itemsets.prefix_tree import PrefixTree
from repro.itemsets.tidlist import TidListStore
from repro.storage.blockstore import BlockStore, transaction_nbytes
from repro.storage.iostats import IOStatsRegistry
from repro.storage.telemetry import DiagnosticsLog, Telemetry


@dataclass
class MaintenanceStats:
    """Per-phase accounting for one maintenance step (figs. 4–7).

    Attributes:
        detection_seconds: Time to scan the new block and re-threshold.
        update_seconds: Time spent counting and promoting candidates.
        candidates_counted: ``|S|`` — new candidates counted over the
            full selected history during the update phase.
        promotions: Border itemsets that became frequent.
        demotions: Frequent itemsets that fell below the threshold.
        update_rounds: Iterations of the candidate-generation loop.
    """

    detection_seconds: float = 0.0
    update_seconds: float = 0.0
    candidates_counted: int = 0
    promotions: int = 0
    demotions: int = 0
    update_rounds: int = 0

    @property
    def total_seconds(self) -> float:
        return self.detection_seconds + self.update_seconds


@dataclass
class ItemsetMiningContext:
    """Shared storage backing one evolving transactional database.

    GEMM maintains many models over overlapping block subsets; they all
    share one context so each block's data and TID-lists are stored and
    built exactly once (the paper's per-block TID-list partitioning).
    """

    registry: IOStatsRegistry = field(default_factory=IOStatsRegistry)
    block_store: BlockStore[Transaction] = None  # type: ignore[assignment]
    tidlists: TidListStore = None  # type: ignore[assignment]
    pairs: PairTidListStore = None  # type: ignore[assignment]

    def __post_init__(self) -> None:
        if self.block_store is None:
            self.block_store = BlockStore(
                sizer=transaction_nbytes, registry=self.registry
            )
        if self.tidlists is None:
            self.tidlists = TidListStore(registry=self.registry)
        if self.pairs is None:
            self.pairs = PairTidListStore(registry=self.registry)


def make_counter(kind: str, context: ItemsetMiningContext) -> SupportCounter:
    """Build one of the three update-phase counters by name."""
    normalized = kind.lower().replace("-", "").replace("_", "")
    if normalized in ("ptscan", "scan"):
        return PTScanCounter(context.block_store)
    if normalized == "ecut":
        return ECUTCounter(context.tidlists)
    if normalized in ("ecutplus", "ecut+"):
        return ECUTPlusCounter(context.tidlists, context.pairs)
    raise ValueError(f"unknown counter kind {kind!r}; use ptscan, ecut, or ecut+")


@maintainer_contract
class BordersMaintainer(
    DeletableModelMaintainer[FrequentItemsetModel, Transaction]
):
    """BORDERS with a pluggable update-phase support counter.

    Args:
        minsup: Minimum support threshold ``κ``.
        context: Shared storage; a private one is created if omitted.
        counter: Counter kind (``"ptscan"``, ``"ecut"``, ``"ecut+"``) or
            a ready :class:`SupportCounter` instance.
        pair_budget_bytes: ECUT+ per-block space budget ``M_i`` for
            materialized 2-itemset TID-lists (``None`` = unbounded).
    """

    def __init__(
        self,
        minsup: float,
        context: ItemsetMiningContext | None = None,
        counter: str | SupportCounter = "ecut",
        pair_budget_bytes: int | None = None,
    ):
        if not 0 < minsup < 1:
            raise ValueError(f"minimum support must be in (0, 1), got {minsup}")
        self.minsup = minsup
        self.context = context if context is not None else ItemsetMiningContext()
        if isinstance(counter, SupportCounter):
            self.counter = counter
        else:
            self.counter = make_counter(counter, self.context)
        self.pair_budget_bytes = pair_budget_bytes
        #: Observability side channel (DML012: pure methods report
        #: their costs here instead of storing run state on ``self``).
        self.diagnostics = DiagnosticsLog()
        #: Instrumentation spine; a session rebinds this onto its own.
        self.telemetry = Telemetry()

    @property
    def last_stats(self) -> MaintenanceStats:
        """Stats of the most recent maintenance operation."""
        return self.diagnostics.latest("borders.maintenance", MaintenanceStats())

    # ------------------------------------------------------------------
    # Block registration (storage + per-block TID-lists, built once)
    # ------------------------------------------------------------------

    def register_block(
        self, block: Block[Transaction], model: FrequentItemsetModel | None = None
    ) -> None:
        """Store a block and build its TID-lists, idempotently.

        When the counter is ECUT+ and a model is supplied, the frequent
        2-itemsets of that model are materialized for the block under
        the configured space budget (§3.1.1's heuristic).
        """
        if block.block_id not in self.context.block_store:
            self.context.block_store.append_block(block)
        if not self.context.tidlists.has_block(block.block_id):
            self.context.tidlists.materialize_block(block)
        if (
            isinstance(self.counter, ECUTPlusCounter)
            and model is not None
            and not self.context.pairs.has_block(block.block_id)
        ):
            self.materialize_pairs_for_block(block, model)

    def release_block(self, block_id: int) -> None:
        """Drop an expired block's item TID-lists and ECUT+ pair lists.

        The block's records stay in the block store, where a retained
        snapshot can still read them.
        """
        self.context.tidlists.compress_block(block_id)
        self.context.pairs.drop_block(block_id)

    def materialize_pairs_for_block(
        self, block: Block[Transaction], model: FrequentItemsetModel
    ) -> list[tuple[int, int]]:
        """Materialize the model's frequent 2-itemsets for one block."""
        pairs = [p for p in model.frequent_of_size(2)]
        base = self.context.tidlists.base_tid(block.block_id)
        return self.context.pairs.materialize_block(
            block,
            pairs,
            overall_supports=model.frequent,
            budget_bytes=self.pair_budget_bytes,
            base_tid=base,
        )

    # ------------------------------------------------------------------
    # Worker-pool sharding support (repro.parallel)
    # ------------------------------------------------------------------

    def worker_payload(self) -> dict[str, Any] | None:
        """A small spec from which a worker can rebuild this maintainer.

        Only the stock counters are describable by name; a custom
        :class:`SupportCounter` instance (or subclass) may carry state a
        spec cannot reproduce, so ``None`` tells the pool integration to
        fall back to shipping the whole pickled maintainer.
        """
        counter_type = type(self.counter)
        if counter_type is ECUTCounter:
            kind = "ecut"
        elif counter_type is ECUTPlusCounter:
            kind = "ecut+"
        elif counter_type is PTScanCounter:
            kind = "ptscan"
        else:
            return None
        return {
            "maintainer": "borders",
            "minsup": self.minsup,
            "counter": kind,
            "pair_budget_bytes": self.pair_budget_bytes,
        }

    def worker_block_refs(self, block_ids: Sequence[int]) -> list[Any] | None:
        """Zero-copy refs for the given history blocks, if available.

        ``None`` when any block's source handle is gone (checkpoint
        restore rebuilds TID-lists but not handles), which sends the
        caller down the serial path.
        """
        from repro.parallel.shards import block_ref

        refs: list[Any] = []
        for block_id in block_ids:
            block = self.context.tidlists.source_block(block_id)
            if block is None:
                return None
            refs.append(block_ref(block))
        return refs

    # ------------------------------------------------------------------
    # IncrementalModelMaintainer interface
    # ------------------------------------------------------------------

    def empty_model(self) -> FrequentItemsetModel:
        return FrequentItemsetModel(minsup=self.minsup)

    def build(self, blocks) -> FrequentItemsetModel:
        """``A_M(D, φ)``: Apriori over the given blocks."""
        block_list = list(blocks)
        if not block_list:
            return self.empty_model()
        for block in block_list:
            self.register_block(block)
        block_ids = [b.block_id for b in block_list]

        def factory():
            return self.context.block_store.scan_many(block_ids)

        result = apriori(factory, self.minsup)
        model = FrequentItemsetModel.from_mining_result(result, block_ids)
        # Item universe must cover every observed item, not just those
        # with tracked singletons (apriori tracks all, so this is a
        # belt-and-braces union).
        for block in block_list:
            for transaction in block.iter_records():
                model.items.update(transaction)
        if isinstance(self.counter, ECUTPlusCounter):
            for block in block_list:
                if not self.context.pairs.has_block(block.block_id):
                    self.materialize_pairs_for_block(block, model)
        return model

    @pure_unless_cloned
    def add_block(
        self, model: FrequentItemsetModel, block: Block[Transaction]
    ) -> FrequentItemsetModel:
        """``A_M(m, D_j)``: detection + update phases for an added block."""
        self.register_block(block, model=model)
        stats = MaintenanceStats()
        span = self.telemetry.phase("borders.detection").start()

        # --- Detection phase: one scan of the new block ----------------
        tracked = model.tracked()
        tree = PrefixTree(tracked.keys()) if tracked else None
        new_item_counts: dict[int, int] = {}
        for transaction in self.context.block_store.scan(block.block_id):
            if tree is not None:
                tree.count_transaction(transaction)
            for item in transaction:
                if item not in model.items:
                    new_item_counts[item] = new_item_counts.get(item, 0) + 1
        if tree is not None:
            for itemset, delta in tree.counts().items():
                if itemset in model.frequent:
                    model.frequent[itemset] += delta
                else:
                    model.border[itemset] += delta
        model.n_transactions += len(block)
        model.selected_block_ids.append(block.block_id)
        model.selected_block_ids.sort()

        # Items never seen in a selected block before: their count over
        # prior selected blocks is zero, so the block-local count is the
        # global count.  Newly *frequent* items seed the update phase's
        # candidate generation (they never sat in the border).
        threshold = model.min_count
        seeds: dict[Itemset, int] = {}
        for item, count in new_item_counts.items():
            model.items.add(item)
            singleton: Itemset = (item,)
            if count >= threshold:
                model.frequent[singleton] = count
                seeds[singleton] = count
            else:
                model.border[singleton] = count

        stats.detection_seconds = span.stop()
        self._rebalance(model, stats, seeds=seeds)
        self.diagnostics.record("borders.maintenance", stats)
        return model

    @pure_unless_cloned
    def delete_block(
        self, model: FrequentItemsetModel, block: Block[Transaction]
    ) -> FrequentItemsetModel:
        """Reverse a previously added block (§3.2.4).

        The block is scanned once to decrement tracked counts; the same
        detection/update machinery then restores the L/NB⁻ invariants
        (deletions can both demote and promote itemsets, because the
        denominator shrinks too).
        """
        if block.block_id not in model.selected_block_ids:
            raise ValueError(
                f"block {block.block_id} is not part of this model's selection"
            )
        stats = MaintenanceStats()
        span = self.telemetry.phase("borders.detection").start()
        tracked = model.tracked()
        if tracked:
            tree = PrefixTree(tracked.keys())
            tree.count_dataset(self.context.block_store.scan(block.block_id))
            for itemset, delta in tree.counts().items():
                if itemset in model.frequent:
                    model.frequent[itemset] -= delta
                else:
                    model.border[itemset] -= delta
        model.n_transactions -= len(block)
        model.selected_block_ids.remove(block.block_id)

        # Drop items that vanished entirely from the selection.
        for itemset in list(model.border):
            if len(itemset) == 1 and model.border[itemset] <= 0:
                del model.border[itemset]
                model.items.discard(itemset[0])

        stats.detection_seconds = span.stop()
        self._rebalance(model, stats)
        self.diagnostics.record("borders.maintenance", stats)
        return model

    def clone(self, model: FrequentItemsetModel) -> FrequentItemsetModel:
        return model.copy()

    # ------------------------------------------------------------------
    # Threshold changes (§3.1.1)
    # ------------------------------------------------------------------

    def lower_threshold(
        self, model: FrequentItemsetModel, new_minsup: float
    ) -> FrequentItemsetModel:
        """Re-derive the model at ``κ' < κ`` using the update machinery.

        Border counts are exact, so lowering the threshold promotes the
        border itemsets that now qualify and expands outward with the
        configured counter — "BORDERS augmented with ECUT/ECUT+".
        """
        if new_minsup >= model.minsup:
            raise ValueError(
                "lower_threshold requires the new threshold to be smaller; "
                "use FrequentItemsetModel.raise_threshold instead"
            )
        if not 0 < new_minsup < 1:
            raise ValueError(f"minimum support must be in (0, 1), got {new_minsup}")
        model.minsup = new_minsup
        stats = MaintenanceStats()
        self._rebalance(model, stats)
        self.diagnostics.record("borders.maintenance", stats)
        return model

    # ------------------------------------------------------------------
    # Shared demote/promote/expand machinery
    # ------------------------------------------------------------------

    def _rebalance(
        self,
        model: FrequentItemsetModel,
        stats: MaintenanceStats,
        seeds: dict[Itemset, int] | None = None,
    ) -> None:
        """Restore the L/NB⁻ invariants after counts or κ changed.

        ``seeds`` are itemsets the caller already placed in ``L`` that
        were not border members (newly observed frequent items); they
        participate in candidate generation like border promotions do.
        """
        span = self.telemetry.phase("borders.update").start()
        threshold = model.min_count

        # Demote frequent itemsets that fell below the threshold.  A
        # demoted itemset joins the border only while all its proper
        # subsets stay frequent; border members whose subsets got
        # demoted are deleted (paper footnote 6).
        demoted = {
            itemset: count
            for itemset, count in model.frequent.items()
            if count < threshold
        }
        for itemset in demoted:
            del model.frequent[itemset]
        stats.demotions += len(demoted)
        if demoted:
            frequent_set = set(model.frequent)
            for itemset, count in demoted.items():
                if is_on_border(itemset, frequent_set):
                    model.border[itemset] = count
            for itemset in list(model.border):
                if not is_on_border(itemset, frequent_set):
                    del model.border[itemset]

        # Promote border itemsets that crossed the threshold, then
        # expand: generate fresh candidates around everything that newly
        # became frequent, count them over the whole selected history
        # with the pluggable counter, and repeat to closure.
        promoted = {
            itemset: count
            for itemset, count in model.border.items()
            if count >= threshold
        }
        newly_frequent: set[Itemset] = set(seeds or ())
        while promoted or newly_frequent:
            stats.promotions += len(promoted)
            for itemset, count in promoted.items():
                # First round promotes border members; later rounds
                # promote freshly counted candidates that never sat in
                # the border, hence pop with default.
                model.border.pop(itemset, None)
                model.frequent[itemset] = count
            newly_frequent |= set(promoted)

            stats.update_rounds += 1
            candidates = self._new_candidates(newly_frequent, model)
            if not candidates:
                break
            with self.telemetry.phase(self._counting_phase()):
                counts = self.counter.count_batch(
                    candidates, model.selected_block_ids
                )
            stats.candidates_counted += len(candidates)
            promoted = {}
            newly_frequent = set()
            for candidate, count in counts.items():
                if count >= threshold:
                    promoted[candidate] = count
                else:
                    model.border[candidate] = count
        stats.update_seconds = span.stop()
        self.telemetry.increment("borders.promotions", stats.promotions)
        self.telemetry.increment("borders.demotions", stats.demotions)
        self.telemetry.increment(
            "borders.candidates_counted", stats.candidates_counted
        )

    def _counting_phase(self) -> str:
        """Telemetry phase name of the configured support counter."""
        return "counting." + self.counter.name.lower().replace("-", "")

    def _new_candidates(
        self, newly_frequent: set[Itemset], model: FrequentItemsetModel
    ) -> set[Itemset]:
        """Fresh, untracked candidates with all subsets frequent.

        A candidate not already tracked must have at least one immediate
        subset that *just* became frequent (otherwise it would have been
        generated before), so it suffices to extend each newly frequent
        itemset by one frequent item and prune.  When the promotion set
        is huge this targeted pass costs more than regenerating from the
        whole of ``L``, so fall back to the global prefix join then.
        """
        frequent_set = set(model.frequent)
        tracked = frequent_set | set(model.border)
        frequent_items = [x[0] for x in frequent_set if len(x) == 1]
        if len(newly_frequent) * len(frequent_items) > 4 * len(frequent_set) + 10_000:
            return generate_candidates(frequent_set) - tracked
        result: set[Itemset] = set()
        for base in newly_frequent:
            base_set = set(base)
            for item in frequent_items:
                if item in base_set:
                    continue
                candidate = tuple(sorted(base + (item,)))
                if candidate in tracked or candidate in result:
                    continue
                if all(s in frequent_set for s in proper_subsets(candidate)):
                    result.add(candidate)
        return result
