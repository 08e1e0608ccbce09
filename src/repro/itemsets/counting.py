"""Support counters for BORDERS' update phase: PT-Scan, ECUT, ECUT+.

The update phase of BORDERS must count a (typically small) set ``S`` of
new candidate itemsets over the selected blocks of the whole history.
The paper compares three ways to do it:

* **PT-Scan** — organize ``S`` in a prefix tree and scan every selected
  block in full.  Cost is proportional to the dataset size and nearly
  independent of ``|S|``'s composition, so it wins only when ``|S|`` is
  large.
* **ECUT** — intersect the per-block TID-lists of each itemset's items.
  Cost is proportional to the summed supports of the items involved —
  typically one to two orders of magnitude less data than a full scan.
* **ECUT+** — like ECUT but prefer materialized 2-itemset TID-lists
  when a block has them, fetching fewer and shorter lists.

All three implement :class:`SupportCounter` so BORDERS treats them
interchangeably.

Each counter additionally exposes :meth:`SupportCounter.count_batch`,
the batched engine BORDERS actually calls.  Per block, every candidate
is a rarest-first sequence of fetch keys, and the candidates advance
level-synchronously over packed bitset rows: one depth of every
candidate's running intersection is one fancy-indexed ``&`` and one
row popcount.  The running rows are processed in chunks under a fixed
byte budget (:data:`DENSE_CHUNK_BYTES`), so one engine serves every
block size.  Each distinct physical list is charged exactly once per
block and batch; repeat uses are recorded as cache hits, not
re-charged, so the byte meter sees what a buffer pool would serve from
disk.  PT-Scan's plain :meth:`~PTScanCounter.count` is already batched
(one prefix tree, one scan), so its batch path is the same code.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from collections.abc import Collection, Iterable, Sequence
from typing import Any, Union

import numpy as np

from repro.itemsets.itemset import Itemset, Transaction
from repro.itemsets.kernels import (
    TID_BYTES,
    TidList,
    intersect_many,
)
from repro.itemsets.materialize import Pair, PairTidListStore, plan_cover
from repro.itemsets.prefix_tree import PrefixTree
from repro.itemsets.tidlist import TidListStore
from repro.storage.blockstore import BlockStore
from repro.storage.iostats import IOStats


class SupportCounter(ABC):
    """Counts the supports of a set of itemsets over selected blocks."""

    #: Short name used in benchmark output ("PT-Scan", "ECUT", "ECUT+").
    name: str = "abstract"

    @abstractmethod
    def count(
        self, itemsets: Collection[Itemset], block_ids: Sequence[int]
    ) -> dict[Itemset, int]:
        """Absolute support counts of ``itemsets`` over ``block_ids``."""

    def count_batch(
        self, itemsets: Collection[Itemset], block_ids: Sequence[int]
    ) -> dict[Itemset, int]:
        """Batched support counting; equals :meth:`count` exactly.

        The default falls back to the per-itemset path; TID-list
        counters override it with the chunked bitset-row engine.
        """
        return self.count(itemsets, block_ids)


class PTScanCounter(SupportCounter):
    """Full-scan counting through a prefix tree (the BORDERS baseline).

    The scan path is inherently batched (one prefix tree over all of
    ``S``, one pass over the data), so :meth:`count_batch` is the same
    code.

    Args:
        store: Block store holding the transactional data; every
            selected block is scanned in full (and charged).
    """

    name = "PT-Scan"

    def __init__(self, store: BlockStore[Transaction]):
        self._store = store

    def count(
        self, itemsets: Collection[Itemset], block_ids: Sequence[int]
    ) -> dict[Itemset, int]:
        if not itemsets:
            return {}
        tree = PrefixTree(itemsets)
        tree.count_dataset(self._store.scan_many(block_ids))
        return tree.counts()


# ----------------------------------------------------------------------
# The batched TID-list engine: level-synchronous bitset rows, chunked
# ----------------------------------------------------------------------

#: A fetch key names one physical list: a bare ``int`` is a single-item
#: list, an ``(a, b)`` tuple a materialized 2-itemset list.  The two
#: never collide as dict keys.
_FetchKey = Union[int, Pair]

#: Byte budget of the dense engine's running intersections.  Candidates
#: are evaluated in row chunks whose bitset rows (``ceil(block_size/64)``
#: words each) fit in this budget, which bounds the scratch memory at
#: every block size and candidate count.  The chunking changes neither
#: the supports nor the fetch accounting.
DENSE_CHUNK_BYTES = 1 << 20

_PAD = np.iinfo(np.int64).max


class _SingleKeyAccountant:
    """Meters the dense engine's reads against the single-item store.

    Fetch charges and cache-hit audits are recorded in aggregate
    (one call each per block), with totals identical to per-list
    accounting.
    """

    __slots__ = ("_stats",)

    def __init__(self, stats: IOStats):
        self._stats = stats

    def record_fetches(self, key_indices: np.ndarray, nbytes: np.ndarray) -> None:
        self._stats.record_reads(len(key_indices), int(nbytes.sum()))

    def record_hits(
        self, uniq: np.ndarray, hit_uses: np.ndarray, nbytes: np.ndarray
    ) -> None:
        hits = int(hit_uses.sum())
        if hits:
            self._stats.record_cached_reads(
                hits, int((nbytes[uniq] * hit_uses).sum())
            )


class _CoverKeyAccountant:
    """Like :class:`_SingleKeyAccountant` but over ECUT+ cover keys.

    A key is a single item (``int``) or a materialized 2-itemset
    (``tuple``); fetches and hits are charged to the matching store.
    """

    __slots__ = ("_sstats", "_pstats", "_is_pair")

    def __init__(
        self,
        tidlists: TidListStore,
        pairs: PairTidListStore,
        keys: list[_FetchKey],
    ):
        self._sstats = tidlists.stats
        self._pstats = pairs.stats
        self._is_pair = np.fromiter(
            (type(k) is tuple for k in keys), dtype=bool, count=len(keys)
        )

    def record_fetches(self, key_indices: np.ndarray, nbytes: np.ndarray) -> None:
        pair_mask = self._is_pair[key_indices]
        pairs = int(pair_mask.sum())
        if pairs:
            self._pstats.record_reads(pairs, int(nbytes[pair_mask].sum()))
        if pairs < len(key_indices):
            self._sstats.record_reads(
                len(key_indices) - pairs, int(nbytes[~pair_mask].sum())
            )

    def record_hits(
        self, uniq: np.ndarray, hit_uses: np.ndarray, nbytes: np.ndarray
    ) -> None:
        pair_mask = self._is_pair[uniq]
        for stats, mask in ((self._sstats, ~pair_mask), (self._pstats, pair_mask)):
            hits = int(hit_uses[mask].sum())
            if hits:
                stats.record_cached_reads(
                    hits, int((nbytes[uniq[mask]] * hit_uses[mask]).sum())
                )


if hasattr(np, "bitwise_count"):  # numpy >= 2.0

    def _row_popcounts(rows: np.ndarray) -> np.ndarray:
        """Per-row set-bit counts of a matrix of bitmap words."""
        return np.bitwise_count(rows).sum(axis=1, dtype=np.int64)

else:  # pragma: no cover - exercised only on numpy < 2.0
    _POP8 = np.array([bin(v).count("1") for v in range(256)], dtype=np.uint8)

    def _row_popcounts(rows: np.ndarray) -> np.ndarray:
        """Per-row set-bit counts of a matrix of bitmap words."""
        return _POP8[rows.view(np.uint8)].sum(axis=1, dtype=np.int64)


def _padded_rows(lengths: list[int], values: Iterable[int]) -> np.ndarray:
    """A ``-1``-padded matrix whose row ``r`` holds the next
    ``lengths[r]`` of ``values``."""
    counts = np.asarray(lengths, dtype=np.int64)
    rows = np.full((len(counts), max(1, int(counts.max()))), -1, dtype=np.int64)
    rows[np.arange(rows.shape[1]) < counts[:, None]] = np.fromiter(
        values, dtype=np.int64, count=int(counts.sum())
    )
    return rows


def _dense_count_block(
    S: np.ndarray,
    accountant: _SingleKeyAccountant | _CoverKeyAccountant,
    keys_matrix: np.ndarray,
    key_lens: np.ndarray,
    key_nbytes: np.ndarray,
    block_size: int,
    supports: np.ndarray,
) -> None:
    """Level-synchronous dense evaluation of one block's batch.

    ``S`` holds each candidate's fetch-key indices in per-block
    rarest-first order (``-1``-padded; an all ``-1`` row is the empty
    itemset).  ``keys_matrix[k]`` is key ``k``'s list as a row of
    bitmap words (bit ``t`` = "transaction ``t`` of the block contains
    this list", packed by the stores for this call), ``key_lens[k]``
    its catalog length, ``key_nbytes[k]`` its physical fetch size.  The
    candidates' running intersections are rows of a second bitset
    matrix, advanced one key depth at a time: all partial
    intersections of a depth are one fancy-indexed ``&``, all supports
    of a depth one row-popcount.  Python-level work per depth is a
    handful of numpy calls, and the per-depth data volume is one bit
    per (row, transaction).

    The candidates are processed in row chunks of at most
    :data:`DENSE_CHUNK_BYTES` of running rows, so the scratch memory is
    bounded whatever the block size and candidate count.

    Pruning matches the per-itemset path exactly: a candidate's key at
    depth ``d`` is only charged while its depth ``d-1`` intersection
    is non-empty, so each key use either re-uses an already-charged
    fetch (a recorded cache hit) or charges the store — and the block's
    ``bytes_read + bytes_cached`` equals what the per-itemset path
    charges, with ``bytes_read`` a deduplicated (≤) share of it.
    """
    n_keys = len(key_lens)
    # Key uses are summed over every depth of every chunk and charged
    # once per block: a used key's first use is its one fetch, every
    # further use a cache hit, whatever the chunking.
    uses = np.zeros(n_keys, dtype=np.int64)
    step = max(1, DENSE_CHUNK_BYTES // max(keys_matrix.shape[1] * 8, 1))
    for start in range(0, len(S), step):
        chunk = S[start : start + step]
        sums = supports[start : start + step]
        # Empty itemsets have no keys and count every transaction.
        has_keys = chunk[:, 0] >= 0
        sums[~has_keys] += block_size
        idx = np.flatnonzero(has_keys)
        ks = chunk[idx, 0]
        uses += np.bincount(ks, minlength=n_keys)
        counts = key_lens[ks]
        # Row i of ``running`` is candidate ``idx[i]``'s intersection.
        running = keys_matrix[ks]
        for depth in range(1, chunk.shape[1]):
            ks = chunk[idx, depth]
            # A candidate is done at its last key, or as soon as its
            # intersection is empty: its deeper keys are never charged
            # (the per-itemset path stops fetching there too).
            going = (ks >= 0) & (counts > 0)
            if not going.all():
                sums[idx[~going]] += counts[~going]
                idx, ks, counts = idx[going], ks[going], counts[going]
                if idx.size == 0:
                    break
                running = running[going]
            uses += np.bincount(ks, minlength=n_keys)
            running &= keys_matrix[ks]
            counts = _row_popcounts(running)
        sums[idx] += counts
    used = np.flatnonzero(uses)
    accountant.record_fetches(used, key_nbytes[used])
    accountant.record_hits(used, uses[used] - 1, key_nbytes)


def _contiguous_shards(
    values: list[Any], weights: list[int], parts: int
) -> list[list[Any]]:
    """Split ``values`` into <= ``parts`` contiguous, weight-balanced runs.

    Contiguity keeps each shard's blocks in arrival order (workers
    then touch a dense range of any path-local cache) and makes the
    partition a pure function of the block set, independent of worker
    scheduling.
    """
    count = min(parts, len(values))
    total = sum(weights) or len(values)
    shards: list[list[Any]] = []
    current: list[Any] = []
    accumulated = 0.0
    for value, weight in zip(values, weights):
        current.append(value)
        accumulated += weight if weight > 0 else 1
        if len(shards) < count - 1 and accumulated >= total * (len(shards) + 1) / count:
            shards.append(current)
            current = []
    if current:
        shards.append(current)
    return shards


class ECUTCounter(SupportCounter):
    """TID-list intersection counting (Efficient Counting Using TID-lists).

    Args:
        tidlists: Per-block single-item TID-list store.
    """

    name = "ECUT"

    def __init__(self, tidlists: TidListStore, pool: Any = None):
        self._tidlists = tidlists
        self._pool = pool

    def bind_pool(self, pool: Any) -> None:
        """Attach a :class:`~repro.parallel.pool.WorkerPool`.

        With a pool of more than one worker, :meth:`count_batch` shards
        by block and merges the per-shard count vectors by TID-list
        additivity (§2.2) — the merged supports are exactly the serial
        ones.  ``None`` detaches.
        """
        self._pool = pool

    def __getstate__(self) -> dict[str, Any]:
        # The pool is execution wiring, not model state: a counter
        # pickled into a checkpoint (or shipped to a worker) must not
        # drag the parent's dispatch config along, and checkpoint bytes
        # must not depend on the worker count.
        state = dict(self.__dict__)
        state["_pool"] = None
        return state

    def count(
        self, itemsets: Collection[Itemset], block_ids: Sequence[int]
    ) -> dict[Itemset, int]:
        return {
            itemset: self._tidlists.count_itemset(block_ids, itemset)
            for itemset in itemsets
        }

    def count_batch(
        self, itemsets: Collection[Itemset], block_ids: Sequence[int]
    ) -> dict[Itemset, int]:
        """Batched ECUT: per block, rarest-first rows of the dense engine.

        Orders every itemset's items rarest-first (the same order the
        per-itemset path fetches in), so itemsets sharing rare items
        share the fetches of their lists.
        """
        counts = {itemset: 0 for itemset in itemsets}
        if not counts:
            return {}
        targets = list(counts)
        items = sorted({item for itemset in targets for item in itemset})
        if not items:
            # Only empty itemsets: each counts every block in full.
            total = sum(self._tidlists.block_size(b) for b in block_ids)
            return {itemset: total for itemset in counts}
        pool = self._pool
        if pool is not None and pool.workers > 1 and len(block_ids) > 1:
            sharded = self._count_batch_sharded(targets, list(block_ids), pool)
            if sharded is not None:
                for r, itemset in enumerate(targets):
                    counts[itemset] = sharded[r]
                return counts
        item_index = {item: k for k, item in enumerate(items)}
        n = len(targets)
        T = _padded_rows(
            [len(itemset) for itemset in targets],
            (item_index[item] for itemset in targets for item in itemset),
        )
        supports = np.zeros(n, dtype=np.int64)
        # One rank slot past the items: the -1 padding indexes it.
        rank = np.full(len(items) + 1, _PAD, dtype=np.int64)
        item_arange = np.arange(len(items), dtype=np.int64)
        items_array = np.asarray(items, dtype=np.int64)
        for block_id in block_ids:
            # Rank items by (per-block count, item): `items` is sorted,
            # so the index is the tie-break — exactly the stable
            # count-sort the per-itemset path applies, which keeps the
            # engine's fetch set a subset of the per-itemset path's.
            keys_matrix, block_counts, key_nbytes = self._tidlists.packed_rows(
                block_id, items_array
            )
            rank[:-1] = block_counts * len(items) + item_arange
            order = np.argsort(rank[T], axis=1, kind="stable")
            S = np.take_along_axis(T, order, axis=1)
            _dense_count_block(
                S,
                _SingleKeyAccountant(self._tidlists.stats),
                keys_matrix,
                block_counts,
                key_nbytes,
                self._tidlists.block_size(block_id),
                supports,
            )
        return dict(zip(targets, supports.tolist()))

    def _count_batch_sharded(
        self, targets: list[Itemset], block_ids: list[int], pool: Any
    ) -> list[int] | None:
        """Fan per-block counting out to workers; sum the vectors.

        Each shard is a contiguous run of blocks (weight-balanced by
        transaction count) whose refs workers resolve zero-copy for
        mmap-backed blocks.  Additivity makes the merge a plain integer
        sum, so the result is byte-for-byte the serial one.  Returns
        ``None`` — caller counts serially — when any block has no
        source handle (e.g. right after a checkpoint restore: TID-lists
        survive, block handles do not).
        """
        from repro.parallel.shards import block_ref, count_shard

        refs = []
        for block_id in block_ids:
            block = self._tidlists.source_block(block_id)
            if block is None:
                return None
            refs.append(block_ref(block))
        weights = [self._tidlists.block_size(b) for b in block_ids]
        shards = _contiguous_shards(refs, weights, pool.workers)
        frozen = tuple(targets)
        results = pool.run(
            count_shard, [(frozen, tuple(shard)) for shard in shards]
        )
        totals = [0] * len(targets)
        for vector in results:
            for index, value in enumerate(vector):
                totals[index] += value
        return totals


class ECUTPlusCounter(SupportCounter):
    """ECUT with materialized 2-itemset TID-lists (§3.1.1, ECUT+).

    For each block, the counter plans a cover of the target itemset out
    of the pairs materialized *for that block* plus leftover single
    items, then intersects the fetched lists.  Blocks without
    materialized pairs degrade gracefully to plain ECUT.

    Args:
        tidlists: Per-block single-item TID-list store.
        pairs: Per-block materialized 2-itemset store.
    """

    name = "ECUT+"

    def __init__(self, tidlists: TidListStore, pairs: PairTidListStore):
        self._tidlists = tidlists
        self._pairs = pairs
        # Cover plans are deterministic in (block, itemset) once the
        # block's pair lists exist — pair materialization is one-shot —
        # so the batch path memoizes them across maintenance cycles.
        self._plan_cache: dict[tuple[int, Itemset], list[_FetchKey]] = {}

    def __getstate__(self) -> dict[str, Any]:
        # The plan memo is a derived cache, rebuilt on demand from the
        # stores; persisting it would make checkpoint bytes depend on
        # which process happened to count which block (the sharded
        # counting path plans covers worker-side).
        state = dict(self.__dict__)
        state["_plan_cache"] = {}
        return state

    def __setstate__(self, state: dict[str, Any]) -> None:
        state.setdefault("_plan_cache", {})
        self.__dict__.update(state)

    def count(
        self, itemsets: Collection[Itemset], block_ids: Sequence[int]
    ) -> dict[Itemset, int]:
        return {
            itemset: sum(
                self._count_in_block(itemset, block_id) for block_id in block_ids
            )
            for itemset in itemsets
        }

    def count_batch(
        self, itemsets: Collection[Itemset], block_ids: Sequence[int]
    ) -> dict[Itemset, int]:
        """Batched ECUT+: per block, covers feed the dense engine.

        Every itemset's :func:`plan_cover` result (against the block's
        materialized pairs) becomes a sequence of fetch keys, ordered
        shortest-list-first; itemsets whose covers share pairs or rare
        singles share their fetches.
        """
        counts = {itemset: 0 for itemset in itemsets}
        if not counts:
            return {}
        targets = list(counts)
        n = len(targets)
        supports = np.zeros(n, dtype=np.int64)
        for block_id in block_ids:
            available = (
                self._pairs.available(block_id)
                if self._pairs.has_block(block_id)
                else set()
            )
            # Covers are per block (they depend on the block's
            # materialized pairs), so the key catalog is too.
            sequences = [
                self._cover_keys(itemset, block_id, available)
                for itemset in targets
            ]
            block_size = self._tidlists.block_size(block_id)
            key_index: dict[_FetchKey, int] = {}
            S = _padded_rows(
                [len(keys) for keys in sequences],
                (
                    key_index.setdefault(key, len(key_index))
                    for keys in sequences
                    for key in keys
                ),
            )
            keys = list(key_index)
            n_keys = len(keys)
            n_words = (block_size + 63) >> 6
            keys_matrix = np.zeros((n_keys, n_words), dtype=np.uint64)
            key_lens = np.zeros(n_keys, dtype=np.int64)
            key_nbytes = np.zeros(n_keys, dtype=np.int64)
            single_pos = [k for k, key in enumerate(keys) if type(key) is not tuple]
            pair_pos = [k for k, key in enumerate(keys) if type(key) is tuple]
            if single_pos:
                items_array = np.fromiter(
                    (keys[k] for k in single_pos),
                    dtype=np.int64,
                    count=len(single_pos),
                )
                rows, lens, nbytes = self._tidlists.packed_rows(
                    block_id, items_array
                )
                sp = np.asarray(single_pos, dtype=np.int64)
                keys_matrix[sp] = rows
                key_lens[sp] = lens
                key_nbytes[sp] = nbytes
            if pair_pos:
                pair_rows, pair_matrix, pair_lens = self._pairs.packed_rows(
                    block_id, block_size
                )
                rows = np.fromiter(
                    (pair_rows[keys[k]] for k in pair_pos),
                    dtype=np.int64,
                    count=len(pair_pos),
                )
                pp = np.asarray(pair_pos, dtype=np.int64)
                keys_matrix[pp] = pair_matrix[rows]
                key_lens[pp] = pair_lens[rows]
                key_nbytes[pp] = pair_lens[rows] * TID_BYTES
            _dense_count_block(
                S,
                _CoverKeyAccountant(self._tidlists, self._pairs, keys),
                keys_matrix,
                key_lens,
                key_nbytes,
                block_size,
                supports,
            )
        for r, itemset in enumerate(targets):
            counts[itemset] = int(supports[r])
        return counts

    def _cover_keys(
        self, itemset: Itemset, block_id: int, available: set[Pair]
    ) -> list[_FetchKey]:
        """Fetch-key sequence for one itemset in one block, rarest first.

        Memoized per (block, itemset) once the block's pairs exist —
        the plan and the ordering depend only on immutable per-block
        catalog state, and BORDERS re-counts overlapping candidate sets
        across maintenance cycles.
        """
        if len(itemset) < 2:
            return list(itemset)
        cache_key = (block_id, itemset)
        keys = self._plan_cache.get(cache_key)
        if keys is not None:
            return keys
        pair_cover, single_cover = plan_cover(itemset, available)
        # Sort entries (count, tag, key): the tag keeps int and tuple
        # keys from being compared with each other on count ties.
        keyed: list[tuple[int, int, _FetchKey]] = [
            (self._pairs.pair_count(block_id, pair), 0, pair) for pair in pair_cover
        ]
        keyed.extend(
            (self._tidlists.item_count(block_id, item), 1, item)
            for item in single_cover
        )
        keyed.sort()
        keys = [key for _, _, key in keyed]
        if self._pairs.has_block(block_id):
            # Before materialization the plan would be pairless and go
            # stale once pairs arrive; don't cache it.
            self._plan_cache[cache_key] = keys
        return keys

    def _count_in_block(self, itemset: Itemset, block_id: int) -> int:
        if not itemset:
            return self._tidlists.block_size(block_id)
        if len(itemset) == 1:
            return int(len(self._tidlists.fetch_list(block_id, itemset[0])))
        available = (
            self._pairs.available(block_id) if self._pairs.has_block(block_id) else set()
        )
        pair_cover, single_cover = plan_cover(itemset, available)
        lists: list[TidList] = []
        for pair in pair_cover:
            lists.append(self._pairs.fetch(block_id, pair))
        for item in single_cover:
            lists.append(self._tidlists.fetch_list(block_id, item))
        return int(len(intersect_many(lists)))
