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

All three implement :meth:`SupportCounter.count_batch`, so BORDERS
treats them interchangeably.  PT-Scan's is one prefix tree and one
scan.  ECUT's and ECUT+'s share one engine: per block, every candidate
is a rarest-first sequence of fetch keys, and the candidates advance
level-synchronously over packed bitset rows — one depth of every
candidate's running intersection is one fancy-indexed ``&`` and one
row popcount.  The running rows are processed in chunks under a fixed
byte budget (:data:`DENSE_CHUNK_BYTES`), so one engine serves every
block size.

The I/O accounting is defined per candidate and block.  A candidate
walks its keys in order (ECUT: items rarest-first; ECUT+: its
:func:`~repro.itemsets.materialize.plan_cover` keys shortest-first) and
*uses* each key until its running intersection empties; a key past
that point is never used.  Every use costs the key's physical size, so
``bytes_read + bytes_cached`` of a block is the summed size of all
uses.  The first use of a distinct key in a block and batch is its one
charged read; every further use is a recorded cache hit, so the byte
meter sees what a buffer pool would serve from disk.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from collections.abc import Collection, Sequence, Sized
from itertools import chain
from typing import Any, Union

import numpy as np

from repro.itemsets.itemset import Itemset, Transaction
from repro.itemsets.kernels import TID_BYTES
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
    def count_batch(
        self, itemsets: Collection[Itemset], block_ids: Sequence[int]
    ) -> dict[Itemset, int]:
        """Absolute support counts of ``itemsets`` over ``block_ids``."""


class PTScanCounter(SupportCounter):
    """Full-scan counting through a prefix tree (the BORDERS baseline).

    One prefix tree over all of ``S``, one pass over the data.

    Args:
        store: Block store holding the transactional data; every
            selected block is scanned in full (and charged).
    """

    name = "PT-Scan"

    def __init__(self, store: BlockStore[Transaction]):
        self._store = store

    def count_batch(
        self, itemsets: Collection[Itemset], block_ids: Sequence[int]
    ) -> dict[Itemset, int]:
        if not itemsets:
            return {}
        tree = PrefixTree(itemsets)
        tree.count_dataset(self._store.scan_many(block_ids))
        return tree.counts()


# ----------------------------------------------------------------------
# The TID-list engine: level-synchronous bitset rows, chunked
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


def _padded_rows(sequences: Sequence[Sized], values: np.ndarray) -> np.ndarray:
    """A ``-1``-padded matrix whose row ``r`` holds the next
    ``len(sequences[r])`` of ``values``."""
    lengths = np.fromiter(map(len, sequences), dtype=np.int64, count=len(sequences))
    rows = np.full((len(lengths), max(1, int(lengths.max()))), -1, dtype=np.int64)
    rows[np.arange(rows.shape[1]) < lengths[:, None]] = values
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

    A candidate's key at depth ``d`` is used only while its depth
    ``d-1`` intersection is non-empty, as the module docstring's
    accounting defines: the first use of a key in the block charges the
    store, every further use is a recorded cache hit.
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
            # intersection is empty: its deeper keys are never used.
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


class ECUTCounter(SupportCounter):
    """TID-list intersection counting (Efficient Counting Using TID-lists).

    Args:
        tidlists: Per-block single-item TID-list store.
    """

    name = "ECUT"

    def __init__(self, tidlists: TidListStore):
        self._tidlists = tidlists

    def count_batch(
        self, itemsets: Collection[Itemset], block_ids: Sequence[int]
    ) -> dict[Itemset, int]:
        """ECUT: per block, rarest-first rows of the dense engine.

        Orders every itemset's items rarest-first, so itemsets sharing
        rare items share the fetches of their lists.
        """
        targets = list(dict.fromkeys(itemsets))
        if not targets:
            return {}
        flat = np.fromiter(chain.from_iterable(targets), dtype=np.int64)
        if not flat.size:
            # Only empty itemsets: each counts every block in full.
            total = sum(self._tidlists.block_size(b) for b in block_ids)
            return dict.fromkeys(targets, total)
        # The batch's distinct items, ascending, and each position's index.
        items_array, positions = np.unique(flat, return_inverse=True)
        n_items = len(items_array)
        T = _padded_rows(targets, positions.reshape(-1))
        supports = np.zeros(len(targets), dtype=np.int64)
        # One rank slot past the items: the -1 padding indexes it.
        rank = np.full(n_items + 1, _PAD, dtype=np.int64)
        item_arange = np.arange(n_items, dtype=np.int64)
        for block_id in block_ids:
            # Rank items by (per-block count, item): `items_array` is sorted,
            # so the index is the tie-break — a stable count-sort of
            # each itemset's items.
            keys_matrix, block_counts, key_nbytes = self._tidlists.packed_rows(
                block_id, items_array
            )
            rank[:-1] = block_counts * n_items + item_arange
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
        # which process happened to count which block (GEMM's off-line
        # chains plan covers in worker replicas).
        state = dict(self.__dict__)
        state["_plan_cache"] = {}
        return state

    def __setstate__(self, state: dict[str, Any]) -> None:
        state.setdefault("_plan_cache", {})
        self.__dict__.update(state)

    def count_batch(
        self, itemsets: Collection[Itemset], block_ids: Sequence[int]
    ) -> dict[Itemset, int]:
        """ECUT+: per block, covers feed the dense engine.

        Every itemset's :func:`plan_cover` result (against the block's
        materialized pairs) becomes a sequence of fetch keys, ordered
        shortest-list-first; itemsets whose covers share pairs or rare
        singles share their fetches.
        """
        targets = list(dict.fromkeys(itemsets))
        if not targets:
            return {}
        supports = np.zeros(len(targets), dtype=np.int64)
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
            flat = [
                key_index.setdefault(key, len(key_index))
                for keys in sequences
                for key in keys
            ]
            S = _padded_rows(sequences, np.array(flat, dtype=np.int64))
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
        return dict(zip(targets, supports.tolist()))

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
