"""Per-block TID-lists for ECUT-style support counting (§3.1.1).

ECUT counts the support of an itemset ``X = {i1, ..., ik}`` by
intersecting the TID-lists ``θ(i1), ..., θ(ik)``; the cardinality of
the intersection is the support.  Two properties of systematic block
evolution let TID-lists be partitioned one-per-block and built exactly
once, when the block arrives:

* **additivity** — the support of ``X`` on ``D[1, t]`` is the sum of
  its per-block supports;
* **0/1 property** — a BSS selects a block completely or not at all, so
  a per-block list never needs to be split.

Transaction identifiers are global and increase in arrival order, so
within a block the per-item lists are built by a single scan appending
each transaction's tid to the list of every item it contains.

Physically each per-block list is stored either as a sorted tid array
or — for items dense enough in a large enough block — as a packed
bitmap (see :mod:`repro.itemsets.kernels`); the store picks the
representation at :meth:`TidListStore.materialize_block` time.  The
store does not intersect: the counting engine
(:mod:`repro.itemsets.counting`) takes a block's lists as bitset rows
through :meth:`TidListStore.packed_rows` and meters their physical
sizes itself, while :meth:`TidListStore.fetch` serves and charges one
list at a time.  Materialized arrays are frozen (``writeable = False``):
fetches return the store's physical arrays without copying, so a caller
mutating a fetched list would otherwise silently corrupt every later
count.
"""

from __future__ import annotations

from typing import Any

import numpy as np

from repro.core.blocks import Block
from repro.itemsets.itemset import Transaction
from repro.itemsets.kernels import (
    TID_BYTES,
    TID_DTYPE,
    BITMAP_DENSITY,
    BITMAP_MIN_BLOCK,
    BitmapTidList,
    EMPTY_TIDS,
    WORD_BYTES,
    TidList,
    as_array,
    list_nbytes,
    pack_rows,
)
from repro.storage.iostats import IOStats, IOStatsRegistry

__all__ = [
    "TID_BYTES",
    "TID_DTYPE",
    "TidListStore",
]


class TidListStore:
    """Disk-simulated store of per-block, per-item TID-lists.

    Every fetch is charged to an I/O counter at the list's physical
    size (:data:`TID_BYTES` per tid for arrays, eight bytes per word
    for dense bitmaps), so benchmarks can verify the paper's claim that
    ECUT touches one to two orders of magnitude fewer bytes than a full
    scan.

    Args:
        registry: I/O registry to charge fetches to; private if omitted.
        counter_name: Counter name within the registry.
    """

    def __init__(
        self,
        registry: IOStatsRegistry | None = None,
        counter_name: str = "tidlist_fetch",
    ):
        self.registry = registry if registry is not None else IOStatsRegistry()
        self._stats = self.registry.get(counter_name)
        self._lists: dict[int, dict[int, TidList]] = {}
        self._block_sizes: dict[int, int] = {}
        self._base_tids: dict[int, int] = {}
        self._sources: dict[int, Block[Transaction]] = {}
        self._next_tid = 0

    @property
    def stats(self) -> IOStats:
        """The counter fetches are charged to."""
        return self._stats

    def materialize_block(self, block: Block[Transaction]) -> None:
        """Build the TID-lists of all items for one arriving block.

        Transaction identifiers continue the global sequence.  The block
        is scanned once; the scan itself is not charged here (the caller
        typically scans the block anyway to update the model and charges
        that scan to the block store).  Items holding at least
        :data:`~repro.itemsets.kernels.BITMAP_DENSITY` of a block of at
        least :data:`~repro.itemsets.kernels.BITMAP_MIN_BLOCK`
        transactions are packed into bitmaps; everything else stays a
        frozen sorted array.
        """
        if block.block_id in self._lists:
            raise ValueError(f"TID-lists for block {block.block_id} already built")
        buffers: dict[int, list[int]] = {}
        base = self._next_tid
        tid = base
        for chunk in block.iter_chunks():
            for transaction in chunk:
                for item in transaction:
                    buffers.setdefault(item, []).append(tid)
                tid += 1
        self._next_tid = tid
        size = block.num_records
        dense_cutoff = (
            BITMAP_DENSITY * size if size >= BITMAP_MIN_BLOCK else float("inf")
        )
        block_lists: dict[int, TidList] = {}
        for item, tids in buffers.items():
            array = np.asarray(tids, dtype=TID_DTYPE)
            array.flags.writeable = False
            if len(tids) >= dense_cutoff:
                block_lists[item] = BitmapTidList.from_array(array, base, size)
            else:
                block_lists[item] = array
        self._lists[block.block_id] = block_lists
        self._block_sizes[block.block_id] = size
        self._base_tids[block.block_id] = base
        self._sources[block.block_id] = block

    def has_block(self, block_id: int) -> bool:
        """Whether TID-lists for this block have been materialized."""
        return block_id in self._lists

    def block_size(self, block_id: int) -> int:
        """Number of transactions in a materialized block."""
        return self._block_sizes[block_id]

    def base_tid(self, block_id: int) -> int:
        """Global tid of a block's first transaction."""
        return self._base_tids[block_id]

    def compress_block(self, block_id: int) -> None:
        """Release one block's lists (it can never be selected again).

        The session calls this through the maintainer's
        ``release_block`` when the block slides out of the most recent
        window: the lists, their sizes, and the source handle all go.
        Idempotent and safe for unknown block ids.  The method keeps its
        historical name because the end-to-end benchmark's ledger binds
        ``TidListStore.compress_block`` for its ``tidlist.compress``
        span.
        """
        self._lists.pop(block_id, None)
        self._block_sizes.pop(block_id, None)
        self._base_tids.pop(block_id, None)
        self._sources.pop(block_id, None)

    def source_block(self, block_id: int) -> Block[Transaction] | None:
        """The block handle this store materialized ``block_id`` from.

        GEMM's off-line chains (:mod:`repro.parallel`) use the handle
        to build a zero-copy ref for workers.  ``None`` when the block
        was never materialized here or the store was restored from a
        checkpoint (handles are execution state, not model state — see
        ``__getstate__`` — so a freshly restored session maintains
        in-process until new blocks arrive).
        """
        return self._sources.get(block_id)

    def __getstate__(self) -> dict[str, Any]:
        # Block handles are backend-bound execution state: pickling
        # them would materialize every block into the checkpoint (and
        # make its bytes depend on registration order of live handles).
        # The TID-lists themselves are self-contained and are what
        # persists.
        state = dict(self.__dict__)
        state["_sources"] = {}
        return state

    def __setstate__(self, state: dict[str, Any]) -> None:
        state.setdefault("_sources", {})
        self.__dict__.update(state)

    def _block_lists(self, block_id: int) -> dict[int, TidList]:
        block_lists = self._lists.get(block_id)
        if block_lists is None:
            raise KeyError(f"no TID-lists materialized for block {block_id}")
        return block_lists

    def fetch(self, block_id: int, item: int) -> np.ndarray:
        """Fetch one item's TID-list as a sorted array, charging the read.

        The charge is the physical representation's size; bitmaps are
        unpacked for the caller after the (cheaper) bitmap fetch.  The
        returned array is read-only when it aliases store memory.
        """
        tids = self._block_lists(block_id).get(item, EMPTY_TIDS)
        self._stats.record_read(list_nbytes(tids))
        return as_array(tids)

    def item_count(self, block_id: int, item: int) -> int:
        """Length of one per-block list without charging a fetch.

        List lengths are catalog metadata (they equal the item's support
        in the block), available without reading the list body.
        """
        tids = self._block_lists(block_id).get(item)
        return 0 if tids is None else len(tids)

    def item_counts(self, block_id: int) -> dict[int, int]:
        """Every item of a block with its uncharged :meth:`item_count`."""
        return {item: len(tids) for item, tids in self._block_lists(block_id).items()}

    def packed_rows(
        self, block_id: int, items: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Bitmap-word rows, lengths, and physical sizes aligned to ``items``.

        The counting engine's bulk access path: one call per block
        instead of one store fetch per list.  Only the requested
        items are packed, on every call, by
        :func:`~repro.itemsets.kernels.pack_rows`, so the store keeps no
        per-block packed state.  Items absent from the block get an
        all-zero row and size 0.  Returns fresh (writable) arrays; the
        fetch *charges* are metered by the counting engine.
        """
        block_lists = self._block_lists(block_id)
        size = self._block_sizes[block_id]
        lists = [block_lists.get(item, EMPTY_TIDS) for item in items.tolist()]
        rows = pack_rows(lists, self._base_tids[block_id], size)
        lens = np.fromiter(map(len, lists), dtype=np.int64, count=len(lists))
        # Physical sizes: TID_BYTES per tid of an array, and a bitmap's
        # words, which are exactly one packed row.
        nbytes = lens * TID_BYTES
        nbytes[[isinstance(tids, BitmapTidList) for tids in lists]] = (
            rows.shape[1] * WORD_BYTES
        )
        return rows, lens, nbytes

    def nbytes(self, block_id: int) -> int:
        """Physical size of one block's item TID-lists."""
        return sum(list_nbytes(t) for t in self._block_lists(block_id).values())

    def total_nbytes(self) -> int:
        """Physical size of all materialized item TID-lists."""
        return sum(self.nbytes(block_id) for block_id in self._lists)
