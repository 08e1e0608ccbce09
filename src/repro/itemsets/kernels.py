"""Intersection kernels for ECUT-style TID-list counting (§3.1.1).

Every ECUT/ECUT+ support count is ultimately an intersection of sorted,
duplicate-free TID arrays.  ``np.intersect1d`` re-sorts its (already
sorted) inputs on every call, so this module owns the intersection
primitives instead — demonlint rule DML006 bans raw ``np.intersect1d``
everywhere else in ``src/repro``:

* :func:`intersect_gallop` — binary-searches the smaller array into the
  larger one; ``O(|small| · log |large|)``, the right kernel when the
  list sizes are skewed (a rare item against a common one).
* :func:`intersect_merge` — concatenates and stable-sorts; numpy's
  stable sort on integer keys is a radix sort, so merging two already
  sorted runs costs ``O(|a| + |b|)`` rather than a comparison sort.
* :class:`BitmapTidList` — a packed ``uint64`` dense representation of
  one block's list (one bit per transaction of the block); intersection
  is a word-wise AND + popcount, and a bitmap∧sorted-array hybrid
  probes each array element against the bitmap in ``O(|array|)``.
* :func:`intersect_pair` / :func:`intersect_many` — the adaptive
  dispatcher of the per-itemset counting path; :func:`force_kernel`
  pins the array∧array choice for ablation benchmarks.
* :func:`pack_rows` — packs lists of either representation into the
  bitmap-word rows that the batched engine
  (:meth:`~repro.itemsets.counting.ECUTCounter.count_batch`) ANDs level
  by level; the batched engine needs no pairwise kernel.

The representations carry their *physical* size so the byte-metered I/O
accounting (``storage/iostats.py``) charges what a disk would serve:
``TID_BYTES`` per tid for sorted arrays, eight bytes per word for
bitmaps.
"""

from __future__ import annotations

from collections.abc import Iterator, Sequence
from contextlib import contextmanager
from typing import Union

import numpy as np

#: Logical bytes per stored transaction identifier.
TID_BYTES = 4

#: dtype used for TID arrays.
TID_DTYPE = np.int64

#: Use the galloping kernel when the larger array is at least this many
#: times the smaller one; below the ratio the linear merge wins because
#: its per-element constant is lower than a binary search.
GALLOP_RATIO = 8

#: Bits per bitmap word.
WORD_BITS = 64

#: Bytes per bitmap word (charged per word fetched).
WORD_BYTES = 8

#: Blocks smaller than this keep plain sorted arrays: a bitmap's word
#: overhead dominates and the arrays are tiny anyway.
BITMAP_MIN_BLOCK = 128

#: An item's list switches to the bitmap representation when it holds at
#: least this fraction of the block's transactions.  At ``1/16`` the
#: bitmap is already half the array's size (``size/8`` bytes vs
#: ``4 · len ≥ size/4``) and word-AND intersection beats any
#: element-wise kernel.
BITMAP_DENSITY = 1.0 / 16.0


if hasattr(np, "bitwise_count"):  # numpy >= 2.0

    def _popcount(words: np.ndarray) -> int:
        return int(np.bitwise_count(words).sum())

else:  # pragma: no cover - exercised only on numpy < 2.0

    def _popcount(words: np.ndarray) -> int:
        return int(np.unpackbits(words.view(np.uint8)).sum())


def _empty() -> np.ndarray:
    return np.empty(0, dtype=TID_DTYPE)


#: The empty TID-list, shared read-only.
EMPTY_TIDS = _empty()
EMPTY_TIDS.flags.writeable = False


class BitmapTidList:
    """One block's TID-list as a packed bit-per-transaction bitmap.

    Bit ``i`` of the bitmap corresponds to global tid ``base + i``; the
    bitmap spans exactly the block's ``size`` transactions (the 0/1
    property guarantees a list never crosses a block boundary).

    Attributes:
        words: Packed ``uint64`` words, little-endian bit order.
        base: Global tid of the block's first transaction.
        size: Number of transactions in the block.
        count: Number of set bits (the item's support in the block).
    """

    __slots__ = ("words", "base", "size", "count")

    def __init__(self, words: np.ndarray, base: int, size: int, count: int):
        self.words = words
        self.base = base
        self.size = size
        self.count = count

    @classmethod
    def from_array(cls, tids: np.ndarray, base: int, size: int) -> "BitmapTidList":
        """Pack a sorted tid array from one block into a bitmap."""
        words = np.zeros((size + WORD_BITS - 1) // WORD_BITS, dtype=np.uint64)
        offsets = (np.asarray(tids, dtype=TID_DTYPE) - base).astype(np.uint64)
        np.bitwise_or.at(
            words,
            offsets >> np.uint64(6),
            np.uint64(1) << (offsets & np.uint64(63)),
        )
        words.flags.writeable = False
        return cls(words, base, size, len(tids))

    def __len__(self) -> int:
        return self.count

    @property
    def nbytes(self) -> int:
        """Physical size: what a fetch of this list is charged."""
        return self.words.nbytes

    def to_array(self) -> np.ndarray:
        """Unpack to the equivalent sorted tid array."""
        bits = np.unpackbits(self.words.view(np.uint8), bitorder="little")
        return np.flatnonzero(bits[: self.size]).astype(TID_DTYPE) + self.base


#: A TID-list in either physical representation.
TidList = Union[np.ndarray, BitmapTidList]


def list_nbytes(tids: TidList) -> int:
    """Physical bytes a fetch of this list is charged."""
    if isinstance(tids, np.ndarray):
        return TID_BYTES * len(tids)
    return tids.nbytes


def as_array(tids: TidList) -> np.ndarray:
    """The sorted-array view of a list in any representation."""
    if isinstance(tids, np.ndarray):
        return tids
    return tids.to_array()


# ----------------------------------------------------------------------
# Array ∧ array kernels
# ----------------------------------------------------------------------

_FORCED_KERNEL: str | None = None


@contextmanager
def force_kernel(name: str | None) -> Iterator[None]:
    """Pin the array∧array kernel choice (``"gallop"``/``"merge"``).

    Used by the kernel-ablation benchmarks; ``None`` restores adaptive
    dispatch.  Not thread-safe — benchmarks are single-threaded.
    """
    global _FORCED_KERNEL
    if name not in (None, "gallop", "merge"):
        raise ValueError(f"unknown kernel {name!r}; use 'gallop', 'merge', or None")
    previous = _FORCED_KERNEL
    _FORCED_KERNEL = name
    try:
        yield
    finally:
        _FORCED_KERNEL = previous


def intersect_gallop(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Intersect two sorted unique arrays by searching small into large.

    ``O(|small| · log |large|)`` — wins when the sizes are skewed.
    """
    small, large = (a, b) if len(a) <= len(b) else (b, a)
    if len(small) == 0:
        return _empty()
    positions = np.searchsorted(large, small)
    # Clamped positions (elements past the end of ``large``) compare a
    # too-large element against large[-1], which cannot match.
    return small[np.take(large, positions, mode="clip") == small]


def intersect_merge(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Intersect two sorted unique arrays by a linear merge.

    The concatenation of two sorted runs is stable-sorted (radix sort
    for integer tids, so effectively ``O(|a| + |b|)``); an element in
    both inputs appears exactly twice, adjacently.
    """
    if len(a) == 0 or len(b) == 0:
        return _empty()
    merged = np.concatenate((a, b))
    merged.sort(kind="stable")
    return merged[:-1][merged[:-1] == merged[1:]]


def intersect_arrays(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Adaptive array∧array intersection (gallop vs merge by skew)."""
    small, large = (a, b) if len(a) <= len(b) else (b, a)
    if len(small) == 0:
        return _empty()
    if _FORCED_KERNEL == "gallop":
        return intersect_gallop(small, large)
    if _FORCED_KERNEL == "merge":
        return intersect_merge(small, large)
    if len(large) >= GALLOP_RATIO * len(small):
        return intersect_gallop(small, large)
    return intersect_merge(small, large)


#: Tids scattered per step of :func:`pack_rows`; bounds its scratch
#: (about 32 bytes per tid) at a few tens of megabytes.
PACK_CHUNK_TIDS = 1 << 20


def pack_rows(
    lists: Sequence[TidList], base_tid: int, block_size: int
) -> np.ndarray:
    """Pack one block's TID-lists into bitset rows of words.

    Row ``r`` holds ``lists[r]`` in the layout of
    :attr:`BitmapTidList.words`: ``ceil(block_size / 64)`` ``uint64``
    words, bit ``t % 64`` of word ``t // 64`` set when tid
    ``base_tid + t`` is present.  Bitmap lists contribute their words.
    Each tid of a sorted array adds its bit into its byte with one
    unbuffered ``np.add.at``; the tids of a list are distinct, so
    adding their bits is OR-ing them.  Arrays are scattered in runs of
    about :data:`PACK_CHUNK_TIDS` tids, so the scratch stays bounded
    however many rows are packed.
    """
    n_words = (block_size + WORD_BITS - 1) // WORD_BITS
    n = len(lists)
    out = np.zeros((n, n_words), dtype=np.uint64)
    # Scatter into the bytes of the little-endian words: byte ``b >> 3``
    # of the flattened rows holds bit ``b``.
    flat = out.reshape(-1).view(np.uint8)
    arrays = [tids if isinstance(tids, np.ndarray) else EMPTY_TIDS for tids in lists]
    sizes = np.fromiter(map(len, arrays), dtype=np.int64, count=n)
    ends = np.cumsum(sizes)
    start = 0
    while start < n:
        done = int(ends[start - 1]) if start else 0
        stop = max(
            start + 1,
            int(np.searchsorted(ends, done + PACK_CHUNK_TIDS, side="right")),
        )
        # Bit positions in the flattened rows: the tid's offset in the
        # block plus its row's first bit.
        bit = np.concatenate(arrays[start:stop])
        bit += np.repeat(
            np.arange(start, stop, dtype=np.int64) * (n_words * WORD_BITS)
            - base_tid,
            sizes[start:stop],
        )
        low = bit.astype(np.uint8) & np.uint8(7)
        np.add.at(flat, bit >> 3, np.left_shift(np.uint8(1), low))
        start = stop
    for r, tids in enumerate(lists):
        if isinstance(tids, BitmapTidList):
            out[r] = tids.words
    return out


# ----------------------------------------------------------------------
# Bitmap kernels
# ----------------------------------------------------------------------


def intersect_bitmaps(a: BitmapTidList, b: BitmapTidList) -> BitmapTidList:
    """Word-wise AND of two bitmaps from the same block."""
    if a.base != b.base or a.size != b.size:
        raise ValueError("bitmap intersection requires lists of the same block")
    words = a.words & b.words
    return BitmapTidList(words, a.base, a.size, _popcount(words))


def intersect_bitmap_array(bitmap: BitmapTidList, array: np.ndarray) -> np.ndarray:
    """Hybrid: keep the sorted tids whose bit is set in the bitmap.

    ``O(|array|)`` — each tid probes one word; the result stays a sorted
    array (the sparser representation once a hybrid step happened).
    """
    if len(array) == 0:
        return _empty()
    offsets = (array - bitmap.base).astype(np.uint64)
    hits = (bitmap.words[offsets >> np.uint64(6)] >> (offsets & np.uint64(63))) & 1
    return array[hits.astype(bool)]


# ----------------------------------------------------------------------
# Unified dispatch
# ----------------------------------------------------------------------


def intersect_pair(a: TidList, b: TidList) -> TidList:
    """Intersect two TID-lists of one block, picking the best kernel.

    bitmap∧bitmap stays a bitmap (word AND); bitmap∧array degrades to a
    sorted array via the hybrid probe; array∧array dispatches between
    galloping and linear merge on size skew.
    """
    a_dense = isinstance(a, BitmapTidList)
    b_dense = isinstance(b, BitmapTidList)
    if a_dense and b_dense:
        return intersect_bitmaps(a, b)
    if a_dense:
        return intersect_bitmap_array(a, b)
    if b_dense:
        return intersect_bitmap_array(b, a)
    return intersect_arrays(a, b)


def intersect_many(lists: Sequence[TidList]) -> TidList:
    """Intersect several TID-lists of one block, smallest first.

    The running intersection only shrinks; an empty one short-circuits.
    Returns an empty array for no input (callers treat the empty
    itemset separately, as the whole block).
    """
    if not lists:
        return _empty()
    ordered = sorted(lists, key=len)
    running: TidList = ordered[0]
    for other in ordered[1:]:
        if len(running) == 0:
            break
        running = intersect_pair(running, other)
    return running
