"""Physical TID-list representations and bitset-row packing (§3.1.1).

Every ECUT/ECUT+ support count is the cardinality of an intersection
of per-block TID-lists.  The one counting engine
(:meth:`~repro.itemsets.counting.ECUTCounter.count_batch`) intersects
them as rows of bitmap words — a word-wise AND and a row popcount — so
this module holds no pairwise intersection kernel, only what the
stores and the engine need to get lists into that form:

* :class:`BitmapTidList` — a packed ``uint64`` dense representation of
  one block's list (one bit per transaction of the block).  Dense items
  are stored this way because the bitmap is at most half the sorted
  array's size once an item holds :data:`BITMAP_DENSITY` of its block
  (a thirty-second of it for an item in every transaction).
* :func:`pack_rows` — packs lists of either representation into the
  bitmap-word rows that the engine ANDs level by level.

The representations carry their *physical* size so the byte-metered I/O
accounting (``storage/iostats.py``) charges what a disk would serve:
``TID_BYTES`` per tid for sorted arrays, eight bytes per word for
bitmaps.
"""

from __future__ import annotations

from collections.abc import Sequence
from typing import Union

import numpy as np

#: Logical bytes per stored transaction identifier.
TID_BYTES = 4

#: dtype used for TID arrays.
TID_DTYPE = np.int64

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
#: ``4 · len ≥ size/4``).
BITMAP_DENSITY = 1.0 / 16.0


#: The empty TID-list, shared read-only.
EMPTY_TIDS = np.empty(0, dtype=TID_DTYPE)
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

