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
  dispatcher the stores and counters use; :func:`force_kernel` pins the
  array∧array choice for ablation benchmarks.

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


def count_arrays(a: np.ndarray, b: np.ndarray) -> int:
    """``len(intersect_arrays(a, b))`` without materializing the result.

    Terminal trie edges in the batched counter only need the support
    count, which saves the final fancy-index of each kernel.
    """
    small, large = (a, b) if len(a) <= len(b) else (b, a)
    if len(small) == 0:
        return 0
    if _FORCED_KERNEL != "merge" and (
        _FORCED_KERNEL == "gallop" or len(large) >= GALLOP_RATIO * len(small)
    ):
        positions = np.searchsorted(large, small)
        return int(
            np.count_nonzero(np.take(large, positions, mode="clip") == small)
        )
    merged = np.concatenate((small, large))
    merged.sort(kind="stable")
    return int(np.count_nonzero(merged[:-1] == merged[1:]))


def count_segments(running: np.ndarray, probes: Sequence[np.ndarray]) -> list[int]:
    """``[count_arrays(running, p) for p in probes]`` in one numpy pass.

    All probe arrays are concatenated and searched into ``running``
    together; per-probe hit counts fall out of a prefix sum over the
    match mask.  Empty probes are allowed and count zero.  This is the
    sibling-leaf kernel of the batched counter: one call replaces
    ``len(probes)`` separate intersections.
    """
    if not probes:
        return []
    if len(running) == 0:
        return [0] * len(probes)
    if _FORCED_KERNEL == "merge":
        # Keep the ablation honest: forcing the merge kernel disables
        # the searchsorted-based segmented fast path too.
        return [count_arrays(running, p) for p in probes]
    sizes = np.fromiter((len(p) for p in probes), dtype=np.intp, count=len(probes))
    if int(sizes.sum()) == 0:
        return [0] * len(probes)
    concatenated = np.concatenate(probes)
    positions = np.searchsorted(running, concatenated)
    hits = np.take(running, positions, mode="clip") == concatenated
    prefix = np.concatenate(([0], np.cumsum(hits)))
    bounds = np.concatenate(([0], np.cumsum(sizes)))
    return (prefix[bounds[1:]] - prefix[bounds[:-1]]).tolist()


def pack_rows(
    arrays: Sequence[np.ndarray], base_tid: int, block_size: int
) -> np.ndarray:
    """Pack sorted tid arrays of one block into bitset rows.

    Row ``r`` holds ``arrays[r]`` as a little-endian packed bitset (bit
    ``t`` = "tid ``base_tid + t`` present"), byte-compatible with
    :attr:`BitmapTidList.words` viewed as bytes.  The scatter goes
    through a boolean staging buffer processed in bounded-size chunks,
    so packing a whole block's catalog never allocates more than a few
    megabytes of scratch.
    """
    width = (block_size + 7) >> 3
    out = np.empty((len(arrays), width), dtype=np.uint8)
    chunk = max(1, (1 << 23) // max(block_size, 1))
    for start in range(0, len(arrays), chunk):
        part = arrays[start : start + chunk]
        buf = np.zeros((len(part), block_size), dtype=bool)
        flat = np.concatenate(part) - base_tid
        flat += np.repeat(
            np.arange(len(part), dtype=np.int64) * block_size,
            [len(a) for a in part],
        )
        buf.flat[flat] = True
        out[start : start + len(part)] = np.packbits(
            buf, axis=1, bitorder="little"
        )
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


def count_pair(a: TidList, b: TidList) -> int:
    """``len(intersect_pair(a, b))`` without materializing the result."""
    a_dense = isinstance(a, BitmapTidList)
    b_dense = isinstance(b, BitmapTidList)
    if a_dense and b_dense:
        if a.base != b.base or a.size != b.size:
            raise ValueError("bitmap intersection requires lists of the same block")
        return _popcount(a.words & b.words)
    if a_dense or b_dense:
        bitmap, array = (a, b) if a_dense else (b, a)
        if len(array) == 0:
            return 0
        offsets = (array - bitmap.base).astype(np.uint64)
        hits = (bitmap.words[offsets >> np.uint64(6)] >> (offsets & np.uint64(63))) & 1
        return int(hits.sum())
    return count_arrays(a, b)


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
