"""Test-side oracles for support counting, built on the raw transactions.

:func:`reference_counts` is the definition of support: a brute-force
scan of every selected transaction.  :func:`oracle_io` is the
definition of the counting engines' I/O accounting, computed one
candidate at a time on Python sets: per block, a candidate walks its
fetch keys in order and uses each key until its running intersection
empties.  ECUT walks the items rarest-first; ECUT+ walks its
:func:`~repro.itemsets.materialize.plan_cover` keys shortest-first.
Every use costs the key's physical size; the first use of a distinct
key in a block is a read, every further use a cache hit.
"""

from typing import NamedTuple

from repro.itemsets.itemset import contains
from repro.itemsets.kernels import (
    BITMAP_DENSITY,
    BITMAP_MIN_BLOCK,
    TID_BYTES,
    WORD_BYTES,
)
from repro.itemsets.materialize import plan_cover


def reference_counts(blocks, itemsets, block_ids):
    """Support of each itemset over the selected blocks, by full scan."""
    selected = [b for b in blocks if b.block_id in block_ids]
    return {
        x: sum(1 for b in selected for t in b.tuples if contains(t, x))
        for x in itemsets
    }


class IO(NamedTuple):
    """Accounting totals summed over the item and pair stores."""

    reads: int
    cache_hits: int
    bytes_read: int
    bytes_cached: int


def store_io(context, fn):
    """``fn()``'s result and the :class:`IO` it charged to ``context``'s
    item and pair stores."""
    stats = (context.tidlists.stats, context.pairs.stats)
    before = [s.snapshot() for s in stats]
    result = fn()
    deltas = [s.delta_since(b) for s, b in zip(stats, before)]
    return result, IO(*(sum(getattr(d, f) for d in deltas) for f in IO._fields))


def _item_nbytes(n_tids, block_size):
    """Physical size of an item list: a bitmap when the item is dense in
    a large enough block, else a sorted array."""
    if block_size >= BITMAP_MIN_BLOCK and n_tids >= BITMAP_DENSITY * block_size:
        return WORD_BYTES * ((block_size + 63) // 64)
    return TID_BYTES * n_tids


def oracle_io(blocks, itemsets, block_ids, pairs=None):
    """Supports and :class:`IO` of counting ``itemsets`` one at a time.

    ``pairs`` is ECUT+'s pair store (its per-block catalog decides the
    covers); ``None`` walks plain ECUT.  Duplicate itemsets are counted
    once, as a batch counts them.
    """
    by_id = {b.block_id: b for b in blocks}
    supports = dict.fromkeys(itemsets, 0)
    reads = uses = bytes_read = use_bytes = 0
    for block_id in block_ids:
        block = by_id[block_id]
        size = len(block.tuples)
        items = {}
        for t, transaction in enumerate(block.tuples):
            for item in transaction:
                items.setdefault(item, set()).add(t)
        tids = {}

        def tids_of(key):
            if key not in tids:
                if type(key) is tuple:
                    tids[key] = items[key[0]] & items[key[1]]
                else:
                    tids[key] = items.get(key, set())
            return tids[key]

        def nbytes(key):
            if type(key) is tuple:
                return TID_BYTES * len(tids_of(key))
            return _item_nbytes(len(tids_of(key)), size)

        available = pairs.available(block_id) if pairs is not None else set()
        used = set()
        for itemset in list(supports):
            if pairs is None:
                keys = sorted(itemset, key=lambda item: (len(tids_of(item)), item))
            else:
                pair_cover, singles = plan_cover(itemset, available)
                # Pairs before singles of the same length.
                keyed = [(len(tids_of(p)), 0, p) for p in pair_cover]
                keyed += [(len(tids_of(i)), 1, i) for i in singles]
                keys = [key for _, _, key in sorted(keyed)]
            # ``None`` is the whole block: the empty itemset's support.
            running = None
            for key in keys:
                if running is not None and not running:
                    break
                running = tids_of(key) if running is None else running & tids_of(key)
                uses += 1
                use_bytes += nbytes(key)
                used.add(key)
            supports[itemset] += size if running is None else len(running)
        reads += len(used)
        bytes_read += sum(nbytes(key) for key in used)
    return supports, IO(reads, uses - reads, bytes_read, use_bytes - bytes_read)
