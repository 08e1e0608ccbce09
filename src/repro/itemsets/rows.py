"""Item matrices: itemsets of one size as the rows of an int array.

An item matrix holds ``n`` itemsets of size ``k`` as an ``(n, k)``
int64 array, items ascending within each row.  BORDERS keeps its model
in such matrices (:mod:`repro.itemsets.model`) and answers "is this
itemset tracked?" and "are all its subsets frequent?" for every row at
once: rows become int64 keys, and membership is one ``np.isin``.
"""

from __future__ import annotations

from collections.abc import Collection, Sequence

import numpy as np

from repro.itemsets.itemset import Itemset

_KEY_LIMIT = 1 << 63


def item_matrix(itemsets: Collection[Itemset], k: int) -> np.ndarray:
    """The ``(n, k)`` matrix of size-``k`` itemsets, in the given order."""
    return np.array(list(itemsets), dtype=np.int64).reshape(len(itemsets), k)


def row_keys(*matrices: np.ndarray) -> list[np.ndarray]:
    """One int64 key per row of each matrix, equal iff the rows are equal.

    The matrices share their width.  A row is read as a number in base
    ``max item + 1`` while that fits in 63 bits, which keeps key order
    lexicographic; wider rows are numbered by ``np.unique`` over the rows
    of all the matrices instead.
    """
    width = matrices[0].shape[1]
    base = 1 + max((int(m.max()) for m in matrices if m.size), default=0)
    if base**width < _KEY_LIMIT:
        weights = base ** np.arange(width - 1, -1, -1, dtype=np.int64)
        return [m @ weights for m in matrices]
    _, ids = np.unique(np.concatenate(matrices), axis=0, return_inverse=True)
    bounds = np.cumsum([len(m) for m in matrices[:-1]], dtype=np.int64)
    return np.split(ids.reshape(-1), bounds)


def drop_each(rows: np.ndarray) -> np.ndarray:
    """Every immediate subset: ``(k * n, k - 1)``, row ``j * n + r`` is
    row ``r`` without its ``j``-th item."""
    n, k = rows.shape
    keep = [c for j in range(k) for c in range(k) if c != j]
    subsets = rows[:, keep].reshape(n, k, k - 1).transpose(1, 0, 2)
    return subsets.reshape(k * n, k - 1)


def isin_rows(rows: np.ndarray, table: np.ndarray) -> np.ndarray:
    """Whether each row of ``rows`` is a row of ``table``."""
    query, known = row_keys(rows, table)
    return np.isin(query, known)


def subsets_in(rows: np.ndarray, table: np.ndarray) -> np.ndarray:
    """``(n, k)`` mask: whether row ``r`` without item ``j`` is a row of
    ``table``."""
    n, k = rows.shape
    return isin_rows(drop_each(rows), table).reshape(k, n).T


def join_rows(base: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """Each ``base`` row plus one item, where ``rows`` holds the rest.

    For a base row ``b`` and every row ``f`` of ``rows`` that is
    ``b[1:]`` plus an item ``i`` other than ``b[0]``, the result holds
    the row ``b + i`` sorted: the ``(k+1)``-itemsets whose subset
    without ``b[0]`` is in ``rows``, distinct and in lexicographic order.
    """
    subsets, prefixes = row_keys(drop_each(rows), base[:, 1:])
    # Row j * n + r of drop_each(rows) lacks item rows[r, j].
    items = rows.T.reshape(-1)
    order = np.argsort(subsets, kind="stable")
    start = np.searchsorted(subsets[order], prefixes, "left")
    sizes = np.searchsorted(subsets[order], prefixes, "right") - start
    owner = np.repeat(np.arange(len(base)), sizes)
    offset = np.arange(len(owner)) - np.repeat(np.cumsum(sizes) - sizes, sizes)
    items = items[order[start[owner] + offset]]
    fresh = items != base[owner, 0]
    joined = np.sort(np.column_stack([base[owner[fresh]], items[fresh]]), axis=1)
    _, first = np.unique(row_keys(joined)[0], return_index=True)
    return joined[first]


def pad_stack(matrices: Sequence[np.ndarray]) -> np.ndarray:
    """Matrices of any widths stacked into one, rows ``-1``-padded."""
    width = max((m.shape[1] for m in matrices), default=0)
    out = np.full((sum(map(len, matrices)), max(width, 1)), -1, dtype=np.int64)
    start = 0
    for m in matrices:
        out[start : start + len(m), : m.shape[1]] = m
        start += len(m)
    return out


def lexsorted(rows: np.ndarray) -> np.ndarray:
    """Indices that put the rows in ascending lexicographic order."""
    return np.lexsort(rows.T[::-1]) if rows.shape[1] else np.arange(len(rows))
