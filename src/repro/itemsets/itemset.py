"""Itemset and transaction primitives.

An *item* is a small non-negative integer identifier; a *transaction*
and an *itemset* are sets of items (paper §3).  Throughout the package
an itemset is canonically represented as a sorted tuple of item ids —
hashable, ordered (which makes the Apriori prefix join trivial), and
cheap to subset.
"""

from __future__ import annotations

import math
from collections.abc import Collection, Iterable, Iterator, Sequence
from itertools import combinations, islice

#: Canonical itemset type: strictly increasing tuple of item ids.
Itemset = tuple[int, ...]

#: Canonical transaction type: strictly increasing tuple of item ids.
Transaction = tuple[int, ...]


def make_itemset(items: Iterable[int]) -> Itemset:
    """Canonicalize ``items`` into a sorted duplicate-free tuple."""
    return tuple(sorted(set(items)))


def normalize_transaction(items: Iterable[int]) -> Transaction:
    """Canonicalize a transaction: sorted, duplicate-free item ids."""
    return tuple(sorted(set(items)))


def is_canonical(itemset: Sequence[int]) -> bool:
    """Whether ``itemset`` is already sorted and duplicate-free."""
    return all(itemset[i] < itemset[i + 1] for i in range(len(itemset) - 1))


def contains(transaction: Transaction, itemset: Itemset) -> bool:
    """Whether the transaction contains the itemset (``X ⊆ T``).

    Both arguments must be canonical (sorted); the check is a linear
    merge rather than building sets.
    """
    ti = 0
    n = len(transaction)
    for item in itemset:
        while ti < n and transaction[ti] < item:
            ti += 1
        if ti >= n or transaction[ti] != item:
            return False
        ti += 1
    return True


def proper_subsets(itemset: Itemset) -> Iterator[Itemset]:
    """All proper subsets of size ``len(itemset) - 1``.

    These are the subsets Apriori's prune step and the negative-border
    definition quantify over.
    """
    for i in range(len(itemset)):
        yield itemset[:i] + itemset[i + 1 :]


def all_subsets(itemset: Itemset) -> Iterator[Itemset]:
    """Every non-empty proper subset of the itemset, smallest first."""
    for size in range(1, len(itemset)):
        yield from combinations(itemset, size)


def prefix_join(a: Itemset, b: Itemset) -> Itemset | None:
    """Join two k-itemsets sharing their first ``k-1`` items (AMS+96).

    Returns the (k+1)-itemset, or ``None`` when the join is undefined.
    The caller is expected to present ``a < b`` lexicographically; the
    function returns ``None`` otherwise so callers can iterate ordered
    pairs without pre-filtering.
    """
    if len(a) != len(b) or not a:
        return None
    if a[:-1] != b[:-1] or a[-1] >= b[-1]:
        return None
    return a + (b[-1],)


def generate_candidates(frequent: Collection[Itemset]) -> set[Itemset]:
    """Apriori candidate generation: prefix join + subset prune.

    Given the frequent k-itemsets, produce the (k+1)-candidates whose
    every k-subset is frequent.  A join's two parents are its first two
    k-subsets, so only the other ``k - 1`` are checked.
    """
    frequent_set = set(frequent)

    def others_frequent(joined: Itemset) -> bool:
        others = islice(combinations(joined, len(joined) - 1), 2, None)
        return all(map(frequent_set.__contains__, others))

    # Group the last items by shared (k-1)-prefix so the join is
    # near-linear; sorting keeps each group's last items ascending.
    by_prefix: dict[Itemset, list[int]] = {}
    for itemset in sorted(frequent_set):
        by_prefix.setdefault(itemset[:-1], []).append(itemset[-1])
    candidates: set[Itemset] = set()
    for prefix, lasts in by_prefix.items():
        joins = map(prefix.__add__, combinations(lasts, 2))
        candidates.update(filter(others_frequent, joins) if prefix else joins)
    return candidates


def support_fraction(count: int, total: int) -> float:
    """Support ``σ_D(X)`` as a fraction; 0.0 over an empty dataset."""
    if total <= 0:
        return 0.0
    return count / total


def minimum_count(minsup: float, total: int) -> int:
    """The smallest absolute count that meets ``σ >= minsup``.

    Uses a half-ulp tolerance so that e.g. ``minsup=0.01, total=300``
    yields 3 rather than 4 when ``0.01 * 300`` lands on 3.0 minus one
    floating-point ulp.
    """
    if not 0 < minsup < 1:
        raise ValueError(f"minimum support must be in (0, 1), got {minsup}")
    exact = minsup * total
    threshold = math.ceil(exact - 1e-9)
    return max(threshold, 1)
