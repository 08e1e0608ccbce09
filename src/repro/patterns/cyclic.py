"""Post-processing compact sequences into specialized pattern types (§4).

The set of compact sequences is a substrate: further constraints such as
cyclicity are imposed by post-processing.  The paper's example: from the
compact sequence ``⟨D1, D3, D4, D5, D7⟩`` one derives the cyclic
sequence ``⟨D1, D3, D5, D7⟩``.  A *cyclic* sequence
is one whose block identifiers form an arithmetic progression (a fixed
period), which is what "every Monday" or "every 7th block" look like.
"""

from __future__ import annotations

from collections.abc import Sequence

from repro.patterns.compact import CompactSequence


def longest_cyclic_subsequence(block_ids: Sequence[int]) -> list[int]:
    """The longest arithmetic-progression subsequence of the ids.

    Classic O(n²) dynamic program over sorted identifiers; ties favor
    the smaller period (denser cycles are more useful as selection
    predicates).

    Returns:
        The ids of the longest cyclic subsequence (at least one id when
        the input is non-empty; any two ids are trivially cyclic).
    """
    ids = sorted(set(block_ids))
    n = len(ids)
    if n <= 2:
        return list(ids)
    # best[(j, diff)] = length of the AP ending at index j with period diff.
    best: dict[tuple[int, int], int] = {}
    top_key: tuple[int, int] | None = None
    top_len = 1
    for j in range(n):
        for i in range(j):
            diff = ids[j] - ids[i]
            prior = best.get((i, diff), 1)
            key = (j, diff)
            if prior + 1 > best.get(key, 0):
                best[key] = prior + 1
            length = best[key]
            if length > top_len or (
                length == top_len and top_key is not None and diff < top_key[1]
            ):
                top_len = length
                top_key = key
    if top_key is None:
        return [ids[0]]
    # Reconstruct by walking the progression backwards.
    j, diff = top_key
    chain = [ids[j]]
    value = ids[j] - diff
    position = j
    while True:
        found = None
        for i in range(position - 1, -1, -1):
            if ids[i] == value:
                found = i
                break
        if found is None:
            break
        chain.append(ids[found])
        position = found
        value -= diff
    chain.reverse()
    return chain


def extract_cyclic(
    sequence: CompactSequence, min_length: int = 3
) -> CompactSequence | None:
    """Derive the cyclic pattern hidden in a compact sequence, if any.

    Returns a new :class:`CompactSequence` over the cyclic subset, or
    ``None`` when no progression of at least ``min_length`` ids exists.
    """
    chain = longest_cyclic_subsequence(sequence.block_ids)
    if len(chain) < min_length:
        return None
    return CompactSequence(block_ids=chain)


def period_of(block_ids: Sequence[int]) -> int | None:
    """The common difference of a cyclic id sequence (``None`` if not
    cyclic or too short to tell)."""
    ids = sorted(set(block_ids))
    if len(ids) < 2:
        return None
    diffs = {b - a for a, b in zip(ids, ids[1:])}
    if len(diffs) != 1:
        return None
    return diffs.pop()
