"""Item-matrix row operations against their set definitions.

Row keys read a row as a number in base ``max item + 1`` while that
fits in 63 bits and fall back to ``np.unique`` row ids beyond; both
paths must give the same membership and join answers.
"""

from itertools import combinations

import numpy as np
import pytest

from repro.itemsets.rows import isin_rows, join_rows, subsets_in


def matrix(itemsets, k):
    return np.array(sorted(itemsets), dtype=np.int64).reshape(-1, k)


@pytest.mark.parametrize("largest", [11, 10**9], ids=["base-keys", "unique-ids"])
@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_membership_and_join_match_sets(largest, k):
    rng = np.random.default_rng(k)
    for _ in range(20):
        universe = rng.choice(largest + 1, size=7, replace=False).tolist()
        every = list(combinations(sorted(universe), k))
        frequent = {every[i] for i in rng.integers(0, len(every), 12)}
        base = {every[i] for i in rng.integers(0, len(every), 4)}
        F, B = matrix(frequent, k), matrix(base, k)

        assert isin_rows(B, F).tolist() == [b in frequent for b in sorted(base)]

        expected = {
            tuple(sorted(b + (i,)))
            for b in base
            for f in frequent
            for i in set(f) - set(b[1:])
            if set(b[1:]) <= set(f) and i not in b
        }
        joined = [tuple(r) for r in join_rows(B, F).tolist()]
        assert joined == sorted(expected)

        wide = matrix(joined, k + 1)
        for row, x in zip(subsets_in(wide, F).tolist(), joined):
            assert row == [x[:j] + x[j + 1 :] in frequent for j in range(k + 1)]
