"""Tests for Apriori and its negative-border output."""

from itertools import chain, combinations

import pytest

from repro.core.blocks import make_block
from repro.itemsets.apriori import mine_blocks, mine_transactions
from repro.itemsets.border import check_border_invariant
from repro.itemsets.itemset import contains, minimum_count
from tests.conftest import random_transactions


def brute_force_frequent(transactions, minsup):
    """Reference miner: enumerate every subset of every transaction."""
    counts = {}
    for transaction in transactions:
        for size in range(1, len(transaction) + 1):
            for itemset in combinations(transaction, size):
                counts[itemset] = counts.get(itemset, 0) + 1
    threshold = minimum_count(minsup, len(transactions))
    return {x: c for x, c in counts.items() if c >= threshold}


SMALL = [
    (1, 2, 3),
    (1, 2),
    (2, 3),
    (1, 3),
    (1, 2, 3, 4),
    (4, 5),
]


class TestApriori:
    def test_matches_brute_force_small(self):
        result = mine_transactions(lambda: SMALL, minsup=0.3)
        assert result.frequent == brute_force_frequent(SMALL, 0.3)

    def test_matches_brute_force_random(self):
        transactions = random_transactions(150, n_items=12, seed=3)
        for minsup in (0.1, 0.25, 0.5):
            result = mine_transactions(lambda: transactions, minsup=minsup)
            assert result.frequent == brute_force_frequent(transactions, minsup)

    def test_border_invariants(self):
        transactions = random_transactions(200, n_items=15, seed=5)
        result = mine_transactions(lambda: transactions, minsup=0.1)
        problems = check_border_invariant(
            set(result.frequent), set(result.border)
        )
        assert problems == []

    def test_border_counts_are_exact(self):
        result = mine_transactions(lambda: SMALL, minsup=0.3)
        for itemset, count in result.border.items():
            expected = sum(1 for t in SMALL if contains(t, itemset))
            assert count == expected

    def test_empty_dataset(self):
        result = mine_transactions(lambda: [], minsup=0.5)
        assert result.frequent == {}
        assert result.border == {}
        assert result.n_transactions == 0

    def test_max_size_cap(self):
        result = mine_transactions(lambda: SMALL, minsup=0.3, max_size=1)
        assert all(len(x) == 1 for x in result.frequent)

    def test_passes_counted(self):
        result = mine_transactions(lambda: SMALL, minsup=0.3)
        assert result.passes >= 2

    def test_support_accessor(self):
        result = mine_transactions(lambda: SMALL, minsup=0.3)
        assert result.support((1, 2)) == pytest.approx(3 / 6)
        assert result.support((99,)) == 0.0

    def test_frequent_of_size(self):
        result = mine_transactions(lambda: SMALL, minsup=0.3)
        assert all(len(x) == 2 for x in result.frequent_of_size(2))

    def test_factory_called_per_pass(self):
        calls = []

        def factory():
            calls.append(1)
            return iter(SMALL)

        result = mine_transactions(factory, minsup=0.3)
        assert len(calls) == result.passes


class TestMineBlocks:
    def test_union_of_blocks(self):
        blocks = [make_block(1, SMALL[:3]), make_block(2, SMALL[3:])]
        result = mine_blocks(blocks, 0.3)
        assert result.frequent == brute_force_frequent(SMALL, 0.3)
        assert result.n_transactions == len(SMALL)
