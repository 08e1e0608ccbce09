"""Tests for the Quest transaction generator."""

import pytest

from repro.datagen.quest import QuestGenerator, QuestParams, generate_named_dataset
from repro.itemsets.itemset import is_canonical


def small_params(**overrides):
    defaults = dict(
        n_transactions=500,
        avg_transaction_length=10,
        n_items=100,
        n_patterns=50,
        avg_pattern_length=4,
    )
    defaults.update(overrides)
    return QuestParams(**defaults)


class TestNameParsing:
    def test_paper_name(self):
        params = QuestParams.from_name("2M.20L.1I.4pats.4plen")
        assert params.n_transactions == 2_000_000
        assert params.avg_transaction_length == 20
        assert params.n_items == 1000
        assert params.n_patterns == 4000
        assert params.avg_pattern_length == 4

    def test_scaled_name(self):
        params = QuestParams.from_name("2M.20L.1I.4pats.4plen", scale=0.01)
        assert params.n_transactions == 20_000
        assert params.n_items <= 1000

    def test_nplen_alias(self):
        params = QuestParams.from_name("2M.20L.1I.8pats.4nplen")
        assert params.n_patterns == 8000

    def test_bad_name(self):
        with pytest.raises(ValueError):
            QuestParams.from_name("not-a-dataset")


class TestGeneration:
    def test_deterministic_given_seed(self):
        a = QuestGenerator(small_params(), seed=5).transactions(50)
        b = QuestGenerator(small_params(), seed=5).transactions(50)
        assert a == b

    def test_different_seeds_differ(self):
        a = QuestGenerator(small_params(), seed=1).transactions(50)
        b = QuestGenerator(small_params(), seed=2).transactions(50)
        assert a != b

    def test_transactions_are_canonical(self):
        for transaction in QuestGenerator(small_params(), seed=0).transactions(100):
            assert is_canonical(transaction)
            assert len(transaction) >= 1

    def test_items_within_universe(self):
        params = small_params(n_items=30)
        for transaction in QuestGenerator(params, seed=0).transactions(100):
            assert all(0 <= item < 30 for item in transaction)

    def test_average_length_near_target(self):
        params = small_params(avg_transaction_length=15, n_transactions=2000)
        transactions = QuestGenerator(params, seed=0).transactions(2000)
        mean = sum(len(t) for t in transactions) / len(transactions)
        assert 10 <= mean <= 20

    def test_patterns_create_correlation(self):
        """Generated data must contain frequent multi-item patterns —
        unlike independent-item noise."""
        from repro.itemsets.apriori import mine_transactions

        params = small_params(n_transactions=1500, n_patterns=10)
        transactions = QuestGenerator(params, seed=0).transactions(1500)
        result = mine_transactions(lambda: transactions, minsup=0.02)
        assert any(len(itemset) >= 2 for itemset in result.frequent)

    def test_block_helper(self):
        block = QuestGenerator(small_params(), seed=0).block(3, count=10)
        assert block.block_id == 3
        assert len(block) == 10

    def test_block_default_count(self):
        block = QuestGenerator(small_params(n_transactions=25), seed=0).block(1)
        assert len(block) == 25

    def test_named_dataset_helper(self):
        block = generate_named_dataset(
            "2M.20L.1I.4pats.4plen", scale=0.0001, seed=1
        )
        assert len(block) == 200


class TestValidation:
    def test_too_few_items(self):
        with pytest.raises(ValueError):
            QuestGenerator(small_params(n_items=1))

    def test_bad_pattern_length(self):
        with pytest.raises(ValueError):
            QuestGenerator(small_params(avg_pattern_length=0))
