"""Tests for the FrequentItemsetModel container."""

import pytest

from repro.itemsets.apriori import mine_transactions
from repro.itemsets.model import FrequentItemsetModel


TRANSACTIONS = [
    (1, 2, 3),
    (1, 2),
    (2, 3),
    (1, 3),
    (1, 2, 3),
    (4,),
]


def make_model(minsup=0.3):
    result = mine_transactions(lambda: TRANSACTIONS, minsup=minsup)
    return FrequentItemsetModel.from_mining_result(result, [1])


class TestModelBasics:
    def test_from_mining_result(self):
        model = make_model()
        assert model.n_transactions == 6
        assert (1, 2) in model.frequent
        assert model.selected_block_ids == [1]

    def test_support(self):
        model = make_model()
        assert model.support((1, 2)) == pytest.approx(3 / 6)
        assert model.support((99,)) == 0.0

    def test_is_frequent(self):
        model = make_model()
        assert model.is_frequent((1, 2))
        assert not model.is_frequent((4,))

    def test_tracked_combines_l_and_border(self):
        model = make_model()
        tracked = model.tracked()
        assert set(model.frequent) <= set(tracked)
        assert set(model.border) <= set(tracked)

    def test_min_count(self):
        model = make_model(0.3)
        assert model.min_count == 2  # ceil(0.3 * 6)

    def test_min_count_on_empty_model(self):
        assert FrequentItemsetModel(minsup=0.5).min_count == 1

    def test_frequent_of_size(self):
        model = make_model()
        for itemset in model.frequent_of_size(2):
            assert len(itemset) == 2


class TestCopy:
    def test_copy_is_deep_for_containers(self):
        model = make_model()
        duplicate = model.copy()
        duplicate.frequent[(9, 9)] = 1
        duplicate.items.add(99)
        duplicate.selected_block_ids.append(7)
        assert (9, 9) not in model.frequent
        assert 99 not in model.items
        assert model.selected_block_ids == [1]


class TestRaiseThreshold:
    def test_filters_frequent_set(self):
        model = make_model(0.3)
        raised = model.raise_threshold(0.5)
        truth = mine_transactions(lambda: TRANSACTIONS, minsup=0.5)
        assert raised.frequent == truth.frequent
        assert set(raised.border) == set(truth.border)

    def test_equal_threshold_is_identity(self):
        model = make_model(0.3)
        raised = model.raise_threshold(0.3)
        assert raised.frequent == model.frequent

    def test_lowering_rejected(self):
        model = make_model(0.3)
        with pytest.raises(ValueError, match="increasing"):
            model.raise_threshold(0.1)
