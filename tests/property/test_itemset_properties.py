"""Property-based tests (hypothesis) for itemset primitives."""

from itertools import combinations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.itemsets.itemset import (
    contains,
    generate_candidates,
    make_itemset,
    minimum_count,
    normalize_transaction,
    prefix_join,
    proper_subsets,
)

items = st.integers(min_value=0, max_value=30)
itemsets = st.sets(items, min_size=1, max_size=6).map(lambda s: tuple(sorted(s)))
transactions = st.sets(items, min_size=0, max_size=12).map(lambda s: tuple(sorted(s)))


class TestCanonicalization:
    @given(st.lists(items, max_size=20))
    def test_make_itemset_is_sorted_and_unique(self, raw):
        itemset = make_itemset(raw)
        assert list(itemset) == sorted(set(raw))

    @given(st.lists(items, max_size=20))
    def test_normalization_idempotent(self, raw):
        once = normalize_transaction(raw)
        assert normalize_transaction(once) == once


class TestContains:
    @given(transactions, itemsets)
    def test_contains_matches_set_semantics(self, transaction, itemset):
        assert contains(transaction, itemset) == set(itemset).issubset(transaction)

    @given(transactions)
    def test_transaction_contains_itself(self, transaction):
        assert contains(transaction, transaction)

    @given(transactions, itemsets)
    def test_containment_is_antitone_in_itemset(self, transaction, itemset):
        """If T contains X then T contains every subset of X."""
        if contains(transaction, itemset):
            for subset in proper_subsets(itemset):
                assert contains(transaction, subset)


class TestProperSubsets:
    @given(itemsets)
    def test_count_and_size(self, itemset):
        subsets = list(proper_subsets(itemset))
        assert len(subsets) == len(itemset)
        assert all(len(s) == len(itemset) - 1 for s in subsets)

    @given(itemsets)
    def test_subsets_are_subsets(self, itemset):
        for subset in proper_subsets(itemset):
            assert set(subset) < set(itemset)


class TestPrefixJoin:
    @given(itemsets, itemsets)
    def test_join_result_shape(self, a, b):
        joined = prefix_join(a, b)
        if joined is not None:
            assert len(joined) == len(a) + 1
            assert set(joined) == set(a) | set(b)
            assert list(joined) == sorted(joined)


class TestGenerateCandidates:
    @settings(max_examples=50)
    @given(st.sets(itemsets.filter(lambda x: len(x) == 2), max_size=12))
    def test_candidates_have_all_subsets_frequent(self, frequent_pairs):
        candidates = generate_candidates(frequent_pairs)
        for candidate in candidates:
            assert len(candidate) == 3
            for subset in proper_subsets(candidate):
                assert subset in frequent_pairs

    @settings(max_examples=50)
    @given(st.sets(items, min_size=0, max_size=8))
    def test_singleton_level_generates_all_pairs(self, frequent_items):
        frequent = {(i,) for i in frequent_items}
        candidates = generate_candidates(frequent)
        n = len(frequent_items)
        assert len(candidates) == n * (n - 1) // 2


@st.composite
def uniform_level(draw):
    """``(k, F)``: a random set ``F`` of k-itemsets over a small universe,
    dense enough that many joins survive the prune."""
    k = draw(st.integers(min_value=1, max_value=4))
    level = st.sets(st.integers(min_value=0, max_value=7), min_size=k, max_size=k)
    return k, draw(st.sets(level.map(lambda s: tuple(sorted(s))), max_size=40))


class TestGenerateCandidatesDefinition:
    @settings(max_examples=200)
    @given(uniform_level())
    def test_equals_brute_force_definition(self, level):
        """Every (k+1)-itemset whose k-subsets are all in F, and no other."""
        k, frequent = level
        universe = sorted({item for itemset in frequent for item in itemset})
        expected = {
            candidate
            for candidate in combinations(universe, k + 1)
            if all(subset in frequent for subset in combinations(candidate, k))
        }
        assert generate_candidates(frequent) == expected


class TestMinimumCount:
    @given(
        st.floats(min_value=0.001, max_value=0.999),
        st.integers(min_value=1, max_value=10_000),
    )
    def test_threshold_is_tight(self, minsup, total):
        threshold = minimum_count(minsup, total)
        # Meeting the threshold implies meeting the support fraction
        # (within float tolerance), and threshold-1 does not.
        assert threshold / total >= minsup - 1e-9
        if threshold > 1:
            assert (threshold - 1) / total < minsup
