"""Tests for cyclic post-processing of compact sequences."""

from repro.patterns.compact import CompactSequence
from repro.patterns.cyclic import (
    extract_cyclic,
    longest_cyclic_subsequence,
    period_of,
)


class TestLongestCyclicSubsequence:
    def test_paper_example(self):
        """⟨D1, D3, D4, D5, D7⟩ contains the cyclic ⟨D1, D3, D5, D7⟩."""
        assert longest_cyclic_subsequence([1, 3, 4, 5, 7]) == [1, 3, 5, 7]

    def test_already_cyclic(self):
        assert longest_cyclic_subsequence([2, 4, 6, 8]) == [2, 4, 6, 8]

    def test_no_long_progression(self):
        result = longest_cyclic_subsequence([1, 2, 4, 8])
        assert len(result) == 2  # any two ids form a trivial progression

    def test_single_and_empty(self):
        assert longest_cyclic_subsequence([5]) == [5]
        assert longest_cyclic_subsequence([]) == []

    def test_two_elements(self):
        assert longest_cyclic_subsequence([3, 9]) == [3, 9]

    def test_prefers_smaller_period_on_tie(self):
        # [1,2,3] (period 1) and [1,3,5] (period 2) are both length 3.
        result = longest_cyclic_subsequence([1, 2, 3, 5])
        assert result == [1, 2, 3]

    def test_duplicates_ignored(self):
        assert longest_cyclic_subsequence([1, 1, 3, 5]) == [1, 3, 5]

    def test_weekly_pattern(self):
        ids = [1, 2, 8, 15, 20, 22, 29]
        assert longest_cyclic_subsequence(ids) == [1, 8, 15, 22, 29]


class TestExtractCyclic:
    def test_extracts_progression(self):
        sequence = CompactSequence([1, 3, 4, 5, 7])
        cyclic = extract_cyclic(sequence)
        assert cyclic is not None
        assert cyclic.block_ids == [1, 3, 5, 7]

    def test_none_when_too_short(self):
        assert extract_cyclic(CompactSequence([1, 2]), min_length=3) is None


class TestPeriodOf:
    def test_constant_period(self):
        assert period_of([2, 5, 8, 11]) == 3

    def test_not_cyclic(self):
        assert period_of([1, 2, 4]) is None

    def test_too_short(self):
        assert period_of([5]) is None
