"""Tests for block selection sequences and their window operations."""

import pytest

from repro.core.bss import (
    WindowIndependentBSS,
    WindowRelativeBSS,
    bits_key,
    weekday_bss,
)


class TestWindowIndependentBSS:
    def test_explicit_prefix_bits(self):
        bss = WindowIndependentBSS([1, 0, 1])
        assert [bss.bit(i) for i in (1, 2, 3)] == [1, 0, 1]

    def test_default_beyond_prefix(self):
        bss = WindowIndependentBSS([1, 0], default=0)
        assert bss.bit(3) == 0
        assert WindowIndependentBSS([1], default=1).bit(99) == 1

    def test_select_all(self):
        bss = WindowIndependentBSS.select_all()
        assert all(bss.selects(i) for i in range(1, 20))

    def test_predicate_rule(self):
        bss = WindowIndependentBSS.from_predicate(lambda i: i % 2 == 1)
        assert bss.selects(1)
        assert not bss.selects(2)
        assert bss.selects(101)

    def test_prefix_beats_predicate(self):
        bss = WindowIndependentBSS([0], predicate=lambda i: True)
        assert not bss.selects(1)
        assert bss.selects(2)

    def test_invalid_bits_rejected(self):
        for kwargs, error in [
            ({"bits": [1, 2]}, ValueError),
            ({"default": 3}, ValueError),
            # bools, floats and strings are rejected, not coerced
            ({"bits": [True]}, TypeError),
            ({"bits": [0.5]}, TypeError),
            ({"bits": "0101"}, TypeError),
            ({"default": True}, TypeError),
            ({"default": 1.0}, TypeError),
        ]:
            with pytest.raises(error):
                WindowIndependentBSS(**kwargs)

    def test_bit_position_validation(self):
        with pytest.raises(IndexError):
            WindowIndependentBSS([1]).bit(0)

    def test_selected_ids(self):
        bss = WindowIndependentBSS([1, 0, 1, 1, 0])
        assert bss.selected_ids(1, 5) == [1, 3, 4]
        assert bss.selected_ids(2, 3) == [3]

    def test_prefix(self):
        bss = WindowIndependentBSS([1, 0], default=1)
        assert bss.prefix(4) == (1, 0, 1, 1)


class TestProjection:
    """The k-projection of §3.2.1, checked against the paper's example."""

    def test_paper_example(self):
        # BSS <10110...>, w=3, t=3: the 1-projection is <0, b2, b3> = <001>.
        bss = WindowIndependentBSS([1, 0, 1, 1, 0])
        assert bss.project(t=3, k=1, w=3) == (0, 0, 1)
        assert bss.project(t=3, k=2, w=3) == (0, 0, 1)
        assert bss.project(t=3, k=0, w=3) == (1, 0, 1)

    def test_projection_at_later_t(self):
        # Window D[2,4]: position i maps to global bit b_{1+i}.
        bss = WindowIndependentBSS([1, 0, 1, 1, 0])
        assert bss.project(t=4, k=0, w=3) == (0, 1, 1)
        assert bss.project(t=4, k=1, w=3) == (0, 1, 1)

    def test_projection_bounds(self):
        bss = WindowIndependentBSS.select_all()
        with pytest.raises(ValueError):
            bss.project(t=3, k=3, w=3)
        with pytest.raises(ValueError):
            bss.project(t=2, k=0, w=3)


class TestWindowRelativeBSS:
    def test_basic_bits(self):
        bss = WindowRelativeBSS([1, 0, 1])
        assert bss.w == 3
        assert bss.bit(1) == 1
        assert bss.bit(2) == 0

    def test_needs_at_least_one_bit(self):
        with pytest.raises(ValueError):
            WindowRelativeBSS([])

    def test_position_bounds(self):
        bss = WindowRelativeBSS([1, 1])
        with pytest.raises(IndexError):
            bss.bit(0)
        with pytest.raises(IndexError):
            bss.bit(3)

    def test_select_all(self):
        assert WindowRelativeBSS.select_all(4).bits == (1, 1, 1, 1)

    def test_every_kth(self):
        bss = WindowRelativeBSS.every_kth(7, 3)
        assert bss.bits == (1, 0, 0, 1, 0, 0, 1)

    def test_every_kth_with_offset(self):
        bss = WindowRelativeBSS.every_kth(6, 2, offset=1)
        assert bss.bits == (0, 1, 0, 1, 0, 1)

    def test_selected_ids(self):
        bss = WindowRelativeBSS([1, 0, 1])
        assert bss.selected_ids(window_start=4) == [4, 6]

    def test_equality_and_hash(self):
        assert WindowRelativeBSS([1, 0]) == WindowRelativeBSS([1, 0])
        assert hash(WindowRelativeBSS([1, 0])) == hash(WindowRelativeBSS([1, 0]))
        assert WindowRelativeBSS([1, 0]) != WindowRelativeBSS([0, 1])


class TestRightShift:
    """The k-right-shift of §3.2.2, checked against the paper's example."""

    def test_paper_example(self):
        # BSS <101> right-shifted once is <010>.
        bss = WindowRelativeBSS([1, 0, 1])
        assert bss.right_shift(1) == (0, 1, 0)

    def test_shift_truncates_past_w(self):
        bss = WindowRelativeBSS([1, 1, 1])
        assert bss.right_shift(2) == (0, 0, 1)

    def test_zero_shift_is_identity(self):
        bss = WindowRelativeBSS([1, 0, 1, 1])
        assert bss.right_shift(0) == (1, 0, 1, 1)

    def test_shift_bounds(self):
        bss = WindowRelativeBSS([1, 0])
        with pytest.raises(ValueError):
            bss.right_shift(2)
        with pytest.raises(ValueError):
            bss.right_shift(-1)


class TestHelpers:
    def test_weekday_bss(self):
        # Block i was added on weekday (i - 1) % 7; select Mondays.
        bss = weekday_bss(0, lambda block_id: (block_id - 1) % 7)
        assert bss.selects(1)
        assert not bss.selects(2)
        assert bss.selects(8)

    def test_weekday_validation(self):
        with pytest.raises(ValueError):
            weekday_bss(7, lambda i: 0)

    def test_bits_key(self):
        assert bits_key([1, 0, 1]) == (1, 0, 1)
        assert bits_key((True, False)) == (1, 0)
