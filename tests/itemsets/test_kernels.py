"""Tests for the TID-list representations and bitset-row packing."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.itemsets.counting import _row_popcounts
from repro.itemsets.kernels import (
    TID_DTYPE,
    WORD_BYTES,
    BitmapTidList,
    as_array,
    list_nbytes,
    pack_rows,
)


def arr(*values):
    return np.asarray(values, dtype=TID_DTYPE)


CASES = [
    (arr(), arr()),
    (arr(1, 2, 3), arr()),
    (arr(1, 3, 5, 7), arr(3, 4, 5)),
    (arr(0, 1, 2, 3), arr(0, 1, 2, 3)),
    (arr(1, 2), arr(3, 4)),
    (arr(5), arr(0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15)),
]


def packed_and(lists, block_size):
    """The engine's intersection: AND of the lists' packed rows,
    unpacked to sorted tids; the engine's row popcount must count them."""
    rows = pack_rows(lists, base_tid=0, block_size=block_size)
    words = np.bitwise_and.reduce(rows, axis=0, keepdims=True)
    bits = np.unpackbits(words.view(np.uint8), bitorder="little")
    tids = np.flatnonzero(bits).tolist()
    assert _row_popcounts(words).tolist() == [len(tids)]
    return tids


class TestArrayKernels:
    """Sorted arrays through the engine's intersection."""

    @pytest.mark.parametrize("a,b", CASES)
    def test_kernels_agree_with_reference(self, a, b):
        assert packed_and([a, b], block_size=16) == np.intersect1d(a, b).tolist()


class TestBitmap:
    def test_roundtrip(self):
        tids = arr(3, 7, 64, 65, 127)
        bitmap = BitmapTidList.from_array(tids, base=0, size=128)
        assert bitmap.to_array().tolist() == tids.tolist()
        assert len(bitmap) == 5

    def test_roundtrip_with_base(self):
        tids = arr(100, 130, 199)
        bitmap = BitmapTidList.from_array(tids, base=100, size=100)
        assert bitmap.to_array().tolist() == tids.tolist()

    def test_nbytes_is_word_granular(self):
        bitmap = BitmapTidList.from_array(arr(0), base=0, size=130)
        assert bitmap.nbytes == 3 * WORD_BYTES
        assert list_nbytes(bitmap) == bitmap.nbytes

    def test_words_are_frozen(self):
        bitmap = BitmapTidList.from_array(arr(1, 2), base=0, size=128)
        with pytest.raises(ValueError):
            bitmap.words[0] = 0


class TestPackRows:
    def test_rows_match_packbits(self):
        block_size = 21
        arrays = [arr(0, 3, 20), arr(), arr(7)]
        rows = pack_rows(arrays, base_tid=0, block_size=block_size)
        assert rows.dtype == np.uint64
        assert rows.shape == (3, 1)
        for r, tids in enumerate(arrays):
            dense = np.zeros(64, dtype=bool)
            dense[tids] = True
            expected = np.packbits(dense, bitorder="little")
            assert rows[r].view(np.uint8).tolist() == expected.tolist()

    def test_base_tid_offset(self):
        rows = pack_rows([arr(10, 12)], base_tid=10, block_size=8)
        assert rows[0].tolist() == [0b101]

    def test_byte_compatible_with_bitmap_words(self):
        tids = arr(0, 9, 63, 64, 127, 128)
        bitmap = BitmapTidList.from_array(tids, base=0, size=130)
        rows = pack_rows([tids], base_tid=0, block_size=130)
        assert rows[0].tolist() == bitmap.words.tolist()

    def test_chunked_scatter_matches_one_run(self, monkeypatch):
        import repro.itemsets.kernels as kernels

        arrays = [arr(*range(0, 200, 3)), arr(), arr(5), arr(*range(1, 150, 2))]
        whole = pack_rows(arrays, base_tid=0, block_size=200)
        # Runs of at most 4 tids, and rows longer than a run.
        monkeypatch.setattr(kernels, "PACK_CHUNK_TIDS", 4)
        assert pack_rows(arrays, base_tid=0, block_size=200).tolist() == whole.tolist()

    def test_packing_is_slice_invariant(self):
        # Chunked packing must equal packing any partition of the rows.
        block_size = 16
        arrays = [arr(i % block_size) for i in range(40)]
        whole = pack_rows(arrays, base_tid=0, block_size=block_size)
        parts = [
            pack_rows(arrays[i : i + 3], base_tid=0, block_size=block_size)
            for i in range(0, len(arrays), 3)
        ]
        assert np.concatenate(parts).tolist() == whole.tolist()


class TestCompressedDomain:
    """The packed bitmap representation is invisible to counting.

    Lists in either representation — sorted array and packed bitmap —
    pack to the same bitset rows, so the counting engine's row AND and
    popcount intersect and count them exactly like ``np.intersect1d``
    on the unpacked arrays; hypothesis drives the tid sets so the
    property holds for arbitrary block contents.
    """

    SIZE = 4096

    @staticmethod
    def reps(tids):
        return [
            tids,
            BitmapTidList.from_array(tids, base=0, size=TestCompressedDomain.SIZE),
        ]

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_all_combos_match_intersect1d(self, data):
        tid = st.lists(st.integers(0, self.SIZE - 1), max_size=120).map(
            lambda v: np.asarray(sorted(set(v)), dtype=TID_DTYPE)
        )
        left, right = data.draw(tid), data.draw(tid)
        expected = np.intersect1d(left, right).tolist()
        for a in self.reps(left):
            for b in self.reps(right):
                assert packed_and([a, b], self.SIZE) == expected

    @settings(max_examples=40, deadline=None)
    @given(
        tids=st.lists(st.integers(0, 4095), max_size=200).map(
            lambda v: np.asarray(sorted(set(v)), dtype=TID_DTYPE)
        )
    )
    def test_compressed_round_trip_and_len(self, tids):
        for rep in self.reps(tids):
            assert len(rep) == len(tids)
            assert as_array(rep).tolist() == tids.tolist()

    @settings(max_examples=25, deadline=None)
    @given(data=st.data())
    def test_and_of_mixed_representations(self, data):
        tid = st.lists(st.integers(0, self.SIZE - 1), max_size=80).map(
            lambda v: np.asarray(sorted(set(v)), dtype=TID_DTYPE)
        )
        arrays = [data.draw(tid) for _ in range(3)]
        expected = arrays[0]
        for other in arrays[1:]:
            expected = np.intersect1d(expected, other)
        mixed = [self.reps(tids)[i % 2] for i, tids in enumerate(arrays)]
        assert packed_and(mixed, self.SIZE) == expected.tolist()
