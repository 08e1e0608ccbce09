"""Tests for the intersection kernels behind ECUT-style counting."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.itemsets.kernels import (
    TID_BYTES,
    TID_DTYPE,
    WORD_BYTES,
    BitmapTidList,
    force_kernel,
    intersect_arrays,
    intersect_bitmap_array,
    intersect_bitmaps,
    intersect_gallop,
    intersect_many,
    intersect_merge,
    intersect_pair,
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


class TestArrayKernels:
    @pytest.mark.parametrize("a,b", CASES)
    def test_kernels_agree_with_reference(self, a, b):
        expected = np.intersect1d(a, b).tolist()  # demonlint: disable=DML006 (reference oracle)
        assert intersect_gallop(a, b).tolist() == expected
        assert intersect_merge(a, b).tolist() == expected
        assert intersect_arrays(a, b).tolist() == expected

    @pytest.mark.parametrize("a,b", CASES)
    @pytest.mark.parametrize("kernel", ["gallop", "merge"])
    def test_forced_kernels_agree(self, a, b, kernel):
        expected = np.intersect1d(a, b).tolist()  # demonlint: disable=DML006 (reference oracle)
        with force_kernel(kernel):
            assert intersect_arrays(a, b).tolist() == expected

    def test_force_kernel_rejects_unknown(self):
        with pytest.raises(ValueError, match="unknown kernel"):
            with force_kernel("bogus"):
                pass

    def test_force_kernel_restores_on_exit(self):
        skewed = (arr(5), arr(*range(100)))
        with force_kernel("merge"):
            pass
        # Back to adaptive: a 1-vs-100 skew must not error and must
        # still match the reference result.
        assert intersect_arrays(*skewed).tolist() == [5]

    def test_gallop_element_past_end_of_large(self):
        # The clamped searchsorted position compares against large[-1];
        # a probe beyond it must not match.
        assert intersect_gallop(arr(99), arr(1, 2, 3)).tolist() == []


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

    def test_intersect_bitmaps(self):
        a = BitmapTidList.from_array(arr(1, 2, 3, 70), base=0, size=128)
        b = BitmapTidList.from_array(arr(2, 70, 100), base=0, size=128)
        result = intersect_bitmaps(a, b)
        assert result.to_array().tolist() == [2, 70]
        assert result.count == 2

    def test_intersect_bitmaps_block_mismatch(self):
        a = BitmapTidList.from_array(arr(1), base=0, size=128)
        b = BitmapTidList.from_array(arr(129), base=128, size=128)
        with pytest.raises(ValueError):
            intersect_bitmaps(a, b)

    def test_intersect_bitmap_array(self):
        bitmap = BitmapTidList.from_array(arr(1, 2, 3, 70), base=0, size=128)
        assert intersect_bitmap_array(bitmap, arr(2, 5, 70)).tolist() == [2, 70]
        assert intersect_bitmap_array(bitmap, arr()).tolist() == []


class TestUnifiedDispatch:
    def _reps(self, tids):
        return [tids, BitmapTidList.from_array(tids, base=0, size=128)]

    def test_intersect_pair_all_representation_combos(self):
        left, right = arr(1, 2, 3, 70), arr(2, 70, 100)
        expected = [2, 70]
        for a in self._reps(left):
            for b in self._reps(right):
                result = intersect_pair(a, b)
                got = (
                    result.to_array()
                    if isinstance(result, BitmapTidList)
                    else result
                )
                assert got.tolist() == expected

    def test_intersect_many_mixed(self):
        lists = [
            arr(1, 2, 3, 70, 100),
            BitmapTidList.from_array(arr(2, 3, 70, 100), base=0, size=128),
            arr(2, 70, 101),
        ]
        result = intersect_many(lists)
        got = result.to_array() if isinstance(result, BitmapTidList) else result
        assert got.tolist() == [2, 70]

    def test_intersect_many_empty_input(self):
        assert len(intersect_many([])) == 0


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

    Every pairwise combination of representations — sorted array and
    packed bitmap — must intersect and count exactly like
    ``np.intersect1d`` on the unpacked arrays; hypothesis drives the
    tid sets so the property holds for arbitrary block contents, not
    just the directed cases above.
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
        from repro.itemsets.kernels import as_array

        tid = st.lists(st.integers(0, self.SIZE - 1), max_size=120).map(
            lambda v: np.asarray(sorted(set(v)), dtype=TID_DTYPE)
        )
        left, right = data.draw(tid), data.draw(tid)
        expected = np.intersect1d(left, right).tolist()  # demonlint: disable=DML006 (reference oracle)
        for a in self.reps(left):
            for b in self.reps(right):
                assert as_array(intersect_pair(a, b)).tolist() == expected

    @settings(max_examples=40, deadline=None)
    @given(
        tids=st.lists(st.integers(0, 4095), max_size=200).map(
            lambda v: np.asarray(sorted(set(v)), dtype=TID_DTYPE)
        )
    )
    def test_compressed_round_trip_and_len(self, tids):
        from repro.itemsets.kernels import as_array

        for rep in self.reps(tids):
            assert len(rep) == len(tids)
            assert as_array(rep).tolist() == tids.tolist()

    @settings(max_examples=25, deadline=None)
    @given(data=st.data())
    def test_intersect_many_mixed_representations(self, data):
        from repro.itemsets.kernels import as_array

        tid = st.lists(st.integers(0, self.SIZE - 1), max_size=80).map(
            lambda v: np.asarray(sorted(set(v)), dtype=TID_DTYPE)
        )
        arrays = [data.draw(tid) for _ in range(3)]
        expected = arrays[0]
        for other in arrays[1:]:
            expected = np.intersect1d(expected, other)  # demonlint: disable=DML006 (reference oracle)
        mixed = [self.reps(tids)[i % 2] for i, tids in enumerate(arrays)]
        assert as_array(intersect_many(mixed)).tolist() == expected.tolist()
