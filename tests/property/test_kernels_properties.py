"""Property-based tests: intersection kernels vs the numpy reference.

Every kernel must agree exactly with ``np.intersect1d`` on random
sorted, duplicate-free tid arrays — the kernels exist to beat its
performance (it re-sorts sorted inputs), never to change its answer.
"""
# demonlint: disable-file=DML006 (np.intersect1d is the reference oracle here)

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.itemsets.kernels import (
    TID_DTYPE,
    BitmapTidList,
    intersect_arrays,
    intersect_gallop,
    intersect_merge,
    intersect_pair,
    pack_rows,
)

BLOCK_SIZE = 256


def sorted_unique(max_value=2000, max_size=150):
    return st.sets(
        st.integers(min_value=0, max_value=max_value), max_size=max_size
    ).map(lambda s: np.asarray(sorted(s), dtype=TID_DTYPE))


#: Arrays whose tids fit one block of BLOCK_SIZE transactions, so they
#: can also be packed into bitmaps.
block_arrays = sorted_unique(max_value=BLOCK_SIZE - 1, max_size=BLOCK_SIZE)


class TestArrayKernelsAgree:
    @given(sorted_unique(), sorted_unique())
    def test_gallop_matches_reference(self, a, b):
        assert intersect_gallop(a, b).tolist() == np.intersect1d(a, b).tolist()

    @given(sorted_unique(), sorted_unique())
    def test_merge_matches_reference(self, a, b):
        assert intersect_merge(a, b).tolist() == np.intersect1d(a, b).tolist()

    @given(sorted_unique(), sorted_unique())
    def test_adaptive_matches_reference(self, a, b):
        assert intersect_arrays(a, b).tolist() == np.intersect1d(a, b).tolist()


class TestBitmapAgree:
    @given(block_arrays)
    def test_roundtrip(self, tids):
        bitmap = BitmapTidList.from_array(tids, base=0, size=BLOCK_SIZE)
        assert bitmap.to_array().tolist() == tids.tolist()
        assert len(bitmap) == len(tids)

    @given(block_arrays, block_arrays, st.integers(0, 3))
    def test_intersect_pair_all_representations(self, a, b, combo):
        expected = np.intersect1d(a, b).tolist()
        left = (
            BitmapTidList.from_array(a, base=0, size=BLOCK_SIZE)
            if combo & 1
            else a
        )
        right = (
            BitmapTidList.from_array(b, base=0, size=BLOCK_SIZE)
            if combo & 2
            else b
        )
        result = intersect_pair(left, right)
        got = result.to_array() if isinstance(result, BitmapTidList) else result
        assert got.tolist() == expected


class TestPackRowsAgree:
    @settings(max_examples=40)
    @given(st.lists(block_arrays, min_size=1, max_size=8))
    def test_rows_unpack_to_inputs(self, arrays):
        rows = pack_rows(arrays, base_tid=0, block_size=BLOCK_SIZE)
        for r, tids in enumerate(arrays):
            bits = np.unpackbits(rows[r].view(np.uint8), bitorder="little")
            assert not bits[BLOCK_SIZE:].any()
            assert np.flatnonzero(bits).tolist() == tids.tolist()
