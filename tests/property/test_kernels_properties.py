"""Property-based tests: TID-list representations and bitset packing.

A bitmap must round-trip to its sorted tid array, and packed rows must
unpack to exactly the lists they were packed from.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.itemsets.kernels import (
    TID_DTYPE,
    BitmapTidList,
    pack_rows,
)

BLOCK_SIZE = 256


#: Sorted, duplicate-free tid arrays that fit one block of BLOCK_SIZE
#: transactions, so they can also be packed into bitmaps.
block_arrays = st.sets(
    st.integers(min_value=0, max_value=BLOCK_SIZE - 1), max_size=BLOCK_SIZE
).map(lambda s: np.asarray(sorted(s), dtype=TID_DTYPE))


class TestBitmapAgree:
    @given(block_arrays)
    def test_roundtrip(self, tids):
        bitmap = BitmapTidList.from_array(tids, base=0, size=BLOCK_SIZE)
        assert bitmap.to_array().tolist() == tids.tolist()
        assert len(bitmap) == len(tids)


class TestPackRowsAgree:
    @settings(max_examples=40)
    @given(st.lists(block_arrays, min_size=1, max_size=8))
    def test_rows_unpack_to_inputs(self, arrays):
        rows = pack_rows(arrays, base_tid=0, block_size=BLOCK_SIZE)
        for r, tids in enumerate(arrays):
            bits = np.unpackbits(rows[r].view(np.uint8), bitorder="little")
            assert not bits[BLOCK_SIZE:].any()
            assert np.flatnonzero(bits).tolist() == tids.tolist()
