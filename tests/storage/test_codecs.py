"""Codec layer: exact round-trips are the contract, bytes are the point.

Every :class:`ColumnCodec` must invert exactly on its declared domain —
delta+varint on arbitrary int64 columns, raw-u16 on ``[0, 2**16)`` —
because cold blocks are rebuilt from these blobs byte-for-byte on
promotion.  Hypothesis hunts for round-trip violations; the directed
cases pin the wire format's edges (int64 extremes, empty columns).
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.storage.codecs import (
    CodecError,
    ColumnCodec,
    DeltaVarintCodec,
    RawCodec,
    RawU16Codec,
    deflate,
    inflate,
    resolve_codec,
)

INT64_MIN = -(2**63)
INT64_MAX = 2**63 - 1

int64_columns = st.lists(
    st.integers(INT64_MIN, INT64_MAX), min_size=0, max_size=300
).map(lambda values: np.asarray(values, dtype=np.int64))


class TestDeltaVarint:
    @settings(max_examples=100, deadline=None)
    @given(values=int64_columns)
    def test_round_trip_is_exact(self, values):
        codec = DeltaVarintCodec()
        blob = codec.encode(values)
        decoded = codec.decode(blob, len(values))
        assert decoded.dtype == np.int64
        np.testing.assert_array_equal(decoded, values)

    def test_int64_extremes_survive(self):
        codec = DeltaVarintCodec()
        values = np.array(
            [INT64_MIN, -1, 0, 1, INT64_MAX, INT64_MIN, INT64_MAX],
            dtype=np.int64,
        )
        np.testing.assert_array_equal(
            codec.decode(codec.encode(values), len(values)), values
        )

    def test_empty_column(self):
        codec = DeltaVarintCodec()
        assert codec.encode(np.empty(0, dtype=np.int64)) == b""
        assert len(codec.decode(b"", 0)) == 0

    def test_sorted_runs_compress_well(self):
        codec = DeltaVarintCodec()
        values = np.arange(10_000, dtype=np.int64)
        blob = codec.encode(values)
        # Consecutive deltas are all 1 -> one byte each (plus the base).
        assert len(blob) < len(values.tobytes()) / 6

    def test_count_mismatch_rejected(self):
        codec = DeltaVarintCodec()
        blob = codec.encode(np.arange(10, dtype=np.int64))
        with pytest.raises(CodecError):
            codec.decode(blob, 11)

    def test_truncated_blob_rejected(self):
        codec = DeltaVarintCodec()
        blob = codec.encode(np.arange(100, dtype=np.int64) * 1_000_003)
        with pytest.raises(CodecError):
            codec.decode(blob[:-1], 100)


class TestRegistryAndHelpers:
    def test_resolve_each_codec(self):
        for name, cls in [
            ("delta-varint", DeltaVarintCodec),
            ("raw", RawCodec),
            ("raw-u16", RawU16Codec),
        ]:
            codec = resolve_codec(name)
            assert isinstance(codec, cls)
            assert isinstance(codec, ColumnCodec)
            assert codec.name == name

    def test_unknown_codec_rejected(self):
        with pytest.raises(CodecError):
            resolve_codec("zstd")

    def test_raw_round_trip(self):
        codec = RawCodec()
        values = np.array([INT64_MIN, 0, INT64_MAX], dtype=np.int64)
        np.testing.assert_array_equal(
            codec.decode(codec.encode(values), 3), values
        )


class TestRawU16:
    @settings(max_examples=50, deadline=None)
    @given(
        values=st.lists(st.integers(0, 0xFFFF), max_size=300).map(
            lambda vs: np.asarray(vs, dtype=np.int64)
        )
    )
    def test_round_trip_is_exact(self, values):
        codec = RawU16Codec()
        decoded = codec.decode(codec.encode(values), len(values))
        assert decoded.dtype == np.int64
        np.testing.assert_array_equal(decoded, values)

    def test_empty_column(self):
        codec = RawU16Codec()
        assert codec.encode(np.empty(0, dtype=np.int64)) == b""
        assert len(codec.decode(b"", 0)) == 0

    def test_out_of_range_rejected(self):
        codec = RawU16Codec()
        for bad in ([-1], [0x10000], [5, -3, 9]):
            with pytest.raises(CodecError):
                codec.encode(np.asarray(bad, dtype=np.int64))

    def test_count_mismatch_rejected(self):
        codec = RawU16Codec()
        blob = codec.encode(np.arange(10, dtype=np.int64))
        with pytest.raises(CodecError):
            codec.decode(blob, 11)

    @settings(max_examples=30, deadline=None)
    @given(payload=st.binary(max_size=4096))
    def test_deflate_inflate_round_trip(self, payload):
        assert inflate(deflate(payload)) == payload

    def test_deflate_shrinks_redundant_payloads(self):
        payload = b"0123456789" * 1000
        assert len(deflate(payload)) < len(payload) / 10
