"""Column codecs for the tiered storage engine (delta+varint, raw).

Cold blocks — expired from the most recent window, so no model selects
them again — compact their records to compressed on-disk form (see
:class:`~repro.storage.engine.TieredBackend`); the records stay
readable for snapshots that still hold the block.  This module owns the
encodings, behind one tiny :class:`ColumnCodec` protocol with an exact
round-trip guarantee: ``decode(encode(values), len(values))`` returns
the input bit-for-bit for every ``int64`` array.

Three integer codecs ship:

* :class:`DeltaVarintCodec` — zigzag-encoded first differences in
  LEB128 varint bytes.  CSR offset columns (small, non-negative deltas)
  compress to one or two bytes per value; the zigzag step keeps
  *unsorted* int columns (CSR value runs restart at every transaction)
  lossless.  Encode and decode are fully vectorized: no Python-level
  per-value loop touches the data.
* :class:`RawU16Codec` — fixed two-byte values for unsorted narrow
  columns (item ids); trades ~0.7 bytes/value against delta-varint
  for a branch-free single-``frombuffer`` decode on the cold scan
  path.
* :class:`RawCodec` — ``tobytes``/``frombuffer``; the identity baseline
  the benchmarks compare against.

Float and pickled payloads have no integer structure to exploit, so the
byte-level helpers :func:`deflate` / :func:`inflate` (stdlib zlib) cover
the dense and pickle block layouts, and GEMM's model-spill bytes, when
those travel through the cold tier.
"""

from __future__ import annotations

import zlib
from typing import Protocol, runtime_checkable

import numpy as np

__all__ = [
    "CodecError",
    "ColumnCodec",
    "DeltaVarintCodec",
    "RawCodec",
    "RawU16Codec",
    "deflate",
    "inflate",
    "resolve_codec",
]

#: Maximum LEB128 bytes one 64-bit value can need (ceil(64 / 7)).
_MAX_VARINT_BYTES = 10

_U64 = np.uint64
_SEVEN = _U64(7)
_LOW7 = _U64(0x7F)


class CodecError(ValueError):
    """A blob cannot be decoded (wrong codec, count, or corruption)."""


@runtime_checkable
class ColumnCodec(Protocol):
    """Encodes one ``int64`` column to bytes and back, exactly.

    Implementations must round-trip every array they accept:
    ``decode(encode(values), len(values))`` equals ``values``
    element-for-element with dtype ``int64``.
    """

    #: Registry name, recorded in block ``meta.json`` files and specs.
    name: str

    def encode(self, values: np.ndarray) -> bytes:
        """Serialize a 1-d ``int64`` array."""
        ...

    def decode(self, blob: bytes, count: int) -> np.ndarray:
        """Recover exactly ``count`` values from :meth:`encode` output."""
        ...


def _as_int64(values: np.ndarray) -> np.ndarray:
    array = np.asarray(values)
    if array.ndim != 1:
        raise CodecError(f"column codecs take 1-d arrays, got shape {array.shape}")
    return array.astype(np.int64, copy=False)


# ----------------------------------------------------------------------
# Delta + varint
# ----------------------------------------------------------------------


def _zigzag(deltas: np.ndarray) -> np.ndarray:
    """Map signed deltas onto small unsigned values (int64 -> uint64)."""
    unsigned = deltas.astype(_U64)
    return (unsigned << _U64(1)) ^ (deltas >> np.int64(63)).astype(_U64)


def _unzigzag(encoded: np.ndarray) -> np.ndarray:
    return (
        (encoded >> _U64(1)) ^ (_U64(0) - (encoded & _U64(1)))
    ).astype(np.int64)


class DeltaVarintCodec:
    """Zigzag deltas in LEB128 varints, vectorized both ways.

    The first value is stored as its own (zigzagged) delta from zero,
    so the blob is self-contained.  Continuation bits are standard
    LEB128: the high bit of every byte except a value's last is set.
    """

    name = "delta-varint"

    def encode(self, values: np.ndarray) -> bytes:
        array = _as_int64(values)
        if len(array) == 0:
            return b""
        deltas = np.empty(len(array), dtype=np.int64)
        deltas[0] = array[0]
        np.subtract(array[1:], array[:-1], out=deltas[1:])
        encoded = _zigzag(deltas)
        # Bytes needed per value: one comparison per 7-bit threshold.
        nbytes = np.ones(len(encoded), dtype=np.int64)
        for shift in range(7, 64, 7):
            nbytes += encoded >= _U64(1) << _U64(shift)
        positions = np.arange(_MAX_VARINT_BYTES, dtype=np.int64)
        shifts = (_SEVEN * positions.astype(_U64))[None, :]
        payload = ((encoded[:, None] >> shifts) & _LOW7).astype(np.uint8)
        keep = positions[None, :] < nbytes[:, None]
        continued = positions[None, :] < (nbytes - 1)[:, None]
        payload |= continued.astype(np.uint8) << np.uint8(7)
        # Row-major boolean selection emits each value's bytes in order.
        return payload[keep].tobytes()

    def decode(self, blob: bytes, count: int) -> np.ndarray:
        if count == 0:
            if len(blob):
                raise CodecError("trailing bytes after the last varint")
            return np.empty(0, dtype=np.int64)
        raw = np.frombuffer(blob, dtype=np.uint8)
        if len(raw) == 0:
            raise CodecError(f"empty blob cannot hold {count} values")
        continued = (raw & np.uint8(0x80)) != 0
        if continued[-1]:
            raise CodecError("blob ends inside a varint")
        if len(raw) == count and not continued.any():
            # Every byte is its own varint (tiny deltas — the shape of
            # per-record length columns): decode is a single widen.
            return np.cumsum(_unzigzag(raw.astype(_U64)), dtype=np.int64)
        # Every varint ends in exactly one non-continuation byte, so the
        # continuation positions alone give the varint count — no start
        # scan needed to validate.
        multi = np.flatnonzero(continued)
        if len(raw) - len(multi) != count:
            raise CodecError(
                f"blob holds {len(raw) - len(multi)} varints, expected {count}"
            )
        # Fast path: no varint longer than two bytes (small deltas, the
        # overwhelmingly common shape for sorted tids and item columns).
        # Adjacent continuation bytes are the only way to spell a third
        # byte, the k-th two-byte varint starts ``k`` continuation bytes
        # past its index — so one diff and one subtract recover every
        # boundary — and the arithmetic runs at uint16 width (a
        # two-byte varint's zigzag value is under 2**14, so its delta
        # fits int16).
        starts = np.empty(len(raw), dtype=bool)
        starts[0] = True
        np.logical_not(continued[:-1], out=starts[1:])
        start_indices = np.flatnonzero(starts)
        if 2 * count >= len(raw) and not (np.diff(multi) == 1).any():
            encoded = (raw[start_indices] & np.uint8(0x7F)).astype(np.uint16)
            if len(multi):
                second = multi - np.arange(len(multi), dtype=np.int64)
                encoded[second] |= raw[multi + 1].astype(np.uint16) << np.uint16(7)
            deltas = (
                (encoded >> np.uint16(1))
                ^ (np.uint16(0) - (encoded & np.uint16(1)))
            ).view(np.int16)
            return np.cumsum(deltas, dtype=np.int64)
        low7 = (raw & np.uint8(0x7F)).astype(_U64)
        group = np.cumsum(starts) - 1
        offsets = (
            np.arange(len(raw), dtype=np.int64) - start_indices[group]
        ).astype(_U64)
        if int(offsets.max()) >= _MAX_VARINT_BYTES:
            raise CodecError("varint longer than 10 bytes")
        pieces = low7 << (_SEVEN * offsets)
        encoded = np.bitwise_or.reduceat(pieces, start_indices)
        return np.cumsum(_unzigzag(encoded), dtype=np.int64)


class RawCodec:
    """Identity codec: little-endian ``int64`` bytes."""

    name = "raw"

    def encode(self, values: np.ndarray) -> bytes:
        return _as_int64(values).astype("<i8", copy=False).tobytes()

    def decode(self, blob: bytes, count: int) -> np.ndarray:
        if len(blob) != count * 8:
            raise CodecError(
                f"raw blob of {len(blob)} bytes cannot hold {count} int64s"
            )
        return np.frombuffer(blob, dtype="<i8").astype(np.int64, copy=False)


class RawU16Codec:
    """Fixed two-byte values for columns that fit ``uint16``.

    Item-id value columns are narrow (the DEMON datasets top out around
    a thousand distinct items) but *unsorted* within each transaction
    run, so delta-varint pays a full boundary scan per decode without
    earning bytes back.  Storing them as raw little-endian ``uint16``
    costs ~2 bytes/value instead of ~1.3 — still 4x under dense
    ``int64`` — and decode collapses to one ``frombuffer`` plus a
    widening copy, with no data-dependent branches.  Encode rejects any
    value outside ``[0, 2**16)`` so the round-trip guarantee holds.
    """

    name = "raw-u16"

    def encode(self, values: np.ndarray) -> bytes:
        array = _as_int64(values)
        if len(array) and (
            int(array.min()) < 0 or int(array.max()) > 0xFFFF
        ):
            raise CodecError("raw-u16 encodes values in [0, 65536) only")
        return array.astype("<u2").tobytes()

    def decode(self, blob: bytes, count: int) -> np.ndarray:
        if len(blob) != count * 2:
            raise CodecError(
                f"raw-u16 blob of {len(blob)} bytes cannot hold {count} values"
            )
        return np.frombuffer(blob, dtype="<u2").astype(np.int64)


# ----------------------------------------------------------------------
# Byte-payload compression (dense float / pickle chunk layouts)
# ----------------------------------------------------------------------


def deflate(payload: bytes, level: int = 6) -> bytes:
    """Compress an opaque byte payload (zlib)."""
    return zlib.compress(payload, level)


def inflate(blob: bytes) -> bytes:
    """Reverse :func:`deflate` exactly."""
    return zlib.decompress(blob)


_CODECS: dict[str, ColumnCodec] = {
    codec.name: codec
    for codec in (
        DeltaVarintCodec(),
        RawCodec(),
        RawU16Codec(),
    )
}


def resolve_codec(name: str) -> ColumnCodec:
    """Look up a registered codec by its ``meta.json``/spec name."""
    codec = _CODECS.get(name)
    if codec is None:
        raise CodecError(
            f"unknown column codec {name!r}; registered: {sorted(_CODECS)}"
        )
    return codec
