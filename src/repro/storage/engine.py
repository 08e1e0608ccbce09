"""Pluggable block storage backends behind one streaming ingest spine.

DEMON's premise is block evolution — models are maintained as blocks
arrive and expire — so the dataset must not be forced to fit in RAM.
This module supplies the seam: a :class:`BlockBackend` turns a record
stream into a :class:`~repro.core.blocks.BlockData` that the
:class:`~repro.core.blocks.Block` handle wraps, and every consumer
iterates chunk-wise through the handle, never touching raw record
lists (demonlint DML013).

Three backends ship:

* :class:`InMemoryBackend` — the historical behaviour: records live as
  one materialized tuple, now with chunked iteration and byte metering.
* :class:`MmapBackend` — an on-disk columnar layout under a block
  directory: dense float blocks store one ``.npy`` per column, ragged
  integer transactions store a CSR pair (``values.npy``/``offsets.npy``);
  any other record shape is rejected with :class:`SchemaError`.  Arrays
  are lazily opened with ``numpy`` memory mapping and released by
  :meth:`close`, so resident memory stays bounded by the chunk size,
  not the block.
* :class:`TieredBackend` — mmap storage plus a hot/cold lifecycle:
  blocks expired from the most recent window compact to compressed
  per-chunk blobs (``storage/codecs.py``) in one ``packed.bin``,
  cutting disk and resident bytes severalfold; a cold block that keeps
  being scanned promotes itself back to the dense layout.

Byte accounting is *logical* and backend-independent (4 bytes per
integer field, 8 per coordinate — see
:func:`repro.core.blocks.record_nbytes`): ingest charges one write of
the block's size, every yielded chunk charges one read of that chunk's
size.  Identical data therefore produces identical
:class:`~repro.storage.iostats.IOStats` on either backend, which the
backend-equivalence suite asserts.

The ambient backend: setting ``DEMON_BLOCK_BACKEND=mmap`` routes every
:func:`~repro.core.blocks.make_block` call through one shared on-disk
backend (a process-lifetime temporary directory), letting the whole
test suite run against mmap storage without touching call sites.
``DEMON_BLOCK_CHUNK`` sets the default chunk size.
"""

from __future__ import annotations

import atexit
import json
import os
import shutil
import tempfile
import weakref
from abc import ABC, abstractmethod
from collections.abc import Iterable, Iterator, Sequence
from dataclasses import dataclass
from itertools import islice
from typing import Any, Generic, TypeVar

import numpy as np

from repro.contracts import (
    SanitizerViolation,
    blocking_call,
    claim_ownership,
    critical_section,
    sanitizers_armed,
    write_barrier,
)
from repro.storage.atomic import atomic_json, atomic_save, atomic_writer
from repro.core.blocks import (
    FLOAT_BYTES,
    INT_BYTES,
    Block,
    InMemoryBlockData,
    default_chunk_size,
    records_nbytes,
)
from repro.storage.iostats import IOStats, IOStatsRegistry

T = TypeVar("T")

#: Columnar layout kinds a block directory can hold.
KIND_CSR = "csr"
KIND_DENSE = "dense"

#: Version stamp of the on-disk block directory layout.
BLOCK_DIR_FORMAT = 1

#: Counter name backends charge ingest writes and chunk reads to.
BACKEND_COUNTER = "block_backend"


class SchemaError(TypeError):
    """A record stream does not conform to its block's inferred schema."""


@dataclass(frozen=True)
class BlockSchema:
    """The columnar layout chosen for one block.

    Attributes:
        kind: ``"csr"`` (ragged integer transactions) or ``"dense"``
            (fixed-width float points).
        width: Column count; meaningful for the dense kind only.
    """

    kind: str
    width: int = 0

    def to_dict(self) -> dict[str, Any]:
        return {"kind": self.kind, "width": self.width}

    @classmethod
    def from_dict(cls, payload: dict[str, Any]) -> "BlockSchema":
        return cls(kind=payload["kind"], width=int(payload.get("width", 0)))


def _is_int_record(record: Any) -> bool:
    return isinstance(record, tuple) and all(type(v) is int for v in record)


def _is_float_record(record: Any, width: int) -> bool:
    return (
        isinstance(record, tuple)
        and len(record) == width
        and all(type(v) is float for v in record)
    )


def infer_schema(records: Sequence[Any]) -> BlockSchema:
    """Choose a columnar layout from the first chunk of a record stream.

    Ragged tuples of plain ``int`` become CSR and fixed-width tuples of
    plain ``float`` become dense npy-per-column; any other shape (nested
    tuples, mixed or ragged floats, bools) raises :class:`SchemaError`.
    Empty blocks are vacuously CSR.
    """
    if not records:
        return BlockSchema(KIND_CSR)
    if all(_is_int_record(r) for r in records):
        return BlockSchema(KIND_CSR)
    width = len(records[0]) if isinstance(records[0], tuple) else 0
    if width and all(_is_float_record(r, width) for r in records):
        return BlockSchema(KIND_DENSE, width=width)
    raise SchemaError(
        f"records such as {records[0]!r} fit neither the csr layout (ragged "
        f"tuples of int) nor the dense one (fixed-width tuples of float); "
        f"only the in-memory backend stores other record shapes"
    )


def _chunked(records: Iterable[T], size: int) -> Iterator[list[T]]:
    iterator = iter(records)
    while True:
        chunk = list(islice(iterator, size))
        if not chunk:
            return
        yield chunk


def _fresh(value: Any) -> Any:
    """Rebuild a record without shared sub-objects.

    Checkpoints must be byte-identical across backends, but pickle
    memoizes by object *identity*: a caller that reuses one tuple for
    two records would pickle differently on the in-memory backend
    (which keeps caller objects) than on mmap (which rebuilds records
    from columns).  Canonicalizing at ingest removes aliasing on both
    paths, so equal data always produces equal bytes.
    """
    kind = type(value)
    if kind is tuple:
        return tuple(_fresh(v) for v in value)
    if kind is list:
        return [_fresh(v) for v in value]
    if kind is str:
        return value.encode("utf-8").decode("utf-8")
    return value


def _fresh_records(records: Iterable[T]) -> Iterator[T]:
    return (_fresh(record) for record in records)


# ----------------------------------------------------------------------
# Runtime sanitizer views (the dynamic half of DML014/DML015)
# ----------------------------------------------------------------------


class ChunkView(list):
    """A chunk that knows when its backing buffers were released.

    Armed backends yield these instead of plain lists.  When the
    owning data's :meth:`MmapBlockData.close` runs, every live view is
    *poisoned*: element access afterwards raises
    :class:`~repro.contracts.SanitizerViolation` — the dynamic
    counterpart of demonlint DML015 (a chunk view stored past its
    block's lifetime is a dangling pointer once the backend unmaps).
    """

    __slots__ = ("_poisoned", "__weakref__")

    #: Identity hash (plain lists are unhashable) so the owning data
    #: can hold poisoning targets in a WeakSet without pinning them.
    __hash__ = object.__hash__

    def __init__(self, items: Iterable[Any] = ()) -> None:
        super().__init__(items)
        self._poisoned = False

    def _poison(self) -> None:
        self._poisoned = True

    def _guard(self) -> None:
        if self._poisoned:
            raise SanitizerViolation(
                "chunk view used after its backend was closed; the "
                "backing buffers are unmapped — copy chunks you need "
                "to keep (DML015)"
            )

    def __iter__(self) -> Iterator[Any]:
        self._guard()
        return super().__iter__()

    def __getitem__(self, index: Any) -> Any:
        self._guard()
        return super().__getitem__(index)


# ----------------------------------------------------------------------
# Metered in-memory data
# ----------------------------------------------------------------------


class MeteredMemoryData(InMemoryBlockData[T]):
    """In-memory block data that charges reads to an :class:`IOStats`."""

    __slots__ = ("_stats", "_chunk_size")

    def __init__(
        self,
        records: Iterable[T],
        stats: IOStats,
        chunk_size: int | None = None,
    ) -> None:
        super().__init__(_fresh_records(records))
        self._stats = stats
        self._chunk_size = chunk_size

    def chunks(self, chunk_size: int | None = None) -> Iterator[Sequence[T]]:
        if chunk_size is None:
            chunk_size = self._chunk_size
        for chunk in super().chunks(chunk_size):
            self._stats.record_read(records_nbytes(chunk))
            yield chunk

    def materialize(self) -> tuple[T, ...]:
        self._stats.record_read(self.nbytes)
        return super().materialize()

    def as_array(self, dtype: Any = float) -> Any:
        self._stats.record_read(self.nbytes)
        return np.asarray(super().materialize(), dtype=dtype)


# ----------------------------------------------------------------------
# The on-disk columnar layout
# ----------------------------------------------------------------------


def _write_block_dir(
    path: str, records: Iterable[T], chunk_size: int
) -> "MmapBlockData[T]":
    """Stream ``records`` into the (existing, empty) directory ``path``."""
    chunks = _chunked(records, chunk_size)
    first = next(chunks, [])
    schema = infer_schema(first)
    if schema.kind == KIND_CSR:
        num_records, nbytes = _write_csr(path, first, chunks)
    else:
        num_records, nbytes = _write_dense(path, first, chunks, schema.width)
    meta = {
        "format": BLOCK_DIR_FORMAT,
        "schema": schema.to_dict(),
        "num_records": num_records,
        "nbytes": nbytes,
        "chunk_size": chunk_size,
    }
    atomic_json(os.path.join(path, "meta.json"), meta)
    return MmapBlockData(
        path=path,
        schema=schema,
        num_records=num_records,
        nbytes=nbytes,
        chunk_size=chunk_size,
    )


def _check_conforms(chunk: Sequence[Any], schema: BlockSchema) -> None:
    if schema.kind == KIND_CSR:
        bad = next((r for r in chunk if not _is_int_record(r)), None)
    else:
        bad = next((r for r in chunk if not _is_float_record(r, schema.width)), None)
    if bad is not None:
        raise SchemaError(
            f"record {bad!r} does not match the block's inferred "
            f"{schema.kind} schema; blocks must be type-homogeneous"
        )


def _write_csr(
    path: str, first: list[Any], rest: Iterator[list[Any]]
) -> tuple[int, int]:
    value_parts: list[np.ndarray] = []
    length_parts: list[np.ndarray] = []
    num_records = 0
    for chunk in _prepend(first, rest):
        _check_conforms(chunk, BlockSchema(KIND_CSR))
        length_parts.append(
            np.fromiter((len(r) for r in chunk), dtype=np.int64, count=len(chunk))
        )
        flat = [v for record in chunk for v in record]
        value_parts.append(np.asarray(flat, dtype=np.int64))
        num_records += len(chunk)
    values = (
        np.concatenate(value_parts)
        if value_parts
        else np.empty(0, dtype=np.int64)
    )
    lengths = (
        np.concatenate(length_parts)
        if length_parts
        else np.empty(0, dtype=np.int64)
    )
    offsets = np.zeros(num_records + 1, dtype=np.int64)
    np.cumsum(lengths, out=offsets[1:])
    atomic_save(os.path.join(path, "values.npy"), values)
    atomic_save(os.path.join(path, "offsets.npy"), offsets)
    return num_records, INT_BYTES * int(values.shape[0])


def _write_dense(
    path: str, first: list[Any], rest: Iterator[list[Any]], width: int
) -> tuple[int, int]:
    columns: list[list[np.ndarray]] = [[] for _ in range(width)]
    num_records = 0
    schema = BlockSchema(KIND_DENSE, width=width)
    for chunk in _prepend(first, rest):
        _check_conforms(chunk, schema)
        arr = np.asarray(chunk, dtype=np.float64).reshape(len(chunk), width)
        for j in range(width):
            columns[j].append(arr[:, j])
        num_records += len(chunk)
    for j in range(width):
        column = (
            np.concatenate(columns[j])
            if columns[j]
            else np.empty(0, dtype=np.float64)
        )
        atomic_save(os.path.join(path, f"col_{j:03d}.npy"), column)
    return num_records, FLOAT_BYTES * width * num_records


def _prepend(first: list[T], rest: Iterator[list[T]]) -> Iterator[list[T]]:
    if first:
        yield first
    yield from rest


class MmapBlockData(Generic[T]):
    """Lazily memory-mapped record storage under one block directory."""

    __slots__ = (
        "path",
        "schema",
        "_num_records",
        "_nbytes",
        "_chunk_size",
        "_stats",
        "_cache",
        "_views",
        "_sealed",
        "__weakref__",
    )

    def __init__(
        self,
        path: str,
        schema: BlockSchema,
        num_records: int,
        nbytes: int,
        chunk_size: int | None = None,
        stats: IOStats | None = None,
    ) -> None:
        self.path = path
        self.schema = schema
        self._num_records = num_records
        self._nbytes = nbytes
        self._chunk_size = chunk_size
        self._stats = stats
        self._cache: Any = None
        self._views: "weakref.WeakSet[ChunkView]" = weakref.WeakSet()
        self._sealed = False

    @property
    def num_records(self) -> int:
        return self._num_records

    @property
    def nbytes(self) -> int:
        return self._nbytes

    def bind_stats(self, stats: IOStats) -> None:
        """Point byte accounting at a backend's counter."""
        self._stats = stats

    def close(self) -> None:
        """Release the lazily opened arrays; access reopens them.

        With sanitizers armed the release is also *enforced*: every
        chunk view handed out so far is poisoned and the data is
        sealed, so both use-after-close on the block (DML014) and
        stale stored views (DML015) raise instead of silently
        re-mapping the files.
        """
        self._cache = None
        for view in list(self._views):
            view._poison()
        self._views = weakref.WeakSet()
        if sanitizers_armed():
            self._sealed = True

    def reopen(self) -> None:
        """Lift the sanitizer seal after an explicit ``backend.open()``."""
        self._sealed = False

    def _ensure_unsealed(self) -> None:
        if self._sealed:
            raise SanitizerViolation(
                f"block data at {self.path} is used after its backend "
                f"was closed; call backend.open() to reopen or move "
                f"the access before close() (DML014)"
            )

    # -- lazy array handles --------------------------------------------

    def _arrays(self) -> Any:
        if self._cache is None:
            if self.schema.kind == KIND_CSR:
                self._cache = (
                    np.load(os.path.join(self.path, "values.npy"), mmap_mode="r"),
                    np.load(os.path.join(self.path, "offsets.npy"), mmap_mode="r"),
                )
            else:
                self._cache = [
                    np.load(
                        os.path.join(self.path, f"col_{j:03d}.npy"), mmap_mode="r"
                    )
                    for j in range(self.schema.width)
                ]
        return self._cache

    # -- record iteration ----------------------------------------------

    def _charge(self, nbytes: int) -> None:
        if self._stats is not None:
            self._stats.record_read(nbytes)

    def _default_size(self) -> int:
        if self._chunk_size is not None:
            return self._chunk_size
        return default_chunk_size()

    def chunks(self, chunk_size: int | None = None) -> Iterator[Sequence[T]]:
        size = chunk_size if chunk_size is not None else self._default_size()
        if size < 1:
            raise ValueError(f"chunk size must be >= 1, got {size}")
        self._ensure_unsealed()
        armed = sanitizers_armed()
        for chunk, nbytes in self._chunks_with_sizes(size):
            self._ensure_unsealed()
            self._charge(nbytes)
            if armed:
                view = ChunkView(chunk)
                self._views.add(view)
                yield view
            else:
                yield chunk

    def _chunks_with_sizes(
        self, size: int
    ) -> Iterator[tuple[Sequence[T], int]]:
        if self.schema.kind == KIND_CSR:
            yield from self._csr_chunks(size)
        else:
            yield from self._dense_chunks(size)

    def _csr_chunks(self, size: int) -> Iterator[tuple[Sequence[T], int]]:
        values, offsets = self._arrays()
        for start in range(0, self._num_records, size):
            stop = min(start + size, self._num_records)
            offs = offsets[start : stop + 1]
            lo, hi = int(offs[0]), int(offs[-1])
            flat = values[lo:hi].tolist()
            rel = (offs - lo).tolist()
            records = [
                tuple(flat[rel[i] : rel[i + 1]]) for i in range(stop - start)
            ]
            yield records, INT_BYTES * (hi - lo)

    def _dense_chunks(self, size: int) -> Iterator[tuple[Sequence[T], int]]:
        columns = self._arrays()
        width = self.schema.width
        for start in range(0, self._num_records, size):
            stop = min(start + size, self._num_records)
            arr = np.column_stack([column[start:stop] for column in columns])
            records = [tuple(row) for row in arr.tolist()]
            yield records, FLOAT_BYTES * width * (stop - start)

    # -- eager views ----------------------------------------------------

    def materialize(self) -> tuple[T, ...]:
        self._ensure_unsealed()
        records: list[T] = []
        for chunk, _nbytes in self._chunks_with_sizes(self._default_size()):
            records.extend(chunk)
        self._charge(self._nbytes)
        return tuple(records)

    def as_array(self, dtype: Any = float) -> Any:
        self._ensure_unsealed()
        self._charge(self._nbytes)
        if self.schema.kind == KIND_DENSE:
            columns = self._arrays()
            return np.column_stack([np.asarray(c) for c in columns]).astype(
                dtype, copy=False
            )
        records: list[T] = []
        for chunk, _nbytes in self._chunks_with_sizes(self._default_size()):
            records.extend(chunk)
        return np.asarray(records, dtype=dtype)


# ----------------------------------------------------------------------
# Backends
# ----------------------------------------------------------------------


class BlockBackend(ABC):
    """Creates and owns block record storage — the streaming ingest spine.

    Args:
        registry: I/O registry ingest writes and chunk reads are
            charged to; a private one is created when omitted.
        chunk_size: Default records-per-chunk for blocks this backend
            creates; ``None`` defers to ``DEMON_BLOCK_CHUNK``.
        counter_name: Counter name within ``registry``.
    """

    #: Short name used in specs and CLI flags ("memory" / "mmap").
    kind: str = ""

    def __init__(
        self,
        registry: IOStatsRegistry | None = None,
        chunk_size: int | None = None,
        counter_name: str = BACKEND_COUNTER,
    ) -> None:
        self.registry = registry if registry is not None else IOStatsRegistry()
        self._stats = self.registry.get(counter_name)
        self.chunk_size = chunk_size
        self._datas: "weakref.WeakSet[Any]" = weakref.WeakSet()
        self._closed = False
        # Ownership tag for the interleaving sanitizer: a backend built
        # in the parent must not be mutated from a worker task body.
        claim_ownership(self)

    @property
    def stats(self) -> IOStats:
        """The counter ingest and iteration are charged to."""
        return self._stats

    def resolved_chunk_size(self) -> int:
        """The chunk size blocks of this backend are written with."""
        return self.chunk_size if self.chunk_size is not None else default_chunk_size()

    def ingest(
        self,
        block_id: int,
        records: Iterable[T],
        label: str = "",
        metadata: dict[str, Any] | None = None,
    ) -> Block[T]:
        """Stream ``records`` into backend storage; return the handle.

        The stream is consumed exactly once; one logical write of the
        block's full size is charged.
        """
        if self._closed:
            raise RuntimeError(f"{self.kind} backend is closed")
        write_barrier(self, "ingest")
        data = self._create_data(records)
        self._datas.add(data)
        self._stats.record_write(data.nbytes)
        return Block(block_id, label=label, metadata=metadata, data=data)

    def adopt(self, block: Block[T]) -> Block[T]:
        """Re-home an existing block's records onto this backend.

        Blocks already owned by this backend are returned unchanged, so
        adoption is idempotent (restore paths call it unconditionally).
        """
        if block.data in self._datas:
            return block
        return self.ingest(
            block.block_id,
            block.data.materialize(),
            label=block.label,
            metadata=block.metadata,
        )

    def notify_expired(self, block_ids: Iterable[int]) -> int:
        """Hint that blocks slid out of every active window.

        The session spine calls this when the most-recent-window option
        retires a block — *after* any deferred maintenance on it has
        run, so backends may safely demote the block to a slower tier.
        The base implementation ignores the hint and reports zero
        blocks demoted; :class:`TieredBackend` overrides it to compress
        dense columns down to its cold tier.  Unknown and
        already-demoted ids must be ignored (the call is idempotent).
        """
        return 0

    def open(self) -> None:
        """Re-enable ingest after :meth:`close`.

        Sanitizer seals on the backend's block data are lifted too —
        reopening is the sanctioned way to use a handle again
        (typestate ``closed -> open``); already-poisoned chunk views
        stay poisoned because their buffers were really released.
        """
        for data in list(self._datas):
            reopen = getattr(data, "reopen", None)
            if reopen is not None:
                reopen()
        self._closed = False

    def close(self) -> None:
        """Release lazily opened resources; iteration reopens them."""
        for data in list(self._datas):
            release = getattr(data, "close", None)
            if release is not None:
                release()
        self._closed = True

    def __enter__(self) -> "BlockBackend":
        self.open()
        return self

    def __exit__(self, *exc: Any) -> None:
        self.close()

    @abstractmethod
    def _create_data(self, records: Iterable[T]) -> Any:
        """Consume a record stream into this backend's storage."""

    @abstractmethod
    def spec(self) -> dict[str, Any]:
        """A picklable description sufficient to rebuild this backend."""


class InMemoryBackend(BlockBackend):
    """The historical in-memory storage, now metered and chunk-iterable."""

    kind = "memory"

    def _create_data(self, records: Iterable[T]) -> MeteredMemoryData[T]:
        return MeteredMemoryData(records, self._stats, self.chunk_size)

    def spec(self) -> dict[str, Any]:
        return {"kind": self.kind, "chunk_size": self.chunk_size}


class MmapBackend(BlockBackend):
    """On-disk columnar block storage with lazy memory-mapped reads.

    Args:
        root: Directory block subdirectories are created under; a fresh
            temporary directory is created when omitted.  Sharing a
            root across backends is safe — each block directory is
            claimed with an exclusive create, so a backend skips names
            another one already took.
        registry / chunk_size / counter_name: see :class:`BlockBackend`.
    """

    kind = "mmap"

    def __init__(
        self,
        root: str | None = None,
        registry: IOStatsRegistry | None = None,
        chunk_size: int | None = None,
        counter_name: str = BACKEND_COUNTER,
    ) -> None:
        super().__init__(
            registry=registry, chunk_size=chunk_size, counter_name=counter_name
        )
        if root is None:
            root = tempfile.mkdtemp(prefix="demon-blocks-")
        self.root = str(root)
        os.makedirs(self.root, exist_ok=True)
        self._seq = self._scan_seq()

    def _scan_seq(self) -> int:
        highest = 0
        for name in os.listdir(self.root):
            if name.startswith("b") and name[1:].isdigit():
                highest = max(highest, int(name[1:]))
        return highest

    def _claim_block_dir(self) -> str:
        """Create the next free ``bNNNNNNNN`` directory under the root.

        The sequence scanned at construction is only a starting hint:
        another backend on the same root may have taken later names
        since, and ``os.mkdir`` fails on those instead of sharing them.
        """
        while True:
            self._seq += 1
            path = os.path.join(self.root, f"b{self._seq:08d}")
            try:
                os.mkdir(path)
            except FileExistsError:
                continue
            return path

    def _create_data(self, records: Iterable[T]) -> MmapBlockData[T]:
        path = self._claim_block_dir()
        try:
            data = _write_block_dir(path, records, self.resolved_chunk_size())
        except BaseException:
            # A rejected stream (SchemaError) publishes no directory.
            shutil.rmtree(path, ignore_errors=True)
            raise
        data.bind_stats(self._stats)
        return data

    def destroy(self) -> None:
        """Close the backend and delete its on-disk root."""
        self.close()
        shutil.rmtree(self.root, ignore_errors=True)

    def spec(self) -> dict[str, Any]:
        return {"kind": self.kind, "root": self.root, "chunk_size": self.chunk_size}


# ----------------------------------------------------------------------
# The tiered hot/cold lifecycle
# ----------------------------------------------------------------------

#: Block temperature tiers.
TIER_HOT = "hot"
TIER_COLD = "cold"

#: A cold block promotes back to the dense layout when it has served
#: more than this many compressed scans — repeated access means the MRW
#: expiry call was wrong about the block's temperature.
PROMOTE_AFTER_READS = 2

#: During demotion the lazily mapped dense arrays are re-opened every
#: this many packed chunks, so the resident set stays bounded by a few
#: chunks instead of the whole block's touched pages.
_DEMOTE_RECYCLE_CHUNKS = 16

#: Codec recorded for the dense float layout.
DEFLATE_CODEC = "deflate"

#: Codec for the CSR offset columns (and for value runs too wide for
#: ``raw-u16``).
INT_CODEC = "delta-varint"


def _dense_file_names(schema: BlockSchema) -> list[str]:
    """The dense-layout files a block directory holds for ``schema``."""
    if schema.kind == KIND_CSR:
        return ["values.npy", "offsets.npy"]
    return [f"col_{j:03d}.npy" for j in range(schema.width)]


class TieredBlockData(MmapBlockData[T]):
    """Block data that can live dense (hot) or compressed (cold).

    Hot blocks are plain :class:`MmapBlockData` directories.
    :meth:`demote` compacts the dense columns into one ``packed.bin``
    of per-chunk codec blobs (delta+varint for CSR offset columns,
    raw ``uint16`` for value runs that fit it — they are unsorted, so
    delta-varint buys no bytes there and raw decodes branch-free —
    deflate for float rows), rewrites ``meta.json``
    with the tier, codec, and packed chunk index, and deletes the dense
    files; :meth:`promote` is the exact inverse.  Readers never notice:
    chunk boundaries and logical byte charges are identical in both
    tiers, so :class:`~repro.storage.iostats.IOStats` and checkpoint
    bytes stay backend- and tier-independent.

    Cold reads go through one lazily opened ``uint8`` memory map of
    ``packed.bin`` that participates in the same close/reopen/seal
    lifecycle as the dense handles (DML014/DML015).
    """

    __slots__ = ("tier", "codec", "_packed_rows", "_cold_reads", "_promoter")

    def __init__(
        self,
        path: str,
        schema: BlockSchema,
        num_records: int,
        nbytes: int,
        chunk_size: int | None = None,
        stats: IOStats | None = None,
        tier: str = TIER_HOT,
        codec: str | None = None,
        packed_rows: list[dict[str, Any]] | None = None,
    ) -> None:
        super().__init__(
            path=path,
            schema=schema,
            num_records=num_records,
            nbytes=nbytes,
            chunk_size=chunk_size,
            stats=stats,
        )
        self.tier = tier
        self.codec = codec
        self._packed_rows = packed_rows or []
        self._cold_reads = 0
        self._promoter: Any = None

    @classmethod
    def from_mmap(cls, data: MmapBlockData[T]) -> "TieredBlockData[T]":
        """Wrap a freshly written dense block directory (hot tier)."""
        return cls(
            path=data.path,
            schema=data.schema,
            num_records=data._num_records,
            nbytes=data._nbytes,
            chunk_size=data._chunk_size,
            stats=data._stats,
        )

    # -- tier bookkeeping ----------------------------------------------

    @property
    def packed_path(self) -> str:
        return os.path.join(self.path, "packed.bin")

    def compressed_nbytes(self) -> int:
        """Bytes of ``packed.bin`` currently holding this block (0 if hot)."""
        if self.tier != TIER_COLD:
            return 0
        return sum(
            int(span[1])
            for entry in self._packed_rows
            for span in entry["spans"]
        )

    def _write_meta(self) -> None:
        meta: dict[str, Any] = {
            "format": BLOCK_DIR_FORMAT,
            "schema": self.schema.to_dict(),
            "num_records": self._num_records,
            "nbytes": self._nbytes,
            "chunk_size": self._chunk_size,
            "tier": self.tier,
        }
        if self.tier == TIER_COLD:
            meta["codec"] = self.codec
            meta["packed"] = self._packed_rows
        atomic_json(os.path.join(self.path, "meta.json"), meta)

    # -- demotion (hot -> cold) ----------------------------------------

    def demote(self) -> int:
        """Compact the dense layout to compressed form; idempotent.

        Returns the number of dense bytes removed from disk (0 when the
        block was already cold).  Tier maintenance is *not* charged to
        the backend's I/O counter: logical reads and writes are
        placement-independent, and a background compaction is neither.
        """
        from repro.storage.codecs import deflate, resolve_codec

        if self.tier == TIER_COLD:
            return 0
        blocking_call("demote")
        codec_name = INT_CODEC if self.schema.kind == KIND_CSR else DEFLATE_CODEC
        codec = resolve_codec(INT_CODEC) if self.schema.kind == KIND_CSR else None
        dense_files = [
            os.path.join(self.path, name)
            for name in _dense_file_names(self.schema)
        ]
        reclaimed = sum(os.path.getsize(f) for f in dense_files if os.path.exists(f))
        size = self._default_size()
        entries: list[dict[str, Any]] = []
        # Crash-safe ordering: publish packed.bin atomically, flip the
        # in-memory tier, publish meta.json atomically, and only then
        # delete the dense files.  A crash at any point leaves either a
        # fully hot block (meta still dense, orphaned packed scratch) or
        # a fully cold block (meta packed, orphaned dense files) — both
        # readable; orphans are overwritten by the next transition.
        with atomic_writer(self.packed_path) as out:
            if self.schema.kind == KIND_CSR:
                self._demote_csr(out, codec, size, entries)
            else:
                self._demote_dense(out, deflate, size, entries)
        self._cache = None
        self.tier = TIER_COLD
        self.codec = codec_name
        self._packed_rows = entries
        self._cold_reads = 0
        self._write_meta()
        for f in dense_files:
            if os.path.exists(f):
                os.remove(f)
        return reclaimed

    def _demote_csr(
        self,
        out: Any,
        codec: Any,
        size: int,
        entries: list[dict[str, Any]],
    ) -> None:
        from repro.storage.codecs import resolve_codec

        offset = 0
        for index, start in enumerate(range(0, self._num_records, size)):
            values, offsets = self._arrays()
            stop = min(start + size, self._num_records)
            offs = np.asarray(offsets[start : stop + 1], dtype=np.int64)
            vals = np.asarray(values[int(offs[0]) : int(offs[-1])], dtype=np.int64)
            # Chunk-local cumulative offsets, not per-record lengths:
            # the codec's delta stream is then exactly the (non-negative)
            # lengths, and decoding hands back ready-to-slice offsets
            # without a second cumsum on the read path.
            offsets_blob = codec.encode(offs[1:] - offs[0])
            # Value runs are unsorted (they restart at every record),
            # so delta-varint earns nothing over two raw bytes when the
            # ids fit uint16 — and raw decodes with one frombuffer.
            vcodec_name = None
            if len(vals) == 0 or (
                int(vals.min()) >= 0 and int(vals.max()) <= 0xFFFF
            ):
                vcodec_name = "raw-u16"
            vcodec = resolve_codec(vcodec_name) if vcodec_name else codec
            values_blob = vcodec.encode(vals)
            out.write(offsets_blob)
            out.write(values_blob)
            entry: dict[str, Any] = {
                "count": stop - start,
                "values": int(len(vals)),
                "spans": [
                    [offset, len(offsets_blob)],
                    [offset + len(offsets_blob), len(values_blob)],
                ],
            }
            if vcodec_name:
                entry["vcodec"] = vcodec_name
            entries.append(entry)
            offset += len(offsets_blob) + len(values_blob)
            if (index + 1) % _DEMOTE_RECYCLE_CHUNKS == 0:
                self._cache = None

    def _demote_dense(
        self,
        out: Any,
        deflate: Any,
        size: int,
        entries: list[dict[str, Any]],
    ) -> None:
        offset = 0
        width = self.schema.width
        for index, start in enumerate(range(0, self._num_records, size)):
            columns = self._arrays()
            stop = min(start + size, self._num_records)
            rows = np.column_stack(
                [np.asarray(column[start:stop]) for column in columns]
            ).astype(np.float64, copy=False)
            blob = deflate(rows.tobytes())
            out.write(blob)
            entries.append({"count": stop - start, "spans": [[offset, len(blob)]]})
            offset += len(blob)
            if (index + 1) % _DEMOTE_RECYCLE_CHUNKS == 0:
                self._cache = None

    # -- promotion (cold -> hot) ---------------------------------------

    def promote(self) -> int:
        """Rebuild the dense layout from ``packed.bin``; idempotent.

        Returns the compressed bytes removed (0 when already hot).  The
        rebuilt dense files are byte-identical to the pre-demotion ones
        (codecs round-trip exactly), so a demote/promote cycle is
        invisible to checkpoints and the parallel shard path.
        """
        if self.tier != TIER_COLD:
            return 0
        blocking_call("promote")
        freed = self.compressed_nbytes()
        # Mirror of demote's crash-safe ordering: dense files are
        # published atomically first, meta.json flips the block hot, and
        # packed.bin is removed last (an orphaned packed.bin under a hot
        # meta is unreferenced and inert).
        if self.schema.kind == KIND_CSR:
            self._promote_csr()
        else:
            self._promote_dense()
        self._cache = None
        self.tier = TIER_HOT
        self.codec = None
        self._packed_rows = []
        self._cold_reads = 0
        self._write_meta()
        if os.path.exists(self.packed_path):
            os.remove(self.packed_path)
        return freed

    def _promote_csr(self) -> None:
        from repro.storage.codecs import resolve_codec

        codec = resolve_codec(self.codec or "delta-varint")
        packed = self._packed()
        length_parts: list[np.ndarray] = []
        value_parts: list[np.ndarray] = []
        for entry in self._packed_rows:
            (l_off, l_len), (v_off, v_len) = entry["spans"]
            local = codec.decode(packed[l_off : l_off + l_len], int(entry["count"]))
            length_parts.append(np.diff(local, prepend=0))
            vcodec = (
                resolve_codec(entry["vcodec"]) if "vcodec" in entry else codec
            )
            value_parts.append(
                vcodec.decode(packed[v_off : v_off + v_len], int(entry["values"]))
            )
        lengths = (
            np.concatenate(length_parts)
            if length_parts
            else np.empty(0, dtype=np.int64)
        )
        values = (
            np.concatenate(value_parts)
            if value_parts
            else np.empty(0, dtype=np.int64)
        )
        offsets = np.zeros(self._num_records + 1, dtype=np.int64)
        np.cumsum(lengths, out=offsets[1:])
        self._cache = None
        atomic_save(os.path.join(self.path, "values.npy"), values)
        atomic_save(os.path.join(self.path, "offsets.npy"), offsets)

    def _promote_dense(self) -> None:
        from repro.storage.codecs import inflate

        packed = self._packed()
        width = self.schema.width
        parts: list[np.ndarray] = []
        for entry in self._packed_rows:
            (off, length) = entry["spans"][0]
            rows = np.frombuffer(
                inflate(packed[off : off + length]), dtype=np.float64
            ).reshape(int(entry["count"]), width)
            parts.append(rows)
        matrix = (
            np.concatenate(parts)
            if parts
            else np.empty((0, width), dtype=np.float64)
        )
        self._cache = None
        for j in range(width):
            atomic_save(
                os.path.join(self.path, f"col_{j:03d}.npy"), matrix[:, j].copy()
            )

    # -- cold reads ----------------------------------------------------

    def _packed(self) -> np.ndarray:
        """The lazily opened ``uint8`` map of ``packed.bin``."""
        if self._cache is None:
            if os.path.getsize(self.packed_path) == 0:
                self._cache = np.empty(0, dtype=np.uint8)
            else:
                self._cache = np.memmap(self.packed_path, dtype=np.uint8, mode="r")
        return self._cache

    def _arrays(self) -> Any:
        if self.tier == TIER_COLD:
            return self._packed()
        return super()._arrays()

    def _note_cold_read(self) -> None:
        """Count one compressed scan; promote past the threshold."""
        self._cold_reads += 1
        if self._promoter is not None and self._cold_reads > PROMOTE_AFTER_READS:
            self._promoter(self)

    def chunks(self, chunk_size: int | None = None) -> Iterator[Sequence[T]]:
        if self.tier == TIER_COLD:
            self._note_cold_read()
        return super().chunks(chunk_size)

    def materialize(self) -> tuple[T, ...]:
        if self.tier == TIER_COLD:
            self._note_cold_read()
        return super().materialize()

    def _chunks_with_sizes(self, size: int) -> Iterator[tuple[Sequence[T], int]]:
        if self.tier != TIER_COLD:
            yield from super()._chunks_with_sizes(size)
            return
        pending: list[T] = []
        pending_nbytes = 0
        for records, nbytes in self._cold_record_chunks():
            if not pending and len(records) == size:
                # Packed chunks line up with the requested size (the
                # common case: both use the block's default), so the
                # charge comes straight from the decode metadata
                # instead of an O(records) re-walk.
                yield records, nbytes
                continue
            pending.extend(records)
            pending_nbytes += nbytes
            while len(pending) >= size:
                chunk, pending = pending[:size], pending[size:]
                chunk_nbytes = records_nbytes(chunk)
                pending_nbytes -= chunk_nbytes
                yield chunk, chunk_nbytes
        if pending:
            yield pending, pending_nbytes

    def _cold_record_chunks(self) -> Iterator[tuple[list[T], int]]:
        """Decode the packed chunks one at a time, never the whole block."""
        from repro.storage.codecs import inflate, resolve_codec

        if self.schema.kind == KIND_CSR:
            codec = resolve_codec(self.codec or "delta-varint")
            for entry in self._packed_rows:
                packed = self._packed()
                (l_off, l_len), (v_off, v_len) = entry["spans"]
                count = int(entry["count"])
                # The offsets blob decodes straight to chunk-local
                # cumulative offsets; only the leading zero is missing.
                offs = codec.decode(packed[l_off : l_off + l_len], count)
                vcodec = (
                    resolve_codec(entry["vcodec"])
                    if "vcodec" in entry
                    else codec
                )
                vals = vcodec.decode(
                    packed[v_off : v_off + v_len], int(entry["values"])
                )
                flat = vals.tolist()
                rel_list = [0] + offs.tolist()
                yield (
                    [
                        tuple(flat[rel_list[i] : rel_list[i + 1]])
                        for i in range(count)
                    ],
                    INT_BYTES * int(entry["values"]),
                )
        else:
            width = self.schema.width
            for entry in self._packed_rows:
                packed = self._packed()
                (off, length) = entry["spans"][0]
                rows = np.frombuffer(
                    inflate(packed[off : off + length]), dtype=np.float64
                ).reshape(int(entry["count"]), width)
                yield (
                    [tuple(row) for row in rows.tolist()],
                    FLOAT_BYTES * width * int(entry["count"]),
                )

    def as_array(self, dtype: Any = float) -> Any:
        if self.tier != TIER_COLD:
            return super().as_array(dtype)
        self._note_cold_read()
        if self.tier != TIER_COLD:  # the read itself tripped a promotion
            return super().as_array(dtype)
        self._ensure_unsealed()
        self._charge(self._nbytes)
        records: list[T] = []
        for chunk, _nbytes in self._cold_record_chunks():
            records.extend(chunk)
        return np.asarray(records, dtype=dtype)


def load_block_data(path: str, stats: IOStats | None = None) -> MmapBlockData[Any]:
    """Rebuild block data from an on-disk block directory's ``meta.json``.

    Hot (or plain mmap) directories come back as :class:`MmapBlockData`;
    directories carrying a cold tier come back as
    :class:`TieredBlockData` reading ``packed.bin`` in place — this is
    how parallel workers reopen compressed columns zero-copy.  A
    directory whose ``"format"`` is missing or is not
    :data:`BLOCK_DIR_FORMAT`, or whose schema kind is neither csr nor
    dense, raises ``ValueError`` naming ``path``.
    """
    meta_path = os.path.join(path, "meta.json")
    with open(meta_path, "r", encoding="utf-8") as fh:
        meta = json.load(fh)
    found = meta.get("format")
    if found != BLOCK_DIR_FORMAT:
        raise ValueError(
            f"{meta_path!r} has block directory format {found!r}; "
            f"expected {BLOCK_DIR_FORMAT}"
        )
    schema = BlockSchema.from_dict(meta["schema"])
    if schema.kind not in (KIND_CSR, KIND_DENSE):
        raise ValueError(
            f"{meta_path!r} has block schema kind {schema.kind!r}; "
            f"expected {KIND_CSR!r} or {KIND_DENSE!r}"
        )
    common = dict(
        path=path,
        schema=schema,
        num_records=int(meta["num_records"]),
        nbytes=int(meta["nbytes"]),
        chunk_size=meta.get("chunk_size"),
        stats=stats,
    )
    if meta.get("tier", TIER_HOT) == TIER_COLD:
        return TieredBlockData(
            tier=TIER_COLD,
            codec=meta.get("codec"),
            packed_rows=meta.get("packed", []),
            **common,
        )
    return MmapBlockData(**common)


class TieredBackend(MmapBackend):
    """Mmap storage with a hot/cold block lifecycle.

    Freshly ingested blocks are hot: plain dense columnar directories.
    :meth:`notify_expired` — driven by the session when a block leaves
    the most recent window — demotes blocks to the cold tier
    (``packed.bin`` of codec blobs, dense files deleted); a cold block
    that keeps getting scanned promotes itself back on access.  Logical
    I/O accounting is tier-independent, so models, telemetry (modulo
    ``storage.tier.*``), and checkpoint bytes match the other backends
    exactly regardless of where each block currently lives.

    GEMM's disk-resident model spill rides the same policy: the session
    routes the vault through :attr:`spill_codec` when the backend
    carries one (see ``ModelVault.enable_codec``).

    Args:
        root / registry / chunk_size / counter_name: see
            :class:`MmapBackend`.
    """

    kind = "tiered"

    #: Codec the session routes GEMM's vault spill through.
    spill_codec = DEFLATE_CODEC

    def __init__(
        self,
        root: str | None = None,
        registry: IOStatsRegistry | None = None,
        chunk_size: int | None = None,
        counter_name: str = BACKEND_COUNTER,
    ) -> None:
        super().__init__(
            root=root,
            registry=registry,
            chunk_size=chunk_size,
            counter_name=counter_name,
        )
        self.telemetry: Any = None
        self._by_id: "weakref.WeakValueDictionary[int, TieredBlockData[Any]]" = (
            weakref.WeakValueDictionary()
        )

    def _create_data(self, records: Iterable[T]) -> TieredBlockData[T]:
        data = TieredBlockData.from_mmap(super()._create_data(records))
        data._promoter = self._on_promote
        self._datas.add(data)
        return data

    def ingest(
        self,
        block_id: int,
        records: Iterable[T],
        label: str = "",
        metadata: dict[str, Any] | None = None,
    ) -> Block[T]:
        block = super().ingest(block_id, records, label=label, metadata=metadata)
        # The id index is shared with the promoter callback; keep the
        # update inside a critical region so the sanitizer (and DML024)
        # can check that nothing blocking runs while it is held.
        with critical_section("tier-index"):
            self._by_id[block.block_id] = block.data
        return block

    # -- the tiering policy --------------------------------------------

    def _count(self, name: str, n: int = 1) -> None:
        if self.telemetry is not None and n:
            self.telemetry.increment(name, n)

    def demote_block(self, block_id: int) -> bool:
        """Compact one block to the cold tier; ``False`` if unknown/cold."""
        data = self._by_id.get(block_id)
        if data is None or data.tier == TIER_COLD:
            return False
        reclaimed = data.demote()
        self._count("storage.tier.demotions")
        self._count("storage.tier.compressed_bytes", data.compressed_nbytes())
        self._count("storage.tier.reclaimed_bytes", reclaimed)
        return True

    def notify_expired(self, block_ids: Iterable[int]) -> int:
        """Demote every listed block; returns how many actually moved.

        The session calls this as blocks fall out of the most recent
        window — the MRW expiry *is* the temperature signal.
        """
        return sum(1 for block_id in block_ids if self.demote_block(block_id))

    def promote_block(self, block_id: int) -> bool:
        """Rebuild one block's dense layout; ``False`` if unknown/hot."""
        data = self._by_id.get(block_id)
        if data is None or data.tier != TIER_COLD:
            return False
        self._on_promote(data)
        return True

    def _on_promote(self, data: TieredBlockData[Any]) -> None:
        freed = data.promote()
        if freed:
            self._count("storage.tier.promotions")

    def tier_stats(self) -> dict[str, int]:
        """Live tier occupancy: block counts and compressed bytes."""
        hot = cold = compressed = 0
        for data in list(self._datas):
            if getattr(data, "tier", TIER_HOT) == TIER_COLD:
                cold += 1
                compressed += data.compressed_nbytes()
            else:
                hot += 1
        return {
            "hot_blocks": hot,
            "cold_blocks": cold,
            "compressed_bytes": compressed,
        }


# ----------------------------------------------------------------------
# Backend resolution (specs, names, the ambient environment toggle)
# ----------------------------------------------------------------------

#: Lazily created process-wide backend behind ``DEMON_BLOCK_BACKEND``.
_AMBIENT: dict[str, BlockBackend] = {}


def backend_from_spec(spec: dict[str, Any]) -> BlockBackend:
    """Rebuild a backend from :meth:`BlockBackend.spec` output."""
    kind = spec.get("kind")
    chunk_size = spec.get("chunk_size")
    if kind == InMemoryBackend.kind:
        return InMemoryBackend(chunk_size=chunk_size)
    if kind == TieredBackend.kind:
        return TieredBackend(root=spec.get("root"), chunk_size=chunk_size)
    if kind == MmapBackend.kind:
        return MmapBackend(root=spec.get("root"), chunk_size=chunk_size)
    raise ValueError(f"unknown block backend kind {kind!r}")


def ambient_backend_name() -> str | None:
    """Parse and validate ``DEMON_BLOCK_BACKEND`` without side effects.

    Returns the normalized backend kind, or ``None`` for the default
    in-memory mode.  Entry points call this at argument-parse time so a
    typo in the environment fails immediately with an actionable
    message (matching ``DEMON_WORKERS`` / ``DEMON_BLOCK_CHUNK``)
    instead of deep inside the first ingest.
    """
    name = os.environ.get("DEMON_BLOCK_BACKEND", "").strip().lower()
    if name in ("", InMemoryBackend.kind):
        return None
    if name not in (MmapBackend.kind, TieredBackend.kind):
        raise ValueError(
            f"DEMON_BLOCK_BACKEND must be 'memory', 'mmap', or 'tiered', "
            f"got {name!r}"
        )
    return name


def ambient_backend() -> BlockBackend | None:
    """The process-wide backend selected by ``DEMON_BLOCK_BACKEND``.

    Returns ``None`` in the default in-memory mode, where plain blocks
    need no backend at all; the mmap mode shares one backend rooted in
    a temporary directory that is removed at interpreter exit.
    """
    name = ambient_backend_name()
    if name is None:
        return None
    backend = _AMBIENT.get(name)
    if backend is None:
        root = tempfile.mkdtemp(prefix="demon-ambient-blocks-")
        backend = (
            TieredBackend(root=root)
            if name == TieredBackend.kind
            else MmapBackend(root=root)
        )
        # destroy() closes every live mmap view before removing the
        # tree — registering a bare rmtree would delete the files out
        # from under still-open handles at interpreter exit
        # (close-before-delete, DML014).  The registration is guarded
        # on the creating pid: forked workers inherit both the
        # _AMBIENT entry and the atexit hook, and a child running the
        # parent's destroy would rmtree block directories the parent
        # (and its sibling workers) are still reading.
        atexit.register(_destroy_if_owner, backend, os.getpid())
        _AMBIENT[name] = backend
    return backend


def _destroy_if_owner(backend: MmapBackend, owner_pid: int) -> None:
    """Run an ambient backend's atexit destroy only in its creator."""
    if os.getpid() == owner_pid:
        backend.destroy()


def resolve_backend(
    value: "BlockBackend | str | dict[str, Any] | None",
) -> BlockBackend | None:
    """Normalize a backend knob: instance, name, spec, or ``None``.

    ``None`` defers to the ambient environment toggle (and stays
    ``None`` in the default in-memory mode).
    """
    if value is None:
        return ambient_backend()
    if isinstance(value, BlockBackend):
        return value
    if isinstance(value, str):
        if value == InMemoryBackend.kind:
            return InMemoryBackend()
        if value == TieredBackend.kind:
            return TieredBackend()
        if value == MmapBackend.kind:
            return MmapBackend()
        raise ValueError(f"unknown block backend name {value!r}")
    if isinstance(value, dict):
        return backend_from_spec(value)
    raise TypeError(f"cannot resolve a block backend from {value!r}")
