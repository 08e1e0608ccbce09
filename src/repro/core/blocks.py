"""Systematic block evolution: blocks, snapshots, and the evolving database.

DEMON (§2.1) models the database ``D`` as a conceptually infinite
sequence of blocks ``D1, D2, ...`` where each block is a set of tuples
added simultaneously, identifiers increase in arrival order, and the
*current database snapshot* is the prefix ``D[1, t]`` ending at the
latest block ``Dt``.  Blocks may span irregular time intervals; an
optional timestamp label carries that metadata for pattern reporting.

A :class:`Block` is a lightweight *handle*: identity (``block_id``,
``label``, ``metadata``) lives on the handle, while the records live in
a :class:`BlockData` provided by a storage backend
(:mod:`repro.storage.engine`).  Consumers stream records through
:meth:`Block.iter_chunks` / :meth:`Block.iter_records`; the eager
``.tuples`` view remains for tests and the storage layer, but algorithm
code must not touch it (demonlint DML013).
"""

from __future__ import annotations

import os
import pickle
from collections.abc import Iterable, Iterator, Sequence
from typing import Any, Generic, Protocol, TypeVar

T = TypeVar("T")
T_co = TypeVar("T_co", covariant=True)

#: Logical size of one integer field (an item id or a transaction id).
INT_BYTES = 4
#: Logical size of one floating-point coordinate.
FLOAT_BYTES = 8

#: Fallback chunk size when ``DEMON_BLOCK_CHUNK`` is unset.
FALLBACK_CHUNK_SIZE = 4096


def default_chunk_size() -> int:
    """Records per chunk for streaming iteration (``DEMON_BLOCK_CHUNK``)."""
    raw = os.environ.get("DEMON_BLOCK_CHUNK", "").strip()
    if not raw:
        return FALLBACK_CHUNK_SIZE
    try:
        size = int(raw)
    except ValueError:
        raise ValueError(
            f"DEMON_BLOCK_CHUNK must be a positive integer, got {raw!r}"
        ) from None
    if size < 1:
        raise ValueError(f"DEMON_BLOCK_CHUNK must be >= 1, got {size}")
    return size


def record_nbytes(record: Any) -> int:
    """Logical size of one record, matching the paper's accounting.

    A transaction costs :data:`INT_BYTES` per item identifier and a
    d-dimensional point costs :data:`FLOAT_BYTES` per coordinate
    (TID-lists occupy the same space as the transactional format,
    §3.1.1).  Anything else — e.g. a labelled point — is charged its
    pickled size.
    """
    if isinstance(record, (tuple, list)) and record:
        if all(type(value) is int for value in record):
            return INT_BYTES * len(record)
        if all(type(value) is float for value in record):
            return FLOAT_BYTES * len(record)
    elif isinstance(record, (tuple, list)):
        return 0
    return len(pickle.dumps(record, protocol=pickle.HIGHEST_PROTOCOL))


def records_nbytes(records: Iterable[Any]) -> int:
    """Logical size of a batch of records."""
    return sum(record_nbytes(record) for record in records)


class BlockData(Protocol[T_co]):
    """The record source behind a :class:`Block` handle.

    Implementations live in :mod:`repro.storage.engine`; the in-memory
    one is defined here so the core layer stays import-free of storage.
    """

    @property
    def num_records(self) -> int:
        """Record count, available without materializing anything."""
        ...

    @property
    def nbytes(self) -> int:
        """Logical size of the stored records."""
        ...

    def chunks(self, chunk_size: int | None = None) -> Iterator[Sequence[T_co]]:
        """Yield the records as bounded-size batches, in order."""
        ...

    def materialize(self) -> tuple[T_co, ...]:
        """The full record tuple (storage/test escape hatch)."""
        ...


class InMemoryBlockData(Generic[T]):
    """Backend-free record storage: one materialized tuple in memory."""

    __slots__ = ("_records", "_nbytes", "__weakref__")

    def __init__(self, records: Iterable[T]) -> None:
        self._records: tuple[T, ...] = tuple(records)
        self._nbytes: int | None = None

    @property
    def num_records(self) -> int:
        return len(self._records)

    @property
    def nbytes(self) -> int:
        if self._nbytes is None:
            self._nbytes = records_nbytes(self._records)
        return self._nbytes

    def chunks(self, chunk_size: int | None = None) -> Iterator[Sequence[T]]:
        size = chunk_size if chunk_size is not None else default_chunk_size()
        if size < 1:
            raise ValueError(f"chunk size must be >= 1, got {size}")
        for start in range(0, len(self._records), size):
            yield self._records[start : start + size]

    def materialize(self) -> tuple[T, ...]:
        return self._records


def _restore_block(
    block_id: int, records: tuple[Any, ...], label: str, metadata: dict[str, Any]
) -> "Block[Any]":
    """Pickle target: blocks always deserialize onto in-memory data."""
    return Block(block_id, records, label=label, metadata=metadata)


class Block(Generic[T]):
    """One block of tuples added to the database at the same time.

    Attributes:
        block_id: Positive identifier; identifiers increase in arrival
            order (paper §2.1).
        label: Optional human-readable label (e.g. "Mon 09:00-15:00")
            used when reporting discovered patterns.
        metadata: Free-form attributes, e.g. ``{"weekday": 0, "hour": 8}``
            for calendar-aware block selection predicates.
        data: The :class:`BlockData` record source this handle wraps.

    Exactly one record source must be given: ``tuples=...`` (records
    are materialized into in-memory data) or ``data=...`` (a backend
    supplies the storage).
    """

    __slots__ = ("block_id", "label", "metadata", "data")

    block_id: int
    label: str
    metadata: dict[str, Any]
    data: BlockData[T]

    def __init__(
        self,
        block_id: int,
        tuples: Iterable[T] | None = None,
        label: str = "",
        metadata: dict[str, Any] | None = None,
        *,
        data: BlockData[T] | None = None,
    ) -> None:
        if block_id < 1:
            raise ValueError(f"block identifiers start at 1, got {block_id}")
        if (tuples is None) == (data is None):
            raise ValueError(
                "a block needs exactly one record source: tuples=... or data=..."
            )
        if data is None:
            assert tuples is not None
            data = InMemoryBlockData(tuples)
        object.__setattr__(self, "block_id", block_id)
        object.__setattr__(self, "label", label)
        object.__setattr__(self, "metadata", dict(metadata) if metadata else {})
        object.__setattr__(self, "data", data)

    def __setattr__(self, name: str, value: Any) -> None:
        raise AttributeError(f"Block is immutable; cannot set {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"Block is immutable; cannot delete {name!r}")

    # ------------------------------------------------------------------
    # Record access
    # ------------------------------------------------------------------

    @property
    def num_records(self) -> int:
        """Record count from backend metadata (no materialization)."""
        return self.data.num_records

    @property
    def nbytes(self) -> int:
        """Logical size of the block's records."""
        return self.data.nbytes

    def iter_chunks(self, chunk_size: int | None = None) -> Iterator[Sequence[T]]:
        """Stream the records as bounded-size batches, in order."""
        return self.data.chunks(chunk_size)

    def iter_records(self) -> Iterator[T]:
        """Stream the records one at a time (chunked underneath)."""
        for chunk in self.data.chunks():
            yield from chunk

    def materialize(self) -> tuple[T, ...]:
        """The full record tuple; prefer the streaming iterators."""
        return self.data.materialize()

    def as_array(self, dtype: Any = float) -> Any:
        """The records as a 2-d :class:`numpy.ndarray`.

        Columnar backends convert without building record tuples.
        """
        fast = getattr(self.data, "as_array", None)
        if fast is not None:
            return fast(dtype)
        import numpy as np

        return np.asarray(self.data.materialize(), dtype=dtype)

    @property
    def tuples(self) -> tuple[T, ...]:
        """Eager record view, kept for tests and the storage layer.

        Algorithm code must stream instead (demonlint DML013): this
        property materializes the whole block regardless of backend.
        """
        return self.data.materialize()

    def __len__(self) -> int:
        return self.data.num_records

    def __iter__(self) -> Iterator[T]:
        return self.iter_records()

    # ------------------------------------------------------------------
    # Value semantics
    # ------------------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Block):
            return NotImplemented
        return (
            self.block_id == other.block_id
            and self.label == other.label
            and self.data.materialize() == other.data.materialize()
        )

    def __hash__(self) -> int:
        return hash((self.block_id, self.label))

    def __repr__(self) -> str:
        return (
            f"Block(block_id={self.block_id}, num_records={self.num_records}, "
            f"label={self.label!r})"
        )

    def __reduce__(self) -> tuple[Any, ...]:
        # Checkpoints must be self-contained and byte-identical across
        # backends, so a block always pickles its materialized records.
        return (
            _restore_block,
            (self.block_id, self.data.materialize(), self.label, dict(self.metadata)),
        )


def make_block(
    block_id: int,
    tuples: Iterable[T],
    label: str = "",
    metadata: dict[str, Any] | None = None,
    *,
    backend: Any = None,
) -> Block[T]:
    """Construct a :class:`Block`, routing records through a backend.

    With ``backend=None`` the ambient backend (selected by the
    ``DEMON_BLOCK_BACKEND`` environment variable) is consulted, so a
    whole run can be switched onto on-disk storage without touching
    call sites.  When no backend applies, records are materialized into
    in-memory data exactly as before.
    """
    if backend is None:
        from repro.storage.engine import ambient_backend

        backend = ambient_backend()
    if backend is not None:
        block: Block[T] = backend.ingest(
            block_id, tuples, label=label, metadata=metadata
        )
        return block
    return Block(
        block_id=block_id,
        tuples=tuple(tuples),
        label=label,
        metadata=dict(metadata) if metadata else {},
    )


class Snapshot(Generic[T]):
    """The current database snapshot ``D[1, t]`` (paper §2.1).

    A snapshot is an ordered prefix of the block sequence.  It is
    append-only: :meth:`extend` adds block ``t+1``.  Indexing is by the
    paper's 1-based block identifier.
    """

    def __init__(self, blocks: Sequence[Block[T]] = ()) -> None:
        self._blocks: list[Block[T]] = []
        for block in blocks:
            self.extend(block)

    @property
    def t(self) -> int:
        """Identifier of the latest block (0 when the snapshot is empty)."""
        return len(self._blocks)

    @property
    def num_records(self) -> int:
        """Total records in ``D[1, t]``, summed from block metadata.

        Backends keep per-block counts, so this never materializes a
        single record regardless of where the blocks live.
        """
        return sum(block.num_records for block in self._blocks)

    def __len__(self) -> int:
        return len(self._blocks)

    def __iter__(self) -> Iterator[Block[T]]:
        return iter(self._blocks)

    def extend(self, block: Block[T]) -> None:
        """Append the next block; its id must be exactly ``t + 1``."""
        expected = self.t + 1
        if block.block_id != expected:
            raise ValueError(
                f"systematic evolution requires block id {expected}, "
                f"got {block.block_id}"
            )
        self._blocks.append(block)

    def block(self, block_id: int) -> Block[T]:
        """Return block ``D_{block_id}`` (1-based)."""
        if not 1 <= block_id <= self.t:
            raise IndexError(f"block id {block_id} outside snapshot D[1, {self.t}]")
        return self._blocks[block_id - 1]

    def blocks(self, lo: int, hi: int) -> list[Block[T]]:
        """Return blocks ``D[lo, hi]`` inclusive (the paper's D[lo, hi])."""
        if lo < 1 or hi > self.t or lo > hi:
            raise IndexError(f"range D[{lo}, {hi}] outside snapshot D[1, {self.t}]")
        return self._blocks[lo - 1 : hi]

    def tuple_count(self, lo: int | None = None, hi: int | None = None) -> int:
        """Total number of tuples in ``D[lo, hi]`` (default: whole snapshot)."""
        lo = 1 if lo is None else lo
        hi = self.t if hi is None else hi
        if lo > hi:
            return 0
        return sum(b.num_records for b in self.blocks(lo, hi))

