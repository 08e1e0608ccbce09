"""Worker-side tasks for GEMM's off-line chains: block refs, replicas.

The payload protocol (DML017-audited via :func:`worker_entry`) ships
*descriptions*, never live handles:

* a **block ref** is ``("mmap", id, label, metadata, path)`` for a
  block whose records live in an on-disk block directory — the worker
  re-maps the npy/CSR columns from ``path`` zero-copy —
  ``("packed", id, label, metadata, path, codec)`` for a tiered
  block demoted to its compressed cold form (the worker memory-maps
  ``packed.bin`` and decodes chunk-at-a-time; the codec field names
  the integer codec so the worker need not trust ``meta.json``
  alone), or ``("inline", id, label, metadata, records)`` when the
  block only exists in parent memory (no backend, or the in-memory
  backend) and its records must ride the pipe;
* a **maintainer token** is ``("spec", {...})`` for maintainers that
  can be rebuilt from a small config (:meth:`BordersMaintainer
  .worker_payload`), else ``("blob", pickle-bytes)``.

Workers cache spec-built maintainer replicas keyed by their spec, with
a ``block id -> path`` registration map (:func:`maintain_chain_shard`).
Inline refs are never cached — the parent's records may differ between
calls under the same block id — which is one of the "when workers
lose" cases in docs/PERFORMANCE.md.

Byte-identity: each task replays one GEMM slot's ``A_M`` chain — a
single build or add for a one-block run — and returns the pickled
model, whose bytes the parent adopts verbatim, so a parallel run's
models are exactly a serial run's.  The chain's I/O accounting stays
in the worker (replica stats are unbound); only phases and counters
ride back through the :func:`~repro.parallel.pool.task_telemetry`
envelope.
"""

from __future__ import annotations

import pickle
from typing import Any, Sequence

from repro.contracts import worker_entry
from repro.core.blocks import Block
from repro.parallel.pool import task_telemetry
from repro.storage.engine import (
    TIER_COLD,
    MmapBlockData,
    TieredBlockData,
    load_block_data,
)
from repro.storage.persist import load_model, save_model
from repro.storage.telemetry import bind_telemetry

#: Ref kinds (index 0 of a block ref tuple).
REF_MMAP = "mmap"
REF_INLINE = "inline"
REF_PACKED = "packed"

#: Ref kinds addressed by an on-disk block directory path (index 4) —
#: a stable identity for the block's immutable contents, so replicas
#: built from them are cacheable worker-side.
_PATH_REF_KINDS = (REF_MMAP, REF_PACKED)

#: Spec-built maintainer replicas, keyed by the pickled spec, carrying
#: a ``block id -> mmap path`` map of what the replica has registered.
_SPEC_REPLICAS: dict[bytes, tuple[Any, dict[int, str]]] = {}

#: Blob-built maintainer replicas, keyed by the blob bytes.  Blobs
#: embed telemetry, so the key churns every observe — the cap keeps
#: the effectively-uncacheable path from leaking worker memory.
_BLOB_REPLICAS: dict[bytes, Any] = {}
_BLOB_REPLICA_CAP = 8


def block_ref(block: Block[Any]) -> tuple[Any, ...]:
    """A picklable, zero-copy-where-possible description of ``block``.

    Mmap-backed blocks ship only their directory path.  Everything else
    ships materialized records — extracted through the *unbound*
    ``InMemoryBlockData.materialize`` so the metered in-memory backend
    does not charge a phantom read for payload construction (I/O
    accounting must stay comparable across backends under any worker
    count).
    """
    from repro.core.blocks import InMemoryBlockData

    data = block.data
    # TieredBlockData subclasses MmapBlockData, so the tier check must
    # come first: a cold block's dense columns no longer exist and only
    # the packed form can be reopened.  Hot tiered blocks are plain
    # mmap directories and ship as such.
    if isinstance(data, TieredBlockData) and data.tier == TIER_COLD:
        return (
            REF_PACKED,
            block.block_id,
            block.label,
            dict(block.metadata),
            data.path,
            data.codec,
        )
    if isinstance(data, MmapBlockData):
        return (REF_MMAP, block.block_id, block.label, dict(block.metadata), data.path)
    records = InMemoryBlockData.materialize(data)  # type: ignore[arg-type]
    return (REF_INLINE, block.block_id, block.label, dict(block.metadata), records)


def resolve_block(ref: Sequence[Any]) -> Block[Any]:
    """Rebuild a :class:`Block` handle from a ref, inside the worker.

    Mmap and packed refs reopen their block directory through
    :func:`~repro.storage.engine.load_block_data` and must find the
    tier they name: an mmap ref needs the dense columns, a packed ref
    the compressed cold form (no promoter is bound worker-side, so a
    worker's reads never re-inflate the parent's cold block).  Either
    way the data's stats stay unbound, so worker reads are never
    charged to any parent registry.
    """
    kind, block_id, label, metadata, payload = ref[0], ref[1], ref[2], ref[3], ref[4]
    if kind == REF_INLINE:
        return Block(block_id, tuples=payload, label=label, metadata=metadata)
    if kind not in _PATH_REF_KINDS:
        raise ValueError(f"unknown block ref kind {kind!r}")
    data = load_block_data(payload)
    if kind == REF_PACKED:
        if not (isinstance(data, TieredBlockData) and data.tier == TIER_COLD):
            raise ValueError(
                f"packed ref for block {block_id} points at {payload!r}, "
                "which holds no cold-tier data"
            )
        if ref[5] != data.codec:
            raise ValueError(
                f"packed ref for block {block_id} names codec {ref[5]!r} "
                f"but {payload!r} was written with {data.codec!r}"
            )
    elif isinstance(data, TieredBlockData) and data.tier == TIER_COLD:
        raise ValueError(
            f"mmap ref for block {block_id} points at {payload!r}, "
            "which now holds only cold-tier data"
        )
    return Block(block_id, label=label, metadata=metadata, data=data)


def _build_from_spec(spec: dict[str, Any]) -> Any:
    """Instantiate a fresh maintainer replica from its worker spec."""
    if spec.get("maintainer") == "borders":
        from repro.itemsets.borders import BordersMaintainer

        return BordersMaintainer(
            spec["minsup"],
            counter=spec["counter"],
            pair_budget_bytes=spec["pair_budget_bytes"],
        )
    raise ValueError(f"unknown maintainer spec {spec!r}")


def _replica(
    token: tuple[str, Any],
    history_refs: Sequence[Sequence[Any]],
    new_ref: Sequence[Any],
) -> Any:
    """The worker-resident maintainer replica for one task.

    Spec replicas register the history blocks named by the refs and are
    cached — but only when every ref is path-addressed (mmap or
    packed), because a block directory path is a stable identity for a
    block's contents while inline records are not.  A cached replica whose registration map disagrees with the
    incoming refs (same block id, different path: the parent moved on
    to another backend root) is discarded and rebuilt.
    """
    kind, payload = token
    if kind == "blob":
        replica = _BLOB_REPLICAS.get(payload)
        if replica is None:
            if len(_BLOB_REPLICAS) >= _BLOB_REPLICA_CAP:
                _BLOB_REPLICAS.clear()
            replica = load_model(payload)
            _BLOB_REPLICAS[payload] = replica
        return replica
    refs = [*history_refs, new_ref]
    cacheable = all(ref[0] in _PATH_REF_KINDS for ref in refs)
    spec_key = pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL)
    if cacheable:
        entry = _SPEC_REPLICAS.get(spec_key)
        if entry is not None:
            replica, registered = entry
            if all(registered.get(ref[1], ref[4]) == ref[4] for ref in refs):
                for ref in history_refs:
                    if ref[1] not in registered:
                        replica.register_block(resolve_block(ref))
                        registered[ref[1]] = ref[4]
                registered.setdefault(new_ref[1], new_ref[4])
                return replica
            del _SPEC_REPLICAS[spec_key]
    replica = _build_from_spec(payload)
    registered = {}
    for ref in history_refs:
        replica.register_block(resolve_block(ref))
        registered[ref[1]] = ref[4]
    registered[new_ref[1]] = new_ref[4]
    if cacheable:
        _SPEC_REPLICAS[spec_key] = (replica, registered)
    return replica


@worker_entry
def maintain_chain_shard(
    token: tuple[str, Any],
    source_blob: bytes | None,
    new_refs: Sequence[Sequence[Any]],
    history_refs: Sequence[Sequence[Any]],
) -> tuple[bytes, dict[str, Any]]:
    """Replay one ``A_M`` chain (one GEMM off-line slot) in a worker.

    :meth:`repro.core.gemm.GEMM.observe_run` materializes each final
    slot by replaying its build/add chain over the run's blocks; this
    entry runs one such chain end to end so the intermediate models
    never cross the process boundary.  ``source_blob is None`` starts
    the chain with a build on the first ref; otherwise the blob is the
    chain's source model.  Returns the final model's pickle — adopted
    byte-for-byte by the parent — plus the diagnostics entries this
    chain recorded (only the *changed* channels: a cached replica's
    log may still hold entries from earlier tasks).
    """
    telemetry = task_telemetry()
    if not new_refs:
        raise ValueError("a maintenance chain needs at least one block ref")
    with telemetry.phase("parallel.maintain_shard"):
        replica = _replica(token, history_refs, new_refs[0])
        bind_telemetry(replica, telemetry)
        diagnostics = getattr(replica, "diagnostics", None)
        before = diagnostics.entries() if diagnostics is not None else {}
        model = load_model(source_blob) if source_blob is not None else None
        for ref in new_refs:
            block = resolve_block(ref)
            if model is None:
                model = replica.build([block])
            else:
                model = replica.add_block(model, block)
        after = diagnostics.entries() if diagnostics is not None else {}
        changed = {
            channel: entry
            for channel, entry in after.items()
            if before.get(channel) is not entry
        }
        telemetry.increment("parallel.models_maintained", len(new_refs))
    return save_model(model), changed
