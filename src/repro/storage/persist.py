"""Disk-resident model storage for GEMM's non-current models (§3.2.3).

The paper: "the collection of models except [the current one] can be
stored on disk and retrieved when necessary.  Thus main memory is not a
limitation as long as a single model fits in-memory ... the additional
disk space required for these models is negligible."

:class:`ModelVault` simulates that disk: it stores serialized model
bytes keyed by an arbitrary hashable key, charging every store and
fetch to an :class:`~repro.storage.iostats.IOStats` counter so
benchmarks can report the (small) model footprint next to the (large)
data footprint.  GEMM accepts a vault and then keeps only the current
model and the empty model live in memory.

Serialization uses :mod:`pickle`; an optional size budget rejects
models that would not plausibly "fit on the disk" of the simulation.

A vault can additionally deflate its stored blobs
(:meth:`ModelVault.enable_codec`): a session running on the tiered
block backend lends the backend's spill codec to its vault so
disk-resident models ride the same compression discipline as cold
blocks.  Compression is transparent to byte accounting — stores and
fetches keep charging the *logical* (pickled) size, so telemetry and
checkpoint sizes stay identical whether or not a codec is enabled;
only the budget is checked against the (smaller) stored bytes.
"""

from __future__ import annotations

import pickle
from typing import Any, Hashable

from repro.storage.iostats import IOStats, IOStatsRegistry


class VaultFullError(RuntimeError):
    """Raised when a put would exceed the vault's size budget."""


#: Namespaces claimed via :func:`register_vault_namespace`.  Keys are
#: the namespace strings; values name the registering module so a
#: collision error can say who got there first.
_VAULT_NAMESPACES: dict[str, str] = {}


def register_vault_namespace(namespace: str) -> str:
    """Claim a key namespace for :class:`ModelVault` keys.

    Every component that stores into a (potentially shared) vault must
    root its keys in a registered namespace string — keys are tuples
    ``(namespace, ...)`` — so two subsystems checkpointing into the
    same vault can never collide silently.  demonlint rule DML011
    enforces the convention statically; this function is the runtime
    half: it records the claim and returns the namespace unchanged, so
    the idiomatic use is::

        SPILL_NAMESPACE = register_vault_namespace("gemm-spill")

    Re-registering the same namespace from the same module is a no-op
    (modules may be reloaded); a second *different* module claiming the
    same string raises ``ValueError``.
    """
    import inspect

    frame = inspect.currentframe()
    caller = "<unknown>"
    if frame is not None and frame.f_back is not None:
        caller = frame.f_back.f_globals.get("__name__", "<unknown>")
    owner = _VAULT_NAMESPACES.get(namespace)
    if owner is not None and owner != caller:
        raise ValueError(
            f"vault namespace {namespace!r} already registered by {owner}"
        )
    _VAULT_NAMESPACES[namespace] = caller
    return namespace


class ModelVault:
    """A byte-accounted store of serialized models.

    Args:
        registry: I/O registry to charge stores/fetches to; a private
            one is created when omitted.
        counter_name: Counter name within the registry.
        budget_bytes: Optional total-size budget; ``None`` = unbounded.
        codec: Optional byte codec name for stored blobs (currently
            ``"deflate"``); equivalent to calling :meth:`enable_codec`.
    """

    def __init__(
        self,
        registry: IOStatsRegistry | None = None,
        counter_name: str = "model_vault",
        budget_bytes: int | None = None,
        codec: str | None = None,
    ):
        self.registry = registry if registry is not None else IOStatsRegistry()
        self._stats = self.registry.get(counter_name)
        self.budget_bytes = budget_bytes
        self._slots: dict[Hashable, bytes] = {}
        #: Logical (pickled) size per key — what accounting reports.
        self._logical: dict[Hashable, int] = {}
        #: Keys whose stored blob is codec-encoded.
        self._encoded: set[Hashable] = set()
        self._codec: str | None = None
        if codec is not None:
            self.enable_codec(codec)

    @property
    def codec(self) -> str | None:
        """Active byte codec name, or ``None`` when storing raw pickles."""
        return self._codec

    def enable_codec(self, name: str) -> None:
        """Deflate-store future puts; existing slots are left as-is.

        Enabling a codec never changes what callers observe: ``get``
        returns the same objects, and every charge is the logical
        pickled size.  Only the resident footprint (and therefore how
        much fits under ``budget_bytes``) shrinks.
        """
        if name != "deflate":
            raise ValueError(
                f"unknown vault codec {name!r} (supported: 'deflate')"
            )
        self._codec = name

    @property
    def stats(self) -> IOStats:
        """The counter stores and fetches are charged to."""
        return self._stats

    def __contains__(self, key: Hashable) -> bool:
        return key in self._slots

    def __len__(self) -> int:
        return len(self._slots)

    def keys(self) -> list[Hashable]:
        """All stored keys."""
        return list(self._slots)

    def total_nbytes(self) -> int:
        """Total logical (pickled) bytes currently stored."""
        return sum(self._logical.values())

    def stored_nbytes(self) -> int:
        """Total resident bytes — less than :meth:`total_nbytes` when a
        codec is active and compressing."""
        return sum(len(blob) for blob in self._slots.values())

    def nbytes(self, key: Hashable) -> int:
        """Logical (pickled) size of one stored model."""
        return self._logical[key]

    def put(self, key: Hashable, model: Any) -> int:
        """Serialize and store a model; returns its logical byte size.

        Overwrites any previous model under the same key.  With a codec
        enabled the blob is stored deflated when that is smaller, but
        the charge and return value remain the pickled size.

        Raises:
            VaultFullError: if the budget would be exceeded.
        """
        blob = pickle.dumps(model, protocol=pickle.HIGHEST_PROTOCOL)
        logical = len(blob)
        stored = blob
        encoded = False
        if self._codec is not None:
            from repro.storage.codecs import deflate

            packed = deflate(blob)
            if len(packed) < len(blob):
                stored = packed
                encoded = True
        if self.budget_bytes is not None:
            projected = (
                self.stored_nbytes()
                - len(self._slots.get(key, b""))
                + len(stored)
            )
            if projected > self.budget_bytes:
                raise VaultFullError(
                    f"storing {len(stored)} bytes under {key!r} would exceed "
                    f"the vault budget of {self.budget_bytes} bytes"
                )
        self._slots[key] = stored
        self._logical[key] = logical
        if encoded:
            self._encoded.add(key)
        else:
            self._encoded.discard(key)
        self._stats.record_write(logical)
        return logical

    def get(self, key: Hashable) -> Any:
        """Fetch and deserialize one model (a fresh private copy)."""
        blob = self._slots[key]
        if key in self._encoded:
            from repro.storage.codecs import inflate

            blob = inflate(blob)
        self._stats.record_read(len(blob))
        return pickle.loads(blob)

    def delete(self, key: Hashable) -> None:
        """Drop one stored model (idempotent)."""
        self._slots.pop(key, None)
        self._logical.pop(key, None)
        self._encoded.discard(key)

    def retain_only(self, keys) -> None:
        """Drop every stored model whose key is not in ``keys``."""
        wanted = set(keys)
        for key in list(self._slots):
            if key not in wanted:
                del self._slots[key]
                self._logical.pop(key, None)
                self._encoded.discard(key)


def save_model(model: Any) -> bytes:
    """Serialize one model to bytes (convenience wrapper)."""
    return pickle.dumps(model, protocol=pickle.HIGHEST_PROTOCOL)


def load_model(blob: bytes) -> Any:
    """Deserialize one model from bytes."""
    return pickle.loads(blob)
