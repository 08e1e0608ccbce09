"""Atomic file publication for the storage engine (DML022's good path).

Every file the storage layer publishes — block ``meta.json``, dense
``.npy`` columns, pickle chunks, the tiered ``packed.bin`` — is written
with the same two-step discipline: stream into a scratch path next to
the destination, then :func:`os.replace` it into place.  ``os.replace``
is atomic on POSIX (and on Windows within a volume), so a concurrent
reader — another process sharing the backend root, a forked worker
reopening blocks by path, or a crashed-and-restarted session — observes
either the old complete file or the new complete file, never a torn
one.

The scratch name embeds the writing pid (``meta.json.tmp-1234``): two
processes racing on one destination each publish a complete file and
the last replace wins, which is exactly the single-writer discipline
the interleaving sanitizer (:func:`repro.contracts.write_barrier`)
asserts dynamically.  A scratch file orphaned by a crash is inert — the
``tmp`` infix keeps it out of every reader's path and out of demonlint
DML022's definition of a publication.

Durability note: the helpers guarantee *atomicity*, not *durability* —
no ``fsync`` is issued, matching the engine's logical-I/O accounting
(tier maintenance must not be charged physical sync stalls).  Callers
needing power-failure durability can fsync the returned path.
"""

from __future__ import annotations

import json
import os
from collections.abc import Iterator
from contextlib import contextmanager
from typing import IO, Any

import numpy as np


def _scratch_path(path: str) -> str:
    """The pid-suffixed temp path a publication of ``path`` streams to."""
    return f"{path}.tmp-{os.getpid()}"


@contextmanager
def atomic_writer(
    path: str, mode: str = "wb", encoding: str | None = None
) -> Iterator[IO[Any]]:
    """Open a scratch file; publish it to ``path`` on clean exit.

    On any exception the scratch file is removed and the destination is
    left untouched — a failed write is invisible, not torn.
    """
    scratch = _scratch_path(path)
    fh = open(scratch, mode, encoding=encoding)
    try:
        yield fh
    except BaseException:
        fh.close()
        try:
            os.remove(scratch)
        except OSError:
            pass
        raise
    fh.close()
    os.replace(scratch, path)


def atomic_save(path: str, array: np.ndarray) -> None:
    """Publish one array as ``path`` (.npy format) atomically.

    ``np.save`` is handed the open scratch *file object* — giving it a
    path would append ``.npy`` and dodge the replace step.
    """
    with atomic_writer(path) as fh:
        np.save(fh, array)


def atomic_json(path: str, obj: Any) -> None:
    """Publish one JSON document at ``path`` atomically."""
    with atomic_writer(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh)
