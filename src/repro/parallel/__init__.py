"""Parallel execution of GEMM's off-line model updates (see pool.py).

Public surface: :class:`WorkerPool` (dispatch), :func:`resolve_workers`
(the ``workers=N`` / ``DEMON_WORKERS`` knob), :func:`shutdown_workers`
(explicit teardown of the shared executors).  The worker-side task
entries live in :mod:`repro.parallel.shards`.
"""

from repro.parallel.pool import (
    WORKERS_ENV,
    WorkerPool,
    resolve_workers,
    shutdown_workers,
    task_telemetry,
)

__all__ = [
    "WORKERS_ENV",
    "WorkerPool",
    "resolve_workers",
    "shutdown_workers",
    "task_telemetry",
]
