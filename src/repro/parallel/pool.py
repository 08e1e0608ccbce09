"""Process-pool execution layer for GEMM's off-line model updates.

GEMM keeps ``w`` overlapping-window models (§3.2.3); once the critical
model is updated in-process, the remaining final slots' ``A_M`` chains
are independent given the shared new blocks.  :class:`WorkerPool` fans
those chains out, one task per model.  It is the only parallel path.

Design constraints, in order:

* **Byte-identical results.**  A parallel run must produce exactly the
  models a serial run produces — :mod:`repro.core.gemm` adopts each
  worker's model pickle verbatim and merges by window key, which is
  disjoint across tasks, never by approximation.
* **Zero-copy payloads.**  Tasks ship ``(spec, block id, args)``
  tuples; workers reopen mmap-backed blocks from their on-disk paths
  (see :mod:`repro.parallel.shards`) instead of pickling block data
  through the pipe.  Payloads cross :func:`repro.contracts.worker_entry`
  so demonlint rule DML017 and the pickle-probe sanitizer audit them.
* **Serial fallback.**  At ``workers=1`` tasks run in-process with the
  same envelope protocol, so the task entries run under unit tests
  without any subprocess machinery.

Telemetry: each task runs under a private :class:`Telemetry` whose
``state_dict`` rides back in the result envelope.  The parent merges it
twice — once bare, so aggregate phase/counter totals stay comparable
with a serial run, and once under ``parallel.w{id}.`` for per-worker
attribution (see docs/OBSERVABILITY.md).  Worker-side I/O byte
accounting stays in the worker (``state_dict`` deliberately omits the
attached registries), so the reads of off-line chains that ran in a
worker are missing from the parent's I/O totals, which
docs/PERFORMANCE.md calls out.

Executors are process-wide and shared across sessions (keyed by worker
count): fork start-up is cheap but spawn is not, and benchmarks create
many short-lived sessions.  :func:`shutdown_workers` tears them down
explicitly when needed.
"""

from __future__ import annotations

import multiprocessing
import os
import pickle
from concurrent.futures import Future, ProcessPoolExecutor
from typing import Any, Callable, Iterable, Sequence

from repro.contracts import (
    SanitizerViolation,
    arm,
    arm_sanitizers,
    contracts_armed,
    sanitizers_armed,
    worker_entry,
    worker_scope,
)
from repro.storage.telemetry import Telemetry

WORKERS_ENV = "DEMON_WORKERS"

#: Worker-process identity: 0 in the parent (and in the ``workers=1``
#: in-process fallback), 1..N inside pool workers.  Assigned once per
#: worker by :func:`_init_worker`.
_WORKER_ID = 0

#: The telemetry of the task currently executing in this process (set
#: by :func:`_run_task` for the duration of one task).
_TASK_TELEMETRY: Telemetry | None = None

#: Shared executors, keyed by (worker count, start method).  Never
#: stored on a :class:`WorkerPool` instance so pools stay trivially
#: picklable.
_EXECUTORS: dict[tuple[int, str], ProcessPoolExecutor] = {}

#: Pid that populated :data:`_EXECUTORS`.  A forked child inherits the
#: dict by memory copy, but the executors' processes and pipes belong
#: to the parent — :func:`_shared_executor` re-checks ``os.getpid()``
#: and discards (without shutdown: the workers are not ours to join)
#: any entries created by another process (DML021).
_EXECUTORS_PID: int = os.getpid()


def resolve_workers(value: int | None = None) -> int:
    """The effective worker count: explicit value, else ``DEMON_WORKERS``.

    ``None`` falls through to the :data:`WORKERS_ENV` environment
    variable (default 1, i.e. fully serial).  Anything below 1 is a
    configuration error, not a request for zero parallelism.
    """
    if value is None:
        raw = os.environ.get(WORKERS_ENV, "").strip()
        if raw:
            try:
                value = int(raw)
            except ValueError:
                raise ValueError(
                    f"{WORKERS_ENV} must be a positive integer, got {raw!r}"
                ) from None
        else:
            value = 1
    if value < 1:
        raise ValueError(f"workers must be >= 1, got {value}")
    return value


def resolve_start_method(method: str | None = None) -> str:
    """The multiprocessing start method the pool will actually use.

    ``None`` prefers ``fork`` (cheap start-up, inherited armed
    contracts) and falls back cleanly to ``spawn`` on platforms without
    it (macOS default, Windows).  An explicit request for an
    unavailable method is a configuration error, not a silent
    substitution.
    """
    available = multiprocessing.get_all_start_methods()
    if method is None:
        return "fork" if "fork" in available else "spawn"
    if method not in available:
        raise ValueError(
            f"start method {method!r} is not available on this platform "
            f"(available: {', '.join(available)})"
        )
    return method


def _mp_context(method: str | None = None) -> Any:
    return multiprocessing.get_context(resolve_start_method(method))


def _init_worker(counter: Any, armed: bool, sanitizers: bool) -> None:
    """Executor initializer: assign this worker a stable 1-based id.

    ``armed``/``sanitizers`` carry the parent's runtime arming state
    across the process boundary: fork children inherit it for free, but
    spawn children start from a fresh interpreter where only the
    environment variables survive — a parent that armed at runtime
    would otherwise silently lose its checks in the workers.
    """
    global _WORKER_ID
    with counter.get_lock():
        counter.value += 1
        _WORKER_ID = int(counter.value)
    if armed:
        arm()
    if sanitizers:
        arm_sanitizers()


def _shared_executor(
    workers: int, start_method: str | None = None
) -> ProcessPoolExecutor:
    global _EXECUTORS_PID
    if os.getpid() != _EXECUTORS_PID:
        # Inherited via fork: the executors' worker processes belong to
        # the forking parent.  Drop the handles (no shutdown — joining
        # another process's children deadlocks) and start fresh.
        _EXECUTORS.clear()
        _EXECUTORS_PID = os.getpid()
    method = resolve_start_method(start_method)
    key = (workers, method)
    executor = _EXECUTORS.get(key)
    if executor is None:
        context = _mp_context(method)
        executor = ProcessPoolExecutor(
            max_workers=workers,
            mp_context=context,
            initializer=_init_worker,
            initargs=(
                context.Value("i", 0),
                contracts_armed(),
                sanitizers_armed(),
            ),
        )
        _EXECUTORS[key] = executor
    return executor


def shutdown_workers() -> None:
    """Tear down every shared executor (idempotent)."""
    while _EXECUTORS:
        _, executor = _EXECUTORS.popitem()
        executor.shutdown(wait=True)


def task_telemetry() -> Telemetry:
    """The telemetry of the task currently running in this process.

    Worker entries (:mod:`repro.parallel.shards`) record their phases
    and counters here; :func:`_run_task` ships it back to the parent in
    the result envelope.  Outside a task (e.g. a worker entry invoked
    directly by a unit test) a throwaway instance is returned so the
    entry still runs, it just reports to nobody.
    """
    return _TASK_TELEMETRY if _TASK_TELEMETRY is not None else Telemetry()


@worker_entry
def _run_task(entry: Callable[..., Any], args: Sequence[Any]) -> Any:
    """Execute one task and envelope ``(value, telemetry, worker id)``.

    This is the single function ever submitted to the executor; the
    real entry rides inside the payload (module-level functions pickle
    by reference).  A fresh :class:`Telemetry` scopes the task so the
    envelope carries exactly one task's cost.
    """
    global _TASK_TELEMETRY
    telemetry = Telemetry()
    _TASK_TELEMETRY = telemetry
    try:
        with telemetry.phase("parallel.task"), worker_scope():
            value = entry(*args)
    finally:
        _TASK_TELEMETRY = None
    return value, telemetry.state_dict(), _WORKER_ID


class WorkerPool:
    """Dispatch ``@worker_entry`` tasks across ``workers`` processes.

    A thin, picklable facade: the instance holds only the worker count
    and a parent telemetry reference — the executor itself is a shared
    module-level resource (see :data:`_EXECUTORS`).  ``workers=1`` runs
    every task in-process through the identical envelope protocol.
    """

    def __init__(
        self,
        workers: int,
        telemetry: Telemetry | None = None,
        start_method: str | None = None,
    ) -> None:
        self.workers = resolve_workers(workers)
        self.telemetry = telemetry
        self.start_method = resolve_start_method(start_method)

    def run(
        self, entry: Callable[..., Any], payloads: Iterable[Sequence[Any]]
    ) -> list[Any]:
        """Run ``entry(*payload)`` for each payload; results in order.

        ``entry`` must be decorated :func:`~repro.contracts.worker_entry`
        (DML017's static audit keys off the tag, and the tag is the
        author's promise the payload protocol was designed for the
        process boundary).  With sanitizers armed, every payload is
        pickle-probed parent-side so an unpicklable argument fails at
        the call site even on the fork path, where no real pickling
        would otherwise happen.
        """
        if not getattr(entry, "__demonlint_worker_entry__", False):
            raise TypeError(
                f"{getattr(entry, '__name__', entry)!r} is not a "
                f"@worker_entry function; WorkerPool only dispatches "
                f"audited entries (DML017)"
            )
        tasks = [tuple(payload) for payload in payloads]
        if sanitizers_armed():
            for payload in tasks:
                try:
                    pickle.dumps(payload)
                except Exception as exc:
                    raise SanitizerViolation(
                        f"WorkerPool payload for {entry.__name__}() cannot "
                        f"cross the process boundary "
                        f"({type(exc).__name__}: {exc}); ship specs and "
                        f"block ids, rebuild handles in the worker (DML017)"
                    ) from exc
        if self.workers <= 1:
            envelopes = [_run_task(entry, payload) for payload in tasks]
        else:
            executor = _shared_executor(self.workers, self.start_method)
            futures: list[Future[Any]] = [
                executor.submit(_run_task, entry, payload) for payload in tasks
            ]
            envelopes = [future.result() for future in futures]
        values: list[Any] = []
        for value, state, worker_id in envelopes:
            if self.telemetry is not None:
                self.telemetry.merge_state_dict(state)
                self.telemetry.merge_state_dict(
                    state, prefix=f"parallel.w{worker_id}."
                )
                self.telemetry.increment("parallel.tasks")
                self.telemetry.increment(f"parallel.w{worker_id}.tasks")
            values.append(value)
        return values
