"""Run one workload episode in this (fresh) process; print one JSON line.

Usage (normally spawned by ``run.py``, which scrubs the environment)::

    python benchmarks/e2e/episode.py '<json spec>'

The spec carries the workload, the seed, a scratch directory for the
block backend, and whether to trace.  Set-up time runs from the first
line of this file (before ``repro`` is imported) to ``MiningSession``
returning.  The episode then streams the workload through the public
session API, pausing the clock while it generates each block's records
and while it checks the served model against a from-scratch Apriori.
"""

import time

_T0 = time.perf_counter()

import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from typing import Any  # noqa: E402

from benchmarks.e2e.workloads import (  # noqa: E402
    DEVIATION_MAX_PENDING,
    DEVIATION_THRESHOLD,
    Workload,
    record_stream,
)


def build_session(workload: Workload, workdir: str) -> Any:
    """The session under test, every knob passed explicitly."""
    from repro.core.session import MiningSession
    from repro.core.windows import MostRecentWindow, UnrestrictedWindow
    from repro.itemsets.borders import BordersMaintainer
    from repro.scheduling import DeviationScheduler, EagerScheduler
    from repro.storage.engine import MmapBackend, TieredBackend
    from repro.storage.persist import ModelVault

    backends = {"mmap": MmapBackend, "tiered": TieredBackend}
    backend = (
        backends[workload.backend](root=os.path.join(workdir, "blocks"))
        if workload.backend in backends
        else None
    )
    scheduler = (
        DeviationScheduler(DEVIATION_THRESHOLD, max_pending=DEVIATION_MAX_PENDING)
        if workload.scheduler == "deviation"
        else EagerScheduler()
    )
    return MiningSession(
        BordersMaintainer(workload.minsup, counter="ecut"),
        span=MostRecentWindow(workload.window) if workload.window else UnrestrictedWindow(),
        vault=ModelVault() if workload.vault else None,
        backend=backend,
        workers=workload.workers,
        scheduler=scheduler,
    )


def matches_definition(session: Any, workload: Workload, history: dict[int, list]) -> bool:
    """Whether the served model is Apriori's over the selected blocks."""
    from repro.core.blocks import Block
    from repro.itemsets.apriori import mine_blocks

    model = session.current_model()
    blocks = [
        Block(block_id, tuples=tuple(history[block_id]))
        for block_id in session.current_selection()
    ]
    reference = mine_blocks(blocks, workload.minsup)
    return (
        model.frequent == reference.frequent
        and set(model.border) == set(reference.border)
        and model.n_transactions == reference.n_transactions
    )


def tree_bytes(root: str) -> int:
    total = 0
    for directory, _, files in os.walk(root):
        for name in files:
            total += os.path.getsize(os.path.join(directory, name))
    return total


def run(spec: dict[str, Any]) -> dict[str, Any]:
    workload = Workload.from_dict(spec["workload"])
    workdir = spec["workdir"]
    session = build_session(workload, workdir)
    setup_s = time.perf_counter() - _T0
    result: dict[str, Any] = {"setup_s": setup_s}
    if spec.get("setup_only"):
        return result

    tracer = None
    if spec["trace"]:
        from benchmarks.e2e.ledger import Tracer, install

        tracer = Tracer()
        install(tracer)

    history: dict[int, list] = {}
    latencies: list[float] = []
    arrival_failures = verifications = mismatches = 0
    stream = record_stream(workload, spec["seed"])
    for arrival in range(1, workload.blocks + 1):
        records = next(stream)
        history[arrival] = records
        if workload.window:
            history.pop(arrival - workload.window, None)
        read = arrival % workload.read_every == 0
        if tracer is not None:
            tracer.enabled = True
        start = time.perf_counter()
        try:
            session.ingest(records)
            if read:
                session.current_model()
                if workload.checkpoint_on_read:
                    session.checkpoint()
        except Exception:
            traceback.print_exc(file=sys.stderr)
            arrival_failures += 1
            break
        finally:
            if tracer is not None:
                tracer.enabled = False
        latencies.append(time.perf_counter() - start)
        if arrival in workload.verify_at:
            verifications += 1
            if not matches_definition(session, workload, history):
                mismatches += 1

    result.update(
        arrivals=len(latencies) + arrival_failures,
        arrival_failures=arrival_failures,
        verifications=verifications,
        mismatches=mismatches,
        records=len(latencies) * workload.per_block,
        latencies=latencies,
        wall_s=sum(latencies),
    )
    telemetry = session.telemetry.snapshot()
    if session.backend is not None:
        result["disk_bytes"] = tree_bytes(session.backend.root)
        session.backend.close()
    else:
        result["disk_bytes"] = 0
    if tracer is not None:
        from benchmarks.e2e.ledger import layer_metrics

        result["ledger"] = layer_metrics(
            tracer, telemetry, result["arrivals"], result["wall_s"]
        )
    return result


def main() -> int:
    spec = json.loads(sys.argv[1])
    try:
        result = run(spec)
    finally:
        from repro.parallel.pool import shutdown_workers

        shutdown_workers()
        shutil.rmtree(spec["workdir"], ignore_errors=True)
    import numpy

    # ru_maxrss is in KiB on Linux.  Children are reaped pool workers.
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    workers = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    result["peak_rss_mb"] = (own + workers) / 1024.0
    result["numpy"] = numpy.__version__
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
