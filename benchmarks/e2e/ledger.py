"""Outside-in span tracing for the per-layer ledger.

The library is not modified: :func:`install` replaces public methods and
functions at their class or module attributes with wrappers that keep a
span stack.  A layer's *self* time is its span time minus the time of the
spans it encloses, so the self times of all spans add up to the time
spent inside the outermost ones.

A call into a layer that is already the innermost open span (``super()``
chains, ``scan_many`` delegating to ``scan``) folds into that span rather
than opening a second one, so calls are counted once.

The wrappers cost a few microseconds per call even while disabled; an
untraced episode never calls :func:`install`.
"""

from __future__ import annotations

import functools
import importlib
import os
import sys
import time
from typing import Any, Callable, Iterator

#: Spans, grouped by the ``repro`` module (layer) they wrap:
#: ``module -> [(attribute path, span name, kind)]``.  ``kind`` is
#: ``"call"`` for a plain call and ``"iter"`` for a call returning an
#: iterator, whose span time is the time spent inside ``next()``.
LAYERS: dict[str, list[tuple[str, str, str]]] = {
    "repro.core.session": [
        ("MiningSession.ingest", "session.ingest", "call"),
        ("MiningSession.current_model", "session.current_model", "call"),
        ("MiningSession.checkpoint", "session.checkpoint", "call"),
    ],
    "repro.scheduling.policy": [
        ("EagerScheduler.decide", "scheduling.decide", "call"),
        ("DeviationScheduler.decide", "scheduling.decide", "call"),
    ],
    "repro.core.gemm": [
        ("GEMM.observe", "gemm.observe", "call"),
        ("GEMM.observe_run", "gemm.observe_run", "call"),
    ],
    "repro.itemsets.borders": [
        ("BordersMaintainer.build", "borders.build", "call"),
        ("BordersMaintainer.add_block", "borders.add_block", "call"),
        ("BordersMaintainer.clone", "borders.clone", "call"),
        ("BordersMaintainer.register_block", "borders.register_block", "call"),
    ],
    "repro.itemsets.apriori": [
        ("apriori", "apriori", "call"),
    ],
    "repro.itemsets.itemset": [
        ("generate_candidates", "generate_candidates", "call"),
    ],
    "repro.itemsets.prefix_tree": [
        ("PrefixTree.__init__", "prefix_tree.build", "call"),
        ("PrefixTree.count_transaction", "prefix_tree.count", "call"),
        ("PrefixTree.count_dataset", "prefix_tree.count", "call"),
        ("PrefixTree.counts", "prefix_tree.counts", "call"),
    ],
    "repro.itemsets.counting": [
        ("SupportCounter.count_batch", "counting.count_batch", "call"),
        ("ECUTCounter.count_batch", "counting.count_batch", "call"),
        ("ECUTPlusCounter.count_batch", "counting.count_batch", "call"),
    ],
    "repro.itemsets.tidlist": [
        ("TidListStore.materialize_block", "tidlist.materialize", "call"),
        ("TidListStore.compress_block", "tidlist.compress", "call"),
    ],
    "repro.storage.engine": [
        ("BlockBackend.ingest", "engine.ingest", "call"),
        ("TieredBackend.ingest", "engine.ingest", "call"),
        ("BlockBackend.notify_expired", "engine.notify_expired", "call"),
        ("TieredBackend.notify_expired", "engine.notify_expired", "call"),
    ],
    "repro.storage.blockstore": [
        ("BlockStore.scan", "blockstore.scan", "iter"),
        ("BlockStore.scan_many", "blockstore.scan", "iter"),
    ],
    "repro.storage.persist": [
        ("ModelVault.put", "vault.put", "call"),
        ("ModelVault.get", "vault.get", "call"),
    ],
    "repro.parallel.pool": [
        ("WorkerPool.run", "pool.run", "call"),
    ],
}


class Tracer:
    """A span stack with per-name self time and call counts."""

    def __init__(self) -> None:
        self.enabled = False
        self.self_s: dict[str, float] = {}
        self.calls: dict[str, int] = {}
        # Open spans: [name, start, seconds covered by child spans].
        self._stack: list[list[Any]] = []

    def innermost(self) -> str | None:
        return self._stack[-1][0] if self._stack else None

    def push(self, name: str) -> None:
        self._stack.append([name, time.perf_counter(), 0.0])

    def pop(self) -> None:
        name, start, children = self._stack.pop()
        elapsed = time.perf_counter() - start
        self.self_s[name] = self.self_s.get(name, 0.0) + elapsed - children
        if self._stack:
            self._stack[-1][2] += elapsed

    def count(self, name: str) -> None:
        self.calls[name] = self.calls.get(name, 0) + 1

    def total_self(self) -> float:
        return sum(self.self_s.values())


def _wrap_call(tracer: Tracer, name: str, fn: Callable[..., Any]) -> Callable[..., Any]:
    @functools.wraps(fn)
    def traced(*args: Any, **kwargs: Any) -> Any:
        if not tracer.enabled or tracer.innermost() == name:
            return fn(*args, **kwargs)
        tracer.count(name)
        tracer.push(name)
        try:
            return fn(*args, **kwargs)
        finally:
            tracer.pop()

    return traced


class _TracedIterator:
    """Charges the time spent inside ``next()`` to one span name."""

    __slots__ = ("_tracer", "_name", "_inner")

    def __init__(self, tracer: Tracer, name: str, inner: Iterator[Any]) -> None:
        self._tracer = tracer
        self._name = name
        self._inner = inner

    def __iter__(self) -> "_TracedIterator":
        return self

    def __next__(self) -> Any:
        tracer = self._tracer
        if not tracer.enabled or tracer.innermost() == self._name:
            return next(self._inner)
        tracer.push(self._name)
        try:
            return next(self._inner)
        finally:
            tracer.pop()


def _wrap_iter(tracer: Tracer, name: str, fn: Callable[..., Any]) -> Callable[..., Any]:
    call = _wrap_call(tracer, name, fn)

    @functools.wraps(fn)
    def traced(*args: Any, **kwargs: Any) -> Any:
        nested = tracer.innermost() == name
        inner = call(*args, **kwargs)
        if not tracer.enabled or nested:
            return inner
        return _TracedIterator(tracer, name, iter(inner))

    return traced


def _rebind_everywhere(original: Any, replacement: Any) -> None:
    """Point every ``repro`` module attribute bound to ``original`` at
    ``replacement`` (``from x import f`` copies the binding)."""
    for module_name, module in list(sys.modules.items()):
        if module is None or not module_name.startswith("repro"):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)


#: Every span name in :data:`LAYERS`; the ledger reports each one's self
#: time as ``<span>.self_s``.
SELF_TIMES = list(dict.fromkeys(name for spans in LAYERS.values() for _, name, _ in spans))

#: Span call counts reported as ``<span>.calls``.
CALL_COUNTS = ["session.checkpoint", "counting.count_batch"]

#: Counters read straight from the session's telemetry.
COUNTERS = [
    "scheduler.deferred",
    "scheduler.triggered",
    "gemm.invocations.critical",
    "gemm.invocations.offline",
    "borders.candidates_counted",
    "storage.tier.demotions",
    "storage.tier.promotions",
    "parallel.tasks",
]

#: ``metric -> telemetry phase``; the metric is the phase's total seconds.
PHASES = {
    "gemm.critical_s": "gemm.critical",
    "gemm.offline_s": "gemm.offline",
    "parallel.count_shard_s": "parallel.count_shard",
    "parallel.maintain_shard_s": "parallel.maintain_shard",
}


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_metrics(
    tracer: Tracer, telemetry: Any, arrivals: int, traced_wall_s: float
) -> dict[str, float]:
    """One traced episode's ledger: span self times and calls, program
    counters and phases, derived ratios and the unattributed rest."""
    metrics: dict[str, float] = {}
    for span in SELF_TIMES:
        metrics[f"{span}.self_s"] = tracer.self_s.get(span, 0.0)
    for span in CALL_COUNTS:
        metrics[f"{span}.calls"] = tracer.calls.get(span, 0)
    for counter in COUNTERS:
        metrics[counter] = telemetry.counter(counter)
    for metric, phase in PHASES.items():
        metrics[metric] = telemetry.phase_seconds(phase)
    metrics["scheduling.deferral_ratio"] = _ratio(
        telemetry.counter("scheduler.deferred"), arrivals
    )
    metrics["borders.promotion_ratio"] = _ratio(
        telemetry.counter("borders.promotions"),
        telemetry.counter("borders.candidates_counted"),
    )
    io = telemetry.io
    fetch = io["maintainer"].get("tidlist_fetch")
    metrics["counting.bytes_read"] = fetch.bytes_read
    metrics["counting.cache_hit_ratio"] = _ratio(
        fetch.cache_hits, fetch.reads + fetch.cache_hits
    )
    vault = io.get("vault")
    metrics["vault.bytes_written"] = (
        vault.totals().bytes_written if vault is not None else 0
    )
    metrics["traced_wall_s"] = traced_wall_s
    metrics["unattributed_s"] = traced_wall_s - tracer.total_self()
    return metrics


def install(tracer: Tracer) -> None:
    """Wrap every span in :data:`LAYERS`; the tracer starts disabled.

    Worker processes forked afterwards inherit the wrappers, so the
    tracer disables itself in every child: the parent's ledger sees a
    worker's time only as ``pool.run``.
    """
    wrappers = {"call": _wrap_call, "iter": _wrap_iter}
    for module_name, spans in LAYERS.items():
        module = importlib.import_module(module_name)
        for path, name, kind in spans:
            owner_name, _, attr = path.rpartition(".")
            owner = getattr(module, owner_name) if owner_name else module
            original = vars(owner)[attr]
            replacement = wrappers[kind](tracer, name, original)
            setattr(owner, attr, replacement)
            if not owner_name:
                _rebind_everywhere(original, replacement)
    os.register_at_fork(after_in_child=lambda: setattr(tracer, "enabled", False))
