"""DML008-DML012 regression tests: each rule's findings, and proof that
the real violations they caught in ``src/repro`` stay fixed.

The ``*_prefix_*`` tests reconstruct the pre-fix shape of the code that
each rule originally flagged (GEMM's unpersisted spill set, the
compactor's dangling span, GEMM's un-namespaced vault keys, the
miners' per-add ``self`` state) and assert the rule still detects it;
the paired ``*_live_*`` tests assert the fixed modules are clean.
"""

from __future__ import annotations

import sys
import textwrap
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from tools.demonlint import run  # noqa: E402

FIXTURES = Path(__file__).parent / "fixtures"
FLOW_RULES = (
    "DML008", "DML009", "DML010", "DML011", "DML012",
    "DML014", "DML015", "DML016", "DML017", "DML018", "DML019",
    "DML020", "DML021", "DML022", "DML023", "DML024",
)


def lint_bad(path: Path, rule_id: str):
    return run([path], root=ROOT, select=[rule_id], respect_suppressions=False)


def lint_snippet(tmp_path: Path, source: str, rule_id: str):
    module = tmp_path / "prefix_repro.py"
    module.write_text(textwrap.dedent(source))
    return run([module], root=tmp_path, select=[rule_id])


def lint_live(rule_id: str, *relpaths: str):
    paths = [ROOT / "src" / "repro" / rel for rel in relpaths]
    return run(paths, root=ROOT, select=[rule_id])


# ----------------------------------------------------------------------
# DML008 — checkpoint parity
# ----------------------------------------------------------------------


def test_dml008_reports_both_parity_failures():
    result = lint_bad(FIXTURES / "dml008_bad.py", "DML008")
    messages = " | ".join(v.message for v in result.violations)
    assert "count" in messages and "neither state_dict nor" in messages
    assert "epoch" in messages and "but not load_state_dict" in messages


def test_dml008_detects_the_prefix_gemm_spill_set(tmp_path):
    result = lint_snippet(
        tmp_path,
        """
        class MiniGEMM:
            def __init__(self, vault):
                self.vault = vault
                self._spilled = set()
                self.models = {}

            def observe(self, key):
                self._spilled.add(key)
                self.models[key] = None

            def state_dict(self):
                return {"models": sorted(self.models)}

            def load_state_dict(self, state):
                self.models = {key: None for key in state["models"]}
        """,
        "DML008",
    )
    assert any("_spilled" in v.message for v in result.violations)


def test_dml008_live_checkpoint_classes_are_clean():
    result = lint_live("DML008", "core/gemm.py", "core/session.py")
    assert result.ok, "\n".join(v.render() for v in result.violations)


# ----------------------------------------------------------------------
# DML009 — phase-span discipline
# ----------------------------------------------------------------------


def test_dml009_reports_every_span_failure_mode():
    result = lint_bad(FIXTURES / "dml009_bad.py", "DML009")
    messages = " | ".join(v.message for v in result.violations)
    assert "still open on a return path" in messages
    assert "still open on a raise path" in messages
    assert "re-entered inside its own span" in messages
    assert "via _measure()" in messages


def test_dml009_detects_the_prefix_compact_dangling_span(tmp_path):
    result = lint_snippet(
        tmp_path,
        """
        class CompactObserver:
            def __init__(self, telemetry, seen):
                self.telemetry = telemetry
                self.seen = seen

            def observe(self, block_id, rows):
                span = self.telemetry.phase("patterns.observe").start()
                if block_id in self.seen:
                    raise ValueError(block_id)
                self.seen.add(block_id)
                span.stop()
        """,
        "DML009",
    )
    assert any("raise path" in v.message for v in result.violations)


def test_dml009_live_compact_is_clean():
    result = lint_live("DML009", "patterns/compact.py")
    assert result.ok, "\n".join(v.render() for v in result.violations)


# ----------------------------------------------------------------------
# DML010 — frozen-array taint
# ----------------------------------------------------------------------


def test_dml010_reports_every_sink_kind():
    result = lint_bad(FIXTURES / "dml010_bad.py", "DML010")
    messages = " | ".join(v.message for v in result.violations)
    assert "subscript store into frozen array" in messages
    assert "augmented assignment" in messages
    assert "mutates a frozen array in place" in messages
    assert "setflags(write=True)" in messages
    assert "out=tids" in messages


def test_dml010_live_consumers_are_clean():
    result = lint_live(
        "DML010", "itemsets/counting.py", "itemsets/fup.py", "patterns/compact.py"
    )
    assert result.ok, "\n".join(v.render() for v in result.violations)


# ----------------------------------------------------------------------
# DML011 — vault-key hygiene
# ----------------------------------------------------------------------


def test_dml011_reports_every_verdict_kind():
    result = lint_bad(FIXTURES / "dml011_bad.py", "DML011")
    messages = " | ".join(v.message for v in result.violations)
    assert "is not a literal-rooted tuple" in messages
    assert "never registered" in messages
    assert "does not statically resolve" in messages


def test_dml011_detects_the_prefix_gemm_spill_keys(tmp_path):
    result = lint_snippet(
        tmp_path,
        """
        class SpillingGEMM:
            def __init__(self, vault):
                self.vault = vault

            def spill(self, key, model):
                self.vault.put(tuple(sorted(key)), model)

            def unspill(self, key):
                if tuple(sorted(key)) in self.vault:
                    return self.vault.get(tuple(sorted(key)))
                return None
        """,
        "DML011",
    )
    assert len(result.violations) >= 3
    assert all("statically resolve" in v.message for v in result.violations)


def test_dml011_namespace_collision_across_modules(tmp_path):
    header = "from repro.storage.persist import register_vault_namespace\n"
    (tmp_path / "first.py").write_text(
        header + 'NS = register_vault_namespace("shared-ns")\n'
    )
    (tmp_path / "second.py").write_text(
        header + 'NS = register_vault_namespace("shared-ns")\n'
    )
    result = run([tmp_path], root=tmp_path, select=["DML011"])
    assert any("already registered" in v.message for v in result.violations)


def test_dml011_live_vault_tenants_are_clean():
    result = lint_live("DML011", "core/gemm.py", "core/session.py")
    assert result.ok, "\n".join(v.render() for v in result.violations)


# ----------------------------------------------------------------------
# DML012 — transitive purity
# ----------------------------------------------------------------------


def test_dml012_reports_direct_and_transitive_stores():
    result = lint_bad(FIXTURES / "dml012_bad.py", "DML012")
    messages = " | ".join(v.message for v in result.violations)
    assert "self.stats" in messages
    assert "self.counter" in messages and "reached via _note()" in messages


def test_dml012_detects_the_prefix_miner_stats(tmp_path):
    result = lint_snippet(
        tmp_path,
        """
        def pure_unless_cloned(func):
            return func

        class BorderMiner:
            def __init__(self):
                self.last_stats = None

            @pure_unless_cloned
            def add_block(self, model, block):
                self.last_stats = self._maintain(model, block)

            def _maintain(self, model, block):
                self.scratch = list(block)
                return len(self.scratch)
        """,
        "DML012",
    )
    messages = " | ".join(v.message for v in result.violations)
    assert "self.last_stats" in messages
    assert "self.scratch" in messages and "reached via _maintain()" in messages


def test_dml012_live_miners_are_clean():
    result = lint_live(
        "DML012",
        "itemsets/borders.py",
        "itemsets/fup.py",
        "clustering/birch_plus.py",
        "clustering/dbscan.py",
    )
    assert result.ok, "\n".join(v.render() for v in result.violations)


# ----------------------------------------------------------------------
# DML014 — backend handle typestate
# ----------------------------------------------------------------------


def test_dml014_reports_every_lifecycle_failure():
    result = lint_bad(FIXTURES / "dml014_bad.py", "DML014")
    messages = " | ".join(v.message for v in result.violations)
    assert "not closed on every return path" in messages
    assert "used after close()" in messages
    assert "deleted while the handle is still open" in messages
    assert len(result.violations) == 3


def test_dml014_with_blocks_and_escaping_handles_are_exempt():
    result = run(
        [FIXTURES / "dml014_good.py"], root=ROOT, select=["DML014"]
    )
    assert result.ok, "\n".join(v.render() for v in result.violations)


def test_dml014_detects_a_leak_behind_a_branch(tmp_path):
    result = lint_snippet(
        tmp_path,
        """
        from repro.storage.engine import MmapBackend

        def count(root, records, keep):
            backend = MmapBackend(root=root)
            block = backend.ingest(1, records)
            if keep:
                backend.close()
                return 0
            return block.num_records
        """,
        "DML014",
    )
    messages = " | ".join(v.message for v in result.violations)
    assert "'backend' is not closed on every return path" in messages


def test_dml014_live_storage_and_session_are_clean():
    result = lint_live("DML014", "storage/engine.py", "core/session.py")
    assert result.ok, "\n".join(v.render() for v in result.violations)


# ----------------------------------------------------------------------
# DML015 — chunk view escapes
# ----------------------------------------------------------------------


def test_dml015_reports_every_escape_kind():
    result = lint_bad(FIXTURES / "dml015_bad.py", "DML015")
    messages = " | ".join(v.message for v in result.violations)
    assert "self" in messages and "module global" in messages
    assert "caller receives a view" in messages
    assert "caller's container" in messages
    # The interprocedural leg: _remember(chunk) stores into SEEN.
    assert "_remember" in messages or "callee stores" in messages
    assert len(result.violations) >= 5


def test_dml015_copies_and_yields_are_exempt():
    result = run(
        [FIXTURES / "dml015_good.py"], root=ROOT, select=["DML015"]
    )
    assert result.ok, "\n".join(v.render() for v in result.violations)


def test_dml015_live_consumers_are_clean():
    result = lint_live(
        "DML015",
        "core/session.py",
        "core/gemm.py",
        "patterns/compact.py",
    )
    assert result.ok, "\n".join(v.render() for v in result.violations)


# ----------------------------------------------------------------------
# DML016 — streaming discipline
# ----------------------------------------------------------------------


def test_dml016_reports_every_materialization_kind():
    result = lint_bad(FIXTURES / "dml016_bad.py", "DML016")
    messages = " | ".join(v.message for v in result.violations)
    assert "materializes the whole block every iteration" in messages
    assert "materializes every record per chunk" in messages
    assert "pulls the whole record set" in messages
    assert "use num_records" in messages
    assert len(result.violations) == 4


def test_dml016_hoisted_and_streaming_access_is_exempt():
    result = run(
        [FIXTURES / "dml016_good.py"], root=ROOT, select=["DML016"]
    )
    assert result.ok, "\n".join(v.render() for v in result.violations)


# ----------------------------------------------------------------------
# DML017 — worker payload safety
# ----------------------------------------------------------------------


def test_dml017_reports_every_payload_hazard():
    result = lint_bad(FIXTURES / "dml017_bad.py", "DML017")
    messages = " | ".join(v.message for v in result.violations)
    assert "default argument" in messages
    assert "module global 'SHARED_LOCK'" in messages
    assert "module global 'SHARED_BACKEND'" in messages
    assert "lambda worker payloads" in messages
    assert "nested function 'work'" in messages
    assert "self.lock holds Lock(...)" in messages
    assert len(result.violations) == 6


def test_dml017_picklable_payloads_are_exempt():
    result = run(
        [FIXTURES / "dml017_good.py"], root=ROOT, select=["DML017"]
    )
    assert result.ok, "\n".join(v.render() for v in result.violations)


def test_dml017_live_benchmarks_are_clean():
    result = run([ROOT / "benchmarks"], root=ROOT, select=["DML017"])
    assert result.ok, "\n".join(v.render() for v in result.violations)


# ----------------------------------------------------------------------
# DML018 — exception atomicity of checkpointed state
# ----------------------------------------------------------------------


def test_dml018_reports_the_commit_before_validate_shape():
    result = lint_bad(FIXTURES / "dml018_bad.py", "DML018")
    messages = " | ".join(v.message for v in result.violations)
    assert "'DriftCounter.counts' is checkpoint state" in messages
    assert "raise reachable afterwards" in messages


def test_dml018_clone_before_commit_is_exempt():
    result = run(
        [FIXTURES / "dml018_good.py"], root=ROOT, select=["DML018"]
    )
    assert result.ok, "\n".join(v.render() for v in result.violations)


def test_dml018_detects_the_prefix_session_observe(tmp_path):
    # The shape MiningSession.observe had before the fix: the snapshot
    # was extended before the engine accepted the block, so a rejected
    # block corrupted the next checkpoint.
    result = lint_snippet(
        tmp_path,
        """
        class MiniSession:
            def __init__(self):
                self.snapshot = []
                self.total = 0

            def state_dict(self):
                return {"snapshot": list(self.snapshot), "total": self.total}

            def load_state_dict(self, state):
                self.snapshot = list(state["snapshot"])
                self.total = state["total"]

            def observe(self, block):
                self.snapshot.append(block)
                self.total += 1
                if block is None:
                    raise ValueError("engine rejected the block")
        """,
        "DML018",
    )
    messages = " | ".join(v.message for v in result.violations)
    assert "'MiniSession.snapshot'" in messages
    assert "'MiniSession.total'" in messages


def test_dml018_live_session_and_engines_are_clean():
    result = lint_live(
        "DML018",
        "core/session.py",
        "core/gemm.py",
        "core/maintainer.py",
        "patterns/compact.py",
    )
    assert result.ok, "\n".join(v.render() for v in result.violations)


# ----------------------------------------------------------------------
# DML019 — compressed-column streaming
# ----------------------------------------------------------------------


def test_dml019_reports_every_redecoded_column():
    result = lint_bad(FIXTURES / "dml019_bad.py", "DML019")
    messages = " | ".join(v.message for v in result.violations)
    assert "decode() inside a iter_chunks() loop" in messages
    assert "inflate() inside a chunks() loop" in messages
    assert "to_array() inside a iter_chunks() loop" in messages
    assert len(result.violations) == 3


def test_dml019_hoisted_and_per_chunk_decodes_are_exempt():
    result = run(
        [FIXTURES / "dml019_good.py"], root=ROOT, select=["DML019"]
    )
    assert result.ok, "\n".join(v.render() for v in result.violations)


def test_dml019_live_counting_and_kernels_are_clean():
    result = lint_live(
        "DML019",
        "itemsets/counting.py",
        "itemsets/kernels.py",
        "itemsets/tidlist.py",
    )
    assert result.ok, "\n".join(v.render() for v in result.violations)


# ----------------------------------------------------------------------
# DML020 — worker-context mutation of parent-owned state
# ----------------------------------------------------------------------


def test_dml020_reports_all_three_legs():
    result = lint_bad(FIXTURES / "dml020_bad.py", "DML020")
    messages = " | ".join(v.message for v in result.violations)
    assert "mutates parent-owned module global '_RESULTS'" in messages
    assert "mutates its argument 'backend' via .ingest()" in messages
    assert "bound method 'self._task'" in messages
    assert "mutates self.seen" in messages
    assert len(result.violations) == 3


def test_dml020_detects_the_prefix_executor_cache_shape(tmp_path):
    # The pre-fix pool.py shape: a worker-context function writing a
    # module global the parent also populates.
    result = lint_snippet(
        tmp_path,
        """
        from repro.contracts import worker_entry

        _SEEN = {}

        def parent_record(key):
            _SEEN[key] = True

        @worker_entry
        def shard_task(spec, key):
            _SEEN[key] = len(spec)
            return key
        """,
        "DML020",
    )
    assert any("parent-owned" in v.message for v in result.violations)


def test_dml020_live_parallel_layer_is_clean():
    result = lint_live("DML020", "parallel/pool.py", "parallel/shards.py")
    assert result.ok, "\n".join(v.render() for v in result.violations)


# ----------------------------------------------------------------------
# DML021 — fork-unsafe module-global caches
# ----------------------------------------------------------------------


def test_dml021_reports_caches_and_atexit():
    result = lint_bad(FIXTURES / "dml021_bad.py", "DML021")
    messages = " | ".join(v.message for v in result.violations)
    assert "'_EXECUTORS' caches a live ProcessPoolExecutor" in messages
    assert "'_SESSIONS' caches a live ProcessPoolExecutor" in messages
    assert "destructive atexit callback 'backend.destroy'" in messages
    assert len(result.violations) == 3


def test_dml021_detects_the_prefix_shared_executor(tmp_path):
    # The exact pre-fix _shared_executor: populate-on-miss with no
    # os.getpid() re-check anywhere in the function.
    result = lint_snippet(
        tmp_path,
        """
        from concurrent.futures import ProcessPoolExecutor

        _EXECUTORS = {}

        def shared_executor(workers):
            executor = _EXECUTORS.get(workers)
            if executor is None:
                executor = ProcessPoolExecutor(max_workers=workers)
                _EXECUTORS[workers] = executor
            return executor
        """,
        "DML021",
    )
    assert any("os.getpid() re-check" in v.message for v in result.violations)


def test_dml021_live_pool_and_engine_are_clean():
    result = lint_live("DML021", "parallel/pool.py", "storage/engine.py")
    assert result.ok, "\n".join(v.render() for v in result.violations)


# ----------------------------------------------------------------------
# DML022 — atomic file publication
# ----------------------------------------------------------------------


def test_dml022_reports_every_torn_publication():
    result = lint_bad(FIXTURES / "dml022_bad.py", "DML022")
    messages = " | ".join(v.message for v in result.violations)
    assert "open(..., 'w')" in messages
    assert "np.save" in messages
    assert "meta.json" in messages
    assert len(result.violations) == 4


def test_dml022_detects_the_prefix_write_meta(tmp_path):
    # Storage-scoped module (the rule only patrols storage/ paths).
    storage = tmp_path / "storage"
    storage.mkdir()
    module = storage / "prefix_engine.py"
    module.write_text(
        textwrap.dedent(
            """
            import json
            import os

            def write_meta(path, meta):
                with open(os.path.join(path, "meta.json"), "w") as fh:
                    json.dump(meta, fh)
            """
        )
    )
    result = run([module], root=tmp_path, select=["DML022"])
    assert any("torn file" in v.message for v in result.violations)


def test_dml022_live_storage_engine_is_clean():
    result = lint_live("DML022", "storage/engine.py", "storage/atomic.py")
    assert result.ok, "\n".join(v.render() for v in result.violations)


# ----------------------------------------------------------------------
# DML023 — telemetry merge discipline
# ----------------------------------------------------------------------


def test_dml023_reports_double_count_and_drop():
    result = lint_bad(FIXTURES / "dml023_bad.py", "DML023")
    messages = " | ".join(v.message for v in result.violations)
    assert "double-counted" in messages
    assert "merges only under prefix" in messages
    assert len(result.violations) == 2


def test_dml023_live_pool_merge_is_clean():
    result = lint_live("DML023", "parallel/pool.py")
    assert result.ok, "\n".join(v.render() for v in result.violations)


# ----------------------------------------------------------------------
# DML024 — blocking calls inside critical sections
# ----------------------------------------------------------------------


def test_dml024_reports_direct_and_transitive_blocking():
    result = lint_bad(FIXTURES / "dml024_bad.py", "DML024")
    messages = " | ".join(v.message for v in result.violations)
    assert "blocking call demote() inside critical section" in messages
    assert "may block (demote()" in messages
    assert len(result.violations) == 2


def test_dml024_live_tiered_index_is_clean():
    result = lint_live("DML024", "storage/engine.py")
    assert result.ok, "\n".join(v.render() for v in result.violations)


# ----------------------------------------------------------------------
# Whole-tree: zero flow-rule findings survive in src (no baseline needed)
# ----------------------------------------------------------------------


@pytest.mark.parametrize("rule_id", FLOW_RULES)
def test_src_tree_has_zero_flow_rule_findings(rule_id):
    result = run([ROOT / "src" / "repro"], root=ROOT, select=[rule_id])
    assert result.ok, "\n".join(v.render() for v in result.violations)
