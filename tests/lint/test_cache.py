"""Analysis-cache tests: keying, corruption tolerance, staleness, and
the cold-vs-warm acceptance benchmark."""
# demonlint: disable-file=DML004,DML007 (this module times the linter's own cache; repro code must use the metering layer instead)

from __future__ import annotations

import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from tools.demonlint import run  # noqa: E402
from tools.demonlint.cache import AnalysisCache, file_digest  # noqa: E402

CLEAN = "def f():\n    return 1\n"
DIRTY = "import time\n\ndef f():\n    return time.time()\n"


# ----------------------------------------------------------------------
# Key derivation
# ----------------------------------------------------------------------


def test_module_key_depends_on_content_and_relpath(tmp_path):
    cache = AnalysisCache(tmp_path)
    assert cache.module_key(b"x = 1", "a.py") != cache.module_key(b"x = 2", "a.py")
    # Identical content under two names must not share an entry: the
    # cached ModuleInfo carries its reported path.
    assert cache.module_key(b"x = 1", "a.py") != cache.module_key(b"x = 1", "b.py")


def test_run_key_depends_on_every_input(tmp_path):
    cache = AnalysisCache(tmp_path)
    hashes = [("a.py", file_digest(b"x = 1"))]
    base = cache.run_key(hashes, ["DML004"], True)
    assert base == cache.run_key(list(hashes), ["DML004"], True)
    assert base != cache.run_key(hashes, ["DML004"], False)
    assert base != cache.run_key(hashes, ["DML004", "DML008"], True)
    assert base != cache.run_key([("a.py", file_digest(b"x = 2"))], ["DML004"], True)


def test_store_and_load_roundtrip(tmp_path):
    cache = AnalysisCache(tmp_path / "c")
    key = cache.module_key(b"data", "a.py")
    assert cache.load_module(key) is None
    cache.store_module(key, {"parsed": True})
    assert cache.load_module(key) == {"parsed": True}


def test_corrupt_entry_is_a_miss(tmp_path):
    cache = AnalysisCache(tmp_path / "c")
    key = cache.module_key(b"data", "a.py")
    cache.store_module(key, {"parsed": True})
    cache._entry_path("modules", key).write_bytes(b"\x00not a pickle")
    assert cache.load_module(key) is None


# ----------------------------------------------------------------------
# End-to-end correctness: hits, invalidation on edit
# ----------------------------------------------------------------------


def test_cached_run_reproduces_the_cold_result(tmp_path):
    module = tmp_path / "m.py"
    module.write_text(DIRTY)
    cache = AnalysisCache(tmp_path / "cache")
    cold = run([module], root=tmp_path, cache=cache)
    warm = run([module], root=tmp_path, cache=cache)
    assert [v.render() for v in warm.violations] == [
        v.render() for v in cold.violations
    ]
    assert not cold.ok and not warm.ok


def test_editing_a_file_invalidates_the_cached_result(tmp_path):
    module = tmp_path / "m.py"
    module.write_text(DIRTY)
    cache = AnalysisCache(tmp_path / "cache")
    assert not run([module], root=tmp_path, cache=cache).ok
    module.write_text(CLEAN)
    assert run([module], root=tmp_path, cache=cache).ok


def test_run_options_do_not_share_cache_entries(tmp_path):
    module = tmp_path / "m.py"
    module.write_text(DIRTY + "bad = time.time()  # demonlint: disable=DML004\n")
    cache = AnalysisCache(tmp_path / "cache")
    respected = run([module], root=tmp_path, cache=cache)
    ignored = run([module], root=tmp_path, cache=cache, respect_suppressions=False)
    assert len(ignored.violations) > len(respected.violations)


# ----------------------------------------------------------------------
# The acceptance benchmark: warm runs are >= 3x faster than cold
# ----------------------------------------------------------------------


def test_warm_run_is_at_least_3x_faster(tmp_path):
    # Only the timing and the cache hit are checked here: whether the
    # tree is clean is test_live_tree_is_clean's business, so a lint
    # finding in src/ does not fail this test too.
    cache = AnalysisCache(tmp_path / "cache")
    target = ROOT / "src" / "repro"
    hits = []
    load_result = cache.load_result

    def spy(key):
        result = load_result(key)
        hits.append(result is not None)
        return result

    cache.load_result = spy

    start = time.perf_counter()
    run([target], root=ROOT, cache=cache)
    cold_seconds = time.perf_counter() - start

    start = time.perf_counter()
    run([target], root=ROOT, cache=cache)
    warm_seconds = time.perf_counter() - start

    assert hits == [False, True]
    assert warm_seconds * 3 <= cold_seconds, (
        f"cold={cold_seconds:.3f}s warm={warm_seconds:.3f}s — "
        f"expected the result-cache hit to be at least 3x faster"
    )
