"""Golden-output tests for ``tools/regen_bench_tables.py``.

The script's whole reason to exist is that the human tables and the
JSON baselines can never drift apart — so the strongest test is the
golden one: regenerating from the checked-in ``BENCH_*.json`` files
must reproduce the checked-in ``bench_tables.txt`` byte for byte.  The remaining tests cover the degraded inputs a fresh checkout
or a single-module benchmark run produces: no baselines at all, and a
partial set.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

import tools.regen_bench_tables as regen  # noqa: E402


def run_main(monkeypatch, bench_dir: Path, tables_path: Path) -> int:
    monkeypatch.setattr(regen, "BENCH_DIR", str(bench_dir))
    monkeypatch.setattr(regen, "TABLES_PATH", str(tables_path))
    return regen.main()


def test_golden_regeneration_matches_checked_in_tables(monkeypatch, tmp_path):
    out = tmp_path / "bench_tables.txt"
    assert run_main(monkeypatch, ROOT / "benchmarks", out) == 0
    expected = (ROOT / "bench_tables.txt").read_text(encoding="utf-8")
    assert out.read_text(encoding="utf-8") == expected, (
        "bench_tables.txt drifted from the BENCH_*.json baselines; "
        "run: python tools/regen_bench_tables.py"
    )


def test_all_baselines_are_checked_in():
    for filename, _renderer in regen.SOURCES:
        assert (ROOT / "benchmarks" / filename).exists(), filename


def test_missing_baselines_write_header_only(monkeypatch, tmp_path, capsys):
    bench_dir = tmp_path / "empty"
    bench_dir.mkdir()
    out = tmp_path / "tables.txt"
    assert run_main(monkeypatch, bench_dir, out) == 0
    assert out.read_text(encoding="utf-8") == regen.HEADER
    captured = capsys.readouterr()
    for filename, _renderer in regen.SOURCES:
        assert f"(no rows: {filename})" in captured.err


def test_partial_baselines_render_only_their_tables(
    monkeypatch, tmp_path, capsys
):
    bench_dir = tmp_path / "partial"
    bench_dir.mkdir()
    rows = [
        {
            "bench": "ingest",
            "dataset": "quest",
            "records": 1000,
            "backend": "mmap",
            "ingest_seconds": 0.0123,
            "scan_seconds": 0.0045,
        }
    ]
    (bench_dir / "BENCH_ingest.json").write_text(json.dumps({"rows": rows}))
    out = tmp_path / "tables.txt"
    assert run_main(monkeypatch, bench_dir, out) == 0
    text = out.read_text(encoding="utf-8")
    assert text.startswith(regen.HEADER)
    assert "Ingest spine, quest (1000 transactions)" in text
    assert "12.3" in text and "4.5" in text
    # The other sources are reported missing, not silently skipped.
    err = capsys.readouterr().err
    assert "(no rows: BENCH_counting.json)" in err
    assert "(no rows: BENCH_parallel.json)" in err
    assert "(no rows: BENCH_compression.json)" in err
    assert "(no rows: BENCH_scheduler.json)" in err


def test_compression_throughput_renders_the_scan_gate():
    rows = [
        {
            "bench": "compression_throughput",
            "dataset": "quest",
            "records": 1000,
            "hot_scan_seconds": 0.010,
            "cold_scan_seconds": 0.011,
            "scan_slowdown": 1.1,
        }
    ]
    (table,) = regen.compression_tables(regen.by_bench(rows))
    assert "Full scan, quest (1000 transactions)" in table
    assert "hot (dense)    10.0" in table
    assert "cold (packed)  11.0" in table
    assert "1.10x" in table


def test_render_table_layout_matches_print_table():
    rendered = regen.render_table(
        "T", ["col", "ms"], [["a", "1.0"], ["bb", "10.0"]]
    )
    assert rendered == (
        "\nT\n"
        "=========\n"
        "col  ms  \n"
        "---------\n"
        "a    1.0 \n"
        "bb   10.0\n"
    )
