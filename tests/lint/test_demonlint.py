"""demonlint self-tests: every rule, suppressions, CLI, and a clean tree."""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from tools.demonlint import registered_rules, run  # noqa: E402
from tools.demonlint.cli import main  # noqa: E402
from tools.demonlint.core import PARSE_ERROR  # noqa: E402
from tools.demonlint.reporter import render_json, render_text  # noqa: E402

FIXTURES = Path(__file__).parent / "fixtures"
ALL_RULES = (
    "DML001", "DML002", "DML004", "DML005", "DML007", "DML008",
    "DML009", "DML010", "DML011", "DML012", "DML013", "DML014",
    "DML015", "DML016", "DML017", "DML018", "DML019", "DML020",
    "DML021", "DML022", "DML023", "DML024",
)


def lint(path: Path, **kwargs):
    return run([path], root=ROOT, **kwargs)


def lint_bad(path: Path, **kwargs):
    """Lint a ``*_bad.py`` fixture.

    Bad fixtures carry a ``disable-file=all`` header so whole-tree CI
    runs stay clean; the rule tests bypass it to see the raw findings.
    """
    return run([path], root=ROOT, respect_suppressions=False, **kwargs)


# ----------------------------------------------------------------------
# Per-rule positive and negative fixtures
# ----------------------------------------------------------------------


@pytest.mark.parametrize("rule_id", ALL_RULES)
def test_rule_fires_on_bad_fixture(rule_id):
    result = lint_bad(FIXTURES / f"{rule_id.lower()}_bad.py", select=[rule_id])
    assert not result.ok
    assert {v.rule_id for v in result.violations} == {rule_id}


@pytest.mark.parametrize("rule_id", ALL_RULES)
def test_rule_silent_on_good_fixture(rule_id):
    result = lint(FIXTURES / f"{rule_id.lower()}_good.py", select=[rule_id])
    assert result.ok, [v.render() for v in result.violations]


@pytest.mark.parametrize("rule_id", ALL_RULES)
def test_good_fixtures_clean_under_all_rules(rule_id):
    result = lint(FIXTURES / f"{rule_id.lower()}_good.py")
    assert result.ok, [v.render() for v in result.violations]


# ----------------------------------------------------------------------
# Rule specifics
# ----------------------------------------------------------------------


def test_dml001_reports_missing_method_and_bad_signature():
    result = lint_bad(FIXTURES / "dml001_bad.py", select=["DML001"])
    messages = " | ".join(v.message for v in result.violations)
    assert "does not implement clone()" in messages
    assert "add_block" in messages and "expected signature" in messages


def test_dml002_flags_both_straight_line_and_loop_reuse():
    result = lint_bad(FIXTURES / "dml002_bad.py", select=["DML002"])
    lines = {v.line for v in result.violations}
    source = (FIXTURES / "dml002_bad.py").read_text().splitlines()
    flagged = {source[line - 1].strip() for line in lines}
    assert any("b2" in text for text in flagged)  # straight-line reuse
    assert any("for" in text or "block" in text for text in flagged)


def test_dml004_resolves_import_aliases():
    result = lint_bad(FIXTURES / "dml004_bad.py", select=["DML004"])
    resolved = {v.message.split("(")[0] for v in result.violations}
    assert any("time.time" in m for m in resolved)
    assert any("time.perf_counter" in m for m in resolved)
    assert any("datetime.datetime.now" in m for m in resolved)


def test_dml004_allows_the_metering_module():
    result = lint(ROOT / "src" / "repro" / "storage" / "iostats.py", select=["DML004"])
    assert result.ok


def test_dml007_resolves_aliases_and_names_both_span_kinds():
    result = lint_bad(FIXTURES / "dml007_bad.py", select=["DML007"])
    messages = " | ".join(v.message for v in result.violations)
    assert "Stopwatch" in messages
    assert "time.perf_counter" in messages
    assert "time.perf_counter_ns" in messages  # via the pcns alias


def test_dml007_allows_the_storage_layer():
    result = lint(
        ROOT / "src" / "repro" / "storage" / "telemetry.py", select=["DML007"]
    )
    assert result.ok


def test_dml005_reports_each_hygiene_problem_once():
    result = lint_bad(FIXTURES / "dml005_bad.py", select=["DML005"])
    messages = [v.message for v in result.violations]
    assert sum("mutable default" in m for m in messages) == 1
    assert sum("mutated while being iterated" in m for m in messages) == 1
    assert sum("bare 'except:'" in m for m in messages) == 1


# ----------------------------------------------------------------------
# Suppressions, parse errors, select/ignore
# ----------------------------------------------------------------------


def test_suppression_comments_silence_findings():
    result = lint(FIXTURES / "suppressed.py")
    assert result.ok
    assert {v.rule_id for v in result.suppressed} == {"DML004", "DML005"}


def test_suppressions_can_be_ignored():
    result = lint(FIXTURES / "suppressed.py", respect_suppressions=False)
    assert {v.rule_id for v in result.violations} == {"DML004", "DML005"}


def test_file_wide_suppression(tmp_path):
    bad = tmp_path / "module.py"
    bad.write_text(
        "# demonlint: disable-file=DML004\nimport time\n\n"
        "def f():\n    return time.time()\n"
    )
    assert run([bad]).ok


def test_syntax_error_becomes_dml000(tmp_path):
    bad = tmp_path / "broken.py"
    bad.write_text("def f(:\n")
    result = run([bad])
    assert [v.rule_id for v in result.violations] == [PARSE_ERROR]


def test_run_orders_findings_by_path_line_rule():
    result = run([FIXTURES], root=ROOT, respect_suppressions=False)
    keys = [(v.path, v.line, v.rule_id) for v in result.violations]
    assert keys == sorted(keys)


def test_ignore_filters_rules():
    # DML007 also sees the perf_counter alias, so both must be ignored.
    result = lint_bad(FIXTURES / "dml004_bad.py", ignore=["DML004", "DML007"])
    assert result.ok


def test_dml013_detected_then_fixed(tmp_path):
    """The regression shape DML013 exists for: an eager record read in
    algorithm code is flagged; streaming the same logic is clean; and
    the identical eager read is legal once it lives in the storage
    layer (which owns raw record lists by construction)."""
    eager = "def f(block):\n    return len(block.tuples)\n"
    module = tmp_path / "maintainer.py"
    module.write_text(eager)
    detected = run([module], root=tmp_path, select=["DML013"])
    assert not detected.ok
    assert [v.rule_id for v in detected.violations] == ["DML013"]
    assert "iter_chunks" in detected.violations[0].message

    module.write_text("def f(block):\n    return block.num_records\n")
    assert run([module], root=tmp_path, select=["DML013"]).ok

    storage = tmp_path / "storage"
    storage.mkdir()
    (storage / "engine.py").write_text(eager)
    assert run([storage / "engine.py"], root=tmp_path, select=["DML013"]).ok


# ----------------------------------------------------------------------
# The live tree is clean — the PR's acceptance invariant
# ----------------------------------------------------------------------


def test_live_tree_is_clean():
    result = run([ROOT / "src" / "repro"], root=ROOT)
    assert result.files_checked > 40
    assert result.ok, "\n".join(v.render() for v in result.violations)


def test_registry_is_complete():
    assert tuple(registered_rules()) == ALL_RULES


# ----------------------------------------------------------------------
# Reporters and CLI
# ----------------------------------------------------------------------


def test_reporters_round_trip():
    result = lint_bad(FIXTURES / "dml005_bad.py")
    text = render_text(result)
    assert "DML005" in text and "dml005_bad.py" in text
    payload = json.loads(render_json(result))
    assert payload["ok"] is False
    assert all(v["rule"] == "DML005" for v in payload["violations"])


def test_cli_exit_codes(capsys):
    assert main(["--no-cache", str(FIXTURES / "dml004_good.py")]) == 0
    # The disable-file=all header in the fixture suppresses everything ...
    assert main(["--no-cache", str(FIXTURES / "dml004_bad.py")]) == 0
    # ... until --no-suppress surfaces the findings again.
    assert main(["--no-cache", "--no-suppress", str(FIXTURES / "dml004_bad.py")]) == 1
    capsys.readouterr()
    assert main(["--list-rules"]) == 0
    listing = capsys.readouterr().out
    for rule_id in ALL_RULES:
        assert rule_id in listing


def test_cli_rejects_unknown_rule_ids():
    with pytest.raises(SystemExit) as excinfo:
        main(["--select", "BOGUS", str(FIXTURES / "dml004_bad.py")])
    assert excinfo.value.code == 2


def test_cli_json_output(capsys):
    code = main(
        ["--no-cache", "--no-suppress", "--format", "json",
         str(FIXTURES / "dml005_bad.py")]
    )
    payload = json.loads(capsys.readouterr().out)
    assert code == 1
    assert payload["files_checked"] == 1
    assert {v["rule"] for v in payload["violations"]} == {"DML005"}


def test_cli_lints_the_tree_like_ci_does():
    assert main(["--no-cache", str(ROOT / "src" / "repro")]) == 0
