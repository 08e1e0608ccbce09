"""Render a :class:`~tools.demonlint.core.LintResult` as text or JSON."""

from __future__ import annotations

import json
from collections import Counter

from tools.demonlint.core import LintResult


def render_text(result: LintResult, verbose: bool = False) -> str:
    """The human-readable report: one ``path:line:col: RULE msg`` per finding."""
    lines = [violation.render() for violation in result.violations]
    if verbose and result.suppressed:
        lines.append("")
        lines.append("suppressed:")
        lines.extend(f"  {violation.render()}" for violation in result.suppressed)
    by_rule = Counter(v.rule_id for v in result.violations)
    summary = ", ".join(f"{rule}×{n}" for rule, n in sorted(by_rule.items()))
    lines.append("")
    if result.violations:
        lines.append(
            f"demonlint: {len(result.violations)} violation(s) [{summary}] "
            f"in {result.files_checked} file(s), "
            f"{len(result.suppressed)} suppressed"
        )
    else:
        lines.append(
            f"demonlint: clean — {result.files_checked} file(s), "
            f"{len(result.suppressed)} suppressed"
        )
    return "\n".join(lines).strip("\n")


def render_json(result: LintResult) -> str:
    """Machine-readable report (stable keys, sorted findings)."""
    payload = {
        "ok": result.ok,
        "files_checked": result.files_checked,
        "violation_count": len(result.violations),
        "suppressed_count": len(result.suppressed),
        "violations": [
            {
                "path": v.path,
                "line": v.line,
                "col": v.col,
                "rule": v.rule_id,
                "message": v.message,
            }
            for v in result.violations
        ],
        "suppressed": [
            {
                "path": v.path,
                "line": v.line,
                "col": v.col,
                "rule": v.rule_id,
                "message": v.message,
            }
            for v in result.suppressed
        ],
    }
    return json.dumps(payload, indent=2)

