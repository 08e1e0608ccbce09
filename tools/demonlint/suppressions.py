"""Suppression comments for demonlint.

Two scopes are supported, both spelled inside a regular ``#`` comment:

* ``# demonlint: disable=DML004`` — suppress the named rule(s) on the
  physical line carrying the comment.  Several rules may be listed,
  separated by commas; ``all`` suppresses every rule on that line.
* ``# demonlint: disable-file=DML004`` — suppress the named rule(s) for
  the whole file, wherever the comment appears (conventionally at the
  top of the module).

Suppressions are counted and reported separately, so a run can show how
many findings were waved through rather than silently hiding them.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

_DIRECTIVE = re.compile(
    r"#\s*demonlint:\s*disable(?P<filewide>-file)?\s*=\s*(?P<rules>[A-Za-z0-9_*,\s]+)"
)

#: Wildcard accepted in place of a rule list.
ALL = "all"


def _parse_rules(raw: str) -> set[str]:
    rules = {part.strip().upper() for part in raw.split(",") if part.strip()}
    return {ALL if rule in ("ALL", "*") else rule for rule in rules}


@dataclass
class SuppressionIndex:
    """Per-file index of demonlint suppression directives.

    Attributes:
        file_level: Rule ids suppressed for the whole file.
        by_line: Rule ids suppressed on specific physical lines.
    """

    file_level: set[str] = field(default_factory=set)
    by_line: dict[int, set[str]] = field(default_factory=dict)

    @classmethod
    def from_source(cls, source: str) -> "SuppressionIndex":
        """Scan a module's source for suppression directives."""
        index = cls()
        for lineno, line in enumerate(source.splitlines(), start=1):
            match = _DIRECTIVE.search(line)
            if match is None:
                continue
            rules = _parse_rules(match.group("rules"))
            if match.group("filewide"):
                index.file_level |= rules
            else:
                index.by_line.setdefault(lineno, set()).update(rules)
        return index

    def is_suppressed(self, rule_id: str, lineno: int) -> bool:
        """Whether ``rule_id`` is suppressed at ``lineno``."""
        for scope in (self.file_level, self.by_line.get(lineno, ())):
            if ALL in scope or rule_id.upper() in scope:
                return True
        return False
