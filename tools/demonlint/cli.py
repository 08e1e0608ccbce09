"""Command-line entry point: ``python -m tools.demonlint src/repro``.

Exit status: 0 when the tree is clean, 1 when violations were found,
2 on usage errors.

Rule filtering
    ``--select DML008 --select DML009`` runs only the named rules;
    ``--ignore DML004`` runs everything but.  ``--list-rules`` prints
    the registry.

Incremental runs
    Results are cached by content hash under ``.demonlint_cache`` (see
    ``tools/demonlint/cache.py``): an unchanged tree skips the whole
    analysis, a single edited file re-parses only itself.  Disable
    with ``--no-cache`` or relocate with ``--cache-dir``.
"""

from __future__ import annotations

import argparse
from collections.abc import Sequence
from pathlib import Path

from tools.demonlint.core import registered_rules, run
from tools.demonlint.reporter import render_json, render_text


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="demonlint",
        description=(
            "Whole-program AST linter for the DEMON reproduction: "
            "maintainer contracts, clone-before-mutate discipline, "
            "timing hygiene (DML001-DML007), plus "
            "flow-sensitive checkpoint/span/taint/vault/purity analyses "
            "(DML008-DML012), typestate/escape lifecycle, streaming, "
            "worker-safety, and exception-atomicity rules (DML014-DML018), "
            "and interprocedural effect-and-ownership concurrency rules — "
            "worker mutation, fork safety, atomic publication, telemetry "
            "merge, critical-section blocking (DML020-DML024). "
            "See docs/STATIC_ANALYSIS.md for the rule catalog."
        ),
    )
    parser.add_argument(
        "paths",
        nargs="*",
        default=["src/repro"],
        help="files or directories to lint (default: src/repro)",
    )
    parser.add_argument(
        "--format",
        choices=("text", "json"),
        default="text",
        help="report format on stdout (default: text)",
    )
    parser.add_argument(
        "--select",
        action="append",
        metavar="RULE",
        help="only run the given rule id (repeatable)",
    )
    parser.add_argument(
        "--ignore",
        action="append",
        metavar="RULE",
        help="skip the given rule id (repeatable)",
    )
    parser.add_argument(
        "--no-suppress",
        action="store_true",
        help="report findings even when a disable comment covers them",
    )
    parser.add_argument(
        "--no-cache",
        action="store_true",
        help="disable the content-hash analysis cache",
    )
    parser.add_argument(
        "--cache-dir",
        metavar="DIR",
        default=None,
        help="cache location (default: .demonlint_cache)",
    )
    parser.add_argument(
        "--verbose",
        action="store_true",
        help="also list suppressed findings in the text report",
    )
    parser.add_argument(
        "--list-rules",
        action="store_true",
        help="print the registered rules and exit",
    )
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)

    if args.list_rules:
        for rule_id, cls in registered_rules().items():
            print(f"{rule_id}  {cls.title}")
        return 0

    known = set(registered_rules())
    unknown = [
        rule
        for rule in (args.select or []) + (args.ignore or [])
        if rule.upper() not in known
    ]
    if unknown:
        parser.error(
            f"unknown rule id(s): {', '.join(sorted(unknown))} "
            f"(see --list-rules)"
        )

    cache = None
    if not args.no_cache:
        from tools.demonlint.cache import DEFAULT_CACHE_DIR, AnalysisCache

        cache = AnalysisCache(
            Path(args.cache_dir) if args.cache_dir else DEFAULT_CACHE_DIR
        )

    try:
        result = run(
            args.paths,
            select=args.select,
            ignore=args.ignore,
            respect_suppressions=not args.no_suppress,
            cache=cache,
        )
    except FileNotFoundError as exc:
        parser.error(str(exc))  # exits with status 2

    if args.format == "json":
        print(render_json(result))
    else:
        print(render_text(result, verbose=args.verbose))
    return 0 if result.ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
