"""Label every (end-to-end metric, workload) pair between sets of runs.

Usage, from the repository root::

    python -m benchmarks.e2e.compare BASE.json NEW.json [MORE.json ...]
    python3 benchmarks/e2e/compare.py benchmarks/e2e/BASELINE.json:A new.json

Each argument is a report written by ``run.py --json`` (a set of runs, see
``--repeat``); ``FILE:NAME`` picks the set ``NAME`` out of a file holding
several, such as ``BASELINE.json``.  Every later set is compared with the
first, pair by pair, using the bounds in ``BENCHMARK.json``:

* ``unresolved`` — either set's quartile spread, as a share of its median,
  exceeds the bound, and not every new run beats every base run;
* ``regressed`` — the new median is worse than the base median by more
  than the bound;
* ``improved`` — the new median is better by more than the base set's
  spread, and the new run wins at least 90% of all (base, new) pairs;
* ``unchanged`` — anything else.

The exit code is 1 when any pair regressed.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path
from typing import Any

ROOT = Path(__file__).resolve().parents[2]


def spread(values: list[float]) -> float:
    """Distance between the first and third quartile, over the median.

    Quartiles interpolate between the runs themselves (``inclusive``):
    on a set of five runs the exclusive method lands next to the extremes,
    so one run slowed by a noisy neighbour would decide the label.
    """
    median = statistics.median(values)
    if len(values) < 2 or median == 0:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return (q3 - q1) / abs(median)


def label(base: list[float], new: list[float], bound: float, higher_is_better: bool) -> str:
    sign = 1.0 if higher_is_better else -1.0
    base_median = statistics.median(base)
    gain = sign * (statistics.median(new) - base_median) / abs(base_median)
    wins = [sign * (n - b) > 0 for b in base for n in new]
    if max(spread(base), spread(new)) > bound:
        return "improved" if all(wins) else "unresolved"
    if gain < -bound:
        return "regressed"
    if gain > spread(base) and sum(wins) >= 0.9 * len(wins):
        return "improved"
    return "unchanged"


def load_set(argument: str) -> dict[str, Any]:
    path, _, name = argument.partition(":")
    with open(path) as handle:
        document = json.load(handle)
    return document["sets"][name] if name else document


def values_by_pair(report: dict[str, Any]) -> dict[tuple[str, str], list[float]]:
    """``(workload, metric) -> [value per run]``."""
    pairs: dict[tuple[str, str], list[float]] = {}
    for run in report["runs"]:
        for workload, result in run.items():
            for metric, entry in result.get("metrics", {}).items():
                pairs.setdefault((workload, metric), []).append(entry["value"])
    return pairs


def compare(base: dict[str, Any], new: dict[str, Any], spec: dict[str, Any]) -> list[dict[str, Any]]:
    base_values = values_by_pair(base)
    new_values = values_by_pair(new)
    rows = []
    for (workload, metric), before in sorted(base_values.items()):
        entry = next((m for m in spec["end_to_end"] if m["name"] == metric), None)
        after = new_values.get((workload, metric))
        if entry is None or not after:
            continue
        rows.append({
            "workload": workload,
            "metric": metric,
            "base": statistics.median(before),
            "new": statistics.median(after),
            "base_spread": spread(before),
            "new_spread": spread(after),
            "bound": entry["bound"],
            "label": label(before, after, entry["bound"], entry["better"] == "higher"),
        })
    return rows


def main(argv: list[str] | None = None) -> int:
    arguments = sys.argv[1:] if argv is None else argv
    if len(arguments) < 2:
        print(__doc__, file=sys.stderr)
        return 2
    with open(ROOT / "BENCHMARK.json") as handle:
        spec = json.load(handle)
    base = load_set(arguments[0])
    regressed = False
    for argument in arguments[1:]:
        print(f"{arguments[0]} -> {argument}")
        for row in compare(base, load_set(argument), spec):
            change = (row["new"] - row["base"]) / abs(row["base"]) * 100
            print(
                f"  {row['workload']:14s} {row['metric']:14s} "
                f"{row['base']:12.5g} -> {row['new']:12.5g} ({change:+6.2f}%)  "
                f"spread {row['base_spread'] * 100:5.2f}%/{row['new_spread'] * 100:5.2f}%  "
                f"bound {row['bound'] * 100:.0f}%  {row['label']}"
            )
            regressed |= row["label"] == "regressed"
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main())
