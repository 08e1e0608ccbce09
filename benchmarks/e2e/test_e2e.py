"""Tests of the end-to-end benchmark: ``pytest benchmarks/e2e -q``.

One shrunken (``--smoke``) traced run of all four workloads backs every
check; it takes well under a minute on two cores.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from benchmarks.e2e.compare import label  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


@pytest.fixture(scope="module")
def smoke(tmp_path_factory):
    """The ``--json`` report and the final stdout line of a smoke run."""
    path = tmp_path_factory.mktemp("e2e") / "report.json"
    proc = subprocess.run(
        [sys.executable, "benchmarks/e2e/run.py", "--smoke", "--trace", "1",
         "--json", str(path)],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=170,
    )
    assert proc.returncode == 0, proc.stderr[-4000:]
    return json.loads(path.read_text()), json.loads(proc.stdout.splitlines()[-1])


@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_is_emitted_with_its_unit(smoke, workload):
    report = smoke[0]["runs"][0][workload]
    for part, listed in (("metrics", "end_to_end"), ("layers", "per_layer")):
        assert {
            name: entry["unit"] for name, entry in report[part].items()
        } == {m["name"]: m["unit"] for m in SPEC[listed]}


def test_final_line_has_the_documented_keys(smoke):
    line = smoke[1]
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] and line["failed"] == 0 and line["attempted"] >= 1
    assert set(line["metrics"]) == {
        f"{w}/{m['name']}" for w in WORKLOADS for m in SPEC["per_layer"]
    }


@pytest.mark.parametrize("workload", WORKLOADS)
def test_no_failures(smoke, workload):
    report = smoke[0]["runs"][0][workload]
    assert report["failed_frac"] == 0
    assert report["attempted"] > 0


@pytest.mark.parametrize("workload", WORKLOADS)
def test_self_times_and_unattributed_add_up_to_the_traced_wall(smoke, workload):
    layers = {
        name: entry["value"]
        for name, entry in smoke[0]["runs"][0][workload]["layers"].items()
    }
    self_total = sum(v for name, v in layers.items() if name.endswith(".self_s"))
    assert self_total > 0
    assert self_total + layers["unattributed_s"] == pytest.approx(
        layers["traced_wall_s"], rel=1e-9
    )
    assert 0 <= layers["unattributed_s"] < 0.1 * layers["traced_wall_s"]


@pytest.mark.parametrize(
    "base, new, higher, expected",
    [
        ([10, 10, 10, 10], [10, 10, 10, 10], True, "unchanged"),
        ([10, 10, 10, 10], [8, 8, 8, 8], True, "regressed"),
        ([10, 10, 10, 10], [12, 12, 12, 12], True, "improved"),
        ([10, 10, 10, 10], [8, 8, 8, 8], False, "improved"),
        ([5, 10, 15, 20], [8, 8, 8, 8], True, "unresolved"),
        ([5, 6, 7, 8], [30, 31, 32, 40], True, "improved"),
    ],
)
def test_compare_labels(base, new, higher, expected):
    assert label(base, new, 0.1, higher) == expected
