"""End-to-end benchmark: Quest streams through ``MiningSession``.

Run from the repository root::

    python3 benchmarks/e2e/run.py --seed 0 --json out.json        # all workloads
    python3 benchmarks/e2e/run.py --workload mrw-eager --seed 3 --seconds 10
    python3 benchmarks/e2e/run.py --trace 1 --json ledger.json    # per-layer ledger

(``python -m benchmarks.e2e.run`` works too.)  Each episode of a workload
runs in a fresh process with a scrubbed environment (no ``DEMON_*`` or
``REPRO_*`` variables, one BLAS thread, fixed hash seed) and drives only
the public session API.  A workload repeats episodes until ``--seconds``
have passed, and always runs at least one.  With ``--trace 1`` episodes
alternate untraced and traced, and the traced ones yield the per-layer
ledger.

Every metric is printed by name with its unit; the last line of standard
output is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics`` (the ``end_to_end`` metrics of ``BENCHMARK.json``, or its
``per_layer`` ones with ``--trace 1``).  The exit code is 1 when an
arrival raised or a served model differed from the from-scratch one.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any

ROOT = Path(__file__).resolve().parents[2]
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from benchmarks.e2e.workloads import WORKLOADS, Workload  # noqa: E402

EPISODE = ROOT / "benchmarks" / "e2e" / "episode.py"
WORKDIR = ROOT / "benchmarks" / "e2e" / ".work"
#: Set-up time is the median of at least this many fresh processes.
SETUP_SAMPLES = 5
#: A workload stops starting episodes, and kills a running one, this
#: long after it began; a run must end within 180 s.
DEADLINE_S = 150.0
#: ``--smoke`` shrinks every workload by this factor.
SMOKE_FACTOR = 4


def hermetic_env(tmpdir: Path) -> dict[str, str]:
    """The episode environment: no ambient library knobs, one thread."""
    env = {
        key: value
        for key, value in os.environ.items()
        if not key.startswith(("DEMON_", "REPRO_"))
    }
    env.update(
        OMP_NUM_THREADS="1",
        OPENBLAS_NUM_THREADS="1",
        MKL_NUM_THREADS="1",
        PYTHONHASHSEED="0",
        PYTHONPATH=os.pathsep.join([str(ROOT / "src"), str(ROOT)]),
        TMPDIR=str(tmpdir),
    )
    return env


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def git_commit() -> str | None:
    """HEAD's commit, read from ``.git`` directly (no git process)."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment(seed: int, numpy: str | None) -> dict[str, Any]:
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy,
        "platform": platform.platform(),
        "commit": git_commit(),
        "seed": seed,
    }


def spawn(spec: dict[str, Any], env: dict[str, str], timeout: float) -> dict[str, Any]:
    """Run one episode process; its last stdout line is its result."""
    proc = subprocess.Popen(
        [sys.executable, str(EPISODE), json.dumps(spec)],
        cwd=ROOT,
        env=env,
        stdout=subprocess.PIPE,
        text=True,
        start_new_session=True,
    )
    try:
        out, _ = proc.communicate(timeout=max(timeout, 1.0))
    except BaseException as exc:
        # The episode runs in its own session (so a terminal's Ctrl-C
        # reaches only this process); its pool workers share its group.
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        if not isinstance(exc, subprocess.TimeoutExpired):
            raise
        return {"error": f"timed out after {timeout:.0f}s"}
    if proc.returncode != 0:
        return {"error": f"episode exited with code {proc.returncode}"}
    return json.loads(out.strip().splitlines()[-1])


def with_units(values: dict[str, float], listed: list[dict[str, Any]]) -> dict[str, Any]:
    """``{name: {value, unit}}`` for every listed metric (KeyError when the
    run did not produce one)."""
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in listed}


def run_workload(
    workload: Workload,
    seed: int,
    seconds: float,
    trace: bool,
    env: dict[str, str],
    spec: dict[str, Any],
) -> dict[str, Any]:
    """Episodes of one workload until ``seconds`` passed; its metrics.

    ``metrics`` holds the end-to-end metrics, from untraced episodes only;
    ``layers`` holds the per-layer ledger, averaged over traced episodes.
    """
    start = time.perf_counter()
    episodes: list[dict[str, Any]] = []

    def episode(traced: bool, setup_only: bool = False) -> dict[str, Any]:
        request = {
            "workload": workload.to_dict(),
            "seed": seed,
            "trace": traced,
            "setup_only": setup_only,
            "workdir": os.path.join(env["TMPDIR"], workload.name),
        }
        result = spawn(request, env, DEADLINE_S - (time.perf_counter() - start))
        result["traced"] = traced
        return result

    while True:
        episodes.append(episode(traced=trace and len(episodes) % 2 == 1))
        elapsed = time.perf_counter() - start
        if "error" in episodes[-1] or elapsed >= DEADLINE_S:
            break
        if elapsed >= seconds and (not trace or len(episodes) >= 2):
            break
    setups = [e["setup_s"] for e in episodes if "setup_s" in e]
    while len(setups) < SETUP_SAMPLES and time.perf_counter() - start < DEADLINE_S:
        probe = episode(traced=False, setup_only=True)
        if "error" in probe:
            episodes.append(probe)
            break
        setups.append(probe["setup_s"])

    broken = [e for e in episodes if "error" in e]
    done = [e for e in episodes if "error" not in e]
    attempted = len(broken) + sum(e["arrivals"] + e["verifications"] for e in done)
    failed = len(broken) + sum(e["arrival_failures"] + e["mismatches"] for e in done)
    report: dict[str, Any] = {
        "attempted": attempted,
        "failed": failed,
        "failed_frac": failed / attempted if attempted else 1.0,
        "episodes": episodes,
    }
    untraced = [e for e in done if not e["traced"]]
    if broken or not untraced:
        return report
    latencies = [x for e in untraced for x in e["latencies"]]
    e2e = {
        "setup_s": statistics.median(setups),
        "records_per_s": sum(e["records"] for e in untraced)
        / sum(e["wall_s"] for e in untraced),
        "arrival_p50_s": statistics.median(latencies),
        "arrival_p75_s": statistics.quantiles(latencies, n=4)[2],
        "peak_rss_mb": statistics.median(e["peak_rss_mb"] for e in untraced),
    }
    report["metrics"] = with_units(e2e, spec["end_to_end"])
    report["arrival_samples"] = len(latencies)
    report["disk_mb"] = statistics.median(e["disk_bytes"] for e in done) / 2**20
    traced = [e for e in done if e["traced"]]
    if traced:
        ledger = {
            name: statistics.fmean(e["ledger"][name] for e in traced)
            for name in traced[0]["ledger"]
        }
        ledger["disk_mb"] = report["disk_mb"]
        ledger["trace_overhead_frac"] = (
            statistics.median(e["wall_s"] for e in traced)
            / statistics.median(e["wall_s"] for e in untraced)
            - 1.0
        )
        report["layers"] = with_units(ledger, spec["per_layer"])
    return report


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), action="append",
                        help="workload to run (repeatable; default: all four)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=0.0,
                        help="keep starting episodes until this much time passed")
    parser.add_argument("--trace", type=int, choices=(0, 1), nargs="?", const=1,
                        default=0, help="alternate untraced and traced episodes")
    parser.add_argument("--repeat", type=int, default=1,
                        help="run everything this many times (one set of runs)")
    parser.add_argument("--smoke", action="store_true",
                        help=f"shrink every workload {SMOKE_FACTOR}x (for tests)")
    parser.add_argument("--json", metavar="PATH", help="write the full report here")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"no repro sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = {
        name: WORKLOADS[name].shrink(SMOKE_FACTOR) if args.smoke else WORKLOADS[name]
        for name in args.workload or WORKLOADS
    }
    source = "layers" if args.trace else "metrics"

    scratch = WORKDIR / str(os.getpid())
    scratch.mkdir(parents=True, exist_ok=True)
    env = hermetic_env(scratch)
    runs: list[dict[str, Any]] = []
    try:
        for _ in range(args.repeat):
            runs.append({
                name: run_workload(
                    workload, args.seed, args.seconds, bool(args.trace), env, spec
                )
                for name, workload in workloads.items()
            })
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        try:
            WORKDIR.rmdir()
        except OSError:
            pass  # another run still uses it

    reports = [(name, report) for run in runs for name, report in run.items()]
    attempted = sum(report["attempted"] for _, report in reports)
    failed = sum(report["failed"] for _, report in reports)
    metrics: dict[str, dict[str, Any]] = {}
    for name, report in reports:
        for part in ("metrics", "layers"):
            for metric, entry in report.get(part, {}).items():
                print(f"{name:14s} {metric:32s} {entry['value']:14.6g} {entry['unit']}")
        for metric, entry in report.get(source, {}).items():
            metrics[metric if len(workloads) == 1 else f"{name}/{metric}"] = entry
    if args.json:
        numpy = next(
            (e["numpy"] for _, r in reports for e in r["episodes"] if "numpy" in e), None
        )
        document = {
            "environment": environment(args.seed, numpy),
            "seconds": args.seconds,
            "trace": bool(args.trace),
            "smoke": args.smoke,
            "workloads": {name: w.to_dict() for name, w in workloads.items()},
            "runs": runs,
        }
        with open(args.json, "w") as handle:
            json.dump(document, handle, indent=1)
    correct = failed == 0 and all(source in report for _, report in reports)
    print(json.dumps({
        "correct": correct,
        "attempted": max(attempted, 1),
        "failed": failed,
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
