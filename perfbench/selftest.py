"""Self-test of the benchmark at a tiny size.

    python3 perfbench/selftest.py

Runs every workload for one cycle untraced and two cycles traced, in this
one process, and checks that:

* every end-to-end metric is reported for every workload, and the energy
  error for the workloads it applies to;
* the traced run reports every per-layer metric;
* every op's output checks pass;
* the traced cycles reproduce the untraced digest;
* the command line ends its output with the result object;
* the benchmark exits non-zero, printing no result, when the program's
  sources are absent.

Exits 0 when all hold.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import run

ERROR_WORKLOADS = {"accuracy_sweep", "capture_9bit", "register_loop"}


def check(failures: list, ok: bool, what: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] {what}")
    if not ok:
        failures.append(what)


def check_workload(failures: list, name: str, import_s: float) -> None:
    plain = run.run_workload(name, seed=3, seconds=0, trace=False,
                             import_s=import_s, min_cycles=1, setup_repeats=1)
    traced = run.run_workload(name, seed=3, seconds=0, trace=True,
                              import_s=import_s, min_cycles=1, setup_repeats=1)
    e2e = plain["end_to_end"]
    check(failures, set(e2e) == set(run.END_TO_END_UNITS)
          and all(v > 0 for v in e2e.values()),
          f"{name}: every end-to-end metric reported, each above zero")
    check(failures, plain["op_count"] >= 100,
          f"{name}: at least 100 distinct ops, so ten lie beyond the p90")
    check(failures, ("energy_error_pct_p50" in plain) == (name in ERROR_WORKLOADS),
          f"{name}: energy error reported exactly where it applies")
    check(failures, set(traced["per_layer"]) == set(run.PER_LAYER_UNITS),
          f"{name}: every per-layer metric reported")
    check(failures, plain["failed"] == 0 and traced["failed"] == 0,
          f"{name}: all output checks pass {plain['problems'] + traced['problems']}")
    check(failures, plain["digest"] == traced["digest"] == traced["traced_digest"],
          f"{name}: traced and untraced digests agree")


def check_command_line(failures: list) -> None:
    """The contract line: last line of stdout, end-to-end metrics by unit."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "register_loop",
         "--seed", "3", "--seconds", "0", "--trace", "0"],
        cwd=run.ROOT, capture_output=True, text=True, timeout=180)
    try:
        last = json.loads(proc.stdout.strip().splitlines()[-1])
    except (IndexError, json.JSONDecodeError):
        last = {}
    metrics = last.get("metrics", {})
    check(failures, proc.returncode == 0
          and set(last) == {"correct", "attempted", "failed", "metrics"}
          and last["correct"] and last["failed"] == 0
          and {k: v["unit"] for k, v in metrics.items()} == run.END_TO_END_UNITS,
          "the command line prints the result object as its last line")


def check_without_sources(failures: list) -> None:
    """Only BENCHMARK.json and the benchmark's files: must fail cleanly."""
    run.WORK_ROOT.mkdir(exist_ok=True)
    bare = Path(tempfile.mkdtemp(prefix="bare-", dir=run.WORK_ROOT))
    try:
        shutil.copy(run.ROOT / "BENCHMARK.json", bare)
        shutil.copytree(Path(run.__file__).parent, bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "capture_9bit",
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=180)
    finally:
        shutil.rmtree(bare)
    check(failures, proc.returncode != 0 and '"correct"' not in proc.stdout,
          "without the program's sources the run exits non-zero with no result")


def main() -> int:
    failures: list[str] = []
    start = time.perf_counter()
    sys.path.insert(0, str(run.ROOT / "src"))
    import suite
    import_s = time.perf_counter() - start
    for name in suite.WORKLOADS:
        check_workload(failures, name, import_s)
    check_command_line(failures)
    check_without_sources(failures)
    print(json.dumps({"selftest": "fail" if failures else "pass",
                      "failures": failures}))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
