"""Self-test of the benchmark on F4-sized inputs; takes about half a minute.

    python3 perfbench/selftest.py

Runs each kind of workload (serial enumerate, pooled enumerate, detect
sweep) on F4 through ``run.main``, untraced and traced, and checks that:
every end-to-end and per-layer metric is printed with its unit; counters
are integers that repeat exactly across two traced runs with different
seeds; the gate trips when the reference is corrupted; the speed probe's
processes end when its block is left by an exception; and the benchmark
refuses to run, printing no result, in a directory without the program.
Exits 1 and lists what failed.
"""

from __future__ import annotations

import contextlib
import copy
import io
import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import speed  # noqa: E402
from workloads import Enumerate, Sweep  # noqa: E402

SMALL = {
    "enumerate-f4": Enumerate("F4"),
    "enumerate-f4-jobs2": Enumerate("F4", jobs=2),
    "detect-sweep-f4": Sweep("F4", max_theta=2),
}
REFERENCE = json.loads((HERE / "reference.json").read_text(encoding="utf-8"))

failures = []


def check(ok: bool, what: str) -> None:
    if not ok:
        failures.append(what)


def bench(name: str, seed: int, trace: int, reference=REFERENCE):
    """Run one workload in-process; return (result object, stdout lines)."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = run.main(["--workload", name, "--seed", str(seed),
                         "--seconds", "1", "--trace", str(trace)],
                        workload_table=SMALL, reference=reference)
    lines = out.getvalue().splitlines()
    check(code == 0, f"{name}: exit code {code}")
    return json.loads(lines[-1]), lines[:-1]


def check_result(name: str, result: dict, lines, declared) -> None:
    check(set(result) == {"correct", "attempted", "failed", "metrics"},
          f"{name}: result keys {sorted(result)}")
    check(result["correct"] is True and result["failed"] == 0,
          f"{name}: gate failed on a correct program")
    check(isinstance(result["attempted"], int) and result["attempted"] >= 1,
          f"{name}: attempted {result['attempted']}")
    metrics = result["metrics"]
    names = {n for n, _ in declared}
    check(set(metrics) == names,
          f"{name}: metric names differ by {sorted(set(metrics) ^ names)}")
    for metric, unit in declared:
        got = metrics.get(metric, {})
        check(got.get("unit") == unit, f"{name}: {metric} unit {got.get('unit')}")
        check(any(line.startswith(f"metric {metric} ") and line.split()[3] == unit
                  for line in lines), f"{name}: {metric} not printed with its unit")
    check(any(line.startswith("metric failed_ratio 0 ") for line in lines),
          f"{name}: failed_ratio not printed as 0")
    if declared is run.END_TO_END:
        check(all(any(line.startswith(f"raw {metric} ") for line in lines)
                  for metric, _ in declared),
              f"{name}: raw wall-clock figures not printed")


def main() -> int:
    for name in SMALL:
        result, lines = bench(name, seed=1, trace=0)
        check_result(name, result, lines, run.END_TO_END)
        for metric, value in result["metrics"].items():
            check(value["value"] > 0, f"{name}: {metric} is {value['value']}")

        first, lines = bench(name, seed=1, trace=1)
        check_result(name + " traced", first, lines, run.PER_LAYER)
        second, _ = bench(name, seed=2, trace=1)
        for metric in run.COUNTS:
            a, b = first["metrics"][metric]["value"], second["metrics"][metric]["value"]
            check(isinstance(a, int), f"{name}: {metric} is not an integer")
            check(a == b, f"{name}: {metric} {a} then {b}")

    corrupt = copy.deepcopy(REFERENCE)
    records = corrupt[SMALL["enumerate-f4"].key]["records"]
    records[3] = "0" * len(records[3])
    queries = corrupt[SMALL["detect-sweep-f4"].key]["queries"]
    key = next(k for k, v in queries.items() if v[0])
    queries[key] = [False, 0]
    for name in SMALL:
        result, _ = bench(name, seed=1, trace=0, reference=corrupt)
        check(result["correct"] is False and result["failed"] >= 1,
              f"{name}: gate did not trip on a corrupted reference")

    children = []
    with contextlib.suppress(RuntimeError):
        with speed.Probe() as probe:
            children = list(probe.children)
            raise RuntimeError("leave the block")
    check(children and all(c.returncode is not None for c in children),
          "the speed probe left a process running")

    bare = HERE.parent / ".perfbench-out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", bare)
    proc = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", "enumerate-e7",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=180)
    check(proc.returncode != 0 and '"correct"' not in proc.stdout,
          f"without the program: exit {proc.returncode}, stdout {proc.stdout!r}")
    shutil.rmtree(bare)

    for what in failures:
        print("FAIL", what)
    print("selftest:", "ok" if not failures else f"{len(failures)} failures")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
