"""Run the benchmark several times per workload and summarise the spread.

    python3 perfbench/repeat.py --runs 10 [--workload NAME ...]
                                [--out perfbench/baseline.json]

Reads the command, workloads, run length and bounds from BENCHMARK.json
and runs each workload with seeds 1..runs, one run at a time.  For every
metric it prints the median, the quartiles (``statistics.quantiles(n=4)``)
and the spread, (q3 - q1) / median, next to the metric's bound, and the
spread of the raw wall-clock figure that the run printed beside it.  With
``--out`` it writes every run's values and the summary as JSON, which is
how the baseline of a commit is recorded.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_once(bench: dict, workload: str, seed: int):
    argv = bench["command"] + ["--workload", workload, "--seed", str(seed),
                               "--seconds", str(bench["run_seconds"]),
                               "--trace", "0"]
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True,
                          timeout=900)
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}\n"
                         f"{proc.stderr}")
    lines = proc.stdout.splitlines()
    machine = next((json.loads(line.split(" ", 1)[1]) for line in lines
                    if line.startswith("machine ")), None)
    raw = {line.split()[1]: float(line.split()[2]) for line in lines
           if line.startswith("raw ")}
    return json.loads(lines[-1]), machine, raw


def summarise(values, bound):
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    spread = (q3 - q1) / median if median else float("inf")
    return {"median": median, "q1": q1, "q3": q3, "spread": spread,
            "bound": bound, "values": values}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--workload", action="append")
    parser.add_argument("--out")
    args = parser.parse_args()
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    names = args.workload or [w["name"] for w in bench["workloads"]]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    report = {"runs": args.runs, "run_seconds": bench["run_seconds"],
              "workloads": {}}
    for name in names:
        results, raws = [], []
        for seed in range(1, args.runs + 1):
            result, machine, raw = run_once(bench, name, seed)
            report.setdefault("machine", machine)
            results.append(result)
            raws.append(raw)
            print(f"{name} seed {seed}: correct={result['correct']} "
                  f"failed={result['failed']}/{result['attempted']}",
                  file=sys.stderr, flush=True)
        metrics = {m: summarise([r["metrics"][m]["value"] for r in results],
                                bounds[m])
                   for m in bounds}
        for m, s in metrics.items():
            s["raw"] = summarise([r[m] for r in raws], None)
            del s["raw"]["bound"]
        report["workloads"][name] = {
            "correct": all(r["correct"] for r in results),
            "failed": sum(r["failed"] for r in results),
            "attempted": sum(r["attempted"] for r in results),
            "metrics": metrics,
        }
        print(f"\n{name}")
        for m, s in metrics.items():
            flag = f" bound {s['bound']:.2f}"
            if s["spread"] > s["bound"]:
                flag += "  OVER BOUND"
            elif s["spread"] > s["bound"] / 3:
                flag += "  over bound/3"
            print(f"  {m:42s} median {s['median']:<12.6g} q1 {s['q1']:<12.6g} "
                  f"q3 {s['q3']:<12.6g} spread {s['spread']:.3f}{flag}"
                  f"  (raw spread {s['raw']['spread']:.3f})", flush=True)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as f:
            json.dump(report, f, indent=1)
            f.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
