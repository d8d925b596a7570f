"""rootproj benchmark: one workload per invocation, closed loop, one client.

    python3 perfbench/run.py --workload enumerate-e7 --seed 1 --seconds 55 --trace 0

Runs from the root of a source checkout; it imports ``rootproj`` from
``src/`` and changes nothing there.  Each run measures set-up in fresh
interpreters, then repeats whole passes of the workload while another
pass still fits in ``--seconds`` (at least one).  Every pass is checked
against ``perfbench/reference.json`` after its clock stops.  A speed probe
(``speed.py``) runs alongside, and every end-to-end time of the workload
is scaled to a fixed machine speed; the raw wall-clock figures are
printed too.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` alternates an
untraced and a traced pass and prints the per-layer metrics, with the
tracing overhead.  The last line of stdout is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  See
``perfbench/README.md`` for what each metric means.
"""

from __future__ import annotations

import argparse
import json
import random
import resource
import statistics
import sys
from math import exp, log, log1p
from pathlib import Path
from time import perf_counter, sleep

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

try:
    import speed
    import tracing
    import workloads
    from workloads import Enumerate, Sweep
except ImportError as exc:
    sys.exit(f"perfbench: cannot import rootproj from src/: {exc}")

# BENCHMARK.json declares the two enumerate workloads; the sweep is run
# by name only (see README.md for why).
WORKLOADS = {
    "enumerate-e7": Enumerate("E7"),
    "enumerate-e8-jobs2": Enumerate("E8", jobs=2),
    "detect-sweep-e7": Sweep("E7", max_theta=2),
}

SETUP_REPEATS = 9
PROBE_WARMUP_S = 1.5   # probe samples taken before the first set-up

END_TO_END = (
    ("setup_s", "s"),
    ("thetas_per_s", "1/s"),
    ("queries_per_s", "1/s"),
    ("query_p50_ms", "ms"),
    ("query_p96_ms", "ms"),
    ("absent_s", "s"),
    ("found_s", "s"),
    ("peak_rss_mb", "MB"),
)

LINALG = tuple(f"linalg.{f}.calls" for f in tracing.COUNTED_LINALG)
COUNTS = (
    "projection.project_all.calls", "projection.sigma_theta_vectors",
    *LINALG,
    "detect.find_subsystem.calls",
    "detect.census_admits.calls", "detect.census_admits.rejects",
    "detect.match_type.calls", "detect.match_type.typed",
    "detect.reflection_closure.calls", "detect.reflection_closure.certified",
    "detect.reflection_closure.escaped", "detect.reflection_closure.oversize",
)
FIND_SPLITS = tuple(f"detect.find_subsystem.{mode}.{verdict}"
                    for mode in ("restricted", "unrestricted")
                    for verdict in ("found", "absent"))

PER_LAYER = (
    ("setup.import_s", "s"),
    ("catalog.build_s", "s"),
    ("projection.project_all_s", "s"),
    *((name, "count") for name in COUNTS),
    ("detect.classify_max_rank_s", "s"),
    ("detect.find_subsystem_self_s", "s"),
    *((f"{name}_s", "s") for name in FIND_SPLITS),
    ("detect.census_admits_s", "s"),
    ("detect.match_type_s", "s"),
    ("detect.reflection_closure_s", "s"),
    ("classify.classify_theta_self_s", "s"),
    ("output.serialize_s", "s"),
    ("output.bytes", "bytes"),
    ("cli.self_s", "s"),
    ("cli.pool_efficiency", "ratio"),
    ("trace.untraced_pass_s", "s"),
    ("trace.traced_pass_s", "s"),
    ("trace.overhead", "ratio"),
    ("trace.spans", "count"),
)


def quantile(values, p: float) -> float:
    """Harrell-Davis estimate of the p-quantile, 0 < p < 1.

    A weighted mean of the order statistics, with Beta(p(n+1), (1-p)(n+1))
    weights (taken at the midpoint of each 1/n interval), so that a sparse
    tail does not make the estimate jump from one sample to the next.
    """
    ordered = sorted(values)
    n = len(ordered)
    a, b = p * (n + 1), (1 - p) * (n + 1)
    logw = [(a - 1) * log(u) + (b - 1) * log1p(-u)
            for u in ((i + 0.5) / n for i in range(n))]
    top = max(logw)
    weights = [exp(w - top) for w in logw]
    return sum(w * x for w, x in zip(weights, ordered)) / sum(weights)


def peak_rss_mb(jobs: int) -> float:
    """Peak RSS of this process plus, for a pool, jobs times the largest
    worker's.  Shared pages count once per process, so it bounds the
    true peak from above."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    workers = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + (jobs * workers if jobs > 1 else 0)) / 1024


def raw_speed(start: float, end: float) -> float:
    return 1.0


def end_to_end(passes, setups, jobs: int, scale=raw_speed) -> dict:
    """The end-to-end metrics.  Every duration (a set-up, a pass, a query)
    is first multiplied by ``scale(start, end)`` of its own interval;
    ``speed.Probe.scale`` gives times at a fixed machine speed and the
    default the raw wall-clock figures."""
    def scaled(start: float, duration: float) -> float:
        return duration * scale(start, start + duration)

    per_pass = [[scaled(t, d) for t, d in zip(p.starts, p.latencies_s)]
                for p in passes]
    latencies = [x for lat in per_pass for x in lat]
    walls = [scaled(p.started, p.wall_s) for p in passes]

    def verdict_time(found: bool):
        return statistics.median(
            sum(x for x, f in zip(lat, p.found) if f == found)
            for lat, p in zip(per_pass, passes))

    return {
        "setup_s": statistics.median(scaled(s.started, s.wall_s) for s in setups),
        "thetas_per_s": statistics.median(p.thetas / w
                                          for p, w in zip(passes, walls)),
        "queries_per_s": statistics.median(len(p.latencies_s) / w
                                           for p, w in zip(passes, walls)),
        "query_p50_ms": 1e3 * quantile(latencies, 0.50),
        "query_p96_ms": 1e3 * quantile(latencies, 0.96),
        "absent_s": verdict_time(False),
        "found_s": verdict_time(True),
        "peak_rss_mb": peak_rss_mb(jobs),
    }


def per_layer(tracer, p, jobs: int) -> dict:
    """Per-layer metrics of one traced pass."""
    incl, own = tracing.totals(tracer.spans)
    tagged, _ = tracing.totals(tracer.spans, by_tag=True)
    main = incl["cli.main"]
    m = {name: tracer.counts[name] for name in COUNTS}
    m.update({
        "projection.project_all_s": own["projection.project_all"],
        "detect.classify_max_rank_s": own["detect.classify_max_rank"],
        "detect.find_subsystem_self_s": own["detect.find_subsystem"],
        **{f"{name}_s": tagged[name] for name in FIND_SPLITS},
        "detect.census_admits_s": own["detect.census_admits"],
        "detect.match_type_s": own["detect.match_type"],
        "detect.reflection_closure_s": own["detect.reflection_closure"],
        "classify.classify_theta_self_s": own["classify.classify_theta"],
        "output.serialize_s": incl["output.detection_doc"] + incl["cli.write_record"],
        "output.bytes": p.out_bytes,
        "cli.self_s": own["cli.main"] + own["cli.one_record"],
        "cli.pool_efficiency": incl["cli.one_record"] / (jobs * main) if main else 0.0,
        "trace.traced_pass_s": p.wall_s,
        "trace.spans": len(tracer.spans),
    })
    return m


def measure(workload, seed: int, seconds: float, trace: bool, reference: dict):
    """Set-up samples, then rounds of passes until the next would not fit,
    all with the speed probe running.  Returns the set-ups, the untraced
    passes, the traced (tracer, pass) pairs, and the probe."""
    ref = reference[workload.key]
    records = tracing.Tracer(full=False)
    passes, traced = [], []
    with speed.Probe() as probe:
        sleep(PROBE_WARMUP_S)
        setups = [workloads.measure_setup(workload.sigma)
                  for _ in range(SETUP_REPEATS + 1)][1:]   # the first warms caches
        start = perf_counter()
        while True:
            pass_seed = f"{seed}:{len(passes)}"
            passes.append(workload.run(random.Random(pass_seed), ref, records))
            if trace:
                tracer = tracing.Tracer()
                p = workload.run(random.Random(pass_seed), ref, tracer)
                traced.append((tracer, p))
            elapsed = perf_counter() - start
            if elapsed * (len(passes) + 1) / len(passes) > seconds:
                break
    return setups, passes, traced, probe


def layer_metrics(workload, setups, passes, traced) -> dict:
    layers = [per_layer(tracer, p, workload.jobs) for tracer, p in traced]
    merged = {}
    for name, _ in PER_LAYER:
        values = [m[name] for m in layers if name in m]
        if name in COUNTS or name in ("output.bytes", "trace.spans"):
            merged[name] = values[0]
        elif values:
            merged[name] = statistics.median(values)
    untraced = statistics.median(p.wall_s for p in passes)
    merged["trace.untraced_pass_s"] = untraced
    merged["trace.overhead"] = merged["trace.traced_pass_s"] / untraced - 1
    merged["setup.import_s"] = statistics.median(s.import_s for s in setups)
    merged["catalog.build_s"] = statistics.median(s.build_s for s in setups)
    return merged


def write_spans(name: str, seed: int, traced) -> Path:
    out = HERE.parent / ".perfbench-out" / f"spans-{name}-seed{seed}.json"
    out.parent.mkdir(exist_ok=True)
    with open(out, "w", encoding="utf-8") as f:
        json.dump({"fields": ["name", "tag", "start", "end", "parent", "proc"],
                   "passes": [tracer.spans for tracer, _ in traced]}, f)
    return out


def main(argv=None, workload_table=WORKLOADS, reference=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workload_table))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if reference is None:
        reference = json.loads((HERE / "reference.json").read_text(encoding="utf-8"))

    print("machine", json.dumps(workloads.machine(), sort_keys=True))
    workload = workload_table[args.workload]
    setups, passes, traced, probe = measure(
        workload, args.seed, args.seconds, bool(args.trace), reference)
    every = passes + [p for _, p in traced]
    attempted = sum(p.attempted for p in every)
    failed = sum(p.failed for p in every)
    for p in every:
        for note in p.notes[:20]:
            print(f"gate: {note}", file=sys.stderr)

    if args.trace:
        metrics = layer_metrics(workload, setups, passes, traced)
        units = dict(PER_LAYER)
        counts = [tracer.counts for tracer, _ in traced]
        if any(c != counts[0] for c in counts):
            print("trace: counters differ between traced passes", file=sys.stderr)
        print("spans", write_spans(args.workload, args.seed, traced))
    else:
        metrics = end_to_end(passes, setups, workload.jobs, probe.scale)
        units = dict(END_TO_END)
        for name, value in end_to_end(passes, setups, workload.jobs).items():
            print(f"raw {name} {value:.6g} {units[name]}")

    print(f"workload {args.workload} seed {args.seed} passes {len(passes)}"
          f" pass_s {[round(p.wall_s, 3) for p in passes]}"
          f" queries {sum(len(p.latencies_s) for p in passes)}")
    print(f"speed probe samples {len(probe.samples)} scale per pass "
          f"{[round(probe.scale(p.started, p.started + p.wall_s), 4) for p in passes]}")
    for name, value in metrics.items():
        print(f"metric {name} {value:.6g} {units[name]}")
    print(f"metric failed_ratio {failed / attempted:.6g} ratio "
          f"({failed} of {attempted})")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
