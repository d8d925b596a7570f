"""The benchmark's workloads: one pass each, its correctness gate, and set-up.

A pass is the unit that is timed: one whole ``enumerate`` command, or one
sweep of every detect query in a seeded order.  Every pass is checked
against ``reference.json`` after its clock stops.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import random
import subprocess
import sys
from dataclasses import dataclass, field
from itertools import combinations
from pathlib import Path
from time import perf_counter
from typing import List, NamedTuple, Tuple

from rootproj import catalog, cli, detect, projection

import tracing

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


@dataclass
class Pass:
    """What one timed pass did and how the gate judged it."""

    started: float                # perf_counter at the start of the pass
    wall_s: float
    thetas: int
    starts: List[float]           # perf_counter at the start of each query
    latencies_s: List[float]      # one per query, in submission order
    found: List[bool]             # verdict of each query
    attempted: int
    failed: int
    out_bytes: int = 0
    notes: List[str] = field(default_factory=list)


def digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


# ---------------------------------------------------------------------------
# enumerate


@dataclass(frozen=True)
class Enumerate:
    """``rootproj enumerate --sigma S --format json [--jobs n]``, in-process.

    A query is one theta record.  Its latency is the time the record took
    in whichever process classified it (``cli._one_record``), and it
    counts as found when any of its reports is found.
    """

    sigma: str
    jobs: int = 1

    @property
    def key(self) -> str:
        """Entry of reference.json: serial and pooled output must agree."""
        return f"enumerate {self.sigma}"

    def argv(self) -> List[str]:
        argv = ["enumerate", "--sigma", self.sigma, "--format", "json"]
        return argv + (["--jobs", str(self.jobs)] if self.jobs > 1 else [])

    def run(self, rng: random.Random, reference: dict,
            tracer: tracing.Tracer) -> Pass:
        # the input is every proper theta in a fixed order, so rng is unused
        sink = io.StringIO()
        start = len(tracer.spans)
        with tracer, contextlib.redirect_stdout(sink):
            t0 = perf_counter()
            try:
                code = tracer.call("cli.main", cli.main, self.argv())
            except Exception as exc:  # counted as every record failing
                code = repr(exc)
            wall = perf_counter() - t0
        text = sink.getvalue()
        lines = text.splitlines()
        records = [s for s in tracer.spans[start:] if s[0] == "cli.one_record"]
        failed, notes = self.gate(text, lines, code, reference)
        return Pass(t0, wall, len(lines), [s[2] for s in records],
                    [s[3] - s[2] for s in records],
                    [_any_found(line) for line in lines],
                    attempted=len(reference["records"]), failed=failed,
                    out_bytes=len(text.encode("utf-8")), notes=notes)

    def gate(self, text: str, lines: List[str], code,
             reference: dict) -> Tuple[int, List[str]]:
        """Records that differ from the reference, by per-line digest."""
        want = reference["records"]
        if code != 0:
            return len(want), [f"enumerate ended with {code}"]
        differ = [i for i, (line, w) in enumerate(zip(lines, want))
                  if digest(line)[:len(w)] != w]
        failed = min(len(want), len(differ) + abs(len(lines) - len(want)))
        if failed:
            return failed, [f"{len(differ)} records differ from the reference "
                            f"(first at line {differ[:1]}), {len(lines)} lines "
                            f"for {len(want)} records"]
        if digest(text) != reference["sha256"]:
            return 1, ["output digest differs from the reference"]
        return 0, []


def _any_found(line: str) -> bool:
    try:
        return any(r["found"] for r in json.loads(line)["reports"])
    except (ValueError, KeyError, TypeError):
        return False


# ---------------------------------------------------------------------------
# detect sweep


def sweep_queries(sigma: str, max_theta: int) -> List[Tuple[tuple, str, bool]]:
    """Every theta with |theta| <= max_theta, every irreducible target of
    rank d, both modes, in a fixed canonical order."""
    rank = catalog.parse_label(sigma).rank
    out = []
    for size in range(1, max_theta + 1):
        for theta in combinations(range(1, rank + 1), size):
            for target in catalog.detection_targets(rank - size):
                for restricted in (False, True):
                    out.append((theta, str(target), restricted))
    return out


def query_key(theta, target: str, restricted: bool) -> str:
    mode = "restricted" if restricted else "unrestricted"
    return f"{','.join(map(str, theta))};{target};{mode}"


@dataclass(frozen=True)
class Sweep:
    """Single ``find_subsystem`` queries, one client, closed loop.

    Each pass projects every theta once, then submits the queries one at
    a time in an order drawn from the seed.  Projecting includes building
    the projection's search pool (``pr.pool()``, computed lazily and
    cached on it), so that a query's latency does not depend on whether
    it happens to be the first one asked of its theta.  A fresh pass
    starts with fresh projections and empty caches.
    """

    sigma: str
    max_theta: int
    jobs = 1

    @property
    def key(self) -> str:
        return f"sweep {self.sigma} theta<={self.max_theta}"

    def run(self, rng: random.Random, reference: dict,
            tracer: tracing.Tracer) -> Pass:
        system = catalog.build(catalog.parse_label(self.sigma))
        queries = sweep_queries(self.sigma, self.max_theta)
        rng.shuffle(queries)
        targets = {t: catalog.parse_target(t) for _, t, _ in queries}
        thetas = sorted({q[0] for q in queries})
        starts, latencies, reports, errors = [], [], [], []
        with tracer:
            t0 = perf_counter()
            prs = {theta: projection.project_all(system, theta) for theta in thetas}
            for pr in prs.values():
                pr.pool()
            for theta, target, restricted in queries:
                q0 = perf_counter()
                try:
                    rep = detect.find_subsystem(prs[theta], targets[target],
                                                restrict_to_delta_theta=restricted)
                except Exception as exc:  # counted as a failed query
                    rep = None
                    errors.append(f"{query_key(theta, target, restricted)}: {exc!r}")
                starts.append(q0)
                latencies.append(perf_counter() - q0)
                reports.append(rep)
            wall = perf_counter() - t0
        failed, notes = self.gate(queries, reports, prs, reference)
        return Pass(t0, wall, len(thetas), starts, latencies,
                    [bool(r and r.found) for r in reports],
                    attempted=len(queries), failed=failed, notes=errors + notes)

    def gate(self, queries, reports, prs, reference) -> Tuple[int, List[str]]:
        """Verdict and closure size per query, and every certificate
        re-validated from scratch against its projection."""
        want = reference["queries"]
        failed, notes = abs(len(want) - len(queries)), []
        if failed:
            notes.append(f"reference has {len(want)} queries, sweep {len(queries)}")
        for (theta, target, restricted), rep in zip(queries, reports):
            key = query_key(theta, target, restricted)
            if rep is None:
                failed += 1
                continue
            size = rep.certificate.size if rep.certificate else 0
            ok = want.get(key) == [rep.found, size]
            if ok and rep.found:
                ok = detect.revalidate(rep.certificate,
                                       prs[theta].sigma_theta_set)
            if not ok:
                failed += 1
                notes.append(f"{key}: got {[rep.found, size]}, "
                             f"reference {want.get(key)}")
        return min(failed, len(queries)), notes


# ---------------------------------------------------------------------------
# set-up

SETUP_CHILD = """\
import sys, time
t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
from rootproj import catalog
t1 = time.perf_counter()
catalog.build(catalog.parse_label(sys.argv[2]))
t2 = time.perf_counter()
print(t1 - t0, t2 - t1, flush=True)
sys.stdin.read()
"""


class Setup(NamedTuple):
    started: float    # perf_counter when the interpreter was spawned
    wall_s: float     # spawn to ready, seen from the benchmark
    import_s: float   # ``import rootproj``, inside the child
    build_s: float    # ``catalog.build``, inside the child


def measure_setup(sigma: str) -> Setup:
    """A fresh interpreter through ``import rootproj`` and the catalog
    build of sigma.

    The child reports once it is ready and then waits to be released, so
    its exit is not timed.
    """
    t0 = perf_counter()
    with subprocess.Popen([sys.executable, "-c", SETUP_CHILD, str(SRC), sigma],
                          stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                          text=True) as child:
        line = child.stdout.readline()
        wall = perf_counter() - t0
        child.stdin.close()
        child.wait()
    if child.returncode != 0 or not line:
        raise RuntimeError(f"set-up child exited {child.returncode}")
    import_s, build_s = (float(x) for x in line.split())
    return Setup(t0, wall, import_s, build_s)


def machine() -> dict:
    """What the numbers were measured on."""
    model = None
    with contextlib.suppress(OSError):
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            model = next((line.split(":", 1)[1].strip() for line in f
                          if line.startswith("model name")), None)
    commit = None
    with contextlib.suppress(OSError, subprocess.CalledProcessError):
        if (ROOT / ".git").exists():
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                    capture_output=True, text=True,
                                    check=True).stdout.strip() or None
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": model,
        "python": sys.version.split()[0],
        "commit": commit,
        "loadavg_at_start": os.getloadavg(),
    }
