"""Regenerate reference.json, the outputs every benchmark pass is checked
against.

    python3 perfbench/make_reference.py

Run it only at a commit whose output is known to be right: the gate
compares later commits with what this writes.  Enumerate output is
recorded as the sha256 of the whole stream plus a 16-hex-digit digest of
each record line; the sweep as (found, closure size) per query, in the
canonical query order.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from rootproj import catalog, cli, detect, projection  # noqa: E402

from workloads import Enumerate, Sweep, digest, query_key, sweep_queries  # noqa: E402

# F4 entries serve the self-test.
ENUMERATE = ("F4", "E7", "E8")
SWEEPS = (("F4", 2), ("E7", 2))


def enumerate_reference(sigma: str) -> dict:
    sink = io.StringIO()
    with contextlib.redirect_stdout(sink):
        code = cli.main(Enumerate(sigma).argv())
    if code != 0:
        raise SystemExit(f"enumerate {sigma} exited {code}")
    text = sink.getvalue()
    return {"sha256": digest(text),
            "records": [digest(line)[:16] for line in text.splitlines()]}


def sweep_reference(sigma: str, max_theta: int) -> dict:
    system = catalog.build(catalog.parse_label(sigma))
    prs, queries = {}, {}
    for theta, target, restricted in sweep_queries(sigma, max_theta):
        if theta not in prs:
            prs[theta] = projection.project_all(system, theta)
        rep = detect.find_subsystem(prs[theta], catalog.parse_target(target),
                                    restrict_to_delta_theta=restricted)
        size = rep.certificate.size if rep.certificate else 0
        queries[query_key(theta, target, restricted)] = [rep.found, size]
    return {"queries": queries}


def main() -> None:
    ref = {}
    for sigma in ENUMERATE:
        ref[Enumerate(sigma).key] = enumerate_reference(sigma)
        print(f"enumerate {sigma}: {ref[Enumerate(sigma).key]['sha256']}",
              flush=True)
    for sigma, max_theta in SWEEPS:
        ref[Sweep(sigma, max_theta).key] = sweep_reference(sigma, max_theta)
        print(f"sweep {sigma}: {len(ref[Sweep(sigma, max_theta).key]['queries'])}"
              " queries", flush=True)
    with open(HERE / "reference.json", "w", encoding="utf-8") as f:
        json.dump(ref, f, indent=1, sort_keys=True)
        f.write("\n")


if __name__ == "__main__":
    main()
