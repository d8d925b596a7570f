"""Command-line surface.

Subcommands: project, detect, enumerate, verify-paper.  Exit codes are 0
on success or table match, 1 on verification mismatch, 2 on usage errors
and on bad outside input such as an --out path that cannot be opened.
"""

from __future__ import annotations

import argparse
import csv as csv_mod
import json
import os
import sys
from contextlib import closing, nullcontext
from typing import Iterator, List, Optional

from . import output
from .catalog import TypeLabel, build, parse_label, parse_target
from .classify import classify_theta, proper_subsets, verify_paper
from .detect import find_subsystem
from .projection import project_all

EXIT_OK = 0
EXIT_MISMATCH = 1
EXIT_USAGE = 2

# enumerate refuses more proper theta subsets than this (rank above 12)
# unless --force is given
MAX_ENUMERATE_THETAS = 2 ** 12 - 2

# project, detect and enumerate refuse a system of higher rank before
# building its roots; a rank-40 system builds and projects in seconds
MAX_RANK = 40


def _parse_theta(text: str) -> tuple:
    try:
        return tuple(int(x) for x in text.split(","))
    except ValueError:
        raise ValueError(f"bad theta {text!r}: expected comma-separated indices")


def _parse_sigma(text: str):
    label = parse_label(text)
    if label.rank > MAX_RANK:
        raise ValueError(f"{label} has rank {label.rank}; the highest rank "
                         f"supported is {MAX_RANK}")
    return label


def _output(path: Optional[str]):
    """The file named by --out, closed on exit, or stdout when none."""
    return open(path, "w", encoding="utf-8") if path \
        else nullcontext(sys.stdout)


def cmd_project(args) -> int:
    sys_ = build(_parse_sigma(args.sigma))
    pr = project_all(sys_, _parse_theta(args.theta))
    with _output(args.out) as out:
        if args.format == "json":
            json.dump(output.projection_doc(pr), out, sort_keys=True)
            out.write("\n")
        elif args.format == "csv":
            csv_mod.writer(out).writerows(output.projection_csv_rows(pr))
        else:
            out.write("\n".join(output.projection_text(pr)) + "\n")
    return EXIT_OK


def cmd_detect(args) -> int:
    sys_ = build(_parse_sigma(args.sigma))
    # a bad theta is reported before a bad target
    pr = project_all(sys_, _parse_theta(args.theta))
    report = find_subsystem(pr, parse_target(args.target),
                            restrict_to_delta_theta=args.restricted)
    doc = output.detection_doc(pr, [report])
    with _output(args.out) as out:
        if args.format == "csv":
            csv_mod.writer(out).writerow(output.CSV_COLUMNS)
        _write_record(out, doc, args.format)
    return EXIT_OK


def _one_record(task):
    sigma_name, theta = task
    return classify_theta(build(parse_label(sigma_name)), theta)


def _documents(label: TypeLabel, jobs: int) -> Iterator[dict]:
    """The enumerate document of every proper theta of label, in order,
    classified here or, with jobs above 1, in a process pool."""
    tasks = ((str(label), t) for t in proper_subsets(label.rank))
    # the pool forks all its workers when it starts: no more than the CPUs
    # this process may run on (its affinity mask, where the OS has one)
    workers = min(jobs, len(os.sched_getaffinity(0))
                  if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1)
    if workers < 2:
        yield from map(_one_record, tasks)
        return
    # imported here so that serial commands do not load multiprocessing
    from multiprocessing import Pool
    # closing the generator leaves the block, which terminates the
    # workers, so a failed write does not wait for the theta they hold
    with Pool(workers) as pool:
        yield from pool.imap(_one_record, tasks, chunksize=4)


def cmd_enumerate(args) -> int:
    if args.jobs < 1:
        raise ValueError(f"--jobs must be at least 1, got {args.jobs}")
    label = _parse_sigma(args.sigma)
    count = 2 ** label.rank - 2
    if count > MAX_ENUMERATE_THETAS and not args.force:
        raise ValueError(
            f"{label} has {count} proper theta subsets, more than "
            f"{MAX_ENUMERATE_THETAS}; pass --force to enumerate them anyway")
    with _output(args.out) as out, \
            closing(_documents(label, args.jobs)) as docs:
        if args.format == "csv":
            csv_mod.writer(out).writerow(output.CSV_COLUMNS)
        for doc in docs:
            _write_record(out, doc, args.format)
    return EXIT_OK


def _write_record(out, doc: dict, fmt: str) -> None:
    if fmt == "json":
        out.write(json.dumps(doc, sort_keys=True) + "\n")
    elif fmt == "csv":
        csv_mod.writer(out).writerows(output.csv_rows(doc))
    else:
        out.write("\n".join(output.detection_text(doc)) + "\n")
    out.flush()


def cmd_verify_paper(args) -> int:
    label = parse_label(args.sigma)
    if args.format == "csv":
        raise ValueError("verify-paper writes text or json, not csv")
    # verify_paper refuses a system with no tables before any document
    report = verify_paper(label, _documents(label, 1))
    with _output(args.out) as out:
        if args.format == "json":
            json.dump(output.verification_doc(report), out, sort_keys=True)
            out.write("\n")
        else:
            out.write("\n".join(output.verification_text(report)) + "\n")
    return EXIT_OK if report.ok else EXIT_MISMATCH


def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rootproj",
        description="Exact projections of root systems orthogonal to subsets "
                    "of simple roots, with subsystem detection.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, theta=True, target=False):
        p.add_argument("--sigma", required=True,
                       help=f"system label, e.g. E8 or A5; rank at most {MAX_RANK}")
        if theta:
            p.add_argument("--theta", required=True,
                           help="comma-separated simple-root indices, e.g. 2,3,4,5")
        if target:
            p.add_argument("--target", required=True,
                           help="target label, e.g. F4 or G2xA1")
        p.add_argument("--format", choices=["text", "json", "csv"], default="text")
        p.add_argument("--out", default=None, help="write output to this file")

    p = sub.add_parser("project", help="project all roots orthogonally to theta")
    common(p)
    p.set_defaults(func=cmd_project)

    p = sub.add_parser("detect", help="search for one target system in the projection")
    common(p, target=True)
    p.add_argument("--restricted", action="store_true",
                   help="basis must consist of projections of simple roots")
    p.set_defaults(func=cmd_detect)

    p = sub.add_parser("enumerate", help="classify every proper theta, one record per line")
    common(p, theta=False)
    p.add_argument("--jobs", type=int, default=1,
                   help="parallel workers, at most the CPU count")
    p.add_argument("--force", action="store_true",
                   help=f"enumerate even more than {MAX_ENUMERATE_THETAS} "
                        "theta subsets (rank above 12)")
    p.set_defaults(func=cmd_enumerate)

    p = sub.add_parser("verify-paper",
                       help="compare findings against the bundled reference tables")
    common(p, theta=False)
    p.set_defaults(func=cmd_verify_paper)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = make_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        # OSError: e.g. --out into a missing directory, which is bad
        # outside input, never a verification mismatch
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
