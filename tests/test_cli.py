import copy
import csv
import hashlib
import io
import json
import multiprocessing
import os
import subprocess
import sys
import time
from collections import Counter
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from functools import lru_cache
from itertools import combinations
from math import lcm
from pathlib import Path

import pytest

from oracles import (build_from_name, certificate_of, invert, planche_roots,
                     reflect, shape_match_type)
from rootproj import cli, output
from rootproj.catalog import TypeLabel, parse_label, parse_target
from rootproj.classify import verify_paper
from rootproj.cli import main
from rootproj.detect import DetectionReport, find_subsystem, revalidate
from rootproj.linalg import dot, gram, neg
from rootproj.projection import project_all


# child interpreters import the package the tests import, installed or
# found through pytest's pythonpath
CHILD_ENV = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [
    str(Path(cli.__file__).resolve().parents[1]),
    os.environ.get("PYTHONPATH")])))


def run_cli(*args):
    proc = subprocess.run([sys.executable, "-m", "rootproj", *args],
                          capture_output=True, text=True, env=CHILD_ENV)
    return proc.returncode, proc.stdout, proc.stderr


@pytest.fixture(scope="module")
def pinned_run(enumerated):
    """(exit code, stdout, stderr) of main(command.split()), run in process
    once per command and shared by the tests that hash its bytes and
    re-check its documents.  A serial `enumerate --format json` is the
    session's run of its system, and verify-paper reads the documents of
    that run; test_verify_paper_f4_exit_zero runs the command's own
    enumeration."""
    runs = {}

    def run(command):
        argv = command.split()
        if argv[0] == "enumerate" and argv[3:] == ["--format", "json"]:
            return enumerated(argv[2])[:3]
        if command not in runs:
            verify = argv[0] == "verify-paper"
            docs = enumerated(argv[2]).docs if verify else None

            def documents(label, jobs):
                assert (str(label), jobs) == (argv[2], 1)
                return iter(docs)

            with pytest.MonkeyPatch.context() as patch, \
                    redirect_stdout(io.StringIO()) as out, \
                    redirect_stderr(io.StringIO()) as err:
                if verify:
                    patch.setattr(cli, "_documents", documents)
                code = main(argv)
            runs[command] = (code, out.getvalue(), err.getvalue())
        return runs[command]

    return run


def test_project_e8_census_line():
    code, out, _ = run_cli("project", "--sigma", "E8", "--theta", "8")
    assert code == 0
    assert "norm-class 2 count 126" in out


def test_project_a3_lists_six_vectors():
    code, out, _ = run_cli("project", "--sigma", "A3", "--theta", "2")
    assert code == 0
    assert "sigma_theta: 6 vectors" in out


def test_project_improper_theta_usage_error():
    code, _, err = run_cli("project", "--sigma", "A3", "--theta", "1,2,3")
    assert code == 2
    assert "proper" in err


def test_detect_found_and_json_schema(tmp_path):
    code, out, _ = run_cli("detect", "--sigma", "E8", "--theta", "2,5,7",
                           "--target", "F4xA1", "--restricted",
                           "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["schema"] == "rootproj/1"
    assert doc["sigma"] == "E8"
    assert doc["theta"] == [2, 5, 7]
    assert doc["d"] == 5
    rep = doc["reports"][0]
    assert rep["found"] is True and rep["restricted"] is True
    assert rep["closure_size"] == 50
    assert all(isinstance(x, str) for v in rep["basis"] for x in v)


def test_detect_unrestricted_vs_restricted():
    code, out, _ = run_cli("detect", "--sigma", "E8", "--theta", "8",
                           "--target", "E7")
    assert code == 0 and "found" in out
    code, out, _ = run_cli("detect", "--sigma", "E8", "--theta", "8",
                           "--target", "E7", "--restricted")
    assert code == 0 and "not-found" in out


def test_detect_rank_mismatch_usage_error():
    code, _, err = run_cli("detect", "--sigma", "F4", "--theta", "1,2",
                           "--target", "F4")
    assert code == 2
    assert "rank" in err


def test_detect_rank_mismatch_message(capsys):
    # one check, in find_subsystem, words it for the command line
    assert main(["detect", "--sigma", "E8", "--theta", "2,3,4,5",
                 "--target", "G2"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: target rank 2 does not match d=4\n"


def test_detect_bad_label_usage_error():
    code, _, _ = run_cli("detect", "--sigma", "Q3", "--theta", "1",
                         "--target", "A1")
    assert code == 2


def test_verify_paper_f4_exit_zero(pinned_run):
    # the command's own enumeration gives the pinned verdict, which the
    # pinned run reaches from the session's enumerate documents
    code, out, _ = run_cli("verify-paper", "--sigma", "F4")
    assert code == 0
    assert "PASS" in out
    assert out == pinned_run("verify-paper --sigma F4 --format text")[1]


def test_verify_paper_classical_usage_error():
    code, _, _ = run_cli("verify-paper", "--sigma", "A5")
    assert code == 2


def test_verify_paper_refuses_csv(monkeypatch, capsys):
    def no_work(*args, **kwargs):
        raise AssertionError("verification started")

    monkeypatch.setattr(cli, "verify_paper", no_work)
    for sigma in ("F4", "E8"):
        assert main(["verify-paper", "--sigma", sigma, "--format", "csv"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: verify-paper writes text or json, not csv\n"


def test_verify_paper_reads_a_saved_enumerate_file(tmp_path, pinned_run):
    # the library check takes the parsed lines of a saved enumerate file
    # and reaches the verdict the command prints from its own enumeration
    saved = tmp_path / "f4.jsonl"
    saved.write_text(pinned_run("enumerate --sigma F4 --format json")[1],
                     encoding="utf-8")
    with open(saved, encoding="utf-8") as lines:
        report = verify_paper(parse_label("F4"), map(json.loads, lines))
    assert report.records_checked == 14
    code, out, _ = pinned_run("verify-paper --sigma F4 --format text")
    assert (code, out) == (0, "\n".join(output.verification_text(report))
                           + "\n")


def test_verify_paper_reports_a_disagreement(monkeypatch, enumerated):
    # no bundled system reaches the missing or negative-violated lines,
    # so edit a copy of E7's documents: drop the listed F4 on
    # theta=(2,5,7) and claim the G2xA1 that the product table rules out
    # on (2,4,6,7)
    docs = copy.deepcopy(enumerated("E7").docs)
    for doc in docs:
        for rep in doc["reports"]:
            if (doc["theta"], rep["target"]) == ([2, 5, 7], "F4"):
                rep["found"] = rep["basis_from_delta_theta"] = False
            if (doc["theta"], rep["target"]) == ([2, 4, 6, 7], "G2xA1"):
                rep["found"] = True
    monkeypatch.setattr(cli, "_documents", lambda label, jobs: iter(docs))
    runs = {}
    for fmt in ("text", "json"):
        with redirect_stdout(io.StringIO()) as out:
            code = main(["verify-paper", "--sigma", "E7", "--format", fmt])
        runs[fmt] = (code, out.getvalue())
    missing = "    missing: theta=2,5,7 target=F4 (expected found, " \
              "detector disagrees)"
    assert runs["text"] == (1, "\n".join([
        "verify E7: 126 theta subsets checked",
        "  [irreducible] MISMATCH", missing,
        "  [irreducible-restricted] MISMATCH", missing,
        "  [product-restricted] MISMATCH",
        "    unexpected: theta=2,4,6,7 target=G2xA1 (detector found, "
        "table omits)",
        "  negative violated [product-restricted]: theta=2,4,6,7 "
        "target=G2xA1",
        "result: FAIL"]) + "\n")
    code, text = runs["json"]
    doc = json.loads(text)
    assert (code, doc["ok"], doc["records_checked"]) == (1, False, 126)
    assert doc["missing"] == {"irreducible": [[[2, 5, 7], "F4"]],
                              "irreducible-restricted": [[[2, 5, 7], "F4"]],
                              "product-restricted": []}
    assert doc["unexpected"] == {
        "irreducible": [], "irreducible-restricted": [],
        "product-restricted": [[[2, 4, 6, 7], "G2xA1"]]}


def test_enumerate_g2_stream(tmp_path):
    out_file = tmp_path / "g2.jsonl"
    code, _, _ = run_cli("enumerate", "--sigma", "G2", "--format", "json",
                         "--out", str(out_file))
    assert code == 0
    lines = out_file.read_text().strip().splitlines()
    assert len(lines) == 2
    docs = [json.loads(l) for l in lines]
    assert [d["theta"] for d in docs] == [[1], [2]]
    assert all(d["schema"] == "rootproj/1" for d in docs)


def test_enumerate_parallel_matches_serial(tmp_path):
    f1, f2 = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    assert run_cli("enumerate", "--sigma", "B3", "--format", "json",
                   "--out", str(f1))[0] == 0
    assert run_cli("enumerate", "--sigma", "B3", "--format", "json",
                   "--out", str(f2), "--jobs", "2")[0] == 0
    assert f1.read_text() == f2.read_text()


def test_enumerate_csv_columns(tmp_path):
    out_file = tmp_path / "f4.csv"
    code, _, _ = run_cli("enumerate", "--sigma", "F4", "--format", "csv",
                         "--out", str(out_file))
    assert code == 0
    header = out_file.read_text().splitlines()[0]
    assert header.split(",") == output.CSV_COLUMNS


def test_round_trip_detection_doc():
    # the JSON alone is checkable evidence: rebuild the certificate from
    # it with Fraction and parse_label, then revalidate it
    pr = project_all(build_from_name("E6"), (1, 3, 5, 6))
    rep = find_subsystem(pr, parse_target("G2"), restrict_to_delta_theta=True)
    doc = output.detection_doc(pr, [rep])
    data = json.loads(json.dumps(doc))
    assert (data["sigma"], tuple(data["theta"]), data["d"]) == \
        ("E6", (1, 3, 5, 6), 2)
    (report,) = data["reports"]
    cert = certificate_of(report)
    back = DetectionReport(cert.target, report["restricted"],
                           report["basis_from_delta_theta"], cert)
    assert back.found is report["found"]
    assert back == rep
    assert revalidate(back.certificate, pr.sigma_theta_set)


def _reflection_closure(basis, universe, doubled):
    """The orbit of basis under its own reflections, which is the root
    system it generates, with twice its shortest roots when doubled (BC),
    or None once a vector leaves universe."""
    orbit, frontier = set(basis), list(basis)
    if not orbit <= universe:
        return None
    while frontier:
        v = frontier.pop()
        for b in basis:
            w = reflect(v, b)
            if w not in orbit:
                if w not in universe:
                    return None
                orbit.add(w)
                frontier.append(w)
    if doubled:
        short = min(dot(v, v) for v in orbit)
        doubles = {tuple(2 * x for x in v) for v in orbit
                   if dot(v, v) == short}
        if not doubles <= universe:
            return None
        orbit |= doubles
    return orbit


def _recheck_found_report(report, sigma_theta, delta_theta):
    """Problems with one found report, read from its JSON alone."""
    def vec(items):
        return tuple(Fraction(x) for x in items)

    target = parse_target(report["target"])
    components = report["components"]
    labels = sorted((parse_label(w["label"]) for w in components),
                    key=lambda lab: lab.sort_key)
    if tuple(labels) != target.normalized():
        return [f"labels {labels} do not make {target}"]
    problems = []
    bases = [[vec(v) for v in w["basis"]] for w in components]
    if [v for basis in bases for v in basis] != \
            [vec(v) for v in report["basis"]]:
        problems.append("basis is not the components' bases")
    for i, basis in enumerate(bases):
        for other in bases[i + 1:]:
            if any(dot(u, v) for u in basis for v in other):
                problems.append("components are not orthogonal")
    size = 0
    for w, basis in zip(components, bases):
        label = parse_label(w["label"])
        doubled = label.family == "BC"
        # a basis of BC_k is one of B_k, and of BC_1 one of A_1
        shape = TypeLabel("B", label.rank) if doubled else label
        if label.rank == 1:
            shape = TypeLabel("A", 1)
        if shape_match_type(basis) != [(shape, tuple(range(len(basis))))]:
            problems.append(f"{label}: basis is no simple system of it")
            continue
        roots = _reflection_closure(basis, sigma_theta, doubled)
        if roots is None:
            problems.append(f"{label}: closure leaves sigma_theta")
            continue
        if len(roots) != label.root_count or \
                roots != {vec(v) for v in w["roots"]}:
            problems.append(f"{label}: roots differ from the closure")
        pinned = target.is_irreducible or label.is_exceptional
        if report["basis_from_delta_theta"] and pinned and \
                not set(basis) <= delta_theta:
            problems.append(f"{label}: basis is not in delta_theta")
        size += len(roots)
    if size != report["closure_size"]:
        problems.append(f"closure_size {report['closure_size']} != {size}")
    return problems


def _ints(v, den):
    """den times the Fraction vector v, which must make it integral."""
    w = [x * den for x in v]
    assert all(x.denominator == 1 for x in w), (v, den)
    return tuple(int(x) for x in w)


@lru_cache(maxsize=None)
def _int_planche_roots(label):
    """(den, roots): the least den that makes every planche root of label
    integral, and den times one root of each +-pair, as int vectors."""
    roots = planche_roots(label)
    den = lcm(*(x.denominator for r in roots for x in r))
    return den, tuple(_ints(r, den) for r in roots if r > neg(r))


def _scaled_oracle_projection(sys_, theta):
    """(den, sigma_theta, delta_theta) of theta with every vector times
    den, as int vectors.  The oracle's Fraction Gram inverse gives the
    projector I - A^T G^-1 A off the simple roots A of theta, which is
    applied, over one common denominator, to the planche roots as ints:
    the package's projection takes no part."""
    alphas = [sys_.simple_roots[i - 1] for i in theta]
    inverse = invert(gram(alphas))
    k, n = len(alphas), len(alphas[0])
    projector = [[int(j == l) - sum(alphas[i][j] * inverse[i][m] * alphas[m][l]
                                    for i in range(k) for m in range(k))
                  for l in range(n)] for j in range(n)]
    proj_den = lcm(*(x.denominator for row in projector for x in row))
    rows = [_ints(row, proj_den) for row in projector]
    root_den, roots = _int_planche_roots(sys_.label)

    def image(r):
        return tuple(sum(a * b for a, b in zip(row, r)) for row in rows)

    # projection is linear: project one root of each +-pair
    images = {image(r) for r in roots}
    sigma_theta = images | {neg(v) for v in images}
    sigma_theta.discard((0,) * n)
    delta_theta = {image(_ints(a, root_den))
                   for i, a in enumerate(sys_.simple_roots, 1)
                   if i not in theta}
    return root_den * proj_den, sigma_theta, delta_theta


def _oracle_projection(sys_, theta):
    """(sigma_theta, delta_theta) of theta, projected by the Fraction
    oracle from the planche roots, without the package's projection."""
    den, sigma_theta, delta_theta = _scaled_oracle_projection(sys_, theta)

    def frac(v):
        return tuple(Fraction(x, den) for x in v)

    return {frac(v) for v in sigma_theta}, {frac(v) for v in delta_theta}


def _enumerate_documents(name, enumerated):
    """The parsed lines of the pinned `enumerate --format json` run."""
    run = enumerated(name)
    assert (run.code, run.err) == (0, "")
    assert hashlib.sha256(run.text.encode("utf-8")).hexdigest() == \
        PINNED_BYTES[f"enumerate --sigma {name} --format json"]
    return run.docs


@pytest.mark.parametrize("name", ["F4", "E6", "E7", "E8"])
def test_enumerate_json_rechecks_from_its_bytes(name, enumerated):
    # every found report of the pinned enumerate document is evidence on
    # its own: the Fraction oracles project the planche roots, and a
    # reflection closure written here rebuilds each component, BC ones
    # with their doubled roots, without the package's catalog roots or
    # detector
    sys_ = build_from_name(name)
    found = problems = 0
    for doc in _enumerate_documents(name, enumerated):
        reports = [r for r in doc["reports"] if r["found"]]
        if not reports:
            continue
        sigma_theta, delta_theta = _oracle_projection(sys_, doc["theta"])
        assert doc["d"] == len(delta_theta)
        for report in reports:
            found += 1
            for problem in _recheck_found_report(report, sigma_theta,
                                                 delta_theta):
                problems += 1
                print(f"{name} theta={doc['theta']} {report['target']}: "
                      f"{problem}")
            # the check is not vacuous: a report missing a root fails it
            w = report["components"][0]
            cut = dict(report, components=[dict(w, roots=w["roots"][1:])])
            assert _recheck_found_report(cut, sigma_theta, delta_theta)
    assert problems == 0
    assert found == {"F4": 2, "E6": 1, "E7": 4, "E8": 29}[name]


@lru_cache(maxsize=None)
def _root_profile(label):
    """How many roots label has per squared norm over its shortest, read
    off the planche roots."""
    norms = Counter(dot(r, r) for r in planche_roots(label))
    short = min(norms)
    return {norm / short: count for norm, count in norms.items()}


def _bases_exist(factors, sigma_theta, chosen=()):
    """Whether every (label, pool) factor takes a subset of its pool,
    orthogonal to chosen and to the other factors' subsets, that is a
    simple system of the label's reduced type (one diagram component)
    whose closure stays inside sigma_theta, with the doubled short roots
    for BC."""
    if not factors:
        return True
    (label, pool), rest = factors[0], factors[1:]
    free = [v for v in sorted(pool) if all(dot(v, u) == 0 for u in chosen)]
    return any(
        shape_match_type(basis) == [(label.reduced, tuple(range(label.rank)))]
        and _reflection_closure(basis, sigma_theta,
                                label.family == "BC") is not None
        and _bases_exist(rest, sigma_theta, chosen + basis)
        for basis in combinations(free, label.rank))


def _absence_reason(report, sigma_theta, delta_theta, census):
    """Why a report's target cannot occur, read from its JSON and the
    oracle projection alone, or None when neither reason holds.  Each
    reason reads the same on sigma_theta and delta_theta scaled by one
    common factor.

    "census": some component has no base scale at which the census of
    sigma_theta (its vector count per squared norm) holds as many
    vectors at each relative squared norm as the component has roots.
    "delta": the exceptional factors of a restricted product, which take
    their bases from delta_theta, have no disjoint, pairwise orthogonal
    subsets of delta_theta that are simple systems of their types with
    their closures inside sigma_theta.
    "orthogonal": they have, but for none of those choices do the other
    factors, which may sit anywhere in sigma_theta, have such simple
    systems among the vectors of sigma_theta orthogonal to it.
    """
    target = parse_target(report["target"])
    for label in target.normalized():
        profile = _root_profile(label)
        if not any(all(census[base * rel] >= need
                       for rel, need in profile.items()) for base in census):
            return "census"
    if not report["restricted"] or target.is_irreducible:
        return None
    pinned = [(label, delta_theta) for label in target.normalized()
              if label.is_exceptional]
    if pinned and not _bases_exist(pinned, sigma_theta):
        return "delta"
    free = [(label, sigma_theta) for label in target.normalized()
            if not label.is_exceptional]
    if pinned and free and not _bases_exist(pinned + free, sigma_theta):
        return "orthogonal"
    return None


# theta of each restricted product that the "delta" reason decides
DELTA_ABSENCES = {
    "F4": {(1,), (2,)},
    "E6": set(),
    "E7": {(1, 2, 5, 7), (1, 3, 6, 7), (2, 3, 5, 7), (2, 4, 6, 7),
           (3, 4, 6, 7)},
    "E8": {(1,), (2,), (3,), (4,), (5,), (6,), (7,),
           (1, 2, 5), (1, 2, 6), (1, 2, 7), (1, 2, 8), (1, 4, 6), (1, 4, 7),
           (1, 4, 8), (1, 5, 7), (1, 5, 8), (1, 6, 8), (2, 3, 5), (2, 3, 6),
           (2, 3, 7), (2, 3, 8), (2, 5, 8), (2, 6, 8), (3, 5, 7), (3, 5, 8),
           (3, 6, 8), (4, 6, 8),
           (1, 2, 5, 7), (1, 2, 5, 8), (1, 2, 6, 8), (1, 3, 5, 6),
           (1, 3, 6, 7), (1, 3, 7, 8), (1, 4, 6, 8),
           (2, 3, 5, 7), (2, 3, 5, 8), (2, 3, 6, 8), (2, 4, 6, 7),
           (2, 4, 7, 8), (3, 4, 6, 7), (3, 4, 7, 8), (4, 5, 7, 8),
           (1, 2, 3, 5, 6), (1, 2, 3, 5, 8), (1, 2, 3, 6, 7),
           (1, 2, 3, 6, 8), (1, 2, 3, 7, 8), (1, 2, 4, 6, 7),
           (1, 2, 4, 6, 8), (1, 2, 4, 7, 8), (1, 2, 5, 6, 8),
           (1, 2, 5, 7, 8), (1, 3, 4, 5, 6), (1, 3, 5, 7, 8),
           (1, 4, 5, 7, 8), (2, 3, 4, 5, 7), (2, 3, 4, 5, 8),
           (2, 3, 5, 6, 8), (2, 3, 5, 7, 8), (3, 4, 5, 6, 7),
           (4, 5, 6, 7, 8)},
}

# the targets of those reports, each with its report count
DELTA_TARGETS = {
    "F4": {"G2xA1": 2, "G2xBC1": 2},
    "E6": {},
    "E7": {"G2xA1": 5, "G2xBC1": 2},
    "E8": {"F4xA1": 20, "F4xBC1": 20, "G2xA1": 19, "G2xBC1": 19,
           "G2xG2": 15, "A2xG2": 14, "B2xG2": 14, "C2xG2": 14,
           "G2xA1xA1": 14, "E6xA1": 7, "G2xBC2": 7, "G2xA1xBC1": 7,
           "G2xBC1xBC1": 7},
}

# the not-found reports that no reason decides.  E8 theta=(1,3,5,6)
# B2xG2 and C2xG2 were the last: their G2 factor has a basis in
# delta_theta, and "orthogonal" finds no B2 among the 12 vectors of
# sigma_theta orthogonal to it
UNDECIDED = {"F4": set(), "E6": set(), "E7": set(), "E8": set()}


@pytest.mark.parametrize("name", ["F4", "E6", "E7", "E8"])
def test_enumerate_json_absences_recheck_from_its_bytes(name, enumerated):
    # every not-found report of the pinned enumerate document but those
    # of UNDECIDED names a reason that its bytes and the oracle projection
    # prove, without the detector, and neither reason holds for a found
    # report.  The projection is read scaled to ints, which both reasons
    # allow
    sys_ = build_from_name(name)
    reasons, delta_targets = Counter(), Counter()
    delta_thetas, undecided, problems = set(), set(), []
    for doc in _enumerate_documents(name, enumerated):
        if not doc["reports"]:
            continue
        _, sigma_theta, delta_theta = _scaled_oracle_projection(
            sys_, doc["theta"])
        census = Counter(dot(v, v) for v in sigma_theta)
        for report in doc["reports"]:
            reason = _absence_reason(report, sigma_theta, delta_theta, census)
            row = (tuple(doc["theta"]), report["target"])
            if report["found"] and reason is not None:
                problems.append(f"{row} is found, yet {reason} holds")
            elif reason is None and not report["found"]:
                undecided.add(row)
            reasons[reason] += 1
            if reason == "delta":
                delta_targets[report["target"]] += 1
                delta_thetas.add(row[0])
    assert problems == []
    assert undecided == UNDECIDED[name]
    assert reasons == Counter({
        None: {"F4": 2, "E6": 1, "E7": 4, "E8": 29}[name],
        "census": {"F4": 8, "E6": 309, "E7": 1214, "E8": 4270}[name],
        "delta": {"F4": 4, "E6": 0, "E7": 7, "E8": 177}[name],
        "orthogonal": {"F4": 0, "E6": 0, "E7": 0, "E8": 2}[name]})
    assert delta_targets == Counter(DELTA_TARGETS[name])
    assert delta_thetas == DELTA_ABSENCES[name]


def test_main_direct_exit_codes():
    assert main(["project", "--sigma", "A3", "--theta", "2"]) == 0
    assert main(["project", "--sigma", "A3", "--theta", "7"]) == 2


def test_byte_determinism(tmp_path):
    runs = []
    for i in range(2):
        f = tmp_path / f"run{i}.jsonl"
        run_cli("enumerate", "--sigma", "B4", "--format", "json", "--out", str(f))
        runs.append(f.read_bytes())
    assert runs[0] == runs[1]


def test_detect_text_and_csv_lines(capsys):
    # both formats are rendered from the JSON document's report dicts
    argv = ["detect", "--sigma", "F4", "--theta", "1,2", "--target", "G2",
            "--restricted"]
    assert main(argv) == 0
    assert capsys.readouterr().out.splitlines() == [
        "sigma=F4 theta=1,2 d=2",
        "  target G2: found (restricted) closure_size=12 "
        "basis_from_delta_theta=true",
        "    basis (0, 1/3, 1/3, 1/3)",
        "    basis (1/2, -1/2, -1/2, -1/2)",
    ]
    assert main(argv + ["--format", "csv"]) == 0
    assert capsys.readouterr().out == (
        "sigma,theta,d,target,restricted,found,basis_from_delta_theta,"
        "closure_size,basis\r\n"
        'F4,"1,2",2,G2,true,true,true,12,'
        '"(0,1/3,1/3,1/3) (1/2,-1/2,-1/2,-1/2)"\r\n')


def test_out_into_missing_directory_is_usage_error(tmp_path, capsys):
    missing = tmp_path / "no-such-dir" / "out.txt"
    for argv in (["project", "--sigma", "A3", "--theta", "2"],
                 ["enumerate", "--sigma", "G2"]):
        assert main(argv + ["--out", str(missing)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert str(missing) in err


def test_enumerate_rejects_jobs_below_one(monkeypatch, capsys):
    def no_work(*args, **kwargs):
        raise AssertionError("work started")

    monkeypatch.setattr(multiprocessing, "Pool", no_work)
    monkeypatch.setattr(cli, "_one_record", no_work)
    for jobs in ("0", "-1"):
        assert main(["enumerate", "--sigma", "G2", "--jobs", jobs]) == 2
        assert "--jobs" in capsys.readouterr().err


def test_enumerate_jobs_are_bounded_by_the_cpu_count(monkeypatch, capsys):
    # the pool forks every worker it is given when it starts, so
    # --jobs asks for no more than the CPUs this process may use; this
    # fake starts none
    started = []

    class SerialPool:
        def __init__(self, processes):
            started.append(processes)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def imap(self, fn, tasks, chunksize=1):
            return map(fn, tasks)

    argv = ["enumerate", "--sigma", "B3", "--format", "json"]
    assert main(argv) == 0
    serial = capsys.readouterr().out
    monkeypatch.setattr(multiprocessing, "Pool", SerialPool)
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1},
                        raising=False)
    for jobs in ("2", "100000"):
        assert main(argv + ["--jobs", jobs]) == 0
        assert capsys.readouterr().out == serial
    assert started == [2, 2]
    # two CPUs of which this process may use one (`taskset -c 0`) take
    # the serial path
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0},
                        raising=False)
    assert main(argv + ["--jobs", "2"]) == 0
    assert capsys.readouterr().out == serial
    assert started == [2, 2]
    # without an affinity mask the host's count bounds the pool, and one
    # CPU (or an unknown count) takes the serial path
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    for count in (2, 1, None):
        monkeypatch.setattr(os, "cpu_count", lambda: count)
        assert main(argv + ["--jobs", "4"]) == 0
        assert capsys.readouterr().out == serial
    assert started == [2, 2, 2]


# seconds that each theta takes in the workers of the test below
SLOW_RECORD_S = 0.25


def _slow_record(task):
    time.sleep(SLOW_RECORD_S)
    return {}


def test_enumerate_jobs_stop_workers_when_output_fails(monkeypatch, capsys):
    # stdout closes after the first record (`| head -1`): the workers stop
    # with the chunks they hold, and the error is one line.  The first
    # record comes after one chunk of 4 theta; waiting for the chunks
    # queued behind it would take at least one chunk more.
    def closed_pipe(out, doc, fmt):
        raise BrokenPipeError(32, "Broken pipe")

    monkeypatch.setattr(cli, "_one_record", _slow_record)
    monkeypatch.setattr(cli, "_write_record", closed_pipe)
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1},
                        raising=False)
    start = time.perf_counter()
    assert main(["enumerate", "--sigma", "F4", "--jobs", "2"]) == 2
    elapsed = time.perf_counter() - start
    assert capsys.readouterr().err == "error: [Errno 32] Broken pipe\n"
    assert elapsed < 6 * SLOW_RECORD_S, elapsed


def test_enumerate_refuses_an_oversized_system(monkeypatch, capsys):
    # A40 has 2^40 - 2 proper theta: refused from the rank alone, before
    # any subset is listed or classified
    def no_work(*args, **kwargs):
        raise AssertionError("work started")

    monkeypatch.setattr(cli, "classify_theta", no_work)
    monkeypatch.setattr(cli, "proper_subsets", no_work)
    assert main(["enumerate", "--sigma", "A40"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "--force" in err and str(2 ** 40 - 2) in err


def test_oversized_rank_is_refused_before_build(monkeypatch, capsys):
    # a rank of more digits than int() converts is a label that does not
    # parse, not advice to raise the interpreter's limit
    nines = "A" + "9" * 5000
    for argv in (["project", "--sigma", nines, "--theta", "1"],
                 ["detect", "--sigma", "A2", "--theta", "1",
                  "--target", nines]):
        assert main(argv) == 2, argv[0]
        err = capsys.readouterr().err
        assert err.startswith("error: cannot parse type label") \
            and err.count("\n") == 1, argv[0]

    # building the roots of A99999999 would not end: refused from the label
    def no_build(*args):
        raise AssertionError("build started")

    monkeypatch.setattr(cli, "build", no_build)
    for argv in (["project", "--sigma", "A99999999", "--theta", "1"],
                 ["detect", "--sigma", "A99999999", "--theta", "1",
                  "--target", "A1"],
                 ["enumerate", "--sigma", "A99999999", "--force"],
                 ["project", "--sigma", f"D{cli.MAX_RANK + 1}", "--theta", "1"]):
        assert main(argv) == 2, argv
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1, argv
        assert f"the highest rank supported is {cli.MAX_RANK}" in err, argv
    with pytest.raises(SystemExit):
        main(["project", "--help"])
    assert f"rank at most {cli.MAX_RANK}" in capsys.readouterr().out


def test_enumerate_force_lifts_the_limit(monkeypatch, capsys):
    monkeypatch.setattr(cli, "MAX_ENUMERATE_THETAS", 1)
    assert main(["enumerate", "--sigma", "A2", "--format", "json"]) == 2
    assert "--force" in capsys.readouterr().err
    assert main(["enumerate", "--sigma", "A2", "--format", "json",
                 "--force"]) == 0
    assert capsys.readouterr().out.count("\n") == 2


def test_serial_enumerate_does_not_load_multiprocessing():
    code = ("import sys; from rootproj.cli import main; "
            "main(['enumerate', '--sigma', 'G2', '--format', 'json']); "
            "sys.exit('multiprocessing' in sys.modules)")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=CHILD_ENV)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.count("\n") == 2


def test_python_m_rootproj_runs_the_cli(capsys):
    # a checkout runs the commands as ``python -m rootproj``, also with
    # an enumerate worker pool, whose workers may re-import the main
    # module: the same bytes as cli.main and as the pinned digest
    def run(*args):
        proc = subprocess.run([sys.executable, "-m", "rootproj", *args],
                              capture_output=True, env=CHILD_ENV)
        assert (proc.returncode, proc.stderr) == (0, b""), proc.stderr
        return proc.stdout

    out = run("project", "--sigma", "A3", "--theta", "2")
    assert main(["project", "--sigma", "A3", "--theta", "2"]) == 0
    assert out == capsys.readouterr().out.encode("utf-8")
    out = run("enumerate", "--sigma", "F4", "--format", "json", "--jobs", "2")
    assert hashlib.sha256(out).hexdigest() \
        == PINNED_BYTES["enumerate --sigma F4 --format json"]


def test_public_names_resolve():
    # a stale entry in __all__ breaks ``from rootproj import *``
    import rootproj

    missing = [name for name in rootproj.__all__ if not hasattr(rootproj, name)]
    assert not missing
    namespace = {}
    exec("from rootproj import *", namespace)
    assert set(rootproj.__all__) <= set(namespace)


# sha256 of stdout, recorded from the commands before the projection and
# detection paths were last edited; a refactor must leave them unchanged
PINNED_BYTES = {
    "project --sigma E8 --theta 8 --format text":
        "5178b20ba2de4a82b655f85c6202f539eb96df1cde772b34b632507870302fd4",
    "project --sigma E8 --theta 8 --format json":
        "c652a3ae18037a3cc81fb6474695484a13e664f37dd0737b5f7a48837711b2b9",
    "project --sigma E8 --theta 8 --format csv":
        "79fa07e5fdc733a611134ec2488687807f5c94fbc59bebab831de4ba3952ea02",
    "project --sigma F4 --theta 2 --format text":
        "dfc61dfc8195c0aa355911466a67fab5f7885eafda0d5e4a694bdd3cb0868933",
    "project --sigma F4 --theta 2 --format json":
        "6747e719abbeaafb6a3b00e51dcf3e93987e007805c79bd8c005b2b3d0ffb7d1",
    "project --sigma F4 --theta 2 --format csv":
        "5b2ff5074653e9978120c88fb8db9d5d739b2295a9336773a0da92da15ad8a3a",
    "detect --sigma E8 --theta 2,3,4,5 --target F4 --restricted --format text":
        "b3773c8ac1688c03e07956d51ca957fccd6f165c8a9791ce0d9cdd50b1a1bd9a",
    "detect --sigma E8 --theta 2,3,4,5 --target F4 --restricted --format json":
        "d6286a12f2a8b17ca478d55ff89975da41fbf8493d55a2df4126232a832d74bb",
    "detect --sigma E8 --theta 2,3,4,5 --target F4 --restricted --format csv":
        "37b2b4ce282312c76ec28d4ae66cfa352aad7e09a501834dfe43760b1e9a0e7a",
    "verify-paper --sigma F4 --format text":
        "f74d99559438888b22a5ae2fce9669a88a2b4159b5918303b245cb9cd0ce90f4",
    "verify-paper --sigma F4 --format json":
        "899cbc5834492710435c8f231fa2ee9e8c31560add5f6f164bdf639215bdf7fe",
    "verify-paper --sigma E6 --format text":
        "8a3691a27a3da3880e270673aee66a123277ec2f78e8a823756cbadd74f42876",
    "verify-paper --sigma E6 --format json":
        "53ee663a60986580df5821fb64d3e9590f52b340c5af64271035220c7b026fea",
    "verify-paper --sigma E7 --format text":
        "7e53a3fbfa8bd0471b75ae806c2151756ec1bd959c35459d8df35ce537cc503f",
    "verify-paper --sigma E7 --format json":
        "2fee2ae1622b156e5dba3d89998d4a0d6aea73a3738511e2f4960d1dac7af9e2",
    "verify-paper --sigma E8 --format text":
        "c46354934e1b0f013e49842f65c0b25197f8d5d0e6c521269942a6f0a40d87ff",
    "verify-paper --sigma E8 --format json":
        "332001f996c92507409e5f7d6d64c234ca92069f36095e1a78a7d18cd7efc539",
    "enumerate --sigma F4 --format json":
        "60222c48fef32c2631a8b7658e75491e8395e175f618477c032d344c1b43c02c",
    "enumerate --sigma F4 --format json --jobs 2":
        "60222c48fef32c2631a8b7658e75491e8395e175f618477c032d344c1b43c02c",
    "enumerate --sigma E6 --format json":
        "02a763f246fe2278cf68c23d02bc63fe6ce65d24dc4cd19cc9477a78c220a534",
    "enumerate --sigma F4 --format text":
        "fa8fecc8cada06aaa727146419f82d0d90baca9e2266121345f5fe9e0ed0d2cf",
    "enumerate --sigma F4 --format csv":
        "ab71672bc02270846be4c90a76acacbae843b5742146550938753ffcbd7510fa",
    "enumerate --sigma E6 --format text":
        "4ac9252cc8a43508697f3466c41d5d1411104d1d1e1b7a5f7865693cbc3b8b33",
    "enumerate --sigma E6 --format csv":
        "fe5b153197942919202ad3951427907ab641f57259b862489fa2951f51834a19",
    # the same bytes as perfbench/reference.json's "enumerate E7" and
    # "enumerate E8"
    "enumerate --sigma E7 --format json":
        "c35abbce2098249eb9aa047d85347513cdf39e3d5f6aaf686e305adc2b8d3c61",
    "enumerate --sigma E8 --format json":
        "dfc8826206ebaf31abf8fb5adbb82d768f08a6af92e14b272b80244dad102a5c",
}

# E8's rows found beyond the tables make verify-paper exit 1 there
PINNED_EXITS = {
    "verify-paper --sigma E8 --format text": 1,
    "verify-paper --sigma E8 --format json": 1,
}

PINNED_ERRORS = {
    "project --sigma E8 --theta 9":
        "error: theta index 9 out of range 1..8\n",
    "project --sigma A3 --theta 1,2,3":
        "error: theta must be a proper nonempty subset of the simple roots\n",
    "detect --sigma E8 --theta 2,2 --target F4":
        "error: theta indices must be distinct\n",
    "detect --sigma A3 --theta 0 --target A2":
        "error: theta index 0 out of range 1..3\n",
    # a bad theta is reported before a bad target
    "detect --sigma A3 --theta 1,2,3 --target Q1":
        "error: theta must be a proper nonempty subset of the simple roots\n",
    "detect --sigma E8 --theta 8 --target E6xxA1":
        "error: cannot parse target 'E6xxA1'\n",
    "project --sigma E9 --theta 1":
        "error: E exists only in ranks 6, 7, 8\n",
    "project --sigma E8 --theta 1,x":
        "error: bad theta '1,x': expected comma-separated indices\n",
}


def test_command_bytes_are_pinned(capsys, pinned_run):
    for command, digest in PINNED_BYTES.items():
        code, out, err = pinned_run(command)
        assert (code, err) == (PINNED_EXITS.get(command, 0), ""), command
        got = hashlib.sha256(out.encode("utf-8")).hexdigest()
        assert got == digest, command
    for command, err in PINNED_ERRORS.items():
        assert main(command.split()) == 2, command
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == ("", err), command


def test_text_and_csv_render_the_json_document(pinned_run):
    # text and CSV read nothing but the JSON document, so the saved JSON
    # lines of each command pinned in all three formats render its text
    # and CSV bytes again
    renderers = {"project": (output.projection_text,
                             output.projection_csv_rows, []),
                 "detect": (output.detection_text, output.csv_rows,
                            [output.CSV_COLUMNS]),
                 "enumerate": (output.detection_text, output.csv_rows,
                               [output.CSV_COLUMNS])}
    checked = Counter()
    for command in PINNED_BYTES:
        argv = command.split()
        if argv[0] not in renderers or argv[-1] != "json" \
                or command.replace("json", "text") not in PINNED_BYTES:
            continue
        text, rows, header = renderers[argv[0]]
        docs = [json.loads(line)
                for line in pinned_run(command)[1].splitlines()]
        rendered = pinned_run(command.replace("json", "text"))[1]
        assert rendered == "".join("\n".join(text(doc)) + "\n"
                                   for doc in docs), command
        rendered = pinned_run(command.replace("json", "csv"))[1]
        assert list(csv.reader(io.StringIO(rendered))) \
            == header + [row for doc in docs for row in rows(doc)], command
        checked[argv[0]] += 1
    assert checked == {"project": 2, "detect": 1, "enumerate": 2}
