"""Serialization of results: rationals as "p/q" strings, JSON, CSV, text.

Floats never appear in any output format; a fraction renders as "3/2" or
"2", which ``fractions.Fraction`` reads back exactly, so a JSON
certificate can be rebuilt and revalidated from the document alone.

Each command's JSON document is its output: ``projection_doc`` for
project, ``detection_doc`` for detect and enumerate.  Their text and CSV
render that document and read nothing else, so the three formats cannot
disagree.  verify-paper's JSON document is a summary, so its text
renders the ``classify.VerificationReport`` instead.
"""

from __future__ import annotations

from fractions import Fraction
from typing import List, Sequence

from .detect import DetectionReport
from .linalg import Vector, norm2
from .projection import ProjectionResult

SCHEMA = "rootproj/1"

CSV_COLUMNS = ["sigma", "theta", "d", "target", "restricted", "found",
               "basis_from_delta_theta", "closure_size", "basis"]


def vec_strs(v: Vector) -> List[str]:
    return [str(x) for x in v]


def _theta(theta: Sequence[int]) -> str:
    return ",".join(map(str, theta))


def _headline(doc: dict) -> str:
    return f"sigma={doc['sigma']} theta={_theta(doc['theta'])} d={doc['d']}"


def report_dict(rep: DetectionReport) -> dict:
    out = {
        "target": str(rep.target),
        "found": rep.found,
        "restricted": rep.restricted,
        "basis_from_delta_theta": rep.basis_from_delta_theta,
        "basis": [vec_strs(v) for v in rep.certificate.basis]
        if rep.certificate else None,
        "closure_size": rep.certificate.size if rep.certificate else 0,
    }
    if rep.certificate:
        out["components"] = [
            {"label": str(w.label),
             "basis": [vec_strs(v) for v in w.basis],
             "roots": sorted(vec_strs(v) for v in w.roots)}
            for w in rep.certificate.components
        ]
    return out


def detection_doc(pr: ProjectionResult,
                  reports: Sequence[DetectionReport]) -> dict:
    """The detect and enumerate document of reports on one projection."""
    return {
        "schema": SCHEMA,
        "sigma": str(pr.system.label),
        "theta": list(pr.theta),
        "d": pr.d,
        "reports": [report_dict(r) for r in reports],
    }


def verification_doc(report) -> dict:
    """The verify-paper JSON document of a classify.VerificationReport."""
    def lists(tables):
        return {t: [[list(theta), target] for theta, target in rows]
                for t, rows in tables.items()}
    return {"schema": SCHEMA, "sigma": str(report.sigma), "ok": report.ok,
            "records_checked": report.records_checked,
            "missing": lists(report.missing),
            "unexpected": lists(report.unexpected)}


def verification_text(report) -> List[str]:
    """The verify-paper text lines of a classify.VerificationReport."""
    lines = [f"verify {report.sigma}: {report.records_checked} theta "
             "subsets checked"]
    for table, miss in report.missing.items():
        extra = report.unexpected[table]
        lines.append(f"  [{table}] {'MISMATCH' if miss or extra else 'ok'}")
        for theta, target in miss:
            lines.append(f"    missing: theta={_theta(theta)} target={target}"
                         " (expected found, detector disagrees)")
        for theta, target in extra:
            lines.append(f"    unexpected: theta={_theta(theta)} "
                         f"target={target} (detector found, table omits)")
    for table, (theta, target) in report.negatives_violated:
        lines.append(f"  negative violated [{table}]: "
                     f"theta={_theta(theta)} target={target}")
    lines.append("result: " + ("PASS" if report.ok else "FAIL"))
    return lines


def projection_doc(pr: ProjectionResult) -> dict:
    """The project document; each Fraction view of pr is read once."""
    return {
        "schema": SCHEMA,
        "sigma": str(pr.system.label),
        "theta": list(pr.theta),
        "d": pr.d,
        "sigma_theta": [vec_strs(v) for v in pr.sigma_theta],
        "delta_theta": [vec_strs(v) for v in pr.delta_theta],
        "census": {str(norm): count for norm, count in pr.census.items()},
    }


def projection_csv_rows(doc: dict) -> List[List[str]]:
    """CSV rows of a projection_doc document, its header row first."""
    rows = [["kind", "coords", "norm"]]
    for kind in ("sigma_theta", "delta_theta"):
        rows.extend([kind, " ".join(v), str(norm2([Fraction(x) for x in v]))]
                    for v in doc[kind])
    rows.extend(["census", norm, str(doc["census"][norm])]
                for norm in sorted(doc["census"], key=Fraction))
    return rows


def projection_text(doc: dict) -> List[str]:
    """Text lines of a projection_doc document."""
    lines = [_headline(doc)]
    for kind in ("sigma_theta", "delta_theta"):
        lines.append(f"{kind}: {len(doc[kind])} vectors")
        lines.extend("  (" + ", ".join(v) + ")" for v in doc[kind])
    lines.append("census:")
    lines.extend(f"  norm-class {norm} count {doc['census'][norm]}"
                 for norm in sorted(doc["census"], key=Fraction))
    return lines


def csv_rows(doc: dict) -> List[List[str]]:
    """CSV rows, one per report, of a detection_doc document."""
    rows = []
    for rep in doc["reports"]:
        basis = " ".join("(" + ",".join(v) + ")" for v in rep["basis"] or ())
        rows.append([
            doc["sigma"], _theta(doc["theta"]), str(doc["d"]), rep["target"],
            str(rep["restricted"]).lower(), str(rep["found"]).lower(),
            str(rep["basis_from_delta_theta"]).lower(),
            str(rep["closure_size"]), basis,
        ])
    return rows


def detection_text(doc: dict) -> List[str]:
    """Text lines of a detection_doc document."""
    lines = [_headline(doc)]
    for rep in doc["reports"]:
        status = "found" if rep["found"] else "not-found"
        mode = "restricted" if rep["restricted"] else "unrestricted"
        extra = ""
        if rep["found"]:
            extra = (f" closure_size={rep['closure_size']}"
                     f" basis_from_delta_theta="
                     f"{str(rep['basis_from_delta_theta']).lower()}")
        lines.append(f"  target {rep['target']}: {status} ({mode}){extra}")
        if rep["found"]:
            for v in rep["basis"]:
                lines.append("    basis (" + ", ".join(v) + ")")
    return lines
