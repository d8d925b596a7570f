"""Serialization of results: rationals as "p/q" strings, JSON, CSV, text.

Floats never appear in any output format; a fraction renders as "3/2" or
"2", which ``fractions.Fraction`` reads back exactly, so a JSON
certificate can be rebuilt and revalidated from the document alone.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Dict, List, Sequence

from .detect import DetectionReport
from .linalg import Vector, norm2
from .projection import ProjectionResult

SCHEMA = "rootproj/1"

CSV_COLUMNS = ["sigma", "theta", "d", "target", "restricted", "found",
               "basis_from_delta_theta", "closure_size", "basis"]


def vec_strs(v: Vector) -> List[str]:
    return [str(x) for x in v]


def census_dict(census: Dict[Fraction, int]) -> Dict[str, int]:
    return {str(norm): census[norm] for norm in sorted(census)}


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
            lines.append(f"    missing: theta={','.join(map(str, theta))} "
                         f"target={target} (expected found, detector disagrees)")
        for theta, target in extra:
            lines.append(f"    unexpected: theta={','.join(map(str, theta))} "
                         f"target={target} (detector found, table omits)")
    for table, (theta, target) in report.negatives_violated:
        lines.append(f"  negative violated [{table}]: "
                     f"theta={','.join(map(str, theta))} target={target}")
    lines.append("result: " + ("PASS" if report.ok else "FAIL"))
    return lines


def projection_doc(pr: ProjectionResult) -> dict:
    return {
        "schema": SCHEMA,
        "sigma": str(pr.system.label),
        "theta": list(pr.theta),
        "d": pr.d,
        "sigma_theta": [vec_strs(v) for v in pr.sigma_theta],
        "delta_theta": [vec_strs(v) for v in pr.delta_theta],
        "census": census_dict(pr.census),
    }


def projection_csv_rows(pr: ProjectionResult) -> List[List[str]]:
    """CSV rows of a projection, its header row first."""
    rows = [["kind", "coords", "norm"]]
    for kind, vectors in (("sigma_theta", pr.sigma_theta),
                          ("delta_theta", pr.delta_theta)):
        rows.extend([kind, " ".join(vec_strs(v)), str(norm2(v))]
                    for v in vectors)
    rows.extend(["census", str(norm), str(pr.census[norm])]
                for norm in sorted(pr.census))
    return rows


def csv_rows(doc: dict) -> List[List[str]]:
    """CSV rows, one per report, of a detection_doc document."""
    rows = []
    theta_s = ",".join(str(i) for i in doc["theta"])
    for rep in doc["reports"]:
        basis = " ".join("(" + ",".join(v) + ")" for v in rep["basis"] or ())
        rows.append([
            doc["sigma"], theta_s, str(doc["d"]), rep["target"],
            str(rep["restricted"]).lower(), str(rep["found"]).lower(),
            str(rep["basis_from_delta_theta"]).lower(),
            str(rep["closure_size"]), basis,
        ])
    return rows


def projection_text(pr: ProjectionResult) -> List[str]:
    lines = [
        f"sigma={pr.system.label} theta={','.join(map(str, pr.theta))} d={pr.d}",
        f"sigma_theta: {len(pr.sigma_theta)} vectors",
    ]
    for v in pr.sigma_theta:
        lines.append("  (" + ", ".join(vec_strs(v)) + ")")
    lines.append(f"delta_theta: {len(pr.delta_theta)} vectors")
    for v in pr.delta_theta:
        lines.append("  (" + ", ".join(vec_strs(v)) + ")")
    lines.append("census:")
    for norm in sorted(pr.census):
        lines.append(f"  norm-class {norm} count {pr.census[norm]}")
    return lines


def detection_text(doc: dict) -> List[str]:
    """Text lines of a detection_doc document."""
    lines = [f"sigma={doc['sigma']} theta={','.join(map(str, doc['theta']))}"
             f" d={doc['d']}"]
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
