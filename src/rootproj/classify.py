"""Subset enumeration and table verification.

``classify_theta`` runs the detector on one proper theta of a system and
returns the document ``enumerate`` writes for it.  ``verify_paper`` reads
those documents for an exceptional system, from the command or from a
saved ``enumerate --format json`` file, and reports the exact symmetric
difference of their findings and the bundled reference tables.
"""

from __future__ import annotations

from typing import (Dict, Iterable, Iterator, List, NamedTuple, Sequence, Set,
                    Tuple)

from . import output
from .catalog import RealizedRootSystem, Target, TypeLabel, parse_target
from .detect import classify_max_rank
from .projection import project_all


def proper_subsets(rank: int) -> Iterator[Tuple[int, ...]]:
    """Proper nonempty subsets of 1..rank, by size then lexicographically."""
    from itertools import combinations

    for size in range(1, rank):
        yield from combinations(range(1, rank + 1), size)


def classify_theta(sys: RealizedRootSystem, theta: Sequence[int]) -> dict:
    """The enumerate document of one proper theta of sys: every report of
    ``classify_max_rank`` on its projection, as ``output.detection_doc``."""
    pr = project_all(sys, theta)
    return output.detection_doc(pr, classify_max_rank(pr))


# ---------------------------------------------------------------------------
# reference tables

TABLE_IRREDUCIBLE = "irreducible"
TABLE_IRREDUCIBLE_RESTRICTED = "irreducible-restricted"
TABLE_PRODUCT_RESTRICTED = "product-restricted"

Row = Tuple[Tuple[int, ...], str]  # (theta, target)


class GoldenTable(NamedTuple):
    found: Dict[str, Set[Row]]
    not_found: Dict[str, Set[Row]]


def _table_of(target: Target, restricted: bool) -> str:
    if target.is_irreducible:
        return TABLE_IRREDUCIBLE_RESTRICTED if restricted else TABLE_IRREDUCIBLE
    return TABLE_PRODUCT_RESTRICTED


def load_golden_tables() -> Dict[str, GoldenTable]:
    """Parse the bundled reference rows, keyed by the source system."""
    # imported here, as only verify-paper reads the tables
    from importlib import resources

    text = resources.files("rootproj").joinpath("data/golden_tables.txt") \
        .read_text(encoding="utf-8")
    sides: Dict[str, Tuple[dict, dict]] = {}  # sigma: (found, not_found)
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        sigma_s, theta_s, target_s, restricted_s, expected = line.split(";")
        theta = tuple(int(x) for x in theta_s.split(","))
        target = parse_target(target_s)
        restricted = restricted_s.lower() == "true"
        table = _table_of(target, restricted)
        found, not_found = sides.setdefault(sigma_s, ({}, {}))
        side = found if expected == "found" else not_found
        side.setdefault(table, set()).add((theta, str(target)))
    return {sigma: GoldenTable(*pair) for sigma, pair in sides.items()}


class VerificationReport(NamedTuple):
    sigma: TypeLabel
    missing: Dict[str, List[Row]]
    unexpected: Dict[str, List[Row]]
    negatives_violated: List[Tuple[str, Row]]

    @property
    def records_checked(self) -> int:
        """Every proper theta once: verify_paper refuses any other stream."""
        return 2 ** self.sigma.rank - 2

    @property
    def ok(self) -> bool:
        return not any(self.missing.values()) and \
            not any(self.unexpected.values()) and not self.negatives_violated


def verify_paper(label: TypeLabel, docs: Iterable[dict]) -> VerificationReport:
    """Compare the findings of label's enumerate documents, one per theta
    and each a parsed line of ``enumerate --format json``, with the
    reference tables, exactly.  A document of another system is refused,
    and so is a stream whose thetas are not every proper subset once, in
    enumerate's order."""
    if not label.is_exceptional or label.family == "G":
        raise ValueError("verification tables exist for E6, E7, E8, F4 only")
    golden = load_golden_tables().get(str(label), GoldenTable({}, {}))
    findings: Dict[str, Set[Row]] = {
        TABLE_IRREDUCIBLE: set(),
        TABLE_IRREDUCIBLE_RESTRICTED: set(),
        TABLE_PRODUCT_RESTRICTED: set(),
    }
    expected = proper_subsets(label.rank)
    for doc in docs:
        if doc["sigma"] != str(label):
            raise ValueError(f"a document of {doc['sigma']}, not of {label}")
        theta = tuple(doc["theta"])
        if theta != next(expected, None):
            raise ValueError(f"theta={','.join(map(str, theta))} is out of "
                             f"place: not the next proper theta of {label}")
        for rep in doc["reports"]:
            target = parse_target(rep["target"])
            row = (theta, str(target))
            if target.is_irreducible:
                if rep["found"]:
                    findings[TABLE_IRREDUCIBLE].add(row)
                if rep["basis_from_delta_theta"]:
                    findings[TABLE_IRREDUCIBLE_RESTRICTED].add(row)
            elif rep["found"]:
                findings[TABLE_PRODUCT_RESTRICTED].add(row)
    left = next(expected, None)
    if left is not None:
        raise ValueError(f"no document of theta={','.join(map(str, left))}")
    missing: Dict[str, List[Row]] = {}
    unexpected: Dict[str, List[Row]] = {}
    negatives_violated: List[Tuple[str, Row]] = []
    for table, found in findings.items():
        gold = golden.found.get(table, set())
        missing[table] = sorted(gold - found)
        unexpected[table] = sorted(found - gold)
        negatives_violated.extend(
            (table, row) for row in sorted(golden.not_found.get(table, set()))
            if row in found)
    return VerificationReport(label, missing, unexpected, negatives_violated)
