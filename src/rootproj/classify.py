"""Subset enumeration, classical-family predicates, and table verification.

For the classical families the type of a maximal-rank system in the
projection is decided by arithmetic on the shape of theta alone: decode
theta into blocks of glued coordinate indices (plus the special tail
component touching the short/long/fork end), and compare block sizes.
``classical_predicate`` implements those rules; ``oracle_equivalence``
replays every prediction against the search-based detector, which knows
nothing about the rules.

``verify_paper`` compares the detector's findings over every proper
theta of an exceptional system against the bundled reference tables and
reports the exact symmetric difference.
"""

from __future__ import annotations

from typing import (Callable, Dict, Iterator, List, NamedTuple, Optional,
                    Sequence, Set, Tuple)

from .catalog import (RealizedRootSystem, Target, TypeLabel, build,
                      check_theta, parse_target)
from .detect import DetectionReport, classify_max_rank, find_subsystem
from .projection import project_all


class ClassicalPrediction(NamedTuple):
    """Outcome of the block-arithmetic rules for one (system, theta)."""

    predicted: Optional[TypeLabel]
    condition_trace: str


def _block_sizes(count: int, glued: Callable[[int], bool]) -> List[int]:
    """Sizes of maximal runs of 1..count, where glued(i) joins i and i+1."""
    sizes = []
    run = 1
    for i in range(1, count):
        if glued(i):
            run += 1
        else:
            sizes.append(run)
            run = 1
    sizes.append(run)
    return sizes


def classical_predicate(label: TypeLabel, theta: Sequence[int]) -> ClassicalPrediction:
    """Maximal-rank prediction for a classical system from theta's shape.

    Returns the guaranteed type when one of the uniform conditions holds
    (equal-size glued blocks separated by single gaps, with the family
    end treated according to its tail component), and no prediction
    otherwise.  Mixed-size configurations carry no stated guarantee and
    come back empty.
    """
    if label.family not in ("A", "B", "C", "D"):
        raise ValueError("classical families only")
    sys = build(label)
    idx = set(check_theta(sys, theta))
    n = label.rank
    none = ClassicalPrediction(None, "no uniform block structure")

    if label.family == "A":
        sizes = _block_sizes(n + 1, lambda i: i in idx)
        if len(set(sizes)) == 1 and sizes[0] >= 2:
            d = len(sizes) - 1
            return ClassicalPrediction(
                TypeLabel("A", d),
                f"{len(sizes)} blocks of size {sizes[0]}: n+1=(m+1)(d+1)")
        return none

    if label.family in ("B", "C"):
        k = 0
        j = n
        while j >= 1 and j in idx:
            k += 1
            j -= 1
        sizes = _block_sizes(n - k, lambda i: i in idx) if n - k > 0 else []
        b = len(sizes)
        if sizes and len(set(sizes)) == 1:
            s = sizes[0]
            if label.family == "B":
                if s == 1 and k >= 1:
                    return ClassicalPrediction(
                        TypeLabel("B", n - k), f"tail of length {k}, bare blocks: B_(n-k)")
                if s >= 2:
                    return ClassicalPrediction(
                        TypeLabel("BC", b), f"{b} blocks of size {s}, tail {k}: BC_d")
            else:
                if k >= 1:
                    return ClassicalPrediction(
                        TypeLabel("BC", b), f"{b} blocks of size {s}, tail {k}: BC_d")
                if s >= 2:
                    return ClassicalPrediction(
                        TypeLabel("C", b), f"{b} blocks of size {s}, no tail: C_d")
        if label.family == "C" and b == 2 and \
                (sizes[0] * 3 == sizes[1] or sizes[1] * 3 == sizes[0]):
            return ClassicalPrediction(
                TypeLabel("A", 2), f"blocks {sizes}: p=3m+2 gives A_2")
        return none

    # family D
    fork1, fork2 = (n - 1) in idx, n in idx
    if fork1 and fork2:
        k = 2
        j = n - 2
        while j >= 1 and j in idx:
            k += 1
            j -= 1
        sizes = _block_sizes(n - k, lambda i: i in idx) if n - k > 0 else []
        if sizes and len(set(sizes)) == 1:
            s = sizes[0]
            if s == 1:
                return ClassicalPrediction(
                    TypeLabel("B", n - k), f"fork component D_{k}: recover B_(n-k)")
            return ClassicalPrediction(
                TypeLabel("BC", len(sizes)),
                f"fork component D_{k}, {len(sizes)} blocks of size {s}: BC_d")
        return none
    if fork1 or fork2:
        sizes = _block_sizes(
            n, lambda i: i in idx or (i == n - 1 and n in idx))
        if len(set(sizes)) == 1 and sizes[0] >= 2:
            return ClassicalPrediction(
                TypeLabel("C", len(sizes)),
                f"one fork root, {len(sizes)} blocks of size {sizes[0]}: C_d")
        return none
    return none


class ClassificationRecord(NamedTuple):
    """Findings for one (sigma, theta) pair."""

    sigma: TypeLabel
    theta: Tuple[int, ...]
    d: int
    reports: Tuple[DetectionReport, ...]


def proper_subsets(rank: int) -> Iterator[Tuple[int, ...]]:
    """Proper nonempty subsets of 1..rank, by size then lexicographically."""
    from itertools import combinations

    for size in range(1, rank):
        yield from combinations(range(1, rank + 1), size)


def classify_theta(sys: RealizedRootSystem,
                   theta: Sequence[int]) -> ClassificationRecord:
    pr = project_all(sys, theta)
    return ClassificationRecord(
        sigma=sys.label, theta=tuple(pr.theta), d=pr.d,
        reports=tuple(classify_max_rank(pr)))


def enumerate_records(label: TypeLabel) -> Iterator[ClassificationRecord]:
    """One record per proper theta, in deterministic order."""
    sys = build(label)
    for theta in proper_subsets(label.rank):
        yield classify_theta(sys, theta)


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
    records_checked: int

    @property
    def ok(self) -> bool:
        return not any(self.missing.values()) and \
            not any(self.unexpected.values()) and not self.negatives_violated

    def summary_lines(self) -> List[str]:
        lines = [f"verify {self.sigma}: {self.records_checked} theta subsets checked"]
        for table in (TABLE_IRREDUCIBLE, TABLE_IRREDUCIBLE_RESTRICTED,
                      TABLE_PRODUCT_RESTRICTED):
            miss = self.missing.get(table, [])
            extra = self.unexpected.get(table, [])
            status = "ok" if not miss and not extra else "MISMATCH"
            lines.append(f"  [{table}] {status}")
            for theta, target in miss:
                lines.append(f"    missing: theta={','.join(map(str, theta))} "
                             f"target={target} (expected found, detector disagrees)")
            for theta, target in extra:
                lines.append(f"    unexpected: theta={','.join(map(str, theta))} "
                             f"target={target} (detector found, table omits)")
        for table, (theta, target) in self.negatives_violated:
            lines.append(f"  negative violated [{table}]: "
                         f"theta={','.join(map(str, theta))} target={target}")
        lines.append("result: " + ("PASS" if self.ok else "FAIL"))
        return lines


def verify_paper(label: TypeLabel,
                 records: Optional[Sequence[ClassificationRecord]] = None
                 ) -> VerificationReport:
    """Compare detector findings with the reference tables, exactly.

    Pass precomputed records to avoid re-running the enumeration.
    """
    if not label.is_exceptional or label.family == "G":
        raise ValueError("verification tables exist for E6, E7, E8, F4 only")
    golden = load_golden_tables().get(str(label), GoldenTable({}, {}))
    findings: Dict[str, Set[Row]] = {
        TABLE_IRREDUCIBLE: set(),
        TABLE_IRREDUCIBLE_RESTRICTED: set(),
        TABLE_PRODUCT_RESTRICTED: set(),
    }
    records_checked = 0
    for record in (records if records is not None else enumerate_records(label)):
        records_checked += 1
        for rep in record.reports:
            row = (record.theta, str(rep.target))
            if rep.target.is_irreducible:
                if rep.found:
                    findings[TABLE_IRREDUCIBLE].add(row)
                if rep.basis_from_delta_theta:
                    findings[TABLE_IRREDUCIBLE_RESTRICTED].add(row)
            elif rep.found:
                findings[TABLE_PRODUCT_RESTRICTED].add(row)
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
    return VerificationReport(label, missing, unexpected, negatives_violated,
                              records_checked)


# ---------------------------------------------------------------------------
# classical oracle equivalence


class OracleEntry(NamedTuple):
    theta: Tuple[int, ...]
    prediction: Optional[str]
    trace: str
    confirmed: Optional[bool]          # None when there was nothing to confirm
    exceptional_found: Tuple[str, ...]


class OracleReport(NamedTuple):
    sigma: TypeLabel
    entries: Tuple[OracleEntry, ...]

    @property
    def disagreements(self) -> List[OracleEntry]:
        return [e for e in self.entries
                if e.confirmed is False or e.exceptional_found]

    @property
    def ok(self) -> bool:
        return not self.disagreements


def oracle_equivalence(label: TypeLabel) -> OracleReport:
    """Replay every block-rule prediction against the detector.

    Also asserts that no exceptional irreducible system of maximal rank
    is ever detected in a classical projection.
    """
    sys = build(label)
    entries = []
    for theta in proper_subsets(label.rank):
        pred = classical_predicate(label, theta)
        pr = project_all(sys, theta)
        confirmed: Optional[bool] = None
        if pred.predicted is not None:
            confirmed = find_subsystem(pr, Target((pred.predicted,))).found
        exceptional = []
        if pr.d == 2:
            if find_subsystem(pr, Target((TypeLabel("G", 2),))).found:
                exceptional.append("G2")
        if pr.d == 4:
            if find_subsystem(pr, Target((TypeLabel("F", 4),))).found:
                exceptional.append("F4")
        entries.append(OracleEntry(
            theta=theta,
            prediction=str(pred.predicted) if pred.predicted else None,
            trace=pred.condition_trace,
            confirmed=confirmed,
            exceptional_found=tuple(exceptional),
        ))
    return OracleReport(label, tuple(entries))
