"""Acceptance suite: one test per criterion, one printed verdict line each.

All assertions are exact; nothing here carries a numeric tolerance.
"""

import hashlib
import json
import random
from fractions import Fraction
from pathlib import Path

from oracles import (add, build_from_name, certificate_of,
                     classical_predicate, expansion_over_delta_theta,
                     maximal_rank_step, oracle_equivalence, planche_roots,
                     project_vector, reflect, simple_root_expansion, vector,
                     zero)
from rootproj.catalog import (Target, detection_targets, normalize_components,
                              parse_label, parse_target)
from rootproj.classify import (TABLES, load_golden_tables, proper_subsets,
                               verify_paper)
from rootproj.detect import (ClosureCertificate, ClosureFailure,
                             ComponentWitness, census_admits, certify,
                             find_subsystem, match_type, reflection_closure,
                             revalidate)
from rootproj.linalg import dot, is_zero, neg, norm2, scale, sub
from rootproj.projection import project_all

(TABLE_IRREDUCIBLE, TABLE_IRREDUCIBLE_RESTRICTED,
 TABLE_PRODUCT_RESTRICTED) = TABLES

# Criteria 1-3, 7 and 8 read the documents of the session's
# `enumerate --format json` run of each system (tests/conftest.py).
EXCEPTIONAL = ("F4", "E6", "E7", "E8")


def conclude(num: int, name: str, ok: bool, detail: str = "") -> None:
    print(f"\nCRITERION {num} ({name}): {'PASS' if ok else 'FAIL'}")
    assert ok, f"criterion {num} ({name}) failed\n{detail}"


def _found_rows(docs, restricted: bool, irreducible: bool):
    rows = set()
    for doc in docs:
        for rep in doc["reports"]:
            if parse_target(rep["target"]).is_irreducible != irreducible:
                continue
            # product reports carry the restricted answer in `found`
            hit = rep["basis_from_delta_theta"] \
                if (irreducible and restricted) else rep["found"]
            if hit:
                rows.add((tuple(doc["theta"]), rep["target"]))
    return rows


# Rows the detector finds beyond the bundled tables, keyed by
# (system, table, theta, target), each with a proof that is checked here
# without running the search.  Two kinds of proof:
#
#   ("conjugate", listed_theta, word): applying the simple reflections s_j,
#       j in word, in turn carries {alpha_j : j in theta} exactly onto
#       {alpha_j : j in listed_theta}, a listed row.  That Weyl element is
#       an isometry mapping sigma_theta onto sigma_listed_theta (Howlett,
#       "Normalizers of parabolic subgroups of reflection groups", 1980),
#       so the unrestricted verdict carries over.  Restricted verdicts are
#       not class invariants, so this proof holds for the unrestricted
#       table only.
#   ("basis", factors): one (label, spec) pair per factor of the target.
#       A spec of ints names the simple roots whose projections form the
#       factor's basis (pinned to delta_theta); a spec of tuples gives root
#       coefficient vectors over the simple roots whose projections form
#       it (a free classical factor).  The certificate built from these
#       bases must revalidate.
PROVEN_ADDITIONS = {
    # the adjacent pairs are W-conjugate A2 sub-diagrams
    ("E8", TABLE_IRREDUCIBLE, (3, 4), "E6"):
        ("conjugate", (1, 3), (1, 3, 4)),
    ("E8", TABLE_IRREDUCIBLE, (4, 5), "E6"):
        ("conjugate", (2, 4), (2, 4, 5)),
    ("E8", TABLE_IRREDUCIBLE, (5, 6), "E6"):
        ("conjugate", (7, 8), (7, 6, 5, 8, 7, 6)),
    ("E8", TABLE_IRREDUCIBLE, (6, 7), "E6"):
        ("conjugate", (7, 8), (8, 7, 6)),
    # theta of type D4+A2, conjugate to no listed row: alpha_1 and alpha_6
    # project to norms 1 and 1/3 with inner product -1/2
    ("E8", TABLE_IRREDUCIBLE, (2, 3, 4, 5, 7, 8), "G2"):
        ("basis", (("G2", (1, 6)),)),
    ("E8", TABLE_IRREDUCIBLE_RESTRICTED, (2, 3, 4, 5, 7, 8), "G2"):
        ("basis", (("G2", (1, 6)),)),
    ("E8", TABLE_PRODUCT_RESTRICTED, (1, 2, 3, 5, 7), "G2xA1"):
        ("basis", (("G2", (4, 6)), ("A1", ((1, 1, 2, 3, 2, 2, 1, 1),)))),
    ("E8", TABLE_PRODUCT_RESTRICTED, (1, 2, 3, 5, 7), "G2xBC1"):
        ("basis", (("G2", (4, 6)), ("BC1", ((1, 1, 2, 3, 2, 2, 1, 1),)))),
    ("E8", TABLE_PRODUCT_RESTRICTED, (1, 3, 5, 6), "A2xG2"):
        ("basis", (("G2", (2, 4)),
                   ("A2", ((0, -1, -1, -2, -1, -1, -1, -1),
                           (1, 2, 2, 4, 3, 2, 2, 1))))),
    ("E8", TABLE_PRODUCT_RESTRICTED, (1, 3, 5, 6, 8), "G2xBC1"):
        ("basis", (("G2", (2, 4)), ("BC1", ((0, 1, 1, 2, 1, 1, 1, 0),)))),
    ("E8", TABLE_PRODUCT_RESTRICTED, (2, 4, 5, 6, 7), "G2xBC1"):
        ("basis", (("G2", (1, 3)), ("BC1", ((1, 1, 2, 2, 1, 1, 1, 1),)))),
    ("E8", TABLE_PRODUCT_RESTRICTED, (2, 5, 7), "F4xBC1"):
        ("basis", (("F4", (1, 3, 4, 6)),
                   ("BC1", ((1, 1, 2, 3, 2, 2, 1, 1),)))),
    ("E8", TABLE_PRODUCT_RESTRICTED, (8,), "E6xA1"):
        ("basis", (("E6", (1, 2, 3, 4, 5, 6)),
                   ("A1", ((2, 3, 4, 6, 5, 4, 3, 1),)))),
}


def _conjugation_problems(sys, theta, listed, word):
    """The word must carry the simple roots of theta onto those of listed."""
    image = {sys.simple_roots[j - 1] for j in theta}
    for j in word:
        image = {reflect(v, sys.simple_roots[j - 1]) for v in image}
    if image != {sys.simple_roots[j - 1] for j in listed}:
        return [f"word {word} does not carry theta onto {listed}"]
    return []


def _basis_problems(sys, table, theta, target, factors):
    """Build the certificate from the given bases and revalidate it."""
    labels = sorted(parse_label(lab).sort_key for lab, _ in factors)
    if labels != sorted(lab.sort_key for lab in target.normalized()):
        return [f"factors {[lab for lab, _ in factors]} do not make {target}"]
    alphas = [sys.simple_roots[j - 1] for j in theta]
    universe = project_all(sys, theta).sigma_theta_set
    witnesses = []
    for lab, spec in factors:
        label = parse_label(lab)
        pinned = all(isinstance(j, int) for j in spec)
        if table != TABLE_IRREDUCIBLE and not pinned and \
                (label.is_exceptional or target.is_irreducible):
            return [f"{lab} must be pinned to delta_theta"]
        if pinned:
            if any(j in theta for j in spec):
                return [f"{lab}: {spec} meets theta"]
            roots = [sys.simple_roots[j - 1] for j in spec]
        else:
            roots = []
            for coeff in spec:
                r = zero(len(sys.simple_roots[0]))
                for c, a in zip(coeff, sys.simple_roots):
                    r = add(r, scale(Fraction(c), a))
                if r not in planche_roots(sys.label):
                    return [f"{lab}: {coeff} is not a root"]
                roots.append(r)
        basis = tuple(project_vector(alphas, r) for r in roots)
        certified = certify(label, basis, universe)
        if isinstance(certified, ClosureFailure):
            return [f"{lab}: basis does not certify: {certified}"]
        witnesses.append(ComponentWitness(label, basis, certified))
    if not revalidate(ClosureCertificate(target, tuple(witnesses)), universe):
        return ["certificate does not revalidate"]
    return []


def _table_problems(table, enumerated):
    """One table against the findings over every exceptional system.

    Nothing listed is missing, no listed negative is found, the rows found
    beyond the table are exactly its proven additions, and every proof
    re-checks.
    """
    golden = load_golden_tables()
    problems = []
    for name in EXCEPTIONAL:
        rep = verify_paper(parse_label(name), enumerated(name).docs)
        for row in rep.missing[table]:
            problems.append(f"{name}: listed row {row} not reproduced")
        for tab, row in rep.negatives_violated:
            if tab == table:
                problems.append(f"{name}: listed negative {row} found")
        proofs = {(theta, target): proof
                  for (sigma, tab, theta, target), proof in
                  PROVEN_ADDITIONS.items() if sigma == name and tab == table}
        for row in sorted(set(rep.unexpected[table]) - set(proofs)):
            problems.append(f"{name}: unexpected row {row} has no proof")
        for row in sorted(set(proofs) - set(rep.unexpected[table])):
            problems.append(f"{name}: proven addition {row} not found")
        sys = build_from_name(name)
        for (theta, target), proof in sorted(proofs.items()):
            if proof[0] == "conjugate":
                _, listed, word = proof
                errs = _conjugation_problems(sys, theta, listed, word)
                if table != TABLE_IRREDUCIBLE:
                    errs.append("conjugation proves unrestricted rows only")
                if (listed, target) not in golden[name].found.get(table, ()) or \
                        (listed, target) in rep.missing[table]:
                    errs.append(f"{(listed, target)} is not a listed, found row")
            else:
                errs = _basis_problems(sys, table, theta,
                                       parse_target(target), proof[1])
            problems.extend(f"{name} {table} {theta} {target}: {e}"
                            for e in errs)
    return problems


def test_criterion_1_thm_1_2_tables(enumerated):
    """Unrestricted irreducible exceptional occurrences match the tables.

    Every listed row is found; each row found beyond the table is a proven
    addition (PROVEN_ADDITIONS) whose proof re-checks.
    """
    # spot rows named by the criterion
    e8 = _found_rows(enumerated("E8").docs, restricted=False,
                     irreducible=True)
    for i in range(1, 9):
        assert ((i,), "E7") in e8
    for theta in [(2, 4), (1, 3), (7, 8)]:
        assert (theta, "E6") in e8
    assert ((2, 3, 4, 5), "F4") in e8
    assert ((1, 2, 3, 4, 5, 6), "G2") in e8
    problems = _table_problems(TABLE_IRREDUCIBLE, enumerated)
    conclude(1, "reference tables, any basis", not problems,
             "\n".join(problems))


def test_criterion_2_thm_1_3_restricted(enumerated):
    """Delta_theta-basis findings match the restricted tables.

    Every listed row is found; each row found beyond the table is a proven
    addition (PROVEN_ADDITIONS) whose proof re-checks.
    """
    listed = {
        "F4": [((1, 2), "G2"), ((3, 4), "G2")],
        "E6": [((1, 3, 5, 6), "G2")],
        "E7": [((2, 5, 7), "F4"), ((2, 4, 5, 6, 7), "G2"),
               ((1, 2, 3, 5, 7), "G2")],
        "E8": [((2, 3, 4, 5), "F4"), ((1, 2, 3, 4, 5, 6), "G2")],
    }
    problems = []
    for name, rows in listed.items():
        found = _found_rows(enumerated(name).docs, restricted=True,
                            irreducible=True)
        for row in rows:
            if row not in found:
                problems.append(f"{name}: listed row {row} not reproduced")
    e8_restricted = _found_rows(enumerated("E8").docs, restricted=True,
                                irreducible=True)
    if ((8,), "E7") in e8_restricted:
        problems.append("E8 theta=8: E7 must not be restricted-reproducible")
    problems += _table_problems(TABLE_IRREDUCIBLE_RESTRICTED, enumerated)
    conclude(2, "reference tables, basis from delta_theta",
             not problems, "\n".join(problems))


def test_criterion_3_product_tables(enumerated):
    """Products with an exceptional component, restricted sense.

    Besides the named rows, the product table is checked like criteria 1
    and 2: each row found beyond it is a proven addition.
    """
    e8 = _found_rows(enumerated("E8").docs, restricted=True,
                     irreducible=False)
    e7 = _found_rows(enumerated("E7").docs, restricted=True,
                     irreducible=False)
    problems = []
    for theta in [(1, 3, 5, 6, 8), (2, 4, 5, 6, 7)]:
        if (theta, "G2xA1") not in e8:
            problems.append(f"E8 {theta} G2xA1 missing")
    if (((2, 5, 7), "F4xA1")) not in e8:
        problems.append("E8 (2,5,7) F4xA1 missing")
    if (((1, 3, 5, 6), "G2xA1xA1")) not in e8:
        problems.append("E8 (1,3,5,6) G2xA1xA1 missing")
    if (((1, 3, 5, 6), "G2xA1")) not in e7:
        problems.append("E7 (1,3,5,6) G2xA1 missing")
    if (((2, 4, 6, 7), "G2xA1")) in e7:
        problems.append("E7 (2,4,6,7) G2xA1 must be not-found")
    # ... and that negative case does pass the census screen
    pr = project_all(build_from_name("E7"), (2, 4, 6, 7))
    if not census_admits(parse_target("G2xA1"), pr.census):
        problems.append("E7 (2,4,6,7) was expected to pass census pruning")
    problems += _table_problems(TABLE_PRODUCT_RESTRICTED, enumerated)
    conclude(3, "product reference rows", not problems, "\n".join(problems))


def test_criterion_4_norm_census_numbers():
    """Singleton censuses, derived from the catalog's roots by pairings alone.

    Let alpha be simple in a simply laced system.  A root orthogonal to
    alpha is its own projection; these roots form the system on alpha's
    orthogonal complement (D6 in E7, E7 in E8).  Every other root besides
    +-alpha has <beta, alpha^vee> = +-1, shares its projection of norm
    2 - 1/2 = 3/2 with s_alpha(beta) only, and so counts half.  That gives
    {2: 60, 3/2: 32} for each E7 singleton (W(E7) is transitive on roots;
    criterion 7 shows all seven agree), so no singleton has classes of 60
    and 62; and {2: 126, 3/2: 56} for E8 theta=8.
    """
    problems = []
    for name, indices, orth_name, want in [
            ("E7", range(1, 8), "D6", {Fraction(2): 60, Fraction(3, 2): 32}),
            ("E8", (8,), "E7", {Fraction(2): 126, Fraction(3, 2): 56})]:
        sys = build_from_name(name)
        roots = planche_roots(sys.label)
        orth_count = len(planche_roots(parse_label(orth_name)))
        for i in indices:
            alpha = sys.simple_roots[i - 1]
            orth = [b for b in roots if dot(b, alpha) == 0]
            paired = [b for b in roots
                      if 2 * dot(b, alpha) / dot(alpha, alpha) in (1, -1)]
            # s_alpha swaps the paired roots two by two, with no fixed point
            swapped = {sub(b, scale(2 * dot(b, alpha) / dot(alpha, alpha),
                                    alpha)) for b in paired}
            if swapped != set(paired) or \
                    len(orth) + len(paired) + 2 != len(roots):
                problems.append(f"{name} theta={i}: roots do not split "
                                f"into orthogonal and paired ones")
            derived = {}
            for b in orth:
                n = dot(b, b)
                derived[n] = derived.get(n, 0) + 1
            for b in paired:
                n = dot(b, b) - dot(alpha, alpha) / 4
                derived[n] = derived.get(n, 0) + Fraction(1, 2)
            census = project_all(sys, (i,)).census
            if len(orth) != orth_count or derived != want or census != want:
                problems.append(
                    f"{name} theta={i}: {len(orth)} orthogonal roots "
                    f"({orth_name} has {orth_count}); derived "
                    f"{ {str(k): str(v) for k, v in sorted(derived.items())} }"
                    f", census "
                    f"{ {str(k): v for k, v in sorted(census.items())} }, "
                    f"expected "
                    f"{ {str(k): v for k, v in sorted(want.items())} }")
    conclude(4, "norm census counts", not problems, "\n".join(problems))


# Every theta of these systems, and the rank-8 theta of the A2 rule: two
# blocks of sizes 2 and 6, or of sizes 1 and 3 beside a tail of four
# coordinates.  Below rank 8 the rule meets sizes 1 and 3 only.
CLASSICAL_ORACLE_CASES = [
    *((f"{fam}{n}", None) for fam, low in (("A", 2), ("B", 2), ("C", 2),
                                           ("D", 3)) for n in range(low, 8)),
    ("B8", [(1, 2, 3, 4, 5, 7), (1, 2, 5, 6, 7, 8), (1, 3, 4, 5, 6, 7),
            (2, 3, 5, 6, 7, 8)]),
    ("D8", [(1, 2, 3, 4, 5, 7), (1, 2, 3, 4, 5, 8), (1, 2, 5, 6, 7, 8),
            (1, 3, 4, 5, 6, 7), (1, 3, 4, 5, 6, 8), (2, 3, 5, 6, 7, 8)]),
]


def test_criterion_5_classical_oracle():
    """The block rules name exactly the irreducible rank-d types found."""
    problems = []
    for name, thetas in CLASSICAL_ORACLE_CASES:
        rep = oracle_equivalence(parse_label(name), thetas)
        for e in rep.disagreements:
            problems.append(f"{name} {e.theta}: predicted {e.predicted} "
                            f"({e.trace}), found {e.found}")
    for name, theta, want in [("B4", (1, 3), "BC2"), ("C4", (2, 3), "A2"),
                              ("D4", (3, 4), "B2")]:
        pred = classical_predicate(parse_label(name), theta)
        if str(pred.predicted) != want:
            problems.append(f"{name} {theta}: predicted {pred.predicted}, "
                            f"want {want}")
        pr = project_all(build_from_name(name), theta)
        if not find_subsystem(pr, Target((pred.predicted,))).found:
            problems.append(f"{name} {theta}: detector missed {want}")
    conclude(5, "classical oracle equivalence", not problems, "\n".join(problems))


SAMPLE_POOL = ["A3", "A4", "A5", "A6", "B3", "B4", "B5", "B6", "C3", "C4",
               "C5", "C6", "D4", "D5", "D6", "E6", "E7", "E8", "F4", "G2"]


def test_criterion_6_invariant_suite():
    """>= 1000 randomized (system, theta, root) exact checks."""
    rng = random.Random(987654321)
    triples = 0
    problems = []
    pairs = []
    for name in SAMPLE_POOL:
        sys = build_from_name(name)
        sizes = range(1, sys.rank)
        for _ in range(3 if sys.rank <= 6 else 2):
            k = rng.choice(list(sizes))
            theta = tuple(sorted(rng.sample(range(1, sys.rank + 1), k)))
            pairs.append((sys, theta))
    while sum(min(22, s.label.root_count) for s, _ in pairs) < 1000:
        pairs.append(pairs[rng.randrange(len(pairs))])
    for sys, theta in pairs:
        alphas = [sys.simple_roots[i - 1] for i in theta]
        pr = project_all(sys, theta)
        sset = set(pr.sigma_theta)
        if not all(neg(v) in sset for v in sset):
            problems.append(f"{sys.label} {theta}: negation closure fails")
        roots = planche_roots(sys.label)
        for r in rng.sample(roots, min(22, len(roots))):
            triples += 1
            p = project_vector(alphas, r)
            if project_vector(alphas, p) != p:
                problems.append(f"{sys.label} {theta} {r}: not idempotent")
            if any(dot(p, a) != 0 for a in alphas):
                problems.append(f"{sys.label} {theta} {r}: not orthogonal")
            coeff = simple_root_expansion(sys, r)
            outside_zero = all(
                c == 0 for i, c in enumerate(coeff, start=1) if i not in theta)
            if is_zero(p) != outside_zero:
                problems.append(f"{sys.label} {theta} {r}: kernel mismatch")
            if not is_zero(p):
                exp = expansion_over_delta_theta(p, pr)
                if any(c.denominator != 1 for c in exp):
                    problems.append(f"{sys.label} {theta} {r}: non-integral")
    assert triples >= 1000
    conclude(6, f"projection invariants over {triples} samples",
             not problems, "\n".join(problems[:20]))


def test_criterion_7_weyl_conjugacy_of_singletons(enumerated):
    """Equal-length singleton thetas give identical unrestricted findings."""
    problems = []
    for name in ("E6", "E7", "E8", "F4", "G2"):
        sys = build_from_name(name)
        docs = {tuple(doc["theta"]): doc for doc in enumerated(name).docs}
        by_length = {}
        for i in range(1, sys.rank + 1):
            root_len = norm2(sys.simple_roots[i - 1])
            found = tuple(sorted(
                r["target"] for r in docs[(i,)]["reports"]
                if parse_target(r["target"]).is_irreducible and r["found"]))
            census = tuple(sorted(project_all(sys, (i,)).census.items()))
            by_length.setdefault(root_len, []).append((i, found, census))
        for root_len, entries in by_length.items():
            base = entries[0]
            for other in entries[1:]:
                if other[1] != base[1] or other[2] != base[2]:
                    problems.append(
                        f"{name}: singleton {base[0]} vs {other[0]} "
                        f"(length {root_len}) differ: "
                        f"{base[1:]} vs {other[1:]}")
    conclude(7, "singleton conjugacy invariance", not problems,
             "\n".join(problems))


def test_criterion_8_certificates(enumerated):
    """Every found report's certificate, rebuilt from the "p/q" strings of
    its enumerate document, re-validates from scratch; the escape case
    fails."""
    problems = []
    checked = 0
    for name in EXCEPTIONAL:
        sys = build_from_name(name)
        for doc in enumerated(name).docs:
            found = [rep for rep in doc["reports"] if rep["found"]]
            if not found:
                continue
            universe = project_all(sys, doc["theta"]).sigma_theta_set
            for rep in found:
                checked += 1
                where = f"{name} {tuple(doc['theta'])} {rep['target']}"
                if rep["basis"] is None:
                    problems.append(f"{where}: no certificate")
                    continue
                cert = certificate_of(rep)
                if not revalidate(cert, universe):
                    problems.append(f"{where}: revalidation failed")
                if not cert.size == rep["closure_size"] == sum(
                        c.root_count for c in cert.target.components):
                    problems.append(f"{where}: wrong orbit size")
    # classical positives revalidate too
    for name, theta, target in [("B4", (1, 3), "BC2"), ("C4", (2, 3), "A2"),
                                ("D4", (3, 4), "B2"), ("A5", (1, 3, 5), "A2"),
                                ("C3", (3,), "BC2")]:
        pr = project_all(build_from_name(name), theta)
        rep = find_subsystem(pr, parse_target(target))
        checked += 1
        if not (rep.found and revalidate(rep.certificate, pr.sigma_theta_set)):
            problems.append(f"{name} {theta} {target}: failed")
    # the long-short pair at ratio 3 inside a C_n projection escapes
    pr = project_all(build_from_name("C4"), (1, 2))
    u = vector([Fraction(1, 3)] * 3 + [Fraction(0)])
    e4 = vector([0, 0, 0, 1])
    basis = [sub(u, e4), scale(Fraction(2), e4)]
    res = reflection_closure(basis, pr.sigma_theta_set, max_size=12)
    if not isinstance(res, ClosureFailure):
        problems.append("C4 G2 candidate unexpectedly closed")
    elif res.escaping != sub(scale(Fraction(3), u), e4):
        problems.append(f"C4 escape vector is {res.escaping}")
    if find_subsystem(pr, parse_target("G2")).found:
        problems.append("C4 (1,2): G2 must not be found")
    conclude(8, f"certificate soundness over {checked} found reports",
             not problems, "\n".join(problems))


def test_enumerate_json_bytes_match_reference(enumerated):
    """`enumerate --format json` writes the bytes it wrote when
    perfbench/reference.json was made, so a change to search or
    certificates that alters output shows here without running the
    benchmark."""
    ref_path = Path(__file__).resolve().parent.parent / "perfbench" / "reference.json"
    reference = json.loads(ref_path.read_text(encoding="utf-8"))
    for name in ("F4", "E7", "E8"):
        got = hashlib.sha256(enumerated(name).text.encode("utf-8")).hexdigest()
        assert got == reference[f"enumerate {name}"]["sha256"], name


def _holds_a_product_of_a(pr) -> bool:
    return any(find_subsystem(pr, t).found
               for t in detection_targets(pr.d, reducible=True)
               if all(c.family == "A" for c in t.components))


def test_sigma_theta_holds_a_root_system_of_rank_d():
    """The abstract's first claim asks when sigma_theta contains a root
    system of rank d.  Removing nodes of extended Dynkin diagrams
    (Borel-de Siebenthal 1949, Dynkin 1952) gives B_n > D_n,
    D_n > A1^2 x D_(n-2), C_n > A1^n, G2 > A2, F4 > A2^2, E6 > A2^3,
    E7 > A7 and E8 > A8, so every rank-d root system contains a rank-d
    product of type-A factors (BC contains B): the unrestricted search
    for those products alone answers it.  Every theta of F4 and E7 holds
    one; on E6, exactly the theta whose simple roots form an A3 hold
    none.  E8 (about 24 s) is left out.
    """
    missing = {}
    for name in ("F4", "E6", "E7"):
        sys = build_from_name(name)
        missing[name] = [theta for theta in proper_subsets(sys.rank)
                         if not _holds_a_product_of_a(project_all(sys, theta))]
    e6 = build_from_name("E6")
    a3 = [theta for theta in proper_subsets(e6.rank)
          if [label for label, _ in match_type(
              [e6.simple_roots[i - 1] for i in theta])] == [parse_label("A3")]]
    assert len(a3) == 5
    assert missing == {"F4": [], "E6": a3, "E7": []}


def test_the_unrestricted_found_set_is_closed_downward():
    """If sigma_theta holds X, it holds every Y of the same rank inside X,
    because the copy of Y sits inside the copy of X.  So one maximal-rank
    step (``oracles.maximal_rank_step``) on one factor of a target found
    unrestricted must give a found target again.  B5 is the system here
    where a D degree bound of 2 shows: theta=(5) would then hold B4 but
    not D4.  E7 (about 9 s) is left out.
    """
    implications = {}
    for name in ("F4", "E6", "B5", "C5", "BC4"):
        sys = build_from_name(name)
        implications[name] = 0
        for theta in proper_subsets(sys.rank):
            pr = project_all(sys, theta)
            found = [t for t in detection_targets(pr.d, reducible=True)
                     if find_subsystem(pr, t).found]
            held = {t.normalized() for t in found}
            for t in found:
                for i, label in enumerate(t.components):
                    step = maximal_rank_step(label)
                    if step is None:
                        continue
                    implications[name] += 1
                    smaller = normalize_components(
                        t.components[:i] + step + t.components[i + 1:])
                    assert smaller in held, (name, theta, str(t), label)
    assert implications == {"F4": 64, "E6": 14, "B5": 142, "C5": 169,
                            "BC4": 91}
