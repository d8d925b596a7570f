import json
import random
from collections import Counter
from fractions import Fraction
from itertools import combinations
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from oracles import (build_from_name, pairing_matrix, planche_roots,
                     reflect, shape_match_type, vector)
from rootproj import detect
from rootproj.catalog import (FAMILIES, TypeLabel, build, cartan_matrix,
                              detection_targets, finite_type,
                              irreducible_labels, normalize_components,
                              parse_target)
from rootproj.classify import proper_subsets
from rootproj.detect import (ClosureCertificate, ClosureFailure,
                             ComponentWitness, census_admits, census_scales,
                             certify, classify_max_rank, find_subsystem,
                             match_type, reflection_closure, revalidate)
from rootproj.linalg import (bareiss_minors, dot, from_ints, neg, norm2,
                             scale, sub, to_ints)
from rootproj.projection import ProjectionResult, _views, project_all


def test_cartan_matrix_orthogonal_pair():
    m = cartan_matrix([vector([1, 0]), vector([0, 2])])
    assert m == ((2, 0), (0, 2))


def test_cartan_matrix_g2_pattern():
    # short and long root of a G2 configuration: off-diagonals -1 and -3
    short = vector([1, -1, 0])
    long_ = vector([-2, 1, 1])
    m = cartan_matrix([long_, short])
    assert (m[0][1], m[1][0]) == (-3, -1)


def test_cartan_matrix_c4_example():
    # from C4 with the middle pair glued: equal norms, A2 pattern
    u = vector([Fraction(1), Fraction(-1, 3), Fraction(-1, 3), Fraction(-1, 3)])
    w = scale(Fraction(2), vector([0, Fraction(1, 3), Fraction(1, 3), Fraction(1, 3)]))
    m = cartan_matrix([u, w])
    assert (m[0][1], m[1][0]) == (-1, -1)
    assert norm2(u) == norm2(w) == Fraction(4, 3)


def test_cartan_matrix_rejects_zero():
    with pytest.raises(ValueError):
        cartan_matrix([vector([0, 0])])


def test_match_type_self_identification():
    # the simple roots of every label of rank 1 to 8 type as the label's
    # normalized name, BC_k as B_k: C2 as B2, D3 as A3, B1 and C1 as A1.
    # D2 is two A1, no connected basis, so it has no type
    for label in _labels_up_to_rank(8):
        family = "B" if label.family == "BC" else label.family
        names = normalize_components((TypeLabel(family, label.rank),))
        got = match_type(list(build(label).simple_roots))
        assert got == (names[0] if len(names) == 1 else None), label
    d2 = list(build(TypeLabel("D", 2)).simple_roots)
    assert [str(lab) for lab, _ in shape_match_type(d2)] == ["A1", "A1"]


def test_match_type_g2_from_pairing():
    assert str(match_type([vector([-2, 1, 1]), vector([1, -1, 0])])) == "G2"


def test_match_type_collinear_rejected():
    assert match_type([vector([1, 0]), vector([-1, 0])]) is None


def test_match_type_positive_pairing_rejected():
    assert match_type([vector([1, 0]), vector([1, 1])]) is None


def test_match_type_refuses_an_empty_basis():
    with pytest.raises(ValueError, match="^empty basis$"):
        match_type([])


def test_match_type_affine_cycle_rejected():
    a = vector([1, -1, 0])
    b = vector([0, 1, -1])
    c = vector([-1, 0, 1])  # a + b + c = 0: a 3-cycle
    assert match_type([a, b, c]) is None


def test_match_type_components():
    # a basis of several components has no type; the oracle splits it,
    # and match_type types each component on its own
    sys = build_from_name("A5")
    for picks, names in (((0, 2, 4), ["A1", "A1", "A1"]),
                         ((0, 1, 3), ["A2", "A1"])):
        basis = [sys.simple_roots[i] for i in picks]
        assert match_type(basis) is None
        decomp = shape_match_type(basis)
        assert [str(lab) for lab, _ in decomp] == names
        assert all(match_type([basis[i] for i in comp]) == lab
                   for lab, comp in decomp)


def test_match_type_refuses_e8_x_a1_x_a1_which_has_d10s_invariants():
    # E8 x A1 x A1 in 10 coordinates: its whole Cartan matrix has D10's
    # rank, determinant 4 and norms, so only the edge count tells them
    # apart (8 edges, not 9)
    pad = (Fraction(0),) * 2
    basis = [v + pad for v in build_from_name("E8").simple_roots]
    basis += [vector([0] * 8 + [1, 1]), vector([0] * 8 + [1, -1])]
    d10 = TypeLabel("D", 10)
    assert finite_type([list(row) for row in cartan_matrix(basis)],
                       [norm2(b) for b in basis]) == d10
    assert [str(lab) for lab, _ in shape_match_type(basis)] == \
        ["E8", "A1", "A1"]
    assert match_type(basis) is None
    universe = frozenset(planche_roots(TypeLabel("E", 8)))
    universe = {v + pad for v in universe} | {
        scale(sign, v) for v in basis[8:] for sign in (1, -1)}
    assert certify(d10, basis, universe) == ClosureFailure()


def test_match_type_b_vs_c_orientation():
    b3 = build_from_name("B3")
    assert str(match_type(list(b3.simple_roots))) == "B3"
    c3 = build_from_name("C3")
    assert str(match_type(list(c3.simple_roots))) == "C3"
    # rank 2 double edge is reported as B2 regardless of scale
    b2 = build_from_name("B2")
    assert str(match_type(list(b2.simple_roots))) == "B2"
    c2 = build_from_name("C2")
    assert str(match_type(list(c2.simple_roots))) == "B2"


def _labels_up_to_rank(top):
    out = []
    for family in FAMILIES:
        for rank in range(1, top + 1):
            try:
                out.append(TypeLabel(family, rank))
            except ValueError:
                pass
    return out


def _signed_sample(rng, vectors, size):
    """size vectors up to sign; half the time only pairwise obtuse ones,
    where the simple systems, cycles and affine diagrams are."""
    vectors = list(vectors)
    rng.shuffle(vectors)
    vectors = [neg(v) if rng.random() < 0.5 else v for v in vectors]
    if rng.random() < 0.5:
        return vectors[:size]
    out = []
    for v in vectors:
        if all(dot(u, v) <= 0 for u in out):
            out.append(v)
            if len(out) == size:
                break
    return out


def test_match_type_agrees_with_the_shape_walk():
    # every nonempty subset of the simple roots of every label of rank
    # <= 8, then seeded samples of roots and of sigma_theta up to sign;
    # int copies, as the search hands them over (the typing does not
    # depend on scale, see _check_int_core)
    labels = _labels_up_to_rank(8)
    bases = [subset for label in labels
             for size in range(1, label.rank + 1)
             for subset in combinations(build(label).simple_roots, size)]
    rng = random.Random(20261018)
    for _ in range(1500):
        sys = build(rng.choice(labels))
        bases.append(_signed_sample(rng, planche_roots(sys.label),
                                    rng.randint(1, sys.rank)))
    for _ in range(300):
        sys = build(rng.choice([lab for lab in labels if lab.rank > 1]))
        theta = rng.sample(range(1, sys.rank + 1), rng.randint(1, sys.rank - 1))
        pr = project_all(sys, theta)
        bases.extend(_signed_sample(rng, pr.sigma_theta, rng.randint(1, pr.d))
                     for _ in range(5))
    typed = split = not_definite = 0
    for basis in bases:
        basis = to_ints(basis)[1]
        got = match_type(basis)
        shape = shape_match_type(basis)
        # the oracle's one-component reading: a split basis has no type
        assert got == (shape[0][0] if shape and len(shape) == 1 else None), \
            basis
        typed += got is not None
        split += shape is not None and len(shape) > 1
        n = cartan_matrix(basis)
        not_definite += shape is None and n is not None and all(
            x <= 0 for i, row in enumerate(n) for j, x in enumerate(row)
            if i != j)
    # 5972 bases: 2335 connected and typed, 2739 split into several
    # components and refused, 166 turned down only as not positive definite
    assert len(bases) > 5900 and typed > 2100 and split > 2400 \
        and not_definite > 100


@pytest.mark.parametrize("basis", [
    # each adds the lowest root to a simple system: integral pairings,
    # none positive, one connected diagram, linearly dependent
    pytest.param([vector([1, -1, 0, 0]), vector([0, 1, -1, 0]),
                  vector([0, 0, 1, -1]), vector([0, 0, 1, 1]),
                  vector([-1, -1, 0, 0])], id="affine-D4-star-of-5"),
    pytest.param([vector([1, -1]), vector([0, 2]), vector([-2, 0])],
                 id="affine-C2"),
    pytest.param([vector([1, -1, 0]), vector([-2, 1, 1]), vector([1, 1, -2])],
                 id="affine-G2"),
])
def test_match_type_rejects_affine_diagrams(basis):
    n = cartan_matrix(basis)
    assert n is not None
    assert all(x <= 0 for i, row in enumerate(n) for j, x in enumerate(row)
               if i != j)
    assert match_type(basis) is None
    assert shape_match_type(basis) is None
    # any proper subset is a simple system of finite type, maybe of
    # several components (the centre of the D4 star leaves four A1)
    assert all(shape_match_type(basis[:i] + basis[i + 1:]) is not None
               for i in range(len(basis)))


def test_reflection_closure_single_vector():
    v = vector([1, 0])
    res = reflection_closure([v], frozenset([v, neg(v)]))
    assert res == frozenset([v, neg(v)])


def test_reflection_closure_full_systems():
    for name in ["A3", "B3", "C3", "D4", "F4", "G2"]:
        sys = build_from_name(name)
        roots = frozenset(planche_roots(sys.label))
        res = reflection_closure(list(sys.simple_roots), roots,
                                 max_size=len(roots))
        assert res == roots


def test_reflection_closure_escape_is_named():
    # inside the C4 projection with one glued triple, the long-short pair
    # at ratio 3 starts a hexagon the projected set cannot finish
    c4 = build_from_name("C4")
    pr = project_all(c4, (1, 2))
    u = vector([Fraction(1, 3)] * 3 + [Fraction(0)])
    e4 = vector([0, 0, 0, 1])
    basis = [sub(u, e4), scale(Fraction(2), e4)]
    m = cartan_matrix(basis)
    assert (m[0][1], m[1][0]) == (-1, -3)
    res = reflection_closure(basis, pr.sigma_theta_set, max_size=12)
    assert isinstance(res, ClosureFailure)
    assert res.escaping == sub(scale(Fraction(3), u), e4)


def test_reflection_closure_names_a_basis_vector_outside_the_universe():
    # the basis is checked before any reflection: the first one missing
    # from the universe is the escaping vector
    a2 = build_from_name("A2")
    universe = frozenset(planche_roots(a2.label)) - {a2.simple_roots[1]}
    res = reflection_closure(list(a2.simple_roots), universe)
    assert res == ClosureFailure(escaping=a2.simple_roots[1])


def test_reflection_closure_oversize():
    sys = build_from_name("A3")
    res = reflection_closure(list(sys.simple_roots),
                             frozenset(planche_roots(sys.label)), max_size=5)
    assert isinstance(res, ClosureFailure)
    assert res.oversize


def test_find_f4_in_e8_star_projection():
    pr = project_all(build_from_name("E8"), (2, 3, 4, 5))
    rep = find_subsystem(pr, parse_target("F4"), restrict_to_delta_theta=True)
    assert rep.found and rep.basis_from_delta_theta
    assert rep.certificate.size == 48
    assert set(rep.certificate.basis) == set(pr.delta_theta)
    assert revalidate(rep.certificate, pr.sigma_theta_set)


def test_find_e7_in_e8_unrestricted_only():
    pr = project_all(build_from_name("E8"), (8,))
    rep = find_subsystem(pr, parse_target("E7"))
    assert rep.found and not rep.basis_from_delta_theta
    assert rep.certificate.size == 126
    assert revalidate(rep.certificate, pr.sigma_theta_set)
    rep_r = find_subsystem(pr, parse_target("E7"), restrict_to_delta_theta=True)
    assert not rep_r.found


def test_a3_projection_has_no_rank2_system():
    pr = project_all(build_from_name("A3"), (2,))
    for target in detection_targets(2):
        assert not find_subsystem(pr, target).found


def test_rank_mismatch_raises():
    pr = project_all(build_from_name("F4"), (1, 2))
    with pytest.raises(ValueError):
        find_subsystem(pr, parse_target("F4"))


def naive_find(pr, target):
    """Reference detector: certify every subset of the pool, no pruning."""
    comps = list(target.normalized())

    def rec(ci, pool):
        if ci == len(comps):
            return True
        label = comps[ci]
        for subset in combinations(pool, label.rank):
            if isinstance(certify(label, subset, pr.sigma_theta_set),
                          ClosureFailure):
                continue
            rest = [v for v in pool
                    if all(sum(a * b for a, b in zip(v, s)) == 0
                           for s in subset)]
            if rec(ci + 1, rest):
                return True
        return False

    return rec(0, list(pr.pool()))


def test_find_agrees_with_naive_enumeration_small():
    # every proper theta of a few small systems, all rank-d targets
    for name in ["A3", "A4", "B3", "C3", "D4", "G2"]:
        sys = build_from_name(name)
        for size in range(1, sys.rank):
            for theta in combinations(range(1, sys.rank + 1), size):
                pr = project_all(sys, theta)
                if len(pr.sigma_theta) > 20 or pr.d > 3:
                    continue
                for target in detection_targets(pr.d):
                    got = find_subsystem(pr, target).found
                    want = naive_find(pr, target)
                    assert got == want, (name, theta, str(target))


def naive_find_restricted(pr, target, certified):
    """Reference restricted detector, the pinning rule written out: with
    no exceptional component every factor's basis is a subset of
    delta_theta as given; with one, only the exceptional factors' bases
    are, and the other factors' come from sigma_theta up to sign.  The
    bases must be pairwise orthogonal and each one certified; no pruning.
    It runs on pr's int vectors; ``certified`` memoizes ``certify`` per
    (label, subset) across the targets of one projection."""
    comps = list(target.normalized())
    has_exceptional = any(c.family in ("E", "F", "G") for c in comps)
    universe = pr.sigma_scaled_norms.keys()
    pool = sorted({max(v, neg(v)) for v in universe})

    def rec(ci, used):
        if ci == len(comps):
            return True
        label = comps[ci]
        pinned = not has_exceptional or label.family in ("E", "F", "G")
        source = pr.delta_scaled if pinned else pool
        for subset in combinations(source, label.rank):
            if any(dot(a, b) != 0 for a in subset for b in used):
                continue
            key = (label, subset)
            if key not in certified:
                certified[key] = certify(label, subset, universe)
            if isinstance(certified[key], ClosureFailure):
                continue
            if rec(ci + 1, used + subset):
                return True
        return False

    return rec(0, ())


def test_restricted_find_agrees_with_naive_pinning():
    # every reducible rank-d target at d <= 3 on the small labels of
    # test_find_agrees_with_naive_enumeration_small and the exceptional
    # ones, and every irreducible rank-d target at every theta of F4, E6
    # and E7
    verdicts = Counter()
    for name in ["A3", "A4", "B3", "C3", "D4", "G2", "F4", "E6", "E7", "E8"]:
        sys = build_from_name(name)
        every_irreducible = name in ("F4", "E6", "E7")
        for size in range(1, sys.rank):
            d = sys.rank - size
            if d > 3 and not every_irreducible:
                continue
            # d <= 3: every target, which includes the irreducible ones
            targets = detection_targets(d, reducible=d <= 3)
            for theta in combinations(range(1, sys.rank + 1), size):
                pr = project_all(sys, theta)
                certified = {}
                for target in targets:
                    got = find_subsystem(
                        pr, target, restrict_to_delta_theta=True).found
                    want = naive_find_restricted(pr, target, certified)
                    assert got == want, (name, theta, str(target))
                    verdicts[target.is_irreducible, got] += 1
    assert all(verdicts[irr, found] > 0
               for irr in (False, True) for found in (False, True)), verdicts


@st.composite
def small_queries(draw):
    """(projection, rank-d target) of a label of rank <= 5, inside the
    slice that test_find_agrees_with_naive_enumeration_small sweeps."""
    sys = build(draw(st.sampled_from(
        [lab for lab in _labels_up_to_rank(5) if lab.rank > 1])))
    theta = draw(st.lists(st.integers(1, sys.rank), min_size=1,
                          max_size=sys.rank - 1, unique=True))
    pr = project_all(sys, sorted(theta))
    assume(len(pr.sigma_theta) <= 20 and pr.d <= 3)
    return pr, draw(st.sampled_from(detection_targets(pr.d, reducible=True)))


@settings(max_examples=80, deadline=None)
@given(small_queries())
def test_find_agrees_with_naive_enumeration_random(case):
    pr, target = case
    assert find_subsystem(pr, target).found == naive_find(pr, target)


def test_new_g2_row_in_e8_cross_checked():
    # the D4 x A2 shaped subset left out of the reference tables
    pr = project_all(build_from_name("E8"), (2, 3, 4, 5, 7, 8))
    rep = find_subsystem(pr, parse_target("G2"))
    assert rep.found
    assert revalidate(rep.certificate, pr.sigma_theta_set)
    assert naive_find(pr, parse_target("G2"))
    rep_r = find_subsystem(pr, parse_target("G2"), restrict_to_delta_theta=True)
    assert rep_r.found


def brute_bases(label, pr, pool):
    """What _iter_bases must yield on an int pool: at each census scale,
    every k-subset of the pool at the label's norms there that certify
    accepts, in combinations order.  Where the census classes are exact,
    that is at most one basis."""
    inner = label.reduced
    basis_prof, root_prof = inner.basis_profile, inner.root_profile
    out = []
    for base in census_scales(label, pr.census_scaled):
        norms = {base * rel for rel in basis_prof}
        cands = [v for v in pool if norm2(v) in norms]
        # certify needs every pairing integral and none positive
        obtuse = {(u, v) for u, v in combinations(cands, 2)
                  if cartan_matrix([u, v]) is not None and dot(u, v) <= 0}
        hits = []
        for subset in combinations(cands, label.rank):
            if all(pair in obtuse for pair in combinations(subset, 2)):
                roots = certify(label, subset,
                                pr.sigma_scaled_norms.keys())
                if not isinstance(roots, ClosureFailure):
                    hits.append((subset, roots))
        if all(pr.census_scaled.get(base * rel, 0) == need
               for rel, need in root_prof.items()):
            assert len(hits) <= 1, (label, base)
        out.extend(hits)
    return out


@pytest.mark.parametrize("name, theta", [
    ("E7", (2, 5, 7)), ("E8", (2, 3, 4, 5)), ("E8", (1, 2, 5, 7)),
    ("E8", (1, 2, 5, 8)), ("E8", (1, 2, 6, 8)), ("E8", (1, 4, 6, 8)),
    ("E8", (2, 3, 5, 7)), ("E8", (2, 3, 5, 8)), ("E8", (2, 3, 6, 8)),
    ("E7", (1, 3, 5)), ("E6", (2,)), ("E7", (2, 5)), ("E8", (2, 3, 4)),
    ("E7", (1,)),
])
def test_iter_bases_yields_every_certified_subset_in_order(name, theta):
    # on the pool, every label of rank 3 to 5, past the d <= 3 slice of
    # naive_find.  At rank 4 the first nine hold B4, C4 and D4, and E7
    # (1, 3, 5) none; E7 (2, 5), E8 (2, 3, 4) and E7 (1,) hold D4 and D5
    # as factors of a larger target
    pr = project_all(build_from_name(name), theta)
    for rank in range(3, min(pr.d, 5) + 1):
        for label in irreducible_labels(rank):
            got = list(detect._iter_bases(label, list(pr.pool_scaled), pr))
            assert got == brute_bases(label, pr, pr.pool_scaled), \
                (name, theta, str(label))
    # on delta_theta, the pool of a pinned factor, every label of rank 1
    # to d: every k-subset of delta_theta that certify accepts, scale by
    # scale
    found = 0
    for rank in range(1, pr.d + 1):
        for label in irreducible_labels(rank):
            got = list(detect._iter_bases(label, list(pr.delta_scaled), pr))
            assert got == brute_bases(label, pr, pr.delta_scaled), \
                (name, theta, str(label))
            found += len(got)
    assert found > 0, (name, theta)


def test_census_pruning_is_consistent():
    # found targets always satisfy the census necessary conditions
    for name, theta in [("E8", (2, 3, 4, 5)), ("E8", (1, 2, 3, 4, 5, 6)),
                        ("F4", (1, 2)), ("E6", (1, 3, 5, 6))]:
        sys = build_from_name(name)
        pr = project_all(sys, theta)
        for target in detection_targets(pr.d, reducible=True,
                                        require_exceptional_component=True):
            rep = find_subsystem(pr, target, restrict_to_delta_theta=True)
            if rep.found:
                assert census_admits(target, pr.census)


@pytest.mark.parametrize("name, basis, roots", [
    # (simple roots, roots) per squared length relative to the shortest
    # root, from the Bourbaki planches; BC_k adds 2k doubled short roots
    ("A1", {1: 1}, {1: 2}),
    ("B3", {1: 1, 2: 2}, {1: 6, 2: 12}),
    ("C3", {1: 2, 2: 1}, {1: 12, 2: 6}),
    ("F4", {1: 2, 2: 2}, {1: 24, 2: 24}),
    ("G2", {1: 1, 3: 1}, {1: 6, 3: 6}),
    ("BC1", {1: 1}, {1: 2, 4: 2}),
    ("BC3", {1: 1, 2: 2}, {1: 6, 2: 12, 4: 6}),
])
def test_norm_profiles_match_bourbaki(name, basis, roots):
    label = build_from_name(name).label
    assert (label.basis_profile, label.root_profile) == (basis, roots)


def test_norm_profiles_match_the_catalog():
    # the search reads the profiles, root counts, Cartan determinants and
    # node degrees from a table; count them off the catalog's simple
    # roots, its roots and the planche roots for every label up to rank 8
    for label in _labels_up_to_rank(8):
        system = build(label)
        roots = planche_roots(label)
        short = min(norm2(r) for r in roots)
        counted = tuple(dict(Counter(norm2(v) / short for v in vectors))
                        for vectors in (system.simple_roots, roots))
        assert (label.basis_profile, label.root_profile) == counted, label
        assert label.root_count == len(system.coefficients), label
        cartan = cartan_matrix(to_ints(system.simple_roots)[1])
        k = label.rank
        assert label.cartan_det \
            == bareiss_minors([list(row) for row in cartan], k)[-1], label
        degree = max(sum(1 for j in range(k) if j != i and row[j])
                     for i, row in enumerate(cartan))
        if k >= 3 or label.family == "G":
            assert label.max_degree == degree, label
        else:
            assert label.max_degree >= degree, label


def test_census_conditions_for_g2_and_f4():
    # G2 needs two classes at ratio 3 with >= 6 vectors each; F4 needs
    # ratio 2 with >= 24 each
    pr = project_all(build_from_name("E8"), (1, 2, 3, 4, 5, 6))
    assert find_subsystem(pr, parse_target("G2")).found
    classes = pr.census
    assert any(classes.get(3 * n, 0) >= 6 and c >= 6 for n, c in classes.items())
    pr = project_all(build_from_name("E8"), (2, 3, 4, 5))
    assert find_subsystem(pr, parse_target("F4")).found
    classes = pr.census
    assert any(classes.get(2 * n, 0) >= 24 and c >= 24 for n, c in classes.items())


@pytest.mark.parametrize("name, count", [("F4", 92), ("E7", 294)])
def test_find_subsystem_replays_the_sweep_reference(name, count):
    # every |theta| <= 2 query, every irreducible target, both modes,
    # against the verdicts and closure sizes recorded in the benchmark's
    # reference, with every certificate revalidated from scratch
    path = Path(__file__).resolve().parents[1] / "perfbench" / "reference.json"
    want = json.loads(path.read_text())[f"sweep {name} theta<=2"]["queries"]
    assert len(want) == count
    sys = build_from_name(name)
    prs = {}
    for key, expected in want.items():
        theta_s, target, mode = key.split(";")
        theta = tuple(int(i) for i in theta_s.split(","))
        if theta not in prs:
            prs[theta] = project_all(sys, theta)
        pr = prs[theta]
        rep = find_subsystem(pr, parse_target(target),
                             restrict_to_delta_theta=mode == "restricted")
        size = rep.certificate.size if rep.certificate else 0
        assert [rep.found, size] == expected, key
        if rep.found:
            assert revalidate(rep.certificate, pr.sigma_theta_set), key


def test_restricted_search_screens_the_census_first(monkeypatch):
    # G2 needs six vectors at some norm and six at three times it; the
    # census of F4 theta = {1, 3} has no such pair, so either search must
    # answer without trying any basis, from delta_theta or from the pool
    pr = project_all(build_from_name("F4"), (1, 3))
    target = parse_target("G2")
    assert not census_admits(target, pr.census)

    def no_bases(*args):
        raise AssertionError("a basis was tried after a census reject")

    monkeypatch.setattr(detect, "_iter_bases", no_bases)
    for restricted in (True, False):
        rep = find_subsystem(pr, target, restrict_to_delta_theta=restricted)
        assert (rep.found, rep.restricted, rep.certificate) \
            == (False, restricted, None)


def test_classify_max_rank_f4_theta12():
    pr = project_all(build_from_name("F4"), (1, 2))
    reports = classify_max_rank(pr)
    by_target = {str(r.target): r for r in reports}
    assert by_target["G2"].found
    assert by_target["G2"].basis_from_delta_theta


def test_classify_max_rank_negative_product():
    pr = project_all(build_from_name("E7"), (2, 4, 6, 7))
    reports = classify_max_rank(pr)
    by_target = {str(r.target): r for r in reports}
    assert not by_target["G2xA1"].found
    # the census alone would have let it through
    assert census_admits(parse_target("G2xA1"), pr.census)


def test_classify_max_rank_finds_f4xa1():
    pr = project_all(build_from_name("E8"), (2, 5, 7))
    reports = classify_max_rank(pr)
    by_target = {str(r.target): r for r in reports}
    assert by_target["F4xA1"].found
    assert revalidate(by_target["F4xA1"].certificate, pr.sigma_theta_set)


def test_classify_deterministic():
    pr1 = project_all(build_from_name("E6"), (1, 3, 5, 6))
    pr2 = project_all(build_from_name("E6"), (1, 3, 5, 6))
    r1 = classify_max_rank(pr1)
    r2 = classify_max_rank(pr2)
    assert [(str(r.target), r.found, r.basis_from_delta_theta) for r in r1] == \
        [(str(r.target), r.found, r.basis_from_delta_theta) for r in r2]
    certs1 = [r.certificate.basis for r in r1 if r.certificate]
    certs2 = [r.certificate.basis for r in r2 if r.certificate]
    assert certs1 == certs2


def test_bc_detection_in_b4():
    pr = project_all(build_from_name("B4"), (1, 3))
    rep = find_subsystem(pr, parse_target("BC2"))
    assert rep.found
    assert rep.certificate.size == 12
    assert revalidate(rep.certificate, pr.sigma_theta_set)
    # the plain B2 inside it is found as well
    assert find_subsystem(pr, parse_target("B2")).found


def test_reflect_basics():
    v = vector([1, 0])
    b = vector([1, 1])
    assert reflect(v, b) == vector([0, -1])
    assert reflect(reflect(v, b), b) == v


@pytest.mark.parametrize("name", ["A2", "B3", "C3", "G2", "BC1", "BC2"])
def test_certify_returns_the_catalog_roots(name):
    # the catalog builds each system from its own root formulas, so this
    # checks certify against an independent description of the same set
    sys = build_from_name(name)
    universe = frozenset(planche_roots(sys.label))
    assert certify(sys.label, sys.simple_roots, universe) == universe


def test_certify_type_mismatch_and_escapes():
    c3 = build_from_name("C3")
    res = certify(TypeLabel("B", 3), c3.simple_roots,
                  frozenset(planche_roots(c3.label)))
    assert res == ClosureFailure()
    # a plain closure escape: one A2 root missing from the universe
    a2 = build_from_name("A2")
    missing = max(planche_roots(a2.label))
    res = certify(TypeLabel("A", 2), a2.simple_roots,
                  frozenset(planche_roots(a2.label)) - {missing})
    assert isinstance(res, ClosureFailure) and res.escaping == missing
    # BC needs the doubled short roots: the B2 roots alone do not hold them
    b2 = build_from_name("B2")
    roots = planche_roots(b2.label)
    res = certify(TypeLabel("BC", 2), b2.simple_roots, frozenset(roots))
    doubles = sorted(scale(Fraction(2), v) for v in roots if norm2(v) == 1)
    assert isinstance(res, ClosureFailure) and res.escaping == doubles[0]


def test_certify_reads_a_label_under_its_normalized_name():
    # C2 is B2 and D3 is A3: match_type names such a basis B2 or A3, and
    # certify must accept it under either name.  D2 is A1 x A1, which no
    # basis of one connected component forms
    for label, name in ((TypeLabel("C", 2), "B2"), (TypeLabel("D", 3), "A3"),
                        (TypeLabel("B", 1), "A1"), (TypeLabel("BC", 1), "BC1")):
        sys = build_from_name(name)
        universe = frozenset(planche_roots(sys.label))
        assert certify(label, sys.simple_roots, universe) == universe
    a1a1 = [vector([1, 0]), vector([0, 1])]
    a2 = build_from_name("A2")
    for basis, universe in (
            (a1a1, frozenset(a1a1) | {neg(v) for v in a1a1}),
            (a2.simple_roots, frozenset(planche_roots(a2.label)))):
        res = certify(TypeLabel("D", 2), basis, universe)
        assert res == ClosureFailure()


def test_revalidate_compares_labels_with_target():
    # C3 and B3 both have 18 roots; a C3 copy must not pass as a B3
    c3 = build_from_name("C3")
    universe = frozenset(planche_roots(c3.label))
    witness = ComponentWitness(TypeLabel("C", 3), c3.simple_roots, universe)
    assert revalidate(ClosureCertificate(parse_target("C3"), (witness,)),
                      universe)
    assert not revalidate(ClosureCertificate(parse_target("B3"), (witness,)),
                          universe)
    # revalidate scales to ints by one common denominator, which must come
    # from both sides: the certificate's coordinates are halves, the
    # universe also holds a third
    half = Fraction(1, 2)
    basis = tuple(scale(half, v) for v in c3.simple_roots)
    roots = frozenset(scale(half, v) for v in planche_roots(c3.label))
    third = vector([Fraction(1, 3), 0, 0])
    universe = roots | {third}
    witness = ComponentWitness(TypeLabel("C", 3), basis, roots)
    assert revalidate(ClosureCertificate(parse_target("C3"), (witness,)),
                      universe)
    assert not revalidate(ClosureCertificate(parse_target("B3"), (witness,)),
                          universe)
    # a tampered certificate is rejected: a root dropped or one added
    for forged in (roots - {max(roots)}, roots | {third}):
        assert not revalidate(ClosureCertificate(parse_target("C3"), (
            ComponentWitness(TypeLabel("C", 3), basis, forged),)), universe)
    # and so is a basis the universe does not close, also where a
    # denominator of the certificate's alone would turn (1/3, 1, 0) into
    # the missing root (0, 1, 0)
    e2 = vector([0, 1, 0])
    for short in (universe - {max(roots)}, roots - {e2} | {third, vector(
            [Fraction(1, 3), 1, 0])}):
        assert not revalidate(
            ClosureCertificate(parse_target("C3"), (witness,)), short)


def test_revalidate_refuses_witnesses_that_are_not_orthogonal():
    # two A1 witnesses of an A1xA1 target, each certified on its own: a1
    # and a3 of A3 are orthogonal, a1 and a2 are not
    a3 = build_from_name("A3")
    universe = frozenset(planche_roots(a3.label))

    def witness(v):
        return ComponentWitness(TypeLabel("A", 1), (v,),
                                frozenset({v, neg(v)}))

    a = a3.simple_roots
    target = parse_target("A1xA1")
    assert revalidate(ClosureCertificate(
        target, (witness(a[0]), witness(a[2]))), universe)
    assert not revalidate(ClosureCertificate(
        target, (witness(a[0]), witness(a[1]))), universe)


def _hand_projection(vectors, delta):
    """A projection of the given sigma_theta whose delta_theta is delta,
    a tuple of members of vectors."""
    sigma = tuple(sorted(vectors))
    den, sigma_scaled = to_ints(sigma)
    return ProjectionResult(
        build_from_name("A2"), (), _views(sigma)[2], den,
        tuple(sigma_scaled[sigma.index(v)] for v in delta),
        *_views(sigma_scaled))


def test_six_vectors_of_one_norm_that_are_no_a2():
    # one norm-2 class of exactly six vectors, as an A2 would have, but
    # (7/5, 1/5) makes no 120 degree angle with the other two
    vecs = [vector(v) for v in
            [(1, 1), (1, -1), (Fraction(7, 5), Fraction(1, 5))]]
    pr = _hand_projection(vecs + [neg(v) for v in vecs], vecs[:2])
    assert pr.d == 2 and pr.delta_theta == tuple(vecs[:2])
    assert pr.census == {Fraction(2): 6}
    assert pr.denominator == 5 and pr.census_scaled == {50: 6}
    assert not find_subsystem(pr, parse_target("A2")).found


def test_iter_bases_finds_the_pair_an_exact_census_class_holds():
    # E8 theta = {2, 5, 7} has exactly two vectors of squared norm 1/2,
    # as many as an A1 has roots: the search yields that +-pair first
    pr = project_all(build_from_name("E8"), (2, 5, 7))
    half = Fraction(1, 2)
    assert min(pr.census) == half and pr.census[half] == 2
    base = half * pr.denominator ** 2
    assert base.denominator == 1 and pr.census_scaled[int(base)] == 2
    v = max(u for u in pr.sigma_scaled_norms if norm2(u) == base)
    assert from_ints([v], pr.denominator)[0] \
        == max(u for u in pr.sigma_theta if norm2(u) == half)
    hits = detect._iter_bases(TypeLabel("A", 1), list(pr.pool_scaled), pr)
    assert next(hits) == ((v,), frozenset([v, neg(v)]))


# ---------------------------------------------------------------------------
# the int core: the search runs on sigma_theta times its common denominator


def _image(result, den):
    """A closure or certify result scaled by den, in a form that compares
    int and Fraction coordinates by value."""
    if isinstance(result, ClosureFailure):
        esc = result.escaping
        return (None if esc is None else scale(den, esc), result.oversize)
    return frozenset(scale(den, v) for v in result)


def _check_int_core(pr, basis, label):
    """On the int copy, match_type, reflection_closure and certify give
    the image of their Fraction results under scaling by the denominator."""
    den = pr.denominator
    ints = [tuple(int(x) for x in scale(den, v)) for v in basis]
    assert set(ints) <= pr.sigma_scaled_norms.keys()
    universe = pr.sigma_scaled_norms.keys()
    assert match_type(ints) == match_type(basis)
    for max_size in (None, label.root_count):
        want = reflection_closure(basis, pr.sigma_theta_set, max_size)
        assert _image(reflection_closure(ints, universe, max_size), 1) == \
            _image(want, den)
        # and the Fraction result is right by the oracle's reflect
        if not isinstance(want, ClosureFailure):
            assert all(reflect(v, b) in want for v in want for b in basis)
        elif want.escaping is not None:
            assert want.escaping not in pr.sigma_theta_set
            assert any(reflect(v, b) == want.escaping
                       for v in pr.sigma_theta for b in basis)
    got = certify(label, ints, universe)
    assert _image(got, 1) == \
        _image(certify(label, basis, pr.sigma_theta_set), den)
    if not isinstance(got, ClosureFailure):
        assert all(type(x) is int for v in got for x in v)


SMALL_SYSTEMS = ["A3", "B3", "C3", "G2", "A4", "B4", "C4", "D4", "F4", "BC3"]


@st.composite
def pool_bases(draw):
    """(projection, basis drawn from its pool with signs, label of its rank)."""
    sys = build_from_name(draw(st.sampled_from(SMALL_SYSTEMS)))
    theta = draw(st.lists(st.integers(1, sys.rank), min_size=1,
                          max_size=sys.rank - 1, unique=True))
    pr = project_all(sys, sorted(theta))
    picks = draw(st.lists(st.sampled_from(pr.pool()), min_size=1,
                          max_size=min(3, len(pr.pool())), unique=True))
    flips = draw(st.lists(st.booleans(), min_size=len(picks),
                          max_size=len(picks)))
    basis = [neg(v) if f else v for v, f in zip(picks, flips)]
    return pr, basis, draw(st.sampled_from(irreducible_labels(len(basis))))


@settings(max_examples=120, deadline=None)
@given(pool_bases())
def test_int_core_is_the_scaled_fraction_core(case):
    _check_int_core(*case)


def test_int_core_with_a_non_integral_pairing():
    # B3 theta={2}: pairings -2/3 and -2, so the reflection coefficient of
    # one basis vector along the other leaves a remainder
    pr = project_all(build_from_name("B3"), (2,))
    basis = [pr.pool()[0], pr.pool()[2]]
    assert sorted(x for row in pairing_matrix(basis) for x in row) == \
        [-2, Fraction(-2, 3), 2, 2]
    assert cartan_matrix(basis) is None
    for label in irreducible_labels(2):
        _check_int_core(pr, basis, label)
    _check_int_core(pr, basis[:1], TypeLabel("A", 1))


@pytest.mark.parametrize("name", ["F4", "E6"])
def test_certificates_hold_the_fraction_vectors_of_sigma_theta(name):
    # an int leaking out of the search would print the same bytes, so
    # only the coordinate types tell
    sys = build_from_name(name)
    seen = 0
    for theta in proper_subsets(sys.rank):
        pr = project_all(sys, theta)
        reports = classify_max_rank(pr)
        for target in detection_targets(pr.d):
            for restricted in (False, True):
                reports.append(find_subsystem(pr, target, restricted))
        for rep in reports:
            if rep.certificate is None:
                continue
            for w in rep.certificate.components:
                for v in (*w.basis, *w.roots):
                    seen += 1
                    assert all(type(x) is Fraction for x in v)
                    assert v in pr.sigma_theta_set
    assert seen > 0


@pytest.mark.parametrize("name", ["F4", "C4", "C5", "BC4"])
def test_every_found_factor_lists_its_basis_in_search_order(name):
    # one basis order for every found copy: a factor pinned to delta_theta
    # in delta_theta order, any other in pool order, by (squared norm,
    # coords), the order in which the depth-first search picks it
    sys = build_from_name(name)
    factors = 0
    for theta in proper_subsets(sys.rank):
        pr = project_all(sys, theta)
        pool = {v: i for i, v in enumerate(pr.pool())}
        delta = {v: i for i, v in enumerate(pr.delta_theta)}
        for target in detection_targets(pr.d, reducible=True):
            pin_all = not target.has_exceptional_component
            for restricted in (False, True):
                rep = find_subsystem(pr, target, restricted)
                if not rep.found:
                    continue
                for w in rep.certificate.components:
                    pinned = restricted and (pin_all or w.label.is_exceptional)
                    order = delta if pinned else pool
                    idx = [order[v] for v in w.basis]
                    assert idx == sorted(idx), (name, theta, str(target),
                                                restricted, w.basis)
                    factors += 1
    assert factors > 0


def test_dfs_hands_certify_only_integral_pairings(monkeypatch):
    # the DFS prunes every pair whose Cartan pairing leaves a remainder or
    # is positive.  Its lex-positive pool lies in an open half-space, where
    # obtuse vectors are independent, so each basis it completes is a
    # simple system of finite type, and its reconnect rule keeps the
    # diagram connected at the last pick: every leaf has one type
    leaves = []

    def record(label, basis, universe):
        leaves.append(tuple(basis))
        return ClosureFailure()

    monkeypatch.setattr(detect, "certify", record)
    e7 = build_from_name("E7")
    for theta in [(2, 5, 7), (1, 2, 5), (2, 3, 7), (1, 3, 5, 6), (2, 4, 6, 7)]:
        pr = project_all(e7, theta)
        for label in irreducible_labels(pr.d):
            list(detect._iter_bases(label, list(pr.pool_scaled), pr))
    assert leaves
    for basis in leaves:
        assert cartan_matrix(basis) is not None, basis
        # independent, obtuse and integral: a simple system of finite type,
        # which the shape walk types, and connected, so match_type does
        assert shape_match_type(basis) is not None, basis
        assert match_type(basis) is not None, basis


def test_iter_bases_is_handed_half_space_pools_only(monkeypatch):
    # the DFS tests no independence: it relies on its pool lying in one
    # open half-space, so every pool the searches hand it must be a part
    # of the lex-positive pool or of the linearly independent
    # delta_theta, and both kinds must occur
    pools = []
    iter_bases = detect._iter_bases

    def spy(label, pool, pr):
        pools.append((pool, pr))
        return iter_bases(label, pool, pr)

    monkeypatch.setattr(detect, "_iter_bases", spy)
    for name, theta in [("E7", (2, 5, 7)), ("E7", (1, 3, 5, 6)),
                        ("E7", (1, 2, 5)), ("E8", (2, 3, 4, 5)),
                        ("E8", (1, 2, 5, 7)), ("E8", (2, 5, 7, 8))]:
        pr = project_all(build_from_name(name), theta)
        classify_max_rank(pr)
        for target in detection_targets(pr.d, reducible=True):
            for restricted in (False, True):
                find_subsystem(pr, target, restrict_to_delta_theta=restricted)
    kinds = Counter()
    for pool, pr in pools:
        in_pool = set(pool) <= set(pr.pool_scaled)
        in_delta = set(pool) <= set(pr.delta_scaled)
        assert in_pool or in_delta, pool
        kinds[in_pool, in_delta] += 1
        # some pools are narrowed to the vectors orthogonal to the
        # factors placed before
        kinds["narrowed"] += len(pool) < (len(pr.pool_scaled) if in_pool
                                          else len(pr.delta_scaled))
    assert kinds[True, False] and kinds[False, True] and kinds["narrowed"], \
        kinds


# E6's diagram automorphism: 1 <-> 6, 3 <-> 5, with 2 and 4 fixed
E6_FLIP = {1: 6, 2: 2, 3: 5, 4: 4, 5: 3, 6: 1}


def test_e6_diagram_automorphism_keeps_every_verdict():
    # -w0 permutes the simple roots of E6 by the flip, as an isometry, so
    # theta and its image project to isometric systems: the same d and
    # census, the same maximal-rank reports, and the same verdict for
    # every rank-d target in both modes
    e6 = build_from_name("E6")

    def summary(theta):
        pr = project_all(e6, theta)
        reports = [(r.target, r.found, r.basis_from_delta_theta,
                    r.certificate.size if r.certificate else 0)
                   for r in classify_max_rank(pr)]
        verdicts = [find_subsystem(pr, target, restricted).found
                    for target in detection_targets(pr.d, reducible=True)
                    for restricted in (False, True)]
        return pr.d, pr.census, reports, verdicts

    summaries = {theta: summary(theta) for theta in proper_subsets(6)}
    moved = [theta for theta in summaries if theta != tuple(sorted(
        E6_FLIP[i] for i in theta))]
    assert len(moved) == 48
    for theta in moved:
        image = tuple(sorted(E6_FLIP[i] for i in theta))
        assert summaries[image] == summaries[theta], (theta, image)


def _count_search_work(monkeypatch) -> Counter:
    """Count the search's work as it runs: queries (``find_subsystem``
    calls), census rejects, backtracking nodes (``_grow`` calls),
    ``certify`` calls and the closures they certify."""
    work = Counter()
    tallies = {
        "find_subsystem": lambda report: {"queries": 1},
        "census_admits": lambda admitted: {"rejects": not admitted},
        "_grow": lambda nodes: {"_grow": 1},
        "certify": lambda roots: {
            "certify": 1,
            "certified": not isinstance(roots, ClosureFailure)},
    }

    def counted(inner, tally):
        def call(*args):
            result = inner(*args)
            work.update(tally(result))
            return result
        return call

    for name, tally in tallies.items():
        monkeypatch.setattr(detect, name,
                            counted(getattr(detect, name), tally))
    return work


def test_search_work_is_pinned(monkeypatch):
    # the search's work over F4 and E6: every theta, every reducible
    # rank-d target, both modes.  A change that keeps the search shows
    # the same counts; a faster search that keeps every verdict shows
    # fewer backtracking nodes (_grow calls) or closures (certify calls),
    # and then this pin moves with a stated reason.  Every basis _grow
    # completes is connected; the 38 that do not certify are D4 queries
    # answered by an A4 path, which has D4's norms and degree bound
    work = _count_search_work(monkeypatch)
    for name in ("F4", "E6"):
        sys = build_from_name(name)
        for theta in proper_subsets(sys.rank):
            pr = project_all(sys, theta)
            for target in detection_targets(pr.d, reducible=True):
                for restricted in (False, True):
                    work["found"] += detect.find_subsystem(
                        pr, target, restricted).found
    assert dict(work) == {"queries": 3970, "found": 180, "rejects": 3182,
                          "_grow": 28141, "certify": 9154,
                          "certified": 9116}


def test_enumerate_search_work_is_pinned(monkeypatch):
    # the search behind `enumerate E7`: classify_max_rank on every theta.
    # The census screen rejects all but 11 of its queries; each of the 5
    # bases the backtracking completes certifies, and they make 4 found
    # reports
    work = _count_search_work(monkeypatch)
    e7 = build_from_name("E7")
    for theta in proper_subsets(7):
        reports = classify_max_rank(project_all(e7, theta))
        work["found"] += sum(rep.found for rep in reports)
    assert dict(work) == {"queries": 1285, "found": 4, "rejects": 1274,
                          "_grow": 26, "certify": 5, "certified": 5}
