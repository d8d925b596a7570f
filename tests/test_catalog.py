import gc
from fractions import Fraction
from itertools import product

import pytest

from oracles import (add, build_from_name, matrix, planche_roots,
                     simple_root_expansion, vector, zero)
from rootproj import catalog
from rootproj.catalog import (FAMILIES, Target, TypeLabel, build,
                              cartan_matrix, check_theta, detection_targets,
                              irreducible_labels, normalize_components,
                              parse_label, parse_target)
from rootproj.detect import match_type, reflection_closure
from rootproj.linalg import scale

# A second realization of type-E roots in R^8, indexed over Z/8, which
# checks match_type and reflection_closure away from the catalog's own
# simple systems.
_HALF = vector([Fraction(s, 2) for s in (1, 1, 1, 1, -1, -1, -1, -1)])


def _diff(i, j):
    """e_i - e_j, indices from 0."""
    return vector([(k == i) - (k == j) for k in range(8)])


def cyclic_e8_generators():
    """The balanced half-sum vector plus the consecutive coordinate
    differences, wrapping once around the cycle.  All eight are E8 roots
    but lie in the sum-zero hyperplane, so they span rank 7 only: their
    closure inside E8 is the 126-root E7 there."""
    return (_HALF,) + tuple(_diff(i, i - 1) for i in range(2, 8)) \
        + (_diff(0, 7),)


def cyclic_e7_basis():
    """The balanced half-sum vector, five consecutive differences and one
    unbalanced half-sum vector: an E7 simple system inside E8."""
    beta = vector([Fraction(s, 2) for s in (-1, 1, 1, 1, 1, 1, -1, 1)])
    return (_HALF,) + tuple(_diff(i, i - 1) for i in range(2, 7)) + (beta,)


ALL_LABELS = ["A1", "A2", "A3", "A4", "A5", "A6",
              "B2", "B3", "B4", "B5", "B6",
              "C2", "C3", "C4", "C5", "C6",
              "D2", "D3", "D4", "D5", "D6",
              "BC1", "BC2", "BC3", "BC4",
              "E6", "E7", "E8", "F4", "G2"]


@pytest.mark.parametrize("name", ALL_LABELS)
def test_root_counts(name):
    sys = build_from_name(name)
    assert len(sys.coefficients) == sys.label.root_count
    assert len(set(sys.coefficients)) == len(sys.coefficients)


def _labels_up_to_rank_8():
    out = []
    for rank in range(1, 9):
        for family in FAMILIES:
            try:
                out.append(TypeLabel(family, rank))
            except ValueError:
                pass
    return out


def catalog_roots(sys):
    """The roots the catalog's coefficients stand for, sum c_i a_i."""
    out = []
    for c in sys.coefficients:
        root = zero(len(sys.simple_roots[0]))
        for ci, alpha in zip(c, sys.simple_roots):
            root = add(root, scale(Fraction(ci), alpha))
        out.append(root)
    return out


@pytest.mark.parametrize("label", _labels_up_to_rank_8(), ids=str)
def test_coefficients_stand_for_the_planche_roots(label):
    # every family at ranks 1-8 (B1, C1 and BC1 included) and E6-E8, F4,
    # G2: the coefficient vectors are one-signed and, over the simple
    # roots, give exactly the roots Bourbaki's planches list
    sys = build(label)
    assert all(min(c) >= 0 or max(c) <= 0 for c in sys.coefficients)
    roots = catalog_roots(sys)
    assert len(roots) == len(set(roots)) == label.root_count
    assert set(roots) == set(planche_roots(label))


def test_root_count_formulas():
    assert build_from_name("E6").label.root_count == 72
    assert build_from_name("E8").label.root_count == 240
    assert build_from_name("A1").coefficients == ((-1,), (1,))
    assert planche_roots(TypeLabel("A", 1)) == (
        vector([-1, 1]), vector([1, -1]))


@pytest.mark.parametrize("name", ALL_LABELS)
def test_cartan_entries_are_valid(name):
    sys = build_from_name(name)
    n = sys.rank
    cartan = cartan_matrix(sys.simple_roots)
    for i in range(n):
        for j in range(n):
            c = cartan[i][j]
            assert c.denominator == 1
            if i == j:
                assert c == 2
            else:
                assert int(c) in (0, -1, -2, -3)


def _chain_cartan(n):
    return [[2 if i == j else (-1 if abs(i - j) == 1 else 0)
             for j in range(n)] for i in range(n)]


def _cartan(name):
    return cartan_matrix(build_from_name(name).simple_roots)


def test_standard_cartan_matrices():
    assert _cartan("A3") == matrix(_chain_cartan(3))
    b3 = _chain_cartan(3)
    b3[1][2], b3[2][1] = -2, -1  # short end column carries the -2
    assert _cartan("B3") == matrix(b3)
    c3 = _chain_cartan(3)
    c3[1][2], c3[2][1] = -1, -2
    assert _cartan("C3") == matrix(c3)
    d4 = [[2, -1, 0, 0], [-1, 2, -1, -1], [0, -1, 2, 0], [0, -1, 0, 2]]
    assert _cartan("D4") == matrix(d4)
    f4 = _chain_cartan(4)
    f4[1][2], f4[2][1] = -2, -1
    assert _cartan("F4") == matrix(f4)
    assert _cartan("G2") == matrix([[2, -1], [-3, 2]])
    e8 = _cartan("E8")
    edges = {(1, 3), (3, 4), (4, 5), (5, 6), (6, 7), (7, 8), (2, 4)}
    for i in range(1, 9):
        for j in range(i + 1, 9):
            expect = -1 if (i, j) in edges else 0
            assert e8[i - 1][j - 1] == expect
            assert e8[j - 1][i - 1] == expect


def test_cartan_matrix_rejects_a_non_integral_pairing():
    # 2<a, b>/<b, b> = 2/5 for a = (1, 0), b = (1, 2); the B2 pair below
    # has a half-integral root and still pairs integrally, in ints
    assert cartan_matrix([vector([1, 0]), vector([1, 2])]) is None
    half = Fraction(1, 2)
    m = cartan_matrix([vector([1, 0]), vector([-half, half])])
    assert m == ((2, -2), (-1, 2))
    assert all(type(c) is int for row in m for c in row)
    assert all(type(c) is int for row in _cartan("F4") for c in row)


@pytest.mark.parametrize("name", ALL_LABELS)
def test_every_root_has_one_signed_integral_expansion(name):
    # the planche roots solved over the simple roots by the Fraction
    # oracle: integral, one-signed, and the catalog's coefficients
    sys = build_from_name(name)
    expansions = set()
    for r in planche_roots(sys.label):
        coeff = simple_root_expansion(sys, r)
        assert all(c.denominator == 1 for c in coeff)
        assert all(c >= 0 for c in coeff) or all(c <= 0 for c in coeff)
        expansions.add(coeff)
    assert expansions == set(sys.coefficients)


def _roots(name):
    return set(catalog_roots(build_from_name(name)))


def test_bc_contains_b_and_c_at_full_rank():
    roots = _roots("BC3")
    assert _roots("B3") < roots
    assert _roots("C3") < roots


def test_e7_e6_sit_inside_e8():
    assert _roots("E7") < _roots("E8")
    assert _roots("E6") < _roots("E7")


def test_cyclic_generators_close_to_rank7_subsystem():
    universe = frozenset(planche_roots(TypeLabel("E", 8)))
    gens = cyclic_e8_generators()
    assert set(gens) < universe
    # coefficient sums vanish, so the span has rank 7 and the closure is
    # the E7 living in the sum-zero hyperplane
    assert all(sum(v) == 0 for v in gens)
    orbit = reflection_closure(gens, universe, max_size=240)
    assert len(orbit) == 126
    positives = sorted(v for v in orbit if v > tuple(-x for x in v))
    pset = set(positives)
    simples = [p for p in positives
               if not any(tuple(a - b for a, b in zip(p, q)) in pset
                          for q in positives if q != p)]
    assert str(match_type(simples)) == "E7"


def test_cyclic_e7_basis_is_an_e7_inside_e8():
    universe = frozenset(planche_roots(TypeLabel("E", 8)))
    basis = cyclic_e7_basis()
    assert set(basis) < universe
    assert str(match_type(list(basis))) == "E7"
    orbit = reflection_closure(basis, universe, max_size=126)
    assert not isinstance(orbit, type(None)) and len(orbit) == 126


def test_check_theta_out_of_range():
    with pytest.raises(ValueError):
        check_theta(build_from_name("A3"), (0,))
    with pytest.raises(ValueError):
        check_theta(build_from_name("A3"), (4,))


def test_parse_labels():
    assert parse_label("E8") == TypeLabel("E", 8)
    assert parse_label("bc3") == TypeLabel("BC", 3)
    assert parse_label("a5") == TypeLabel("A", 5)
    with pytest.raises(ValueError):
        parse_label("H4")
    with pytest.raises(ValueError):
        parse_label("E9")
    with pytest.raises(ValueError):
        parse_label("G3")


def test_parse_target_products():
    t = parse_target("g2xa1")
    assert str(t) == "G2xA1"
    assert t.rank == 3
    assert sum(c.root_count for c in t.components) == 14
    assert parse_target("A1xG2") == t


def test_parse_target_rejects_empty_components():
    for text in ("E7x", "xE7", "E6xxA1", "x", ""):
        with pytest.raises(ValueError, match="cannot parse target"):
            parse_target(text)


def test_normalization():
    assert normalize_components((TypeLabel("C", 2),)) == (TypeLabel("B", 2),)
    assert normalize_components((TypeLabel("B", 1),)) == (TypeLabel("A", 1),)
    assert normalize_components((TypeLabel("D", 2),)) == (
        TypeLabel("A", 1), TypeLabel("A", 1))
    assert normalize_components((TypeLabel("D", 3),)) == (TypeLabel("A", 3),)
    assert normalize_components((TypeLabel("BC", 2),)) == (TypeLabel("BC", 2),)


def test_reduced_type():
    # the first label of irreducible_labels(rank) with the same Cartan
    # determinant and simple-root profile (Bourbaki VI, planches I-IX)
    for text, reduced in [("B1", "A1"), ("C1", "A1"), ("BC1", "A1"),
                          ("C2", "B2"), ("BC2", "B2"), ("D3", "A3"),
                          ("BC5", "B5"), ("C3", "C3"), ("D4", "D4")]:
        assert parse_label(text).reduced == parse_label(reduced), text
    assert TypeLabel("D", 2).reduced is None
    # every other label of irreducible_labels is its own reduced type
    for rank in range(1, 13):
        for lab in irreducible_labels(rank):
            if lab.family != "BC" and str(lab) != "C2":
                assert lab.reduced == lab


def test_detection_targets_rank2():
    names = {str(t) for t in detection_targets(2)}
    assert names == {"A2", "B2", "C2", "G2", "BC2"}


def test_detection_targets_reducible_rank4():
    names = {str(t) for t in detection_targets(4, reducible=True,
                                               require_exceptional_component=True)}
    assert "A2xG2" in names
    assert "G2xA1xA1" in names
    assert "B2xG2" in names
    assert "F4" in names
    assert "G2xG2" in names
    assert all("G" in n or "F" in n or "E" in n for n in names)


def test_detection_targets_reducible_rank5():
    names = {str(t) for t in detection_targets(5, reducible=True,
                                               require_exceptional_component=True)}
    assert "F4xA1" in names
    assert "A3xG2" in names


def test_detection_targets_returns_one_immutable_tuple():
    # the targets are built once per arguments and shared: a tuple, so a
    # caller cannot change what the next caller gets
    first = detection_targets(4, reducible=True,
                              require_exceptional_component=True)
    assert isinstance(first, tuple)
    assert detection_targets(4, reducible=True,
                             require_exceptional_component=True) == first
    with pytest.raises(AttributeError):
        first.append(first[0])


def test_detection_targets_deterministic():
    a = detection_targets(4, reducible=True, require_exceptional_component=True)
    b = detection_targets(4, reducible=True, require_exceptional_component=True)
    assert [str(t) for t in a] == [str(t) for t in b]
    # irreducible entries come before products
    kinds = [t.is_irreducible for t in a]
    assert kinds == sorted(kinds, reverse=True)


def _reference_targets(d, reducible, exceptional):
    """detection_targets the long way: every tuple of irreducible labels
    of non-increasing rank summing to d (only single labels unless
    reducible), as a Target, deduplicated, then sorted with the
    irreducible targets first and the rest by their components'
    sort keys."""
    def tuples(remaining, max_rank):
        if remaining == 0:
            yield ()
        for r in range(min(remaining, max_rank), 0, -1):
            for lab in irreducible_labels(r):
                for rest in tuples(remaining - r, r):
                    yield (lab,) + rest

    targets = {Target(parts) for parts in tuples(d, d)
               if reducible or len(parts) == 1}
    return sorted((t for t in targets
                   if t.has_exceptional_component or not exceptional),
                  key=lambda t: (not t.is_irreducible,
                                 [lab.sort_key for lab in t.components]))


@pytest.mark.parametrize("reducible, exceptional",
                         product((False, True), repeat=2))
def test_detection_targets_match_the_reference(reducible, exceptional):
    # the same targets in the same order, every rank the E types reach
    for d in range(1, 9):
        assert list(detection_targets(d, reducible, exceptional)) \
            == _reference_targets(d, reducible, exceptional), d


def test_detection_targets_one_object_per_argument_values():
    # the cache is keyed on the values, not on how they are passed
    first = detection_targets(7, True, True)
    assert detection_targets(7, reducible=True,
                             require_exceptional_component=True) is first
    assert detection_targets(d=7, require_exceptional_component=True,
                             reducible=True) is first
    assert detection_targets(7) is detection_targets(7, False, False)


def test_detection_targets_leave_no_cyclic_garbage():
    # the targets come from a module-level recursion: building every rank
    # afresh leaves nothing for the cyclic collector
    catalog._targets.cache_clear()
    gc.disable()
    try:
        gc.collect()
        for d in range(1, 9):
            for flags in product((False, True), repeat=2):
                detection_targets(d, *flags)
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_type_label_invariants():
    with pytest.raises(ValueError):
        TypeLabel("E", 5)
    with pytest.raises(ValueError):
        TypeLabel("F", 3)
    with pytest.raises(ValueError):
        TypeLabel("D", 1)
    with pytest.raises(ValueError):
        TypeLabel("A", 0)


@pytest.mark.parametrize("family, rank, message", [
    ("A", 0, "rank must be positive"),
    ("BC", 0, "rank must be positive"),
    ("D", 1, "D needs rank >= 2"),
    ("E", 5, "E exists only in ranks 6, 7, 8"),
    ("E", 9, "E exists only in ranks 6, 7, 8"),
    ("F", 3, "F exists only in rank 4"),
    ("G", 3, "G exists only in rank 2"),
    ("X", 1, "unknown family 'X'"),
])
def test_type_label_refusal_messages(family, rank, message):
    # a refusal names what the planches allow, word for word: the CLI
    # prints it as its one error line
    with pytest.raises(ValueError) as refused:
        TypeLabel(family, rank)
    assert str(refused.value) == message


@pytest.mark.parametrize("rank", [1.5, 1.0, True, "1"])
def test_type_label_refuses_a_rank_that_is_no_int(rank):
    # A1.5 and ATrue are no labels, so build is never handed one; a
    # bool is refused although True == 1
    with pytest.raises(ValueError) as refused:
        TypeLabel("A", rank)
    assert str(refused.value) == f"rank {rank!r} is not an int"


def test_detection_targets_refuse_rank_zero():
    for flags in product((False, True), repeat=2):
        with pytest.raises(ValueError, match="^rank must be positive$"):
            detection_targets(0, *flags)


def test_ambient_dimensions():
    for name, dim in (("A5", 6), ("B4", 4), ("E6", 8), ("F4", 4), ("G2", 3)):
        assert len(build_from_name(name).simple_roots[0]) == dim
