import random
from collections import Counter
from fractions import Fraction

import pytest

from oracles import (ExpansionConsistencyError, add, build_from_name,
                     expansion_over_delta_theta, planche_roots,
                     project_vector, simple_root_expansion, vector, zero)
from rootproj.classify import proper_subsets
from rootproj.linalg import (dot, from_ints, is_zero, neg, norm2, scale, sub,
                            to_ints)
from rootproj.projection import project_all


def gram_schmidt_project(t, alphas):
    """Independent projector: orthogonalize theta, then peel components."""
    basis = []
    for a in alphas:
        w = a
        for b in basis:
            w = sub(w, scale(dot(w, b) / dot(b, b), b))
        if not is_zero(w):
            basis.append(w)
    out = t
    for b in basis:
        out = sub(out, scale(dot(out, b) / dot(b, b), b))
    return out


A3 = build_from_name("A3")
HALF = Fraction(1, 2)
A3_THETA_2 = (A3.simple_roots[1],)


def test_project_a3_basis_vector():
    # e_2 projected orthogonally to alpha_2 averages the glued pair
    got = project_vector(A3_THETA_2, vector([0, 1, 0, 0]))
    assert got == vector([0, HALF, HALF, 0])


def test_project_kills_span_theta():
    assert is_zero(project_vector(A3_THETA_2, A3.simple_roots[1]))


def test_project_a3_root():
    got = project_vector(A3_THETA_2, vector([1, -1, 0, 0]))
    assert got == vector([1, -HALF, -HALF, 0])


def test_project_matches_gram_schmidt_everywhere():
    rng = random.Random(4)
    cases = [("A4", (2, 3)), ("B4", (1, 3)), ("B4", (3, 4)), ("C4", (2, 3)),
             ("C5", (1, 4, 5)), ("D5", (2, 5)), ("F4", (2, 3)), ("G2", (1,)),
             ("E6", (1, 3)), ("E7", (2, 5, 7)), ("E8", (2, 3, 4, 5))]
    for name, theta in cases:
        sys = build_from_name(name)
        alphas = [sys.simple_roots[i - 1] for i in theta]
        roots = planche_roots(sys.label)
        for r in rng.sample(roots, min(25, len(roots))):
            assert project_vector(alphas, r) == gram_schmidt_project(r, alphas)


def _oracle_thetas():
    rng = random.Random(11)
    for name in ("F4", "E6", "E7", "E8"):
        sys = build_from_name(name)
        thetas = list(proper_subsets(sys.rank))
        if sys.rank > 6:
            thetas = rng.sample(thetas, 6)
        for theta in thetas:
            yield sys, theta


def test_project_all_matches_projecting_every_root():
    # project_all reads sigma_theta off the root coefficients; the
    # Euclidean projector applied to every root is the oracle
    for sys, theta in _oracle_thetas():
        alphas = [sys.simple_roots[i - 1] for i in theta]
        expect = {project_vector(alphas, r) for r in planche_roots(
            sys.label)} - {zero(len(alphas[0]))}
        pr = project_all(sys, theta)
        assert pr.sigma_theta_set == expect, (sys.label, theta)
        assert pr.census == dict(Counter(norm2(v) for v in expect))


KERNEL_EVERY_THETA = ["A2", "A3", "A4", "A5", "A6", "B2", "B3", "B4", "B5",
                      "B6", "C3", "C4", "C5", "C6", "D4", "D5", "D6", "G2",
                      "F4", "E6"]
KERNEL_SAMPLED = ["A8", "B8", "C8", "D8", "E7", "E8"]


@pytest.mark.parametrize("name", KERNEL_EVERY_THETA + KERNEL_SAMPLED)
def test_delta_theta_kernel_matches_the_fraction_projector(name):
    # project_all solves delta_theta by integer elimination; the Fraction
    # Gram inverse of the oracle projector decides, down to the scaling
    sys = build_from_name(name)
    thetas = list(proper_subsets(sys.rank))
    if name in KERNEL_SAMPLED:
        thetas = random.Random(name).sample(thetas, 16)
    for theta in thetas:
        alphas = [sys.simple_roots[i - 1] for i in theta]
        delta = tuple(project_vector(alphas, sys.simple_roots[i - 1])
                      for i in range(1, sys.rank + 1) if i not in theta)
        pr = project_all(sys, theta)
        assert (pr.denominator, pr.delta_scaled) == to_ints(delta), theta
        assert pr.delta_theta == delta, theta


def test_project_all_leaves_the_fraction_solve_out(monkeypatch):
    # the int kernel divides no Fraction; any Fraction solve would
    e6 = build_from_name("E6")

    def no_fraction_division(*args):
        raise AssertionError("Fraction division in project_all")

    monkeypatch.setattr(Fraction, "__truediv__", no_fraction_division)
    monkeypatch.setattr(Fraction, "__rtruediv__", no_fraction_division)
    for theta in proper_subsets(e6.rank):
        assert project_all(e6, theta).d == e6.rank - len(theta)


def test_project_all_a3():
    pr = project_all(A3, (2,))
    assert len(pr.sigma_theta) == 6
    assert pr.census == {Fraction(2): 2, Fraction(3, 2): 4}
    assert pr.d == 2
    assert len(set(pr.delta_theta)) == 2


def test_project_all_e8_singleton_census():
    pr = project_all(build_from_name("E8"), (8,))
    assert pr.census == {Fraction(2): 126, Fraction(3, 2): 56}


def test_project_all_e7_singleton_census_derived():
    # derived by counting: 60 roots orthogonal to the chosen simple root
    # keep their length, the remaining 64 non-proportional roots pair up
    # into 32 distinct projections of squared length 3/2
    e7 = build_from_name("E7")
    pr = project_all(e7, (1,))
    alpha = e7.simple_roots[0]
    orthogonal = [r for r in planche_roots(e7.label) if dot(r, alpha) == 0]
    assert len(orthogonal) == 60
    assert pr.census == {Fraction(2): 60, Fraction(3, 2): 32}


def test_improper_theta_rejected():
    with pytest.raises(ValueError):
        project_all(A3, ())
    with pytest.raises(ValueError):
        project_all(A3, (1, 2, 3))


def test_expansion_of_delta_theta_entry():
    pr = project_all(A3, (2,))
    coeff = expansion_over_delta_theta(pr.delta_theta[0], pr)
    assert coeff == (1, 0)


def test_expansion_a3_long_root():
    pr = project_all(A3, (2,))
    v = vector([1, 0, 0, -1])  # e_1 - e_4 projects to itself
    assert expansion_over_delta_theta(v, pr) == (1, 1)
    assert expansion_over_delta_theta(neg(v), pr) == (-1, -1)


def test_expansion_rejects_outside_span():
    pr = project_all(A3, (2,))
    with pytest.raises(ExpansionConsistencyError):
        expansion_over_delta_theta(vector([1, 0, 0, 0]), pr)


SAMPLE_SYSTEMS = ["A3", "A5", "B3", "B5", "C4", "C6", "D4", "D6",
                  "E6", "E7", "F4", "G2"]


def _random_theta(rng, rank):
    size = rng.randint(1, rank - 1)
    return tuple(sorted(rng.sample(range(1, rank + 1), size)))


def test_projection_invariants_randomized():
    rng = random.Random(20240801)
    for name in SAMPLE_SYSTEMS:
        sys = build_from_name(name)
        for _ in range(3):
            theta = _random_theta(rng, sys.rank)
            alphas = [sys.simple_roots[i - 1] for i in theta]
            roots = planche_roots(sys.label)
            pr = project_all(sys, theta)
            # negation closure
            sources = set(pr.sigma_theta)
            assert all(neg(v) in sources for v in sources)
            for r in rng.sample(roots, min(12, len(roots))):
                p = project_vector(alphas, r)
                # idempotence and exact orthogonality
                assert project_vector(alphas, p) == p
                assert all(dot(p, a) == 0 for a in alphas)
                # kernel characterization via the simple-root expansion
                coeff = simple_root_expansion(sys, r)
                outside = [c for i, c in enumerate(coeff, start=1)
                           if i not in theta]
                assert is_zero(p) == all(c == 0 for c in outside)
            # linearity on random rational combinations
            u, w = rng.sample(roots, 2)
            a = Fraction(rng.randint(-5, 5), rng.randint(1, 4))
            b = Fraction(rng.randint(-5, 5), rng.randint(1, 4))
            combo = add(scale(a, u), scale(b, w))
            assert project_vector(alphas, combo) == add(
                scale(a, project_vector(alphas, u)),
                scale(b, project_vector(alphas, w)))


def test_delta_theta_never_collides_and_lies_in_sigma_theta():
    rng = random.Random(7)
    for name in SAMPLE_SYSTEMS:
        sys = build_from_name(name)
        for _ in range(4):
            theta = _random_theta(rng, sys.rank)
            pr = project_all(sys, theta)
            assert len(set(pr.delta_theta)) == pr.d
            assert set(pr.delta_theta) <= set(pr.sigma_theta)


def test_pool_is_one_rep_per_pair():
    pr = project_all(A3, (2,))
    pool = pr.pool()
    assert len(pool) == 3
    assert all(v > neg(v) for v in pool)
    norms = [norm2(v) for v in pool]
    assert norms == sorted(norms)


@pytest.mark.parametrize("name, max_size", [
    ("F4", 3), ("E6", 5), ("E7", 6), ("E8", 2)])
def test_int_views_map_onto_the_fraction_ones(name, max_size):
    # project_all takes the census, member set and pool of sigma_theta and
    # of sigma_theta times the denominator; divided by it, the int views
    # are the Fraction ones, the pool in the same order
    sys = build_from_name(name)
    for theta in proper_subsets(sys.rank):
        if len(theta) > max_size:
            break
        pr = project_all(sys, theta)
        den = pr.denominator
        assert from_ints(pr.pool_scaled, den) == pr.pair_reps == pr.pool()
        assert all(type(n) is int for n in pr.census_scaled)
        assert {Fraction(n, den * den): c
                for n, c in pr.census_scaled.items()} == pr.census
        assert len(pr.sigma_scaled_set) == len(pr.sigma_theta_set)
        assert frozenset(from_ints(pr.sigma_scaled_set, den)) \
            == pr.sigma_theta_set
        # sigma is sorted, closed under negation and zero-free, so its
        # lex-positive half, the pool's members, is its upper half
        scaled = tuple(sorted(pr.sigma_scaled_set))
        for sigma, pool in ((pr.sigma_theta, pr.pair_reps),
                            (scaled, pr.pool_scaled)):
            assert list(sigma) == sorted(set(sigma))
            assert {neg(v) for v in sigma} == set(sigma)
            assert not any(is_zero(v) for v in sigma)
            half = len(sigma) // 2
            assert len(sigma) == 2 * len(pool)
            assert all(v > neg(v) for v in sigma[half:])
            assert set(sigma[half:]) == set(pool)
