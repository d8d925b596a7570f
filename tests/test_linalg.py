import random
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import SingularMatrixError, invert, mat_vec, matrix, vector
from rootproj.linalg import bareiss_minors, bareiss_solve, dot, gram, sub


def transpose(m):
    return tuple(tuple(row[j] for row in m) for j in range(len(m[0])))


def identity(n):
    return matrix([[int(i == j) for j in range(n)] for i in range(n)])


def mat_mul(a, b):
    """Reference product for checking invert; the package needs none."""
    return tuple(tuple(dot(row, col) for col in transpose(b)) for row in a)


def test_dot_orthonormal_basis():
    assert dot(vector([1, 0, 0]), vector([0, 1, 0])) == 0


@pytest.mark.parametrize("m", [1, 2, 3, 5])
def test_dot_averaged_basis_vector_norm(m):
    # (e_r + ... + e_{r+m}) / (m+1) has squared length 1/(m+1)
    v = vector([Fraction(1, m + 1)] * (m + 1))
    assert dot(v, v) == Fraction(1, m + 1)


def test_dot_half_integer_example():
    u = vector([Fraction(1, 2), Fraction(1, 2), Fraction(-1, 2), Fraction(-1, 2)])
    assert dot(u, vector([1, 0, 0, 0])) == Fraction(1, 2)


def test_dot_dimension_mismatch():
    with pytest.raises(ValueError):
        dot(vector([1, 2]), vector([1, 2, 3]))


def test_sub_dimension_mismatch():
    with pytest.raises(ValueError, match="^dimension mismatch: 2 != 3$"):
        sub(vector([1, 2]), vector([1, 2, 3]))


def test_invert_1x1():
    assert invert(matrix([[2]])) == matrix([[Fraction(1, 2)]])


def test_invert_cartan_a2():
    a2 = matrix([[2, -1], [-1, 2]])
    inv = invert(a2)
    assert inv == matrix([[Fraction(2, 3), Fraction(1, 3)],
                          [Fraction(1, 3), Fraction(2, 3)]])
    assert mat_mul(a2, inv) == identity(2)
    assert mat_mul(inv, a2) == identity(2)


def test_invert_singular():
    with pytest.raises(SingularMatrixError):
        invert(matrix([[1, 1], [1, 1]]))


def test_mat_vec_identity():
    assert mat_vec(vector([1, 0]), identity(2)) == vector([1, 0])


def test_mat_vec_solves_cartan_system():
    a2t = transpose(matrix([[2, -1], [-1, 2]]))
    assert mat_vec(vector([2, -1]), invert(a2t)) == vector([1, 0])


def test_mat_vec_zero():
    assert mat_vec(vector([0, 0]), matrix([[3, 4], [5, 6]])) == vector([0, 0])


def test_invert_roundtrip_random_integer_matrices():
    rng = random.Random(20240817)
    done = 0
    while done < 500:
        n = rng.randint(1, 8)
        m = matrix([[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)])
        try:
            inv = invert(m)
        except SingularMatrixError:
            continue
        assert mat_mul(m, inv) == identity(n)
        assert mat_mul(inv, m) == identity(n)
        done += 1


def fraction_det(m):
    """Reference determinant by Fraction elimination with row swaps."""
    rows = [list(map(Fraction, row)) for row in m]
    det = Fraction(1)
    for k in range(len(rows)):
        p = next((r for r in range(k, len(rows)) if rows[r][k]), None)
        if p is None:
            return Fraction(0)
        if p != k:
            rows[k], rows[p] = rows[p], rows[k]
            det = -det
        det *= rows[k][k]
        for r in range(k + 1, len(rows)):
            f = rows[r][k] / rows[k][k]
            rows[r] = [x - f * y for x, y in zip(rows[r], rows[k])]
    return det


def test_bareiss_solve_random_gram_matrices():
    # Gram matrices of independent int vectors are positive definite;
    # bareiss_solve must return their exact determinant and the int
    # solution of g x = det * rhs
    rng = random.Random(20261018)
    done = 0
    while done < 200:
        n = rng.randint(1, 7)
        vecs = [tuple(rng.randint(-3, 3) for _ in range(8)) for _ in range(n)]
        g = gram(vecs)
        det = fraction_det(g)
        if det == 0:
            continue
        rhs = [tuple(rng.randint(-9, 9) for _ in range(3)) for _ in range(n)]
        got_det, sol = bareiss_solve(g, rhs)
        assert got_det == det
        assert all(type(x) is int for row in sol for x in row)
        assert mat_mul(g, sol) == tuple(tuple(det * x for x in row)
                                        for row in rhs)
        done += 1


def test_bareiss_minors_stop_at_the_first_that_is_not_positive():
    # the minors of random int matrices, Cartan-like and not symmetric,
    # are the determinants of their leading blocks, up to the first one
    # that is not positive; bareiss_solve refuses such a matrix
    rng = random.Random(4)
    stopped = 0
    for _ in range(300):
        n = rng.randint(1, 6)
        m = [[2 if i == j else rng.choice((0, 0, -1, -1, -2, -3))
              for j in range(n)] for i in range(n)]
        want = [fraction_det([row[:k] for row in m[:k]])
                for k in range(1, n + 1)]
        cut = next((k + 1 for k, x in enumerate(want) if x <= 0), n)
        assert bareiss_minors([list(row) for row in m], n) == want[:cut]
        if want[cut - 1] <= 0:
            stopped += 1
            with pytest.raises(ValueError, match="not positive definite"):
                bareiss_solve(m, [(1,)] * n)
    assert stopped > 50


def test_fractions_canonical():
    # scalars coming out of arithmetic stay in lowest terms, denominator > 0
    rng = random.Random(99)
    for _ in range(300):
        a = Fraction(rng.randint(-40, 40), rng.randint(1, 23))
        b = Fraction(rng.randint(-40, 40), rng.randint(1, 23))
        for q in (a + b, a - b, a * b):
            assert q.denominator > 0
            assert gcd(abs(q.numerator), q.denominator) == 1


fracs = st.builds(Fraction, st.integers(-1000, 1000), st.integers(1, 20))


@settings(max_examples=150, deadline=None)
@given(st.lists(st.tuples(fracs, fracs, fracs), min_size=1, max_size=6))
def test_dot_symmetric(pairs):
    u = vector([p[0] for p in pairs])
    v = vector([p[1] for p in pairs])
    assert dot(u, v) == dot(v, u)


@settings(max_examples=150, deadline=None)
@given(st.lists(st.tuples(fracs, fracs, fracs), min_size=1, max_size=6),
       fracs, fracs)
def test_dot_bilinear(triples, a, b):
    u = vector([t[0] for t in triples])
    v = vector([t[1] for t in triples])
    w = vector([t[2] for t in triples])
    lhs = dot(tuple(a * x + b * y for x, y in zip(u, v)), w)
    assert lhs == a * dot(u, w) + b * dot(v, w)
