"""Exact vector arithmetic, over Fractions and over scaled ints.

At the package's public edge every coordinate of a root or of a
projection is a ``fractions.Fraction`` (beside the scaled int copies a
``ProjectionResult`` also carries), and the other ints there are counts,
root coefficients over the simple roots and Cartan integers.  The
geometric discriminations downstream (squared lengths 2/3 vs 4/3 vs 2,
Cartan pairings in {0, -1, -2, -3}) are exact-ratio tests, so no
floating point is allowed anywhere.  Inside
``detect`` the same vectors run as int tuples, scaled by one common
denominator (``to_ints``); every ratio test is unchanged by that
scaling, and the vector helpers here (``dot``, ``sub``, ``scale``, ...)
work on either kind.  One fraction-free elimination, ``bareiss_minors``,
gives the leading principal minors of an int matrix: ``bareiss_solve``
solves with it, and ``catalog`` tests a Cartan matrix for finite type
with it (every minor positive; Kac, Infinite-dimensional Lie Algebras,
Thm 4.3), the last minor being the Cartan determinant of ``catalog``'s
table.  ``detect``'s basis search needs no elimination of its own: its
pool lies in one open half-space, where obtuse vectors are independent
(Humphreys, Introduction to Lie Algebras and Representation Theory,
10.1).  Vectors are plain tuples and matrices (Gram and Cartan) are
tuples of row tuples; everything here is immutable and pure, hence safe
to share across processes.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from operator import mul
from typing import Iterable, List, Sequence, Tuple

Vector = Tuple[Fraction, ...]
IntVector = Tuple[int, ...]
Matrix = Tuple[Tuple[Fraction, ...], ...]


def is_zero(v: Vector) -> bool:
    return all(x == 0 for x in v)


def dot(u: Vector, v: Vector) -> Fraction:
    if len(u) != len(v):
        raise ValueError(f"dimension mismatch: {len(u)} != {len(v)}")
    return sum(map(mul, u, v))


def sub(u: Vector, v: Vector) -> Vector:
    if len(u) != len(v):
        raise ValueError(f"dimension mismatch: {len(u)} != {len(v)}")
    return tuple(a - b for a, b in zip(u, v))


def scale(c: Fraction, v: Vector) -> Vector:
    return tuple(c * a for a in v)


def neg(v: Vector) -> Vector:
    return tuple(-a for a in v)


def norm2(v: Vector) -> Fraction:
    """Squared Euclidean length."""
    return dot(v, v)


def bareiss_minors(rows: List[List[int]], n: int) -> List[int]:
    """Leading principal minors of the left n x n block of int rows, up to
    the first that is not positive: the pivots of Bareiss's fraction-free
    elimination (Math. Comp. 22, 1968), which clears the rows below each
    pivot in place with exact divisions.  All n come back positive
    exactly when a symmetric block is positive definite (Sylvester)."""
    minors, prev = [], 1
    for k in range(n):
        pivot = rows[k]
        p = pivot[k]
        minors.append(p)
        if p <= 0:
            break
        for i in range(k + 1, n):
            f = rows[i][k]
            rows[i] = [(p * x - f * y) // prev for x, y in zip(rows[i], pivot)]
        prev = p
    return minors


def bareiss_solve(g: Sequence[IntVector], rhs: Sequence[IntVector]
                  ) -> Tuple[int, Tuple[IntVector, ...]]:
    """(det g, det g * g^-1 rhs) for a positive definite int matrix g (the
    Gram matrix of independent int vectors, say) and int rows rhs, by
    ``bareiss_minors``.  Every division is exact: det g * g^-1 is
    integral by Cramer's rule."""
    n = len(g)
    rows = [list(a) + list(b) for a, b in zip(g, rhs)]
    det = bareiss_minors(rows, n)[-1]
    if det <= 0:
        raise ValueError("matrix is not positive definite")
    sol = [()] * n
    for i in reversed(range(n)):
        row = rows[i]
        sol[i] = tuple(
            (det * b - sum(row[j] * sol[j][c] for j in range(i + 1, n)))
            // row[i] for c, b in enumerate(row[n:]))
    return det, tuple(sol)


def gram(basis: Sequence[Vector]) -> Matrix:
    """Matrix of inner products <b_i, b_j>; symmetric."""
    return tuple(tuple(dot(a, b) for b in basis) for a in basis)


def to_ints(vectors: Sequence[Vector]) -> Tuple[int, Tuple[IntVector, ...]]:
    """(D, the vectors times D as int tuples), D the least common
    denominator of all their coordinates."""
    den = lcm(*(x.denominator for v in vectors for x in v))
    return den, tuple(tuple(x.numerator * (den // x.denominator) for x in v)
                      for v in vectors)


def from_ints(vectors: Iterable[IntVector], den: int) -> Tuple[Vector, ...]:
    """The vectors divided by den, with one Fraction per distinct int."""
    vectors = tuple(vectors)
    fracs = {x: Fraction(x, den) for x in {x for v in vectors for x in v}}
    return tuple(tuple(fracs[x] for x in v) for v in vectors)


def int_combine(coeffs: Iterable[Sequence[int]], basis: Sequence[IntVector]
                ) -> List[IntVector]:
    """sum_i c_i b_i for every integer coefficient row c over an int
    basis, sorted."""
    cols = tuple(zip(*basis))
    return sorted(tuple(sum(map(mul, c, col)) for col in cols) for c in coeffs)

