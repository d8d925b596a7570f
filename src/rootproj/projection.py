"""Orthogonal projection of roots onto the complement of a chosen simple-root subset.

Given a system with simple roots a_1..a_n and a subset theta of indices,
the component of a vector t orthogonal to span(a_i : i in theta) is
t - sum_j c_j a_j, where the coefficients solve the exact linear system

    sum_j c_j <a_j, a_i> = <t, a_i>      for every i in theta,

that is ``c G = v`` with the Gram matrix ``G[j][i] = <a_j, a_i>`` of the
theta simple roots and ``v_i = <t, a_i>``.

``project_all`` solves it only for the simple roots outside theta
(delta_theta), in ints.  With the simple roots scaled to int vectors
s*a_i, Bareiss elimination on the theta block of their int Gram matrix
(s^2 G, positive definite) gives det and x_i = det * G^-1 v_i for each
outside root a_i at once; s*det*delta_i = det*(s*a_i) - sum_j x_ij (s*a_j)
is integral, and dividing it and s*det by their gcd gives exactly
``to_ints`` of delta_theta.  Every other projection is an integer
combination of delta_theta, read off the root coefficients.  The result
stores sigma_theta as ints, with its census and pool, and the Fraction
pool (``_views`` builds both); every other Fraction view is derived.
``detect`` searches the ints, and ``output`` writes the Fractions.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from math import gcd
from typing import Dict, NamedTuple, Sequence, Tuple

from . import linalg
from .catalog import RealizedRootSystem, check_theta
from .linalg import (IntVector, Vector, bareiss_solve, dot, from_ints, gram,
                     int_combine, norm2, to_ints)


class ProjectionResult(NamedTuple):
    """All nonzero projections of the roots, plus those of the simple roots.

    Eight fields are stored.  pair_reps holds one vector of each +-pair
    of sigma_theta.  delta_scaled is delta_theta (the projected simple
    roots outside theta, in index order, not deduplicated) times
    ``denominator``, a common denominator of both, as int tuples;
    census_scaled, sigma_scaled_set and pool_scaled are the views of
    sigma_theta times ``denominator``: the census counts the vectors of
    each squared length, the keys scaled by its square.  d, delta_theta,
    sigma_theta (deduplicated and sorted), census and sigma_theta_set
    are derived from these on each read.

    The search reads the int fields and ``denominator``; of the Fraction
    views only ``output`` reads sigma_theta, delta_theta and census, and
    no package code reads sigma_theta_set or pool(): they are kept for
    library callers and for perfbench's sweep.
    """

    system: RealizedRootSystem
    theta: Tuple[int, ...]
    pair_reps: Tuple[Vector, ...]
    denominator: int
    delta_scaled: Tuple[IntVector, ...]
    census_scaled: Dict[int, int]
    sigma_scaled_set: frozenset
    pool_scaled: Tuple[IntVector, ...]

    d = property(lambda self: len(self.delta_scaled))
    delta_theta = property(
        lambda self: from_ints(self.delta_scaled, self.denominator))
    sigma_theta = property(
        lambda self: from_ints(sorted(self.sigma_scaled_set), self.denominator))
    census = property(lambda self: {Fraction(k, self.denominator ** 2): c
                                    for k, c in self.census_scaled.items()})
    sigma_theta_set = property(lambda self: frozenset(self.sigma_theta))

    def pool(self) -> Tuple[Vector, ...]:
        """One representative per +-pair, sorted by (squared norm, coords)."""
        return self.pair_reps


def _views(vectors: tuple) -> Tuple[dict, tuple]:
    """(census, pool) of a sorted, negation-closed tuple of Fraction or
    int vectors; the pool holds the lex-larger vector of each +-pair,
    sorted by (squared norm, coords)."""
    norms = {v: norm2(v) for v in vectors}
    reps = {max(v, linalg.neg(v)) for v in vectors}
    return (dict(Counter(norms.values())),
            tuple(sorted(reps, key=lambda v: (norms[v], v))))


def project_all(sys: RealizedRootSystem, theta: Sequence[int]
                ) -> ProjectionResult:
    """Project the simple roots outside theta, read sigma_theta off the
    root coefficients, and take the census.

    Projection is linear and kills the theta coordinates, and delta_theta
    is linearly independent, so the nonzero projections of the roots are
    exactly sum c_i delta_i over the distinct nonzero restrictions c of
    the root coefficient vectors to the indices outside theta.
    """
    idx = check_theta(sys, theta)
    outside = [i for i in range(sys.rank) if i + 1 not in idx]
    # delta_theta in ints, solved as the module docstring says
    s, a = to_ints(sys.simple_roots)
    inner = [a[i - 1] for i in idx]
    det, x = bareiss_solve(
        gram(inner), [[dot(u, a[o]) for o in outside] for u in inner])
    rows = [tuple(det * y - dot(xs, col) for y, col in zip(a[o], zip(*inner)))
            for o, xs in zip(outside, zip(*x))]
    g = gcd(s * det, *(y for row in rows for y in row))
    den = s * det // g
    delta_scaled = tuple(tuple(y // g for y in row) for row in rows)
    restrictions = {tuple(c[i] for i in outside) for c in sys.coefficients}
    restrictions.discard((0,) * len(outside))
    sigma_scaled = tuple(int_combine(restrictions, delta_scaled))
    # mapping pool_scaled to pair_reps (ROADMAP item 2) waits for item 1
    _, pair_reps = _views(from_ints(sigma_scaled, den))
    census_scaled, pool_scaled = _views(sigma_scaled)
    return ProjectionResult(sys, idx, pair_reps, den, delta_scaled,
                            census_scaled, frozenset(sigma_scaled), pool_scaled)
