"""Orthogonal projection of roots onto the complement of a chosen simple-root subset.

Given a system with simple roots a_1..a_n and a subset theta of indices,
``project`` sends any vector t to its component orthogonal to
span(a_i : i in theta).  The coefficients of the subtracted combination
solve the exact linear system

    sum_j c_j <a_j, a_i> = <t, a_i>      for every i in theta,

which in Cartan-matrix form reads ``C_theta^T  c = v`` with
``v_i = 2 <t, a_i> / <a_i, a_i>`` and the convention
``C[i][j] = 2 <a_i, a_j> / <a_j, a_j>``.  Orthogonality of the result is
an exact identity, asserted by the test suite over every family.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Dict, Sequence, Tuple

from . import linalg
from .catalog import RealizedRootSystem, cartan_subtype, check_theta
from .linalg import Matrix, Vector, dot, invert, is_zero, mat_vec, norm2, sub, transpose


class ExpansionConsistencyError(ArithmeticError):
    """An expansion that must be integral and one-signed was not.

    Raising this means an internal invariant of the lattice geometry was
    violated; it signals a bug, never bad user input.
    """


@dataclass(frozen=True)
class ThetaProjector:
    """Reusable projector for one (system, theta) pair."""

    system: RealizedRootSystem
    theta: Tuple[int, ...]
    _alphas: Tuple[Vector, ...]
    _solve: Matrix  # inverse Cartan subtype, applied on the right of v

    @staticmethod
    def create(sys: RealizedRootSystem, theta: Sequence[int],
               allow_improper: bool = False) -> "ThetaProjector":
        idx = check_theta(sys, theta, allow_improper)
        alphas = tuple(sys.simple_root(i) for i in idx)
        c_theta = cartan_subtype(sys, idx)
        # orthogonality of t - sum c_j a_j to every a_i reads, row-vector
        # style, c * C_theta = v under the n_ij = 2<a_i,a_j>/<a_j,a_j>
        # convention, so c = v * C_theta^{-1}
        solve = invert(c_theta) if idx else tuple()
        return ThetaProjector(sys, idx, alphas, solve)

    def project(self, t: Vector) -> Vector:
        if len(t) != self.system.ambient_dim:
            raise ValueError("vector does not live in the ambient space")
        if not self.theta:
            return t
        v = tuple(2 * dot(t, a) / norm2(a) for a in self._alphas)
        coeff = mat_vec(v, self._solve)
        out = t
        for c, a in zip(coeff, self._alphas):
            if c != 0:
                out = sub(out, linalg.scale(c, a))
        return out


def project(t: Vector, sys: RealizedRootSystem, theta: Sequence[int],
            allow_improper: bool = False) -> Vector:
    """Project t orthogonally to the simple roots indexed by theta."""
    return ThetaProjector.create(sys, theta, allow_improper).project(t)


@dataclass(frozen=True)
class ProjectionResult:
    """All nonzero projections of the roots, plus those of the simple roots.

    sigma_theta is deduplicated and sorted; delta_theta keeps the index
    order of the simple roots outside theta and is not deduplicated.  The
    census maps each squared length to the number of distinct vectors of
    that length in sigma_theta.  sigma_theta_set and the search pool are
    views of sigma_theta, built once by project_all.
    """

    system: RealizedRootSystem
    theta: Tuple[int, ...]
    d: int
    sigma_theta: Tuple[Vector, ...]
    delta_theta: Tuple[Vector, ...]
    census: Dict[Fraction, int]
    delta_theta_collision: bool
    sigma_theta_set: frozenset = field(repr=False, compare=False)
    _pool: Tuple[Vector, ...] = field(repr=False, compare=False)

    def pool(self) -> Tuple[Vector, ...]:
        """One representative per +-pair, sorted by (squared norm, coords)."""
        return self._pool


def project_all(sys: RealizedRootSystem, theta: Sequence[int],
                allow_improper: bool = False) -> ProjectionResult:
    """Project every root, drop zeros, deduplicate, and take the census."""
    proj = ThetaProjector.create(sys, theta, allow_improper)
    seen = set()
    for r in sys.roots:
        p = proj.project(r)
        if not is_zero(p):
            seen.add(p)
    sigma = tuple(sorted(seen))
    delta = tuple(proj.project(sys.simple_root(i))
                  for i in range(1, sys.rank + 1) if i not in set(proj.theta))
    collision = len(set(delta)) != len(delta)
    census = dict(Counter(norm2(v) for v in sigma))
    reps = {max(v, linalg.neg(v)) for v in sigma}
    return ProjectionResult(
        system=sys,
        theta=proj.theta,
        d=sys.rank - len(proj.theta),
        sigma_theta=sigma,
        delta_theta=delta,
        census=census,
        delta_theta_collision=collision,
        sigma_theta_set=frozenset(seen),
        _pool=tuple(sorted(reps, key=lambda v: (norm2(v), v))),
    )


def expansion_over_delta_theta(v: Vector, pr: ProjectionResult) -> Tuple[Fraction, ...]:
    """Coefficients of v over delta_theta; integral and one-signed.

    Every element of sigma_theta is an integer combination of the
    projected simple roots with all coefficients of one sign, because
    projection is linear and roots expand that way over the simple roots.
    A violation is reported as ExpansionConsistencyError.
    """
    basis = pr.delta_theta
    if not basis:
        raise ValueError("delta_theta is empty")
    gram = tuple(tuple(dot(a, b) for b in basis) for a in basis)
    rhs = tuple(dot(v, a) for a in basis)
    coeff = mat_vec(rhs, invert(transpose(gram)))
    # confirm the solve: v must equal the combination exactly
    recon = linalg.zero(len(v))
    for c, a in zip(coeff, basis):
        recon = linalg.add(recon, linalg.scale(c, a))
    if recon != v:
        raise ExpansionConsistencyError(f"{v} is not in the span of delta_theta")
    if any(c.denominator != 1 for c in coeff):
        raise ExpansionConsistencyError(
            f"non-integral expansion {coeff} for {v}")
    if any(c > 0 for c in coeff) and any(c < 0 for c in coeff):
        raise ExpansionConsistencyError(
            f"mixed-sign expansion {coeff} for {v}")
    return coeff
