"""Independent Fraction oracles that the tests check the package against.

No command needs them: the package reads every root's coefficients off
the catalog, solves delta_theta by integer elimination and reads every
other projection off delta_theta.  Here the same quantities are solved
from scratch by a Fraction Gauss-Jordan inverse of the Gram matrix, so
the tests can confirm the projections, and that roots and projected
roots expand integrally and with one sign.
"""

from fractions import Fraction
from functools import lru_cache
from typing import Iterable, Optional, Sequence, Tuple

from rootproj.catalog import RealizedRootSystem
from rootproj.linalg import Matrix, Vector, dot, gram, norm2, scale, sub
from rootproj.projection import ProjectionResult


class SingularMatrixError(ValueError):
    """Inversion was asked of a rank-deficient matrix."""


class ExpansionConsistencyError(ArithmeticError):
    """An expansion that must be integral and one-signed was not."""


def vector(coords: Iterable) -> Vector:
    return tuple(Fraction(c) for c in coords)


def matrix(rows: Iterable[Iterable]) -> Matrix:
    out = tuple(tuple(Fraction(x) for x in row) for row in rows)
    if out and any(len(row) != len(out[0]) for row in out):
        raise ValueError("matrix rows must all have the same length")
    return out


def zero(dim: int) -> Vector:
    return (Fraction(0),) * dim


def add(u: Vector, v: Vector) -> Vector:
    if len(u) != len(v):
        raise ValueError(f"dimension mismatch: {len(u)} != {len(v)}")
    return tuple(a + b for a, b in zip(u, v))


def reflect(v: Vector, b: Vector) -> Vector:
    """Image of v under the reflection through the hyperplane normal to b."""
    c = 2 * dot(v, b) / norm2(b)
    return sub(v, scale(c, b)) if c != 0 else v


def mat_vec(v: Vector, m: Matrix) -> Vector:
    """Row vector times matrix."""
    if len(v) != len(m):
        raise ValueError("inner dimensions disagree")
    return tuple(
        sum((v[i] * m[i][j] for i in range(len(v))), Fraction(0))
        for j in range(len(m[0]))
    )


def invert(m: Matrix) -> Matrix:
    """Exact inverse by Gauss-Jordan elimination.

    Pivoting takes the first nonzero entry in the column; over Q there is
    no magnitude heuristic to apply.  Raises SingularMatrixError when no
    pivot exists.
    """
    n = len(m)
    if any(len(row) != n for row in m):
        raise ValueError("only square matrices can be inverted")
    aug = [list(row) + [Fraction(1) if i == j else Fraction(0) for j in range(n)]
           for i, row in enumerate(m)]
    for col in range(n):
        pivot_row = next((r for r in range(col, n) if aug[r][col] != 0), None)
        if pivot_row is None:
            raise SingularMatrixError("matrix is not invertible")
        if pivot_row != col:
            aug[col], aug[pivot_row] = aug[pivot_row], aug[col]
        pivot = aug[col][col]
        aug[col] = [x / pivot for x in aug[col]]
        for r in range(n):
            if r != col and aug[r][col] != 0:
                factor = aug[r][col]
                aug[r] = [x - factor * y for x, y in zip(aug[r], aug[col])]
    return tuple(tuple(row[n:]) for row in aug)


@lru_cache(maxsize=None)
def _gram_inverse(basis: Tuple[Vector, ...]) -> Matrix:
    return invert(gram(basis))


def solve(v: Vector, basis: Sequence[Vector]) -> Vector:
    """Coefficients c of the orthogonal projection sum c_i b_i of v onto
    the span of a linearly independent basis: c G = (<v, b_i>) with the
    Gram matrix G of the basis, inverted once per basis."""
    return mat_vec(tuple(dot(v, b) for b in basis), _gram_inverse(tuple(basis)))


def project_vector(alphas: Sequence[Vector], t: Vector) -> Vector:
    """The component of t orthogonal to span(alphas), alphas independent."""
    out = t
    for c, a in zip(solve(t, alphas), alphas):
        out = sub(out, scale(c, a))
    return out


def expand(v: Vector, basis: Sequence[Vector]) -> Optional[Vector]:
    """Coefficients c with sum c_i b_i = v, or None if v is not in the span.

    The basis must be linearly independent; the reconstruction is checked.
    """
    coeff = solve(v, basis)
    recon = zero(len(v))
    for c, b in zip(coeff, basis):
        recon = add(recon, scale(c, b))
    return coeff if recon == v else None


def simple_root_expansion(sys: RealizedRootSystem, v: Vector
                          ) -> Tuple[Fraction, ...]:
    """Coefficients of v over the simple roots, solved exactly.

    Raises ValueError when v is not in the span of the simple roots.
    For actual roots the coefficients are integers, all of one sign.
    """
    coeff = expand(v, sys.simple_roots)
    if coeff is None:
        raise ValueError("vector is not in the span of the simple roots")
    return coeff


def expansion_over_delta_theta(v: Vector, pr: ProjectionResult
                               ) -> Tuple[Fraction, ...]:
    """Coefficients of v over delta_theta; integral and one-signed.

    Every element of sigma_theta is an integer combination of the
    projected simple roots with all coefficients of one sign, because
    projection is linear and roots expand that way over the simple roots.
    A violation is reported as ExpansionConsistencyError.
    """
    if not pr.delta_theta:
        raise ValueError("delta_theta is empty")
    coeff = expand(v, pr.delta_theta)
    if coeff is None:
        raise ExpansionConsistencyError(f"{v} is not in the span of delta_theta")
    if any(c.denominator != 1 for c in coeff):
        raise ExpansionConsistencyError(
            f"non-integral expansion {coeff} for {v}")
    if any(c > 0 for c in coeff) and any(c < 0 for c in coeff):
        raise ExpansionConsistencyError(
            f"mixed-sign expansion {coeff} for {v}")
    return coeff
