"""Independent Fraction oracles that the tests check the package against.

No command needs them: the package reads every root's coefficients off
the catalog, solves delta_theta by integer elimination and reads every
other projection off delta_theta.  Here the same quantities are solved
from scratch by a Fraction Gauss-Jordan inverse of the Gram matrix, so
the tests can confirm the projections, and that roots and projected
roots expand integrally and with one sign.  ``shape_match_type`` types a
candidate basis the way the package did before it used the finite-type
criterion: from Fraction pairings, by walking the shape of the Dynkin
diagram.
"""

from fractions import Fraction
from functools import lru_cache
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from rootproj.catalog import RealizedRootSystem, TypeLabel
from rootproj.linalg import (Matrix, Vector, dot, gram, is_zero, norm2, scale,
                             sub)
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


def pairing_matrix(basis: Sequence[Vector]) -> Matrix:
    """Pairings 2 <b_i, b_j> / <b_j, b_j> of a basis as exact Fractions,
    integral or not."""
    for b in basis:
        if is_zero(b):
            raise ValueError("zero vector in candidate basis")
    norms = [norm2(b) for b in basis]
    return tuple(
        tuple(Fraction(2 * dot(a, b), nb) for b, nb in zip(basis, norms))
        for a in basis
    )


def _classify_component(comp: List[int], n: Matrix) -> Optional[TypeLabel]:
    """Type of one connected component of an integral pairing matrix."""
    k = len(comp)
    if k == 1:
        return TypeLabel("A", 1)
    edges = []
    adj: Dict[int, List[int]] = {i: [] for i in comp}
    for ai, i in enumerate(comp):
        for j in comp[ai + 1:]:
            w = int(n[i][j] * n[j][i])
            if w:
                edges.append((i, j, w))
                adj[i].append(j)
                adj[j].append(i)
    if len(edges) != k - 1:
        return None  # a cycle: no finite type
    deg = {i: len(adj[i]) for i in comp}
    triple = [e for e in edges if e[2] == 3]
    double = [e for e in edges if e[2] == 2]
    if triple:
        if k == 2 and len(triple) == 1 and not double:
            return TypeLabel("G", 2)
        return None
    if double:
        if len(double) > 1 or any(deg[i] > 2 for i in comp):
            return None
        if k == 2:
            return TypeLabel("B", 2)
        u, v, _ = double[0]
        if deg[u] == 1 or deg[v] == 1:
            end, inner = (u, v) if deg[u] == 1 else (v, u)
            # |n[inner][end]| = 2 exactly when the end node is the short one
            if n[inner][end] == -2:
                return TypeLabel("B", k)
            return TypeLabel("C", k)
        # interior double edge: only the rank-4 path qualifies
        if k == 4 and deg[u] == 2 and deg[v] == 2:
            return TypeLabel("F", 4)
        return None
    # simply laced component
    branch = [i for i in comp if deg[i] >= 3]
    if any(deg[i] > 3 for i in comp) or len(branch) > 1:
        return None
    if not branch:
        return TypeLabel("A", k)
    center = branch[0]
    arms = []
    for start in adj[center]:
        length, prev, cur = 1, center, start
        while deg[cur] == 2:
            nxt = next(x for x in adj[cur] if x != prev)
            prev, cur = cur, nxt
            length += 1
        arms.append(length)
    arms.sort()
    if arms[:2] == [1, 1]:
        return TypeLabel("D", arms[2] + 3)
    if arms == [1, 2, 2]:
        return TypeLabel("E", 6)
    if arms == [1, 2, 3]:
        return TypeLabel("E", 7)
    if arms == [1, 2, 4]:
        return TypeLabel("E", 8)
    return None


def shape_match_type(basis: Sequence[Vector]
                     ) -> Optional[List[Tuple[TypeLabel, Tuple[int, ...]]]]:
    """``detect.match_type`` by the diagram shape: the same (label,
    indices) pairs, or None for pairings outside {0, -1, -2, -3}, edge
    weights n_ij n_ji above 3, cycles and unrecognised shapes."""
    if not basis:
        raise ValueError("empty basis")
    n = pairing_matrix(basis)
    k = len(basis)
    for i in range(k):
        for j in range(k):
            if i == j:
                continue
            x = n[i][j]
            if x.denominator != 1 or int(x) not in (0, -1, -2, -3):
                return None
            if int(n[i][j] * n[j][i]) not in (0, 1, 2, 3):
                return None
    seen: Set[int] = set()
    out = []
    for start in range(k):
        if start in seen:
            continue
        comp = [start]
        seen.add(start)
        queue = [start]
        while queue:
            i = queue.pop()
            for j in range(k):
                if j not in seen and n[i][j] != 0:
                    seen.add(j)
                    comp.append(j)
                    queue.append(j)
        comp.sort()
        label = _classify_component(comp, n)
        if label is None:
            return None
        out.append((label, tuple(comp)))
    out.sort(key=lambda item: item[1][0])
    return out
