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

``planche_roots`` lists every root of a label in the catalog's
coordinates from the explicit formulas of Bourbaki's planches, which the
catalog never writes out: it keeps integer coefficients only.

``certificate_of`` reads the certificate of a found report back from an
enumerate document's "p/q" strings, so it can be revalidated without the
search.

``r_theta`` is the root system of sigma_theta's own reflections and
``simple_system`` its simple system, found with none of the search's
machinery; ``maximal_rank_descendants`` lists the rank-d products below
a type.

``classical_predicate`` holds the paper's block rules for the classical
families, which name the rank-d types of the projection from the shape
of theta alone; ``oracle_equivalence`` holds the detector to them in
both directions.
"""

from fractions import Fraction
from functools import lru_cache
from itertools import combinations, permutations, product
from typing import (Callable, Dict, Iterable, List, NamedTuple, Optional,
                    Sequence, Set, Tuple)

from rootproj.catalog import (RealizedRootSystem, TypeLabel, build,
                              check_theta, detection_targets,
                              normalize_components, parse_label, parse_target)
from rootproj.classify import proper_subsets
from rootproj.detect import (ClosureCertificate, ComponentWitness,
                             find_subsystem)
from rootproj.linalg import (Matrix, Vector, dot, gram, is_zero, neg, norm2,
                             scale, sub)
from rootproj.projection import ProjectionResult, project_all


def build_from_name(name: str) -> RealizedRootSystem:
    return build(parse_label(name))


def _coords(dim: int, entries: Dict[int, int]) -> Vector:
    return tuple(Fraction(entries.get(i, 0)) for i in range(dim))


def _pm_pairs(dim: int, count: int) -> Set[Vector]:
    """+-e_i +- e_j for i < j < count."""
    return {_coords(dim, {i: a, j: b})
            for i, j in combinations(range(count), 2)
            for a, b in product((1, -1), repeat=2)}


def _units(dim: int, c: int) -> Set[Vector]:
    """+-c e_i for every i."""
    return {_coords(dim, {i: s}) for i in range(dim) for s in (c, -c)}


def _signs(k: int, minus_parity: int) -> List[Tuple[int, ...]]:
    """Rows of k signs whose number of minus signs has the given parity."""
    return [s for s in product((1, -1), repeat=k)
            if s.count(-1) % 2 == minus_parity]


def _halves(signs: Iterable[Sequence[int]]) -> Set[Vector]:
    """1/2 (s_1, ..., s_k) and its negative for every sign row s."""
    out = set()
    for s in signs:
        v = tuple(Fraction(x, 2) for x in s)
        out |= {v, tuple(-x for x in v)}
    return out


@lru_cache(maxsize=None)
def planche_roots(label: TypeLabel) -> Tuple[Vector, ...]:
    """Every root of label, sorted, written out as in Bourbaki's planches
    I-IX (Lie Groups and Lie Algebras, ch. VI) in the coordinates of
    ``catalog``'s simple roots (indices below from 1):

    - A_n in R^{n+1}: e_i - e_j, i != j.
    - B_n, C_n, D_n, BC_n in R^n: +-e_i +- e_j (i < j), with +-e_i in B
      and BC and +-2e_i in C and BC.
    - E8 in R^8: +-e_i +- e_j and 1/2 (+-1, ..., +-1) with an even
      number of minus signs.
    - E7: +-e_i +- e_j (i < j <= 6), +-(e_7 - e_8) and
      +-1/2 (e_7 - e_8 + sum_{i <= 6} +-e_i), an odd number of minus
      signs in the sum.
    - E6: +-e_i +- e_j (i < j <= 5) and
      +-1/2 (e_8 - e_7 - e_6 + sum_{i <= 5} +-e_i), an even number of
      minus signs in the sum.
    - F4 in R^4: +-e_i, +-e_i +- e_j and 1/2 (+-1, +-1, +-1, +-1).
    - G2 in R^3: +-(e_i - e_j) and +-(2e_i - e_j - e_k), {i, j, k} =
      {1, 2, 3}.
    """
    f, n = label.family, label.rank
    if f == "A":
        roots = {_coords(n + 1, {i: 1, j: -1})
                 for i, j in permutations(range(n + 1), 2)}
    elif f in ("B", "C", "D", "BC"):
        roots = _pm_pairs(n, n)
        if f in ("B", "BC"):
            roots |= _units(n, 1)
        if f in ("C", "BC"):
            roots |= _units(n, 2)
    elif f == "E" and n == 8:
        roots = _pm_pairs(8, 8) | _halves(_signs(8, 0))
    elif f == "E" and n == 7:
        roots = _pm_pairs(8, 6) | _halves([(0,) * 6 + (2, -2)]) \
            | _halves(s + (1, -1) for s in _signs(6, 1))
    elif f == "E":
        roots = _pm_pairs(8, 5) \
            | _halves(s + (-1, -1, 1) for s in _signs(5, 0))
    elif f == "F":
        roots = _pm_pairs(4, 4) | _units(4, 1) \
            | _halves(product((1, -1), repeat=4))
    else:
        roots = {_coords(3, {i: 1, j: -1})
                 for i, j in permutations(range(3), 2)} \
            | {_coords(3, {i: 2 * s, j: -s, k: -s})
               for i, j, k in permutations(range(3)) for s in (1, -1)}
    return tuple(sorted(roots))


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


def certificate_of(report: dict) -> ClosureCertificate:
    """The certificate of a found report dict of ``output.detection_doc``,
    rebuilt from its target and components with Fraction and parse_label."""
    return ClosureCertificate(parse_target(report["target"]), tuple(
        ComponentWitness(parse_label(w["label"]),
                         tuple(vector(v) for v in w["basis"]),
                         frozenset(vector(v) for v in w["roots"]))
        for w in report["components"]))


def reflect(v: Vector, b: Vector) -> Vector:
    """Image of v under the reflection through the hyperplane normal to b,
    exact for int and Fraction coordinates alike."""
    c = Fraction(2 * dot(v, b), norm2(b))
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


# ---------------------------------------------------------------------------
# the block rules of the classical families


class ClassicalPrediction(NamedTuple):
    """Outcome of the block rules for one (system, theta)."""

    predicted: Optional[TypeLabel]
    condition_trace: str


def _block_sizes(count: int, glued: Callable[[int], bool]) -> List[int]:
    """Sizes of maximal runs of 1..count, where glued(i) joins i and i+1."""
    sizes = []
    run = 1
    for i in range(1, count):
        if glued(i):
            run += 1
        else:
            sizes.append(run)
            run = 1
    sizes.append(run)
    return sizes


def classical_predicate(label: TypeLabel, theta: Sequence[int]
                        ) -> ClassicalPrediction:
    """The irreducible rank-d type of sigma_theta, from theta's shape.

    A chain root e_i - e_{i+1} in theta glues coordinates i and i+1 into
    one block, and the projection sends every e_i of a block of size s
    to the block's mean u, with <u, u> = 1/s.  At the end of the diagram
    theta may hold a tail: a run of roots through e_n (B), 2e_n (C) or
    both e_{n-1} -+ e_n (D).  Its coordinates project to 0.  On D a
    single fork root glues n-1 and n, up to the sign of e_n.

    A_n: sigma_theta is {u_j - u_l} over the d + 1 blocks of the n + 1
    coordinates.  Equal sizes s (n + 1 = s(d + 1)) make it A_d, scaled
    by 1/s.  Two blocks of any sizes leave one pair +-(u_1 - u_2): A_1.

    B_n, C_n, D_n: sigma_theta is {+-u_j +- u_l} over the d blocks left
    of the tail, with +-u_j where a short root reaches the block (e_i in
    B; e_i +- e_t, t in the tail, in C and D) and +-2u_j where a long one
    does (2e_i in C; e_i + e_i' inside a block of size s >= 2 in B, D).

    - Equal sizes make the u_j orthogonal of one norm: BC_d with both
      kinds of roots, B_d with short ones only, C_d with long ones only.
      Every proper theta gives one kind: B has e_i, C has 2e_i, and D
      without a tail glues a block.
    - Two blocks of sizes m and 3m: 2u_2, u_1 - u_2 and -u_1 - u_2 all
      have norm 4/(3m) and sum to 0, an A_2.

    Every other shape predicts no irreducible type of rank d.
    """
    if label.family not in ("A", "B", "C", "D"):
        raise ValueError("classical families only")
    idx = set(check_theta(build(label), theta))
    n = label.rank

    if label.family == "A":
        sizes = _block_sizes(n + 1, lambda i: i in idx)
        if len(set(sizes)) == 1 or len(sizes) == 2:
            return ClassicalPrediction(
                TypeLabel("A", len(sizes) - 1),
                f"blocks {sizes}: A_d from equal sizes or two blocks")
        return ClassicalPrediction(None, f"blocks {sizes}: no rule")

    fork = label.family == "D" and {n - 1, n} <= idx
    if label.family == "D" and not fork:
        sizes = _block_sizes(
            n, lambda i: i in idx or (i == n - 1 and n in idx))
        short, tail = False, 0
    else:
        tail = 2 if fork else 0
        while n - tail in idx:
            tail += 1
        sizes = _block_sizes(n - tail, lambda i: i in idx)
        short = label.family != "C" or tail > 0
    if len(set(sizes)) == 1:
        long = label.family == "C" or sizes[0] >= 2
        family = {(True, True): "BC", (True, False): "B",
                  (False, True): "C"}[short, long]
        return ClassicalPrediction(
            TypeLabel(family, len(sizes)),
            f"blocks {sizes}, tail {tail}: {family}_d")
    if len(sizes) == 2 and max(sizes) == 3 * min(sizes):
        return ClassicalPrediction(
            TypeLabel("A", 2), f"blocks {sizes}: sizes m and 3m give A_2")
    return ClassicalPrediction(None, f"blocks {sizes}, tail {tail}: no rule")


def _names(labels: Iterable[TypeLabel]) -> Tuple[str, ...]:
    """Distinct names of labels in canonical form (C2 is B2, D3 is A3)."""
    return tuple(sorted({str(lab)
                         for lab in normalize_components(tuple(labels))}))


def predicted_labels(label: Optional[TypeLabel]) -> Tuple[str, ...]:
    """label with the irreducible types of its rank that it contains:
    BC_d holds B_d, C_d and D_d, and B_d, C_d hold D_d (D_2 = A_1 x A_1
    is not irreducible, so from d = 3)."""
    if label is None:
        return ()
    d = label.rank
    out = [label]
    if label.family == "BC":
        out += [TypeLabel("B", d), TypeLabel("C", d)]
    if label.family in ("B", "C", "BC") and d >= 3:
        out.append(TypeLabel("D", d))
    return _names(out)


def maximal_rank_step(label: TypeLabel) -> Optional[Tuple[TypeLabel, ...]]:
    """Components of a proper subsystem of the label's roots of the same
    rank, or None for A_n, which has none.  Removing one node of the
    extended Dynkin diagram (Borel-de Siebenthal 1949, Dynkin 1952) gives
    B_n > D_n, D_n > A1^2 x D_(n-2) (n >= 4), C_n > A1^n, G2 > A2,
    F4 > A2^2, E6 > A2^3, E7 > A7 and E8 > A8; BC_n holds B_n."""
    n = label.rank
    steps = {"BC": [("B", n)], "B": [("D", n)], "C": [("A", 1)] * n,
             "D": [("A", 1), ("A", 1), ("D", n - 2)], "G": [("A", 2)],
             "F": [("A", 2)] * 2,
             "E": [("A", 2)] * 3 if n == 6 else [("A", n)]}
    if label.family not in steps:
        return None
    return tuple(TypeLabel(f, k) for f, k in steps[label.family])


def maximal_rank_descendants(components: Tuple[TypeLabel, ...]
                             ) -> List[Tuple[TypeLabel, ...]]:
    """components, normalized, and every product reached from it by
    ``maximal_rank_step`` on one factor at a time, each normalized with
    ``normalize_components`` (so D4's step A1 x A1 x D2 goes on as A1^4),
    once each in the order first reached."""
    seen = {normalize_components(components): None}
    frontier = list(seen)
    while frontier:
        labels = frontier.pop()
        for i, label in enumerate(labels):
            step = maximal_rank_step(label)
            if step is None:
                continue
            smaller = normalize_components(labels[:i] + step + labels[i + 1:])
            if smaller not in seen:
                seen[smaller] = None
                frontier.append(smaller)
    return list(seen)


class OracleEntry(NamedTuple):
    """One theta: the block rules' types against the detector's."""

    theta: Tuple[int, ...]
    prediction: Optional[str]
    trace: str
    predicted: Tuple[str, ...]   # predicted_labels of the prediction
    found: Tuple[str, ...]       # irreducible rank-d types found unrestricted

    @property
    def confirmed(self) -> bool:
        return self.predicted == self.found


class OracleReport(NamedTuple):
    sigma: TypeLabel
    entries: Tuple[OracleEntry, ...]

    @property
    def disagreements(self) -> List[OracleEntry]:
        return [e for e in self.entries if not e.confirmed]

    @property
    def ok(self) -> bool:
        return not self.disagreements


def oracle_equivalence(label: TypeLabel,
                       thetas: Optional[Iterable[Sequence[int]]] = None
                       ) -> OracleReport:
    """Replay the block rules against the detector, both ways.

    For each theta (every proper one by default) the irreducible rank-d
    types the detector finds without restriction must be exactly the
    prediction and what it contains: a type found that no rule predicts
    is a disagreement, as is a predicted type not found.
    """
    sys = build(label)
    entries = []
    for theta in proper_subsets(label.rank) if thetas is None else thetas:
        pred = classical_predicate(label, theta)
        pr = project_all(sys, theta)
        found = [t.components[0] for t in detection_targets(pr.d)
                 if find_subsystem(pr, t).found]
        entries.append(OracleEntry(
            theta=tuple(theta),
            prediction=str(pred.predicted) if pred.predicted else None,
            trace=pred.condition_trace,
            predicted=predicted_labels(pred.predicted),
            found=_names(found),
        ))
    return OracleReport(label, tuple(entries))


# ---------------------------------------------------------------------------
# R_theta, the root system of sigma_theta's own reflections


def r_theta(pr: ProjectionResult) -> frozenset:
    """R_theta: the v of sigma_theta such that, for every w in
    sigma_theta, 2<w, v>/<v, v> is an integer and s_v(w) lies in
    sigma_theta.  It is a root system (Bourbaki, Lie Groups and Lie
    Algebras VI par. 1.1): closed under negation and, as
    s_{s_v(w)} = s_v s_w s_v, under its own reflections.  Read on
    sigma_theta times the projection's denominator, as ints, which
    changes no ratio."""
    sigma = pr.sigma_scaled_set

    def reflects(v):
        nv = norm2(v)
        for w in sigma:
            c, r = divmod(2 * dot(w, v), nv)
            if r or sub(w, scale(c, v)) not in sigma:
                return False
        return True

    return frozenset(v for v in sigma if reflects(v))


def simple_system(roots: Iterable[Vector]) -> Tuple[Vector, ...]:
    """The simple system of a root system, reduced or not, sorted: its
    lex-positive roots that are not u + w for lex-positive roots u and w,
    u = w allowed (Humphreys, 10.1).  Were u = w not allowed, the doubled
    root 2v of a BC factor would count as simple and the rank would come
    out wrong."""
    positive = {v for v in roots if v > neg(v)}
    return tuple(sorted(v for v in positive
                        if not any(sub(v, u) in positive for u in positive)))
