"""Detection of root systems of maximal rank inside a projection.

``find_subsystem`` answers every query and builds every
``DetectionReport``, found exactly when it carries a certificate;
``classify_max_rank`` asks it per target.

``certify`` is the single definition of a certified copy of a label: the
candidate basis must have the label's ``reduced`` type (``catalog``'s
one rule: BC_k reads as B_k, C2 as B2, D3 as A3, rank 1 as A_1), its
reflection closure must stay inside the projected set, and for BC the
doubles of the shortest roots must be there as well.  The search and
``revalidate`` both go through it.  ``find_subsystem`` is the single
driver of both detection modes: it picks one factor of the target after
another, the restricted mode pinning some of them to delta_theta.  Every
factor's bases, pinned or not, come from one incremental backtracking,
``_iter_bases``, over a pool: one representative per +-pair sorted by
squared norm, or delta_theta for a pinned factor.  Partial bases are
pruned with the norm census of the projection, integral pairings none
positive, the target's node degrees and one reconnect rule: a pick is
skipped when the picks still to come, each joining at most max_degree
components, could not make the diagram connected.  Both pools lie in
one open half-space, where obtuse vectors are linearly independent
(Humphreys, 10.1), so every partial basis with integral pairings is of
finite type for ``match_type`` below without a further test, and at
the last pick the reconnect rule reads "connected": every basis the
search hands ``certify`` is one connected simple system.  Every factor
the search finds lists its basis in pool order: by (squared norm,
coords), or in delta_theta order for a pinned factor.

Exact rationals at the edge, integers inside, never floats.  Every test
of the search is a ratio (Cartan integers 2<u, v>/<v, v>, reflections
inside a finite set), so the search behind ``find_subsystem`` and
``classify_max_rank`` reads only the int fields of ``ProjectionResult``:
the projection times its common denominator, ``delta_scaled`` and the
``census_scaled``, ``sigma_scaled_norms`` and ``pool_scaled`` of
sigma_theta; the keys of ``sigma_scaled_norms`` are the universe of
every closure, and its values the squared norms the search reads.
Each certificate is divided by the projection's ``denominator`` when its
report is built, which gives its vectors in sigma_theta, and
``revalidate`` scales a certificate and its universe to ints the same
way before it checks them.  Positive scaling keeps the (norm, coordinates)
order of the pool and of every closure frontier, so the first
certificate is the one the Fraction search would find.  The
functions here stay generic: ``certify``, ``match_type`` and
``reflection_closure`` take int or Fraction vectors alike, and a
pairing is a Cartan integer exactly when ``divmod`` leaves no
remainder.

``match_type`` answers the one question ``certify`` asks: is this basis
one connected simple system, and of which type?  It applies the
finite-type criterion (Bourbaki, Lie Groups and Lie Algebras VI,
par. 4; Kac, Infinite-dimensional Lie Algebras, Thm 4.3): a basis whose
Cartan integers (``catalog.cartan_matrix``) are integers, none positive
off the diagonal, is a simple system exactly when its Cartan matrix C is
positive definite.  C = 2 G N^-1 for the Gram matrix G and the diagonal
N of squared norms, so every Bareiss pivot of C is positive exactly when
G is positive definite (Sylvester), i.e. when the basis is linearly
independent: no collinear pair, cycle or affine diagram.  Such a
diagram is a forest, connected exactly when it has one edge fewer than
the basis has vectors; ``match_type`` counts them first, and a
disconnected basis has no type.  ``catalog.finite_type`` then makes the
definiteness test and names the type by (rank k, det C (the last
pivot), simple-root profile) with ``catalog``'s one rule, the rule of
``TypeLabel.reduced``: no basis types as C2, D3 or BC_k.  Splitting a
basis into its typed components is no question the package asks; the
tests' ``oracles.shape_match_type`` does it by the diagram shape.
"""

from __future__ import annotations

from fractions import Fraction
from typing import (Container, Dict, Iterator, List, NamedTuple, Optional,
                    Sequence, Set, Tuple)

from .catalog import (Target, TypeLabel, cartan_matrix, detection_targets,
                      finite_type)
from .linalg import (IntVector, Vector, dot, from_ints, norm2, scale, sub,
                     to_ints)
from .projection import ProjectionResult


def match_type(basis: Sequence[Vector]) -> Optional[TypeLabel]:
    """Type of a basis that is one connected simple system of finite type.

    None when a pairing is not an integer or is positive, when the
    diagram is not connected, or when the Cartan matrix is not positive
    definite.  A finite-type diagram is a forest, so it is connected
    exactly when it has k - 1 edges for k vectors.
    """
    if not basis:
        raise ValueError("empty basis")
    n = cartan_matrix(basis)
    if n is None:
        return None
    # n_ij and n_ji have the sign of <b_i, b_j>: one triangle says it all
    off = [x for i, row in enumerate(n) for x in row[:i]]
    if any(x > 0 for x in off) or len(off) - off.count(0) != len(n) - 1:
        return None
    return finite_type([list(row) for row in n], [norm2(b) for b in basis])


class ClosureFailure(NamedTuple):
    """Why a candidate basis did not certify a root system.

    ``escaping`` names a generated vector outside the universe and
    ``oversize`` flags an orbit past the size bound; with neither set,
    certify refused a basis that is no simple system of the asked type.
    """

    escaping: Optional[Vector] = None
    oversize: bool = False

    def __bool__(self) -> bool:
        return False


def reflection_closure(basis: Sequence[Vector], universe: Container[Vector],
                       max_size: Optional[int] = None):
    """Orbit of the basis under the reflections it generates.

    Applies every basis reflection to the growing set until a fixed point
    is reached.  Returns the orbit as a frozenset, or a ClosureFailure
    naming the first generated vector that leaves the universe (processed
    in sorted order, so the failure is deterministic) or flagging an
    orbit larger than max_size.  A reflection coefficient is an integer
    for every basis of finite type; any other one is taken as an exact
    Fraction.
    """
    for b in basis:
        if b not in universe:
            return ClosureFailure(escaping=b)
    refl = [(b, norm2(b)) for b in basis]
    orbit: Set[Vector] = set(basis)
    frontier = sorted(orbit)
    while frontier:
        new: List[Vector] = []
        for v in frontier:
            for b, nb in refl:
                p = 2 * dot(v, b)
                c, r = divmod(p, nb)
                if r:
                    c = Fraction(p, nb)
                elif c == 0:
                    continue
                w = sub(v, scale(c, b))
                if w in orbit:
                    continue
                if w not in universe:
                    return ClosureFailure(escaping=w)
                orbit.add(w)
                new.append(w)
                if max_size is not None and len(orbit) > max_size:
                    return ClosureFailure(oversize=True)
        frontier = sorted(new)
    return frozenset(orbit)


def certify(label: TypeLabel, basis: Sequence[Vector],
            universe: Container[Vector]):
    """Root set of the copy of label that basis generates inside universe.

    The basis must be a simple system of ``label.reduced`` (D2 has none
    and is refused) and its reflection closure must stay inside universe;
    for BC the doubles of the shortest roots must lie in universe too and
    join the root set.  A basis of finite type generates exactly the
    type's roots, so the result has label.root_count elements.  Returns a
    frozenset, or a ClosureFailure saying why not: ``ClosureFailure()``
    for a basis of another type.
    """
    inner = label.reduced
    if inner is None or match_type(basis) != inner:
        return ClosureFailure()
    orbit = reflection_closure(basis, universe, max_size=inner.root_count)
    if isinstance(orbit, ClosureFailure) or label.family != "BC":
        return orbit
    short = min(norm2(v) for v in orbit)
    doubles = sorted(scale(2, v) for v in orbit if norm2(v) == short)
    for dv in doubles:
        if dv not in universe:
            return ClosureFailure(escaping=dv)
    return orbit | frozenset(doubles)


class ComponentWitness(NamedTuple):
    """One irreducible factor of a certified subsystem."""

    label: TypeLabel
    basis: Tuple[Vector, ...]
    roots: frozenset


class ClosureCertificate(NamedTuple):
    """A verifiable witness that the target occurs inside sigma_theta."""

    target: Target
    components: Tuple[ComponentWitness, ...]

    @property
    def basis(self) -> Tuple[Vector, ...]:
        return tuple(v for w in self.components for v in w.basis)

    @property
    def size(self) -> int:
        """Number of distinct roots the certificate generates."""
        return len(frozenset().union(*(w.roots for w in self.components)))


class DetectionReport(NamedTuple):
    """Whether target occurs in sigma_theta: found exactly when a
    certificate, whose vectors lie in sigma_theta, is attached.  The
    flags are set by ``find_subsystem``; see ``classify_max_rank``."""

    target: Target
    restricted: bool
    basis_from_delta_theta: bool
    certificate: Optional[ClosureCertificate] = None

    @property
    def found(self) -> bool:
        return self.certificate is not None


# ---------------------------------------------------------------------------
# census conditions


def census_scales(label: TypeLabel, census: dict) -> list:
    """Base scales at which the census could host a copy of the label.

    For every relative length class of the label there must be a census
    class with at least as many distinct vectors; a copy of the label in
    the projection can exist only at these scales.  This is the pruning
    that eliminates most candidates before any search runs.
    """
    prof = label.root_profile
    out = []
    for base in sorted(census):
        if all(census.get(base * rel, 0) >= need for rel, need in prof.items()):
            out.append(base)
    return out


def census_admits(target: Target, census: dict) -> bool:
    """Necessary census condition, checked per component."""
    return all(census_scales(lab, census) for lab in target.normalized())


# ---------------------------------------------------------------------------
# basis search


def _iter_bases(label: TypeLabel, pool: Sequence[IntVector],
                pr: ProjectionResult
                ) -> Iterator[Tuple[Tuple[IntVector, ...], frozenset]]:
    """Yield (basis, roots) realizations of an irreducible label.

    Exhaustive over the pool: every k-subset of it that ``certify``
    accepts, census scale by census scale in ascending order and, within
    a scale, in pool order (the order of ``combinations``).  A BC label
    is searched as its reduced type at the scales where the census can
    also hold the doubled short roots; ``certify`` checks the doubles.

    The pool is a part of sigma_theta times ``denominator``, so its
    squared norms are read from ``sigma_scaled_norms``, whose keys are
    also the universe of every closure.

    Precondition: the pool lies in one open half-space, where obtuse
    vectors are linearly independent (Humphreys, Introduction to Lie
    Algebras and Representation Theory, 10.1).  ``_place`` hands it two
    such pools, each narrowed to the vectors orthogonal to the factors
    placed before: the lex-positive +-pair representatives
    ``pool_scaled``, and ``delta_scaled``, whose vectors are linearly
    independent, and so is every subset of them.
    So a partial basis that keeps the label's norms, integral pairings
    none positive and the label's node degrees is independent, hence of
    finite type for ``match_type``: its diagram is a forest of
    len(picks) - edges components that the remaining steps must join.
    ``_grow`` keeps only the picks after which they still can, so every
    basis it hands ``certify`` is connected: one simple system, which
    ``match_type`` types.
    """
    inner = label.reduced
    norms = pr.sigma_scaled_norms
    for base in census_scales(label, pr.census_scaled):
        need = {base * rel: cnt for rel, cnt in inner.basis_profile.items()}
        picked = [v for v in pool if norms[v] in need]
        yield from _grow(label, inner.max_degree, norms, picked,
                         [norms[v] for v in picked], 0, [], need, [], 0)


def _grow(label: TypeLabel, maxdeg: int, universe: Dict[IntVector, int],
          sub_pool: List[IntVector], norms: List[int], start: int,
          picks: List[int], remaining: Dict[int, int], deg: List[int],
          ncomp: int) -> Iterator[Tuple[Tuple[IntVector, ...], frozenset]]:
    """``_iter_bases``'s backtracking at one census scale: extend the
    partial basis ``picks`` of ``sub_pool`` from index ``start`` on.

    ``ncomp`` counts the components of the partial diagram.  A pick
    joins at most ``maxdeg`` of them, so each later pick cuts the count
    by at most maxdeg - 1; a pick that leaves more than the later picks
    can join is skipped.  After the last pick that reads "one
    component", so every leaf handed to ``certify`` is connected."""
    slots = label.rank - len(picks)
    if not slots:
        basis = tuple(sub_pool[i] for i in picks)
        roots = certify(label, basis, universe)
        if not isinstance(roots, ClosureFailure):
            yield basis, roots
        return
    for idx in range(start, len(sub_pool) - slots + 1):
        v = sub_pool[idx]
        nv = norms[idx]
        if remaining.get(nv, 0) == 0:
            continue
        dots = []
        for i, n in zip(picks, deg):
            x = dot(sub_pool[i], v)
            if x > 0 or 2 * x % nv or 2 * x % norms[i] \
                    or x and n == maxdeg:
                break
            dots.append(x)
        links = len(dots) - dots.count(0)
        if len(dots) < len(picks) or links > maxdeg \
                or ncomp - links - (maxdeg - 1) * (slots - 1) > 0:
            continue
        remaining[nv] -= 1
        yield from _grow(label, maxdeg, universe, sub_pool, norms, idx + 1,
                         picks + [idx], remaining,
                         [n + (x != 0) for n, x in zip(deg, dots)] + [links],
                         ncomp + 1 - links)
        remaining[nv] += 1


def _place(pr: ProjectionResult, factors: List[Tuple[TypeLabel, bool]],
           witnesses: List[ComponentWitness],
           pools: Tuple[Sequence[IntVector], Sequence[IntVector]]) -> bool:
    """``find_subsystem``'s backtracking: append to ``witnesses`` a copy
    of each further (label, pinned) factor, orthogonal to the ones
    before.  ``pools`` is (``pool_scaled``, ``delta_scaled``), and a
    factor draws from ``pools[pinned]``.  Each placed basis narrows to
    the vectors orthogonal to it every pool a later factor draws from,
    and leaves the other as it is."""
    if len(witnesses) == len(factors):
        return True
    label, pinned = factors[len(witnesses)]
    later = {p for _, p in factors[len(witnesses) + 1:]}
    for basis, roots in _iter_bases(label, pools[pinned], pr):
        if witnesses and witnesses[-1].label == label \
                and basis <= witnesses[-1].basis:
            continue  # identical factors: enforce an order, halve the work
        witnesses.append(ComponentWitness(label, basis, roots))
        if _place(pr, factors, witnesses, tuple(
                [v for v in pool if all(dot(v, b) == 0 for b in basis)]
                if p in later else pool
                for p, pool in zip((False, True), pools))):
            return True
        witnesses.pop()
    return False


def find_subsystem(pr: ProjectionResult, target: Target,
                   restrict_to_delta_theta: bool = False) -> DetectionReport:
    """Decide whether the target occurs in sigma_theta at maximal rank.

    The first copy found, factor by factor, is the certificate; the
    search is exhaustive, so a not-found answer is a proof of absence.
    Unrestricted, every factor's pool is ``pool_scaled``, sigma_theta up
    to sign: a subsystem always owns a simple system made of
    lexicographically positive vectors (positivity in the lex order is
    additive), so nothing is lost.  A found unrestricted report says
    whether its whole basis lies in delta_theta.

    Restricted, the pinned factors take their basis from delta_theta:
    every factor of an irreducible or all-classical target, but only the
    exceptional factors of a product with an exceptional component,
    whose classical factors may sit anywhere in sigma_theta orthogonal
    to the rest.  That is the reading under which the bundled product
    tables are stated, so on product rows ``basis_from_delta_theta``
    vouches for the exceptional factors only.  Pinning every factor
    would make the basis all of delta_theta, whose pairing matrix is of
    no finite type for five listed rows: E7 (1,3,5,6) G2xA1 and E8
    (1,3,5,6) G2xA1xA1, (1,3,5,6,8) G2xA1, (2,4,5,6,7) G2xA1 and
    (2,5,7) F4xA1.  The projected simple roots are taken exactly as they
    come: if some sign-flipped selection formed a simple system, the
    vectors as given would too, because mixed signs inside a connected
    component would contradict the one-signed integral expansion of the
    projected roots.

    A pinned factor's bases come census scale by census scale in
    ascending order and, within a scale, in delta_theta order, so a
    subset of shorter vectors comes first even when a subset of longer
    ones comes earlier in delta_theta (an A1 or A2 factor on a
    projection with two norms); a free factor's come by (squared norm,
    coords).
    """
    if target.rank != pr.d:
        raise ValueError(
            f"target rank {target.rank} does not match d={pr.d}")
    restricted = restrict_to_delta_theta
    if not census_admits(target, pr.census_scaled):
        return DetectionReport(target, restricted, False)
    pin_all = not target.has_exceptional_component
    factors = sorted(((lab, restricted and (pin_all or lab.is_exceptional))
                      for lab in target.normalized()),
                     key=lambda factor: (not factor[1], factor[0].sort_key))
    found: List[ComponentWitness] = []
    if not _place(pr, factors, found, (pr.pool_scaled, pr.delta_scaled)):
        return DetectionReport(target, restricted, False)
    from_delta = restricted or all(v in pr.delta_scaled
                                   for w in found for v in w.basis)
    den = pr.denominator  # the certificate's vectors in sigma_theta
    witnesses = tuple(ComponentWitness(w.label, from_ints(w.basis, den),
                                       frozenset(from_ints(w.roots, den)))
                      for w in found)
    return DetectionReport(target, restricted, from_delta,
                           ClosureCertificate(target, witnesses))


def classify_max_rank(pr: ProjectionResult) -> List[DetectionReport]:
    """One ``find_subsystem`` report per rank-d target with an
    exceptional component.

    Irreducible targets are unrestricted reports; a restricted copy is
    asked for first, and when it exists it is the certificate and
    ``basis_from_delta_theta`` is true.  Product targets are restricted
    reports, whose ``basis_from_delta_theta`` covers the exceptional
    factors only (see ``find_subsystem``).
    """
    reports = []
    for target in detection_targets(pr.d, reducible=True,
                                    require_exceptional_component=True):
        rep = find_subsystem(pr, target, True)
        if target.is_irreducible:
            if not rep.found:
                rep = find_subsystem(pr, target)
            rep = rep._replace(restricted=False)
        reports.append(rep)
    return reports


def revalidate(cert: ClosureCertificate, universe: frozenset) -> bool:
    """Re-check a certificate from scratch.

    The witness labels must be the target's normalized components, the
    witness bases pairwise orthogonal, and each witness's roots exactly
    what ``certify`` makes of its label and basis inside universe.  The
    checks run on ints: the certificate and the universe times one common
    denominator of all their coordinates, which changes no ratio test.
    """
    labels = sorted((w.label for w in cert.components),
                    key=lambda lab: lab.sort_key)
    if tuple(labels) != cert.target.normalized():
        return False
    vectors = [*universe, *(v for w in cert.components
                            for v in (*w.basis, *w.roots))]
    ints = dict(zip(vectors, to_ints(vectors)[1]))
    universe = frozenset(ints[v] for v in universe)
    bases = [tuple(ints[v] for v in w.basis) for w in cert.components]
    for wi, witness in enumerate(cert.components):
        for other in bases[wi + 1:]:
            if any(dot(a, b) != 0 for a in bases[wi] for b in other):
                return False
        if certify(witness.label, bases[wi], universe) \
                != frozenset(ints[v] for v in witness.roots):
            return False
    return True
