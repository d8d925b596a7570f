"""Concrete realizations of the finite crystallographic root systems.

Families A-D are realized in their usual coordinate ambient spaces, the
E types inside the 8-dimensional ambient of E8 (E7 and E6 spanned by the
first seven and six E8 simple roots), F4 in dimension 4 and G2 in
dimension 3.  Simple roots follow the Bourbaki numbering throughout.
``cartan_matrix`` is the one definition of the Cartan integers
``n_ij = 2<b_i, b_j> / <b_j, b_j>`` of a basis, as ints.  The simple
roots are the only hand-written root data: every root is kept as its
integer coefficient vector over them, which is all ``project_all``
reads, and no root is put in ambient coordinates.

``_FAMILIES`` is the one home of the per-family facts of Bourbaki's
planches I-IX (Lie Groups and Lie Algebras VI): in label order, the
ranks each family has, the rank from which ``irreducible_labels`` lists
it, whether it is exceptional (it has a highest rank) and its norm
profiles, root count, Cartan determinant and node degree.  ``FAMILIES``,
the label syntax, ``TypeLabel``'s rank checks, refusals and properties
and ``irreducible_labels`` all read it; only ``_simple_roots`` writes
the planches out family by family.

This module alone knows which labels name the same system.  The one
rule reads the table in ``irreducible_labels`` order: a type is the
first label of its rank with its Cartan determinant and simple-root
profile.  So ``TypeLabel.reduced`` reads C2 as B2, D3 as A3, B1, C1 and
BC1 as A1 and BC_k as B_k (D2 has none), ``finite_type`` names the type
of a connected Cartan matrix for ``detect.match_type``,
``normalize_components`` maps every label but BC to its reduced type,
and ``detection_targets`` lists its targets in the same label order.

BC_n (the non-reduced system B_n plus the doubled short roots) is built
the same way, from the simple roots of B_n; it serves as a detection
target and, like every other label, as the ambient system of ``project``,
``detect`` and ``enumerate``.
"""

from __future__ import annotations

import re
from collections import Counter
from fractions import Fraction
from functools import lru_cache
from operator import mul
from typing import (Dict, Iterator, List, NamedTuple, Optional, Sequence, Set,
                    Tuple)

from .linalg import IntVector, Vector, bareiss_minors, gram, is_zero, to_ints

# The families in label order, one row each, from Bourbaki's planches
# I-IX (Lie Groups and Lie Algebras VI): the lowest rank, the lowest rank
# irreducible_labels lists the family at (B1 and C1 are A1, D2 is A1 x A1,
# D3 is A3), the highest rank (None for the series A-D and BC; a family
# with one is exceptional) and the invariants at rank k.  Those are how
# many simple roots and how many roots have each squared length over the
# shortest (``_invariants`` drops the lengths a rank has none of and
# rescales), the Cartan determinant and the most links at one node (exact
# from rank 3 on and for G2).  Writing them out saves building the
# labels, which would cost a fresh --jobs worker some 12 ms on E8.
_FAMILIES = {
    "A": (1, 1, None, lambda k: ({1: k}, {1: k * (k + 1)}, k + 1, 2)),
    "B": (1, 2, None, lambda k: ({1: 1, 2: k - 1},
                                 {1: 2 * k, 2: 2 * k * (k - 1)}, 2, 2)),
    "C": (1, 2, None, lambda k: ({1: k - 1, 2: 1},
                                 {1: 2 * k * (k - 1), 2: 2 * k}, 2, 2)),
    "D": (2, 4, None, lambda k: ({1: k}, {1: 2 * k * (k - 1)}, 4,
                                 min(k - 1, 3))),
    "E": (6, 6, 8, lambda k: ({1: k}, {1: (72, 126, 240)[k - 6]}, 9 - k, 3)),
    "F": (4, 4, 4, lambda k: ({1: 2, 2: 2}, {1: 24, 2: 24}, 1, 2)),
    "G": (2, 2, 2, lambda k: ({1: 1, 3: 1}, {1: 6, 3: 6}, 1, 1)),
    # B_k plus its 2k doubled short roots, four times as long
    "BC": (1, 1, None, lambda k: ({1: 1, 2: k - 1},
                                  {1: 2 * k, 2: 2 * k * (k - 1), 4: 2 * k},
                                  2, 2)),
}

FAMILIES = tuple(_FAMILIES)

_LABEL_RE = re.compile(rf"^({'|'.join(FAMILIES)})\s*(\d+)$", re.IGNORECASE)


def _rank_refusal(family: str) -> str:
    """Why the family has no label of a rank outside its table row."""
    lowest, _, highest, _ = _FAMILIES[family]
    if highest is None:
        return f"{family} needs rank >= {lowest}"
    ranks = ", ".join(map(str, range(lowest, highest + 1)))
    return f"{family} exists only in rank{'s' * (highest > lowest)} {ranks}"


# A NamedTuple class may not define __new__, so the two validating types
# below subclass a plain NamedTuple base.
class _TypeLabel(NamedTuple):
    family: str
    rank: int


class TypeLabel(_TypeLabel):
    """An irreducible type such as A5, E8 or BC3."""

    __slots__ = ()

    def __new__(cls, family: str, rank: int):
        if family not in FAMILIES:
            raise ValueError(f"unknown family {family!r}")
        if type(rank) is not int:  # bool, float, str: no rank
            raise ValueError(f"rank {rank!r} is not an int")
        if rank < 1:
            raise ValueError("rank must be positive")
        lowest, _, highest, _ = _FAMILIES[family]
        if not lowest <= rank <= (highest or rank):
            raise ValueError(_rank_refusal(family))
        return tuple.__new__(cls, (family, rank))

    def __str__(self) -> str:
        return f"{self.family}{self.rank}"

    # labels of equal rank sort in table order into a canonical product
    sort_key = property(lambda self: (-self.rank, FAMILIES.index(self.family)))
    # a family with a highest rank is an exceptional one
    is_exceptional = property(lambda self: bool(_FAMILIES[self.family][2]))
    # the label's invariants in its _FAMILIES row
    basis_profile = property(lambda self: _invariants(self)[0])
    root_profile = property(lambda self: _invariants(self)[1])
    cartan_det = property(lambda self: _invariants(self)[2])
    max_degree = property(lambda self: _invariants(self)[3])
    root_count = property(lambda self: sum(self.root_profile.values()))
    # the type a basis of this label forms; None for D2, which is A1 x A1
    reduced = property(lambda self: _reduced(self))


def _invariants(label: TypeLabel) -> tuple:
    """The invariants of a label's ``_FAMILIES`` row at its rank, with
    the lengths no root of that rank has left out and every length over
    the shortest simple root's: B1 and C1 read as A1, and BC1 as A1 plus
    its two doubled roots."""
    basis, roots, det, degree = _FAMILIES[label.family][3](label.rank)
    short = min(n for n, c in basis.items() if c)
    return ({n // short: c for n, c in basis.items() if c},
            {n // short: c for n, c in roots.items() if c}, det, degree)


def parse_label(text: str) -> TypeLabel:
    m = _LABEL_RE.match(text.strip())
    try:  # no match, or more rank digits than int() converts
        family, rank = m.group(1).upper(), int(m.group(2))
    except (AttributeError, ValueError):
        raise ValueError(f"cannot parse type label {text!r}") from None
    return TypeLabel(family, rank)


@lru_cache(maxsize=None)
def normalize_components(labels: Tuple[TypeLabel, ...]) -> Tuple[TypeLabel, ...]:
    """Canonical equivalence form of a tuple of component labels, sorted
    canonically: every label but BC as its ``reduced`` type, and D2 split
    into A1 x A1.  Built once per tuple, as every query reads it."""
    out: List[TypeLabel] = []
    for lab in labels:
        if lab.family == "BC":
            out.append(lab)
        else:  # D2 alone has no reduced type
            out += [lab.reduced] if lab.reduced else [TypeLabel("A", 1)] * 2
    return tuple(sorted(out, key=lambda l: l.sort_key))


class _Target(NamedTuple):
    components: Tuple[TypeLabel, ...]


class Target(_Target):
    """A detection target: one irreducible label or a product of them."""

    __slots__ = ()

    def __new__(cls, components: Sequence[TypeLabel]):
        if not components:
            raise ValueError("target needs at least one component")
        return tuple.__new__(
            cls, (tuple(sorted(components, key=lambda l: l.sort_key)),))

    def __str__(self) -> str:
        return "x".join(str(c) for c in self.components)

    @property
    def rank(self) -> int:
        return sum(c.rank for c in self.components)

    @property
    def is_irreducible(self) -> bool:
        return len(self.components) == 1

    @property
    def has_exceptional_component(self) -> bool:
        return any(c.is_exceptional for c in self.components)

    def normalized(self) -> Tuple[TypeLabel, ...]:
        return normalize_components(self.components)


def parse_target(text: str) -> Target:
    parts = text.strip().split("x")
    if not all(parts):
        raise ValueError(f"cannot parse target {text!r}")
    return Target(tuple(parse_label(p) for p in parts))


class RealizedRootSystem(NamedTuple):
    """A root system given by its simple roots in coordinates.

    ``coefficients`` holds every root as its coefficients over the
    simple roots, sorted: integers, all of one sign.
    """

    label: TypeLabel
    simple_roots: Tuple[Vector, ...]
    coefficients: Tuple[Tuple[int, ...], ...]

    @property
    def rank(self) -> int:
        return self.label.rank


def check_theta(sys: RealizedRootSystem, theta: Sequence[int]
                ) -> Tuple[int, ...]:
    """Validate a subset of simple-root indices; returns it sorted."""
    for i in theta:
        if type(i) is not int:  # bool, float, str: no index
            raise ValueError(f"theta index {i!r} is not an int")
    idx = tuple(sorted(theta))
    if len(set(idx)) != len(idx):
        raise ValueError("theta indices must be distinct")
    for i in idx:
        if not 1 <= i <= sys.rank:
            raise ValueError(f"theta index {i} out of range 1..{sys.rank}")
    if len(idx) == 0 or len(idx) == sys.rank:
        raise ValueError("theta must be a proper nonempty subset of the simple roots")
    return idx


def _basis_vec(dim: int, entries: Dict[int, int]) -> Vector:
    v = [Fraction(0)] * dim
    for i, c in entries.items():
        v[i] = Fraction(c)
    return tuple(v)


def _simple_chain(dim: int, n: int) -> List[Vector]:
    """a_i = e_i - e_{i+1} for i = 1..n."""
    return [_basis_vec(dim, {i: 1, i + 1: -1}) for i in range(n)]


def _simple_roots(label: TypeLabel) -> List[Vector]:
    f, n = label.family, label.rank
    if f == "A":
        return _simple_chain(n + 1, n)
    if f in ("B", "BC"):
        return _simple_chain(n, n - 1) + [_basis_vec(n, {n - 1: 1})]
    if f == "C":
        return _simple_chain(n, n - 1) + [_basis_vec(n, {n - 1: 2})]
    if f == "D":
        return _simple_chain(n, n - 1) + [_basis_vec(n, {n - 2: 1, n - 1: 1})]
    if f == "E":
        a1 = tuple(Fraction(s, 2) for s in (1, -1, -1, -1, -1, -1, -1, 1))
        a2 = _basis_vec(8, {0: 1, 1: 1})
        return [a1, a2] + [_basis_vec(8, {i - 1: -1, i: 1})
                           for i in range(1, n - 1)]
    if f == "F":
        return [
            _basis_vec(4, {1: 1, 2: -1}),
            _basis_vec(4, {2: 1, 3: -1}),
            _basis_vec(4, {3: 1}),
            tuple(Fraction(s, 2) for s in (1, -1, -1, -1)),
        ]
    # G2
    return [
        _basis_vec(3, {0: 1, 1: -1}),
        _basis_vec(3, {0: -2, 1: 1, 2: 1}),
    ]


def cartan_matrix(basis: Sequence[Vector]) -> Optional[Tuple[IntVector, ...]]:
    """Cartan integers n_ij = 2<b_i, b_j> / <b_j, b_j> of a basis, as ints.

    Int and Fraction vectors alike (``divmod`` of two Fractions has an
    int quotient); None when some pairing is not an integer.
    """
    if any(is_zero(b) for b in basis):
        raise ValueError("zero vector in basis")
    g = gram(basis)
    pairs = [[divmod(2 * gij, g[j][j]) for j, gij in enumerate(gi)] for gi in g]
    if any(rem for row in pairs for _, rem in row):
        return None
    return tuple(tuple(c for c, _ in row) for row in pairs)


def _orbit(cartan: Sequence[IntVector], seeds: Sequence[int]
           ) -> Set[Tuple[int, ...]]:
    """The W-orbit of the simple roots numbered seeds (0-indexed), as
    coefficient vectors over the simple roots.

    The simple reflections act as s_j(c) = c - <c, a_j^vee> e_j, the
    pairing <c, a_j^vee> being sum_i c_i cartan[i][j].  Every root is
    W-conjugate to a simple root (Bourbaki, Lie Groups and Lie Algebras
    VI.1.5), so seeding every index gives the whole reduced system.
    """
    n = len(cartan)
    columns = list(zip(*cartan))
    found = {tuple(int(i == j) for i in range(n)) for j in seeds}
    frontier = list(found)
    while frontier:
        c = frontier.pop()
        for j, col in enumerate(columns):
            pairing = sum(map(mul, c, col))
            if pairing:
                image = c[:j] + (c[j] - pairing,) + c[j + 1:]
                if image not in found:
                    found.add(image)
                    frontier.append(image)
    return found


@lru_cache(maxsize=None)
def build(label: TypeLabel) -> RealizedRootSystem:
    """Realize a root system with Bourbaki-numbered simple roots.

    The root coefficients are the orbit of the simple roots under the
    simple reflections, read off the int Cartan matrix.  BC_n is B_n
    plus twice its short roots, which in B_n are one W-orbit, that of
    a_n = e_n (Bourbaki VI.1.3).
    """
    simple = tuple(_simple_roots(label))
    cartan = cartan_matrix(to_ints(simple)[1])
    if cartan is None:
        raise ValueError(f"{label}: non-integral Cartan pairing")
    n = label.rank
    coefficients = _orbit(cartan, range(n))
    if label.family == "BC":
        coefficients |= {tuple(2 * x for x in c)
                         for c in _orbit(cartan, [n - 1])}
    if len(coefficients) != label.root_count:
        raise AssertionError(f"{label}: built {len(coefficients)} roots, "
                             f"expected {label.root_count}")
    return RealizedRootSystem(label, simple, tuple(sorted(coefficients)))


def irreducible_labels(rank: int) -> List[TypeLabel]:
    """Irreducible detection targets of the given rank: every family whose
    ``_FAMILIES`` row lists it at that rank, in table order.

    B1, C1, D2 (= A1 x A1) and D3 (= A3) are excluded so that
    irreducibility bookkeeping stays unambiguous; BC is included at every
    rank.
    """
    return [TypeLabel(family, rank) for family, (_, listed, highest, _)
            in _FAMILIES.items() if listed <= rank <= (highest or rank)]


@lru_cache(maxsize=None)
def _type_of(rank: int, det: int, norms: Tuple[int, ...]
             ) -> Optional[TypeLabel]:
    """First label of ``irreducible_labels(rank)`` with this Cartan
    determinant and these simple-root norms over the shortest, sorted;
    None when no label has them."""
    key = (det, Counter(norms))
    return next((lab for lab in irreducible_labels(rank)
                 if (lab.cartan_det, lab.basis_profile) == key), None)


@lru_cache(maxsize=None)
def _reduced(label: TypeLabel) -> Optional[TypeLabel]:
    return _type_of(label.rank, label.cartan_det,
                    tuple(sorted(Counter(label.basis_profile).elements())))


def finite_type(cartan: List[List[int]], norms: List) -> Optional[TypeLabel]:
    """Type of a connected Cartan matrix whose simple roots have these
    squared norms, or None unless the matrix is positive definite: every
    Bareiss pivot positive, the last being its determinant.

    Connectivity is the caller's to check (``detect.match_type`` counts
    the diagram's edges): the invariants of a disconnected matrix can
    be a connected type's, as E8 x A1 x A1 has those of D10.  Its
    components are typed one by one only in the tests, by
    ``oracles.shape_match_type``."""
    k = len(cartan)
    det = bareiss_minors(cartan, k)[-1]
    if det <= 0:
        return None
    short = min(norms)  # every ratio to it is 1, 2 or 3 in a finite type
    return _type_of(k, det, tuple(sorted(n // short for n in norms)))


def detection_targets(d: int, reducible: bool = False,
                      require_exceptional_component: bool = False
                      ) -> Tuple[Target, ...]:
    """Candidate targets of rank d for the detector.

    With ``reducible`` the result is every multiset of irreducible labels
    whose ranks sum to d (the single-label ones included); the
    exceptional flag keeps only targets with at least one component among
    E, F, G.  The irreducible targets come first, then the products, each
    in the lexicographic order of its components' ``sort_key``.  The
    tuple is built once per argument values and shared by every caller.
    """
    return _targets(d, reducible, require_exceptional_component)


@lru_cache(maxsize=None)
def _targets(d: int, reducible: bool, exceptional: bool) -> Tuple[Target, ...]:
    if d < 1:
        raise ValueError("rank must be positive")
    labels = [lab for r in (range(d, 0, -1) if reducible else (d,))
              for lab in irreducible_labels(r)]
    targets = (Target(parts) for parts in _multisets(d, labels, 0))
    return tuple(t for t in targets
                 if t.has_exceptional_component or not exceptional)


def _multisets(d: int, labels: List[TypeLabel], start: int
               ) -> Iterator[Tuple[TypeLabel, ...]]:
    """Every multiset of ``labels[start:]`` whose ranks sum to d, once, as
    a tuple in the order of labels, in the lexicographic order of those
    tuples."""
    for i in range(start, len(labels)):
        lab = labels[i]
        if lab.rank == d:
            yield (lab,)
        elif lab.rank < d:
            for rest in _multisets(d - lab.rank, labels, i):
                yield (lab, *rest)
