"""Concrete realizations of the finite crystallographic root systems.

Families A-D are realized in their usual coordinate ambient spaces, the
E types inside the 8-dimensional ambient of E8 (E7 orthogonal to one
vector, E6 to two), F4 in dimension 4 and G2 in dimension 3.  Simple
roots follow the Bourbaki numbering throughout; Cartan matrices use the
convention ``cartan[i][j] = 2<a_i, a_j> / <a_j, a_j>``.

BC_n (the non-reduced system B_n plus the doubled short roots) is
constructible as a detection target universe but is never offered as an
ambient source.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import product
from typing import Dict, Iterator, List, Sequence, Tuple

from .linalg import Matrix, Vector, dot, expand, norm2

FAMILIES = ("A", "B", "C", "D", "E", "F", "G", "BC")

# Order used when sorting labels of equal rank into a canonical product string.
_FAMILY_ORDER = {f: i for i, f in enumerate(FAMILIES)}

_LABEL_RE = re.compile(r"^(BC|[A-G])\s*(\d+)$", re.IGNORECASE)


@dataclass(frozen=True)
class TypeLabel:
    """An irreducible type such as A5, E8 or BC3."""

    family: str
    rank: int

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ValueError(f"unknown family {self.family!r}")
        if self.rank < 1:
            raise ValueError("rank must be positive")
        if self.family == "E" and self.rank not in (6, 7, 8):
            raise ValueError("E exists only in ranks 6, 7, 8")
        if self.family == "F" and self.rank != 4:
            raise ValueError("F exists only in rank 4")
        if self.family == "G" and self.rank != 2:
            raise ValueError("G exists only in rank 2")
        if self.family == "D" and self.rank < 2:
            raise ValueError("D needs rank >= 2")

    def __str__(self) -> str:
        return f"{self.family}{self.rank}"

    @property
    def sort_key(self) -> Tuple[int, int]:
        return (-self.rank, _FAMILY_ORDER[self.family])

    @property
    def is_exceptional(self) -> bool:
        return self.family in ("E", "F", "G")

    @property
    def root_count(self) -> int:
        n = self.rank
        if self.family == "A":
            return n * (n + 1)
        if self.family in ("B", "C"):
            return 2 * n * n
        if self.family == "D":
            return 2 * n * (n - 1)
        if self.family == "BC":
            return 2 * n * n + 2 * n
        if self.family == "E":
            return {6: 72, 7: 126, 8: 240}[n]
        if self.family == "F":
            return 48
        return 12  # G2


def parse_label(text: str) -> TypeLabel:
    m = _LABEL_RE.match(text.strip())
    if not m:
        raise ValueError(f"cannot parse type label {text!r}")
    return TypeLabel(m.group(1).upper(), int(m.group(2)))


def normalize_components(labels: Sequence[TypeLabel]) -> Tuple[TypeLabel, ...]:
    """Canonical equivalence form of a component multiset.

    B1 and C1 are A1, C2 is B2 (same system, rescaled), D2 splits into
    A1 x A1 and D3 is A3.  The result is sorted canonically.
    """
    out: List[TypeLabel] = []
    for lab in labels:
        if lab.family in ("B", "C") and lab.rank == 1:
            out.append(TypeLabel("A", 1))
        elif lab.family == "C" and lab.rank == 2:
            out.append(TypeLabel("B", 2))
        elif lab.family == "D" and lab.rank == 2:
            out.extend([TypeLabel("A", 1), TypeLabel("A", 1)])
        elif lab.family == "D" and lab.rank == 3:
            out.append(TypeLabel("A", 3))
        else:
            out.append(lab)
    return tuple(sorted(out, key=lambda l: l.sort_key))


@dataclass(frozen=True)
class Target:
    """A detection target: one irreducible label or a product of them."""

    components: Tuple[TypeLabel, ...]

    def __post_init__(self):
        if not self.components:
            raise ValueError("target needs at least one component")
        object.__setattr__(
            self, "components",
            tuple(sorted(self.components, key=lambda l: l.sort_key)))

    def __str__(self) -> str:
        return "x".join(str(c) for c in self.components)

    @property
    def rank(self) -> int:
        return sum(c.rank for c in self.components)

    @property
    def root_count(self) -> int:
        return sum(c.root_count for c in self.components)

    @property
    def is_irreducible(self) -> bool:
        return len(self.components) == 1

    @property
    def has_exceptional_component(self) -> bool:
        return any(c.is_exceptional for c in self.components)

    def normalized(self) -> Tuple[TypeLabel, ...]:
        return normalize_components(self.components)

    @property
    def sort_key(self):
        return (len(self.components) > 1,
                tuple(c.sort_key for c in self.components))


def parse_target(text: str) -> Target:
    parts = [p for p in text.strip().split("x") if p]
    if not parts:
        raise ValueError(f"cannot parse target {text!r}")
    return Target(tuple(parse_label(p) for p in parts))


@dataclass(frozen=True)
class RealizedRootSystem:
    """A root system embedded in coordinates, with its simple roots."""

    label: TypeLabel
    ambient_dim: int
    roots: Tuple[Vector, ...]
    simple_roots: Tuple[Vector, ...]
    cartan: Matrix

    @property
    def rank(self) -> int:
        return self.label.rank

    def simple_root(self, i: int) -> Vector:
        """Simple root number i, 1-indexed as in the tables."""
        if not 1 <= i <= self.rank:
            raise ValueError(f"simple root index {i} out of range 1..{self.rank}")
        return self.simple_roots[i - 1]


def check_theta(sys: RealizedRootSystem, theta: Sequence[int],
                allow_improper: bool = False) -> Tuple[int, ...]:
    """Validate a subset of simple-root indices; returns it sorted."""
    idx = tuple(sorted(theta))
    if len(set(idx)) != len(idx):
        raise ValueError("theta indices must be distinct")
    for i in idx:
        if not 1 <= i <= sys.rank:
            raise ValueError(f"theta index {i} out of range 1..{sys.rank}")
    if not allow_improper and (len(idx) == 0 or len(idx) == sys.rank):
        raise ValueError("theta must be a proper nonempty subset of the simple roots")
    return idx


def _q(x) -> Fraction:
    return Fraction(x)


def _basis_vec(dim: int, entries: Dict[int, Fraction]) -> Vector:
    v = [Fraction(0)] * dim
    for i, c in entries.items():
        v[i] = Fraction(c)
    return tuple(v)


def _pm_pairs(dim: int, lo: int, hi: int) -> Iterator[Vector]:
    """All +-e_i +- e_j with lo <= i < j < hi (0-indexed)."""
    for i in range(lo, hi):
        for j in range(i + 1, hi):
            for si in (1, -1):
                for sj in (1, -1):
                    yield _basis_vec(dim, {i: _q(si), j: _q(sj)})


def _roots_a(n: int) -> List[Vector]:
    dim = n + 1
    out = []
    for i in range(dim):
        for j in range(dim):
            if i != j:
                out.append(_basis_vec(dim, {i: _q(1), j: _q(-1)}))
    return out


def _roots_b(n: int) -> List[Vector]:
    out = list(_pm_pairs(n, 0, n))
    for i in range(n):
        for s in (1, -1):
            out.append(_basis_vec(n, {i: _q(s)}))
    return out


def _roots_c(n: int) -> List[Vector]:
    out = list(_pm_pairs(n, 0, n))
    for i in range(n):
        for s in (1, -1):
            out.append(_basis_vec(n, {i: _q(2 * s)}))
    return out


def _roots_d(n: int) -> List[Vector]:
    return list(_pm_pairs(n, 0, n))


def _roots_bc(n: int) -> List[Vector]:
    return _roots_b(n) + [_basis_vec(n, {i: _q(2 * s)})
                          for i in range(n) for s in (1, -1)]


def _roots_e8() -> List[Vector]:
    out = list(_pm_pairs(8, 0, 8))
    for signs in product((1, -1), repeat=8):
        if sum(1 for s in signs if s < 0) % 2 == 0:
            out.append(tuple(Fraction(s, 2) for s in signs))
    return out


def _e8_simple() -> List[Vector]:
    a1 = tuple(Fraction(s, 2) for s in (1, -1, -1, -1, -1, -1, -1, 1))
    a2 = _basis_vec(8, {0: _q(1), 1: _q(1)})
    rest = [_basis_vec(8, {i - 1: _q(-1), i: _q(1)}) for i in range(1, 7)]
    return [a1, a2] + rest


def _roots_e7() -> List[Vector]:
    w = _basis_vec(8, {6: _q(1), 7: _q(1)})  # e7 + e8
    return [r for r in _roots_e8() if dot(r, w) == 0]


def _roots_e6() -> List[Vector]:
    w1 = _basis_vec(8, {6: _q(1), 7: _q(1)})  # e7 + e8
    w2 = _basis_vec(8, {5: _q(1), 7: _q(1)})  # e6 + e8
    return [r for r in _roots_e8() if dot(r, w1) == 0 and dot(r, w2) == 0]


def _roots_f4() -> List[Vector]:
    out = list(_pm_pairs(4, 0, 4))
    for i in range(4):
        for s in (1, -1):
            out.append(_basis_vec(4, {i: _q(s)}))
    for signs in product((1, -1), repeat=4):
        out.append(tuple(Fraction(s, 2) for s in signs))
    return out


def _roots_g2() -> List[Vector]:
    out = []
    for i in range(3):
        for j in range(3):
            if i != j:
                out.append(_basis_vec(3, {i: _q(1), j: _q(-1)}))
    for i in range(3):
        j, k = [x for x in range(3) if x != i]
        for s in (1, -1):
            out.append(_basis_vec(3, {i: _q(2 * s), j: _q(-s), k: _q(-s)}))
    return out


def _simple_chain(dim: int, n: int) -> List[Vector]:
    """a_i = e_i - e_{i+1} for i = 1..n."""
    return [_basis_vec(dim, {i: _q(1), i + 1: _q(-1)}) for i in range(n)]


def _simple_roots(label: TypeLabel) -> List[Vector]:
    f, n = label.family, label.rank
    if f == "A":
        return _simple_chain(n + 1, n)
    if f in ("B", "BC"):
        return _simple_chain(n, n - 1) + [_basis_vec(n, {n - 1: _q(1)})]
    if f == "C":
        return _simple_chain(n, n - 1) + [_basis_vec(n, {n - 1: _q(2)})]
    if f == "D":
        return _simple_chain(n, n - 1) + [
            _basis_vec(n, {n - 2: _q(1), n - 1: _q(1)})]
    if f == "E":
        return _e8_simple()[:n]
    if f == "F":
        return [
            _basis_vec(4, {1: _q(1), 2: _q(-1)}),
            _basis_vec(4, {2: _q(1), 3: _q(-1)}),
            _basis_vec(4, {3: _q(1)}),
            tuple(Fraction(s, 2) for s in (1, -1, -1, -1)),
        ]
    # G2
    return [
        _basis_vec(3, {0: _q(1), 1: _q(-1)}),
        _basis_vec(3, {0: _q(-2), 1: _q(1), 2: _q(1)}),
    ]


def cartan_matrix(simple_roots: Sequence[Vector]) -> Matrix:
    rows = []
    for a in simple_roots:
        row = []
        for b in simple_roots:
            c = 2 * dot(a, b) / norm2(b)
            if c.denominator != 1:
                raise ValueError("non-integral Cartan pairing; not a simple system")
            row.append(c)
        rows.append(tuple(row))
    return tuple(rows)


_ROOT_BUILDERS = {
    "A": _roots_a, "B": _roots_b, "C": _roots_c, "D": _roots_d, "BC": _roots_bc,
}


@lru_cache(maxsize=None)
def build(label: TypeLabel) -> RealizedRootSystem:
    """Realize a root system with Bourbaki-numbered simple roots."""
    f, n = label.family, label.rank
    if f in _ROOT_BUILDERS:
        roots = _ROOT_BUILDERS[f](n)
    elif f == "E":
        roots = {6: _roots_e6, 7: _roots_e7, 8: _roots_e8}[n]()
    elif f == "F":
        roots = _roots_f4()
    else:
        roots = _roots_g2()
    simple = _simple_roots(label)
    sys = RealizedRootSystem(
        label=label,
        ambient_dim=len(roots[0]),
        roots=tuple(sorted(roots)),
        simple_roots=tuple(simple),
        cartan=cartan_matrix(simple),
    )
    if len(sys.roots) != label.root_count:
        raise AssertionError(
            f"{label}: built {len(sys.roots)} roots, expected {label.root_count}")
    return sys


def build_from_name(name: str) -> RealizedRootSystem:
    return build(parse_label(name))


def simple_root_expansion(sys: RealizedRootSystem, v: Vector) -> Tuple[Fraction, ...]:
    """Coefficients of v over the simple roots, solved exactly.

    Raises ValueError when v is not in the span of the simple roots.
    For actual roots the coefficients are integers, all of one sign.
    """
    coeff = expand(v, sys.simple_roots)
    if coeff is None:
        raise ValueError("vector is not in the span of the simple roots")
    return coeff


def irreducible_labels(rank: int) -> List[TypeLabel]:
    """Irreducible detection targets of the given rank.

    D2 (= A1 x A1) and D3 (= A3) are excluded so that irreducibility
    bookkeeping stays unambiguous; BC is included at every rank.
    """
    out = [TypeLabel("A", rank)]
    if rank >= 2:
        out.append(TypeLabel("B", rank))
        out.append(TypeLabel("C", rank))
    if rank >= 4:
        out.append(TypeLabel("D", rank))
    if rank in (6, 7, 8):
        out.append(TypeLabel("E", rank))
    if rank == 4:
        out.append(TypeLabel("F", 4))
    if rank == 2:
        out.append(TypeLabel("G", 2))
    out.append(TypeLabel("BC", rank))
    return out


def detection_targets(d: int, reducible: bool = False,
                      require_exceptional_component: bool = False) -> List[Target]:
    """Candidate targets of rank d for the detector.

    With ``reducible`` the result is every multiset of irreducible labels
    whose ranks sum to d (the single-label ones included); the
    exceptional flag keeps only targets with at least one component among
    E, F, G.
    """
    if d < 1:
        raise ValueError("rank must be positive")
    if not reducible:
        targets = [Target((lab,)) for lab in irreducible_labels(d)]
    else:
        seen = set()
        targets = []

        def extend(remaining: int, parts: Tuple[TypeLabel, ...], max_rank: int):
            if remaining == 0:
                t = Target(parts)
                if t.components not in seen:
                    seen.add(t.components)
                    targets.append(t)
                return
            for r in range(min(remaining, max_rank), 0, -1):
                for lab in irreducible_labels(r):
                    extend(remaining - r, parts + (lab,), r)

        extend(d, (), d)
    if require_exceptional_component:
        targets = [t for t in targets if t.has_exceptional_component]
    targets.sort(key=lambda t: t.sort_key)
    return targets
