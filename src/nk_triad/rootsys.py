"""Root systems of the compact simple Lie algebras, in exact rational arithmetic.

Roots are stored as integer coefficient vectors over a fixed simple-root basis
``alpha_1 .. alpha_l``.  Inner products are exact fractions, normalized so that
the highest root mu has squared length 2 (written ``kappa`` in reports).  With
this normalization the squared length of any root is 2, 1 or 2/3, so 6 x Gram
is an integer matrix: inner products are summed in Python ints over it and
returned as one exact ``Fraction(total, 6)``.

Node numbering follows the convention where the exceptional chains read

    e6:  6-5-4-3-1   with 2 attached to 4
    e7:  7-6-5-4-3-1 with 2 attached to 4
    e8:  8-7-6-5-4-3-1 with 2 attached to 4
    f4:  1-2=>3-4    (1, 2 long)
    g2:  1<=2        (1 short, triple bond)

and b_n / c_n / d_n carry the short or fork end at the last node(s).

Instances are immutable after construction; sharing them across threads is
safe.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

Coeffs = tuple[int, ...]

KAPPA = Fraction(2)  # squared length of the highest root


class InvalidRank(ValueError):
    """Raised when (family, rank) is not a valid simple type."""


class NotARoot(ValueError):
    """Raised when a coefficient vector is not a root of the system."""


class NotClosed(ValueError):
    """Raised when a root subset is not closed under negation/addition."""


_RANK_TEST = {
    "a": lambda n: n >= 1,
    "b": lambda n: n >= 2,
    "c": lambda n: n >= 2,
    "d": lambda n: n >= 4,
    "e": lambda n: n in (6, 7, 8),
    "f": lambda n: n == 4,
    "g": lambda n: n == 2,
}


def _validate_type(family: str, rank: int) -> str:
    family = family.lower()
    if family not in _RANK_TEST or not _RANK_TEST[family](rank):
        raise InvalidRank(f"no simple type {family}{rank}")
    return family


def _diagram(family: str, rank: int) -> tuple[list[tuple[int, int]], list[Fraction]]:
    """Edges (0-based) and squared lengths of the simple roots."""
    long, short = Fraction(2), Fraction(1)
    chain = [(i, i + 1) for i in range(rank - 1)]
    if family == "a":
        return chain, [long] * rank
    if family == "b":
        return chain, [long] * (rank - 1) + [short]
    if family == "c":
        return chain, [short] * (rank - 1) + [long]
    if family == "d":
        edges = [(i, i + 1) for i in range(rank - 2)] + [(rank - 3, rank - 1)]
        return edges, [long] * rank
    if family == "g":
        return [(0, 1)], [Fraction(2, 3), long]
    if family == "f":
        return chain, [long, long, short, short]
    # e6/e7/e8: chain rank..4 then 4-3-1, node 2 attached to node 4 (1-based)
    one = {6: [(0, 2), (2, 3), (3, 4), (4, 5), (1, 3)],
           7: [(0, 2), (2, 3), (3, 4), (4, 5), (5, 6), (1, 3)],
           8: [(0, 2), (2, 3), (3, 4), (4, 5), (5, 6), (6, 7), (1, 3)]}
    return one[rank], [long] * rank


@dataclass(frozen=True)
class Root:
    """A root, as integer coordinates over the simple roots."""

    coeffs: Coeffs
    norm_sq: Fraction

    @property
    def height(self) -> int:
        return sum(self.coeffs)

    def __neg__(self) -> "Root":
        return Root(tuple(-c for c in self.coeffs), self.norm_sq)


def _as_coeffs(root) -> Coeffs:
    return tuple(root.coeffs) if isinstance(root, Root) else tuple(root)


class RootSystem:
    """Positive roots, Gram matrix and highest root of a simple type."""

    def __init__(self, family: str, rank: int):
        self.family = _validate_type(family, rank)
        self.rank = rank
        edges, norms = _diagram(self.family, rank)
        gram = [[Fraction(0)] * rank for _ in range(rank)]
        for i in range(rank):
            gram[i][i] = norms[i]
        for i, j in edges:
            gram[i][j] = gram[j][i] = -max(norms[i], norms[j]) / 2
        self.gram: tuple[tuple[Fraction, ...], ...] = tuple(tuple(r) for r in gram)
        gram6 = [[6 * x for x in r] for r in gram]
        assert all(x.denominator == 1 for r in gram6 for x in r), "6 x Gram must be integral"
        self.gram6: tuple[tuple[int, ...], ...] = tuple(tuple(int(x) for x in r) for r in gram6)
        self.cartan_matrix: tuple[tuple[int, ...], ...] = tuple(
            tuple(int(2 * gram[i][j] / gram[j][j]) for j in range(rank))
            for i in range(rank)
        )
        self._generate()

    # -- construction -------------------------------------------------------

    def _generate(self) -> None:
        rank = self.rank
        simple = [tuple(int(i == j) for j in range(rank)) for i in range(rank)]
        known: set[Coeffs] = set(simple)
        frontier = list(simple)
        while frontier:
            new: list[Coeffs] = []
            for gamma in frontier:
                for i in range(rank):
                    pairing = 2 * self._inner(gamma, simple[i]) / self.gram[i][i]
                    down = 0
                    probe = list(gamma)
                    while True:
                        probe[i] -= 1
                        if tuple(probe) in known or tuple(-c for c in probe) in known:
                            down += 1
                        else:
                            break
                    if down - pairing > 0:
                        up = tuple(c + int(i == j) for j, c in enumerate(gamma))
                        if up not in known:
                            known.add(up)
                            new.append(up)
            frontier = new
        ordered = sorted(known)
        self._roots: set[Coeffs] = set(ordered) | {tuple(-c for c in r) for r in ordered}
        self.positive_roots: tuple[Root, ...] = tuple(
            Root(c, self._inner(c, c)) for c in ordered
        )
        self._index = {r.coeffs: k for k, r in enumerate(self.positive_roots)}
        self.highest_root: Root = max(self.positive_roots, key=lambda r: (r.height, r.coeffs))
        for r in self.positive_roots:
            if any(m < n for m, n in zip(self.highest_root.coeffs, r.coeffs)):
                raise NotARoot("highest root is not componentwise maximal")
        self.marks: Coeffs = self.highest_root.coeffs
        self.n_positive = len(self.positive_roots)
        self.simple_roots: tuple[Root, ...] = tuple(
            Root(c, self._inner(c, c)) for c in simple
        )

    # -- exact arithmetic ----------------------------------------------------

    def _inner(self, a: Sequence[int], b: Sequence[int]) -> Fraction:
        total = 0
        for ai, row in zip(a, self.gram6):
            if ai:
                total += ai * sum(g * bj for g, bj in zip(row, b))
        return Fraction(total, 6)

    def inner(self, a, b) -> Fraction:
        """Exact inner product of two coefficient vectors."""
        return self._inner(_as_coeffs(a), _as_coeffs(b))

    def norm_sq(self, a) -> Fraction:
        c = _as_coeffs(a)
        return self._inner(c, c)

    def is_root(self, a) -> bool:
        return _as_coeffs(a) in self._roots

    def index(self, a) -> int:
        """Position of a positive root in the lexicographic enumeration."""
        c = _as_coeffs(a)
        if c not in self._index:
            raise NotARoot(f"{c} is not a positive root of {self.type_label}")
        return self._index[c]

    def root(self, a) -> Root:
        c = _as_coeffs(a)
        if not self.is_root(c):
            raise NotARoot(f"{c} is not a root of {self.type_label}")
        return Root(c, self._inner(c, c))

    def all_roots(self) -> list[Root]:
        return [r for r in self.positive_roots] + [-r for r in self.positive_roots]

    @property
    def type_label(self) -> str:
        return f"{self.family}{self.rank}"

    def __repr__(self) -> str:
        return f"RootSystem({self.type_label}, {self.n_positive} positive roots)"


def build_root_system(family: str, rank: int) -> RootSystem:
    """Construct the root system of a compact simple type."""
    return RootSystem(family, rank)


def root_string(rs: RootSystem, alpha, beta) -> tuple[int, int]:
    """Bounds (p, q) of the alpha-string through beta: beta + n*alpha, p <= n <= q.

    Satisfies p <= 0 <= q and p + q = -2<beta,alpha>/<alpha,alpha>.
    """
    a, b = _as_coeffs(alpha), _as_coeffs(beta)
    if not rs.is_root(a) or not rs.is_root(b):
        raise NotARoot("root string endpoints must be roots")
    if a == b or a == tuple(-x for x in b):
        raise NotARoot("root string direction must differ from +/-beta")
    q = 0
    probe = list(b)
    while True:
        probe = [x + y for x, y in zip(probe, a)]
        if rs.is_root(tuple(probe)) and any(probe):
            q += 1
        else:
            break
    p = 0
    probe = list(b)
    while True:
        probe = [x - y for x, y in zip(probe, a)]
        if rs.is_root(tuple(probe)) and any(probe):
            p -= 1
        else:
            break
    return p, q


# -- subsystem classification ------------------------------------------------


@dataclass(frozen=True)
class SubsystemType:
    """Irreducible components of a closed subsystem, plus leftover torus rank."""

    components: tuple[tuple[str, int], ...]
    torus_rank: int

    def __str__(self) -> str:
        parts = [f"{f}{r}" for f, r in self.components]
        if self.torus_rank:
            parts.append(f"T^{self.torus_rank}")
        return "+".join(parts) if parts else "0"


def _rational_rank(vectors: list[Coeffs]) -> int:
    rows = [[Fraction(c) for c in v] for v in vectors]
    rank = 0
    ncols = len(rows[0]) if rows else 0
    col = 0
    while rank < len(rows) and col < ncols:
        pivot = next((r for r in range(rank, len(rows)) if rows[r][col]), None)
        if pivot is None:
            col += 1
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        lead = rows[rank][col]
        for r in range(len(rows)):
            if r != rank and rows[r][col]:
                factor = rows[r][col] / lead
                rows[r] = [x - factor * y for x, y in zip(rows[r], rows[rank])]
        rank += 1
        col += 1
    return rank


def _cartan_of(family: str, rank: int) -> tuple[tuple[int, ...], ...]:
    return RootSystem(family, rank).cartan_matrix if rank > 0 else ()


_CANDIDATE_CACHE: dict[tuple[str, int], tuple[tuple[int, ...], ...]] = {}


def _candidates(rank: int) -> list[tuple[str, int]]:
    cands = [("a", rank)]
    if rank >= 2:
        cands.append(("b", rank))
    if rank >= 3:
        cands.append(("c", rank))
    if rank >= 4:
        cands.append(("d", rank))
    if rank in (6, 7, 8):
        cands.append(("e", rank))
    if rank == 4:
        cands.append(("f", 4))
    if rank == 2:
        cands.append(("g", 2))
    return cands


def _matrices_isomorphic(a, b) -> bool:
    n = len(a)
    if len(b) != n:
        return False
    sig = lambda m, i: tuple(sorted(m[i][j] * m[j][i] for j in range(n) if j != i and m[i][j]))
    asig = [(a[i][i], sig(a, i)) for i in range(n)]
    bsig = [(b[i][i], sig(b, i)) for i in range(n)]
    if sorted(asig) != sorted(bsig):
        return False

    def extend(mapping: dict[int, int]) -> bool:
        if len(mapping) == n:
            return True
        i = len(mapping)
        used = set(mapping.values())
        for j in range(n):
            if j in used or asig[i] != bsig[j]:
                continue
            if all(a[i][k] == b[j][mapping[k]] and a[k][i] == b[mapping[k]][j]
                   for k in mapping):
                mapping[i] = j
                if extend(mapping):
                    return True
                del mapping[i]
        return False

    return extend({})


def _identify_component(cartan: list[list[int]]) -> tuple[str, int]:
    rank = len(cartan)
    for family, r in _candidates(rank):
        key = (family, r)
        if key not in _CANDIDATE_CACHE:
            _CANDIDATE_CACHE[key] = _cartan_of(family, r)
        if _matrices_isomorphic(cartan, _CANDIDATE_CACHE[key]):
            return family, r
    raise NotClosed(f"rank-{rank} component matches no simple type")


def subsystem_type(rs: RootSystem, roots: Iterable, ambient_rank: int | None = None) -> SubsystemType:
    """Classify a closed, negation-symmetric subsystem up to isomorphism.

    Components are named canonically: rank-1 pieces as a1, the rank-2
    double-bond system as b2, and a 3-chain as a3.
    """
    subset = {_as_coeffs(r) for r in roots}
    for c in subset:
        if not rs.is_root(c):
            raise NotARoot(f"{c} is not a root")
        if tuple(-x for x in c) not in subset:
            raise NotClosed("subsystem is not closed under negation")
    for x, y in itertools.combinations(subset, 2):
        s = tuple(a + b for a, b in zip(x, y))
        if any(s) and rs.is_root(s) and s not in subset:
            raise NotClosed("subsystem is not closed under addition")

    ambient = rs.rank if ambient_rank is None else ambient_rank
    positives = sorted(c for c in subset if c in rs._index)
    torus = ambient - (_rational_rank(positives) if positives else 0)
    if not positives:
        return SubsystemType((), torus)

    posset = set(positives)
    simples = []
    for beta in positives:
        decomposable = any(
            tuple(b - g for b, g in zip(beta, gamma)) in posset
            for gamma in positives if gamma != beta
        )
        if not decomposable:
            simples.append(beta)

    m = len(simples)
    cartan = [[int(2 * rs.inner(simples[i], simples[j]) / rs.norm_sq(simples[j]))
               for j in range(m)] for i in range(m)]

    comps: list[list[int]] = []
    seen: set[int] = set()
    for start in range(m):
        if start in seen:
            continue
        stack, comp = [start], []
        while stack:
            node = stack.pop()
            if node in seen:
                continue
            seen.add(node)
            comp.append(node)
            stack.extend(j for j in range(m) if j not in seen and cartan[node][j])
        comps.append(sorted(comp))

    names = []
    for comp in comps:
        sub = [[cartan[i][j] for j in comp] for i in comp]
        names.append(_identify_component(sub))
    return SubsystemType(tuple(sorted(names)), torus)


def canonical_simple_type(family: str, rank: int) -> tuple[tuple[str, int], ...]:
    """Canonical component naming used by subsystem_type, for round-trip tests."""
    if rank == 1:
        return (("a", 1),)
    if (family, rank) == ("c", 2):
        return (("b", 2),)
    if (family, rank) == ("d", 3):
        return (("a", 3),)
    return ((family, rank),)


def diagram_automorphisms(rs: RootSystem) -> list[tuple[int, ...]]:
    """All permutations of the simple roots preserving the Cartan matrix."""
    n = rs.rank
    a = rs.cartan_matrix
    perms: list[tuple[int, ...]] = []

    def extend(mapping: list[int]) -> None:
        i = len(mapping)
        if i == n:
            perms.append(tuple(mapping))
            return
        for j in range(n):
            if j in mapping:
                continue
            if all(a[i][k] == a[j][mapping[k]] and a[k][i] == a[mapping[k]][j]
                   for k in range(i)):
                mapping.append(j)
                extend(mapping)
                mapping.pop()

    extend([])
    return perms
