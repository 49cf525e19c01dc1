"""Root systems of the compact simple Lie algebras, in exact integer arithmetic.

Roots are stored as integer coefficient vectors over a fixed simple-root basis
``alpha_1 .. alpha_l``, normalized so that the highest root mu has squared
length 2 (``kappa`` in reports).  Squared lengths are then 2, 1 or 2/3, so
6 x Gram (``gram6``) is an integer matrix, and inner products are int sums
over it returned as one exact ``Fraction(total, 6)``.

Each root also has one additive int64 key (``_keys64``): its coefficients as
signed digits in base ``key_base = 4 * (largest mark) + 1``.  A sum of two
roots has digits of size at most 2 * (largest mark), so there key(a) + key(b)
= key(a + b), and one sorted lookup of the summed keys gives the
root-addition table ``plus`` over the 2n roots (``roots``: the positives, then
their negatives).  Membership is checked on the tuple, so no vector aliases a
root.  From a28 the int64 keys wrap, and ``plus`` checks its entries on the
coefficients.
Closed subsystems (Dynkin, Mat. Sb. 30 (1952)) are boolean masks over the
roots, closed and classified by reads of ``plus``: their indecomposable
positives are a base, and the Cartan matrix is an int product of 6 x Gram rows.

Node numbering follows the convention where the exceptional chains read

    e6:  6-5-4-3-1   with 2 attached to 4
    e7:  7-6-5-4-3-1 with 2 attached to 4
    e8:  8-7-6-5-4-3-1 with 2 attached to 4
    f4:  1-2=>3-4    (1, 2 long)
    g2:  1<=2        (1 short, triple bond)

and b_n / c_n / d_n carry the short or fork end at the last node(s).

Instances are immutable after construction (``plus``, built on first use, is
a read-only array), apart from memos of frozen classifications (``subsystem_type``)
and of read-only root splits (``InnerClass.split``); sharing them across threads is safe.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np

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
                for i, col in enumerate(self.gram6):
                    # 2<gamma, alpha_i>/<alpha_i, alpha_i> is pairing6 / col[i], in ints
                    pairing6 = 2 * sum(g * c for g, c in zip(col, gamma))
                    down = 0
                    probe = list(gamma)
                    while True:
                        probe[i] -= 1
                        if tuple(probe) in known or tuple(-c for c in probe) in known:
                            down += 1
                        else:
                            break
                    if down * col[i] > pairing6:
                        up = tuple(c + int(i == j) for j, c in enumerate(gamma))
                        if up not in known:
                            known.add(up)
                            new.append(up)
            frontier = new
        self.positive_roots: tuple[Root, ...] = tuple(
            Root(c, self._inner(c, c)) for c in sorted(known)
        )
        self.highest_root: Root = max(self.positive_roots, key=lambda r: (r.height, r.coeffs))
        for r in self.positive_roots:
            if any(m < n for m, n in zip(self.highest_root.coeffs, r.coeffs)):
                raise NotARoot("highest root is not componentwise maximal")
        self.marks: Coeffs = self.highest_root.coeffs
        self.n_positive = len(self.positive_roots)
        n, self.key_base = self.n_positive, 4 * max(self.marks) + 1
        self.roots: list[Coeffs] = [r.coeffs for r in self.all_roots()]
        self.root_index: dict[Coeffs, int] = {c: k for k, c in enumerate(self.roots)}
        self._coeffs = np.array(self.roots, dtype=np.int64)
        # the additive key of every root, read by ``plus``; it wraps from a28
        self._keys64 = self._coeffs @ self.key_base ** np.arange(self.rank, dtype=np.int64)
        self._gram6_rows = self._coeffs @ np.array(self.gram6, dtype=np.int64)
        self.neg = np.r_[np.arange(n, 2 * n), np.arange(n)]
        self._subsystem_types: dict[bytes, SubsystemType] = {}
        self._splits: dict = {}     # InnerClass -> its split (``InnerClass.split``)

    @functools.cached_property
    def plus(self) -> np.ndarray:
        """plus[i, j], the index in ``roots`` of root i + root j or -1; read-only,
        and built on first use, so listing the classes of a large rank holds none.

        The int64 keys wrap once key_base ** rank passes 2^63 (from a28).
        There the digit argument no longer holds, so every stored entry is
        checked on the coefficients; ``OverflowError`` if a key read a sum as
        the wrong root."""
        keys = self._keys64
        order = np.argsort(keys)
        sums = keys[:, None] + keys[None, :]
        at = np.minimum(np.searchsorted(keys[order], sums), keys.size - 1)
        plus = np.where(keys[order][at] == sums, order[at], -1)
        if self.key_base ** self.rank > 2 ** 63:
            i, j = np.nonzero(plus >= 0)
            got, want = self._coeffs[plus[i, j]], self._coeffs[i] + self._coeffs[j]
            if not np.array_equal(got, want):
                n = np.flatnonzero((got != want).any(axis=1))[0]
                raise OverflowError(f"{self.type_label}: int64 root keys alias: {self.roots[i[n]]}"
                                    f" + {self.roots[j[n]]} read as {self.roots[plus[i[n], j[n]]]}")
        plus.flags.writeable = False
        return plus

    # -- exact arithmetic ----------------------------------------------------

    def _inner(self, a: Sequence[int], b: Sequence[int]) -> Fraction:
        total = 0
        for ai, row in zip(a, self.gram6):
            if ai:
                total += ai * sum(g * bj for g, bj in zip(row, b))
        return Fraction(total, 6)

    def norm_sq(self, a) -> Fraction:
        c = _as_coeffs(a)
        return self._inner(c, c)

    def is_root(self, a) -> bool:
        return _as_coeffs(a) in self.root_index

    def sum_mask(self, xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
        """Mask of the roots x + y, for roots x in the mask xs and y in the mask ys."""
        out = np.zeros(xs.size + 1, dtype=bool)
        out[self.plus[xs][:, ys]] = True        # a -1 (no root) lands on the extra slot
        return out[:-1]

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


def alpha_levels(rs: RootSystem, h_nodes) -> tuple[np.ndarray, int]:
    """a(H) mod 1 on every root of ``rs.roots``, as int numerators over one denominator.

    H = sum_k c_k H_{n_k} for the pairs (n_k, c_k) of ``h_nodes``, with
    alpha_j(H_i) = delta_ij / m_i.  Returns (levels, d) with
    a(H) = levels[i] / d mod 1 on root i, d the lcm of the denominators of the
    c_k / m_k (3 on every order-3 class).
    """
    steps = [(n - 1, c.numerator, c.denominator * rs.marks[n - 1]) for n, c in h_nodes]
    d = math.lcm(*(den // math.gcd(num, den) for _, num, den in steps))
    return sum(num * d // den * rs._coeffs[:, i] for i, num, den in steps) % d, d


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


def _component_type(cartan: list[list[int]], norms: list[int]) -> tuple[str, int]:
    """Dynkin type of a connected Cartan matrix whose nodes have the squared
    lengths ``norms``: bond multiplicities, the count of short nodes, and the
    arm lengths at a branch node."""
    n = len(cartan)
    bonds = {cartan[i][j] * cartan[j][i] for i in range(n) for j in range(i)}
    if 3 in bonds:
        return "g", 2
    if 2 in bonds:
        short = sum(x < max(norms) for x in norms)
        return ("b" if short == 1 else "f" if (n, short) == (4, 2) else "c"), n
    nbrs = [[j for j in range(n) if j != i and cartan[i][j]] for i in range(n)]
    branch = next((i for i in range(n) if len(nbrs[i]) == 3), None)
    if branch is None:
        return "a", n
    arms = []
    for node in nbrs[branch]:
        prev, length = branch, 1
        while len(nbrs[node]) == 2:
            prev, node = node, sum(nbrs[node]) - prev
            length += 1
        arms.append(length)
    return ("d" if sorted(arms)[1] == 1 else "e"), n


def subsystem_type(rs: RootSystem, subset: np.ndarray) -> SubsystemType:
    """Classify a closed, negation-symmetric mask over ``rs.roots`` up to isomorphism.

    Components are named canonically: rank-1 pieces as a1, the rank-2
    double-bond system as b2, and a 3-chain as a3.  The torus rank is the
    rank of ``rs`` less that of the subsystem.  Memoised on ``rs`` by the
    packed mask; a mask that is not closed raises ``NotClosed`` every time.
    """
    key = np.packbits(subset).tobytes()
    if key not in rs._subsystem_types:
        rs._subsystem_types[key] = _classify(rs, subset)
    return rs._subsystem_types[key]


def _classify(rs: RootSystem, subset: np.ndarray) -> SubsystemType:
    """``subsystem_type`` without the memo: closure checks, then the Dynkin type."""
    if (subset != subset[rs.neg]).any():
        raise NotClosed("subsystem is not closed under negation")
    positives = subset.copy()
    positives[rs.n_positive:] = False
    # with subset symmetric, x + y outside it implies -x - y outside it too
    if (rs.sum_mask(positives, subset) & ~subset).any():
        raise NotClosed("subsystem is not closed under addition")

    # the indecomposable positives of a closed symmetric subsystem are a base
    # of it, so their count is its rank
    simples = np.flatnonzero(positives & ~rs.sum_mask(positives, positives))
    m = simples.size
    gram6 = (rs._gram6_rows[simples] @ rs._coeffs[simples].T).tolist()
    cartan = [[2 * gram6[i][j] // gram6[j][j] for j in range(m)] for i in range(m)]

    comps: list[set[int]] = []   # connected components of the Dynkin diagram
    for i in range(m):
        touching = [c for c in comps if any(cartan[i][j] for j in c)]
        comps = [c for c in comps if c not in touching] + [{i}.union(*touching)]
    names = [_component_type([[cartan[i][j] for j in c] for i in c], [gram6[i][i] for i in c])
             for c in map(sorted, comps)]
    return SubsystemType(tuple(sorted(names)), rs.rank - m)


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
