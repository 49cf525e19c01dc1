"""Root systems of the compact simple Lie algebras, in exact integer arithmetic.

A root is one thing: a tuple of integer coefficients over a fixed simple-root
basis ``alpha_1 .. alpha_l``, and its index in ``roots`` (the n positive roots
in sorted order, then their negatives; ``_coeffs`` is the same list as an int
array).  The highest root mu is ``marks``, normalized to squared length 2
(``kappa`` in reports).  Squared lengths are then 2, 1 or 2/3, so 6 x Gram
(``gram6``) is an integer matrix, and every pairing is an int sum over it; the
build holds no ``Fraction``.  A type is refused (``InvalidRank``) before it is
built when its estimated bytes (``root_system_bytes``) exceed
``ROOT_SYSTEM_BUDGET``.

Each root also has one additive int64 key (``_keys64``): its coefficients as
signed digits in base ``key_base = 4 * (largest mark) + 1``.  A sum of two
roots has digits of size at most 2 * (largest mark), so there key(a) + key(b)
= key(a + b), and one sorted lookup of the summed keys gives the
root-addition table ``plus`` over the 2n roots.  Membership is checked on the
tuple, so no vector aliases a root.  From a28 the int64 keys wrap, and
``plus`` checks its entries on the coefficients.  Every root string is walked
through ``plus`` by one function (``string_bounds``).
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

An inner order-3 class (``InnerClass``) is one node of mark 1, 2 or 3
(Wolf-Gray A3I, Hermitian symmetric; A3III; A3IV) or a pair of mark-1 nodes
(A3II); ``NK_TYPE`` names the nearly Kahler type of each class.  A class
holds its exact data: the levels a(H) = sum_k c_k n_k(a)/m_k mod 1 on every
root (``alpha_levels``) and the split of the positive roots into k and the
m-layers, index arrays over ``roots`` memoised on the root system
(``InnerClass.split``).

Instances are immutable after construction (``plus``, built on first use, is
a read-only array), apart from memos of frozen classifications (``subsystem_type``)
and of read-only root splits (``InnerClass.split``); sharing them across threads is safe.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from dataclasses import dataclass
from decimal import Decimal
from fractions import Fraction

import numpy as np

Coeffs = tuple[int, ...]

KAPPA = Fraction(2)  # squared length of the highest root


class InvalidRank(ValueError):
    """Raised when (family, rank) is not a valid simple type."""


class NotARoot(ValueError):
    """Raised when a coefficient vector is not a root of the system."""


class NotClosed(ValueError):
    """Raised when a root subset is not closed under negation/addition."""


class NotOrderThree(ValueError):
    """The candidate automorphism does not cube to the identity."""


class ClassificationMismatch(RuntimeError):
    """The action of k on m contradicts the type its automorphism class names."""


_RANK_TEST = {
    "a": lambda n: n >= 1,
    "b": lambda n: n >= 2,
    "c": lambda n: n >= 2,
    "d": lambda n: n >= 4,
    "e": lambda n: n in (6, 7, 8),
    "f": lambda n: n == 4,
    "g": lambda n: n == 2,
}


# the number of positive roots of each family, by rank
_N_POSITIVE = {"a": lambda r: r * (r + 1) // 2, "b": lambda r: r * r, "c": lambda r: r * r,
               "d": lambda r: r * (r - 1), "e": lambda r: {6: 36, 7: 63, 8: 120}[r],
               "f": lambda r: 24, "g": lambda r: 6}

# bytes a root system may be estimated to need (``root_system_bytes``); a60,
# the largest rank named in the project's figures, needs 0.1 GiB
ROOT_SYSTEM_BUDGET = 1 << 30


def root_system_bytes(family: str, rank: int) -> int:
    """Closed-form estimate of a root system's bytes: its (2n, 2n) int64
    addition table ``plus`` and its (2n, rank) int64 coefficients, for its n
    positive roots."""
    n = _N_POSITIVE[family](rank)
    return 8 * 2 * n * (2 * n + rank)


def _validate_type(family: str, rank: int) -> str:
    """The family in lower case; ``InvalidRank`` for a type that does not
    exist or whose estimated bytes exceed ``ROOT_SYSTEM_BUDGET``, before
    anything of the size of the rank is allocated."""
    family = family.lower()
    if family not in _RANK_TEST or not _RANK_TEST[family](rank):
        raise InvalidRank(f"no simple type {family}{rank}")
    need = root_system_bytes(family, rank)
    if need > ROOT_SYSTEM_BUDGET:
        raise InvalidRank(f"{family}{rank}: its root system needs an estimated "
                          f"{Decimal(need) / 2**30:.3g} GiB, over the budget of "
                          f"{ROOT_SYSTEM_BUDGET / 2**30:.3g} GiB")
    return family


def _diagram(family: str, rank: int) -> tuple[list[tuple[int, int]], list[int]]:
    """Edges (0-based) and 6 x the squared lengths of the simple roots."""
    long, short = 12, 6
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
        return [(0, 1)], [4, long]
    if family == "f":
        return chain, [long, long, short, short]
    # e6/e7/e8: chain rank..4 then 4-3-1, node 2 attached to node 4 (1-based)
    one = {6: [(0, 2), (2, 3), (3, 4), (4, 5), (1, 3)],
           7: [(0, 2), (2, 3), (3, 4), (4, 5), (5, 6), (1, 3)],
           8: [(0, 2), (2, 3), (3, 4), (4, 5), (5, 6), (6, 7), (1, 3)]}
    return one[rank], [long] * rank


def _shifted(c: Coeffs, i: int, by: int) -> Coeffs:
    """c + by * alpha_i."""
    return c[:i] + (c[i] + by,) + c[i + 1:]


class RootSystem:
    """The roots, 6 x Gram matrix and marks of a simple type."""

    def __init__(self, family: str, rank: int):
        self.family = _validate_type(family, rank)
        self.rank = rank
        edges, norms6 = _diagram(self.family, rank)
        gram6 = [[0] * rank for _ in range(rank)]
        for i in range(rank):
            gram6[i][i] = norms6[i]
        for i, j in edges:
            gram6[i][j] = gram6[j][i] = -max(norms6[i], norms6[j]) // 2
        self.gram6: tuple[tuple[int, ...], ...] = tuple(tuple(r) for r in gram6)
        self.cartan_matrix: tuple[tuple[int, ...], ...] = tuple(
            tuple(2 * gram6[i][j] // gram6[j][j] for j in range(rank)) for i in range(rank))
        self._generate()

    # -- construction -------------------------------------------------------

    def _generate(self) -> None:
        """The positive roots, raised from the simple roots level by level.

        gamma + alpha_i is a root exactly when q = p - <gamma, alpha_i^vee> > 0,
        with p the length of the alpha_i-string below gamma.  That string is
        walked only while its i-th coefficient stays positive: gamma - j alpha_i
        is a negative root only for gamma = alpha_i, where the probe is 0.  Each
        root carries its row of 6 x Gram pairings, 6<gamma, alpha_j> for every j,
        and the row of gamma + alpha_i is that row plus row i of ``gram6``.
        """
        rank, gram6 = self.rank, self.gram6
        simple = [tuple(int(i == j) for j in range(rank)) for i in range(rank)]
        rows: dict[Coeffs, tuple[int, ...]] = dict(zip(simple, gram6))
        frontier = simple
        while frontier:
            new: list[Coeffs] = []
            for gamma in frontier:
                row = rows[gamma]
                for i, col in enumerate(gram6):
                    down = 0
                    while down < gamma[i] and _shifted(gamma, i, -down - 1) in rows:
                        down += 1
                    # 2<gamma, alpha_i>/<alpha_i, alpha_i> is 2 row[i] / col[i], in ints
                    if down * col[i] > 2 * row[i]:
                        up = _shifted(gamma, i, 1)
                        if up not in rows:
                            rows[up] = tuple(map(operator.add, row, col))
                            new.append(up)
            frontier = new
        pos = sorted(rows)
        # the highest root: first by height, then by coefficients
        self.marks: Coeffs = max(pos, key=lambda c: (sum(c), c))
        n = self.n_positive = len(pos)
        coeffs = np.array(pos, dtype=np.int64)
        if (coeffs > np.array(self.marks)).any():
            raise NotARoot("highest root is not componentwise maximal")
        self.key_base = 4 * max(self.marks) + 1
        self.roots: list[Coeffs] = pos + [tuple(-x for x in c) for c in pos]
        self.root_index: dict[Coeffs, int] = {c: k for k, c in enumerate(self.roots)}
        self._coeffs = np.concatenate([coeffs, -coeffs])
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
        checked on the coefficients, one row of the table at a time so that
        the check holds no more than the table; ``OverflowError`` if a key
        read a sum as the wrong root."""
        keys = self._keys64
        order = np.argsort(keys)
        sums = keys[:, None] + keys[None, :]
        at = np.minimum(np.searchsorted(keys[order], sums), keys.size - 1)
        plus = np.where(keys[order][at] == sums, order[at], -1)
        del sums, at
        if self.key_base ** self.rank > 2 ** 63:
            coeffs = self._coeffs
            for i, row in enumerate(plus):
                j = np.flatnonzero(row >= 0)
                bad = np.flatnonzero((coeffs[row[j]] != coeffs[i] + coeffs[j]).any(axis=1))
                if bad.size:
                    j = j[bad[0]]
                    raise OverflowError(f"{self.type_label}: int64 root keys alias: {self.roots[i]}"
                                        f" + {self.roots[j]} read as {self.roots[plus[i, j]]}")
        plus.flags.writeable = False
        return plus

    # -- exact arithmetic ----------------------------------------------------

    def is_root(self, a) -> bool:
        return tuple(a) in self.root_index

    def sum_mask(self, xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
        """Mask of the roots x + y, for roots x in the mask xs and y in the mask ys."""
        out = np.zeros(xs.size + 1, dtype=bool)
        out[self.plus[xs][:, ys]] = True        # a -1 (no root) lands on the extra slot
        return out[:-1]

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


def string_bounds(rs: RootSystem, i: np.ndarray, j: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(-p, q) of the root i-string through root j, j + n i for p <= n <= q, on
    index arrays i and j into ``rs.roots``: the steps from j through ``plus``
    by -i and by i that stay on roots.  A pair j = +-i gives (0, 0)."""
    plus = rs.plus
    bounds = np.zeros((2, len(j)), dtype=np.int64)
    for count, step in zip(bounds, (rs.neg[i], i)):
        cur = plus[step, j]
        while (cur >= 0).any():
            count += cur >= 0
            cur = np.where(cur >= 0, plus[step, cur], -1)
    return bounds[0], bounds[1]


def root_string(rs: RootSystem, alpha, beta) -> tuple[int, int]:
    """Bounds (p, q) of the alpha-string through beta: beta + n*alpha, p <= n <= q.

    Satisfies p <= 0 <= q and p + q = -2<beta,alpha>/<alpha,alpha>.
    """
    if not rs.is_root(alpha) or not rs.is_root(beta):
        raise NotARoot("root string endpoints must be roots")
    a, b = rs.root_index[tuple(alpha)], rs.root_index[tuple(beta)]
    if a == b or a == rs.neg[b]:
        raise NotARoot("root string direction must differ from +/-beta")
    down, q = string_bounds(rs, np.array([a]), np.array([b]))
    return -int(down[0]), int(q[0])


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


# -- inner order-3 classes ----------------------------------------------------


# the nearly Kahler type each automorphism class names
NK_TYPE = {"A3I": "hermitian-symmetric", "A3II": "III", "A3III": "IV", "A3IV": "I",
           "B3": "II", "C3": "II"}
_SINGLE_KIND = {1: "A3I", 2: "A3III", 3: "A3IV"}   # by the mark of the node
# the m-layer of a root by the weighted sum of its coefficients on the nodes
_LAYERS = {"A3II": ((1, 2), {3: "V1", 1: "V2", 2: "V3"}),   # (n_i, n_j) = (1, 1)/(1, 0)/(0, 1)
           "A3III": ((1,), {2: "V", 1: "H"})}                # n_i = 2/1


def _read_only(arr: np.ndarray) -> np.ndarray:
    arr.flags.writeable = False
    return arr


@dataclass(frozen=True)
class InnerClass:
    """An inner order-3 conjugacy class, H = sum_k coeff_k * H_{node_k}."""

    kind: str                      # A3I | A3II | A3III | A3IV
    nodes: tuple[int, ...]         # 1-based simple-root indices
    coeffs: tuple[Fraction, ...]

    @classmethod
    def of_nodes(cls, rs: RootSystem, nodes: tuple[int, ...]) -> InnerClass:
        """The class of one node of mark m in {1, 2, 3} (H = (m/3) H_node) or of
        two distinct mark-1 nodes (H = (H_i + H_j)/3, nodes i < j whatever their
        order in ``nodes``); ``InvalidRank`` otherwise."""
        if not nodes or len(nodes) > 2 or any(not 1 <= n <= rs.rank for n in nodes):
            raise InvalidRank(f"--nodes must name one or two of 1..{rs.rank}")
        marks = [rs.marks[n - 1] for n in nodes]
        if len(nodes) == 2:
            if marks != [1, 1] or nodes[0] == nodes[1]:
                raise InvalidRank("a node pair needs two distinct mark-1 nodes")
            return cls("A3II", tuple(sorted(nodes)), (Fraction(1, 3), Fraction(1, 3)))
        if marks[0] not in _SINGLE_KIND:
            raise InvalidRank(f"node {nodes[0]} has mark {marks[0]}; an order-3 class "
                              f"needs a node of mark 1, 2 or 3")
        return cls(_SINGLE_KIND[marks[0]], tuple(nodes), (Fraction(marks[0], 3),))

    def levels(self, rs: RootSystem) -> tuple[np.ndarray, int]:
        """a(H) mod 1 on every root of ``rs.roots`` as int numerators over d (``alpha_levels``)."""
        return alpha_levels(rs, zip(self.nodes, self.coeffs))

    def __post_init__(self):     # Fractions hash in Python code: hash the fields once
        object.__setattr__(self, "_hash", hash((self.kind, self.nodes, self.coeffs)))

    def __hash__(self) -> int:   # each memo read of ``split`` hashes the class
        return self._hash

    def split(self, rs: RootSystem) -> tuple[dict[str, np.ndarray], np.ndarray]:
        """(layers, k): the indices in ``rs.roots`` of the positive roots of each
        m-layer and of k, as read-only ascending int arrays.

        k holds the roots with a(H) = 0 mod 1 (Wolf-Gray).  The m-roots are
        layered by their coefficients on the defining nodes: V1/V2/V3 by
        (n_i, n_j) = (1, 1)/(1, 0)/(0, 1) on a pair, V/H by n_i = 2/1 on a
        mark-2 node, and one layer m otherwise.  Layers come in the order of
        their first root, and an empty one is left out.  Memoised on ``rs``;
        the dict is shared, so callers must not modify it.
        """
        split = rs._splits.get(self)
        if split is None:
            weights, names = _LAYERS.get(self.kind, ((0,), {0: "m"}))
            fixed = self.levels(rs)[0][:rs.n_positive] == 0
            m, k = np.flatnonzero(~fixed), np.flatnonzero(fixed)
            key = sum(w * rs._coeffs[m, node - 1] for node, w in zip(self.nodes, weights))
            # dict.fromkeys keeps the layers in the order of their first root
            layers = {names[x]: _read_only(m[key == x]) for x in dict.fromkeys(key.tolist())}
            split = rs._splits[self] = layers, _read_only(k)
        return split

    def describe(self) -> str:
        inner = " + ".join(
            (f"{c}*H{n}" if c != 1 else f"H{n}") for n, c in zip(self.nodes, self.coeffs)
        )
        return f"{self.kind}: H = {inner}"


def enumerate_inner_order3(rs: RootSystem, dedup: bool = False) -> list[InnerClass]:
    """All inner order-3 classes; optionally one per diagram-symmetry orbit."""
    marks = rs.marks
    out = [InnerClass.of_nodes(rs, (i,)) for i in range(1, rs.rank + 1)
           if marks[i - 1] in _SINGLE_KIND]
    out += [InnerClass.of_nodes(rs, pair)
            for pair in itertools.combinations(range(1, rs.rank + 1), 2)
            if marks[pair[0] - 1] == marks[pair[1] - 1] == 1]
    out.sort(key=lambda c: (c.kind, c.nodes))
    if not dedup:
        return out
    autos = diagram_automorphisms(rs)
    kept, seen = [], set()
    for cls in out:
        orbit_min = min(
            tuple(sorted(perm[n - 1] + 1 for n in cls.nodes)) for perm in autos
        )
        key = (cls.kind, orbit_min)
        if key not in seen:
            seen.add(key)
            kept.append(cls)
    return kept
