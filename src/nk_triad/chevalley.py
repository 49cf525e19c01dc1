"""Sign-consistent structure constants N_{a,b} for a Weyl basis.

The basis is normalized so that the invariant form pairs opposite root vectors
to 1.  In that normalization the constants satisfy

    N_{a,b} = -N_{b,a},   N_{a,b} = -N_{-a,-b},
    N_{a,b} = N_{b,c} = N_{c,a}          whenever a + b + c = 0,
    N_{a,b}^2 = q(1-p)/2 * <a,a>         with (p, q) the a-string through b.

The table is held over root indices.  With n = ``rs.n_positive``, positive
root k of ``rs.positive_roots`` has index k and its negative has index n + k
(the order of ``rs.all_roots()``).  Three (2n, 2n) int arrays hold it:

    plus[i, j]   index of root i + root j, or -1 when the sum is not a root;
    n12[i, j]    12 N_{i,j}^2, an int because 6<a,a> is; 0 off the pairs;
    sign[i, j]   the sign of N_{i,j}, +1 or -1; 0 off the pairs.

``plus`` is the root system's own addition table (``RootSystem.plus``,
shared, not copied), and every string bound comes from stepping through it.
Only the squares are rational in general; signs are fixed by assigning +1 to
the extraspecial pair of every positive root (minimal decomposition in
height-then-lex order) and propagating through the antisymmetries, the
zero-sum triple identity, and the four-term contraction that expresses any
other decomposition of a positive root against its extraspecial one (Carter,
Simple Groups of Lie Type, ch. 4).
Any consistent choice produces the same squares; determinism here is what
makes downstream tables reproducible.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

from .rootsys import RootSystem


class SignInconsistency(RuntimeError):
    """Sign propagation contradicted itself; indicates an internal bug."""


class IdentityViolation(AssertionError):
    """An algebraic identity of the constants failed."""


class ChevalleyData:
    """Structure-constant table over the root indices of a root system."""

    def __init__(self, rs: RootSystem):
        self.rs = rs
        n = self.n = rs.n_positive
        pos = np.array([r.coeffs for r in rs.positive_roots], dtype=np.int64)
        self.roots, self.index, self.neg = rs.roots, rs.root_index, rs.neg
        self.plus = plus = rs.plus
        # (p, q) of the i-string through j: step through plus from j + i and j - i
        rows = np.arange(2 * n)[:, None]
        q, cur = np.zeros_like(plus), plus
        while (cur >= 0).any():
            q += cur >= 0
            cur = np.where(cur >= 0, plus[rows, cur], -1)
        p, cur = np.zeros_like(plus), plus[self.neg]
        while (cur >= 0).any():
            p -= cur >= 0
            cur = np.where(cur >= 0, plus[self.neg[:, None], cur], -1)
        norm6 = np.einsum("ki,ij,kj->k", pos, np.array(rs.gram6, dtype=np.int64), pos)
        # N^2 = q(1-p)/2 * <a,a>, so 12 N^2 = q(1-p) * 6<a,a>
        self.n12 = np.where(plus >= 0, q * (1 - p) * np.r_[norm6, norm6][:, None], 0)
        self.sign = self._signs()

    # -- signs ---------------------------------------------------------------

    def _signs(self) -> np.ndarray:
        """sign[i, j] for every pair, from the signs of the positive pairs.

        Each pair maps onto a positive pair times a factor: a negative pair by
        N_{a,b} = -N_{-a,-b}, a mixed one through the zero-sum triple
        (a, b, c), c = -(a+b), onto the pair avoiding the mixed signs (with one
        more negation when a+b is positive).
        """
        n, plus = self.n, self.plus
        i, j = np.indices(plus.shape)
        c = np.where(plus >= 0, self.neg[plus], 0)
        same, turn = (i < n) == (j < n), (j < n) == (c < n)
        first = np.where(same, i, np.where(turn, j, c)) % n
        second = np.where(same, j, np.where(turn, c, i)) % n
        factor = np.where(np.where(same, i < n, c < n), 1, -1)

        heights = np.array([r.height for r in self.rs.positive_roots])
        place = np.empty(n, dtype=np.int64)
        place[np.lexsort((np.arange(n), heights))] = np.arange(n)  # height-then-lex
        # extraspecial pair (eps, eta) of gamma: gamma = eps + eta with eps first
        a, b = np.nonzero(plus[:n, :n] >= 0)
        g = plus[a, b]
        by = np.lexsort((place[a], g))
        head = np.diff(g[by], prepend=-1) != 0
        self.extraspecial = np.full((n, 2), -1)
        self.extraspecial[g[by][head]] = np.stack([a[by][head], b[by][head]], axis=1)

        sums, sq, extra, place = plus.tolist(), self.n12.tolist(), self.extraspecial.tolist(), \
            place.tolist()
        lfirst, lsecond, lfactor, neg = first.tolist(), second.tolist(), factor.tolist(), \
            self.neg.tolist()
        memo = [[0] * n for _ in range(n)]

        def any_sign(x: int, y: int) -> int:
            return lfactor[x][y] * positive(lfirst[x][y], lsecond[x][y])

        def positive(x: int, y: int) -> int:
            if not memo[x][y]:
                if place[x] > place[y]:
                    memo[x][y] = -positive(y, x)
                elif [x, y] == extra[sums[x][y]]:
                    memo[x][y] = 1
                else:
                    memo[x][y] = contracted(x, y)
            return memo[x][y]

        def contracted(x: int, y: int) -> int:
            """Sign of N_{x,y} for a positive pair other than the extraspecial
            (eps, eta) of gamma = x + y, contracting both through E_{-eps}:

                N_{x,y} N_{gamma,-eps} = -N_{-eps,x} N_{x-eps,y} - N_{y,-eps} N_{y-eps,x}

            All magnitudes are products of 12 N^2 in ints, so every comparison
            is exact."""
            gamma = sums[x][y]
            eps = neg[extra[gamma][0]]
            terms = [(any_sign(u, v) * any_sign(sums[u][v], w), sq[u][v] * sq[sums[u][v]][w])
                     for u, v, w in ((eps, x, y), (y, eps, x)) if sums[u][v] >= 0]
            where = f"{self.roots[x]}+{self.roots[y]}"
            if not terms:
                raise SignInconsistency(f"no contraction terms for {where}")
            (s0, t0), (s1, t1) = terms[0], terms[-1]
            if len(terms) == 1:
                rhs_sign, rhs_sq = -s0, t0
            else:
                if s0 == s1:
                    rhs_sign = -s0
                elif t0 == t1:
                    raise SignInconsistency(f"cancelling contraction at {where}")
                else:
                    rhs_sign = -s0 if t0 > t1 else -s1
                cross = math.isqrt(t0 * t1)
                if cross * cross != t0 * t1:
                    raise SignInconsistency(f"irrational contraction at {where}")
                rhs_sq = t0 + t1 + 2 * s0 * s1 * cross
            if rhs_sq != sq[x][y] * sq[gamma][eps]:
                raise SignInconsistency(f"magnitude mismatch at {where}")
            return rhs_sign * any_sign(gamma, eps)

        for x, y in zip(a.tolist(), b.tolist()):
            positive(x, y)
        out = factor * np.array(memo, dtype=np.int64)[first, second]
        return np.where(plus >= 0, out, 0).astype(np.int8)


def verify_triangle_identity(cd: ChevalleyData) -> int:
    """Check N_{a,b} = N_{b,c} on every pair with c = -(a+b) a root, which
    chains round each zero-sum triple in both orientations; return the number
    of triples."""
    i, j = np.nonzero(cd.plus >= 0)
    c = cd.neg[cd.plus[i, j]]
    bad = np.flatnonzero((cd.sign[i, j] != cd.sign[j, c]) | (cd.n12[i, j] != cd.n12[j, c]))
    if bad.size:
        x, y, z = i[bad[0]], j[bad[0]], c[bad[0]]
        raise IdentityViolation(
            f"triple {cd.roots[x]}, {cd.roots[y]}, {cd.roots[z]}: "
            f"12 N^2 = {cd.sign[x, y] * cd.n12[x, y]} at the first pair, "
            f"{cd.sign[y, z] * cd.n12[y, z]} at the second")
    return i.size // 6    # each triple of distinct roots gives six ordered pairs


def verify_square_formula(cd: ChevalleyData) -> int:
    """Recheck every stored square, 12 N^2 = 6 q(1 - p)<a,a> in ints, and that
    no square is stored off the pairs; return the number of pairs.  The pairs
    and the string bounds (p, q) come from coefficient arithmetic and an exact
    lookup of coefficient rows, not from ``plus``, which C is built from."""
    coeffs = np.array(cd.roots, dtype=np.int64)
    row = np.dtype((np.void, coeffs.itemsize * coeffs.shape[1]))
    known = np.sort(coeffs.view(row).ravel())

    def is_root(vectors):
        keys = np.ascontiguousarray(vectors).view(row)[..., 0]
        return known[np.minimum(np.searchsorted(known, keys), known.size - 1)] == keys
    a, b = coeffs[:, None], coeffs[None, :]
    pair = is_root(a + b)
    q, down = np.zeros((2, *pair.shape), dtype=np.int64)
    for step, count in ((1, q), (-1, down)):       # b + n a for n = 1, 2, .. and -1, -2, ..
        live, n = pair, 0
        while live.any():
            n += step
            live = live & is_root(b + n * a)
            count += live
    norm6 = np.einsum("ki,ij,kj->k", coeffs, np.array(cd.rs.gram6, dtype=np.int64), coeffs)
    expect = np.where(pair, q * (1 + down) * norm6[:, None], 0)
    for bad, what in ((~pair & (cd.n12 != 0), "square stored at {}, {}, whose sum is not a root"),
                      (cd.n12 != expect, "square mismatch at {}, {}: stored {}, string scan {}")):
        if bad.any():
            i, j = np.argwhere(bad)[0]
            raise IdentityViolation(what.format(cd.roots[i], cd.roots[j], Fraction(int(cd.n12[i, j]), 12),
                                                Fraction(int(expect[i, j]), 12)))
    return int(pair.sum())
