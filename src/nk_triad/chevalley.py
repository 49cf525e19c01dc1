"""Sign-consistent structure constants N_{a,b} for a Weyl basis.

The basis is normalized so that the invariant form pairs opposite root vectors
to 1.  In that normalization the constants satisfy

    N_{a,b} = -N_{b,a},   N_{a,b} = -N_{-a,-b},
    N_{a,b} = N_{b,c} = N_{c,a}          whenever a + b + c = 0,
    N_{a,b}^2 = q(1-p)/2 * <a,a>         with (p, q) the a-string through b.

The table is held over root indices.  With n = ``rs.n_positive``, positive
root k has index k in ``rs.roots`` and its negative has index n + k.  Three
(2n, 2n) int arrays hold it:

    plus[i, j]   index of root i + root j, or -1 when the sum is not a root;
    n12[i, j]    12 N_{i,j}^2, an int because 6<a,a> is; 0 off the pairs;
    sign[i, j]   the sign of N_{i,j}, +1 or -1; 0 off the pairs.

``plus`` is the root system's own addition table (``RootSystem.plus``,
shared, not copied), and every string bound comes from stepping through it
(``rootsys.string_bounds``).
Only the squares are rational in general; signs are fixed by assigning +1 to
the extraspecial pair of every positive root (minimal decomposition in
height-then-lex order).  One pass over the positive pairs, in order of the
height of their sum, gives every other positive pair its sign by the four-term
contraction that expresses it against the extraspecial pair of its sum
(Carter, Simple Groups of Lie Type, ch. 4); the antisymmetries and the
zero-sum triple identity carry the signs to the other pairs.
Any consistent choice produces the same squares; determinism here is what
makes downstream tables reproducible.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

from .rootsys import RootSystem, string_bounds


class SignInconsistency(RuntimeError):
    """Sign propagation contradicted itself; indicates an internal bug."""


class IdentityViolation(AssertionError):
    """An algebraic identity of the constants failed, or a curvature or
    torsion identity of a space exceeded tolerance."""


def _positive_pair(plus: np.ndarray, i: np.ndarray, j: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(x n + y, f) for root pairs (i, j) whose sums are roots, such that
    N_{i,j} = f N_{x,y} for the positive pair (x, y) they map onto: a negative
    pair by N_{a,b} = -N_{-a,-b}, a mixed one through the zero-sum triple
    (a, b, c), c = -(a+b), onto the pair avoiding the mixed signs (with one
    more negation when a+b is positive)."""
    n = plus.shape[0] // 2
    c = (plus[i, j] + n) % (2 * n)          # the index of -(a+b)
    same, turn = (i < n) == (j < n), (j < n) == (c < n)
    x = np.where(same, i, np.where(turn, j, c)) % n
    y = np.where(same, j, np.where(turn, c, i)) % n
    return x * n + y, np.where(np.where(same, i < n, c < n), 1, -1)


class ChevalleyData:
    """Structure-constant table over the root indices of a root system."""

    def __init__(self, rs: RootSystem):
        self.rs = rs
        n = self.n = rs.n_positive
        self.roots, self.index, self.neg = rs.roots, rs.root_index, rs.neg
        self.plus = plus = rs.plus
        # (-p, q) of the i-string through j on every pair
        i, j = np.nonzero(plus >= 0)
        down, q = string_bounds(rs, i, j)
        norm6 = (rs._gram6_rows[:n] * rs._coeffs[:n]).sum(axis=1)
        # N^2 = q(1-p)/2 * <a,a>, so 12 N^2 = q(1-p) * 6<a,a>
        self.n12 = np.zeros_like(plus)
        self.n12[i, j] = q * (1 + down) * norm6[i % n]
        cell, factor = _positive_pair(plus, i, j)
        self.sign = np.zeros(plus.shape, dtype=np.int8)
        self.sign[i, j] = factor * self._signs()[cell]

    # -- signs ---------------------------------------------------------------

    def _signs(self) -> np.ndarray:
        """The sign of N_{x,y} at x n + y for every positive pair (x, y), 0 off
        the pairs; also sets ``extraspecial``.

        The signs are set in one pass over the positive pairs (x, y), x before y
        in height-then-lex order, in order of the height of gamma = x + y.  The
        extraspecial pair (eps, eta) of gamma, its first decomposition in that
        order, has sign +1.  Any other pair is contracted through E_{-eps}:

            N_{x,y} N_{gamma,-eps} = -N_{-eps,x} N_{x-eps,y} - N_{y,-eps} N_{y-eps,x}

        whose right side reads pairs with sums of lower height than gamma, and
        N_{gamma,-eps} reads (eps, eta).  (y, x) takes the opposite sign.  All
        magnitudes are products of 12 N^2 in ints, so every comparison is exact.
        """
        n, plus, n12 = self.n, self.plus, self.n12
        height = self.rs._coeffs[:n].sum(axis=1)
        place = np.empty(n, dtype=np.int64)
        place[np.lexsort((np.arange(n), height))] = np.arange(n)  # height-then-lex
        # extraspecial pair (eps, eta) of gamma: gamma = eps + eta with eps first
        a, b = np.nonzero(plus[:n, :n] >= 0)
        g = plus[a, b]
        by = np.lexsort((place[a], g))
        head = np.diff(g[by], prepend=-1) != 0
        eps, eta = a[by][head], b[by][head]
        self.extraspecial = np.full((n, 2), -1)
        self.extraspecial[g[by][head]] = np.stack([eps, eta], axis=1)
        signs = np.zeros(n * n, dtype=np.int64)       # N_{x,y} at x n + y
        signs[eps * n + eta], signs[eta * n + eps] = 1, -1

        # every other pair x before y, by the height of gamma; its terms are
        # (-eps, x) with (x - eps, y), and (y, -eps) with (y - eps, x)
        todo = (place[a] < place[b]) & (a != self.extraspecial[g, 0])
        x, y, gamma = (v[todo][np.argsort(height[g[todo]], kind="stable")] for v in (a, b, g))
        me = self.neg[self.extraspecial[gamma, 0]]
        mid = plus[me, x], plus[y, me]
        cell, factor = (v.reshape(5, -1) for v in _positive_pair(
            plus, np.concatenate([me, mid[0], y, mid[1], gamma]),
            np.concatenate([x, y, me, x, me])))
        terms = np.array([[cell[0], cell[1], factor[0] * factor[1], n12[me, x] * n12[mid[0], y]],
                          [cell[2], cell[3], factor[2] * factor[3], n12[y, me] * n12[mid[1], x]]])
        # the terms that exist, in order, the last repeating the first when one does
        has = np.stack(mid) >= 0
        ops = np.vstack([has.sum(axis=0), np.where(has[0], terms[0], terms[1]),
                         np.where(has[1], terms[1], terms[0]), n12[x, y] * n12[gamma, me],
                         cell[4], factor[4], x * n + y, y * n + x])
        signs = signs.tolist()
        for k, (count, u0, v0, f0, t0, u1, v1, f1, t1, lhs, at, f, xy, yx) in enumerate(
                ops.T.tolist()):
            if not count:
                raise SignInconsistency(f"no contraction terms for {self._label(x[k], y[k])}")
            s0 = f0 * signs[u0] * signs[v0]
            if count == 1:
                rhs_sign, rhs_sq = -s0, t0
            else:
                s1 = f1 * signs[u1] * signs[v1]
                if s0 == s1:
                    rhs_sign = -s0
                elif t0 == t1:
                    raise SignInconsistency(f"cancelling contraction at {self._label(x[k], y[k])}")
                else:
                    rhs_sign = -s0 if t0 > t1 else -s1
                cross = math.isqrt(t0 * t1)
                if cross * cross != t0 * t1:
                    raise SignInconsistency(f"irrational contraction at {self._label(x[k], y[k])}")
                rhs_sq = t0 + t1 + 2 * s0 * s1 * cross
            if rhs_sq != lhs:
                raise SignInconsistency(f"magnitude mismatch at {self._label(x[k], y[k])}")
            signs[xy] = rhs_sign * f * signs[at]
            signs[yx] = -signs[xy]
        return np.array(signs)

    def _label(self, x: int, y: int) -> str:
        return f"{self.roots[x]}+{self.roots[y]}"


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
