"""Compact real form g = h + sum_a (R U0_a + R U1_a) with its structure constants.

Basis vectors are normalized to unit length for the metric <.,.> = -(1/2)B,
i.e. to norm sqrt(2) for -B.  The Cartan part uses an orthonormalized basis
obtained from the simple coroot vectors sqrt(-1)H_{alpha_i} by a Cholesky
factorization of their Gram matrix; the U-part is orthonormal as is.

Bracket rules, for positive roots a, b and parities p, q in {0, 1}:

    [U^p_a, sqrt(-1)H]   = (-1)^(p+1) a(H) U^(p+1)_a
    [U^0_a, U^1_a]       = 2 sqrt(-1) H_a
    [U^p_a, U^q_b]       = (-1)^(pq) N_{a,b} U^(p+q)_{a+b}
                           + (-1)^(p+q) N_{-a,b} U^(p+q)_{a-b}

with parity superscripts mod 2 and the folding U^0_{-c} = -U^0_c,
U^1_{-c} = U^1_c for negative roots.  The stored invariant form equals
-2 * identity on this basis; the genuine Killing form is 2h* times it,
with h* the dual Coxeter number.

The bracket is held once, as the (dim^2, dim) CSR matrix
C[(i, j), l] = <[e_i, e_j], e_l>/<e_l, e_l> built in the constructor; ad(e_i)
is a transposed slab of it and [x, y] = kron(x, y) @ C.  C is never modified
after construction, so read-only sharing across threads is safe; the Jacobi,
trace-form and antisymmetry checks are pure reads of it.  Total skewness is a
module function of C (``antisymmetry_max_residual``), so it reads any algebra
in this layout, such as the cyclic triple's block-diagonal C.
"""

from __future__ import annotations

import math

import numpy as np
import scipy.sparse as sp

from .chevalley import ChevalleyData
from .rootsys import NotOrderThree

DUAL_COXETER = {
    "a": lambda n: n + 1,
    "b": lambda n: 2 * n - 1,
    "c": lambda n: n + 1,
    "d": lambda n: 2 * n - 2,
    "e": lambda n: {6: 12, 7: 18, 8: 30}[n],
    "f": lambda n: 9,
    "g": lambda n: 4,
}


ZERO_DROP = 1e-13         # entries below this are float noise on exact zeros
SLAB_ENTRIES = 1 << 18    # sparse entries gathered per slab of a blocked sum or product


def drop_noise(mat: sp.csr_matrix) -> sp.csr_matrix:
    """``mat`` with its entries below ``ZERO_DROP`` removed, in place."""
    mat.data[np.abs(mat.data) < ZERO_DROP] = 0.0
    mat.eliminate_zeros()
    return mat


def slab_cuts(weight, budget=None, most=None) -> list[tuple[int, int]]:
    """Runs [i0, i1) of a blocked loop over the indices of ``weight``, in order:
    n = ceil(sum / budget), at most ``most``, cut where the weight before an
    index crosses a multiple of sum / n, with the budget ``SLAB_ENTRIES`` (read
    per call) unless given.  Trailing weightless indices join the last run."""
    weight = np.asarray(weight, dtype=float)
    n = min(math.ceil(weight.sum() / (budget or SLAB_ENTRIES)), most or math.inf)
    if n <= 1:
        return [(0, len(weight))] if len(weight) else []
    cuts = np.flatnonzero(np.diff((np.cumsum(weight) - weight) * n // weight.sum())) + 1
    cuts = [0, *cuts[cuts <= np.flatnonzero(weight)[-1]].tolist(), len(weight)]
    return list(zip(cuts[:-1], cuts[1:]))


class JacobiFailure(AssertionError):
    def __init__(self, i, j, k, residual):
        super().__init__(f"Jacobi residual {residual:.3e} at basis triple ({i},{j},{k})")
        self.triple = (i, j, k)
        self.residual = residual


class TraceFormFailure(AssertionError):
    """tr(ad e_i ad e_j) is not one multiple of B0(e_i, e_j) = -2 delta_ij on
    every basis pair; ``pair`` is the (i, j) farthest from the mean ratio."""

    def __init__(self, i, j, residual, ratio):
        super().__init__(f"trace-form residual {residual:.3e} at basis pair ({i}, {j}) "
                         f"against the mean ratio {ratio!r}")
        self.pair = (i, j)
        self.residual = residual


class CompactAlgebra:
    """Structure constants C of the compact real form over an orthonormal basis."""

    def __init__(self, cd: ChevalleyData):
        self.rs = rs = cd.rs
        self.cd = cd
        self.rank = rs.rank
        self.n_pos = rs.n_positive
        self.dim = self.rank + 2 * self.n_pos

        # orthonormalize the Cartan directions: gram of sqrt(-1)H_{alpha_i}
        # under the metric is <alpha_i, alpha_j>/2
        self._chol_inv = np.linalg.inv(np.linalg.cholesky(np.array(rs.gram6) / 12.0))
        # w[k, i] = coefficient of the bracket between U-vectors of root k and
        # the i-th orthonormal Cartan vector; <root k, alpha_j> is row k of 6 x Gram over 6
        self.w = rs._gram6_rows[:self.n_pos] / 6 @ self._chol_inv.T
        self.C = self._structure_constants()

    # -- indexing ------------------------------------------------------------

    def u_index(self, root_pos, parity: int):
        return self.rank + 2 * root_pos + parity

    def _structure_constants(self) -> sp.csr_matrix:
        """C[(i, j), l] = <[e_i, e_j], e_l>/<e_l, e_l> as a (dim^2, dim) CSR
        matrix, holding both orders of every pair and no explicit zeros."""
        cd, d = self.cd, self.dim
        # Cartan rows, over the nonzero w[k, c]: [h_c, U^0_a] = w U^1_a,
        # [h_c, U^1_a] = -w U^0_a and [U^0_a, U^1_a] = 2 sqrt(-1)H_a = sum_c w h_c;
        # the Cholesky factor leaves exact zeros of w as noise below ZERO_DROP
        k, c = np.nonzero(np.abs(self.w) >= ZERO_DROP)
        w = self.w[k, c]
        u0, u1 = self.u_index(k, 0), self.u_index(k, 1)
        first, second, out, vals = [c, c, u0], [u0, u1, u1], [u1, u0, c], [w, -w, w]
        n, plus = self.n_pos, cd.plus
        nf = cd.sign * np.sqrt(cd.n12 / 12.0)          # N_{i,j} over root indices
        # positive pairs a < b with a + b or b - a a root
        ka, kb = np.nonzero(np.triu((plus[:n, :n] >= 0) | (plus[n:, :n] >= 0), 1))
        add, sub = plus[ka, kb], plus[n + ka, kb]      # a + b and b - a, or -1
        nab, nnab, nba, nnba = nf[ka, kb], nf[n + ka, kb], nf[kb, ka], nf[n + kb, ka]
        a0, a1, b0, b1 = self.u_index(ka, 0), self.u_index(ka, 1), self.u_index(kb, 0), \
            self.u_index(kb, 1)
        # [U^p_a, U^q_b] = (-1)^(pq) N_{a,b} U^(p+q)_{a+b} + (-1)^(p+q) N_{-a,b} U^(p+q)_{a-b}
        # for p <= q, and [U^1_a, U^0_b] = -[U^0_b, U^1_a] by the same rule
        minus = np.where(sub >= 0, cd.neg[sub], -1)   # a - b
        for i, j, root, parity, coef in (
                (a0, b0, add, 0, nab), (a0, b0, minus, 0, nnab),
                (a0, b1, add, 1, nab), (a0, b1, minus, 1, -nnab),
                (a1, b1, add, 0, -nab), (a1, b1, minus, 0, nnab),
                (a1, b0, add, 1, -nba), (a1, b0, sub, 1, nnba)):
            keep = root >= 0
            root, coef = root[keep], coef[keep]
            if parity == 0:   # fold U^0_{-c} = -U^0_c, U^1_{-c} = U^1_c
                coef = np.where(root >= n, -coef, coef)
            first.append(i[keep])
            second.append(j[keep])
            out.append(self.u_index(root % n, parity))
            vals.append(coef)
        i, j, l, x = (np.concatenate(t) for t in (first, second, out, vals))
        return sp.csr_matrix((np.concatenate([x, -x]), (np.concatenate([i * d + j, j * d + i]),
                                                        np.concatenate([l, l]))), shape=(d * d, d))

    # -- invariant checks ----------------------------------------------------

    @property
    def dual_coxeter(self) -> int:
        return DUAL_COXETER[self.rs.family](self.rs.rank)

    def trace_form_ratio(self) -> float:
        """Ratio of the trace form tr(ad X ad Y) to the stored form B0 = -2 id,
        constant = 2h* on valid input; checked on every basis pair.

        tr(ad e_i ad e_j) = sum_{k,l} C[(i,k), l] C[(j,l), k] is one sparse
        product of two reshapes of C.  Raises ``TraceFormFailure`` when some
        pair departs from the mean diagonal ratio by more than 1e-6 of it.
        """
        d = self.dim
        c = self.C.tocoo()
        i, k = np.divmod(c.row, d)
        # left[i, (k, l)] = C[(i, k), l] and right[j, (k, l)] = C[(j, l), k]
        left = sp.csr_matrix((c.data, (i, k * d + c.col)), shape=(d, d * d))
        right = sp.csr_matrix((c.data, (i, c.col * d + k)), shape=(d, d * d))
        ratios = (left @ right.T).toarray() / -2.0
        ratio = float(np.trace(ratios)) / d
        res = np.abs(ratios - ratio * np.eye(d))
        i, j = np.unravel_index(res.argmax(), res.shape)
        if res[i, j] > 1e-6 * max(1.0, abs(ratio)):
            raise TraceFormFailure(int(i), int(j), float(res[i, j]), ratio)
        return ratio

    def _jacobi_blocks(self) -> list[tuple[int, int]]:
        """Tiles [i0, i1) of consecutive basis indices for the Jacobi sweep.

        Index i weighs w_i = sum_{(j, l): C[i, j, l] != 0} nnz(C[l, :, :]), a
        bound on the entries of [e_y, [e_i, e_z]] over all y and z (equal to
        it for totally skew C).  With P = sum_i w_i, ``slab_cuts`` on the
        budget sqrt(P SLAB_ENTRIES / 2) gives n = ceil(sqrt(2P / SLAB_ENTRIES))
        tiles, so the two products of a pair of tiles hold about
        2P/n^2 <= SLAB_ENTRIES entries together.
        """
        d = self.dim
        c = self.C.tocoo()
        first = c.row // d
        weight = np.bincount(first, weights=np.bincount(first, minlength=d)[c.col], minlength=d)
        return slab_cuts(weight, math.sqrt(weight.sum() * SLAB_ENTRIES / 2.0))

    def _jacobi_worst(self) -> tuple[float, tuple[int, int, int]]:
        """Largest Jacobi residual over all basis triples, and the first triple
        (i, j, k) in lexicographic order where it occurs.

        The residual of (i, j, k) is ad([e_i, e_j]) e_k - [ad e_i, ad e_j] e_k,
        i.e. lhs - F(j, i, k) + F(i, j, k) with lhs = [[e_i, e_j], e_k] and
        F(x, y, z) = [e_y, [e_x, e_z]], for any C.  Each pair of tiles
        B_p <= B_q of ``_jacobi_blocks`` is visited once: F on B_p x B_q and on
        B_q x B_p (two sparse products, one on a diagonal tile), each grouped
        once by a counting sort into rows (i, j), i in B_p and j in B_q, gives
        D = F(i, j, k) - F(j, i, k), and the residual tiles are lhs + D on the
        rows (i, j) and lhs - D on the rows (j, i).  IEEE subtraction is
        exactly antisymmetric, so both equal the per-i sum lhs + (inner -
        outer) bit for bit, and no symmetry of C is assumed.
        """
        d, c = self.dim, self.C
        coo = c.tocoo()
        first, second = np.divmod(coo.row, d)
        # T[l, (k, m)] = C[l, k, m] and S[l, (j, m)] = C[j, l, m]
        t = sp.csr_matrix((coo.data, (first, second * d + coo.col)), shape=(d, d * d))
        s = sp.csr_matrix((coo.data, (second, first * d + coo.col)), shape=(d, d * d))
        worst, where = 0.0, 0     # where: the triple (i, j, k) as the key (i d + j) d + k

        def brackets(x0, x1, y0, y1, by_y):
            """F(x, y, k) for x in [x0, x1) and y in [y0, y1) as CSR with rows
            (x, y), or (y, x) if ``by_y``, numbered from 0, and columns (k, m)."""
            f = (c[x0 * d:x1 * d] @ s[:, y0 * d:y1 * d]).tocoo()   # [(x, k), (y, m)]
            (x, k), (y, m) = np.divmod(f.row, d), np.divmod(f.col, d)
            rows = y * (x1 - x0) + x if by_y else x * (y1 - y0) + y
            return _row_grouped(rows, k * d + m, f.data, ((x1 - x0) * (y1 - y0), d * d))

        def keep_worst(res, a, b):
            """Fold the largest entry of res, whose row r is the pair
            (a[r], b[r]), into (worst, where); ties keep the first triple."""
            nonlocal worst, where
            mag = np.abs(res.data)
            top = mag.max(initial=0.0)
            if top == 0.0 or top < worst:
                return
            at = np.flatnonzero(mag == top)   # columns are unsorted within a row
            row = np.searchsorted(res.indptr, at, side="right") - 1
            key = int(((a[row] * d + b[row]) * d + res.indices[at] // d).min())
            if top > worst or key < where:
                worst, where = float(top), key

        tiles = self._jacobi_blocks()
        for n, (p0, p1) in enumerate(tiles):
            for q0, q1 in tiles[n:]:
                diff = brackets(p0, p1, q0, q1, False)
                i, j = np.arange(p0, p1).repeat(q1 - q0), np.tile(np.arange(q0, q1), p1 - p0)
                diff = diff - (diff[(j - q0) * (q1 - q0) + (i - p0)] if p0 == q0
                               else brackets(q0, q1, p0, p1, True))
                keep_worst(c[i * d + j] @ t + diff, i, j)
                if p0 != q0:
                    keep_worst(c[j * d + i] @ t - diff, j, i)
        return worst, (where // (d * d), where // d % d, where % d)

    def jacobi_max_residual(self) -> float:
        """Max norm of [[x,y],z]+[[y,z],x]+[[z,x],y] over all basis triples.

        Exhaustive: every triple is covered by the blocked sparse products of
        ``_jacobi_worst``, which read the structure constants ``C``.
        """
        return self._jacobi_worst()[0]

    def assert_jacobi(self, tol: float = 1e-9) -> float:
        res, (i, j, k) = self._jacobi_worst()
        if res > tol:
            raise JacobiFailure(i, j, k, res)
        return res


def antisymmetry_max_residual(c: sp.csr_matrix) -> float:
    """Max |C[i,j,k] + C[i,k,j]| over structure constants C[(i, j), k]: every
    ad(e_i) must be skew for the invariant form, i.e. C is totally skew."""
    d = c.shape[1]
    c = c.tocoo()
    i, j = np.divmod(c.row, d)
    swapped = sp.coo_matrix((c.data, (i * d + c.col, j)), shape=c.shape)
    return float(abs(c + swapped).max())


def _row_grouped(rows, cols, data, shape) -> sp.csr_matrix:
    """CSR matrix of entries at distinct (rows, cols), grouped by row with one
    stable counting sort (a CSR-to-CSC transposition); columns stay unsorted."""
    order = sp.csr_matrix((np.arange(rows.size, dtype=np.int32), rows, [0, rows.size]),
                          shape=(1, shape[0])).tocsc()
    return sp.csr_matrix((data[order.data], cols[order.data], order.indptr), shape=shape)


def adjoint_action_exp(ca: CompactAlgebra, levels: np.ndarray, d: int) -> sp.csr_matrix:
    """Ad(exp 2*pi*sqrt(-1) H) on the compact form, as CSR.

    ``levels`` holds a(H) mod 1 on ``rs.roots`` as int numerators over ``d``
    (``InnerClass.levels``); each positive root's U-plane rotates by the
    angle 2*pi*a(H), one 2 x 2 block per root, and the Cartan part stays
    fixed.  Every level of an order-3 class is 0, 1/3 or 2/3, whose cosines
    and sines are read from one table, so sigma is bit-identical on every
    class; the zero sines are not stored.  ``NotOrderThree`` for any other level.
    """
    t = levels[:ca.n_pos]
    off = np.flatnonzero(3 * t % d)
    if off.size:
        raise NotOrderThree(f"level {t[off[0]]}/{d} of root {ca.rs.roots[off[0]]} is not a third")
    cos, sin = np.array(_THIRDS)[3 * t // d].T
    h = np.arange(ca.rank)
    u0, u1 = ca.u_index(np.arange(ca.n_pos), 0), ca.u_index(np.arange(ca.n_pos), 1)
    mat = sp.csr_matrix((np.concatenate([np.ones(ca.rank), cos, sin, -sin, cos]),
                         (np.concatenate([h, u0, u1, u0, u1]), np.concatenate([h, u0, u0, u1, u1]))),
                        shape=(ca.dim, ca.dim))
    mat.eliminate_zeros()
    return mat


_SQRT3_2 = math.sqrt(3.0) / 2.0
_THIRDS = ((1.0, 0.0), (-0.5, _SQRT3_2), (-0.5, -_SQRT3_2))   # (cos, sin) of 2 pi j/3
