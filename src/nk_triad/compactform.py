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
from .rootsys import RootSystem

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

    def __init__(self, rs: RootSystem, cd: ChevalleyData):
        if cd.rs is not rs:
            raise ValueError("structure constants were built for a different root system")
        self.rs = rs
        self.cd = cd
        self.rank = rs.rank
        self.n_pos = rs.n_positive
        self.dim = self.rank + 2 * self.n_pos

        # orthonormalize the Cartan directions: gram of sqrt(-1)H_{alpha_i}
        # under the metric is <alpha_i, alpha_j>/2
        g2 = np.array([[float(x) / 2.0 for x in row] for row in rs.gram])
        self._chol_inv = np.linalg.inv(np.linalg.cholesky(g2))
        # w[k, i] = coefficient of the bracket between U-vectors of root k and
        # the i-th orthonormal Cartan vector
        pairings = np.array([r.coeffs for r in rs.positive_roots]) @ np.array(rs.gram6) / 6
        self.w = pairings @ self._chol_inv.T
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

    def ad(self, i: int) -> sp.csr_matrix:
        """Sparse matrix of ad(e_i) acting on column vectors: the transposed
        slab C[(i, j), l] of the structure constants."""
        return self.C[i * self.dim:(i + 1) * self.dim].T.tocsr()

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
        """Blocks [i0, i1) of consecutive i for the Jacobi sweep, cut where the
        running count of product entries crosses a multiple of SLAB_ENTRIES.

        Each i contributes at most sum_{(j, l): C[i, j, l] != 0} nnz(C[l, :, :])
        entries to each of the sweep's three products (equal bounds for totally
        skew C), so a block gathers about SLAB_ENTRIES entries of all three.
        """
        d = self.dim
        c = self.C.tocoo()
        first = c.row // d
        per_i = 3 * np.bincount(first, weights=np.bincount(first, minlength=d)[c.col], minlength=d)
        start = np.cumsum(per_i) - per_i
        cuts = [0, *(np.flatnonzero(np.diff(start // SLAB_ENTRIES)) + 1).tolist(), d]
        return list(zip(cuts[:-1], cuts[1:]))

    def _jacobi_worst(self) -> tuple[float, tuple[int, int, int]]:
        """Largest Jacobi residual over all basis triples, and the first triple
        (i, j, k) in lexicographic order where it occurs.

        The residual of (i, j, k) is ad([e_i, e_j]) e_k - [ad e_i, ad e_j] e_k,
        i.e. [[e_i, e_j], e_k] - [e_i, [e_j, e_k]] + [e_j, [e_i, e_k]].  It is
        computed over the blocks of i of ``_jacobi_blocks``, each by three sparse
        products over all j and k, as the CSR matrix [(i, j), (k, m)] of
        lhs + (inner - outer): a COO duplicate sum of the three terms, in that
        order, rounds the same way.  The two re-indexed terms are grouped by row
        with a counting sort, so no (row, col) sort is needed, and working memory
        follows the block's SLAB_ENTRIES entries.
        """
        d, c = self.dim, self.C
        coo = c.tocoo()
        first, second = np.divmod(coo.row, d)
        # T[l, (k, m)] = C[l, k, m] and S[l, (j, m)] = C[j, l, m]
        t = sp.csr_matrix((coo.data, (first, second * d + coo.col)), shape=(d, d * d))
        s = sp.csr_matrix((coo.data, (second, first * d + coo.col)), shape=(d, d * d))
        worst, where = 0.0, (0, 0, 0)
        for i0, i1 in self._jacobi_blocks():
            shape = ((i1 - i0) * d, d * d)
            ci = c[i0 * d:i1 * d]
            p = (c @ s[:, i0 * d:i1 * d]).tocoo()     # [(j, k), (i, m)]: [e_i, [e_j, e_k]]
            (j, k), (i, m) = np.divmod(p.row, d), np.divmod(p.col, d)
            outer = _row_grouped(i * d + j, k * d + m, p.data, shape)
            p = (ci @ s).tocoo()                      # [(i, k), (j, m)]: [e_j, [e_i, e_k]]
            (i, k), (j, m) = np.divmod(p.row, d), np.divmod(p.col, d)
            res = _row_grouped(i * d + j, k * d + m, p.data, shape) - outer
            del outer                                 # freed before the lhs product
            res = ci @ t + res                        # [(i, j), (k, m)]: [[e_i, e_j], e_k]
            mag = np.abs(res.data)
            top = mag.max(initial=0.0)
            if top > worst:   # columns are unsorted within a row: take the first (row, col)
                at = np.flatnonzero(mag == top)
                key = (np.searchsorted(res.indptr, at, side="right") - 1) * shape[1] \
                    + res.indices[at]
                row, col = divmod(int(key.min()), shape[1])
                worst, where = float(top), (i0 + row // d, row % d, col // d)
        return worst, where

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


def build_compact_form(rs: RootSystem) -> CompactAlgebra:
    return CompactAlgebra(rs, ChevalleyData(rs))


def adjoint_action_exp(ca: CompactAlgebra, levels: dict[tuple[int, ...], int],
                       d: int) -> sp.csr_matrix:
    """Ad(exp 2*pi*sqrt(-1) H) on the compact form, as CSR.

    ``levels`` maps a positive root's coefficient tuple to a(H) mod 1 as an int
    numerator over ``d`` (``InnerClass.levels``); each U-plane rotates by the
    angle 2*pi*a(H), one 2 x 2 block per root, and the Cartan part stays
    fixed.  The angles 0, 1/3 and 2/3 take exact cosines and sines, so sigma
    is bit-identical on every order-3 class; the zero sines are not stored.
    """
    cos, sin = np.empty(ca.n_pos), np.empty(ca.n_pos)
    for k, r in enumerate(ca.rs.positive_roots):
        t = levels[r.coeffs]
        if 3 * t % d == 0:
            cos[k], sin[k] = _THIRDS[3 * t // d]
        else:
            cos[k], sin[k] = math.cos(2 * math.pi * (t / d)), math.sin(2 * math.pi * (t / d))
    h = np.arange(ca.rank)
    u0, u1 = ca.u_index(np.arange(ca.n_pos), 0), ca.u_index(np.arange(ca.n_pos), 1)
    mat = sp.csr_matrix((np.concatenate([np.ones(ca.rank), cos, sin, -sin, cos]),
                         (np.concatenate([h, u0, u1, u0, u1]), np.concatenate([h, u0, u0, u1, u1]))),
                        shape=(ca.dim, ca.dim))
    mat.eliminate_zeros()
    return mat


_SQRT3_2 = math.sqrt(3.0) / 2.0
_THIRDS = ((1.0, 0.0), (-0.5, _SQRT3_2), (-0.5, -_SQRT3_2))   # (cos, sin) of 2 pi j/3
