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
trace-form and antisymmetry checks are pure reads of it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np
import scipy.sparse as sp

from .chevalley import ChevalleyData, _add, _neg, _sub
from .rootsys import Coeffs, RootSystem

DUAL_COXETER = {
    "a": lambda n: n + 1,
    "b": lambda n: 2 * n - 1,
    "c": lambda n: n + 1,
    "d": lambda n: 2 * n - 2,
    "e": lambda n: {6: 12, 7: 18, 8: 30}[n],
    "f": lambda n: 9,
    "g": lambda n: 4,
}


ZERO_DROP = 1e-13   # entries below this are float noise on exact zeros


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


@dataclass(frozen=True)
class BasisVector:
    kind: str            # "cartan" | "u"
    index: int           # cartan row, or position of the positive root
    root: Coeffs | None = None
    parity: int | None = None

    def __str__(self) -> str:
        if self.kind == "cartan":
            return f"h{self.index}"
        return f"U{self.parity}{self.root}"


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
        self.basis: list[BasisVector] = (
            [BasisVector("cartan", i) for i in range(self.rank)]
            + [BasisVector("u", k, r.coeffs, a)
               for k, r in enumerate(rs.positive_roots) for a in (0, 1)]
        )

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
        rs, cd, d = self.rs, self.cd, self.dim
        # Cartan rows, over the nonzero w[k, c]: [h_c, U^0_a] = w U^1_a,
        # [h_c, U^1_a] = -w U^0_a and [U^0_a, U^1_a] = 2 sqrt(-1)H_a = sum_c w h_c;
        # the Cholesky factor leaves exact zeros of w as noise below ZERO_DROP
        k, c = np.nonzero(np.abs(self.w) >= ZERO_DROP)
        w = self.w[k, c]
        u0, u1 = self.u_index(k, 0), self.u_index(k, 1)
        first, second, out, vals = [c, c, u0], [u0, u1, u1], [u1, u0, c], [w, -w, w]
        pos = rs._index
        terms: list[tuple[int, int, int, float]] = []
        for ka, ra in enumerate(rs.positive_roots):
            for kb in range(ka + 1, self.n_pos):
                a, b = ra.coeffs, rs.positive_roots[kb].coeffs
                n_ab = cd.n_value(a, b), cd.n_value(_neg(a), b)
                if not any(n_ab):
                    continue
                n_ba = cd.n_value(b, a), cd.n_value(_neg(b), a)
                for p in (0, 1):
                    for q in (0, 1):
                        if p <= q:
                            raw = self._uu_bracket(a, p, b, q, *n_ab)
                        else:  # [x, y] = -[y, x], with the parity-ordered rule
                            raw = [(r, pr, -x) for r, pr, x in self._uu_bracket(b, q, a, p, *n_ba)]
                        i, j = self.u_index(ka, p), self.u_index(kb, q)
                        for root, parity, coef in raw:
                            if root not in pos:   # fold U^0_{-c} = -U^0_c, U^1_{-c} = U^1_c
                                root, coef = _neg(root), (-coef if parity == 0 else coef)
                            terms.append((i, j, self.u_index(pos[root], parity), coef))
        if terms:
            i, j, l, x = (np.array(t) for t in zip(*terms))
            first, second, out, vals = first + [i], second + [j], out + [l], vals + [x]
        i, j, l, x = (np.concatenate(t) for t in (first, second, out, vals))
        return sp.csr_matrix((np.concatenate([x, -x]), (np.concatenate([i * d + j, j * d + i]),
                                                        np.concatenate([l, l]))), shape=(d * d, d))

    @staticmethod
    def _uu_bracket(a: Coeffs, p: int, b: Coeffs, q: int, nab: float, nnab: float):
        """[U^p_a, U^q_b] for distinct positive roots, valid for p <= q, given
        nab = N_{a,b} and nnab = N_{-a,b}."""
        out = []
        if nab:
            out.append((_add(a, b), (p + q) % 2, (-1.0) ** (p * q) * nab))
        if nnab:
            out.append((_sub(a, b), (p + q) % 2, (-1.0) ** (p + q) * nnab))
        return out

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

    def _jacobi_worst(self) -> tuple[float, tuple[int, int, int]]:
        """Largest Jacobi residual over all basis triples, and a triple (i, j, k)
        where it occurs.

        The residual of (i, j, k) is ad([e_i, e_j]) e_k - [ad e_i, ad e_j] e_k,
        i.e. [[e_i, e_j], e_k] - [e_i, [e_j, e_k]] + [e_j, [e_i, e_k]].  It is
        computed one slab of i at a time, each slab by three sparse products over
        all j, so the working set stays O(dim^3) sparse entries per slab.
        """
        d, c = self.dim, self.C
        coo = c.tocoo()
        first, second = np.divmod(coo.row, d)
        # T[l, (k, m)] = C[l, k, m] and S[l, (j, m)] = C[j, l, m]
        t = sp.csr_matrix((coo.data, (first, second * d + coo.col)), shape=(d, d * d))
        s = sp.csr_matrix((coo.data, (second, first * d + coo.col)), shape=(d, d * d))
        worst, where = 0.0, (0, 0, 0)
        for i in range(d):
            ci = c[i * d:(i + 1) * d]
            lhs = (ci @ t).tocoo()                    # [j, (k, m)]: [[e_i, e_j], e_k]
            outer = (c @ ci).tocoo()                  # [(j, k), m]: [e_i, [e_j, e_k]]
            inner = (ci @ s).tocoo()                  # [k, (j, m)]: [e_j, [e_i, e_k]]
            oj, ok = np.divmod(outer.row, d)
            ij, im = np.divmod(inner.col, d)
            res = sp.coo_matrix(
                (np.concatenate([lhs.data, -outer.data, inner.data]),
                 (np.concatenate([lhs.row, oj, ij]),
                  np.concatenate([lhs.col, ok * d + outer.col, inner.row * d + im]))),
                shape=(d, d * d))
            res.sum_duplicates()
            if res.nnz:
                n = int(np.abs(res.data).argmax())
                local = float(abs(res.data[n]))
                if local > worst:
                    worst, where = local, (i, int(res.row[n]), int(res.col[n]) // d)
        return worst, where

    def jacobi_max_residual(self) -> float:
        """Max norm of [[x,y],z]+[[y,z],x]+[[z,x],y] over all basis triples.

        Exhaustive: every triple is covered by the slab-wise sparse products
        of ``_jacobi_worst``, which read the structure constants ``C``.
        """
        return self._jacobi_worst()[0]

    def assert_jacobi(self, tol: float = 1e-9) -> float:
        res, (i, j, k) = self._jacobi_worst()
        if res > tol:
            raise JacobiFailure(i, j, k, res)
        return res

    def antisymmetry_max_residual(self) -> float:
        """Max |C[i,j,k] + C[i,k,j]|: every ad(e_i) must be skew for the
        invariant form, i.e. the structure constants are totally skew."""
        c = self.C.tocoo()
        i, j = np.divmod(c.row, self.dim)
        swapped = sp.coo_matrix((c.data, (i * self.dim + c.col, j)), shape=c.shape)
        return float(abs(c + swapped).max())


def build_compact_form(rs: RootSystem, cd: ChevalleyData | None = None) -> CompactAlgebra:
    if cd is None:
        cd = ChevalleyData(rs)
    return CompactAlgebra(rs, cd)


def adjoint_action_exp(ca: CompactAlgebra, alpha_value) -> np.ndarray:
    """Matrix of Ad(exp 2*pi*sqrt(-1) H) on the compact form.

    ``alpha_value`` maps a positive root's coefficient tuple to the exact
    rational a(H); each U-plane rotates by the angle 2*pi*a(H) and the Cartan
    part stays fixed.
    """
    mat = np.eye(ca.dim)
    for k, r in enumerate(ca.rs.positive_roots):
        t = Fraction(alpha_value(r.coeffs)) % 1
        c, s = _cos_sin_2pi(t)
        i0, i1 = ca.u_index(k, 0), ca.u_index(k, 1)
        mat[i0, i0] = c
        mat[i1, i0] = s
        mat[i0, i1] = -s
        mat[i1, i1] = c
    return mat


_SQRT3_2 = math.sqrt(3.0) / 2.0

_EXACT_ANGLES = {
    Fraction(0): (1.0, 0.0),
    Fraction(1, 2): (-1.0, 0.0),
    Fraction(1, 3): (-0.5, _SQRT3_2),
    Fraction(2, 3): (-0.5, -_SQRT3_2),
    Fraction(1, 4): (0.0, 1.0),
    Fraction(3, 4): (0.0, -1.0),
    Fraction(1, 6): (0.5, _SQRT3_2),
    Fraction(5, 6): (0.5, -_SQRT3_2),
}


def _cos_sin_2pi(t: Fraction) -> tuple[float, float]:
    if t in _EXACT_ANGLES:
        return _EXACT_ANGLES[t]
    return math.cos(2 * math.pi * float(t)), math.sin(2 * math.pi * float(t))
