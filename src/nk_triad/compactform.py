"""Compact real form g = h + sum_a (R U0_a + R U1_a) with its bracket table.

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

Tables are immutable after construction (the ad cache only memoizes pure
lookups), so read-only sharing across threads is safe; the Jacobi sweep
is a pure read.
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


class JacobiFailure(AssertionError):
    def __init__(self, i, j, k, residual):
        super().__init__(f"Jacobi residual {residual:.3e} at basis triple ({i},{j},{k})")
        self.triple = (i, j, k)
        self.residual = residual


class TraceFormFailure(AssertionError):
    """tr(ad e_i ad e_i)/B0(e_i, e_i) is not constant over the sampled basis
    vectors; ``indices`` holds those with the lowest and the highest ratio."""

    def __init__(self, lo_index, lo, hi_index, hi):
        lo, hi = float(lo), float(hi)
        super().__init__(f"trace-form ratio spread {hi - lo:.3e}: {lo!r} at basis "
                         f"index {lo_index}, {hi!r} at basis index {hi_index}")
        self.indices = (lo_index, hi_index)
        self.spread = hi - lo


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
    """Bracket table of the compact real form over an orthonormal basis."""

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
        self._table: dict[tuple[int, int], tuple[tuple[int, float], ...]] = {}
        self._build_table()
        self._ad_cache: dict[int, sp.csr_matrix] = {}

    # -- indexing ------------------------------------------------------------

    def u_index(self, root_pos: int, parity: int) -> int:
        return self.rank + 2 * root_pos + parity

    def _u_terms(self, coeffs: Coeffs, parity: int, coef: float) -> tuple[int, float] | None:
        """Resolve U^parity of a possibly-negative root into the basis."""
        if coeffs in self.rs._index:
            return self.u_index(self.rs._index[coeffs], parity), coef
        pos = _neg(coeffs)
        if pos in self.rs._index:
            fold = -1.0 if parity == 0 else 1.0
            return self.u_index(self.rs._index[pos], parity), fold * coef
        return None

    def _build_table(self) -> None:
        rs, cd = self.rs, self.cd
        table = self._table
        for k, r in enumerate(rs.positive_roots):
            a = r.coeffs
            for p in (0, 1):
                i = self.u_index(k, p)
                for c in range(self.rank):
                    # [h_c, U^p_a] = -(-1)^(p+1) w U^(p+1) = (-1)^p w U^(p+1)
                    coef = (1.0 if p == 0 else -1.0) * self.w[k, c]
                    table[(c, i)] = ((self.u_index(k, 1 - p), coef),)
            # [U^0_a, U^1_a] = 2 sqrt(-1)H_a = sum_i w[k,i] h_i
            table[(self.u_index(k, 0), self.u_index(k, 1))] = tuple(
                (c, self.w[k, c]) for c in range(self.rank) if abs(self.w[k, c]) > 0
            )
        for ka, ra in enumerate(rs.positive_roots):
            for kb in range(ka + 1, self.n_pos):
                rb = rs.positive_roots[kb]
                a, b = ra.coeffs, rb.coeffs
                n_ab = cd.n_value(a, b), cd.n_value(_neg(a), b)
                if not any(n_ab):
                    continue
                n_ba = cd.n_value(b, a), cd.n_value(_neg(b), a)
                for p in (0, 1):
                    for q in (0, 1):
                        if p <= q:
                            raw = self._uu_bracket(a, p, b, q, *n_ab)
                        else:  # [x, y] = -[y, x], with the parity-ordered rule
                            raw = [(r, pr, -c) for r, pr, c in self._uu_bracket(b, q, a, p, *n_ba)]
                        terms = []
                        for root, parity, coef in raw:
                            t = self._u_terms(root, parity, coef)
                            if t:
                                terms.append(t)
                        if terms:
                            table[(self.u_index(ka, p), self.u_index(kb, q))] = tuple(terms)

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

    # -- bracket access ------------------------------------------------------

    def bracket_terms(self, i: int, j: int) -> tuple[tuple[int, float], ...]:
        """Sparse expansion of [e_i, e_j] over the basis."""
        if i == j:
            return ()
        if i < j:
            return self._table.get((i, j), ())
        return tuple((k, -c) for k, c in self._table.get((j, i), ()))

    def bracket_vectors(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        out = np.zeros(self.dim)
        xi = np.nonzero(x)[0]
        yi = np.nonzero(y)[0]
        for i in xi:
            for j in yi:
                for k, c in self.bracket_terms(i, j):
                    out[k] += x[i] * y[j] * c
        return out

    def ad(self, i: int) -> sp.csr_matrix:
        """Sparse matrix of ad(e_i) acting on column vectors."""
        if i not in self._ad_cache:
            rows, cols, vals = [], [], []
            for j in range(self.dim):
                for k, c in self.bracket_terms(i, j):
                    rows.append(k)
                    cols.append(j)
                    vals.append(c)
            self._ad_cache[i] = sp.csr_matrix(
                (vals, (rows, cols)), shape=(self.dim, self.dim)
            )
        return self._ad_cache[i]

    def ad_dense(self, i: int) -> np.ndarray:
        return self.ad(i).toarray()

    # -- invariant checks ----------------------------------------------------

    @property
    def dual_coxeter(self) -> int:
        return DUAL_COXETER[self.rs.family](self.rs.rank)

    def killing_entry(self, i: int, j: int) -> float:
        """Stored invariant form: -2 on the orthonormal basis."""
        return -2.0 if i == j else 0.0

    def trace_form_ratio(self, samples: int = 10, seed: int = 7) -> float:
        """Ratio tr(ad X ad Y)/B0(X, Y), constant = 2h* on valid input."""
        rng = np.random.default_rng(seed)
        ratios = []
        for _ in range(samples):
            i = int(rng.integers(self.dim))
            t = (self.ad(i) @ self.ad(i)).diagonal().sum()
            ratios.append((t / self.killing_entry(i, i), i))
        (lo, i_lo), (hi, i_hi) = min(ratios), max(ratios)
        if abs(hi - lo) > 1e-6 * max(1.0, abs(hi)):
            raise TraceFormFailure(i_lo, lo, i_hi, hi)
        return 0.5 * (lo + hi)

    def _bracket_tensor(self) -> sp.csr_matrix:
        """Structure constants C[(i, j), l] = <[e_i, e_j], e_l>/<e_l, e_l> as a
        (dim^2, dim) sparse matrix, holding both orders of every pair."""
        d = self.dim
        rows, cols, vals = [], [], []
        for (i, j), terms in self._table.items():
            for l, c in terms:
                rows += (i * d + j, j * d + i)
                cols += (l, l)
                vals += (c, -c)
        return sp.csr_matrix((vals, (rows, cols)), shape=(d * d, d))

    def _jacobi_worst(self) -> tuple[float, tuple[int, int, int]]:
        """Largest Jacobi residual over all basis triples, and a triple (i, j, k)
        where it occurs.

        The residual of (i, j, k) is ad([e_i, e_j]) e_k - [ad e_i, ad e_j] e_k,
        i.e. [[e_i, e_j], e_k] - [e_i, [e_j, e_k]] + [e_j, [e_i, e_k]].  It is
        computed one slab of i at a time, each slab by three sparse products over
        all j, so the working set stays O(dim^3) sparse entries per slab.
        """
        d = self.dim
        c = self._bracket_tensor()
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
        of ``_jacobi_worst``, whose bracket tensor is built per call and not
        kept on the algebra.
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
        c = self._bracket_tensor().tocoo()
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
