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
in this layout, such as the cyclic triple's block-diagonal C, off its CSR arrays (``csr``).
"""

from __future__ import annotations

import math

import numpy as np
import scipy.sparse as sp

from .chevalley import ChevalleyData
from .csr import (ZERO_DROP, arrays, canonical, coo_rows, csr_plus_csr, dropped, entry_rows,
                  gathered, matrix, merged, product, sliced, split)
from .rootsys import NotOrderThree, VerificationFailure

DUAL_COXETER = {
    "a": lambda n: n + 1,
    "b": lambda n: 2 * n - 1,
    "c": lambda n: n + 1,
    "d": lambda n: 2 * n - 2,
    "e": lambda n: {6: 12, 7: 18, 8: 30}[n],
    "f": lambda n: 9,
    "g": lambda n: 4,
}


SLAB_ENTRIES = 1 << 16    # sparse entries gathered per slab of a blocked sum or product
GENERATION_COND = 1e8     # a certificate block past this condition number is singular


def slab_cuts(weight, width: int = 0) -> list[tuple[int, int]]:
    """Runs [i0, i1) of a blocked loop over the indices of ``weight``, in order:
    n = ceil(sum / budget), cut where the weight before an index crosses a
    multiple of sum / n, with the budget ``SLAB_ENTRIES`` read per call, or
    ``width``, the columns of the loop's product, if larger: each product call
    sets up an accumulator that wide.  Trailing weightless indices join the last run."""
    weight = np.asarray(weight, dtype=float)
    n = math.ceil(weight.sum() / max(SLAB_ENTRIES, width))
    if n <= 1:
        return [(0, len(weight))] if len(weight) else []
    cuts = np.flatnonzero(np.diff((np.cumsum(weight) - weight) * n // weight.sum())) + 1
    cuts = [0, *cuts[cuts <= np.flatnonzero(weight)[-1]].tolist(), len(weight)]
    return list(zip(cuts[:-1], cuts[1:]))


class JacobiFailure(VerificationFailure):
    def __init__(self, i, j, k, residual):
        super().__init__(f"Jacobi residual {residual:.3e} at basis triple ({i},{j},{k})")
        self.triple = (i, j, k)
        self.residual = residual


class GenerationFailure(VerificationFailure):
    """C does not certify that the U^0, U^1 of the simple roots generate the
    algebra; ``root`` is the positive root whose plane is not reached, or
    None for the Cartan subalgebra."""

    def __init__(self, root, why):
        super().__init__(f"generation fails at {'the Cartan' if root is None else root}: {why}")
        self.root = root


class TraceFormFailure(VerificationFailure):
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
        pair departs from the mean diagonal ratio by more than 1e-6 of it, or
        by NaN (an infinite ratio departs from itself by NaN).
        """
        d = self.dim
        c = self.C.tocoo()
        i, k = np.divmod(c.row, d)
        # left[i, (k, l)] = C[(i, k), l] and right[j, (k, l)] = C[(j, l), k]
        left = sp.csr_matrix((c.data, (i, k * d + c.col)), shape=(d, d * d))
        right = sp.csr_matrix((c.data, (i, c.col * d + k)), shape=(d, d * d))
        ratios = (left @ right.T).toarray() / -2.0
        ratio = float(np.trace(ratios)) / d
        with np.errstate(invalid="ignore"):     # inf - inf
            ratios[np.diag_indices(d)] -= ratio
        res = np.abs(ratios)
        i, j = np.unravel_index(res.argmax(), res.shape)   # the first NaN, if any
        if not res[i, j] <= 1e-6 * max(1.0, abs(ratio)):
            raise TraceFormFailure(int(i), int(j), float(res[i, j]), ratio)
        return ratio

    @property
    def generators(self) -> np.ndarray:
        """The basis indices of U^0 and U^1 of the simple roots, ascending."""
        simple = np.flatnonzero(self.rs.height == 1)
        return (self.u_index(simple, 0)[:, None] + [0, 1]).ravel()

    def _certify_generation(self) -> None:
        """Check on C that the ``generators`` generate the algebra, or raise
        ``GenerationFailure``.

        The brackets [U^0_a, U^1_a] of the simple roots a must lie in the
        Cartan subalgebra and span it.  Then, in order of height, every
        non-simple positive root b = e + g, (e, g) its extraspecial pair (e is
        simple), must have the two brackets [U^p_e, U^0_g] supported on the
        Cartan, the planes of roots of lower height and b's plane, with a
        nonsingular 2 x 2 block on b's plane.  By induction on the height, the
        subalgebra generated then holds the Cartan and every plane.  Support
        is read from C's stored values as they are; a block counts as singular
        when it is not finite or its condition number exceeds ``GENERATION_COND``.
        """
        n, r, d, c, height = self.n_pos, self.rank, self.dim, self.C, self.rs.height
        u0, u1 = self.generators.reshape(-1, 2).T
        cartan = c[u0 * d + u1]
        if (cartan[:, r:].data != 0).any():
            raise GenerationFailure(None, "a bracket [U0_a, U1_a] of a simple root a leaves it")
        if not _nonsingular(cartan[:, :r].toarray()):
            raise GenerationFailure(None, "the brackets [U0_a, U1_a] of the simple roots a "
                                          "do not span it")
        beta = np.flatnonzero(height > 1)
        beta = beta[np.argsort(height[beta], kind="stable")]
        eps, gamma = self.cd.extraspecial[beta].T
        rows = c[((self.u_index(eps, 0)[:, None] + [0, 1]) * d
                  + self.u_index(gamma, 0)[:, None]).ravel()].tocoo()
        b = beta[rows.row // 2]
        root = np.r_[np.full(r, -1), np.arange(n).repeat(2)][rows.col]   # -1: the Cartan
        plane = root == b
        outside = (rows.data != 0) & ~plane & (root >= 0) & (height[root] >= height[b])
        blocks = np.zeros((beta.size, 2, 2))
        blocks[rows.row[plane] // 2, rows.row[plane] % 2, (rows.col[plane] - r) % 2] = \
            rows.data[plane]
        leaves = np.zeros(beta.size, dtype=bool)
        leaves[rows.row[outside] // 2] = True
        bad = leaves | ~_nonsingular(blocks)
        if bad.any():
            at = int(np.flatnonzero(bad)[0])
            why = "leave the Cartan, the lower planes and its plane" if leaves[at] \
                else "have a singular 2 x 2 block on its plane"
            raise GenerationFailure(self.rs.roots[beta[at]],
                                    f"[U^p_e, U^0_g] over its extraspecial pair (e, g) {why}")

    def _jacobi_worst(self) -> tuple[float, tuple[int, int, int]]:
        """Largest Jacobi residual over the basis triples (i, j, k) with e_i a
        generator, and the first such triple in lexicographic order where it
        occurs; a NaN residual counts as the largest.  Raises
        ``GenerationFailure`` first unless ``_certify_generation`` passes.

        The residual of (i, j, k) is lhs + F(i, j, k) - F(j, i, k), with
        lhs = [[e_i, e_j], e_k] and F(x, y, z) = [e_y, [e_x, e_z]]; it vanishes
        for all j and k exactly when ad(e_i) is a derivation of the bracket.
        Those x form a subalgebra for any bilinear C (once ad x is a
        derivation, ad [x, y] = [ad x, ad y]), so once the generators are
        certified to generate, a zero sweep proves the Jacobi identity on every
        triple.  The implication holds in exact arithmetic only.  The
        sweep runs over slabs of consecutive j, cut by ``slab_cuts`` on the
        exact entry count of the slab's three sparse products: lhs, F(i, j, k)
        and F(j, i, k), the last two grouped into rows (i, j) by one counting
        sort, so the residual is lhs + (F(i, j, k) - F(j, i, k)), each on CSR
        arrays (``csr``) by the kernels and operands of scipy's operators.
        """
        self._certify_generation()
        d, c, gens = self.dim, self.C, self.generators
        coo = c.tocoo()
        first, second = np.divmod(coo.row, d)
        place = np.full(d, -1)
        place[gens] = np.arange(gens.size)
        on = place[first] >= 0
        # T[l, (k, m)] = C[l, k, m], S[l, (j, m)] = C[j, l, m], and S over the
        # generators, SG[l, (g, m)] = C[gens[g], l, m]
        t = sp.csr_matrix((coo.data, (first, second * d + coo.col)), shape=(d, d * d))
        s = sp.csr_matrix((coo.data, (second, first * d + coo.col)), shape=(d, d * d))
        sg = sp.csr_matrix((coo.data[on], (second[on], place[first[on]] * d + coo.col[on])),
                           shape=(d, gens.size * d))
        cg = gathered(arrays(c), (gens[:, None] * d + np.arange(d)).ravel())  # [e_i, e_k] at (g, k)
        # entries per j: lhs reads row l of T at each entry of C[i, j, l]; F(i, j, k)
        # reads S[l, (j, .)], nnz C[j, l, :], at each entry of cg in column l;
        # F(j, i, k) reads row l of SG at each entry of C[j, k, l]
        weight = np.bincount(entry_rows(cg[0]) % d, weights=np.bincount(first, minlength=d)[cg[1]],
                             minlength=d) \
            + np.diff(c.indptr).reshape(d, d) @ np.bincount(cg[1], minlength=d) \
            + np.bincount(first, weights=np.diff(sg.indptr)[coo.col], minlength=d)
        s, t, sg = arrays(s), arrays(t), arrays(sg)
        worst, where, value = 0.0, 0, 0.0     # where: the triple (i, j, k) as (i d + j) d + k

        def keep_worst(res, i, j):
            """Fold the largest entry of res (CSR arrays), whose row r is the pair
            (i[r], j[r]), into (worst, where, value); ties keep the first triple."""
            nonlocal worst, where, value
            mag = np.abs(res[2])
            ranked = np.where(np.isnan(mag), np.inf, mag)
            top = ranked.max(initial=0.0)
            if top == 0.0 or top < worst:
                return
            at = np.flatnonzero(ranked == top)   # columns are unsorted within a row
            row = np.searchsorted(res[0], at, side="right") - 1
            keys = (i[row] * d + j[row]) * d + res[1][at] // d
            n = int(keys.argmin())
            if top > worst or keys[n] < where:
                worst, where, value = float(top), int(keys[n]), float(mag[at[n]])

        def terms(f, width, inner):
            """(rows (g, j), columns (k, m), values) of F(i, j, k) from the CSR arrays of
            its product [(g, k), (j, m)] if ``inner``, else of -F(j, i, k) from [(j, k), (g, m)]."""
            (a, k), (b, m) = split(entry_rows(f[0]), d), split(f[1], d)
            return (a * width + b, k * d + m, f[2]) if inner else \
                (b * width + a, k * d + m, -f[2])

        for j0, j1 in slab_cuts(weight):
            width = j1 - j0
            inside = (s[1] >= j0 * d) & (s[1] < j1 * d)   # S[:, (j, .)] of the slab
            s_slab = (np.r_[0, np.cumsum(inside)][s[0]].astype(s[0].dtype), s[1][inside] - j0 * d,
                      s[2][inside])
            # a row (g, j) holds F(i, j, k) before -F(j, i, k) at a column (k, m),
            # and sparse addition sums the two duplicates in that order
            shape = (gens.size * width, d * d)        # grouped by row in order: one counting pass
            diff = coo_rows(*map(np.concatenate, zip(
                terms(product(cg, s_slab, width * d), width, True),
                terms(product(sliced(arrays(c), j0 * d, j1 * d), sg, gens.size * d), width, False))),
                shape)
            at = np.arange(gens.size * width)             # the slab's rows (g, j) of cg
            lhs = product(gathered(cg, at // width * d + j0 + at % width), t, d * d)
            keep_worst(merged(csr_plus_csr, lhs, diff, d * d), gens[at // width], j0 + at % width)
        return value, (where // (d * d), where // d % d, where % d)

    def jacobi_max_residual(self) -> float:
        """Max norm of [[x,y],z]+[[y,z],x]+[[z,x],y] over the basis triples
        whose first index is a generator, after the generation certificate:
        together, in exact arithmetic, the Jacobi identity on every triple
        (``_jacobi_worst``, which reads the structure constants ``C``).
        """
        return self._jacobi_worst()[0]

    def assert_jacobi(self, tol: float = 1e-9) -> float:
        res, (i, j, k) = self._jacobi_worst()
        if not res <= tol:
            raise JacobiFailure(i, j, k, res)
        return res


def antisymmetry_max_residual(c: sp.csr_matrix) -> float:
    """Max |C[i,j,k] + C[i,k,j]| over structure constants C[(i, j), k]: every
    ad(e_i) must be skew for the invariant form, i.e. C is totally skew."""
    d, csr = c.shape[1], arrays(c)
    i, j = split(entry_rows(csr[0]), d)
    swapped = canonical(coo_rows(i * d + csr[1], j, csr[2], c.shape), d)
    return float(np.abs(merged(csr_plus_csr, csr, swapped, d)[2]).max(initial=0.0))


def _nonsingular(blocks: np.ndarray) -> np.ndarray:
    """Whether each square matrix of the stack is finite, with a condition
    number below ``GENERATION_COND``."""
    finite = np.isfinite(blocks).all(axis=(-2, -1))
    sv = np.linalg.svd(np.where(finite[..., None, None], blocks, 0.0), compute_uv=False)
    return finite & (sv[..., -1] * GENERATION_COND > sv[..., 0])


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
    rows, cols = np.concatenate([h, u0, u1, u0, u1]), np.concatenate([h, u0, u0, u1, u1])
    shape = (ca.dim, ca.dim)            # each row sorted by the counting pass, its zeros dropped
    values = np.concatenate([np.ones(ca.rank), cos, sin, -sin, cos])
    return matrix(dropped(coo_rows(rows, cols, values, shape), ca.dim), shape)


_SQRT3_2 = math.sqrt(3.0) / 2.0
_THIRDS = ((1.0, 0.0), (-0.5, _SQRT3_2), (-0.5, -_SQRT3_2))   # (cos, sin) of 2 pi j/3
