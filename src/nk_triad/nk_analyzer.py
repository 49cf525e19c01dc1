"""Canonical almost-complex structure, intrinsic torsion and curvature tensors.

Conventions, over the reductive split g = k + m with metric <.,.> = -(1/2)B:

    J     = (2 sigma|m + id)/sqrt(3)
    xi_X Y = -(1/2)[X, Y]_m
    R^min_{X Y} = ad([X, Y]_k)|m
    R(X,Y,Z,T) = R^min(X,Y,Z,T) + 2<xi_X Y, xi_Z T>
                 - <xi_X Z, xi_Y T> + <xi_X T, xi_Y Z>

with the curvature sign convention R_{X Y} = nabla_[X,Y] - [nabla_X, nabla_Y]
(spheres have positive sectional curvature).  Ricci is the trace
Ric(X,Y) = R(X, e_i, Y, e_i), the star variant pairs through J, and

    r = Ric - Ric*,     C = Ric - 5 Ric* = 5r - 4 Ric.

The exact eigenvalues of r, Ric and C live in the report ``exact`` builds,
once per space (``build_report``), with no float code; the suites here read
them from it and cross-check them against the float trace computations.
A float suite returns its residuals and judges none: its caller compares
them with a tolerance (``cli._over_tol``); exact and structural checks raise.

The floating-point side is read off a few sparse operators per space, once
(``curvature``): J, a signed permutation of the m-basis (``canonical_J``),
and R as a (dm^2, dm^2) matrix R[(a,b),(c,d)] = R(e_a,e_b,e_c,e_d), built
slab by slab, each slab sorted, from the Gram matrices of the space's two
tensors: R^min = K K^T and G = X X^T, G[(a,b),(c,d)] = <xi_a e_b, xi_c e_d>.
Neither R nor G is held whole: each slab forms its rows of G from X, and the
J-defect, Ric, Ric* and the three symmetries of R are read off the slab
before the next is formed (``Curvature.identities``); the other readers form
the blocks of G they need (``gram``).  The layer-restricted minimal-connection
and special-torsion suites form only the rows of K and the blocks of G and X
their layers name: blocks of rows (a, b) with a horizontal against the
vertical pairs (c, d), which give the G-block of xi_H xi_V V too
(``Curvature.min_connection``), the other double-torsion G-block and X's
rows (a, i) for the frame traces.  J's identities are index relabellings of
X and K.  Each identity is a maximum over all (a, b, c, d), or over the
layers it names, and memory follows the nonzeros of a slab, never dm^4.
The slabs' entries move between rows by stable counting passes that leave
every row sorted (``_moved``).  J, r, the layer suites and R's build run
scipy's kernels on CSR arrays (``csr``), the Gram products of its slabs too:
scipy's sums, bit for bit.  J, X, K and R's slabs are scipy CSR matrices.
"""

from __future__ import annotations

import weakref
from collections.abc import Iterator
from functools import cached_property

import numpy as np
import scipy.sparse as sp

from .automorph import OrderThreeSymmetricSpace, classify_type
from .compactform import antisymmetry_max_residual, slab_cuts
from .csr import (arrays, canonical, coo_rows, csr_minus_csr, csr_plus_csr, csr_sort_indices,
                  dropped, entry_rows, gathered, matrix, merged, product, sliced, split, transpose)
from .exact import (FixedVectorInM, IdentityViolation, NKReport, constant_report, einstein_check,
                    inner_report, verify_prop_table_relations)
# bound here only because bench/layers.py WRAPPED traces them as nk_analyzer.exact_*
from .exact import exact_r_cross_layer, exact_r_eigenvalues, exact_ricci_eigenvalues  # noqa: F401
from .rootsys import KAPPA, TOL_FLOOR, _read_only


# -- basic structure -----------------------------------------------------------


def canonical_J(space: OrderThreeSymmetricSpace) -> sp.csr_matrix:
    """J = (2 sigma|m + id)/sqrt(3) as CSR, its noise dropped.

    Raises ``FixedVectorInM`` unless J^2 = -id, which rules out a fixed
    vector of sigma|m (sigma v = v gives J v = sqrt(3) v), and
    ``IdentityViolation`` unless J is a signed permutation of the m-basis (one
    entry of modulus 1 per row), which every realization gives and
    ``Curvature.identities`` relies on.
    """
    dm, n, m = space.dim_m, space.sigma.shape[0], arrays(space.m_cols)
    eye = arrays(sp.identity(dm, format="csr"))
    # m^T sigma m as scipy's CSC products leave it: its transpose m^T (sigma^T m)
    ptr, col, val = product(transpose(m, dm), product(transpose(arrays(space.sigma), n), m, dm), dm)
    ptr, col, val = merged(csr_plus_csr, (ptr, col, val * 2.0), eye, dm)
    j = dropped(transpose((ptr, col, val * (1 / np.sqrt(3.0))), dm), dm)
    if _max_abs(merged(csr_plus_csr, product(j, j, dm), eye, dm)[2]) > TOL_FLOOR:
        raise FixedVectorInM("J^2 != -id; sigma|m is not fixed-point free of order 3")
    if (np.diff(j[0]) != 1).any() or (np.abs(np.abs(j[2]) - 1.0) > TOL_FLOOR).any():
        raise IdentityViolation("J is not a signed permutation of the m-basis")
    return matrix(j, (dm, dm))


def tensor_r(space: OrderThreeSymmetricSpace) -> np.ndarray:
    """r(X, Y) = -4 trace xi_X xi_Y as a symmetric matrix (memoised, read-only)."""
    return curvature(space).r


def ricci_tensors(space: OrderThreeSymmetricSpace):
    """(Ric, Ric*, C) as traces of the sparse curvature operator; Ric and Ric*
    are memoised on the space (read-only)."""
    cv = curvature(space)
    return cv.ric, cv.ric_star, cv.ric - 5.0 * cv.ric_star


# -- the sparse curvature operator ------------------------------------------------


def _max_abs(mat) -> float:
    return float(np.abs(mat.data if sp.issparse(mat) else mat).max(initial=0.0))


def gram(x: sp.csr_matrix, rows, cols) -> tuple:
    """The block G[rows][:, cols] of G = X X^T as CSR arrays, formed from those rows of
    X alone, its noise dropped.  Each entry sums over k in the order of X's row, as a
    whole X X^T would, so the block holds G's entries bit for bit."""
    x, n = arrays(x), x.shape[1]
    return dropped(product(gathered(x, rows), transpose(gathered(x, cols), n), len(cols)), len(cols))


def _j_checks(slab, half, a0: int, dm: int, jj, ric, ric_star) -> float:
    """The J-defect R - R kron(J, J) - 4G on the CSR arrays of a slab of R
    (its rows (a, b), a from a0) and of the slab's rows of G; adds the slab's
    terms of Ric and Ric* to ``ric`` and ``ric_star`` in place.  J[c, pi c] =
    s_c is a signed permutation (``canonical_J``), so is kron(J, J), ``jj`` =
    (pi c dm + pi d, s_c s_d) at (c, d), and R kron(J, J) is the slab with its
    columns so relabelled and signed.  Ric* is its trace over b = pi d, Ric
    the slab's over b = d; each (a, c) of a trace takes terms from one slab
    alone, so a slab adds to its own a's entries of the traces, no others."""
    (perm, sign), (ptr, col, val), n = jj, slab, dm * dm
    own = slice(a0 * dm, a0 * dm + len(ptr) - 1)    # (a, c) of the slab's a: as many as its rows
    a, b = split(entry_rows(ptr), dm)
    jd, jcol = val * sign[col], perm[col]
    for trace, at, v in ((ric, col, val), (ric_star, jcol, jd)):
        c, d = split(at, dm)
        on = b == d                                 # the entries the trace reads
        trace[own] += np.bincount(a[on] * dm + c[on], v[on], len(ptr) - 1)
        del c, d, on                                # freed before the next split or sum
    del a, b
    csr_sort_indices(len(ptr) - 1, ptr, jcol, jd)   # so the merge reads sorted rows, no dm^2 scratch
    rest = merged(csr_minus_csr, slab, (ptr, jcol, jd), n)
    del jcol, jd
    return _max_abs(merged(csr_minus_csr, rest, (half[0], half[1], 4.0 * half[2]), n)[2])


def _moved(rows, dm: int, to: str, data) -> tuple:
    """The entries of the CSR arrays of rows M[(a,x),(y,z)] of a (dm^2, dm^2)
    operator, a counted from 0, moved to [(a,p),(q,s)] with values ``data``,
    ``to`` = "pqs" a permutation of "xyz", by one stable COO-to-CSR counting
    pass (``coo_rows``).  It keeps the source order (x, y, z) within a row,
    which leaves sorted rows sorted if q comes before s in it ("zxy", "yxz"),
    the only moves the build makes."""
    ptr, col, _ = rows
    place = dict(zip("axyz", (*split(entry_rows(ptr), dm), *split(col, dm))))
    row, col_to = place["a"] * dm + place[to[0]], place[to[1]] * dm + place[to[2]]
    del place
    return coo_rows(row, col_to, data, (len(ptr) - 1, dm * dm))


def _swapped_pairs(rows, dm: int) -> tuple:
    """-M[a,c,b,d] + M[a,d,b,c] at [(a,b),(c,d)] from the CSR arrays of the
    sorted rows (a, .) of M: M moved by "yxz", and by "zxy" twice."""
    once = _moved(rows, dm, "zxy", rows[2])
    twice = _moved(once, dm, "zxy", once[2])
    del once                                        # freed before the sum: it sets the peak
    return merged(csr_plus_csr, _moved(rows, dm, "yxz", -rows[2]), twice, dm * dm)


def _symmetries(slab, dm: int) -> tuple[float, float]:
    """(Bianchi, antisymmetry) on the CSR arrays of a slab of R, its rows
    (a, b) sorted: the a-fixed sum R[a,b,c,d] + R[a,c,d,b] + R[a,d,b,c] and
    the last pair's R[a,b,c,d] + R[a,b,d,c], each a maximum over the slab's a
    and every (b, c, d).  Both read rows (a, .) alone, in blocks of a
    (``slab_cuts`` on three times each a's entries) that keep the relabelled
    copies small.  Moving R[a,x,y,z] to [(a,z),(x,y)] once and twice gives
    both Bianchi terms, and the first of them moved by "yxz" is R[a,b,d,c]:
    every move comes out with its rows sorted, so none is sorted by comparison."""
    n, bianchi, antisymmetry = dm * dm, 0.0, 0.0
    for b0, b1 in slab_cuts(3 * np.diff(slab[0][::dm])):
        sub = sliced(slab, b0 * dm, b1 * dm)
        once = _moved(sub, dm, "zxy", sub[2])
        last = merged(csr_plus_csr, sub, _moved(once, dm, "yxz", once[2]), n)[2]
        two, twice = merged(csr_plus_csr, sub, once, n), _moved(once, dm, "zxy", once[2])
        del once                                    # freed before the sum: it sets the peak
        bianchi = max(bianchi, _max_abs(merged(csr_plus_csr, two, twice, n)[2]))
        antisymmetry = max(antisymmetry, _max_abs(last))
        del two, twice, last
    return bianchi, antisymmetry


class Curvature:
    """Sparse torsion and curvature operators of one space, each built on first use.

    From X[(a,b), k] = xi[a,b,k] and K[(a,b), s] = <[e_a, e_b], k_s>
    (``space.tensors()``) R is the (dm^2, dm^2) operator

        R = K K^T + 2G - G[a,c,b,d] + G[a,d,b,c],    G[(a,b),(c,d)] = <xi_a e_b, xi_c e_d>,

    built slab by slab (``slabs``), and neither R nor G = X X^T is held
    whole.  One pass over the slabs (``_build``) reads off every check that
    needs R: the J-defect R - R kron(J, J) - 4G, Ric (sum_i R[a,i,b,i]), Ric*
    and the three symmetries of R.  r is the torsion trace -4 tr xi_a xi_b,
    read off X alone: 4 sum_i G[a,i,b,i] is the trace of R - R kron(J, J) =
    4G, so r = Ric - Ric* would only restate the J-defect.  ``j``, G's rows
    and R's slabs, like the tensors, drop entries below ``ZERO_DROP``:
    cancellation in their sums of products leaves float noise on exact zeros.
    """

    def __init__(self, space: OrderThreeSymmetricSpace):
        # weak: the space owns its Curvature, so without a reference cycle a
        # finished space and its operators are freed at once, not at the next collection
        self.space = weakref.proxy(space)
        self.dm = space.dim_m

    @cached_property
    def j(self) -> sp.csr_matrix:
        """The signed permutation J (``canonical_J``)."""
        return canonical_J(self.space)

    @cached_property
    def row_weight(self) -> np.ndarray:
        """Per a, the multiply-adds of K[(a,.)] K^T and three times those of
        X[(a,.)] X^T, each capped at dm^3 (the entries rows (a, .) can hold):
        an exact bound on the entries of G's rows (a, .), sum over k in
        supp X[(a,b),:] of nnz X[:,k].  ``slab_cuts`` cuts R's build and the
        minimal-connection suite into blocks of a by it."""
        dm, (x, kc) = self.dm, self.space.tensors()

        def madds(t):
            """per a, nnz T[:,k] summed over the entries of T's rows (a, .), at most dm^3"""
            done = np.concatenate([[0], np.cumsum(np.bincount(t.indices)[t.indices])])
            return np.minimum(np.diff(done[t.indptr[::dm]]), dm ** 3)

        return madds(kc) + 3 * madds(x)

    def slabs(self) -> Iterator[tuple[int, sp.csr_matrix, sp.csr_matrix]]:
        """R's row slabs in order, each (a0, slab, half): the rows (a, b) of R
        and of G, both sorted, for a block of a from a0 (``slab_cuts`` on
        ``row_weight``, no run under dm^2), a counted from a0.  The block's
        rows of K and X, views of their arrays, times K^T and X^T give R^min's
        rows and G's, read as 2G, -G[a,c,b,d] and G[a,d,b,c] (``_swapped_pairs``);
        only those two are sorted by comparison.  The slab, (K K^T + 2G) +
        (-G[acbd] + G[adbc]), is summed by ``csr_plus_csr`` merges of sorted
        rows; it and G's rows are yielded as scipy CSR matrices."""
        dm, n, (x, kc) = self.dm, self.dm ** 2, map(arrays, self.space.tensors())
        xt, kt = transpose(x, dm), transpose(kc, self.space.dim_k)
        for a0, a1 in slab_cuts(self.row_weight, n):
            ka = product(sliced(kc, a0 * dm, a1 * dm), kt, n)     # R^min's rows
            csr_sort_indices(len(ka[0]) - 1, *ka)
            g = dropped(product(sliced(x, a0 * dm, a1 * dm), xt, n), n)   # G's rows, as ``gram``
            csr_sort_indices(len(g[0]) - 1, *g)
            ka = merged(csr_plus_csr, ka, (*g[:2], 2.0 * g[2]), n)
            rest = merged(csr_plus_csr, ka, _swapped_pairs(g, dm), n)
            del ka
            shape = ((a1 - a0) * dm, n)
            slab = matrix(dropped(rest, n), shape)
            del rest
            yield a0, slab, matrix(g, shape)
            del slab, g

    @cached_property
    def _build(self) -> tuple[dict[str, float], np.ndarray, np.ndarray]:
        """(identities, Ric, Ric*), read off each slab of ``slabs`` before the
        next is formed: ``_j_checks`` reads the J-defect, Ric and Ric*,
        ``_symmetries`` the a-fixed Bianchi sum and last-pair antisymmetry.
        Pair symmetry reads no R: K K^T and G are Gram forms, so with X's
        first-pair skew defect E[(p,q),k] = X[(p,q),k] + X[(q,p),k] and
        D = E E^T - E X^T - X E^T, R[a,b,c,d] - R[c,d,a,b] = D[a,c,b,d] -
        D[a,d,b,c], the slab's rows of D through G's two relabellings.  E,
        noise dropped, is empty on a real space, so no product of it is formed.

        With p, s and t the pair, last-pair and Bianchi residuals, first-pair
        antisymmetry R[a,b,c,d] + R[b,a,c,d] is at most 2p + s (swap both pairs
        to R[c,d,a,b] + R[c,d,b,a]), and the classical sum R[a,b,c,d] +
        R[b,c,a,d] + R[c,a,b,d] at most t + 3(p + s): each R[x,y,z,d] is
        -R[d,z,x,y] within p + s, so the sum is minus the a-fixed one at d.
        """
        dm, js, xi = self.dm, self.j, self.space.tensors()[0]
        jj = (js.indices[:, None] * dm + js.indices).ravel(), (js.data[:, None] * js.data).ravel()
        swap = (np.arange(dm)[:, None] + np.arange(dm) * dm).ravel()    # rows (p, q) -> (q, p)
        x = arrays(xi)
        e = matrix(dropped(merged(csr_plus_csr, x, gathered(x, swap), dm), dm), xi.shape)
        ric, ric_star, worst = np.zeros(dm * dm), np.zeros(dm * dm), [[0.0] * 4]
        for a0, slab, half in self.slabs():
            own = slice(a0 * dm, a0 * dm + slab.shape[0])
            pair = 0.0 if not e.nnz else _max_abs(     # D's rows, E X[swap]^T - X E^T
                _swapped_pairs(arrays(e[own] @ xi[swap].T - xi[own] @ e.T), dm)[2])
            bianchi, antisymmetry = _symmetries(arrays(slab), dm)
            defect = _j_checks(arrays(slab), arrays(half), a0, dm, jj, ric, ric_star)
            worst.append([bianchi, pair, antisymmetry, defect])
            del slab, half
        keys = ("bianchi", "pair_symmetry", "antisymmetry", "curvature_J_defect")
        return (dict(zip(keys, np.max(worst, axis=0).tolist())),
                _read_only(ric.reshape(dm, dm)), _read_only(ric_star.reshape(dm, dm)))

    identities = property(lambda self: self._build[0])   # the residuals by name
    ric = property(lambda self: self._build[1])
    ric_star = property(lambda self: self._build[2])

    @cached_property
    def r(self) -> np.ndarray:
        dm, (ptr, col, val) = self.dm, arrays(self.space.tensors()[0])
        (a, i), j, n = split(entry_rows(ptr), dm), col, dm * dm
        p = canonical(coo_rows(a, i * dm + j, val, (dm, n)), n)   # [a, (i,j)] = xi[a,i,j]
        q = canonical(coo_rows(a, j * dm + i, val, (dm, n)), n)   # [b, (i,j)] = xi[b,j,i]
        return _read_only(-4.0 * matrix(product(p, transpose(q, n), dm), (dm, dm)).toarray())

    @cached_property
    def min_connection(self) -> tuple[float, float]:
        """(residual, max |G[(h, u), (v1, v2)]|), h horizontal, v1, v2 vertical: the
        minimal-connection identity K K^T + 4G + 4G[c,b,d,a] - 4G[d,b,c,a], per block of
        horizontal a (``row_weight``); K's and X's rows (a, b) against their rows (c, d) of
        V x V give K K^T + 4G (G's block is the special-torsion suite's xi_H xi_V V), and
        B[(p,a),(q,b)] = G[p,a,q,b] gives 4B at [(a,b),(q,p)] and -4B at [(a,b),(p,q)]."""
        vert, horiz = _vertical_split(self.space)
        dm, nv, (x, kc) = self.dm, len(vert), self.space.tensors()
        vv, vm, n, k = _pairs(vert, vert, dm), _pairs(vert, np.arange(dm), dm), nv * nv, arrays(kc)
        kv, worst, most = transpose(gathered(k, vv), kc.shape[1]), 0.0, 0.0
        for h0, h1 in slab_cuts(self.row_weight[horiz]):
            a = horiz[h0:h1]
            rows = _pairs(a, np.arange(dm), dm)
            g = gram(x, rows, vv)
            most = max(most, _max_abs(g[2]))
            slab = merged(csr_plus_csr, product(gathered(k, rows), kv, n), (*g[:2], 4.0 * g[2]), n)
            blk = gram(x, _pairs(vert, a, dm), vm)
            (p, i), (q, b) = split(entry_rows(blk[0]), len(a)), split(blk[1], dm)
            pair = canonical(coo_rows(np.tile(i * dm + b, 2), np.concatenate([q * nv + p, p * nv + q]),
                                      np.concatenate([4.0 * blk[2], -4.0 * blk[2]]), (len(rows), n)), n)
            worst = max(worst, _max_abs(merged(csr_plus_csr, slab, pair, n)[2]))
        return worst, most


def curvature(space: OrderThreeSymmetricSpace) -> Curvature:
    """The space's memoised ``Curvature``."""
    if space._curvature is None:
        space._curvature = Curvature(space)
    return space._curvature


# -- the exact report of a realized space ------------------------------------------


def build_report(space: OrderThreeSymmetricSpace) -> NKReport:
    """Type and exact eigenvalues of a space, memoised on it; builds no
    curvature operator.

    The type is confirmed on the space (``classify_type``); the report comes
    from ``exact``: ``inner_report`` on an inner class, ``constant_report``
    on the triality and the cyclic triples.
    """
    if space._report is None:
        classify_type(space)
        base = space.algebra.base if space.type_label == "C3" else space.algebra
        space._report = (
            inner_report(base.cd, space.h_spec, space.name) if space.h_spec is not None
            else constant_report(base.rs, base.dual_coxeter, space.type_label,
                                 {lbl: len(cols) for lbl, cols in space.layers.items()}, space.name))
    return space._report


# -- identity suites ---------------------------------------------------------------


def verify_structure_identities(space, tol=1e-9) -> dict[str, float]:
    """Torsion/J identities that need no curvature tensors, over every index.
    J[c, pi c] = s_c is a signed permutation (``canonical_J``), so each product
    with J, or kron(J, J), moves X's or K's entries to new indices with signs.
    ``tol`` is unused; it stays until ``bench/workloads.py`` stops passing it."""
    js = curvature(space).j
    perm, sign = js.indices.astype(np.int64), js.data
    inv = np.argsort(perm)                              # pi^-1 (pi is a bijection)
    x, kc = space.tensors()
    dm = space.dim_m
    (a, b), k, xval = split(entry_rows(x.indptr).astype(np.int64), dm), x.indices, x.data
    (c, d), s, kval = split(entry_rows(kc.indptr).astype(np.int64), dm), kc.indices, kc.data
    key = lambda p, q, r, width=dm: (p * dm + q) * width + r   # of the entry [(p, q), r]

    def worst(*parts) -> float:
        """max |sum of the values at equal keys| over (keys, values) parts."""
        keys, vals = (np.concatenate(p) for p in zip(*parts))
        return _max_abs(np.bincount(np.unique(keys, return_inverse=True)[1], vals))

    res: dict[str, float] = {}
    square = sign * sign[perm]                          # (J^2)[c, pi pi c]
    res["J_squared"] = float(np.where(perm[perm] == np.arange(dm), np.abs(square + 1.0),
                                      np.maximum(np.abs(square), 1.0)).max())
    res["J_isometry"] = _max_abs(np.bincount(perm, sign * sign, dm) - 1.0)
    res["xi_XX"] = _max_abs(xval[a == b])
    # rows (i, p) of xi_i J + J xi_i
    res["xi_J_anticommute"] = worst((key(a, b, perm[k]), xval * sign[k]),
                                    (key(a, inv[b], k), sign[inv[b]] * xval))
    # xi[a,b,k] + xi[b,a,k] and xi[a,b,k] + xi[a,k,b] over every index triple
    xi = (key(a, b, k), xval)
    res["xi_totally_skew"] = max(worst(xi, (key(b, a, k), xval)), worst(xi, (key(a, k, b), xval)))
    res["bracket_JJ_k"] = worst((key(perm[c], perm[d], s, kc.shape[1]), (sign[c] * sign[d]) * kval),
                                (key(c, d, s, kc.shape[1]), -kval))
    mm = -2.0 * xval  # m-part of the bracket: kron(J^T, I) mm + mm J^T
    res["bracket_J_m"] = worst((key(perm[a], b, k), sign[a] * mm), (key(a, b, inv[k]), mm * sign[inv[k]]))
    return res


def verify_curvature_identities(space, tol=1e-9, seed=0) -> dict[str, float]:
    """First Bianchi, pair symmetry, antisymmetry, the J-curvature defect
    R(X,Y,Z,T) - R(X,Y,JZ,JT) = 4<xi_X Y, xi_Z T>, and Ricci facts.

    Every residual is a maximum over all (a, b, c, d), read off R's slabs as
    the build forms them (``Curvature.identities``): Bianchi as the a-fixed
    sum, antisymmetry on the last pair, and pair symmetry from X's pair
    defect, which together bound the classical forms.  Ric and Ric* come from
    the same build.  ``tol`` and ``seed`` are unused; they stay until
    ``bench/workloads.py`` stops passing them.
    """
    cv = curvature(space)
    res = dict(cv.identities)
    j, ric, ric_star, r = cv.j, cv.ric, cv.ric_star, cv.r
    res["ric_symmetric"] = float(np.abs(ric - ric.T).max())
    res["ric_star_symmetric"] = float(np.abs(ric_star - ric_star.T).max())
    res["ric_J_commute"] = float(np.abs(ric @ j - j @ ric).max())
    res["r_identity"] = float(np.abs((ric - ric_star) - r).max())
    return res


def _vertical_split(space) -> tuple[np.ndarray, np.ndarray]:
    """(vertical, horizontal) m-basis positions, each sorted: V and H on type
    IV, V1 and V2 + V3 on type III; no other type has special algebraic torsion."""
    if space.type_label == "A3III":
        vert, horiz = space.layers["V"], space.layers["H"]
    elif space.type_label == "A3II":
        vert, horiz = space.layers["V1"], space.layers["V2"] + space.layers["V3"]
    else:
        raise IdentityViolation("special algebraic torsion needs a vertical split (type III/IV)")
    return np.sort(vert), np.sort(horiz)


def _pairs(first, second, dm: int) -> np.ndarray:
    """The indices (p, q) of a (dm^2)-axis, p in first and q in second, p major."""
    return (np.asarray(first)[:, None] * dm + np.asarray(second)).ravel()


def verify_min_connection_identity(space, tol=1e-9, seed=0) -> float:
    """Contracted curvature identity of the minimal connection.

    For X horizontal, U arbitrary and V1, V2 vertical:
    R^min(X,U,V1,V2) = 4(<[xi_V1, xi_V2]X, U> - <xi_X U, xi_V1 V2>),
    checked on every basis tuple (``Curvature.min_connection``).  Only
    defined on special-algebraic-torsion splittings.  Returns the worst
    residual.  ``tol`` and ``seed`` are unused; they stay until
    ``bench/workloads.py`` stops passing them.
    """
    return curvature(space).min_connection[0]


def verify_sat_identities(space, tol=1e-9, seed=0) -> dict[str, float]:
    """Layer facts of special algebraic torsion plus the trace identities.

    The double-torsion containments xi_V xi_H H = 0 and xi_H xi_V V = 0 are
    the blocks G[(u,p),(x1,x2)] with u in one of V, H and x1, x2 in the other,
    formed from X's rows (``gram``), the second in the minimal-connection
    loop (``Curvature.min_connection``); the frame traces
    8 sum_{i in V} G[a,i,b,i] and 8 sum_{i in H} G[a,i,b,i] must both equal
    the torsion trace r on the horizontals.  Each is read off X as 8 P P^T,
    P[a, (i, k)] = X[(a, i), k] with a horizontal and i in the frame, so only
    X's rows (a, i) are gathered.  Every index is checked.  The exact trace
    balance of the layers raises ``IdentityViolation``.  ``tol`` and ``seed``
    are unused; they stay until ``bench/workloads.py`` stops passing them.
    """
    vert, horiz = _vertical_split(space)
    x, dm = space.tensors()[0], space.dim_m
    lam = build_report(space).eig_by_layer("r")
    (row_a, row_b), res = split(entry_rows(x.indptr), dm), {}
    member = lambda idx: np.isin(np.arange(dm), np.asarray(idx))

    def block_max(first, second, out):
        """max |X[(p, q), k]| over p in first, q in second, k in out."""
        return _max_abs(x.data[member(first)[row_a] & member(second)[row_b] & member(out)[x.indices]])

    if space.type_label == "A3III":
        v, h = space.layers["V"], space.layers["H"]
        res["xi_VV"] = block_max(v, v, range(dm))
        res["xi_HH_in_V"] = block_max(h, h, h)
        res["xi_VH_in_H"] = block_max(v, h, v)
        if 2 * lam["V"] * len(v) != lam["H"] * len(h):
            raise IdentityViolation("vertical/horizontal trace balance fails")
    else:
        v1, v2, v3 = space.layers["V1"], space.layers["V2"], space.layers["V3"]
        res["xi_VkVk"] = max(block_max(a, a, range(dm)) for a in (v1, v2, v3))
        res["xi_V1V2_in_V3"] = block_max(v1, v2, v1 + v2)
        if not (lam["V1"] * len(v1) == lam["V2"] * len(v2) == lam["V3"] * len(v3)):
            raise IdentityViolation("three-layer trace balance fails")
    res["balance"] = 0.0

    # double-torsion containments and the frame-trace identity on horizontals
    res["xi_V_xi_HH"] = _max_abs(gram(x, _pairs(vert, range(dm), dm), _pairs(horiz, horiz, dm))[2])
    res["xi_H_xi_VV"] = curvature(space).min_connection[1]
    sub, nh = tensor_r(space)[np.ix_(horiz, horiz)], len(horiz)
    for name, frame in (("vertical", vert), ("horizontal", horiz)):
        nf = len(frame)                             # P's rows: X's rows (a, i), nf at a time
        ptr, col, val = gathered(arrays(x), _pairs(horiz, frame, dm))
        p = canonical((ptr[::nf].copy(), entry_rows(ptr) % nf * dm + col, val), nf * dm)
        traced = 8.0 * matrix(product(p, transpose(p, nf * dm), nh), (nh, nh)).toarray()
        res[f"trace_identity_{name}_frame"] = float(np.abs(traced - sub).max())
    return res


def verify_ricci_oracle(space, tol=1e-9) -> float:
    """The float torsion trace r and trace-of-curvature Ricci against the
    exact layer eigenvalues of the space's report (``build_report``).

    Each should be diagonal with the exact value on every layer; returns the
    worst absolute residual of the two.  A Kahler space has no layer
    eigenvalues, so the oracle refuses it (``IdentityViolation``).  ``tol``
    is unused; it stays until ``bench/workloads.py`` stops passing it.
    """
    report = build_report(space)
    if report.kahler:
        raise IdentityViolation(f"{space.name} is Kahler: the Ricci oracle has no layer eigenvalues")
    cv, worst = curvature(space), 0.0
    for got, which in ((cv.r, "r"), (cv.ric, "ric")):
        expect = np.zeros(space.dim_m)
        for label, value in report.eig_by_layer(which).items():
            # "m" off the root layers (triality, cyclic) is all of m
            expect[space.layers.get(label, slice(None))] = float(value * KAPPA)
        worst = max(worst, float(np.abs(got - np.diag(expect)).max()))
    return worst


# -- one space, every check -------------------------------------------------------


def verify_space(space: OrderThreeSymmetricSpace) -> tuple[NKReport, dict[str, float]]:
    """The report of a space with every check that applies to it.

    Builds the report (which confirms the type), then reads the total
    skewness of the algebra's structure constants C (O(nnz C)), runs the
    structure, curvature and Ricci-oracle suites and the table relations, the
    minimal-connection and special-torsion suites on types III and IV, and
    the Einstein certificate.  Returns the report and the residuals by check
    name; a Kahler space has only the skewness.  The residuals are judged by
    the caller; an exact or structural check that fails raises.
    """
    report = build_report(space)
    res = {"bracket_total_skew": antisymmetry_max_residual(space.algebra.C)}
    if report.kahler:
        return report, res
    res.update(verify_structure_identities(space))
    res.update(verify_curvature_identities(space))
    res["ricci_oracle"] = verify_ricci_oracle(space)
    verify_prop_table_relations(report)
    res["eigenvalue_table_relations"] = 0.0
    if report.nk_type in ("III", "IV"):
        res["min_connection_identity"] = verify_min_connection_identity(space)
        res.update(verify_sat_identities(space))
    einstein_check(report)
    return report, res
