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

The floating-point side is a few sparse operators per space, each built once
(``curvature``): J, a signed permutation of the m-basis (``canonical_J``),
A'[s,(c,d)] = <[k_s, m_c], m_d>, and R as a (dm^2, dm^2) matrix
R[(a,b),(c,d)] = R(e_a,e_b,e_c,e_d), built canonical (indices sorted in every
row, no duplicates) slab by slab straight into its arrays.  G = X X^T, with
G[(a,b),(c,d)] = <xi_a e_b, xi_c e_d>, is never held whole: each reader forms
the rows or blocks it needs from X (``gram``).  R's build reads its slab's
rows of G for the J-defect, Ric and Ric* too; the three symmetries of R are
one pass over row slabs of R (``Curvature.identities``), whose point reads
of R rely on R being canonical.  The layer-restricted minimal-connection and
special-torsion suites form only the rows and columns of K, A', G and X
their layers name: blocks of rows (a, b) with a horizontal against the
vertical pairs (c, d), the G-blocks of the double-torsion containments and
X's rows (a, i) for the frame traces.  J's identities are index relabellings
of X and K.  Each identity is a maximum over all (a, b, c, d), or over the
layers it names, and memory follows the nonzeros of a slab, never dm^4.
"""

from __future__ import annotations

import weakref
from functools import cached_property

import numpy as np
import scipy.sparse as sp

from .automorph import OrderThreeSymmetricSpace, classify_type
from .compactform import _row_grouped, antisymmetry_max_residual, drop_noise, slab_cuts
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
    eye = sp.identity(space.dim_m, format="csr")
    sigma_m = space.m_cols.T @ space.sigma @ space.m_cols
    j = drop_noise(((2.0 * sigma_m + eye) / np.sqrt(3.0)).tocsr())
    if _max_abs(j @ j + eye) > TOL_FLOOR:
        raise FixedVectorInM("J^2 != -id; sigma|m is not fixed-point free of order 3")
    if (np.diff(j.indptr) != 1).any() or (np.abs(np.abs(j.data) - 1.0) > TOL_FLOOR).any():
        raise IdentityViolation("J is not a signed permutation of the m-basis")
    return j


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


def gram(x: sp.csr_matrix, rows, cols) -> sp.csr_matrix:
    """The block G[rows][:, cols] of G = X X^T, formed from those rows of X
    alone, its noise dropped.  Each entry sums over k in the order of X's row,
    as a whole X X^T would, so the block holds G's entries bit for bit."""
    return drop_noise(x[rows] @ x[cols].T)


def _rows_of(mat: sp.csr_matrix, first: int) -> np.ndarray:
    """The row of each stored entry of ``mat``, counted from ``first``, in the
    dtype of its indices."""
    rows = np.arange(first, first + mat.shape[0], dtype=mat.indices.dtype)
    return np.repeat(rows, np.diff(mat.indptr))


def _j_checks(slab, half, a0: int, dm: int, jj, ric, ric_star) -> float:
    """The J-defect R - R kron(J, J) - 4G on a slab of R (its rows (a, b), a
    from a0) and the slab's rows of G; adds the slab's terms of Ric and Ric*
    to ``ric`` and ``ric_star`` in place.  J[c, pi c] = s_c is a signed
    permutation (``canonical_J``), so is kron(J, J), ``jj`` = (pi c dm + pi d,
    s_c s_d) at (c, d), and R kron(J, J) is the slab with its columns so
    relabelled and signed.  Ric* is its trace over b = pi d, Ric the slab's
    over b = d; each (a, c) of a trace takes terms from one slab alone."""
    (perm, sign), col, val = jj, slab.indices, slab.data
    a, b = np.divmod(_rows_of(slab, a0 * dm), dm)
    jd, jcol = val * sign[col], perm[col]
    on, jon = b == col % dm, b == jcol % dm         # the entries each trace reads
    ric += np.bincount(a[on] * dm + col[on] // dm, val[on], dm * dm)
    ric_star += np.bincount(a[jon] * dm + jcol[jon] // dm, jd[jon], dm * dm)
    rjj = sp.csr_matrix((jd, jcol, slab.indptr), shape=slab.shape)
    del a, b, on, jon                               # freed before the sums: they set the peak
    rjj.sort_indices()                  # so scipy merges sorted rows, with no scratch of dm^2
    return _max_abs(slab - rjj - 4.0 * half)


class Curvature:
    """Sparse torsion and curvature operators of one space, each built on first use.

    From X[(a,b), k] = xi[a,b,k], K[(a,b), s] and A'[s, (c,d)] =
    <[k_s, m_c], m_d> (``space.tensors()``), whose product K A' is R^min, it
    builds the (dm^2, dm^2) CSR operator

        R = K A' + 2G - G[a,c,b,d] + G[a,d,b,c],    G[(a,b),(c,d)] = <xi_a e_b, xi_c e_d>

    G = X X^T is never held whole: R's build forms each slab's rows of G from
    X, and the layer suites form the blocks they read (``gram``).  The build
    also reads off, slab by slab, the checks that need those rows of G: the
    J-defect R - R kron(J, J) - 4G, Ric, the trace sum_i R[a,i,b,i], and
    Ric*.  The pass of ``identities`` adds the three symmetries of R.  r is
    the torsion trace -4 tr xi_a xi_b, read off X alone: 4 sum_i G[a,i,b,i]
    would be the trace of R - R kron(J, J) = 4G, so r = Ric - Ric* would only
    restate the J-defect.  ``j``, G's rows and ``riemann``, like the tensors,
    drop entries below ``compactform.ZERO_DROP``: cancellation in their sums
    of products leaves float noise on exact zeros.  R is canonical CSR (sorted
    indices, no duplicates): its slabs merge sorted rows of G, and the point
    reads of ``identities`` bisect sorted rows of R.
    """

    def __init__(self, space: OrderThreeSymmetricSpace):
        # weak: the space owns its Curvature, so without a reference cycle a
        # finished space and its R are freed at once, not at the next collection
        self.space = weakref.proxy(space)
        self.dm = space.dim_m

    @cached_property
    def j(self) -> sp.csr_matrix:
        """The signed permutation J (``canonical_J``)."""
        return canonical_J(self.space)

    @cached_property
    def row_weight(self) -> np.ndarray:
        """Per a, the multiply-adds of K[(a,.)] A' and three times those of
        X[(a,.)] X^T, an exact bound on the entries of G's rows (a, .):
        sum over k in supp X[(a,b),:] of nnz X[:,k].  ``slab_cuts`` cuts R's
        build and the minimal-connection suite into blocks of a by it."""
        dm, (x, kc, ap) = self.dm, self.space.tensors()

        def madds(left, right_rows):
            """per a, the sum of right's row counts over the entries of left's rows (a, .)"""
            done = np.concatenate([[0], np.cumsum(right_rows[left.indices])])
            return np.diff(done[left.indptr[::dm]])

        return madds(kc, np.diff(ap.indptr)) + 3 * madds(x, np.bincount(x.indices, minlength=dm))

    @cached_property
    def riemann(self) -> sp.csr_matrix:
        """R as canonical CSR, from ``_build``."""
        return self._build[0]

    @cached_property
    def _build(self) -> tuple[sp.csr_matrix, float, np.ndarray, np.ndarray]:
        """(R, J-defect, Ric*, Ric): R written slab by slab into its own
        arrays, each slab born sorted, and the checks that read G on the way.

        A slab holds the rows (a, b) of a block of a (``slab_cuts`` on
        ``row_weight``) and forms those rows of G from X, G[(a,x),(y,z)],
        sorted; it reads them three times: as 2G, as -G[a,c,b,d] at
        [(a,y),(x,z)] and as G[a,d,b,c] at [(a,y),(z,x)].  The rows are sorted,
        so one stable counting sort by (a, y) leaves the first in column order,
        and one by (a, y, z) the second; only K A' is sorted by comparison.
        The slab is (K A' + 2G) + (-G[acbd] + G[adbc]), summed by scipy's
        merges of sorted rows, and R's arrays grow by what it adds.  With the
        slab and its rows of G in hand, ``_j_checks`` reads off the J-defect,
        Ric and Ric*; no row of G outlives its slab.
        """
        dm, js, (xi, kc, ap) = self.dm, self.j, self.space.tensors()
        xt, jj = xi.T.tocsr(), ((js.indices[:, None] * dm + js.indices).ravel(),
                                (js.data[:, None] * js.data).ravel())
        indptr = np.zeros(dm * dm + 1, dtype=np.int64)
        indices, data = np.empty(0, dtype=np.int32), np.empty(0)
        ric, ric_star, defect = np.zeros(dm * dm), np.zeros(dm * dm), 0.0
        for a0, a1 in slab_cuts(self.row_weight):
            own = slice(a0 * dm, a1 * dm)
            shape = (own.stop - own.start, dm * dm)
            ka = kc[own] @ ap
            ka.sort_indices()
            half = drop_noise(xi[own] @ xt)             # G's rows, as ``gram`` forms them
            half.sort_indices()
            ka = ka + 2.0 * half
            v = half.tocoo()
            (a, x), (y, z) = np.divmod(v.row, dm), np.divmod(v.col, dm)
            row = a * dm + y                            # (a, y), a local to the block
            acbd = _row_grouped(row, x * dm + z, -v.data, shape)
            adbc = _row_grouped(row * dm + z, z * dm + x, v.data, (shape[0] * dm, shape[1]))
            del v, a, x, y, z, row                      # freed before each merge: they set the peak
            pair = acbd + sp.csr_matrix((adbc.data, adbc.indices, adbc.indptr[::dm]), shape=shape)
            del acbd, adbc
            slab = drop_noise(ka + pair)
            del ka, pair
            end = int(indptr[own.start])
            for buf, part in ((indices, slab.indices), (data, slab.data)):
                buf.resize(end + slab.nnz, refcheck=False)
                buf[end:] = part
            indptr[own.start + 1:own.stop + 1] = slab.indptr[1:] + end
            defect = max(defect, _j_checks(slab, half, a0, dm, jj, ric, ric_star))
            del slab, half
        return (sp.csr_matrix((data, indices, indptr), shape=(dm * dm, dm * dm)), defect,
                _read_only(ric_star.reshape(dm, dm)), _read_only(ric.reshape(dm, dm)))

    @cached_property
    def ric(self) -> np.ndarray:
        return self._build[3]

    @cached_property
    def ric_star(self) -> np.ndarray:
        return self._build[2]

    @cached_property
    def identities(self) -> dict[str, float]:
        """Bianchi, pair symmetry, antisymmetry and the J-defect
        R - R kron(J, J) - 4G, each a maximum over every (a, b, c, d)."""
        return {**self._pass(), "curvature_J_defect": self._build[1]}

    def _pass(self) -> dict[str, float]:
        """Bianchi, pair symmetry and antisymmetry in one pass over row slabs
        of R (blocks of a) that sorts nothing: R is built canonical
        (``riemann``); the J-defect, Ric and Ric* come with the build.

        Antisymmetry adds the rows (b, a) of R, gathered whole.  Bianchi and
        pair symmetry read R[b,c,a,d], R[c,a,b,d] and R[c,d,a,b] at the slab's
        stored entries, in one point read of R, after the slab's index
        temporaries are freed.  Each residual is invariant up to sign under its
        permutation (the 3-cycle of a, b, c, the pair swap), so its maximum
        over the union of the permuted supports is its maximum over supp(R).
        The blocks are ``slab_cuts`` on the 3 nnz samples of each a, at most
        20 of them: scipy bisects a row only if R's indices are sorted and the
        samples outnumber a tenth of its entries, and scans it otherwise.
        """
        dm, rr = self.dm, self.riemann
        worst = [np.zeros(3)]
        for a0, a1 in slab_cuts(3 * np.diff(rr.indptr[::dm]), most=20):
            slab = rr[a0 * dm:a1 * dm]
            row = _rows_of(slab, a0 * dm)
            (a, b), (c, d) = np.divmod(row, dm), np.divmod(slab.indices, dm)
            at = (np.concatenate([b * dm + c, c * dm + a, slab.indices]),
                  np.concatenate([a * dm + d, b * dm + d, row]))
            del row, a, b, c, d
            bcad, cabd, cdab = np.split(np.asarray(rr[at]).ravel(), 3)
            del at
            swap = (np.arange(dm) * dm + np.arange(a0, a1)[:, None]).ravel()   # rows (b, a)
            worst.append([_max_abs(slab.data + bcad + cabd), _max_abs(slab.data - cdab),
                          _max_abs(slab + rr[swap])])
        keys = ("bianchi", "pair_symmetry", "antisymmetry")
        return dict(zip(keys, np.max(worst, axis=0).tolist()))

    @cached_property
    def r(self) -> np.ndarray:
        dm = self.dm
        x = self.space.tensors()[0].tocoo()
        a, i, j = x.row // dm, x.row % dm, x.col
        shape = (dm, dm * dm)
        p = sp.csr_matrix((x.data, (a, i * dm + j)), shape=shape)   # [a, (i,j)] = xi[a,i,j]
        q = sp.csr_matrix((x.data, (a, j * dm + i)), shape=shape)   # [b, (i,j)] = xi[b,j,i]
        return _read_only(-4.0 * (p @ q.T).toarray())


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
    x, kc, _ = space.tensors()
    dm = space.dim_m
    nz, kz = x.tocoo(), kc.tocoo()
    a, b, k = np.divmod(nz.row.astype(np.int64), dm) + (nz.col,)
    c, d, s = np.divmod(kz.row.astype(np.int64), dm) + (kz.col,)
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
    res["xi_XX"] = _max_abs(nz.data[a == b])
    # rows (i, p) of xi_i J + J xi_i
    res["xi_J_anticommute"] = worst((key(a, b, perm[k]), nz.data * sign[k]),
                                    (key(a, inv[b], k), sign[inv[b]] * nz.data))
    # xi[a,b,k] + xi[b,a,k] and xi[a,b,k] + xi[a,k,b] over every index triple
    xi = (key(a, b, k), nz.data)
    res["xi_totally_skew"] = max(worst(xi, (key(b, a, k), nz.data)), worst(xi, (key(a, k, b), nz.data)))
    res["bracket_JJ_k"] = worst((key(perm[c], perm[d], s, kc.shape[1]), (sign[c] * sign[d]) * kz.data),
                                (key(c, d, s, kc.shape[1]), -kz.data))
    mm = -2.0 * nz.data  # m-part of the bracket: kron(J^T, I) mm + mm J^T
    res["bracket_J_m"] = worst((key(perm[a], b, k), sign[a] * mm), (key(a, b, inv[k]), mm * sign[inv[k]]))
    return res


def verify_curvature_identities(space, tol=1e-9, seed=0) -> dict[str, float]:
    """First Bianchi, pair symmetry, antisymmetry, the J-curvature defect
    R(X,Y,Z,T) - R(X,Y,JZ,JT) = 4<xi_X Y, xi_Z T>, and Ricci facts.

    Every residual is a maximum over all (a, b, c, d), read off the memoised
    slab pass ``Curvature.identities``.  ``tol`` and ``seed`` are unused; they
    stay until ``bench/workloads.py`` stops passing them.
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
    checked on every basis tuple (x, u, v1, v2).  With (a, b, c, d) =
    (x, u, v1, v2) and xi_v e_j = -xi_j e_v, the residual is
    K A' + 4G + 4G[c,b,d,a] - 4G[d,b,c,a], read on horizontal a and vertical
    c and d; G is symmetric, so the last two are read as G[d,a,c,b] and
    G[c,a,d,b], off rows of G rather than of a transposed copy.

    Per block of horizontal a (``slab_cuts`` on ``Curvature.row_weight``),
    the rows (a, b) of K A' + 4G are K's rows and G's block against the
    columns (c, d) of V x V, and the block B[(p,a),(q,b)] = G[p,a,q,b], p and
    q vertical, gives both other terms: 4B at [(a,b),(q,p)] and -4B at
    [(a,b),(p,q)].  Both blocks of G are formed from X's rows (``gram``).  Only
    defined on special-algebraic-torsion splittings.  Returns the worst
    residual.  ``tol`` and ``seed`` are unused; they stay until
    ``bench/workloads.py`` stops passing them.
    """
    vert, horiz = _vertical_split(space)
    cv, dm, nv = curvature(space), space.dim_m, len(vert)
    x, kc, ap = space.tensors()
    vv, vm = _pairs(vert, vert, dm), _pairs(vert, np.arange(dm), dm)
    ap, worst = ap[:, vv], 0.0
    for h0, h1 in slab_cuts(cv.row_weight[horiz]):
        a = horiz[h0:h1]
        rows = _pairs(a, np.arange(dm), dm)
        slab = kc[rows] @ ap + 4.0 * gram(x, rows, vv)
        blk = gram(x, _pairs(vert, a, dm), vm)
        (p, i), (q, b) = np.divmod(_rows_of(blk, 0), len(a)), np.divmod(blk.indices, dm)
        row = np.tile(i * dm + b, 2)
        col = np.concatenate([q * nv + p, p * nv + q])
        pair = sp.coo_matrix((np.concatenate([4.0 * blk.data, -4.0 * blk.data]), (row, col)),
                             shape=slab.shape).tocsr()
        worst = max(worst, _max_abs(slab + pair))
    return worst


def verify_sat_identities(space, tol=1e-9, seed=0) -> dict[str, float]:
    """Layer facts of special algebraic torsion plus the trace identities.

    The double-torsion containments xi_V xi_H H = 0 and xi_H xi_V V = 0 are
    the blocks G[(u,p),(x1,x2)] with u in one of V, H and x1, x2 in the other,
    and only those blocks are formed, from X's rows (``gram``); the frame
    traces 8 sum_{i in V} G[a,i,b,i] and 8 sum_{i in H} G[a,i,b,i] must both
    equal the torsion trace r on the horizontals.  Each is read off X as
    8 P P^T, P[a, (i, k)] = X[(a, i), k] with a horizontal and i in the frame,
    so only X's rows (a, i) are gathered.  Every index is checked.  The
    exact trace balance of the layers raises ``IdentityViolation``.  ``tol``
    and ``seed`` are unused; they stay until ``bench/workloads.py`` stops
    passing them.
    """
    vert, horiz = _vertical_split(space)
    x, dm = space.tensors()[0], space.dim_m
    lam = build_report(space).eig_by_layer("r")
    res: dict[str, float] = {}

    def block_max(mat, first, second, out):
        """max |mat[(p, q), k]| over p in first, q in second, k in out."""
        return _max_abs(mat[_pairs(first, second, dm)][:, np.asarray(out)])

    if space.type_label == "A3III":
        v, h = space.layers["V"], space.layers["H"]
        res["xi_VV"] = block_max(x, v, v, range(dm))
        res["xi_HH_in_V"] = block_max(x, h, h, h)
        res["xi_VH_in_H"] = block_max(x, v, h, v)
        if 2 * lam["V"] * len(v) != lam["H"] * len(h):
            raise IdentityViolation("vertical/horizontal trace balance fails")
    else:
        v1, v2, v3 = space.layers["V1"], space.layers["V2"], space.layers["V3"]
        res["xi_VkVk"] = max(block_max(x, a, a, range(dm)) for a in (v1, v2, v3))
        res["xi_V1V2_in_V3"] = block_max(x, v1, v2, v1 + v2)
        if not (lam["V1"] * len(v1) == lam["V2"] * len(v2) == lam["V3"] * len(v3)):
            raise IdentityViolation("three-layer trace balance fails")
    res["balance"] = 0.0

    # double-torsion containments and the frame-trace identity on horizontals
    everything = range(dm)
    res["xi_V_xi_HH"] = _max_abs(gram(x, _pairs(vert, everything, dm), _pairs(horiz, horiz, dm)))
    res["xi_H_xi_VV"] = _max_abs(gram(x, _pairs(horiz, everything, dm), _pairs(vert, vert, dm)))
    sub = tensor_r(space)[np.ix_(horiz, horiz)]
    for name, frame in (("vertical", vert), ("horizontal", horiz)):
        # P[a, (i, k)] = X[(a, i), k] for a horizontal and i in the frame
        p = x[_pairs(horiz, frame, dm)].reshape((len(horiz), len(frame) * dm)).tocsr()
        traced = 8.0 * (p @ p.T).toarray()
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
