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

Eigenvalues of r, Ric and C are exact rationals in units of kappa = |mu|^2.
On an inner class they are sums of exact squared structure constants over its
root split, read from the class and the algebra's ``ChevalleyData`` alone
(``inner_report``), so no space is realized; on a realized space they are
cross-checked against the floating-point trace computations.

The floating-point side is a few sparse operators per space, each built once
(``curvature``): J, a signed permutation of the m-basis (``canonical_J``),
G = X X^T with G[(a,b),(c,d)] = <xi_a e_b, xi_c e_d>,
A'[s,(c,d)] = <[k_s, m_c], m_d>, and R as a (dm^2, dm^2) matrix
R[(a,b),(c,d)] = R(e_a,e_b,e_c,e_d).  G and R are built canonical (indices
sorted in every row, no duplicates), R slab by slab straight into its arrays.
The four curvature identities and Ric* are one pass over row slabs of R
(``Curvature.identities``), which sums Ric too and whose point reads of R rely
on R being canonical.  The layer-restricted minimal-connection and
special-torsion suites gather only the rows and columns of K, A', G and X
their layers name: blocks of rows (a, b) with a horizontal against the
vertical pairs (c, d), the G-blocks of the double-torsion containments and
X's rows (a, i) for the frame traces.  J's identities are index relabellings
of X and K.  Each identity is a maximum over all (a, b, c, d), or over the
layers it names, and memory follows the nonzeros of a slab, never dm^4.
"""

from __future__ import annotations

import weakref
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property

import numpy as np
import scipy.sparse as sp

from .automorph import NK_TYPE, InnerClass, OrderThreeSymmetricSpace, _read_only, classify_type
from .chevalley import ChevalleyData
from .compactform import _row_grouped, antisymmetry_max_residual, drop_noise, slab_cuts
from .rootsys import RootSystem

KAPPA = Fraction(2)


class FixedVectorInM(ValueError):
    """sigma restricted to m has a fixed vector; the split k + m is wrong."""


class NonRationalEigenvalue(ArithmeticError):
    """A float eigenvalue failed to reconstruct as an exact rational."""


class RIdentityMismatch(AssertionError):
    """Ric - Ric* disagrees with the torsion tensor r."""


class IdentityViolation(AssertionError):
    """A curvature or torsion identity exceeded tolerance."""


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
    if _max_abs(j @ j + eye) > 1e-12:
        raise FixedVectorInM("J^2 != -id; sigma|m is not fixed-point free of order 3")
    if (np.diff(j.indptr) != 1).any() or (np.abs(np.abs(j.data) - 1.0) > 1e-12).any():
        raise IdentityViolation("J is not a signed permutation of the m-basis")
    return j


def tensor_r(space: OrderThreeSymmetricSpace) -> np.ndarray:
    """r(X, Y) = -4 trace xi_X xi_Y as a symmetric matrix (memoised, read-only)."""
    return curvature(space).r


def ricci_tensors(space: OrderThreeSymmetricSpace):
    """(Ric, Ric*, C) as traces of the sparse curvature operator; Ric and Ric*
    are memoised on the space (read-only)."""
    cv = curvature(space)
    return cv.ric, cv.identities[1], cv.ric - 5.0 * cv.identities[1]


# -- the sparse curvature operator ------------------------------------------------


def _max_abs(mat) -> float:
    return float(np.abs(mat.data if sp.issparse(mat) else mat).max(initial=0.0))


class Curvature:
    """Sparse torsion and curvature operators of one space, each built on first use.

    From X[(a,b), k] = xi[a,b,k], K[(a,b), s] and A'[s, (c,d)] =
    <[k_s, m_c], m_d> (``space.tensors()``), whose product K A' is R^min, it
    builds the (dm^2, dm^2) CSR operators

        G[(a,b),(c,d)] = <xi_a e_b, xi_c e_d>                  (X X^T)
        R              = K A' + 2G - G[a,c,b,d] + G[a,d,b,c]

    Ric, the trace sum_i R[a,i,b,i], and Ric* are summed in the pass of
    ``identities``.  r is the torsion trace -4 tr xi_a xi_b, read off X
    alone: 4 sum_i G[a,i,b,i] would be the trace of R - R kron(J, J) = 4G,
    so r = Ric - Ric* would only restate the J-defect.  ``j``, ``g`` and
    ``riemann``, like the tensors, drop entries below
    ``compactform.ZERO_DROP``: cancellation in their sums of products leaves
    float noise on exact zeros.  G and R are canonical CSR (sorted indices, no
    duplicates): the slabs of R merge sorted rows of G, and the point reads
    of ``identities`` bisect sorted rows of R.
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
    def g(self) -> sp.csr_matrix:
        x = self.space.tensors()[0]
        g = drop_noise((x @ x.T).tocsr())
        g.sort_indices()
        return g

    @cached_property
    def row_weight(self) -> np.ndarray:
        """Per a, the multiply-adds of K[(a,.)] A' and the entries of the three
        G terms on the rows (a, .) of R: ``slab_cuts`` cuts R's build and the
        minimal-connection suite into blocks of a by it."""
        dm, (_, kc, ap) = self.dm, self.space.tensors()
        madds = np.concatenate([[0], np.cumsum(np.diff(ap.indptr)[kc.indices])])
        return np.diff(madds[kc.indptr[::dm]]) + 3 * np.diff(self.g.indptr[::dm])

    @cached_property
    def riemann(self) -> sp.csr_matrix:
        """R written slab by slab into its own arrays, each slab born sorted.

        A slab holds the rows (a, b) of a block of a (``slab_cuts`` on
        ``row_weight``) and reads one row slice of G, G[(a,x),(y,z)], three
        times: as 2G, as -G[a,c,b,d] at [(a,y),(x,z)] and as G[a,d,b,c] at
        [(a,y),(z,x)].  The slice is sorted, so one stable counting sort by
        (a, y) leaves the first in column order, and one by (a, y, z) the
        second; only K A' is sorted by comparison.  The slab is (K A' + 2G) +
        (-G[acbd] + G[adbc]), summed by scipy's merges of sorted rows, and R's
        arrays grow by what it adds.
        """
        dm, g, (_, kc, ap) = self.dm, self.g, self.space.tensors()
        indptr = np.zeros(dm * dm + 1, dtype=np.int64)
        indices, data = np.empty(0, dtype=np.int32), np.empty(0)
        for a0, a1 in slab_cuts(self.row_weight):
            own = slice(a0 * dm, a1 * dm)
            shape = (own.stop - own.start, dm * dm)
            ka = kc[own] @ ap
            ka.sort_indices()
            half = g[own]
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
        return sp.csr_matrix((data, indices, indptr), shape=(dm * dm, dm * dm))

    @cached_property
    def ric(self) -> np.ndarray:
        return self._pass[2]

    @cached_property
    def identities(self) -> tuple[dict[str, float], np.ndarray]:
        """(residuals, Ric*): Bianchi, pair symmetry, antisymmetry and the
        J-defect R - R kron(J, J) - 4G, each a maximum over every (a, b, c, d)."""
        return self._pass[:2]

    @cached_property
    def _pass(self) -> tuple[dict[str, float], np.ndarray, np.ndarray]:
        """The four identities, Ric* and Ric in one pass over row slabs of R
        (blocks of a) that sorts nothing: R is built canonical (``riemann``).

        J is a signed permutation, J[c, pi c] = s_c (``canonical_J``), so
        R kron(J, J) is the slab with its columns (c, d) relabelled
        (pi c, pi d) and scaled by s_c s_d; Ric* is its trace over b = pi d,
        and Ric the slab's trace over b = d.  Antisymmetry adds the rows
        (b, a) of R, gathered whole.  Bianchi and pair symmetry read
        R[b,c,a,d], R[c,a,b,d] and R[c,d,a,b] at the slab's stored entries, in
        one point read of R.  Each residual is invariant up to sign under its
        permutation (the 3-cycle of a, b, c, the pair swap), so its maximum
        over the union of the permuted supports is its maximum over supp(R).
        The blocks are ``slab_cuts`` on the 3 nnz samples of each a, at most
        20 of them: scipy bisects a row only if R's indices are sorted and the
        samples outnumber a tenth of its entries, and scans it otherwise.
        """
        dm, rr, js = self.dm, self.riemann, self.j
        perm, sign = js.indices, js.data
        ric, ric_star, worst = np.zeros(dm * dm), np.zeros(dm * dm), [np.zeros(4)]
        for a0, a1 in slab_cuts(3 * np.diff(rr.indptr[::dm]), most=20):
            own = slice(a0 * dm, a1 * dm)
            slab = rr[own]
            v = slab.tocoo()
            row = a0 * dm + v.row
            (a, b), (c, d) = np.divmod(row, dm), np.divmod(v.col, dm)
            jd, pc, pd = v.data * (sign[c] * sign[d]), perm[c], perm[d]
            rjj = sp.csr_matrix((jd, pc * dm + pd, slab.indptr), shape=slab.shape)
            on, jon = b == d, b == pd                  # the entries each trace reads
            ric += np.bincount(a[on] * dm + c[on], v.data[on], dm * dm)
            ric_star += np.bincount(a[jon] * dm + pc[jon], jd[jon], dm * dm)
            swap = (np.arange(dm) * dm + np.arange(a0, a1)[:, None]).ravel()   # rows (b, a)
            bcad, cabd, cdab = np.split(np.asarray(rr[
                np.concatenate([b * dm + c, c * dm + a, v.col]),
                np.concatenate([a * dm + d, b * dm + d, row])]).ravel(), 3)
            worst.append([_max_abs(v.data + bcad + cabd), _max_abs(v.data - cdab),
                          _max_abs(slab + rr[swap]), _max_abs(slab - rjj - 4.0 * self.g[own])])
        keys = ("bianchi", "pair_symmetry", "antisymmetry", "curvature_J_defect")
        return (dict(zip(keys, np.max(worst, axis=0).tolist())),
                _read_only(ric_star.reshape(dm, dm)), _read_only(ric.reshape(dm, dm)))

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


# -- exact layer eigenvalues -----------------------------------------------------


@dataclass(frozen=True)
class EigenData:
    layer: str
    value: Fraction          # eigenvalue in units of kappa
    dim: int


def layer_traces(cd: ChevalleyData, spec: InnerClass) -> dict[str, tuple[np.ndarray, np.ndarray]]:
    """Exact torsion traces of every m-root against every layer.

    ``out[L]`` is (the indices in ``rs.roots`` of the roots of layer L, as in
    ``spec.split``, and an int array of one row per root);
    entry [i, j] is 12 sum N^2 over the roots beta of the j-th layer of
    ``spec.split`` for which alpha + beta is a root with a(alpha) + a(beta)
    != 0 mod 1, or alpha - beta is a root with a(alpha) != a(beta) (N^2
    taken at (-alpha, beta) there), alpha the i-th root.  That is the trace
    4 sum_v |xi_X v|^2 over the frame of the layer, X a unit vector of the
    plane of alpha, in units of kappa / 12: sums of ``cd.n12`` over the
    positive (rows alpha) and negative (rows -alpha) halves of the table.
    """
    levels, d = spec.levels(cd.rs)
    layer_roots = spec.split(cd.rs)[0]
    sizes = [len(layer) for layer in layer_roots.values()]
    m = np.concatenate(list(layer_roots.values()))
    lev = levels[m][:, None]
    sums = np.where((lev + lev.T) % d != 0, cd.n12[np.ix_(m, m)], 0)
    diffs = np.where(lev != lev.T, cd.n12[np.ix_(m + cd.n, m)], 0)
    # column j of the traces sums the columns of the roots of layer j
    onehot = np.repeat(np.eye(len(sizes), dtype=np.int64), sizes, axis=0)
    traces, ends = (sums + diffs) @ onehot, np.cumsum(sizes).tolist()
    return {label: (layer, traces[end - len(layer):end])
            for (label, layer), end in zip(layer_roots.items(), ends)}


def _layer_row(label: str, layer: np.ndarray, rows: np.ndarray, whats: list[str], roots) -> list[int]:
    """A layer's one row, or NonRationalEigenvalue at a root off it in its first varying column."""
    off = rows != rows[0]
    if off.any():
        j = int(off.any(axis=0).argmax())
        column = rows[:, j].tolist()
        common = Counter(column).most_common(1)[0][0]
        root, v = next((roots[r], v) for r, v in zip(layer, column) if v != common)
        raise NonRationalEigenvalue(
            f"layer {label} is not an r-eigenbundle: {whats[j]} is {Fraction(v, 12)}"
            f" kappa at root {root}, {Fraction(common, 12)} kappa on the rest")
    return rows[0].tolist()


def _r_of(traces, roots: list) -> dict[str, int]:
    """r-eigenvalue per layer, in units of kappa / 12: the row sums of the traces."""
    return {label: _layer_row(label, layer, rows.sum(axis=1, keepdims=True), ["the r-trace"],
                              roots)[0] for label, (layer, rows) in traces.items()}


def _cross_of(traces, roots: list) -> dict[tuple[str, str], int]:
    """(L, S): the column of S on the roots of L, constant there, in sixths (absolute units)."""
    whats = [f"the trace against {other}" for other in traces]
    return {(label, other): value for label, (layer, rows) in traces.items()
            for other, value in zip(traces, _layer_row(label, layer, rows, whats, roots))}


def exact_r_eigenvalues(cd: ChevalleyData, spec: InnerClass) -> dict[str, Fraction]:
    """r-eigenvalue per root layer of an inner class, in units of kappa: the
    row sums of ``layer_traces``, which must agree on every root of a layer
    (else the layer is no eigenbundle: NonRationalEigenvalue).
    """
    return {label: Fraction(r, 12) for label, r in _r_of(layer_traces(cd, spec), cd.roots).items()}


def exact_r_cross_layer(cd: ChevalleyData, spec: InnerClass) -> dict[tuple[str, str], Fraction]:
    """Torsion trace of one layer against another, exact: entry (L, S) is
    4 sum_{v in S-frame} |xi_X v|^2 for X a unit vector of layer L, the column
    of S in ``layer_traces`` on the roots of L, which must be constant there.
    """
    return {pair: Fraction(c, 6) for pair, c in _cross_of(layer_traces(cd, spec), cd.roots).items()}


def exact_ricci_eigenvalues(cd: ChevalleyData, spec: InnerClass) -> dict[str, Fraction]:
    """Ricci eigenvalue per layer of an inner class (kappa units) by the
    layer-trace formula Ric|L = lambda_L/4 + (1/lambda_L) sum_S lambda_S r^S|L
    over the parallel layers; a closed form independent of the curvature trace.
    """
    return _inner_eigenvalues(cd, spec)[1]


def _inner_eigenvalues(cd: ChevalleyData, spec: InnerClass) -> tuple[dict[str, Fraction], dict[str, Fraction]]:
    """(r, Ric) per layer of an inner class from one ``layer_traces`` table; with
    r = R/12 and cross traces C/6, Ric|L = (R_L^2 + 4 sum_S R_S C_LS) / (48 R_L)."""
    traces = layer_traces(cd, spec)
    r, cross = _r_of(traces, cd.roots), _cross_of(traces, cd.roots)
    return ({label: Fraction(v, 12) for label, v in r.items()},
            {label: Fraction(r[label] ** 2 + 4 * sum(r[s] * cross[(label, s)] for s in r),
                             48 * r[label]) for label in r})


def _exact_eigenvalues(space: OrderThreeSymmetricSpace) -> tuple[dict[str, Fraction], dict[str, Fraction]]:
    """(r, Ric) eigenvalues per layer of a space, in units of kappa.

    An inner space reads them from its class.  The triality and cyclic spaces
    have no root layers: there r is the scalar 2h*/3 on all of m (layer "m"),
    h* the dual Coxeter number of the algebra (of one component, for the
    cyclic triple), and Ric = (5/4) r.
    """
    if space.h_spec is not None:
        return _inner_eigenvalues(space.algebra.cd, space.h_spec)
    base = space.algebra.base if space.type_label == "C3" else space.algebra
    r = Fraction(2 * base.dual_coxeter, 3)
    return {"m": r}, {"m": Fraction(5, 4) * r}


# -- report ---------------------------------------------------------------------


@dataclass
class NKReport:
    name: str
    algebra: str
    automorphism: str
    nk_type: str
    dim_m: int
    splitting: dict[str, int]
    r_eigs: list[EigenData]
    ric_eigs: list[EigenData]
    c_eigs: list[EigenData]
    einstein: bool
    einstein_constant: Fraction | None
    mu2: Fraction | None
    lk_ratio: Fraction | None
    lk_label: str | None
    kahler: bool = False
    notes: list[str] = field(default_factory=list)

    def eig_by_layer(self, which: str) -> dict[str, Fraction]:
        data = {"r": self.r_eigs, "ric": self.ric_eigs, "c": self.c_eigs}[which]
        return {e.layer: e.value for e in data}


_LAYER_ORDER = {"V": 0, "H": 1, "V1": 0, "V2": 1, "V3": 2, "m": 0, "E": 0, "JE": 1}


def _sorted_layers(layers: dict[str, list[int]]) -> list[str]:
    return sorted(layers, key=lambda s: (_LAYER_ORDER.get(s, 9), s))


def _report(name: str, algebra: str, automorphism: str, nk_type: str,
            splitting: dict[str, int], lam: dict[str, Fraction], ric: dict[str, Fraction],
            mu2: Fraction | None = None, lk: tuple = (None, None)) -> NKReport:
    """The report of exact layer eigenvalues; C = 5r - 4 Ric per layer."""
    dim_m = sum(splitting.values())
    labels = _sorted_layers(lam)
    dims = {lbl: splitting.get(lbl, dim_m) for lbl in labels}    # "m" off the root layers
    r_eigs = [EigenData(lbl, lam[lbl], dims[lbl]) for lbl in labels]
    ric_eigs = [EigenData(lbl, ric[lbl], dims[lbl]) for lbl in labels]
    c_eigs = [EigenData(lbl, 5 * lam[lbl] - 4 * ric[lbl], dims[lbl]) for lbl in labels]
    einstein = len({e.value for e in r_eigs}) == 1
    constant = ric_eigs[0].value if einstein else None
    return NKReport(name, algebra, automorphism, nk_type, dim_m, splitting, r_eigs,
                    ric_eigs, c_eigs, einstein, constant, mu2, *lk)


def inner_report(cd: ChevalleyData, spec: InnerClass, name: str) -> NKReport:
    """The report of an inner class, from its root split and the algebra's
    ``ChevalleyData`` alone: realizes no space, and takes the type the class
    names (``automorph.NK_TYPE``) without confirming it."""
    rs = cd.rs
    layer_roots = spec.split(rs)[0]
    splitting = {lbl: 2 * len(layer_roots[lbl]) for lbl in _sorted_layers(layer_roots)}
    nk_type = NK_TYPE[spec.kind]
    if spec.kind == "A3I":
        return NKReport(name, rs.type_label, spec.describe(), nk_type, splitting["m"],
                        splitting, [], [], [], True, None, None, None, None, kahler=True)
    lam, ric = _inner_eigenvalues(cd, spec)
    mu2 = (sum(lam.values()) if spec.kind == "A3II"
           else lam["V"] + 2 * lam["H"] if spec.kind == "A3III" else None)
    return _report(name, rs.type_label, spec.describe(), nk_type, splitting, lam,
                   ric, mu2, lk_ratio(rs, spec, lam))


def build_report(space: OrderThreeSymmetricSpace) -> NKReport:
    """Type and exact eigenvalues of a space; builds no curvature operator.

    The type is confirmed on the space (``classify_type``); the rest of an
    inner space's report comes from its class (``inner_report``).
    """
    nk_type = classify_type(space)
    if space.h_spec is not None:
        return inner_report(space.algebra.cd, space.h_spec, space.name)
    algebra = (f"({space.algebra.base.rs.type_label})^3" if space.type_label == "C3"
               else space.algebra.rs.type_label)
    splitting = {lbl: len(space.layers[lbl]) for lbl in _sorted_layers(space.layers)}
    return _report(space.name, algebra, space.type_label, nk_type, splitting,
                   *_exact_eigenvalues(space))


# -- Einstein / twistor ratio ----------------------------------------------------


def einstein_check(report: NKReport) -> tuple[bool, str]:
    """Einstein flag with the dimension-balance certificate behind it."""
    if report.kahler:
        return True, "Kahler symmetric layer; r = 0"
    lam = report.eig_by_layer("r")
    dims = report.splitting
    if report.nk_type == "III":
        cert = (f"dim V1 = {dims['V1']}, dim V2 = {dims['V2']}, dim V3 = {dims['V3']}"
                f" -> Einstein iff all equal")
        flag = dims["V1"] == dims["V2"] == dims["V3"]
    elif report.nk_type == "IV":
        cert = f"2 dim V = {2 * dims['V']}, dim H = {dims['H']} -> Einstein iff equal"
        flag = 2 * dims["V"] == dims["H"]
    else:
        cert = "single r-eigenvalue"
        flag = True
    if flag != (len(set(lam.values())) == 1):
        raise RIdentityMismatch("dimension balance contradicts the eigenvalue test")
    return flag, cert


def lk_ratio(rs: RootSystem, spec: InnerClass, lam: dict[str, Fraction]):
    """Vertical/horizontal eigenvalue ratio l/k for twistor-type splittings.

    Defined for the two-eigenvalue situation: every A3III class, and A3II
    classes whose two horizontal layers share one eigenvalue (the vertical
    layer is the odd one out, or V1 when all three agree).
    """
    if spec.kind == "A3III":
        vertical, horizontal = "V", "H"
    elif spec.kind == "A3II" and len(set(lam.values())) <= 2:
        counts = Counter(lam.values())
        vertical = min(("V1", "V2", "V3"), key=lambda p: counts[lam[p]])
        horizontal = next(p for p in lam if p != vertical)
    else:
        return None, None
    ratio = lam[vertical] / lam[horizontal]
    return ratio, _lk_label(rs, spec, ratio, 2 * len(spec.split(rs)[0][vertical]))


def _lk_label(rs: RootSystem, spec: InnerClass, ratio: Fraction, dim_v: int) -> str:
    """Name per the two-dimensional-fiber classification; generic otherwise."""
    fam = rs.family
    if dim_v != 2:
        return f"l/k = {ratio}"
    if ratio == 1:
        return "Einstein twistor space"
    if fam == "c" and spec.nodes == (1,):
        return f"odd projective space with the symplectic metric, l/k = {ratio}"
    if fam in ("b", "d") and spec.nodes[0] == 2:
        return f"real-Grassmannian twistor space, l/k = {ratio}"
    if fam == "g":
        return f"g2 twistor space, l/k = {ratio}"
    if fam in ("f", "e"):
        return f"exceptional twistor space, l/k = {ratio}"
    if fam == "a":
        return f"flag twistor space over a complex Grassmannian, l/k = {ratio}"
    return f"l/k = {ratio}"


def lk_classification(report: NKReport) -> tuple[Fraction, str] | None:
    if report.lk_ratio is None:
        return None
    return report.lk_ratio, report.lk_label


# -- identity suites ---------------------------------------------------------------


def verify_structure_identities(space, tol=1e-9) -> dict[str, float]:
    """Torsion/J identities that need no curvature tensors, over every index.
    J[c, pi c] = s_c is a signed permutation (``canonical_J``), so each product
    with J, or kron(J, J), moves X's or K's entries to new indices with signs."""
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
    slab pass ``Curvature.identities``.  ``seed`` is unused; it stays until
    ``bench/workloads.py`` stops passing it.
    """
    cv = curvature(space)
    res = dict(cv.identities[0])
    j, ric, ric_star, r = cv.j, cv.ric, cv.identities[1], cv.r
    res["ric_symmetric"] = float(np.abs(ric - ric.T).max())
    res["ric_star_symmetric"] = float(np.abs(ric_star - ric_star.T).max())
    res["ric_J_commute"] = float(np.abs(ric @ j - j @ ric).max())
    res["r_identity"] = float(np.abs((ric - ric_star) - r).max())
    if res["r_identity"] > tol * max(1.0, float(np.abs(r).max())):
        raise RIdentityMismatch(f"|Ric - Ric* - r| = {res['r_identity']:.2e}")
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
    the rows (a, b) of K A' + 4G are K's and G's rows against the columns
    (c, d) of V x V, and the block B[(p,a),(q,b)] = G[p,a,q,b], p and q
    vertical, gathered rows first, gives both other terms: 4B at
    [(a,b),(q,p)] and -4B at [(a,b),(p,q)].  Only
    defined on special-algebraic-torsion splittings.  ``seed`` is unused; it
    stays until ``bench/workloads.py`` stops passing it.
    """
    vert, horiz = _vertical_split(space)
    cv, dm, nv = curvature(space), space.dim_m, len(vert)
    g, (_, kc, ap) = cv.g, space.tensors()
    vv, vm = _pairs(vert, vert, dm), _pairs(vert, np.arange(dm), dm)
    ap, worst = ap[:, vv], 0.0
    for h0, h1 in slab_cuts(cv.row_weight[horiz]):
        a = horiz[h0:h1]
        rows = _pairs(a, np.arange(dm), dm)
        slab = kc[rows] @ ap + 4.0 * g[rows][:, vv]
        blk = g[_pairs(vert, a, dm)][:, vm].tocoo()
        (p, i), (q, b) = np.divmod(blk.row, len(a)), np.divmod(blk.col, dm)
        row = np.tile(i * dm + b, 2)
        col = np.concatenate([q * nv + p, p * nv + q])
        pair = sp.coo_matrix((np.concatenate([4.0 * blk.data, -4.0 * blk.data]), (row, col)),
                             shape=slab.shape).tocsr()
        worst = max(worst, _max_abs(slab + pair))
    if worst > tol:
        raise IdentityViolation(f"minimal-connection identity residual {worst:.2e}")
    return worst


def verify_sat_identities(space, tol=1e-9, seed=0) -> dict[str, float]:
    """Layer facts of special algebraic torsion plus the trace identities.

    The double-torsion containments xi_V xi_H H = 0 and xi_H xi_V V = 0 are
    the blocks G[(u,p),(x1,x2)] with u in one of V, H and x1, x2 in the other,
    and only those blocks are gathered; the frame traces 8 sum_{i in V} G[a,i,b,i]
    and 8 sum_{i in H} G[a,i,b,i] must both equal the torsion trace r on the
    horizontals.  Each is read off X as 8 P P^T, P[a, (i, k)] = X[(a, i), k]
    with a horizontal and i in the frame, so only X's rows (a, i) are
    gathered.  Every index is checked.  ``seed`` is unused; it stays until
    ``bench/workloads.py`` stops passing it.
    """
    vert, horiz = _vertical_split(space)
    x, dm = space.tensors()[0], space.dim_m
    lam = exact_r_eigenvalues(space.algebra.cd, space.h_spec)
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
    g, everything = curvature(space).g, range(dm)
    res["xi_V_xi_HH"] = block_max(g, vert, everything, _pairs(horiz, horiz, dm))
    res["xi_H_xi_VV"] = block_max(g, horiz, everything, _pairs(vert, vert, dm))
    sub = tensor_r(space)[np.ix_(horiz, horiz)]
    for name, frame in (("vertical", vert), ("horizontal", horiz)):
        # P[a, (i, k)] = X[(a, i), k] for a horizontal and i in the frame
        p = x[_pairs(horiz, frame, dm)].reshape((len(horiz), len(frame) * dm)).tocsr()
        traced = 8.0 * (p @ p.T).toarray()
        res[f"trace_identity_{name}_frame"] = float(np.abs(traced - sub).max())

    bad = {k: v for k, v in res.items() if v > tol}
    if bad:
        raise IdentityViolation(f"special-torsion identities failed: {bad}")
    return res


def verify_ricci_oracle(space, tol=1e-9) -> float:
    """The float torsion trace r and trace-of-curvature Ricci against the
    exact layer eigenvalues (``_exact_eigenvalues``).

    Each must be diagonal with the exact value on every layer, up to ``tol``
    relative to the largest eigenvalue; returns the worst absolute residual.
    """
    cv = curvature(space)
    lam, ric = _exact_eigenvalues(space)
    worst = 0.0
    for name, got, exact, error in (("r", cv.r, lam, NonRationalEigenvalue),
                                    ("Ricci", cv.ric, ric, RIdentityMismatch)):
        expect = np.zeros(space.dim_m)
        for label, value in exact.items():
            # "m" off the root layers (triality, cyclic) is all of m
            expect[space.layers.get(label, slice(None))] = float(value * KAPPA)
        res = float(np.abs(got - np.diag(expect)).max())
        if res > tol * max(1.0, float(np.abs(expect).max())):
            raise error(f"{name} oracle residual {res:.3e} on {space.name}")
        worst = max(worst, res)
    return worst


def verify_prop_table_relations(report: NKReport) -> None:
    """Exact eigenvalue relations between r, Ric and C per splitting shape."""
    lam = report.eig_by_layer("r")
    ric = report.eig_by_layer("ric")
    cc = report.eig_by_layer("c")
    if report.nk_type == "IV":
        l, k = lam["V"], lam["H"]
        checks = [
            (ric["V"], (l + 4 * k) / 4), (ric["H"], (2 * l + 3 * k) / 4),
            (cc["V"], 4 * (l - k)), (cc["H"], 2 * (k - l)),
        ]
    elif report.nk_type == "III":
        l, k, m = lam["V1"], lam["V2"], lam["V3"]
        checks = [
            (ric["V1"], (l + 2 * k + 2 * m) / 4),
            (ric["V2"], (2 * l + k + 2 * m) / 4),
            (ric["V3"], (2 * l + 2 * k + m) / 4),
            (cc["V1"], 2 * (2 * l - k - m)),
            (cc["V2"], 2 * (-l + 2 * k - m)),
            (cc["V3"], 2 * (-l - k + 2 * m)),
        ]
    elif report.nk_type in ("I", "II"):
        k = lam["m"]
        checks = [(ric["m"], Fraction(5, 4) * k), (cc["m"], Fraction(0))]
    else:
        return
    for got, want in checks:
        if got != want:
            raise RIdentityMismatch(f"table relation failed: {got} != {want}")
    if report.einstein:
        for e in report.c_eigs:
            if e.value != 0:
                raise RIdentityMismatch("Einstein space with nonzero C")


# -- one space, every check -------------------------------------------------------


def verify_space(space: OrderThreeSymmetricSpace, tol: float) -> tuple[NKReport, dict[str, float]]:
    """The report of a space with every check that applies to it.

    Builds the report (which confirms the type), then reads the total
    skewness of the algebra's structure constants C (O(nnz C)), runs the
    structure, curvature and Ricci-oracle suites and the table relations, the
    minimal-connection and special-torsion suites on types III and IV, and
    the Einstein certificate.  Returns the report and the residuals by check
    name; a Kahler space has only the skewness.  A check that fails outright
    raises.
    """
    report = build_report(space)
    res = {"bracket_total_skew": antisymmetry_max_residual(space.algebra.C)}
    if report.kahler:
        return report, res
    res.update(verify_structure_identities(space, tol=tol))
    res.update(verify_curvature_identities(space, tol=tol))
    res["ricci_oracle"] = verify_ricci_oracle(space, tol=tol)
    verify_prop_table_relations(report)
    res["eigenvalue_table_relations"] = 0.0
    if report.nk_type in ("III", "IV"):
        res["min_connection_identity"] = verify_min_connection_identity(space, tol=tol)
        res.update(verify_sat_identities(space, tol=tol))
    einstein_check(report)
    return report, res
