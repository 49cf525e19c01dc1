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

Eigenvalues of r, Ric and C are exact rationals in units of kappa = |mu|^2;
on root layers they come from sums of exact squared structure constants, and
are cross-checked against the floating-point trace computations.

The floating-point side is one sparse operator per space, built once
(``curvature``): R as a (dm^2, dm^2) matrix R[(a,b),(c,d)] = R(e_a,e_b,e_c,e_d),
from which Ric, Ric* and every curvature identity over all (a, b, c, d) are
read.  Index permutations of a four-index operator are integer arithmetic on
its nonzero entries, so memory follows the nonzeros, never dm^4.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property

import numpy as np
import scipy.sparse as sp

from .automorph import OrderThreeSymmetricSpace
from .chevalley import _neg
from .compactform import DUAL_COXETER, drop_noise
from .rootsys import Coeffs

KAPPA = Fraction(2)

MIN_CONNECTION_BLOCK = 1 << 21  # tuples per block of the min-connection check
SLAB_ENTRIES = 1 << 18          # nonzeros gathered per slab of a four-index sum


class FixedVectorInM(ValueError):
    """sigma restricted to m has a fixed vector; the split k + m is wrong."""


class NonRationalEigenvalue(ArithmeticError):
    """A float eigenvalue failed to reconstruct as an exact rational."""


class RIdentityMismatch(AssertionError):
    """Ric - Ric* disagrees with the torsion tensor r."""


class IdentityViolation(AssertionError):
    """A curvature or torsion identity exceeded tolerance."""


# -- basic structure -----------------------------------------------------------


def canonical_J(space: OrderThreeSymmetricSpace, tol: float = 1e-9) -> np.ndarray:
    """J = (2 sigma|m + id)/sqrt(3); raises if sigma|m has a fixed vector."""
    sm = space.sigma_m
    dm = space.dim_m
    if dm and np.linalg.svd(sm - np.eye(dm), compute_uv=False).min() < tol:
        raise FixedVectorInM("sigma|m has eigenvalue 1")
    j = (2.0 * sm + np.eye(dm)) / np.sqrt(3.0)
    if np.abs(j @ j + np.eye(dm)).max() > 1e-12:
        raise FixedVectorInM("J^2 != -id; sigma|m is not fixed-point free of order 3")
    return j


def layer_epsilon(space: OrderThreeSymmetricSpace) -> dict[str, int]:
    """Sign eps with J U0 = eps U1 per layer: +1 on a(H) = 1/3, -1 on 2/3."""
    out = {}
    for label, roots in space.layer_roots.items():
        rep = roots[0]
        t = space.h_spec.alpha_value(space.algebra.rs, rep) % 1
        out[label] = 1 if t == Fraction(1, 3) else -1
    return out


def torsion(space: OrderThreeSymmetricSpace) -> sp.csr_matrix:
    """xi as X[(i, j), k] = <xi_{e_i} e_j, e_k> in the m-basis, CSR (dm^2, dm)."""
    return space.tensors()[0]


def min_connection_curvature(space: OrderThreeSymmetricSpace, a: int, b: int) -> np.ndarray:
    """Endomorphism R^min_{e_a e_b} = ad([e_a, e_b]_k)|m."""
    _, kc, ak = space.tensors()
    dm = space.dim_m
    return (kc[a * dm + b] @ ak.reshape((space.dim_k, dm * dm))).toarray().reshape(dm, dm)


def riemann_value(space, x, y, z, t) -> float:
    """R on arbitrary m-vectors, without materializing the 4-tensor."""
    xi, kc, ak = space.tensors()
    dm = space.dim_m
    out = float((kc.T @ np.kron(x, y)) @ (ak.reshape((space.dim_k, dm * dm)) @ np.kron(t, z)))
    xy, zt, xz, yt, xt, yz = (xi.T @ np.kron(u, v)
                              for u, v in ((x, y), (z, t), (x, z), (y, t), (x, t), (y, z)))
    return out + 2.0 * xy @ zt - xz @ yt + xt @ yz


def tensor_r(space: OrderThreeSymmetricSpace) -> np.ndarray:
    """r(X, Y) = -4 trace xi_X xi_Y as a symmetric matrix (memoised, read-only)."""
    return curvature(space).r


def ricci_tensors(space: OrderThreeSymmetricSpace, j: np.ndarray | None = None):
    """(Ric, Ric*, C) as traces of the sparse curvature operator.

    Ric and Ric* are memoised on the space (read-only); a ``j`` other than
    the canonical J is traced afresh.
    """
    cv = curvature(space, j)
    return cv.ric, cv.ric_star, cv.ric - 5.0 * cv.ric_star


# -- the sparse curvature operator ------------------------------------------------


def _slabs(dm: int, *terms):
    """Row slabs of the sum of coef * M[perm] over (coef, M, perm) terms.

    Each M is a (dm^2, dm^2) operator and ``perm`` names its slots, so the
    term (1.0, M, "bcad") adds M[b,c,a,d] at [(a,b),(c,d)].  A slab is a CSR
    matrix holding the rows (a, b) for one block of a, numbered from the
    block's first row; it gathers about SLAB_ENTRIES nonzeros, so memory
    follows the slab, not the whole sum.
    """
    sources = []
    for coef, mat, perm in terms:
        if perm.index("a") >= 2:        # read a off the rows of M^T
            mat, perm = mat.T, perm[2:] + perm[:2]
        sources.append((coef, mat.tocsr(), perm))
    size = sum(src.nnz for _, src, _ in sources)
    step = max(1, SLAB_ENTRIES * dm // max(size, 1))
    other = np.arange(dm, dtype=np.int32)
    for a0 in range(0, dm, step):
        block = np.arange(a0, min(a0 + step, dm), dtype=np.int32)[:, None]
        shape = (block.size * dm, dm * dm)
        pieces, rows, cols, data = [], [], [], []
        for coef, src, perm in sources:
            if perm == "abcd":          # the slab's rows as they stand
                pieces.append(coef * src[a0 * dm:a0 * dm + shape[0]])
                continue
            # rows (a, x) or (x, a) of src, a in the block, then index arithmetic
            idx = (block * dm + other if perm[0] == "a" else other * dm + block).ravel()
            sub = src[idx].tocoo()
            r = idx[sub.row]
            slots = (r // dm, r % dm, sub.col // dm, sub.col % dm)
            a, b, c, d = (slots[perm.index(x)] for x in "abcd")
            rows.append((a - a0) * dm + b)
            cols.append(c * dm + d)
            data.append(coef * sub.data)
        if rows:
            pieces.append(sp.coo_matrix(
                (np.concatenate(data), (np.concatenate(rows), np.concatenate(cols))),
                shape=shape).tocsr())
        yield sum(pieces[1:], pieces[0])


def _worst(dm: int, *terms) -> float:
    """max |sum of coef * M[perm]| over every (a, b, c, d); see ``_slabs``."""
    return max(_max_abs(slab) for slab in _slabs(dm, *terms))


def _trace_bd(mat, dm: int) -> np.ndarray:
    """T[a, c] = sum_i M[a, i, c, i], the Ricci-type trace of an operator."""
    mat = mat.tocoo()
    keep = mat.row % dm == mat.col % dm
    return sp.coo_matrix((mat.data[keep], (mat.row[keep] // dm, mat.col[keep] // dm)),
                         shape=(dm, dm)).toarray()


def _max_abs(mat) -> float:
    return float(np.abs(mat.data).max(initial=0.0))


def _rows(mat, first, second, dm: int):
    """Rows (p, q) of a (dm^2, w) operator, p in first and q in second, in order."""
    return mat[(np.asarray(first)[:, None] * dm + np.asarray(second)).ravel()]


def _block(mat, first, second, dm: int) -> np.ndarray:
    """``_rows`` as a dense (len(first), len(second), w) array."""
    return _rows(mat, first, second, dm).toarray().reshape(len(first), len(second), -1)


def _read_only(arr: np.ndarray) -> np.ndarray:
    arr.flags.writeable = False
    return arr


class Curvature:
    """Sparse torsion and curvature operators of one space, each built on first use.

    ``xi`` and ``kc`` are the space's X[(a,b), k] = xi[a,b,k] and
    K[(a,b), s] (``OrderThreeSymmetricSpace.tensors``), used as they stand;
    ``g``, ``riemann`` and ``riemann_jj`` are (dm^2, dm^2) CSR operators

        G[(a,b),(c,d)]   = <xi_a e_b, xi_c e_d>                  (X X^T)
        R                = R^min + 2G - G[a,c,b,d] + G[a,d,b,c]   (R^min = K A')
        RJJ[(a,b),(c,d)] = R(e_a, e_b, J e_c, J e_d)             (R kron(J, J))

    with A'[s, (c,d)] = A[(s,d), c] = <[k_s, m_c], m_d>.  Ric and Ric* are the
    traces sum_i R[a,i,b,i] and sum_i RJJ[a,i,b,i].  ``j_sparse``, like the
    tensors, drops entries below ``compactform.ZERO_DROP``.
    """

    def __init__(self, space: OrderThreeSymmetricSpace, j: np.ndarray | None = None):
        self.space = space
        self.dm = space.dim_m
        if j is not None:
            self.j = j      # shadows the canonical J below

    @cached_property
    def j(self) -> np.ndarray:
        return canonical_J(self.space)

    @cached_property
    def j_sparse(self) -> sp.csr_matrix:
        return drop_noise(sp.csr_matrix(self.j))

    @cached_property
    def xi(self) -> sp.csr_matrix:
        return self.space.tensors()[0]

    @cached_property
    def kc(self) -> sp.csr_matrix:
        return self.space.tensors()[1]

    @cached_property
    def g(self) -> sp.csr_matrix:
        return (self.xi @ self.xi.T).tocsr()

    @cached_property
    def riemann(self) -> sp.csr_matrix:
        ak = self.space.tensors()[2].tocoo()
        dm = self.dm
        s, d = np.divmod(ak.row, dm)
        a = sp.csr_matrix((ak.data, (s, ak.col * dm + d)), shape=(self.space.dim_k, dm * dm))
        terms = ((1.0, self.kc @ a, "abcd"), (2.0, self.g, "abcd"),
                 (-1.0, self.g, "acbd"), (1.0, self.g, "adbc"))
        return sp.vstack(list(_slabs(dm, *terms)), format="csr")

    @cached_property
    def riemann_jj(self) -> sp.csr_matrix:
        jj = sp.kron(self.j_sparse, self.j_sparse, format="csr")
        return (self.riemann @ jj).tocsr()

    @cached_property
    def ric(self) -> np.ndarray:
        return _read_only(_trace_bd(self.riemann, self.dm))

    @cached_property
    def ric_star(self) -> np.ndarray:
        return _read_only(_trace_bd(self.riemann_jj, self.dm))

    @cached_property
    def r(self) -> np.ndarray:
        dm = self.dm
        x = self.xi.tocoo()
        a, i, j = x.row // dm, x.row % dm, x.col
        shape = (dm, dm * dm)
        p = sp.csr_matrix((x.data, (a, i * dm + j)), shape=shape)   # [a, (i,j)] = xi[a,i,j]
        q = sp.csr_matrix((x.data, (a, j * dm + i)), shape=shape)   # [b, (i,j)] = xi[b,j,i]
        return _read_only(-4.0 * (p @ q.T).toarray())


def curvature(space: OrderThreeSymmetricSpace, j: np.ndarray | None = None) -> Curvature:
    """The space's memoised ``Curvature``; a ``j`` other than the canonical J
    gets a fresh one that is not memoised."""
    if space._curvature is None:
        space._curvature = Curvature(space)
    cv = space._curvature
    if j is not None and not np.array_equal(j, cv.j):
        return Curvature(space, j)
    return cv


# -- exact layer eigenvalues -----------------------------------------------------


@dataclass(frozen=True)
class EigenData:
    layer: str
    value: Fraction          # eigenvalue in units of kappa
    dim: int


def layer_traces(space: OrderThreeSymmetricSpace) -> dict[str, dict[Coeffs, tuple[int, ...]]]:
    """Exact torsion traces of every m-root against every layer, memoised.

    ``out[L][alpha][j]`` is 12 sum N^2 over the roots beta of the j-th layer
    of ``space.layer_roots`` for which alpha + beta is a root with
    a(alpha) + a(beta) != 0 mod 1, or alpha - beta is a root with
    a(alpha) != a(beta) (N^2 taken at (-alpha, beta) there).  That is the
    trace 4 sum_v |xi_X v|^2 over the frame of the layer, X a unit vector of
    the plane of alpha, in units of kappa / 12.  One pass over the root pairs
    of ``cd.n_sq``, in ints.
    """
    if space._layer_traces is None:
        levels, d = space.h_spec.levels(space.algebra.rs)
        col = {r: j for j, roots in enumerate(space.layer_roots.values()) for r in roots}
        rows = {r: [0] * len(space.layer_roots) for r in col}
        neg = {_neg(r): r for r in col}
        for (a, b), n_sq in space.algebra.cd.n_sq.items():
            j = col.get(b)
            if j is None:
                continue
            if a in rows:
                if (levels[a] + levels[b]) % d:
                    rows[a][j] += n_sq.numerator * 12 // n_sq.denominator
            elif a in neg and levels[neg[a]] != levels[b]:
                rows[neg[a]][j] += n_sq.numerator * 12 // n_sq.denominator
        space._layer_traces = {label: {r: tuple(rows[r]) for r in roots}
                               for label, roots in space.layer_roots.items()}
    return space._layer_traces


def _layer_value(label: str, values: dict[Coeffs, int], what: str) -> int:
    """The one value of a layer, or NonRationalEigenvalue naming a root off it."""
    common = Counter(values.values()).most_common(1)[0][0]
    for root, v in values.items():
        if v != common:
            raise NonRationalEigenvalue(
                f"layer {label} is not an r-eigenbundle: {what} is {Fraction(v, 12)}"
                f" kappa at root {root}, {Fraction(common, 12)} kappa on the rest")
    return common


def exact_r_eigenvalues(space: OrderThreeSymmetricSpace) -> dict[str, Fraction]:
    """r-eigenvalue per root layer, in units of kappa: the row sums of
    ``layer_traces``.

    Every root of a layer must produce the same value; anything else means
    the layer fails to be an eigenbundle and is reported as an error.
    """
    return {label: Fraction(_layer_value(label, {r: sum(v) for r, v in rows.items()},
                                         "the r-trace"), 12)
            for label, rows in layer_traces(space).items()}


def exact_r_cross_layer(space) -> dict[tuple[str, str], Fraction]:
    """Torsion trace of one layer against another: r^s restricted, exact.

    Entry (L, S) is 4 sum_{v in S-frame} |xi_X v|^2 for X a unit vector of
    layer L, the per-layer summand of the Ricci trace formula: the column of
    S in ``layer_traces`` on the roots of L, which must be constant there.
    """
    out: dict[tuple[str, str], Fraction] = {}
    for label, rows in layer_traces(space).items():
        for j, other in enumerate(space.layer_roots):
            value = _layer_value(label, {r: v[j] for r, v in rows.items()},
                                 f"the trace against {other}")
            out[(label, other)] = Fraction(value, 6)
    return out


def exact_ricci_eigenvalues(space: OrderThreeSymmetricSpace) -> dict[str, Fraction]:
    """Ricci eigenvalue per layer (kappa units) via the layer-trace formula.

    Ric|L = lambda_L/4 + (1/lambda_L) sum_S lambda_S r^S|L over the parallel
    layer decomposition; an independent closed form for the curvature trace.
    """
    lam = exact_r_eigenvalues(space)           # kappa units
    cross = exact_r_cross_layer(space)         # absolute units
    out: dict[str, Fraction] = {}
    for label in space.layer_roots:
        lam_abs = lam[label] * KAPPA
        acc = lam_abs / 4
        for other in space.layer_roots:
            acc += (lam[other] * KAPPA) * cross[(label, other)] / lam_abs
        out[label] = acc / KAPPA
    return out


def verify_r_cross_consistency(space) -> None:
    """Check the ``layer_traces`` matrix: every column is constant on each
    layer, and sum_S r^S|L equals the full eigenvalue lambda_L, exactly."""
    lam = exact_r_eigenvalues(space)
    cross = exact_r_cross_layer(space)
    for label in space.layer_roots:
        total = sum(cross[(label, other)] for other in space.layer_roots)
        if total != lam[label] * KAPPA:
            raise NonRationalEigenvalue(f"layer traces of {label} do not sum to lambda")


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


def build_report(space: OrderThreeSymmetricSpace, classify=None) -> NKReport:
    from .automorph import classify_type

    decision = classify if classify is not None else classify_type(space)
    auto = space.h_spec.describe() if space.h_spec else space.type_label
    alg = getattr(space.algebra, "rs", None)
    alg_label = alg.type_label if alg is not None else space.name
    if space.type_label == "C3":
        alg_label = f"({space.algebra.base.rs.type_label})^3"

    if space.type_label == "A3I":
        return NKReport(space.name, alg_label, auto, decision.label, space.dim_m,
                        {"m": space.dim_m}, [], [], [], True, None, None, None, None,
                        kahler=True)

    if space.layer_roots:
        lam = exact_r_eigenvalues(space)
        ric = exact_ricci_eigenvalues(space)
        splitting = {lbl: len(space.layers[lbl]) for lbl in _sorted_layers(space.layers)}
        labels = _sorted_layers(space.layer_roots)
    else:
        # outer / cyclic constructions: the single eigenvalue is 2h*/3 kappa
        base = space.algebra.base if space.type_label == "C3" else space.algebra
        hstar = DUAL_COXETER[base.rs.family](base.rs.rank)
        lam = {"m": Fraction(2 * hstar, 3)}
        ric = {"m": lam["m"] * Fraction(5, 4)}
        splitting = {lbl: len(space.layers[lbl]) for lbl in _sorted_layers(space.layers)} \
            or {"m": space.dim_m}
        labels = ["m"]
        _check_scalar_r(space, lam["m"])

    r_eigs = [EigenData(lbl, lam[lbl], _layer_dim(space, lbl)) for lbl in labels]
    ric_eigs = [EigenData(lbl, ric[lbl], _layer_dim(space, lbl)) for lbl in labels]
    c_eigs = [EigenData(lbl, 5 * lam[lbl] - 4 * ric[lbl], _layer_dim(space, lbl))
              for lbl in labels]

    einstein = len({e.value for e in r_eigs}) == 1
    constant = ric_eigs[0].value if einstein else None

    mu2 = None
    if decision.label == "III":
        mu2 = sum(lam[lbl] for lbl in ("V1", "V2", "V3"))
    elif decision.label == "IV":
        mu2 = lam["V"] + 2 * lam["H"]

    ratio, lk_label = lk_ratio(space, lam)
    return NKReport(space.name, alg_label, auto, decision.label, space.dim_m,
                    splitting, r_eigs, ric_eigs, c_eigs, einstein, constant,
                    mu2, ratio, lk_label)


def _layer_dim(space, label):
    if label == "m" and "m" not in space.layers:
        return space.dim_m
    return len(space.layers[label])


def _check_scalar_r(space, expect_kappa: Fraction, tol: float = 1e-9) -> None:
    r = tensor_r(space)
    target = float(expect_kappa * KAPPA)
    if np.abs(r - target * np.eye(space.dim_m)).max() > tol * max(1.0, target):
        raise NonRationalEigenvalue(
            f"r is not the expected scalar {expect_kappa}*kappa on {space.name}")


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


def lk_ratio(space, lam: dict[str, Fraction]):
    """Vertical/horizontal eigenvalue ratio l/k for twistor-type splittings.

    Defined for the two-eigenvalue situation: every A3III space, and A3II
    spaces whose two horizontal layers share one eigenvalue.
    """
    if space.type_label == "A3III":
        ratio = lam["V"] / lam["H"]
        dim_v = len(space.layers["V"])
    elif space.type_label == "A3II" and len({lam["V1"], lam["V2"], lam["V3"]}) <= 2:
        pairs = ["V1", "V2", "V3"]
        vals = [lam[p] for p in pairs]
        odd = [p for p in pairs if vals.count(lam[p]) == 1]
        if not odd:
            ratio = Fraction(1)
            dim_v = len(space.layers["V1"])
        else:
            rest = next(p for p in pairs if p != odd[0])
            ratio = lam[odd[0]] / lam[rest]
            dim_v = len(space.layers[odd[0]])
    else:
        return None, None
    return ratio, _lk_label(space, ratio, dim_v)


def _lk_label(space, ratio: Fraction, dim_v: int) -> str:
    """Name per the two-dimensional-fiber classification; generic otherwise."""
    rs = getattr(space.algebra, "rs", None)
    fam = rs.family if rs else "?"
    if dim_v != 2:
        return f"l/k = {ratio}"
    if ratio == 1:
        return "Einstein twistor space"
    if fam == "c" and space.h_spec and space.h_spec.nodes == (1,):
        return f"odd projective space with the symplectic metric, l/k = {ratio}"
    if fam in ("b", "d") and space.h_spec and space.h_spec.nodes[0] == 2:
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


def verify_structure_identities(space, j=None, tol=1e-9) -> dict[str, float]:
    """Torsion/J identities that need no curvature tensors, over every index."""
    cv = curvature(space, j)
    j, js, x = cv.j, cv.j_sparse, cv.xi
    dm = space.dim_m
    eye = sp.identity(dm, format="csr")
    res: dict[str, float] = {}
    res["J_squared"] = float(np.abs(j @ j + np.eye(dm)).max())
    res["J_isometry"] = float(np.abs(j.T @ j - np.eye(dm)).max())
    res["xi_XX"] = _max_abs(x[np.arange(dm) * (dm + 1)])
    # rows (i, p) of xi_i J + J xi_i
    res["xi_J_anticommute"] = _max_abs(x @ js + sp.kron(eye, js) @ x)
    # xi[a,b,k] + xi[b,a,k] and xi[a,b,k] + xi[a,k,b] over every index triple
    nz = x.tocoo()
    a, b, k = nz.row // dm, nz.row % dm, nz.col
    moved = lambda rows, cols: sp.csr_matrix((nz.data, (rows, cols)), shape=x.shape)
    res["xi_totally_skew"] = max(_max_abs(x + moved(b * dm + a, k)),
                                 _max_abs(x + moved(a * dm + k, b)))
    jj = sp.kron(js, js, format="csr")
    res["bracket_JJ_k"] = _max_abs(jj.T @ cv.kc - cv.kc)
    mm = -2.0 * x  # m-part of the bracket
    res["bracket_J_m"] = _max_abs(sp.kron(js.T, eye) @ mm + mm @ js.T)
    return res


def verify_curvature_identities(space, j=None, tol=1e-9, seed=0) -> dict[str, float]:
    """First Bianchi, pair symmetry, antisymmetry, the J-curvature defect
    R(X,Y,Z,T) - R(X,Y,JZ,JT) = 4<xi_X Y, xi_Z T>, and Ricci facts.

    Every residual is a maximum over all (a, b, c, d), read off the memoised
    sparse operators of ``curvature``.  ``seed`` is unused; it is kept so
    that every identity suite takes the same arguments.
    """
    cv = curvature(space, j)
    dm = space.dim_m
    rr = cv.riemann
    res: dict[str, float] = {
        "bianchi": _worst(dm, (1.0, rr, "abcd"), (1.0, rr, "bcad"), (1.0, rr, "cabd")),
        "pair_symmetry": _worst(dm, (1.0, rr, "abcd"), (-1.0, rr, "cdab")),
        "antisymmetry": _worst(dm, (1.0, rr, "abcd"), (1.0, rr, "bacd")),
        "curvature_J_defect": _worst(dm, (1.0, rr, "abcd"), (-1.0, cv.riemann_jj, "abcd"),
                                     (-4.0, cv.g, "abcd")),
    }

    j, ric, ric_star, r = cv.j, cv.ric, cv.ric_star, cv.r
    res["ric_symmetric"] = float(np.abs(ric - ric.T).max())
    res["ric_star_symmetric"] = float(np.abs(ric_star - ric_star.T).max())
    res["ric_J_commute"] = float(np.abs(ric @ j - j @ ric).max())
    res["r_identity"] = float(np.abs((ric - ric_star) - r).max())
    if res["r_identity"] > tol * max(1.0, float(np.abs(r).max())):
        raise RIdentityMismatch(f"|Ric - Ric* - r| = {res['r_identity']:.2e}")
    return res


def verify_min_connection_identity(space, tol=1e-9, seed=0) -> float:
    """Contracted curvature identity of the minimal connection.

    For X horizontal, U arbitrary and V1, V2 vertical:
    R^min(X,U,V1,V2) = 4(<[xi_V1, xi_V2]X, U> - <xi_X U, xi_V1 V2>),
    checked on every basis tuple (x, u, v1, v2).  Only defined on
    special-algebraic-torsion splittings.  ``seed`` is unused; it is kept so
    that every identity suite takes the same arguments.
    """
    if space.type_label == "A3III":
        vert = space.layers["V"]
        horiz = space.layers["H"]
    elif space.type_label == "A3II":
        vert = space.layers["V1"]
        horiz = space.layers["V2"] + space.layers["V3"]
    else:
        raise IdentityViolation("minimal-connection identity needs a vertical split")
    xi, kc, ak = space.tensors()
    dm, everything = space.dim_m, np.arange(space.dim_m)
    xv = _block(xi, vert, everything, dm)
    akv = _block(ak, range(space.dim_k), vert, dm)[:, :, vert]
    xvv = xv[:, vert]
    worst = 0.0
    step = max(1, MIN_CONNECTION_BLOCK // (dm * len(vert) ** 2))
    for start in range(0, len(horiz), step):
        h = horiz[start:start + step]
        xh, kh = _block(xi, h, everything, dm), _block(kc, h, everything, dm)
        # rhs[x, u, a, b] / 4 = <[xi_va, xi_vb] e_x, e_u> - <xi_x e_u, xi_va e_vb>
        rhs = np.einsum("auj,bjx->xuab", xv, xv[:, :, h], optimize=True)
        rhs -= rhs.swapaxes(2, 3).copy()
        rhs -= np.einsum("xuk,abk->xuab", xh, xvv, optimize=True)
        rhs *= 4.0
        # R^min(e_x, e_u, e_va, e_vb) = <ad([e_x, e_u]_k) e_vb, e_va>
        rhs -= np.einsum("xus,sba->xuab", kh, akv, optimize=True)
        worst = max(worst, float(np.abs(rhs).max(initial=0.0)))
    if worst > tol:
        raise IdentityViolation(f"minimal-connection identity residual {worst:.2e}")
    return worst


def verify_sat_identities(space, tol=1e-9, seed=0) -> dict[str, float]:
    """Layer facts of special algebraic torsion plus the trace identities.

    The double-torsion containments xi_V xi_H H = 0 and xi_H xi_V V = 0 are
    checked on every (u, x1, x2) by sparse products of torsion rows.
    ``seed`` is unused; it is kept so that every identity suite takes the
    same arguments.
    """
    x = space.tensors()[0]
    lam = exact_r_eigenvalues(space)
    res: dict[str, float] = {}
    dm = space.dim_m

    def block_max(first, second, out):
        """max |xi[p, q, k]| over p in first, q in second, k in out."""
        return _max_abs(_rows(x, first, second, dm)[:, list(out)])

    if space.type_label == "A3III":
        v, h = space.layers["V"], space.layers["H"]
        res["xi_VV"] = block_max(v, v, range(dm))
        res["xi_HH_in_V"] = block_max(h, h, h)
        res["xi_VH_in_H"] = block_max(v, h, v)
        vert, horiz = v, h
        lam_v, lam_h = lam["V"], lam["H"]
        if 2 * lam_v * len(v) != lam_h * len(h):
            raise IdentityViolation("vertical/horizontal trace balance fails")
        res["balance"] = 0.0
    elif space.type_label == "A3II":
        v1, v2, v3 = space.layers["V1"], space.layers["V2"], space.layers["V3"]
        res["xi_VkVk"] = max(block_max(a, a, range(dm)) for a in (v1, v2, v3))
        res["xi_V1V2_in_V3"] = block_max(v1, v2, v1 + v2)
        vert, horiz = v1, v2 + v3
        if not (lam["V1"] * len(v1) == lam["V2"] * len(v2) == lam["V3"] * len(v3)):
            raise IdentityViolation("three-layer trace balance fails")
        res["balance"] = 0.0
    else:
        raise IdentityViolation("special algebraic torsion needs type III/IV")

    # double-torsion containments and the frame-trace identity on horizontals
    everything = np.arange(dm)
    # [(u, p), (x1, x2)] = <xi_u e_p, xi_x1 x2>, and the same with V, H swapped
    res["xi_V_xi_HH"] = _max_abs(_rows(x, vert, everything, dm) @ _rows(x, horiz, horiz, dm).T)
    res["xi_H_xi_VV"] = _max_abs(_rows(x, horiz, everything, dm) @ _rows(x, vert, vert, dm).T)

    r = tensor_r(space)
    xvh = _block(x, vert, horiz, dm)
    frame_v = 8.0 * np.einsum("iak,ibk->ab", xvh, xvh)
    sub = r[np.ix_(horiz, horiz)]
    res["trace_identity_vertical_frame"] = float(np.abs(frame_v - sub).max())
    xhh = _block(x, horiz, horiz, dm)
    frame_h = 8.0 * np.einsum("iak,ibk->ab", xhh, xhh)
    res["trace_identity_horizontal_frame"] = float(np.abs(frame_h - sub).max())

    bad = {k: v for k, v in res.items() if v > tol}
    if bad:
        raise IdentityViolation(f"special-torsion identities failed: {bad}")
    return res


def verify_ricci_oracle(space, tol=1e-9) -> float:
    """Trace-of-curvature Ricci against the exact layer closed form."""
    ric, _, _ = ricci_tensors(space)
    if space.layer_roots:
        exact = exact_ricci_eigenvalues(space)
        expect = np.zeros(space.dim_m)
        for label, positions in space.layers.items():
            expect[positions] = float(exact[label] * KAPPA)
    else:
        base = space.algebra.base if space.type_label == "C3" else space.algebra
        hstar = DUAL_COXETER[base.rs.family](base.rs.rank)
        # scalar case: r = (2h*/3) kappa, Ric = (5/4) r
        expect = np.full(space.dim_m, float(Fraction(5, 4) * Fraction(2 * hstar, 3) * KAPPA))
    worst = float(np.abs(ric - np.diag(expect)).max())
    if worst > tol * max(1.0, float(np.abs(expect).max())):
        raise RIdentityMismatch(f"Ricci oracle residual {worst:.3e} on {space.name}")
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


def sectional_curvature_samples(space, count=30, seed=3) -> list[float]:
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(count):
        x = rng.standard_normal(space.dim_m)
        y = rng.standard_normal(space.dim_m)
        x /= np.linalg.norm(x)
        y -= (x @ y) * x
        y /= np.linalg.norm(y)
        out.append(riemann_value(space, x, y, x, y))
    return out
