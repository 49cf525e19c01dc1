"""Order-3 automorphisms of the compact simple algebras and their k + m splits.

Inner classes are parametrized by nodes of the Dynkin diagram carrying mark
1, 2 or 3 (singles), or by a pair of mark-1 nodes; the fixed element H
evaluates on roots through the exact rationals a(H) = sum_k c_k n_k(a)/m_k,
and sigma rotates each U-plane by the angle 2*pi*a(H).  The outer order-3
class lives on d4 (diagram rotation), and the cyclic class on a triple
l + l + l of one simple algebra.

Wolf-Gray labels: A3I (mark-1 node, Hermitian symmetric), A3II (mark-1 pair),
A3III (mark-2 node), A3IV (mark-3 node), B3 (d4 triality), C3 (cyclic).

Realized spaces are immutable apart from memoized tensor caches; realizing
independent spaces over one shared algebra is embarrassingly parallel.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np
import scipy.sparse as sp

from .compactform import CompactAlgebra, adjoint_action_exp, drop_noise
from .chevalley import _add
from .rootsys import Coeffs, RootSystem, alpha_levels, diagram_automorphisms


class NotOrderThree(ValueError):
    """The candidate automorphism does not cube to the identity."""


class TrialityInconsistent(RuntimeError):
    """No sign adjustment makes the diagram rotation an automorphism."""


class ClassificationMismatch(RuntimeError):
    """The action of k on m contradicts the type its automorphism class names."""


@dataclass(frozen=True)
class InnerClass:
    """An inner order-3 conjugacy class, H = sum_k coeff_k * H_{node_k}."""

    kind: str                      # A3I | A3II | A3III | A3IV
    nodes: tuple[int, ...]         # 1-based simple-root indices
    coeffs: tuple[Fraction, ...]

    def alpha_value(self, rs: RootSystem, root: Coeffs) -> Fraction:
        """Exact a(H), using alpha_j(H_i) = delta_ij / m_i."""
        total = Fraction(0)
        for node, c in zip(self.nodes, self.coeffs):
            total += c * Fraction(root[node - 1], rs.marks[node - 1])
        return total

    def levels(self, rs: RootSystem) -> tuple[dict[Coeffs, int], int]:
        """a(H) mod 1 on every positive root as int numerators over d (``alpha_levels``)."""
        return alpha_levels(rs, zip(self.nodes, self.coeffs))

    def describe(self) -> str:
        inner = " + ".join(
            (f"{c}*H{n}" if c != 1 else f"H{n}") for n, c in zip(self.nodes, self.coeffs)
        )
        return f"{self.kind}: H = {inner}"


def enumerate_inner_order3(rs: RootSystem, dedup: bool = False) -> list[InnerClass]:
    """All inner order-3 classes; optionally one per diagram-symmetry orbit."""
    marks = rs.marks
    out: list[InnerClass] = []
    for i in range(1, rs.rank + 1):
        m = marks[i - 1]
        if m == 1:
            out.append(InnerClass("A3I", (i,), (Fraction(1, 3),)))
        elif m == 2:
            out.append(InnerClass("A3III", (i,), (Fraction(2, 3),)))
        elif m == 3:
            out.append(InnerClass("A3IV", (i,), (Fraction(1),)))
    for i, j in itertools.combinations(range(1, rs.rank + 1), 2):
        if marks[i - 1] == 1 and marks[j - 1] == 1:
            out.append(InnerClass("A3II", (i, j), (Fraction(1, 3), Fraction(1, 3))))
    out.sort(key=lambda c: (c.kind, c.nodes))
    if not dedup:
        return out
    autos = diagram_automorphisms(rs)
    kept, seen = [], set()
    for cls in out:
        orbit_min = min(
            tuple(sorted(perm[n - 1] + 1 for n in cls.nodes)) for perm in autos
        )
        key = (cls.kind, orbit_min)
        if key not in seen:
            seen.add(key)
            kept.append(cls)
    return kept


class OrderThreeSymmetricSpace:
    """A realized pair (g, sigma) with the orthogonal split g = k + m.

    ``k_cols`` and ``m_cols`` are orthonormal column blocks in the algebra
    basis: columns of the identity for inner classes, dense columns for the
    outer and cyclic constructions.  Both kinds reach the tensors the same
    way, as one sparse change of basis of the algebra's structure constants
    (``tensors``).
    """

    def __init__(self, algebra, type_label, sigma, k_cols, m_cols, h_spec=None,
                 layers=None, layer_values=None, layer_roots=None,
                 delta_plus_h=None, name=""):
        self.algebra = algebra
        self.type_label = type_label
        self.sigma = sigma
        self.k_cols = k_cols
        self.m_cols = m_cols
        self.h_spec = h_spec
        self.layers = layers or {}
        self.layer_values = layer_values or {}
        self.layer_roots = layer_roots or {}
        self.delta_plus_h = delta_plus_h
        self.name = name or type_label
        self.dim_k = k_cols.shape[1]
        self.dim_m = m_cols.shape[1]
        self._tensors = None
        self._curvature = None   # nk_analyzer.Curvature, built on first use
        self._layer_traces = None  # nk_analyzer.layer_traces, built on first use
        self._sigma_m = None

    # -- geometry ------------------------------------------------------------

    @property
    def sigma_m(self) -> np.ndarray:
        if self._sigma_m is None:
            self._sigma_m = self.m_cols.T @ self.sigma @ self.m_cols
        return self._sigma_m

    def check_invariants(self, tol: float = 1e-9) -> None:
        s = self.sigma
        d = s.shape[0]
        if np.abs(s @ s @ s - np.eye(d)).max() > tol:
            raise NotOrderThree("sigma^3 != id")
        if np.abs(s - np.eye(d)).max() < tol:
            raise NotOrderThree("sigma == id")
        if np.abs(s.T @ s - np.eye(d)).max() > tol:
            raise NotOrderThree("sigma is not orthogonal")
        if np.abs(s @ self.k_cols - self.k_cols).max() > tol:
            raise NotOrderThree("k is not fixed by sigma")
        phi = np.eye(d) + s + s @ s
        if np.abs(phi @ self.m_cols).max() > tol:
            raise NotOrderThree("m is not annihilated by 1 + sigma + sigma^2")
        if self.dim_m % 2:
            raise NotOrderThree("dim m must be even")

    def tensors(self):
        """(X, K, A), memoised CSR matrices over the m- and k-bases:

            X[(a, b), c] = xi[a, b, c] = -(1/2)<[m_a, m_b], m_c>   (dm^2, dm)
            K[(a, b), s] = <[m_a, m_b], k_s>                       (dm^2, dk)
            A[(s, p), q] = <[k_s, m_q], m_p>  (ad(k_s)|m)         (dk dm, dm)

        Entries below ``compactform.ZERO_DROP`` are dropped as float noise.
        """
        if self._tensors is None:
            self._tensors = _build_tensors(self)
        return self._tensors

    def bracket_preservation_residual(self) -> float:
        """max |sigma[e_i, e_j] - [sigma e_i, sigma e_j]| over every basis pair."""
        return self._bracket_preservation_worst()[0]

    def _bracket_preservation_worst(self) -> tuple[float, tuple[int, int]]:
        """The largest bracket-preservation residual and a pair (i, j) where it
        occurs, from the algebra's structure constants C, one slab of i at a time:
        sigma[e_i, e_j] is row j of C_i sigma^T, and [sigma e_i, sigma e_j] is
        row j of sigma^T M_i with M_i[b, l] = sum_a sigma[a, i] C[(a, b), l]."""
        d = self.algebra.dim
        c = self.algebra.C
        by_first = c.reshape((d, d * d)).T.tocsr()      # [(b, l), a] = C[(a, b), l]
        worst, where = 0.0, (0, 0)
        for i in range(d):
            lhs = c[i * d:(i + 1) * d] @ self.sigma.T
            rhs = self.sigma.T @ (by_first @ self.sigma[:, i]).reshape(d, d)
            res = np.abs(lhs - rhs).max(axis=1)
            j = int(res.argmax())
            if res[j] > worst:
                worst, where = float(res[j]), (i, j)
        return worst, where


def _build_tensors(space: OrderThreeSymmetricSpace):
    """X = -(1/2) (M kron M)^T C M, K = (M kron M)^T C Kc and A from
    (Kc kron M)^T C M, with M = m_cols and Kc = k_cols as sparse matrices."""
    c, dm = space.algebra.C, space.dim_m
    m, k = sp.csr_matrix(space.m_cols), sp.csr_matrix(space.k_cols)
    mmc = sp.kron(m, m, format="csr").T @ c                 # [(a, b), l]: [m_a, m_b]
    xi = drop_noise((-0.5 * (mmc @ m)).tocsr())
    kc = drop_noise((mmc @ k).tocsr())
    act = (sp.kron(k, m, format="csr").T @ c @ m).tocoo()   # [(s, q), p]
    s, q = np.divmod(act.row, dm)
    ak = drop_noise(sp.csr_matrix((act.data, (s * dm + act.col, q)), shape=(space.dim_k * dm, dm)))
    return xi, kc, ak


# -- inner realization ---------------------------------------------------------


def realize_inner(ca: CompactAlgebra, spec: InnerClass, name: str = "") -> OrderThreeSymmetricSpace:
    rs = ca.rs
    levels, d = spec.levels(rs)
    layer_of = {c: Fraction(t, d) for c, t in levels.items() if t}
    sigma = adjoint_action_exp(ca, lambda c: layer_of.get(c, 0))
    k_idx = list(range(rs.rank))
    m_idx: list[int] = []
    delta_h: list[Coeffs] = []
    for k, r in enumerate(rs.positive_roots):
        if r.coeffs in layer_of:
            m_idx.extend((ca.u_index(k, 0), ca.u_index(k, 1)))
        else:
            delta_h.append(r.coeffs)
            k_idx.extend((ca.u_index(k, 0), ca.u_index(k, 1)))

    layers: dict[str, list[int]] = {}
    layer_roots: dict[str, list[Coeffs]] = {}
    layer_values: dict[str, Fraction] = {}

    def label_for(root: Coeffs) -> str:
        if spec.kind == "A3II":
            i, j = spec.nodes
            return {(1, 1): "V1", (1, 0): "V2", (0, 1): "V3"}[(root[i - 1], root[j - 1])]
        if spec.kind == "A3III":
            return "V" if root[spec.nodes[0] - 1] == 2 else "H"
        return "m"

    mpos = 0
    for k, r in enumerate(rs.positive_roots):
        if r.coeffs not in layer_of:
            continue
        lbl = label_for(r.coeffs)
        layers.setdefault(lbl, []).extend((mpos, mpos + 1))
        layer_roots.setdefault(lbl, []).append(r.coeffs)
        layer_values.setdefault(lbl, layer_of[r.coeffs])
        mpos += 2

    eye = np.eye(ca.dim)
    space = OrderThreeSymmetricSpace(
        ca, spec.kind, sigma,
        eye[:, k_idx], eye[:, m_idx], h_spec=spec,
        layers=layers, layer_values=layer_values, layer_roots=layer_roots,
        delta_plus_h=delta_h, name=name or f"{rs.type_label} {spec.describe()}",
    )
    space.check_invariants()
    return space


# -- d4 triality ---------------------------------------------------------------


def _solve_gf2(rows: list[tuple[list[int], int]], nvars: int) -> list[int] | None:
    """Solve a sparse GF(2) system; rows are (support indices, rhs bit)."""
    mat = [(set(sup), rhs) for sup, rhs in rows]
    assign: dict[int, tuple[set[int], int]] = {}
    for sup, rhs in mat:
        sup = set(sup)
        # reduce by known pivots
        changed = True
        while changed:
            changed = False
            for v in list(sup):
                if v in assign:
                    psup, prhs = assign[v]
                    sup ^= psup
                    rhs ^= prhs
                    changed = True
        if not sup:
            if rhs:
                return None
            continue
        pivot = min(sup)
        assign[pivot] = (sup, rhs)
    # back-substitute with free variables = 0
    values = [0] * nvars
    for pivot in sorted(assign, reverse=True):
        sup, rhs = assign[pivot]
        acc = rhs
        for v in sup:
            if v != pivot:
                acc ^= values[v]
        values[pivot] = acc
    return values


def realize_triality_d4(ca: CompactAlgebra) -> OrderThreeSymmetricSpace:
    """Outer order-3 automorphism of so(8) induced by the diagram rotation.

    The rotation alpha_1 -> alpha_3 -> alpha_4 -> alpha_1 need not preserve a
    given sign convention; a diagonal +/-1 rescaling of the root vectors is
    solved over GF(2) so that sigma(E_a) = eps_a E_{s(a)} is an automorphism
    of order three.
    """
    rs = ca.rs
    if (rs.family, rs.rank) != ("d", 4):
        raise TrialityInconsistent("triality requires the d4 compact form")
    perm = [2, 1, 3, 0]  # image node of each 0-based node: 0->2, 1->1, 2->3, 3->0

    def s_map(c: Coeffs) -> Coeffs:
        out = [0, 0, 0, 0]
        for i, ci in enumerate(c):
            out[perm[i]] = ci
        return tuple(out)

    pos = [r.coeffs for r in rs.positive_roots]
    var = {c: k for k, c in enumerate(pos)}
    rows: list[tuple[list[int], int]] = []
    for a, b in itertools.combinations(pos, 2):
        g = _add(a, b)
        if g not in var:
            continue
        ratio = ca.cd.n_exact(a, b)[0] * ca.cd.n_exact(s_map(a), s_map(b))[0]
        rows.append(([var[a], var[b], var[g]], 0 if ratio == 1 else 1))
    simple = [tuple(int(i == j) for j in range(4)) for i in range(4)]
    rows.append(([var[simple[1]]], 0))
    rows.append(([var[simple[0]], var[simple[2]], var[simple[3]]], 0))
    bits = _solve_gf2(rows, len(pos))
    if bits is None:
        raise TrialityInconsistent("no sign rescaling makes the rotation equivariant")
    eps = {c: (-1.0) ** bits[k] for c, k in var.items()}

    sigma = np.zeros((ca.dim, ca.dim))
    # Cartan block: iH_{alpha_j} -> iH_{alpha_{perm(j)}} expressed on the
    # orthonormalized basis rows
    cmat = ca._chol_inv
    pmat = np.zeros((4, 4))
    for j in range(4):
        pmat[perm[j], j] = 1.0
    sigma[:4, :4] = np.linalg.inv(cmat.T) @ pmat @ cmat.T
    for k, r in enumerate(rs.positive_roots):
        img = s_map(r.coeffs)
        ki = rs.index(img)
        for p in (0, 1):
            sigma[ca.u_index(ki, p), ca.u_index(k, p)] = eps[r.coeffs]

    proj = (np.eye(ca.dim) + sigma + sigma @ sigma) / 3.0
    vals, vecs = np.linalg.eigh((proj + proj.T) / 2.0)
    k_cols = vecs[:, vals > 0.5]
    m_cols = vecs[:, vals <= 0.5]
    space = OrderThreeSymmetricSpace(
        ca, "B3", sigma, k_cols, m_cols, name="Spin(8)/G2 (triality fixed points)",
    )
    space.check_invariants()
    residual, (i, j) = space._bracket_preservation_worst()
    if residual > 1e-9:
        raise TrialityInconsistent(
            f"rescaled rotation fails to preserve the bracket of basis pair "
            f"({i}, {j}): residual {residual:.3e}")

    # reorder the m-basis along the two invariant halves, with J E as second
    halves = invariant_halves(space)
    if halves is None:
        raise TrialityInconsistent("triality quotient lost its invariant halves")
    j = (2.0 * space.sigma_m + np.eye(space.dim_m)) / np.sqrt(3.0)
    e_amb = space.m_cols @ halves[0]
    je_amb = space.m_cols @ (j @ halves[0])
    half_dim = e_amb.shape[1]
    space = OrderThreeSymmetricSpace(
        ca, "B3", sigma, k_cols, np.hstack([e_amb, je_amb]),
        layers={"E": list(range(half_dim)),
                "JE": list(range(half_dim, 2 * half_dim))},
        name="Spin(8)/G2 (triality fixed points)",
    )
    space.check_invariants()
    return space


# -- cyclic triple ---------------------------------------------------------------


class TripleAlgebra:
    """Direct sum l + l + l of one compact algebra: its block-diagonal structure
    constants C, in the layout of ``CompactAlgebra.C``."""

    def __init__(self, base: CompactAlgebra):
        self.base = base
        d, n = base.dim, 3 * base.dim
        self.dim = n
        c = base.C.tocoo()
        i, j = np.divmod(c.row, d)
        offs = np.repeat(np.arange(3) * d, c.nnz)
        i, j, l = np.tile(i, 3) + offs, np.tile(j, 3) + offs, np.tile(c.col, 3) + offs
        self.C = sp.csr_matrix((np.tile(c.data, 3), (i * n + j, l)), shape=(n * n, n))


def realize_cyclic_c3(component: CompactAlgebra) -> OrderThreeSymmetricSpace:
    """g = l + l + l with sigma(X, Y, Z) = (Z, X, Y) and k the diagonal."""
    d = component.dim
    algebra = TripleAlgebra(component)
    sigma = np.zeros((3 * d, 3 * d))
    for c in range(3):
        sigma[((c + 1) % 3) * d:((c + 1) % 3 + 1) * d, c * d:(c + 1) * d] = np.eye(d)

    k_cols = np.zeros((3 * d, d))
    e_cols = np.zeros((3 * d, d))
    je_cols = np.zeros((3 * d, d))
    for i in range(d):
        k_cols[i, i] = k_cols[d + i, i] = k_cols[2 * d + i, i] = 1 / np.sqrt(3)
        e_cols[i, i] = 1 / np.sqrt(2)
        e_cols[d + i, i] = -1 / np.sqrt(2)
        je_cols[i, i] = je_cols[d + i, i] = 1 / np.sqrt(6)
        je_cols[2 * d + i, i] = -2 / np.sqrt(6)
    m_cols = np.hstack([e_cols, je_cols])
    space = OrderThreeSymmetricSpace(
        algebra, "C3", sigma, k_cols, m_cols,
        layers={"E": list(range(d)), "JE": list(range(d, 2 * d))},
        name=f"({component.rs.type_label})^3 / diagonal",
    )
    space.check_invariants()
    return space


# -- type classification ---------------------------------------------------------


def fixed_algebra_root_signature(space: OrderThreeSymmetricSpace,
                                 tol: float = 1e-8):
    """(cartan rank, nonzero root count, length ratio) of the fixed algebra.

    The Cartan is taken inside the ambient Cartan; adjoint weights of the
    fixed algebra acting on itself are extracted numerically, so the result
    identifies small fixed algebras (g2 reads as (2, 12, 3.0)).
    """
    ca = space.algebra
    rank = ca.rs.rank
    k = space.k_cols
    p_fix = k @ k.T
    h_block = p_fix[:rank, :rank]
    vals, vecs = np.linalg.eigh(h_block)
    cartan = [np.pad(vecs[:, i], (0, ca.dim - rank)) for i in range(rank)
              if vals[i] > 1 - tol]
    mats = []
    for c in cartan:
        ad_c = sum(c[i] * ca.ad(i) for i in np.nonzero(np.abs(c) > tol)[0])
        mats.append(k.T @ (ad_c @ k))
    mix = mats[0] + math.pi * mats[1] if len(mats) > 1 else mats[0]
    eigvals, eigvecs = np.linalg.eig(mix)
    norms = []
    count = 0
    for idx in range(len(eigvals)):
        v = eigvecs[:, idx]
        weight = np.array([float(np.imag(np.conj(v) @ (m @ v))) for m in mats])
        if np.linalg.norm(weight) > tol:
            count += 1
            norms.append(float(weight @ weight))
    ratio = max(norms) / min(norms) if norms else 1.0
    return len(cartan), count, ratio


@dataclass
class TypeDecision:
    label: str                     # I | II | III | IV | hermitian-symmetric
    evidence: dict = field(default_factory=dict)


def orbit_span_dim(space: OrderThreeSymmetricSpace, seed_vector: np.ndarray,
                   tol: float = 1e-8) -> int:
    """Dimension of the smallest ad(k)-invariant subspace containing the vector.

    Block Krylov iteration: every ad(k_s) is applied to a few pending basis
    vectors at once (about dim m columns per step), the span so far is
    projected out, and the left singular vectors above ``tol`` join the
    orthonormal basis and the pending queue.  It stops when the queue is
    empty or the span reaches dim m.
    """
    _, _, ak = space.tensors()
    dm, dk = space.dim_m, space.dim_k
    step = max(1, dm // dk)
    basis = (seed_vector / np.linalg.norm(seed_vector))[:, None]
    pending = basis
    while pending.shape[1] and basis.shape[1] < dm:
        block, pending = pending[:, :step], pending[:, step:]
        # cand[i, (s, f)] = (ad(k_s) block)[i, f]
        cand = (ak @ block).reshape(dk, dm, -1).transpose(1, 0, 2).reshape(dm, -1)
        for _ in range(2):                  # twice, so the projection is clean
            cand -= basis @ (basis.T @ cand)
        u, sv, _ = np.linalg.svd(cand, full_matrices=False)
        new = u[:, sv > tol]
        basis = np.hstack([basis, new])
        pending = np.hstack([pending, new])
    return basis.shape[1]


_BLOCK_SEED = 0          # seeds the element X of k whose X^T X cuts m into blocks
_CLUSTER_RTOL = 1e-6     # eigenvalues of X^T X closer than this share a block
_GRAM_SLAB_ENTRIES = 1 << 15    # Gram entries formed per slab of rows


def commutant_basis(space: OrderThreeSymmetricSpace, tol: float = 1e-7) -> list[np.ndarray]:
    """A basis of the operators on m that commute with every ad(k_s)|m.

    Any such S commutes with X = sum_s c_s ad(k_s) for every c, hence with the
    symmetric X^T X, so S preserves its eigenspaces: in an eigenbasis Q of
    X^T X, Q^T S Q is block diagonal, and each block S_i commutes with the
    block X_i of Q^T X Q.  X is a seeded random combination; that only keeps
    the blocks small (root planes for inner classes), since both statements
    hold for every X.  Eigenvalues are clustered loosely, so a multiplet is
    never split; merging two close ones only enlarges a block.

    The unknowns are the coordinates of the S_i in the commutant of X_i
    (2 per root plane), dim m of them for inner classes instead of dim m^2.
    With A_s = Q^T ad(k_s) Q and C = sum_s A_s^2, sum_s |[A_s, S]|^2 has, on
    the block entries, the Gram matrix
    G[(p,q),(r,t)] = 2 sum_s A_s[p,r] A_s[t,q] - C[p,r] d_qt - d_pr C[t,q]
    (d the Kronecker delta), formed in row slabs; the null space (eigenvalues
    below ``tol``) of G restricted to those coordinates is the commutant.
    """
    _, _, ak = space.tensors()
    dm, dk = space.dim_m, space.dim_k
    weights = np.random.default_rng(_BLOCK_SEED).standard_normal(dk)
    x = (weights @ ak.reshape((dk, dm * dm))).reshape(dm, dm)
    vals, q = np.linalg.eigh(x.T @ x)
    cuts = np.flatnonzero(np.diff(vals) > _CLUSTER_RTOL * max(vals[-1], 1.0)) + 1
    blocks = list(zip(np.concatenate([[0], cuts]), np.concatenate([cuts, [dm]])))
    rows = np.concatenate([np.repeat(np.arange(a, b), b - a) for a, b in blocks])
    cols = np.concatenate([np.tile(np.arange(a, b), b - a) for a, b in blocks])
    n = len(rows)
    step = max(1, _GRAM_SLAB_ENTRIES // n)
    gram = np.zeros((n, n))
    casimir = np.zeros((dm, dm))
    for s in range(dk):
        at = q.T @ (ak[s * dm:(s + 1) * dm] @ q)
        casimir += at @ at
        for lo in range(0, n, step):              # A[p, r] A[t, q] = -A[p, r] A[q, t]
            p, t = rows[lo:lo + step], cols[lo:lo + step]
            gram[lo:lo + step] -= at[p][:, rows] * at[t][:, cols]
    gram *= 2.0
    xt = q.T @ x @ q
    coords = []                                   # per block, the commutant of X_i
    start = 0
    for a, b in blocks:
        eye, end = np.eye(b - a), start + (b - a) ** 2
        c = casimir[a:b, a:b]                     # the C terms live on diagonal blocks
        gram[start:end, start:end] -= np.kron(c, eye) + np.kron(eye, c)
        op = np.kron(xt[a:b, a:b], eye) - np.kron(eye, xt[a:b, a:b].T)
        w, v = np.linalg.eigh(op.T @ op)
        coords.append(v[:, w < tol])
        start = end
    frame = sp.block_diag(coords, format="csr")
    gram = frame.T @ gram @ frame                 # rebinding frees the full Gram
    vals, vecs = np.linalg.eigh(gram)
    out = []
    for v in (frame @ vecs[:, vals < tol]).T:
        block = np.zeros((dm, dm))
        block[rows, cols] = v
        out.append(q @ block @ q.T)
    return out


def invariant_halves(space: OrderThreeSymmetricSpace, tol: float = 1e-7):
    """Split m into two ad(k)-invariant halves, or None if real-irreducible.

    Works through the symmetric part of the commutant of ad(k)|m
    (``commutant_basis``, solved block by block, at every dim m): a strict
    nontrivial symmetric commuting operator exists exactly when the action
    is real-reducible; its eigenspaces are the halves.
    """
    dm = space.dim_m
    eye = np.eye(dm)
    sym = []
    for mtx in commutant_basis(space, tol):
        s = (mtx + mtx.T) / 2.0
        if np.abs(s).max() > 1e-6:
            sym.append(s)
    # symmetric commutant spans {identity} iff real-irreducible
    flat = np.array([s.ravel() / np.linalg.norm(s) for s in sym] + [eye.ravel() / np.sqrt(dm)])
    rank = np.linalg.matrix_rank(flat, tol=1e-6)
    if rank <= 1:
        return None
    probe = next(
        s for s in sym
        if np.linalg.norm(s - (np.trace(s) / dm) * eye) > 1e-6
    )
    probe = probe - (np.trace(probe) / dm) * eye
    vals, vecs = np.linalg.eigh(probe)
    half = vecs[:, vals > 0]
    other = vecs[:, vals <= 0]
    return half, other


def classify_type(space: OrderThreeSymmetricSpace, seed: int = 11) -> TypeDecision:
    """Assign the nearly Kahler structure type of a realized space.

    Types I and II are confirmed on every space, whatever its dim m: a type-I
    label needs a generic ad(k)-orbit spanning m and no invariant halves, a
    type-II label two invariant halves of equal dimension.  Anything else
    raises ``ClassificationMismatch``.
    """
    label_map = {"A3IV": "I", "A3II": "III", "A3III": "IV", "C3": "II"}
    evidence: dict = {}
    if space.type_label == "A3I":
        return TypeDecision("hermitian-symmetric", {"kahler": True})
    if space.type_label == "B3":
        halves = invariant_halves(space)
        if halves is None:
            return TypeDecision("I", {"real_irreducible": True})
        evidence["half_dims"] = (halves[0].shape[1], halves[1].shape[1])
        return TypeDecision("II", evidence)
    label = label_map[space.type_label]
    if label in ("I", "II"):
        rng = np.random.default_rng(seed)
        spans = []
        for _ in range(3):
            spans.append(orbit_span_dim(space, rng.standard_normal(space.dim_m)))
            if spans[-1] == space.dim_m:
                break
        evidence["generic_orbit_span"] = max(spans)
        halves = invariant_halves(space)
        dims = None if halves is None else (halves[0].shape[1], halves[1].shape[1])
        if label == "I" and evidence["generic_orbit_span"] < space.dim_m:
            raise ClassificationMismatch(
                f"{space.name}: type I, but a generic ad(k)-orbit spans only "
                f"{evidence['generic_orbit_span']} of dim m = {space.dim_m}")
        if label == "I" and dims is not None:
            raise ClassificationMismatch(
                f"{space.name}: type I, but m splits into invariant halves {dims}")
        if label == "II" and (dims is None or dims[0] != dims[1]):
            raise ClassificationMismatch(
                f"{space.name}: type II needs two equal invariant halves, found "
                f"{dims if dims else 'none'}")
        if dims is not None:
            evidence["half_dims"] = dims
    return TypeDecision(label, evidence)
