"""Order-3 automorphisms of the compact simple algebras and their k + m splits.

Inner classes are parametrized by nodes of the Dynkin diagram carrying mark
1, 2 or 3 (singles), or by a pair of mark-1 nodes; the fixed element H
evaluates on roots through the exact rationals a(H) = sum_k c_k n_k(a)/m_k,
and sigma rotates each U-plane by the angle 2*pi*a(H).  The outer order-3
class lives on d4 (diagram rotation), and the cyclic class on a triple
l + l + l of one simple algebra.

Wolf-Gray labels: A3I (mark-1 node, Hermitian symmetric), A3II (mark-1 pair),
A3III (mark-2 node), A3IV (mark-3 node), B3 (d4 triality), C3 (cyclic).

An inner class holds its exact data: the levels a(H) (``InnerClass.levels``)
and the root split into k and the m-layers, index arrays over ``rs.roots``
memoised on the root system (``InnerClass.split``).  The exact eigenvalues,
fibrations and tables read them from the class; a realization adds only
sigma and the k/m columns, held as sparse maps: every construction gives
sparse ones, and the tensors and J are sparse products of them.

Realized spaces are immutable apart from memoized tensor caches; realizing
independent spaces over one shared algebra is embarrassingly parallel.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction

import numpy as np
import scipy.sparse as sp

from .chevalley import ChevalleyData
from .compactform import CompactAlgebra, NotOrderThree, adjoint_action_exp, drop_noise, slab_cuts
from .rootsys import InvalidRank, RootSystem, alpha_levels, diagram_automorphisms


class TrialityInconsistent(RuntimeError):
    """The sign-adjusted diagram rotation is not an automorphism."""


class ClassificationMismatch(RuntimeError):
    """The action of k on m contradicts the type its automorphism class names."""


_INVARIANT_TOL = 1e-9    # sigma^3 = 1, orthogonality and the k + m split
_SPAN_TOL = 1e-8         # numerical rank of orbit spans and of the fixed Cartan
_COMMUTANT_TOL = 1e-7    # null eigenvalues of the commutant equations

_SINGLE_KIND = {1: "A3I", 2: "A3III", 3: "A3IV"}   # by the mark of the node
# the m-layer of a root by the weighted sum of its coefficients on the nodes
_LAYERS = {"A3II": ((1, 2), {3: "V1", 1: "V2", 2: "V3"}),   # (n_i, n_j) = (1, 1)/(1, 0)/(0, 1)
           "A3III": ((1,), {2: "V", 1: "H"})}                # n_i = 2/1


def _read_only(arr: np.ndarray) -> np.ndarray:
    arr.flags.writeable = False
    return arr


@dataclass(frozen=True)
class InnerClass:
    """An inner order-3 conjugacy class, H = sum_k coeff_k * H_{node_k}."""

    kind: str                      # A3I | A3II | A3III | A3IV
    nodes: tuple[int, ...]         # 1-based simple-root indices
    coeffs: tuple[Fraction, ...]

    @classmethod
    def of_nodes(cls, rs: RootSystem, nodes: tuple[int, ...]) -> InnerClass:
        """The class of one node of mark m in {1, 2, 3} (H = (m/3) H_node) or of
        two distinct mark-1 nodes (H = (H_i + H_j)/3, nodes i < j whatever their
        order in ``nodes``); ``InvalidRank`` otherwise."""
        if not nodes or len(nodes) > 2 or any(not 1 <= n <= rs.rank for n in nodes):
            raise InvalidRank(f"--nodes must name one or two of 1..{rs.rank}")
        marks = [rs.marks[n - 1] for n in nodes]
        if len(nodes) == 2:
            if marks != [1, 1] or nodes[0] == nodes[1]:
                raise InvalidRank("a node pair needs two distinct mark-1 nodes")
            return cls("A3II", tuple(sorted(nodes)), (Fraction(1, 3), Fraction(1, 3)))
        if marks[0] not in _SINGLE_KIND:
            raise InvalidRank(f"node {nodes[0]} has mark {marks[0]}; an order-3 class "
                              f"needs a node of mark 1, 2 or 3")
        return cls(_SINGLE_KIND[marks[0]], tuple(nodes), (Fraction(marks[0], 3),))

    def levels(self, rs: RootSystem) -> tuple[np.ndarray, int]:
        """a(H) mod 1 on every root of ``rs.roots`` as int numerators over d (``alpha_levels``)."""
        return alpha_levels(rs, zip(self.nodes, self.coeffs))

    def __post_init__(self):     # Fractions hash in Python code: hash the fields once
        object.__setattr__(self, "_hash", hash((self.kind, self.nodes, self.coeffs)))

    def __hash__(self) -> int:   # each memo read of ``split`` hashes the class
        return self._hash

    def split(self, rs: RootSystem) -> tuple[dict[str, np.ndarray], np.ndarray]:
        """(layers, k): the indices in ``rs.roots`` of the positive roots of each
        m-layer and of k, as read-only ascending int arrays.

        k holds the roots with a(H) = 0 mod 1 (Wolf-Gray).  The m-roots are
        layered by their coefficients on the defining nodes: V1/V2/V3 by
        (n_i, n_j) = (1, 1)/(1, 0)/(0, 1) on a pair, V/H by n_i = 2/1 on a
        mark-2 node, and one layer m otherwise.  Layers come in the order of
        their first root, and an empty one is left out.  Memoised on ``rs``;
        the dict is shared, so callers must not modify it.
        """
        split = rs._splits.get(self)
        if split is None:
            weights, names = _LAYERS.get(self.kind, ((0,), {0: "m"}))
            fixed = self.levels(rs)[0][:rs.n_positive] == 0
            m, k = np.flatnonzero(~fixed), np.flatnonzero(fixed)
            key = sum(w * rs._coeffs[m, node - 1] for node, w in zip(self.nodes, weights))
            # dict.fromkeys keeps the layers in the order of their first root
            layers = {names[x]: _read_only(m[key == x]) for x in dict.fromkeys(key.tolist())}
            split = rs._splits[self] = layers, _read_only(k)
        return split

    def describe(self) -> str:
        inner = " + ".join(
            (f"{c}*H{n}" if c != 1 else f"H{n}") for n, c in zip(self.nodes, self.coeffs)
        )
        return f"{self.kind}: H = {inner}"


def enumerate_inner_order3(rs: RootSystem, dedup: bool = False) -> list[InnerClass]:
    """All inner order-3 classes; optionally one per diagram-symmetry orbit."""
    marks = rs.marks
    out = [InnerClass.of_nodes(rs, (i,)) for i in range(1, rs.rank + 1)
           if marks[i - 1] in _SINGLE_KIND]
    out += [InnerClass.of_nodes(rs, pair)
            for pair in itertools.combinations(range(1, rs.rank + 1), 2)
            if marks[pair[0] - 1] == marks[pair[1] - 1] == 1]
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

    ``sigma``, ``k_cols`` and ``m_cols`` are CSR, whatever the construction
    hands in: sigma is one 2 x 2 rotation per root plane (inner), a block
    permutation (cyclic) or a signed permutation with a 4 x 4 Cartan block
    (triality), and the orthonormal columns of k and m are identity columns
    (inner), at most three entries each (cyclic) or eigenvectors of d4
    (triality).  Every kind reaches the tensors the same way, as one sparse
    change of basis of the algebra's structure constants (``tensors``).
    """

    def __init__(self, algebra, type_label, sigma, k_cols, m_cols, h_spec=None,
                 layers=None, name=""):
        self.algebra = algebra
        self.type_label = type_label
        self.sigma = sp.csr_matrix(sigma)
        self.k_cols = sp.csr_matrix(k_cols)
        self.m_cols = sp.csr_matrix(m_cols)
        self.h_spec = h_spec
        self.layers = layers or {}
        self.name = name or type_label
        self.dim_k = k_cols.shape[1]
        self.dim_m = m_cols.shape[1]
        self._tensors = None
        self._curvature = None   # nk_analyzer.Curvature, built on first use

    # -- geometry ------------------------------------------------------------

    def check_invariants(self) -> None:
        s, tol = self.sigma, _INVARIANT_TOL
        eye, ss = sp.identity(s.shape[0], format="csr"), s @ s
        worst = lambda mat: np.abs(mat.data).max(initial=0.0)    # over the stored entries
        if worst(ss @ s - eye) > tol:
            raise NotOrderThree("sigma^3 != id")
        if worst(s - eye) < tol:
            raise NotOrderThree("sigma == id")
        if worst(s.T @ s - eye) > tol:
            raise NotOrderThree("sigma is not orthogonal")
        if worst(s @ self.k_cols - self.k_cols) > tol:
            raise NotOrderThree("k is not fixed by sigma")
        if worst((eye + s + ss) @ self.m_cols) > tol:
            raise NotOrderThree("m is not annihilated by 1 + sigma + sigma^2")
        if self.dim_m % 2:
            raise NotOrderThree("dim m must be even")

    def tensors(self):
        """(X, K, A'), memoised CSR matrices over the m- and k-bases:

            X[(a, b), c] = xi[a, b, c] = -(1/2)<[m_a, m_b], m_c>   (dm^2, dm)
            K[(a, b), s] = <[m_a, m_b], k_s>                       (dm^2, dk)
            A'[s, (c, d)] = <[k_s, m_c], m_d>                      (dk, dm^2)

        Row s of A' is the isotropy action ad(k_s)|m read transposed: reshaped
        to (dk dm, dm), its blocks are ad(k_s)^T = -ad(k_s), and K A' = R^min.
        Entries below ``compactform.ZERO_DROP`` are dropped as float noise.
        """
        if self._tensors is None:
            self._tensors = _build_tensors(self)
        return self._tensors

    def _bracket_preservation_worst(self) -> tuple[float, tuple[int, int]]:
        """The largest bracket-preservation residual and the first pair (i, j)
        where it occurs: row (i, j) of C sigma^T is sigma[e_i, e_j], and of
        ``_frame_bracket(C, sigma, sigma)`` it is [sigma e_i, sigma e_j]."""
        c, s = self.algebra.C, self.sigma
        res = abs(c @ s.T - _frame_bracket(c, s, s)).max(axis=1).toarray().ravel()
        at = int(res.argmax())
        return float(res[at]), divmod(at, self.algebra.dim)


def _build_tensors(space: OrderThreeSymmetricSpace):
    """X = -(1/2) [M, M] M, K = [M, M] Kc and A' = [Kc, M] M, with M = m_cols,
    Kc = k_cols and both brackets read off one ``_frame_bracket`` of [M Kc] and M."""
    m, k, dm = space.m_cols, space.k_cols, space.dim_m
    both = _frame_bracket(space.algebra.C, sp.hstack([m, k], format="csr"), m)
    mm = both[:dm * dm]                                     # [(a, b), l]: [m_a, m_b]
    xi = drop_noise((-0.5 * (mm @ m)).tocsr())
    kc = drop_noise((mm @ k).tocsr())
    ap = drop_noise((both[dm * dm:] @ m).reshape((space.dim_k, dm * dm)).tocsr())
    return xi, kc, ap


def _frame_bracket(c: sp.csr_matrix, first: sp.csr_matrix, second: sp.csr_matrix) -> sp.csr_matrix:
    """B[(a, b), l] = sum_{i,j} first[i, a] second[j, b] C[(i, j), l], the brackets
    of two column frames in the algebra basis.

    C read as [i, (j, l)] takes first^T on the left; re-indexed to [j, (a, l)]
    it takes second^T.  No kron(first, second) is formed, so each product
    holds about as many entries as the brackets.
    """
    d, na, nb = c.shape[1], first.shape[1], second.shape[1]
    t = (first.T @ c.reshape((d, d * d))).tocoo()           # [a, (j, l)]
    j, l = np.divmod(t.col, d)
    t = (second.T @ sp.csr_matrix((t.data, (j, t.row * d + l)), shape=(d, na * d))).tocoo()
    a, l = np.divmod(t.col, d)                              # t: [b, (a, l)]
    return sp.csr_matrix((t.data, (a * nb + t.row, l)), shape=(na * nb, d))


# -- inner realization ---------------------------------------------------------


def realize_inner(ca: CompactAlgebra, spec: InnerClass, name: str = "") -> OrderThreeSymmetricSpace:
    """The space of an inner class: sigma = Ad(exp 2 pi sqrt(-1) H) and k, m
    spanned by basis columns, as ``spec.split`` assigns the roots (the m-roots
    in ``rs.roots`` order)."""
    rs, pair = ca.rs, np.arange(2)
    layer_roots, k_roots = spec.split(rs)
    m_roots = np.sort(np.concatenate(list(layer_roots.values())))
    layers = {lbl: (2 * np.searchsorted(m_roots, roots)[:, None] + pair).ravel().tolist()
              for lbl, roots in layer_roots.items()}
    planes = lambda roots: ca.u_index(roots[:, None], pair).ravel()
    eye = sp.identity(ca.dim, format="csc")
    space = OrderThreeSymmetricSpace(
        ca, spec.kind, adjoint_action_exp(ca, *spec.levels(rs)),
        eye[:, np.r_[:rs.rank, planes(k_roots)]], eye[:, planes(m_roots)], h_spec=spec,
        layers=layers, name=name or f"{rs.type_label} {spec.describe()}",
    )
    space.check_invariants()
    return space


# -- d4 triality ---------------------------------------------------------------


def _rotation_signs(cd: ChevalleyData, image: list[int]) -> list[int]:
    """eps per positive root, with sigma(E_a) = eps_a E_{s(a)} for the diagram
    rotation s (``image[k]`` the index of s(root k)): +1 on the simple roots,
    then, in order of height,

        eps_g = eps_e eps_h sign[e, h] sign[s(e), s(h)]

    for the extraspecial pair (e, h) of g, so that sigma preserves the bracket
    [E_e, E_h] = N_{e,h} E_g; |N| is rotation invariant.  The other
    decompositions are left to the bracket-preservation check."""
    eps = [1] * cd.n
    for g in sorted(range(cd.n), key=lambda k: sum(cd.roots[k])):
        e, h = cd.extraspecial[g]
        if e >= 0:
            eps[g] = eps[e] * eps[h] * int(cd.sign[e, h] * cd.sign[image[e], image[h]])
    return eps


def realize_triality_d4(ca: CompactAlgebra) -> OrderThreeSymmetricSpace:
    """Outer order-3 automorphism of so(8) induced by the diagram rotation.

    The rotation alpha_1 -> alpha_3 -> alpha_4 -> alpha_1 need not preserve a
    given sign convention; the root vectors are rescaled by the signs of
    ``_rotation_signs``, and sigma(E_a) = eps_a E_{s(a)} is then checked to
    preserve the bracket on every basis pair.
    """
    rs = ca.rs
    if (rs.family, rs.rank) != ("d", 4):
        raise TrialityInconsistent("triality requires the d4 compact form")
    perm = [2, 1, 3, 0]  # image node of each 0-based node: 0->2, 1->1, 2->3, 3->0
    source = np.argsort(perm).tolist()                      # the node mapped onto each node
    image = [rs.root_index[tuple(c[i] for i in source)] for c in rs.roots[:rs.n_positive]]
    eps = _rotation_signs(ca.cd, image)

    sigma = np.zeros((ca.dim, ca.dim))
    # Cartan block: iH_{alpha_j} -> iH_{alpha_{perm(j)}} expressed on the
    # orthonormalized basis rows
    cmat = ca._chol_inv
    sigma[:4, :4] = np.linalg.inv(cmat.T) @ np.eye(4)[perm].T @ cmat.T     # [perm j, j] = 1
    for k, ki in enumerate(image):
        for p in (0, 1):
            sigma[ca.u_index(ki, p), ca.u_index(k, p)] = eps[k]

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
    j = (2.0 * m_cols.T @ sigma @ m_cols + np.eye(space.dim_m)) / np.sqrt(3.0)
    half = halves[0].shape[1]
    space = OrderThreeSymmetricSpace(
        ca, "B3", sigma, k_cols, np.hstack([m_cols @ halves[0], m_cols @ (j @ halves[0])]),
        layers={"E": list(range(half)), "JE": list(range(half, 2 * half))},
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
    eye = sp.identity(d, format="csr")
    shift = np.roll(np.eye(3), 1, axis=0)            # block c -> block c + 1
    k_cols = np.ones((3, 1)) / np.sqrt(3)
    m_cols = np.array([[1, 1], [-1, 1], [0, -2]]) / np.sqrt([2.0, 6.0])   # E, JE
    space = OrderThreeSymmetricSpace(
        TripleAlgebra(component), "C3", sp.kron(shift, eye), sp.kron(k_cols, eye),
        sp.kron(m_cols, eye),
        layers={"E": list(range(d)), "JE": list(range(d, 2 * d))},
        name=f"({component.rs.type_label})^3 / diagonal",
    )
    space.check_invariants()
    return space


# -- type classification ---------------------------------------------------------


# the nearly Kahler type each automorphism class names
NK_TYPE = {"A3I": "hermitian-symmetric", "A3II": "III", "A3III": "IV", "A3IV": "I",
           "B3": "II", "C3": "II"}


def orbit_span_dim(space: OrderThreeSymmetricSpace, seed_vector: np.ndarray) -> int:
    """Dimension of the smallest ad(k)-invariant subspace containing the vector.

    Block Krylov iteration: every ad(k_s) is applied to a few pending basis
    vectors at once (about dim m columns per step), the span so far is
    projected out, and the left singular vectors above ``_SPAN_TOL`` join the
    orthonormal basis and the pending queue.  It stops when the queue is
    empty or the span reaches dim m.  Columns below ``_SPAN_TOL`` are dropped
    before each projection: from a basis vector such as a root vector most
    ad(k_s) images vanish or already lie in the span.  ``classify_type`` does
    not call it (``invariant_halves`` decides irreducibility); the tests use
    it as an independent check of the halves.
    """
    dm, dk = space.dim_m, space.dim_k
    blocks = space.tensors()[2].reshape((dk * dm, dm))     # [(s, c), d] = ad(k_s)^T
    step = max(1, dm // dk)
    basis = (seed_vector / np.linalg.norm(seed_vector))[:, None]
    pending = basis
    while pending.shape[1] and basis.shape[1] < dm:
        block, pending = pending[:, :step], pending[:, step:]
        # cand[i, (s, f)] = (ad(k_s)^T block)[i, f], which spans what ad(k_s) block spans
        cand = (blocks @ block).reshape(dk, dm, -1).transpose(1, 0, 2).reshape(dm, -1)
        for _ in range(2):                  # twice, so the projection is clean
            cand = cand[:, np.linalg.norm(cand, axis=0) > _SPAN_TOL]
            cand -= basis @ (basis.T @ cand)
        u, sv, _ = np.linalg.svd(cand, full_matrices=False)
        new = u[:, sv > _SPAN_TOL]
        basis = np.hstack([basis, new])
        pending = np.hstack([pending, new])
    return basis.shape[1]


_BLOCK_SEED = 0          # seeds the elements X, Y of k: X^T X cuts m into blocks
_CLUSTER_RTOL = 1e-6     # eigenvalues of X^T X closer than this share a block


def _draw(dk: int) -> np.ndarray:
    """The weights of X and Y over the generators of k, one seeded draw each."""
    return np.random.default_rng(_BLOCK_SEED).standard_normal((2, dk))


def _null_space(gram: np.ndarray) -> np.ndarray:
    """Orthonormal eigenvectors of a symmetric PSD matrix below ``_COMMUTANT_TOL``."""
    vals, vecs = np.linalg.eigh(gram)
    return vecs[:, vals < _COMMUTANT_TOL]


def _block_frame(x: np.ndarray):
    """(Q, rows, cols, frame) for a generic X in ad(k)|m.

    Q is an eigenbasis of X^T X; its clusters of eigenvalues cut m into
    blocks, and (rows, cols) lists the entries of the blocks.  ``frame``
    (sparse, entries x coordinates, orthonormal columns) spans the
    block-diagonal matrices whose blocks commute with the blocks X_i of
    Q^T X Q, solved for all blocks of one size in one stacked ``eigh``.
    Eigenvalues are clustered loosely, so a multiplet is never split;
    merging two close ones only enlarges a block.
    """
    dm = x.shape[0]
    vals, q = np.linalg.eigh(x.T @ x)
    cuts = np.flatnonzero(np.diff(vals) > _CLUSTER_RTOL * max(vals[-1], 1.0)) + 1
    bounds = np.concatenate([[0], cuts, [dm]])
    sizes = np.diff(bounds)
    xt = q.T @ x @ q
    rows, cols, data, at, coord = [], [], [], [], []
    n = ncoords = 0
    for b in np.unique(sizes):
        idx = bounds[:-1][sizes == b][:, None] + np.arange(b)       # (blocks, b)
        xb = xt[idx[:, :, None], idx[:, None, :]]
        eye = np.eye(b)
        # [X_i, S_i] on S_i[p, q], as one (b^2, b^2) operator per block
        op = (xb[:, :, None, :, None] * eye[None, None, :, None, :]
              - eye[None, :, None, :, None] * xb.transpose(0, 2, 1)[:, None, :, None, :])
        op = op.reshape(-1, b * b, b * b)
        w, v = np.linalg.eigh(op.transpose(0, 2, 1) @ op)
        blk, k = np.nonzero(w < _COMMUTANT_TOL)
        data.append(v[blk, :, k].ravel())
        at.append((n + blk[:, None] * b * b + np.arange(b * b)).ravel())
        coord.append(np.repeat(ncoords + np.arange(blk.size), b * b))
        rows.append(np.broadcast_to(idx[:, :, None], (len(idx), b, b)).ravel())
        cols.append(np.broadcast_to(idx[:, None, :], (len(idx), b, b)).ravel())
        n, ncoords = n + idx.size * b, ncoords + blk.size
    frame = sp.csr_matrix((np.concatenate(data), (np.concatenate(at), np.concatenate(coord))),
                          shape=(n, ncoords))
    return q, np.concatenate(rows), np.concatenate(cols), frame


def commutant_basis(space: OrderThreeSymmetricSpace) -> list[np.ndarray]:
    """A basis of the operators on m that commute with every ad(k_s)|m.

    Two seeded random elements X and Y of k generate k (Kuranishi, Nagoya
    Math. J. 2, 1951), so their joint commutant is the commutant of k.  Any S
    commuting with X commutes with the symmetric X^T X, hence preserves its
    eigenspaces: in an eigenbasis Q of X^T X, Q^T S Q is block diagonal and
    each block commutes with the block X_i of Q^T X Q (``_block_frame``, 2
    coordinates per root plane on inner classes).  With Y' = Q^T Y Q and
    C = Y'^2, |[Y', S]|^2 has, on the block entries, the Gram matrix

        G[(p,q),(r,t)] = 2 Y'[p,r] Y'[t,q] - C[p,r] d_qt - d_pr C[t,q]

    (d the Kronecker delta), restricted to the block coordinates and summed
    over the row slabs of ``slab_cuts`` (n entries a row); its null space
    (eigenvalues below ``_COMMUTANT_TOL``) holds the candidates.  They are
    then checked against every ad(k_s) (``_check_candidates``).  The commutant lies inside the
    candidates whatever Y is drawn, so the check is exact; an unlucky Y only
    adds candidates for it to reject.
    """
    dm, dk = space.dim_m, space.dim_k
    ap = space.tensors()[2]
    x, y = (_draw(dk) @ ap).reshape(2, dm, dm)    # X^T, Y^T: the same commutant as X, Y
    q, rows, cols, frame = _block_frame(x)
    yt = q.T @ y @ q
    cas = yt @ yt
    n = len(rows)
    gram = np.zeros((frame.shape[1], frame.shape[1]))
    for lo, hi in slab_cuts(np.full(n, n)):        # Y'[t, q] = -Y'[q, t]
        p, t = rows[lo:hi, None], cols[lo:hi, None]
        slab = (-2.0 * yt[p, rows] * yt[t, cols]
                - cas[p, rows] * (t == cols) - (p == rows) * cas[t, cols])
        gram += frame[lo:hi].T @ (frame.T @ slab.T).T
    coords = (frame @ _null_space(gram)).T
    blocks = np.zeros((len(coords), dm, dm))
    blocks[:, rows, cols] = coords
    return _check_candidates(ap.reshape((dk * dm, dm)).tocsr(), dm, q @ blocks @ q.T)


def _check_candidates(ak: sp.csr_matrix, dm: int, cands: np.ndarray) -> list[np.ndarray]:
    """The combinations of the orthonormal candidates S_k that commute with
    every block A_s = ad(k_s)^T of ``ak``, A' stacked as (dk dm, dm), hence
    with every ad(k_s)|m: the null space of their Gram matrix

        sum_s <[A_s, S_k], [A_s, S_l]> = <S_k, W S_l + S_l W + 2 sum_s A_s S_l A_s>

    with W = sum_s A_s^T A_s, since each A_s is antisymmetric.  The
    candidates are held sparse (entries below ``ZERO_DROP`` dropped), and
    sum_s A_s S A_s is summed over the slabs of generators that ``slab_cuts``
    cuts by the bound on the entries of A_s S.
    """
    c, dk = len(cands), ak.shape[0] // dm
    if not c:
        return []
    mats = drop_noise(sp.csr_matrix(cands.transpose(1, 0, 2).reshape(dm, c * dm)))   # [S_1 .. S_c]
    gen = np.repeat(np.arange(ak.shape[0]), np.diff(ak.indptr)) // dm
    bound = np.bincount(gen, weights=np.diff(mats.indptr)[ak.indices], minlength=dk)
    img = np.zeros((c * dm, dm))                   # [(l, p), q]: sum_s A_s S_l A_s
    for s0, s1 in slab_cuts(bound):
        slab = ak[s0 * dm:s1 * dm]
        v = (slab @ mats).tocoo()                  # [(s, p), (l, r)]: A_s S_l
        (s, p), (l, r) = np.divmod(v.row, dm), np.divmod(v.col, dm)
        v = sp.csr_matrix((v.data, (l * dm + p, s * dm + r)), shape=(c * dm, slab.shape[0]))
        img += (v @ slab).toarray()
    w = ak.T @ ak
    ws = (w @ mats).toarray().reshape(dm, c, dm).transpose(1, 0, 2)     # W S_l
    sw = (cands.reshape(c * dm, dm) @ w).reshape(c, dm, dm)              # S_l W
    img = 2.0 * img.reshape(c, dm, dm) + ws + sw
    null = _null_space(np.tensordot(cands, img, axes=([1, 2], [1, 2])))
    return list(np.tensordot(null.T, cands, axes=1))


def invariant_halves(space: OrderThreeSymmetricSpace):
    """Split m into two ad(k)-invariant halves, or None if real-irreducible.

    Works through the symmetric part of the commutant of ad(k)|m
    (``commutant_basis``, from two seeded elements of k, at every dim m): a
    symmetric commuting operator other than a scalar exists exactly when the
    action is real-reducible.  The basis is orthonormal, so the symmetric
    commutant is more than the scalars exactly when the trace-free symmetric
    part of some basis element is not small; the first such part splits m by
    the signs of its eigenvalues.
    """
    dm = space.dim_m
    for mtx in commutant_basis(space):
        s = (mtx + mtx.T) / 2.0
        s -= (np.trace(s) / dm) * np.eye(dm)
        if np.linalg.norm(s) > 1e-6:
            vals, vecs = np.linalg.eigh(s)
            return vecs[:, vals > 0], vecs[:, vals <= 0]
    return None


def classify_type(space: OrderThreeSymmetricSpace) -> str:
    """The nearly Kahler type of a realized space: I, II, III, IV or
    hermitian-symmetric, as its automorphism class names it (``NK_TYPE``).

    Types I and II are confirmed on every space, whatever its dim m, by
    ``invariant_halves`` alone: a type-I label needs no invariant halves (an
    orthogonal action whose symmetric commutant is the scalars is irreducible,
    so every nonzero orbit spans m), a type-II label two invariant halves of
    equal dimension.  Anything else raises ``ClassificationMismatch``.
    """
    label = NK_TYPE[space.type_label]
    if label not in ("I", "II"):
        return label
    halves = invariant_halves(space)
    dims = None if halves is None else (halves[0].shape[1], halves[1].shape[1])
    if label == "I" and dims is not None:
        raise ClassificationMismatch(
            f"{space.name}: type I, but m splits into invariant halves {dims}")
    if label == "II" and (dims is None or dims[0] != dims[1]):
        raise ClassificationMismatch(
            f"{space.name}: type II needs two equal invariant halves, found "
            f"{dims if dims else 'none'}")
    return label
