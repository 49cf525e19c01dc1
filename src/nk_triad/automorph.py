"""Realizations of the order-3 automorphisms of the compact simple algebras.

The inner classes (``rootsys.InnerClass``) are realized as sigma =
Ad(exp 2 pi sqrt(-1) H), which rotates each U-plane by the angle 2 pi a(H).
The outer order-3 class lives on d4 (diagram rotation), and the cyclic class
on a triple l + l + l of one simple algebra.  Wolf-Gray labels: A3I-A3IV for
the inner classes, B3 (d4 triality), C3 (cyclic).

An inner class holds its exact data itself; the exact eigenvalues, fibrations
and tables read it from the class and never import this module.  A
realization adds only sigma and the k/m columns, held as sparse maps: every
construction gives sparse ones, and the tensors and J are sparse products of
them.  The tensors are X and K alone: K = [m, m]_k is the one isotropy
tensor, and its transpose is the action ad(k)|m that the commutant reads.

Realized spaces are immutable apart from their memoized tensors, curvature
and report; realizing independent spaces over one algebra is embarrassingly parallel.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from .chevalley import ChevalleyData
from .compactform import CompactAlgebra, adjoint_action_exp, drop_noise, slab_cuts
from .rootsys import (NK_TYPE, TRIALITY_NAME, ClassificationMismatch, InnerClass, NotOrderThree,
                      VerificationFailure)


class TrialityInconsistent(VerificationFailure):
    """The sign-adjusted diagram rotation is not an automorphism."""


_INVARIANT_TOL = 1e-9    # sigma^3 = 1, orthogonality and the k + m split
_SPAN_TOL = 1e-8         # numerical rank of orbit spans
_COMMUTANT_TOL = 1e-7    # null eigenvalues of the commutant equations


class OrderThreeSymmetricSpace:
    """A realized pair (g, sigma) with the orthogonal split g = k + m.

    ``sigma``, ``k_cols`` and ``m_cols`` are CSR, whatever the construction
    hands in: sigma is one 2 x 2 rotation per root plane (inner), a block
    permutation (cyclic) or a signed permutation with a 4 x 4 Cartan block
    (triality), and the orthonormal columns of k and m are identity columns
    (inner), at most three entries each (cyclic) or eigenvectors of d4
    (triality).  Every kind reaches the tensors the same way, as one sparse
    change of basis of the algebra's structure constants (``tensors``).

    ``weight_block`` (read-only, one int per m column) holds the torus-weight
    blocks that ``commutant_basis`` solves over: the columns of a root plane
    and of its copies, ordered by copy and then by parity, share one; -1 puts
    a column in one block that takes every entry (by default, all of m).  The
    first ``torus`` generators of k span a torus that keeps the blocks.
    """

    def __init__(self, algebra, type_label, sigma, k_cols, m_cols, h_spec=None,
                 layers=None, name="", weight_block=None, torus=0):
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
        self.weight_block = np.full(self.dim_m, -1) if weight_block is None else weight_block
        self.weight_block.flags.writeable = False
        self.torus = torus
        self._tensors = None
        self._curvature = None   # nk_analyzer.Curvature, built on first use
        self._report = None      # nk_analyzer.build_report, built on first use

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
        """(X, K), memoised CSR matrices over the m- and k-bases:

            X[(a, b), c] = xi[a, b, c] = -(1/2)<[m_a, m_b], m_c>   (dm^2, dm)
            K[(a, b), s] = <[m_a, m_b], k_s>                       (dm^2, dk)

        K is the space's one isotropy tensor: by ad-invariance
        K[(c, d), s] = <[k_s, m_c], m_d>, so K^T reshaped to (dk dm, dm) stacks
        the blocks ad(k_s)^T = -ad(k_s), and K K^T = R^min.  Entries below
        ``compactform.ZERO_DROP`` are dropped as float noise.
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
    """X = -(1/2) [M, M] M and K = [M, M] Kc, with M = m_cols, Kc = k_cols and
    [M, M] one ``_frame_bracket``."""
    m, k = space.m_cols, space.k_cols
    mm = _frame_bracket(space.algebra.C, m, m)              # [(a, b), l]: [m_a, m_b]
    return drop_noise((-0.5 * (mm @ m)).tocsr()), drop_noise((mm @ k).tocsr())


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
        weight_block=np.arange(2 * len(m_roots)) // 2, torus=rs.rank,
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
    for g in np.argsort(cd.rs.height, kind="stable"):
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
        ca, "B3", sigma, k_cols, m_cols, name=TRIALITY_NAME,
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
        name=TRIALITY_NAME,
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
    """g = l + l + l with sigma(X, Y, Z) = (Z, X, Y) and k the diagonal; the E and
    JE copies of a root plane share its block, the 2 rank Cartan columns are -1."""
    d, r = component.dim, component.rs.rank
    eye = sp.identity(d, format="csr")
    shift = np.roll(np.eye(3), 1, axis=0)            # block c -> block c + 1
    k_cols = np.ones((3, 1)) / np.sqrt(3)
    m_cols = np.array([[1, 1], [-1, 1], [0, -2]]) / np.sqrt([2.0, 6.0])   # E, JE
    space = OrderThreeSymmetricSpace(
        TripleAlgebra(component), "C3", sp.kron(shift, eye), sp.kron(k_cols, eye),
        sp.kron(m_cols, eye),
        layers={"E": list(range(d)), "JE": list(range(d, 2 * d))},
        name=f"({component.rs.type_label})^3 / diagonal",
        weight_block=np.tile(np.r_[np.full(r, -1), np.arange(d - r) // 2], 2), torus=r,
    )
    space.check_invariants()
    return space


# -- type classification ---------------------------------------------------------


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
    blocks = space.tensors()[1].T.reshape((dk * dm, dm))   # [(s, c), d] = ad(k_s)^T
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


def _null_space(gram: np.ndarray) -> np.ndarray:
    """Orthonormal eigenvectors of a symmetric PSD matrix below ``_COMMUTANT_TOL``."""
    vals, vecs = np.linalg.eigh(gram)
    return vecs[:, vals < _COMMUTANT_TOL]


def _places(block: np.ndarray):
    """(order, ids, at, starts, sizes, local) of a blocking: the columns sorted
    by block, the block ids, each column's index into ``ids``, each block's
    start in ``order`` and size, and each column's place in its block."""
    order = np.argsort(block, kind="stable")
    ids, at, sizes = np.unique(block, return_inverse=True, return_counts=True)
    starts = np.cumsum(sizes) - sizes
    local = np.empty(len(block), dtype=int)
    local[order] = np.arange(len(block)) - np.repeat(starts, sizes)
    return order, ids, at, starts, sizes, local


def _checked_blocks(space: OrderThreeSymmetricSpace, ak: sp.csr_matrix) -> np.ndarray:
    """``space.weight_block`` checked against the torus, the first ``space.torus``
    blocks A_s of ``ak``.  A torus entry between two blocks raises: the
    blocking splits a root plane.  Unless the blocking is all -1 (one block
    of every entry, exact for any action), the torus must turn the c copies
    in each block b by I_c (x) w_b J_2 and fix block -1, with the weights w_b
    nonzero and no two equal up to sign, so that the frame spans the whole
    commutant of the torus; else it raises.  Squared deviations below
    ``_COMMUTANT_TOL`` count as zero, as in the Gram."""
    dm, block, n = space.dim_m, space.weight_block, space.torus
    t = ak[:n * dm].tocoo()
    s, c, d = t.row // dm, t.row % dm, t.col
    if np.any(block[c] != block[d]):
        raise ClassificationMismatch(f"{space.name}: the torus of k joins two weight blocks of m")
    _, ids, at, _, sizes, local = _places(block)
    jay = np.sign(local[c] - local[d]) * (local[c] // 2 == local[d] // 2) * (block[c] >= 0)
    key = s * len(ids) + at[c]                          # (s, b): I_c (x) J_2 has norm^2 2c
    sums = lambda x: np.bincount(key, x, minlength=n * len(ids)).reshape(n, len(ids))
    proj = sums(t.data * jay)
    off = sums(t.data ** 2) - proj ** 2 / sizes
    w = (proj / sizes)[:, ids >= 0]                     # w[s, b]: the torus weights
    gram = w.T @ w
    apart = np.diag(gram)[:, None] + np.diag(gram) - 2.0 * np.abs(gram)   # |w_b -+ w_b'|^2
    np.fill_diagonal(apart, np.diag(gram))              # and |w_b|^2
    if (block < 0).all() or (off.max(initial=0.0) < _COMMUTANT_TOL
                             and apart.min(initial=np.inf) > _COMMUTANT_TOL):
        return block
    raise ClassificationMismatch(f"{space.name}: the torus of k breaks the weight blocks of m")


def _weight_frame(block: np.ndarray):
    """(p, q, coord, value): the entries of an orthonormal frame of operators
    on m, each entry in one frame operator.  A block of c copies of one root
    plane, its 2c columns ordered by copy and then by parity, gives the 2c^2
    operators (E_ij (x) I_2) / sqrt 2 and (E_ij (x) J_2) / sqrt 2, J_2 the
    plane's rotation; block -1 gives each entry among its columns."""
    order, _, at, starts, sizes, local = _places(block)
    reps = sizes[at]
    p = np.repeat(np.arange(len(block)), reps)          # every pair (p, q) in one block
    first = np.repeat(np.cumsum(reps) - reps, reps)     # where the pairs of each p begin
    q = order[np.repeat(starts[at], reps) + np.arange(len(p)) - first]
    (i, a), (j, b) = np.divmod(local[p], 2), np.divmod(local[q], 2)
    plane = block[p] >= 0
    key = np.where(plane, (((at[p] * len(block) + i) * len(block) + j) * 2 + (a != b)) * 2,
                   (p * len(block) + q) * 2 + 1)
    value = np.where(plane, np.where(a == b, 1.0, np.sign(a - b)) / np.sqrt(2.0), 1.0)
    return p, q, np.unique(key, return_inverse=True)[1], value


def _commutator_gram(ak: sp.csr_matrix, dm: int, frame) -> np.ndarray:
    """G[k, l] = sum_s <[A_s, S_k], [A_s, S_l]> over every block A_s = ad(k_s)^T
    of ``ak`` (K^T stacked as (dk dm, dm)) and the frame operators S_k.  As A_s
    is antisymmetric, [A_s, S_k] = A_s S_k + (A_s S_k^T)^T: one sparse product
    of a slab of generators, cut by ``slab_cuts``, with the frame laid out as
    [p, (q, k)] and [q, (p, k)] side by side; the commutators are stacked, one
    row per entry (s, i, j) they reach, and summed into G slab by slab."""
    p, q, coord, value = frame
    nc, dk = int(coord.max()) + 1, ak.shape[0] // dm
    rows, cols = np.r_[p, q], np.r_[q * nc, (dm + p) * nc] + np.tile(coord, 2)
    both = sp.csr_matrix((np.tile(value, 2), (rows, cols)), shape=(dm, 2 * dm * nc))
    gen = np.repeat(np.arange(ak.shape[0]), np.diff(ak.indptr)) // dm
    gram = np.zeros((nc, nc))
    for s0, s1 in slab_cuts(np.bincount(gen, np.diff(both.indptr)[ak.indices], minlength=dk)):
        t = (ak[s0 * dm:s1 * dm] @ both).tocoo()        # [(s, i), (half, j, k)]
        (s, i), (half, j), k = np.divmod(t.row, dm), np.divmod(t.col // nc, dm), t.col % nc
        entry = np.where(half, j * dm + i, i * dm + j)  # (i, j) of A_s S_k, (j, i) of -S_k A_s
        _, rows = np.unique(s * dm * dm + entry, return_inverse=True)
        stack = sp.csr_matrix((t.data, (rows, k)), shape=(rows.max(initial=-1) + 1, nc))
        gram += (stack.T @ stack).toarray()
    return gram


def commutant_basis(space: OrderThreeSymmetricSpace) -> list[np.ndarray]:
    """An orthonormal basis of the operators on m that commute with every ad(k_s)|m.

    Such an operator commutes with the torus of k, so it preserves each
    torus-weight space: it is block diagonal over ``space.weight_block``, and
    on c copies of one root plane, which the torus turns by multiples of the
    plane's rotation J_2, it lies in M_c (x) span(I_2, J_2) (``_weight_frame``:
    2 coordinates per root plane on inner classes, 8 on cyclic triples).
    Block -1 takes every entry among its columns, so an unblocked space (the
    d4 triality) is solved over all dim m^2 entries.  The blocks are checked
    against the torus (``_checked_blocks``); over their frame the commutant is
    the null space of the one Gram of |[A_s, S]|^2 summed over every generator
    (``_commutator_gram``), which is itself the exhaustive check.
    """
    dm = space.dim_m
    ak = space.tensors()[1].T.reshape((space.dim_k * dm, dm)).tocsr()
    p, q, coord, value = frame = _weight_frame(_checked_blocks(space, ak))
    coords = _null_space(_commutator_gram(ak, dm, frame))
    basis = np.zeros((coords.shape[1], dm, dm))
    basis[:, p, q] = (coords[coord] * value[:, None]).T
    return list(basis)


def invariant_halves(space: OrderThreeSymmetricSpace):
    """Split m into two ad(k)-invariant halves, or None if real-irreducible.

    Works through the symmetric part of the commutant of ad(k)|m
    (``commutant_basis``, over the torus-weight blocks, at every dim m): a
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
