import cProfile
import functools
import itertools
import math
import operator
import pstats
from fractions import Fraction

import numpy as np
import pytest
import scipy.sparse as sp

from nk_triad.automorph import _SPAN_TOL
from nk_triad.chevalley import SignInconsistency
from nk_triad.compactform import SLAB_ENTRIES, ZERO_DROP
from nk_triad.fibration import NotInvolutive
from nk_triad.nk_analyzer import _max_abs, _vertical_split, curvature, tensor_r
from nk_triad.rootsys import NotARoot, RootSystem, SubsystemType
from nk_triad.tables import _ROOTSYS, cached_algebra, cached_root_system


@pytest.fixture(scope="session")
def algebra():
    """Session-cached compact-form factory."""
    return cached_algebra


@pytest.fixture(scope="session")
def rootsys():
    return cached_root_system


def rational_rank(vectors):
    """Rank by Gaussian elimination over Fraction rows (reference)."""
    rows = [[Fraction(c) for c in v] for v in vectors]
    rank = 0
    ncols = len(rows[0]) if rows else 0
    col = 0
    while rank < len(rows) and col < ncols:
        pivot = next((r for r in range(rank, len(rows)) if rows[r][col]), None)
        if pivot is None:
            col += 1
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        lead = rows[rank][col]
        for r in range(len(rows)):
            if r != rank and rows[r][col]:
                factor = rows[r][col] / lead
                rows[r] = [x - factor * y for x, y in zip(rows[r], rows[rank])]
        rank += 1
        col += 1
    return rank


def _matrices_isomorphic(a, b) -> bool:
    """Whether two Cartan matrices agree up to a permutation of the nodes."""
    n = len(a)
    if len(b) != n:
        return False
    sig = lambda m, i: tuple(sorted(m[i][j] * m[j][i] for j in range(n) if j != i and m[i][j]))
    asig = [(a[i][i], sig(a, i)) for i in range(n)]
    bsig = [(b[i][i], sig(b, i)) for i in range(n)]
    if sorted(asig) != sorted(bsig):
        return False

    def extend(mapping):
        if len(mapping) == n:
            return True
        i = len(mapping)
        used = set(mapping.values())
        for j in range(n):
            if j in used or asig[i] != bsig[j]:
                continue
            if all(a[i][k] == b[j][mapping[k]] and a[k][i] == b[mapping[k]][j]
                   for k in mapping):
                mapping[i] = j
                if extend(mapping):
                    return True
                del mapping[i]
        return False

    return extend({})


@functools.cache
def _candidate_cartan(family, rank):
    try:
        return RootSystem(family, rank).cartan_matrix
    except ValueError:
        return None


def _identify_component(cartan):
    """Reference naming: the first candidate type of the same rank whose
    Cartan matrix is isomorphic (a before b before c, so a1, b2, a3 are
    canonical)."""
    rank = len(cartan)
    for family in "abcdefg":
        candidate = _candidate_cartan(family, rank)
        if candidate is not None and _matrices_isomorphic(cartan, candidate):
            return family, rank
    raise AssertionError(f"rank-{rank} component matches no simple type")


def root_inner(rs, a, b) -> Fraction:
    """Exact inner product of two coefficient vectors of ``rs``: an int sum
    over 6 x Gram, over 6."""
    b = tuple(b)
    return Fraction(sum(x * sum(g * y for g, y in zip(row, b))
                        for x, row in zip(a, rs.gram6) if x), 6)


def all_roots(rs) -> list[tuple[int, ...]]:
    """The 2n roots of ``rs`` as coefficient tuples, in the order of
    ``rs.roots``: the positive roots, then their negatives."""
    pos = rs.roots[:rs.n_positive]
    return [*pos, *map(_neg, pos)]


def root_mask(rs, roots) -> np.ndarray:
    """The given roots as a boolean mask in ``rs.roots`` order; NotARoot for any other vector."""
    out = np.zeros(2 * rs.n_positive, dtype=bool)
    try:
        out[[rs.root_index[c] for c in map(tuple, roots)]] = True
    except KeyError as exc:
        raise NotARoot(f"{exc.args[0]} is not a root of {rs.type_label}") from None
    return out


def root_key(rs, a) -> int:
    """The additive int key of a root of ``rs``, unbounded: its coefficients as
    digits in base ``rs.key_base`` (``rs._keys64`` wraps from a28); NotARoot
    for any other vector."""
    c = tuple(a)
    if not rs.is_root(c):
        raise NotARoot(f"{c} is not a root of {rs.type_label}")
    return sum(x * rs.key_base ** i for i, x in enumerate(c))


def reference_positive_roots(rs) -> list[tuple[tuple[int, ...], Fraction]]:
    """(coefficients, squared length) of every positive root of ``rs``, sorted
    by coefficients: a breadth-first search from the simple roots that adds
    gamma + alpha_i when the alpha_i-string below gamma, probed on the
    positive and the negative roots found so far, is longer than
    <gamma, alpha_i^vee>, with the squared lengths from ``root_inner``."""
    rank = rs.rank
    simple = [tuple(int(i == j) for j in range(rank)) for i in range(rank)]
    known = set(simple)
    frontier = list(simple)
    while frontier:
        new = []
        for gamma in frontier:
            for i, col in enumerate(rs.gram6):
                # 2<gamma, alpha_i>/<alpha_i, alpha_i> is pairing6 / col[i], in ints
                pairing6 = 2 * sum(g * c for g, c in zip(col, gamma))
                down = 0
                probe = list(gamma)
                while True:
                    probe[i] -= 1
                    if tuple(probe) in known or _neg(probe) in known:
                        down += 1
                    else:
                        break
                if down * col[i] > pairing6:
                    up = tuple(c + int(i == j) for j, c in enumerate(gamma))
                    if up not in known:
                        known.add(up)
                        new.append(up)
        frontier = new
    return [(c, root_inner(rs, c, c)) for c in sorted(known)]


def involution_fixed_points(rs, h_nodes):
    """Positive roots fixed by Ad(exp 2 pi sqrt(-1) H'), H' = sum c_k H_k, from
    Fraction angles: the reference for the level-0 mask that
    ``fibration_subalgebras`` compares with V + k.

    Raises NotInvolutive unless the rotation is an involution (every angle a
    half-turn).
    """
    fixed = []
    for root in rs.roots[:rs.n_positive]:
        t = sum(c * Fraction(root[n - 1], rs.marks[n - 1]) for n, c in h_nodes) % 1
        if t == 0:
            fixed.append(root)
        elif t != Fraction(1, 2):
            raise NotInvolutive(f"root angle {t} is not a half-turn")
    return fixed


def fraction_subsystem_type(rs, roots, ambient_rank=None):
    """Reference classification on coefficient tuples: pairwise closure by
    is_root, indecomposables by tuple subtraction, the rank by Fraction
    elimination over all positives and the Cartan matrix from Fraction inner
    products."""
    subset = {tuple(r) for r in roots}
    for c in subset:
        assert rs.is_root(c), c
        assert tuple(-x for x in c) in subset, "not closed under negation"
    for x, y in itertools.combinations(subset, 2):
        s = tuple(a + b for a, b in zip(x, y))
        assert not (any(s) and rs.is_root(s) and s not in subset), "not closed"

    ambient = rs.rank if ambient_rank is None else ambient_rank
    positives = sorted(c for c in subset if rs.root_index[c] < rs.n_positive)
    torus = ambient - (rational_rank(positives) if positives else 0)
    if not positives:
        return SubsystemType((), torus)
    posset = set(positives)
    simples = [beta for beta in positives
               if not any(tuple(b - g for b, g in zip(beta, gamma)) in posset
                          for gamma in positives if gamma != beta)]
    m = len(simples)
    cartan = [[int(2 * root_inner(rs, a, b) / root_inner(rs, b, b)) for b in simples]
              for a in simples]
    comps, seen = [], set()
    for start in range(m):
        if start in seen:
            continue
        stack, comp = [start], []
        while stack:
            node = stack.pop()
            if node in seen:
                continue
            seen.add(node)
            comp.append(node)
            stack.extend(j for j in range(m) if j not in seen and cartan[node][j])
        comps.append(sorted(comp))
    names = [_identify_component([[cartan[i][j] for j in c] for i in c]) for c in comps]
    return SubsystemType(tuple(sorted(names)), torus)


def canonical_simple_type(family: str, rank: int) -> tuple[tuple[str, int], ...]:
    """Canonical component naming used by ``subsystem_type``, for round-trip tests."""
    if rank == 1:
        return (("a", 1),)
    if (family, rank) == ("c", 2):
        return (("b", 2),)
    if (family, rank) == ("d", 3):
        return (("a", 3),)
    return ((family, rank),)


@pytest.fixture(scope="session")
def subsystem_oracle():
    """The Fraction reference for ``rootsys.subsystem_type``."""
    return fraction_subsystem_type


@pytest.fixture(scope="session")
def positive_roots_oracle():
    """The breadth-first reference for ``RootSystem``'s positive roots."""
    return reference_positive_roots


@pytest.fixture(scope="session")
def rank_oracle():
    """The rank of integer vectors by Fraction elimination."""
    return rational_rank


@pytest.fixture(scope="session")
def fraction_count():
    """fn(*args) and the number of Fraction objects it constructed, by cProfile.

    The ``InnerClass.split`` memos of the cached root systems are emptied
    first, so the count covers the splits whatever ran before."""
    def count(fn, *args):
        for rs in _ROOTSYS.values():
            rs._splits.clear()
        prof = cProfile.Profile()
        result = prof.runcall(fn, *args)
        return result, sum(stat[1] for (path, _, name), stat in pstats.Stats(prof).stats.items()
                           if name == "__new__" and path.endswith("fractions.py"))
    return count


# -- reference a(H) and sigma -------------------------------------------------------


def alpha_value(cls, rs, root) -> Fraction:
    """Exact a(H) of an inner class on a root, using alpha_j(H_i) = delta_ij / m_i."""
    total = Fraction(0)
    for node, c in zip(cls.nodes, cls.coeffs):
        total += c * Fraction(root[node - 1], rs.marks[node - 1])
    return total


_SQRT3_2 = math.sqrt(3.0) / 2.0
_THIRD_TURNS = {Fraction(0): (1.0, 0.0), Fraction(1, 3): (-0.5, _SQRT3_2),
                Fraction(2, 3): (-0.5, -_SQRT3_2)}


def fraction_sigma(ca, cls) -> np.ndarray:
    """Ad(exp 2 pi sqrt(-1) H) of an order-3 inner class, each U-plane turned
    by the exact (cos, sin) of its Fraction angle a(H) mod 1."""
    mat = np.eye(ca.dim)
    for k, r in enumerate(ca.rs.roots[:ca.n_pos]):
        c, s = _THIRD_TURNS[alpha_value(cls, ca.rs, r) % 1]
        i0, i1 = ca.u_index(k, 0), ca.u_index(k, 1)
        mat[i0, i0], mat[i1, i0], mat[i0, i1], mat[i1, i1] = c, s, -s, c
    return mat


@pytest.fixture(scope="session")
def alpha_oracle():
    """The Fraction reference for ``InnerClass.levels``: (cls, rs, root) -> a(H)."""
    return alpha_value


@pytest.fixture(scope="session")
def sigma_oracle():
    """The Fraction-angle reference for ``compactform.adjoint_action_exp``: (ca, cls) -> sigma."""
    return fraction_sigma


def layer_epsilon(rs, spec) -> dict[str, int]:
    """Sign eps with J U0 = eps U1 per layer: +1 on a(H) = 1/3, -1 on 2/3."""
    levels, d = spec.levels(rs)
    return {label: 1 if 3 * levels[roots[0]] == d else -1
            for label, roots in spec.split(rs)[0].items()}


def bracket_preservation_residual(space) -> float:
    """max |sigma[e_i, e_j] - [sigma e_i, sigma e_j]| over every basis pair."""
    return space._bracket_preservation_worst()[0]


# -- reference fixed-algebra signature ----------------------------------------------


def fixed_algebra_root_signature(space):
    """(cartan rank, nonzero root count, length ratio) of the fixed algebra.

    The Cartan is taken inside the ambient Cartan; adjoint weights of the
    fixed algebra acting on itself are extracted numerically, so the result
    identifies small fixed algebras (g2 reads as (2, 12, 3.0)).
    """
    ca, tol = space.algebra, _SPAN_TOL
    rank = ca.rs.rank
    k = space.k_cols.toarray()
    p_fix = k @ k.T
    h_block = p_fix[:rank, :rank]
    vals, vecs = np.linalg.eigh(h_block)
    cartan = [np.pad(vecs[:, i], (0, ca.dim - rank)) for i in range(rank)
              if vals[i] > 1 - tol]
    mats = []
    for c in cartan:
        ad_c = sum(c[i] * ad(ca, i) for i in np.nonzero(np.abs(c) > tol)[0])
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


# -- the isotropy action and Lie triple systems of a realized space ------------------


def ad_k(space) -> np.ndarray:
    """ad(k_s)|m as a dense (dim k, dim m, dim m) array, read off K^T:
    K[(c, d), s] = <[k_s, m_c], m_d> = ad(k_s)[d, c]."""
    dm = space.dim_m
    return space.tensors()[1].T.toarray().reshape(space.dim_k, dm, dm).transpose(0, 2, 1)


def set_ad_k(space, act: np.ndarray):
    """``space`` with K replaced by the one whose action ``ad_k`` reads is the
    dense (dim k, dim m, dim m) array ``act``; X is kept."""
    dm = space.dim_m
    k = sp.csr_matrix(act.transpose(0, 2, 1).reshape(space.dim_k, dm * dm).T)
    space._tensors = (space.tensors()[0], k)
    return space


_LTS_TOL = 1e-9


def check_lie_triple_system(space, nu) -> bool:
    """[nu,nu]_m inside nu and [[nu,nu]_k, nu] inside nu, to tolerance.

    ``nu`` is either a list of m-basis positions or a dm x r column matrix.
    """
    xi, kc = space.tensors()
    dm = space.dim_m
    if isinstance(nu, np.ndarray) and nu.ndim == 2:
        cols = nu
    else:
        cols = np.eye(dm)[:, list(nu)]
    proj_out = np.eye(dm) - cols @ cols.T
    r = cols.shape[1]
    for a in range(r):
        for b in range(a + 1, r):
            pair = np.kron(cols[:, a], cols[:, b])
            # m-closure: [nu_a, nu_b]_m = -2 xi(nu_a, nu_b)
            if np.abs(proj_out @ (-2.0 * (xi.T @ pair))).max() > _LTS_TOL:
                return False
            # K[(c, d), s] = ad(k_s)[d, c]
            if np.abs(proj_out @ (kc @ (kc.T @ pair)).reshape(dm, dm).T @ cols).max() > _LTS_TOL:
                return False
    return True


# -- structure-constant and adjoint accessors ---------------------------------------


def root_pair(cd, a, b) -> tuple[int, int] | None:
    """Root indices of (a, b) in ``cd`` when a + b is a root, else None."""
    i, j = cd.index.get(tuple(a)), cd.index.get(tuple(b))
    if i is None or j is None or cd.plus[i, j] < 0:
        return None
    return i, j


def n_sign(cd, a, b) -> int:
    """The sign of N_{a,b}; NotARoot unless a + b is a root."""
    pair = root_pair(cd, a, b)
    if pair is None:
        raise NotARoot(f"{tuple(a)} + {tuple(b)} is not a root")
    return int(cd.sign[pair])


def n_squared(cd, a, b) -> Fraction:
    """Exact N_{a,b}^2; zero when a + b is not a root."""
    pair = root_pair(cd, a, b)
    return Fraction(0) if pair is None else Fraction(int(cd.n12[pair]), 12)


def ad(ca, i: int) -> sp.csr_matrix:
    """ad(e_i) on column vectors: the transposed slab C[(i, j), l] of ``ca``."""
    return ca.C[i * ca.dim:(i + 1) * ca.dim].T.tocsr()


# -- reference structure constants -------------------------------------------------


def _neg(c):
    return tuple(map(operator.neg, c))


def _add(a, b):
    return tuple(map(operator.add, a, b))


def _sub(a, b):
    return tuple(map(operator.sub, a, b))


def _sqrt_fraction(q):
    """Exact square root of a nonnegative fraction, or None."""
    if q < 0:
        return None
    num, den = math.isqrt(q.numerator), math.isqrt(q.denominator)
    if num * num == q.numerator and den * den == q.denominator:
        return Fraction(num, den)
    return None


class ReferenceChevalley:
    """The structure constants on coefficient tuples, with exact Fraction
    squares and dict-held signs: every pair (a, b) with a + b a root from
    string scans over the root keys, the extraspecial pair of each positive
    root first in height-then-lex order, and the signs propagated by
    recursion through the antisymmetries, the zero-sum triples and the
    four-term contraction against the extraspecial pair."""

    def __init__(self, rs):
        self.rs = rs
        pos = rs.roots[:rs.n_positive]
        self._order = {c: k for k, c in enumerate(sorted(pos, key=lambda c: (sum(c), c)))}
        self._roots = set(all_roots(rs))
        self.n_sq, self._sign, self._extraspecial = {}, {}, {}
        norm = {c: root_inner(rs, c, c) for c in self._roots}
        by_key = {root_key(rs, c): c for c in self._roots}
        for ka, a in by_key.items():
            for kb, b in by_key.items():
                gamma = by_key.get(ka + kb)
                if gamma is None:
                    continue
                q = 1
                while kb + (q + 1) * ka in by_key:
                    q += 1
                p = 0
                while kb + (p - 1) * ka in by_key:
                    p -= 1
                self.n_sq[(a, b)] = Fraction(q * (1 - p), 2) * norm[a]
                if a in self._order and b in self._order:
                    best = self._extraspecial.get(gamma)
                    if best is None or self._order[a] < self._order[best[0]]:
                        self._extraspecial[gamma] = (a, b)
        for key in self.n_sq:
            self._resolve_sign(*key)

    def _resolve_sign(self, a, b):
        key = (a, b)
        if key in self._sign:
            return self._sign[key]
        a_pos, b_pos = a in self._order, b in self._order
        if a_pos and b_pos:
            s = self._positive_pair_sign(a, b)
        elif not a_pos and not b_pos:
            s = -self._resolve_sign(_neg(a), _neg(b))
        else:
            c = _neg(_add(a, b))
            if c in self._order:
                s = self._resolve_sign(b, c) if b_pos else self._resolve_sign(c, a)
            else:
                s = -self._resolve_sign(_neg(b), _neg(c)) if not b_pos \
                    else -self._resolve_sign(_neg(c), _neg(a))
        self._sign[key] = s
        return s

    def _positive_pair_sign(self, a, b):
        key = (a, b)
        if key in self._sign:
            return self._sign[key]
        if self._order[a] > self._order[b]:
            s = -self._positive_pair_sign(b, a)
            self._sign[key] = s
            return s
        gamma = _add(a, b)
        eps, eta = self._extraspecial[gamma]
        if (a, b) == (eps, eta):
            s = 1
        else:
            # N_{a,b} N_{gamma,-eps} = -N_{-eps,a} N_{a-eps,b} - N_{b,-eps} N_{b-eps,a}
            t = []
            for x, y in (((_neg(eps), a), (_sub(a, eps), b)),
                         ((b, _neg(eps)), (_sub(b, eps), a))):
                mid = _add(*x)
                if mid in self._roots and any(mid):
                    t.append((self._resolve_sign(*x) * self._resolve_sign(*y),
                              self.n_sq[x] * self.n_sq[y]))
            if not t:
                raise SignInconsistency(f"no contraction terms for {a}+{b}")
            lhs_sq = self.n_sq[(a, b)] * self.n_sq[(gamma, _neg(eps))]
            if len(t) == 1:
                rhs_sign, rhs_sq = -t[0][0], t[0][1]
            else:
                if t[0][0] == t[1][0]:
                    rhs_sign = -t[0][0]
                elif t[0][1] == t[1][1]:
                    raise SignInconsistency(f"cancelling contraction at {a}+{b}")
                else:
                    rhs_sign = -t[0][0] if t[0][1] > t[1][1] else -t[1][0]
                cross = _sqrt_fraction(t[0][1] * t[1][1])
                if cross is None:
                    raise SignInconsistency(f"irrational contraction at {a}+{b}")
                rhs_sq = t[0][1] + t[1][1] + 2 * t[0][0] * t[1][0] * cross
            if rhs_sq != lhs_sq:
                raise SignInconsistency(f"magnitude mismatch at {a}+{b}")
            s = rhs_sign * self._resolve_sign(gamma, _neg(eps))
        self._sign[key] = s
        return s

    def n_value(self, a, b):
        key = (tuple(a), tuple(b))
        return self._sign[key] * math.sqrt(float(self.n_sq[key])) if key in self.n_sq else 0.0


def _uu_bracket(a, p, b, q, nab, nnab):
    """[U^p_a, U^q_b] for distinct positive roots, valid for p <= q."""
    out = []
    if nab:
        out.append((_add(a, b), (p + q) % 2, (-1.0) ** (p * q) * nab))
    if nnab:
        out.append((_sub(a, b), (p + q) % 2, (-1.0) ** (p + q) * nnab))
    return out


def reference_structure_constants(ca, ref):
    """C of ``ca`` rebuilt by a Python loop over the positive pairs, from the
    constants of ``ref`` (a ``ReferenceChevalley``) and the Cartan pairings
    ``ca.w``."""
    rs, d = ca.rs, ca.dim
    k, c = np.nonzero(np.abs(ca.w) >= ZERO_DROP)
    w = ca.w[k, c]
    u0, u1 = ca.u_index(k, 0), ca.u_index(k, 1)
    first, second, out, vals = [c, c, u0], [u0, u1, u1], [u1, u0, c], [w, -w, w]
    pos = {c: k for k, c in enumerate(rs.roots[:rs.n_positive])}
    terms = []
    for ka, a in enumerate(rs.roots[:ca.n_pos]):
        for kb in range(ka + 1, ca.n_pos):
            b = rs.roots[kb]
            n_ab = ref.n_value(a, b), ref.n_value(_neg(a), b)
            if not any(n_ab):
                continue
            n_ba = ref.n_value(b, a), ref.n_value(_neg(b), a)
            for p in (0, 1):
                for q in (0, 1):
                    if p <= q:
                        raw = _uu_bracket(a, p, b, q, *n_ab)
                    else:
                        raw = [(r, pr, -x) for r, pr, x in _uu_bracket(b, q, a, p, *n_ba)]
                    i, j = ca.u_index(ka, p), ca.u_index(kb, q)
                    for root, parity, coef in raw:
                        if root not in pos:   # fold U^0_{-c} = -U^0_c, U^1_{-c} = U^1_c
                            root, coef = _neg(root), (-coef if parity == 0 else coef)
                        terms.append((i, j, ca.u_index(pos[root], parity), coef))
    if terms:
        i, j, l, x = (np.array(t) for t in zip(*terms))
        first, second, out, vals = first + [i], second + [j], out + [l], vals + [x]
    i, j, l, x = (np.concatenate(t) for t in (first, second, out, vals))
    return sp.csr_matrix((np.concatenate([x, -x]), (np.concatenate([i * d + j, j * d + i]),
                                                    np.concatenate([l, l]))), shape=(d * d, d))


@pytest.fixture(scope="session")
def chevalley_oracle():
    """The tuple/Fraction reference for ``chevalley.ChevalleyData``."""
    return ReferenceChevalley


@pytest.fixture(scope="session")
def bracket_oracle():
    """The pair-loop reference for ``CompactAlgebra.C``: (ca, ref) -> C."""
    return reference_structure_constants


def reference_jacobi_worst(ca, rows=None):
    """The Jacobi sweep over every basis index i of ``rows`` (every index
    unless given) at once: three sparse products over all i, j and k and one
    COO sum of [[e_i,e_j],e_k] - [e_i,[e_j,e_k]] + [e_j,[e_i,e_k]] at
    [(i, j), (k, m)]; returns the largest residual and the first triple
    (i, j, k) where it occurs."""
    d, c = ca.dim, ca.C
    coo = c.tocoo()
    first, second = np.divmod(coo.row, d)
    t = sp.csr_matrix((coo.data, (first, second * d + coo.col)), shape=(d, d * d))
    s = sp.csr_matrix((coo.data, (second, first * d + coo.col)), shape=(d, d * d))
    rows = np.arange(d) if rows is None else np.unique(rows)
    own = (rows[:, None] * d + np.arange(d)).ravel()    # (i, x) for i in rows
    ci = c[own]
    lhs = (ci @ t).tocoo()                        # [(i, j), (k, m)]: [[e_i, e_j], e_k]
    outer = (c @ s[:, own]).tocoo()               # [(j, k), (i, m)]: [e_i, [e_j, e_k]]
    inner = (ci @ s).tocoo()                      # [(i, k), (j, m)]: [e_j, [e_i, e_k]]
    (li, lj), (lk, lm) = np.divmod(lhs.row, d), np.divmod(lhs.col, d)
    (oj, ok), (oi, om) = np.divmod(outer.row, d), np.divmod(outer.col, d)
    (ii, ik), (ij, im) = np.divmod(inner.row, d), np.divmod(inner.col, d)
    res = sp.coo_matrix(
        (np.concatenate([lhs.data, -outer.data, inner.data]),
         (np.concatenate([rows[li] * d + lj, rows[oi] * d + oj, rows[ii] * d + ij]),
          np.concatenate([lk * d + lm, ok * d + om, ik * d + im]))),
        shape=(d * d, d * d))
    res.sum_duplicates()                          # sorted by (i, j), then (k, m)
    if not np.abs(res.data).max(initial=0.0) > 0.0:
        return 0.0, (0, 0, 0)
    n = int(np.abs(res.data).argmax())
    i, j = divmod(int(res.row[n]), d)
    return float(abs(res.data[n])), (i, j, int(res.col[n]) // d)


@pytest.fixture(scope="session")
def jacobi_oracle():
    """The all-rows reference for ``CompactAlgebra._jacobi_worst``: ca -> (worst, triple)."""
    return reference_jacobi_worst


# -- reference minimal-connection identity and frame traces ---------------------------


def _dense_rows(mat, first, second, dm):
    """Rows (p, q) of a (dm^2, w) operator, p in first and q in second, as a
    dense (len(first), len(second), w) array."""
    rows = (np.asarray(first)[:, None] * dm + np.asarray(second)).ravel()
    return mat[rows].toarray().reshape(len(first), len(second), -1)


def reference_min_connection_worst(space, block=1 << 21):
    """max |R^min(x,u,v1,v2) - 4(<[xi_v1, xi_v2] x, u> - <xi_x u, xi_v1 v2>)| over
    every (x, u, v1, v2), x horizontal and v1, v2 vertical, by three dense
    einsums per block of about ``block`` tuples of horizontal x."""
    vert, horiz = _vertical_split(space)
    xi, kc = space.tensors()
    dm, everything = space.dim_m, np.arange(space.dim_m)
    xv = _dense_rows(xi, vert, everything, dm)
    kvv = _dense_rows(kc, vert, vert, dm)
    xvv = xv[:, vert]
    worst = 0.0
    step = max(1, block // (dm * len(vert) ** 2))
    for start in range(0, len(horiz), step):
        h = horiz[start:start + step]
        xh, kh = _dense_rows(xi, h, everything, dm), _dense_rows(kc, h, everything, dm)
        # rhs[x, u, a, b] / 4 = <[xi_va, xi_vb] e_x, e_u> - <xi_x e_u, xi_va e_vb>
        rhs = np.einsum("auj,bjx->xuab", xv, xv[:, :, h], optimize=True)
        rhs -= rhs.swapaxes(2, 3).copy()
        rhs -= np.einsum("xuk,abk->xuab", xh, xvv, optimize=True)
        rhs *= 4.0
        # R^min(e_x, e_u, e_va, e_vb) = <[[e_x, e_u]_k, e_va], e_vb>
        rhs -= np.einsum("xus,abs->xuab", kh, kvv, optimize=True)
        worst = max(worst, float(np.abs(rhs).max(initial=0.0)))
    return worst


def reference_frame_traces(space):
    """The two frame-trace residuals of the special-torsion suite by dense
    einsums: 8 sum_{i in F, k} xi[i,a,k] xi[i,b,k] against r on horizontal
    a, b, for the vertical and the horizontal frame F."""
    vert, horiz = _vertical_split(space)
    x, dm = space.tensors()[0], space.dim_m
    sub = tensor_r(space)[np.ix_(horiz, horiz)]
    out = {}
    for name, frame in (("vertical", vert), ("horizontal", horiz)):
        xf = _dense_rows(x, frame, horiz, dm)
        traced = 8.0 * np.einsum("iak,ibk->ab", xf, xf)
        out[f"trace_identity_{name}_frame"] = float(np.abs(traced - sub).max())
    return out


@pytest.fixture(scope="session")
def min_connection_oracle():
    """The blocked-einsum reference for ``verify_min_connection_identity``."""
    return reference_min_connection_worst


@pytest.fixture(scope="session")
def frame_trace_oracle():
    """The einsum reference for the frame traces of ``verify_sat_identities``."""
    return reference_frame_traces


# -- reference structure identities, curvature operator and identities ---------------


def _trace_bd(mat, dm: int) -> np.ndarray:
    """T[a, c] = sum_i M[a, i, c, i], the Ricci-type trace of an operator."""
    mat = mat.tocoo()
    keep = mat.row % dm == mat.col % dm
    return sp.coo_matrix((mat.data[keep], (mat.row[keep] // dm, mat.col[keep] // dm)),
                         shape=(dm, dm)).toarray()


def reference_structure_identities(space):
    """The structure residuals by sparse products with J, kron(I, J),
    kron(J, J) and kron(J^T, I) formed as matrices."""
    js = curvature(space).j
    x, kc = space.tensors()
    dm = space.dim_m
    eye = sp.identity(dm, format="csr")
    res = {}
    res["J_squared"] = _max_abs(js @ js + eye)
    res["J_isometry"] = _max_abs(js.T @ js - eye)
    res["xi_XX"] = _max_abs(x[np.arange(dm) * (dm + 1)])
    res["xi_J_anticommute"] = _max_abs(x @ js + sp.kron(eye, js) @ x)
    nz = x.tocoo()
    a, b, k = nz.row // dm, nz.row % dm, nz.col
    moved = lambda rows, cols: sp.csr_matrix((nz.data, (rows, cols)), shape=x.shape)
    res["xi_totally_skew"] = max(_max_abs(x + moved(b * dm + a, k)),
                                 _max_abs(x + moved(a * dm + k, b)))
    jj = sp.kron(js, js, format="csr")
    res["bracket_JJ_k"] = _max_abs(jj.T @ kc - kc)
    mm = -2.0 * x
    res["bracket_J_m"] = _max_abs(sp.kron(js.T, eye) @ mm + mm @ js.T)
    return res


@pytest.fixture(scope="session")
def structure_identity_oracle():
    """The kron-product reference for ``verify_structure_identities``: space -> residuals."""
    return reference_structure_identities


# -- the generic slab reader: index permutations of (dm^2, dm^2) operators -------------


def _slabs(dm: int, *terms, only=None):
    """Row slabs of the sum of coef * M[perm] over (coef, M, perm) terms, on
    the tuples (a, b, c, d) with a in ``first``, b anywhere and c, d in
    ``last``, ``only`` = (first, last); on every tuple if ``only`` is None.

    Each M is a (dm^2, dm^2) operator and ``perm`` names its slots, so the
    term (1.0, M, "bcad") adds M[b,c,a,d] at [(a,b),(c,d)]; M = (K, K^T), read
    as "abcd" only, is their product.  Each slot of M (of K's rows and K^T's
    columns) is cut to its set once, rows or columns first as keeps fewer,
    before anything is gathered or multiplied.  A slab is a CSR matrix of the
    rows (a, b), a in one block of ``first``, and the columns (c, d) in
    ``last`` x ``last``, numbered from 0 (both sets sorted); it holds about
    SLAB_ENTRIES of the cut terms' nonzeros (or of the product's multiply-adds).
    """
    everything = np.arange(dm)
    first, last = (everything, everything) if only is None else (np.sort(x) for x in only)
    sets = {"a": first, "b": everything, "c": last, "d": last}
    sources, size = [], 0
    for coef, mat, perm in terms:
        if perm.index("a") >= 2:        # read a off the rows of M^T
            mat, perm = mat.T, perm[2:] + perm[:2]
        # rows (a, x) or (x, a), a in first and x in its set, in the order of a
        other = sets[perm[1 - perm.index("a")]]
        rows = (first[:, None] * dm + other if perm[0] == "a" else other * dm + first[:, None]).ravel()
        cols = (sets[perm[2]][:, None] * dm + sets[perm[3]]).ravel()
        if isinstance(mat, tuple):      # (K, K^T): multiply-adds per row of K
            src = (mat[0][rows], mat[1][:, cols])
            size += int(np.diff(src[1].indptr)[src[0].indices].sum())
        else:
            mat = mat.tocsr()
            src = mat[rows][:, cols] if rows.size * mat.shape[1] <= cols.size * mat.shape[0] \
                else mat[:, cols][rows]
            size += src.nnz
        sources.append((coef, src, perm, other))
    step = max(1, SLAB_ENTRIES * first.size // max(size, 1))
    for f0 in range(0, first.size, step):
        f1 = min(f0 + step, first.size)
        shape = ((f1 - f0) * dm, last.size ** 2)
        pieces, rows, cols, data = [], [], [], []
        for coef, src, perm, other in sources:
            own = slice(f0 * other.size, f1 * other.size)
            sub = src[0][own] @ src[1] if isinstance(src, tuple) else src[own]
            if perm == "abcd":          # the slab's rows and columns as they stand
                pieces.append(coef * sub)
                continue
            sub = sub.tocoo()
            i, x = np.divmod(sub.row, other.size)
            y, z = np.divmod(sub.col, sets[perm[3]].size)
            # places of a in the block, b in m and c, d in last
            place = {"a": i, perm[1 - perm.index("a")]: x, perm[2]: y, perm[3]: z}
            rows.append(place["a"] * dm + place["b"])
            cols.append(place["c"] * last.size + place["d"])
            data.append(coef * sub.data)
        if rows:                        # the lists are freed before the CSR conversion
            rows, cols, data = (np.concatenate(x) for x in (rows, cols, data))
            pieces.append(sp.coo_matrix((data, (rows, cols)), shape=shape).tocsr())
            del rows, cols, data
        pieces = [p for p in pieces if p.nnz] or pieces[:1]
        yield sum(pieces[1:], pieces[0])


def _worst(dm: int, *terms, only=None) -> float:
    """max |sum of coef * M[perm]| over the tuples of ``_slabs``, which build
    those tuples alone."""
    return max((_max_abs(slab) for slab in _slabs(dm, *terms, only=only)), default=0.0)


def drop_noise(mat: sp.csr_matrix) -> sp.csr_matrix:
    """``mat`` with its entries below ``ZERO_DROP`` removed, in place, by scipy's
    operators: the reference for ``csr.dropped``."""
    mat.data[np.abs(mat.data) < ZERO_DROP] = 0.0
    mat.eliminate_zeros()
    return mat


def whole_g(space) -> sp.csr_matrix:
    """G = X X^T whole, its noise dropped and its indices sorted, for the
    oracles; the library forms only the rows and blocks of G it reads."""
    x = space.tensors()[0]
    g = drop_noise((x @ x.T).tocsr())
    g.sort_indices()
    return g


def _r_min(space) -> tuple:
    """(K, K^T), the factors of R^min that ``_slabs`` multiplies."""
    kc = space.tensors()[1]
    return kc, kc.T.tocsr()


def reference_layer_worst(space) -> dict[str, float]:
    """The minimal-connection residual and the two double-torsion
    containments by the generic slab reader, each term named by its index
    permutation: K K^T + 4G + 4G[d,a,c,b] - 4G[c,a,d,b] on horizontal a and
    vertical c, d, and G on a in one layer and c, d in the other."""
    vert, horiz = _vertical_split(space)
    dm, g = space.dim_m, whole_g(space)
    return {
        "min_connection": _worst(dm, (1.0, _r_min(space), "abcd"),
                                 (4.0, g, "abcd"), (4.0, g, "dacb"), (-4.0, g, "cadb"),
                                 only=(horiz, vert)),
        "xi_V_xi_HH": _worst(dm, (1.0, g, "abcd"), only=(vert, horiz)),
        "xi_H_xi_VV": _worst(dm, (1.0, g, "abcd"), only=(horiz, vert)),
    }


@pytest.fixture(scope="session")
def layer_slab_oracle():
    """The generic slab reader for ``verify_min_connection_identity`` and the
    containments of ``verify_sat_identities``: space -> residuals."""
    return reference_layer_worst


def reference_riemann(space):
    """R by the former build: the four ``_slabs`` terms K K^T + 2G - G[a,c,b,d]
    + G[a,d,b,c] summed per slab, each slab noise-dropped, the list stacked by
    ``sp.vstack`` and the whole sorted once."""
    g = whole_g(space)
    terms = ((1.0, _r_min(space), "abcd"),
             (2.0, g, "abcd"), (-1.0, g, "acbd"), (1.0, g, "adbc"))
    rr = sp.vstack([drop_noise(slab) for slab in _slabs(space.dim_m, *terms)], format="csr")
    rr.sort_indices()
    return rr


@pytest.fixture(scope="session")
def riemann_oracle():
    """The list-plus-``vstack`` reference for R's slabs stacked: space -> R."""
    return reference_riemann


def stacked_riemann(space) -> sp.csr_matrix:
    """R whole, its build's slabs (``Curvature.slabs``) stacked: the library
    never holds R, so the tests assemble it on small spaces."""
    return sp.vstack([slab for _, slab, _ in curvature(space).slabs()], format="csr")


def reference_curvature_identities(space):
    """The four curvature residuals as maxima of four slab sums over every
    (a, b, c, d) of R whole (``stacked_riemann``), which read the permuted
    terms of R off transposed copies, with R kron(J, J) built whole; and Ric*
    as its partial trace.  Bianchi is the classical sum over (a, b, c) with d
    fixed, and antisymmetry the first pair's."""
    cv = curvature(space)
    dm, rr = space.dim_m, stacked_riemann(space)
    rjj = (rr @ sp.kron(cv.j, cv.j, format="csr")).tocsr()
    res = {
        "bianchi": _worst(dm, (1.0, rr, "abcd"), (1.0, rr, "bcad"), (1.0, rr, "cabd")),
        "pair_symmetry": _worst(dm, (1.0, rr, "abcd"), (-1.0, rr, "cdab")),
        "antisymmetry": _worst(dm, (1.0, rr, "abcd"), (1.0, rr, "bacd")),
        "curvature_J_defect": _worst(dm, (1.0, rr, "abcd"), (-1.0, rjj, "abcd"),
                                     (-4.0, whole_g(space), "abcd")),
    }
    return res, _trace_bd(rjj, dm)


@pytest.fixture(scope="session")
def curvature_identity_oracle():
    """The operator reference for ``Curvature.identities``: space -> (residuals, Ric*)."""
    return reference_curvature_identities
