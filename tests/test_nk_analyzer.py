"""Canonical structure, torsion and curvature: identities and frozen values."""

import copy
import importlib.util
import re
import sys
import tracemalloc
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from scipy.sparse import _compressed as scipy_compressed
from scipy.sparse import _coo as scipy_coo
from scipy.sparse import csr_matrix
from scipy.sparse._sparsetools import csr_plus_csr

from nk_triad import automorph, cli, compactform, csr, exact, nk_analyzer, tables
from nk_triad.automorph import realize_cyclic_c3, realize_triality_d4
from nk_triad.exact import (
    FixedVectorInM,
    IdentityViolation,
    NonRationalEigenvalue,
    einstein_check,
    exact_r_cross_layer,
    exact_r_eigenvalues,
    layer_traces,
    verify_prop_table_relations,
)
from nk_triad.nk_analyzer import (
    Curvature,
    build_report,
    canonical_J,
    curvature,
    ricci_tensors,
    tensor_r,
    verify_curvature_identities,
    verify_min_connection_identity,
    verify_ricci_oracle,
    verify_sat_identities,
    verify_space,
    verify_structure_identities,
)
from nk_triad.rootsys import KAPPA
from nk_triad.tables import cached_algebra, realize

from conftest import layer_epsilon, n_squared, stacked_riemann, whole_g

F = Fraction


def dense_tensors(space):
    """``space.tensors()`` as dense 3-tensors xi[a, b, k] and kc[a, b, s]."""
    dm = space.dim_m
    xi, kc = (t.toarray() for t in space.tensors())
    return xi.reshape(dm, dm, dm), kc.reshape(dm, dm, -1)


def riemann_tensor(space):
    """R[a, b, c, d] = R(e_a, e_b, e_c, e_d) from the build's slabs, dense."""
    dm = space.dim_m
    return stacked_riemann(space).toarray().reshape(dm, dm, dm, dm)


def min_connection_curvature(space, a: int, b: int) -> np.ndarray:
    """Endomorphism R^min_{e_a e_b} = ad([e_a, e_b]_k)|m."""
    _, kc = space.tensors()
    dm = space.dim_m
    return (kc[a * dm + b] @ kc.T).toarray().reshape(dm, dm).T      # K[(c, d), s] = ad(k_s)[d, c]


def riemann_value(space, x, y, z, t) -> float:
    """R on arbitrary m-vectors, without materializing the 4-tensor."""
    xi, kc = space.tensors()
    out = float((kc.T @ np.kron(x, y)) @ (kc.T @ np.kron(z, t)))
    xy, zt, xz, yt, xt, yz = (xi.T @ np.kron(u, v)
                              for u, v in ((x, y), (z, t), (x, z), (y, t), (x, t), (y, z)))
    return out + 2.0 * xy @ zt - xz @ yt + xt @ yz


def sectional_curvature_samples(space, count=30, seed=3) -> list[float]:
    """R(x, y, x, y) on ``count`` random orthonormal pairs (x, y)."""
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


@pytest.fixture(scope="module")
def g2_twistor():
    return realize("g", 2, "A3III", (2,))


@pytest.fixture(scope="module")
def su3_flag():
    return realize("a", 2, "A3II", (1, 2))


def test_J_square_and_isometry(g2_twistor, su3_flag):
    for sp in (g2_twistor, su3_flag):
        j = canonical_J(sp).toarray()
        assert np.abs(j @ j + np.eye(sp.dim_m)).max() < 1e-12
        assert np.abs(j.T @ j - np.eye(sp.dim_m)).max() < 1e-12


def test_J_layer_rule(g2_twistor):
    """J U0 = eps U1 with eps = +1 on the 1/3-layer, -1 on the 2/3-layer."""
    sp = g2_twistor
    j = canonical_J(sp).toarray()
    eps = layer_epsilon(sp.algebra.rs, sp.h_spec)
    assert eps == {"V": -1, "H": 1}
    for label, positions in sp.layers.items():
        for a, b in zip(positions[::2], positions[1::2]):
            col = j[:, a]
            assert abs(col[b] - eps[label]) < 1e-12
            assert np.abs(np.delete(col, b)).max() < 1e-12


def test_sigma_fixed_vector_in_m_raises():
    """g2 node 1 with the first k- and m-columns swapped, so that m holds a
    Cartan vector, which sigma fixes: J^2 = -id fails (by 4.0 there)."""
    sp = realize("g", 2, "A3IV", (1,))
    k, m = sp.k_cols.toarray(), sp.m_cols.toarray()
    k[:, 0], m[:, 0] = m[:, 0].copy(), k[:, 0].copy()
    swapped = type(sp)(sp.algebra, sp.type_label, sp.sigma, k, m)
    with pytest.raises(FixedVectorInM, match="J\\^2 != -id"):
        canonical_J(swapped)


def test_tensors_hold_a_few_times_their_bytes():
    """On e8 cyclic (dim m 496) building X and K allocates at its peak less
    than 5x the bytes they hold: no kron of the frames is formed."""
    space = realize_cyclic_c3(tables.cached_algebra("e", 8))
    tracemalloc.start()
    try:
        tensors = space.tensors()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    held = sum(t.data.nbytes + t.indices.nbytes + t.indptr.nbytes for t in tensors)
    assert peak < 5 * held


def test_torsion_totally_skew(su3_flag):
    dm = su3_flag.dim_m
    xi = su3_flag.tensors()[0].toarray().reshape(dm, dm, dm)
    rng = np.random.default_rng(0)
    for _ in range(50):
        x, y, z = rng.standard_normal((3, su3_flag.dim_m))
        a = np.einsum("i,j,ijk,k->", x, y, xi, z)
        b = np.einsum("i,j,ijk,k->", y, x, xi, z)
        c = np.einsum("i,j,ijk,k->", x, z, xi, y)
        assert abs(a + b) < 1e-9 and abs(a + c) < 1e-9


def test_torsion_nonzero_in_every_direction(g2_twistor):
    dm = g2_twistor.dim_m
    xi = g2_twistor.tensors()[0].toarray().reshape(dm, dm, dm)
    norms = [np.linalg.norm(xi[i]) for i in range(dm)]
    assert min(norms) > 0.5


def test_su3_flag_values(su3_flag):
    rep = build_report(su3_flag)
    assert rep.eig_by_layer("r") == {"V1": F(2), "V2": F(2), "V3": F(2)}
    assert rep.splitting == {"V1": 2, "V2": 2, "V3": 2}
    assert rep.einstein and rep.einstein_constant == F(5, 2)
    assert rep.eig_by_layer("c") == {"V1": 0, "V2": 0, "V3": 0}
    flag, cert = einstein_check(rep)
    assert flag and "all equal" in cert


def test_g2_twistor_values(g2_twistor):
    rep = build_report(g2_twistor)
    assert rep.eig_by_layer("r") == {"V": F(4), "H": F(2)}
    assert rep.eig_by_layer("ric") == {"V": F(3), "H": F(7, 2)}
    assert rep.eig_by_layer("c") == {"V": F(8), "H": F(-4)}
    assert rep.mu2 == F(8)
    assert not rep.einstein
    assert (rep.lk_ratio, rep.lk_label) == (F(2), "g2 twistor space, l/k = 2")
    verify_prop_table_relations(rep)


def test_e6_three_layer_values():
    rep = build_report(realize("e", 6, "A3II", (1, 6)))
    assert rep.eig_by_layer("r") == {"V1": F(8), "V2": F(8), "V3": F(8)}
    assert rep.splitting == {"V1": 16, "V2": 16, "V3": 16}
    assert rep.einstein


def test_r_matrix_matches_exact_layers(g2_twistor):
    r = tensor_r(g2_twistor)
    lam = exact_r_eigenvalues(g2_twistor.algebra.cd, g2_twistor.h_spec)
    expect = np.zeros(g2_twistor.dim_m)
    for label, pos in g2_twistor.layers.items():
        expect[pos] = float(lam[label] * KAPPA)
    assert np.abs(r - np.diag(expect)).max() < 1e-9
    evals = np.linalg.eigvalsh(r)
    assert evals.min() > 0  # strict: r positive definite


def test_min_connection_curvature(g2_twistor):
    sp = g2_twistor
    for a in range(sp.dim_m):
        assert np.abs(min_connection_curvature(sp, a, a)).max() < 1e-12
    j = canonical_J(sp)
    m01 = min_connection_curvature(sp, 0, 5)
    assert np.abs(m01 + m01.T).max() < 1e-12          # metric skew
    assert np.abs(m01 @ j - j @ m01).max() < 1e-12    # commutes with J
    assert verify_min_connection_identity(sp) < 1e-9


@pytest.mark.filterwarnings("ignore::scipy.sparse.SparseEfficiencyWarning")
def test_min_connection_identity_checks_every_tuple():
    """One perturbed k-component of a horizontal bracket, on a space with
    dm = 84 and over a million (x, u, v1, v2) tuples, must be caught: the
    residual is 0.5 times the largest |K[(v1, v2), s]| of the perturbed s."""
    sp = realize("e", 7, "A3III", (2,))
    kc = sp.tensors()[1]
    vert, horiz = sp.layers["V"], sp.layers["H"]
    kvv = dense_tensors(sp)[1][np.ix_(vert, vert)]
    s = int(np.abs(kvv).sum(axis=(0, 1)).argmax())
    kc[horiz[len(horiz) // 2] * sp.dim_m + 3, s] += 0.5
    worst = verify_min_connection_identity(sp)
    assert worst > 1e-9
    assert worst == pytest.approx(0.5 * np.abs(kvv[:, :, s]).max(), abs=1e-12)


@pytest.mark.filterwarnings("ignore::scipy.sparse.SparseEfficiencyWarning")
def test_min_connection_identity_reads_every_torsion_row(min_connection_oracle):
    """One changed entry of X in a (vertical, horizontal) row must be caught,
    with the residual the einsum reference finds."""
    sp = realize("e", 7, "A3III", (2,))
    xi = sp.tensors()[0]
    v0, (h0, h1) = sp.layers["V"][0], sp.layers["H"][:2]
    xi[v0 * sp.dim_m + h0, h1] += 0.5
    worst = verify_min_connection_identity(sp)
    assert worst > 1e-9
    assert worst == pytest.approx(min_connection_oracle(sp), abs=1e-12)


def test_min_connection_reads_no_row_outside_its_layers(monkeypatch):
    """1.0 added to G at row and column (v, v'), both vertical, in every block
    of G the suite forms, leaves the residual bit-identical: every term reads
    G's rows with a horizontal slot (a, or (d, a) and (c, a)), so no block
    holds that row, although K K^T + 4G reads the column (v, v') on other
    rows.  The row is otherwise empty (xi_v v' = 0 on type IV).  The suite
    is memoised on the space, so the unshifted run reads a second realization."""
    sp = realize("e", 7, "A3III", (2,))
    dm = sp.dim_m
    before = verify_min_connection_identity(realize("e", 7, "A3III", (2,)))
    v0, v1 = sp.layers["V"][:2]
    at = v0 * dm + v1
    assert sp.tensors()[0][at].nnz == 0                 # so G's row (v, v') is empty
    real, formed = nk_analyzer.gram, []

    def shifted(x, rows, cols):
        blk = real(x, rows, cols)
        i, j = np.flatnonzero(rows == at), np.flatnonzero(cols == at)
        formed.append(j.size)
        if i.size and j.size:
            shape = (len(rows), len(cols))
            one = csr_matrix(([1.0], ([i[0]], [j[0]])), shape=shape)
            blk = csr.arrays(csr.matrix(blk, shape) + one)
        return blk

    monkeypatch.setattr(nk_analyzer, "gram", shifted)
    assert verify_min_connection_identity(sp) == before
    assert any(formed)                                  # some block reads the column (v, v')


def test_min_connection_holds_less_than_twice_g():
    """On e8 node 1 (dm 156), with G and K built, the minimal-connection
    identity allocates at its peak less than twice G's bytes: it builds only
    the tuples with a horizontal and c, d vertical, about 96 000 entries, not
    the whole four-index sum, and copies no whole G.  G's bytes are counted
    from a whole G formed here, before tracing: nnz G exactly, as CSR."""
    sp = realize("e", 8, "A3III", (1,))
    g = whole_g(sp)                                     # builds the tensors too
    held = g.data.nbytes + g.indices.nbytes + g.indptr.nbytes
    del g
    tracemalloc.start()
    try:
        verify_min_connection_identity(sp)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * held


def _special_torsion_spaces():
    for f, r, n in [("b", 3, 2), ("b", 4, 2), ("c", 2, 1), ("c", 3, 1), ("c", 3, 2),
                    ("d", 4, 2), ("g", 2, 2), ("f", 4, 1), ("f", 4, 4)]:
        yield realize(f, r, "A3III", (n,))
    for f, r, n in [("a", 2, (1, 2)), ("a", 3, (1, 3)), ("a", 4, (2, 3)), ("d", 4, (3, 4))]:
        yield realize(f, r, "A3II", n)
    yield realize("e", 8, "A3III", (1,))                  # dm 156


def test_min_connection_and_frame_traces_match_einsum_reference(min_connection_oracle,
                                                                frame_trace_oracle,
                                                                layer_slab_oracle):
    """The block reads of G and K K^T against the dense einsums they replaced,
    and bit for bit against the generic slab reader that read them before."""
    checked = 0
    for sp in _special_torsion_spaces():
        worst = verify_min_connection_identity(sp)
        assert abs(worst - min_connection_oracle(sp)) < 1e-12, sp.name
        res = verify_sat_identities(sp)
        for key, want in frame_trace_oracle(sp).items():
            assert abs(res[key] - want) < 1e-12, (sp.name, key)
        slab = layer_slab_oracle(sp)
        assert worst == slab.pop("min_connection"), sp.name
        assert {key: res[key] for key in slab} == slab, sp.name
        checked += 1
    assert checked == 14


def test_min_connection_identity_so10():
    sp = realize("d", 5, "A3III", (2,))
    assert verify_min_connection_identity(sp) < 1e-9
    res = verify_sat_identities(sp)
    assert res["xi_V_xi_HH"] < 1e-12                  # xi_V xi_H H = 0 layer fact


@pytest.mark.filterwarnings("ignore::scipy.sparse.SparseEfficiencyWarning")
@pytest.mark.parametrize("key,pair,other", [("xi_V_xi_HH", "H", "V"), ("xi_H_xi_VV", "V", "H")])
def test_double_torsion_containments_can_fail(key, pair, other):
    """A horizontal component 1/2 added to xi on a pair of one layer shows in
    the containment read on the other: as 1/2 of the largest horizontal
    component of xi_u, u in the other layer."""
    sp = realize("d", 5, "A3III", (2,))
    xi, dm = sp.tensors()[0], sp.dim_m
    p0, p1 = sp.layers[pair][:2]
    h0 = sp.layers["H"][0]
    reach = np.abs(xi[:, h0].toarray().reshape(dm, dm)[sp.layers[other]]).max()
    xi[p0 * dm + p1, h0] += 0.5
    res = verify_sat_identities(sp, tol=np.inf)
    assert reach > 0 and res[key] == pytest.approx(0.5 * reach, abs=1e-12)


def test_curvature_identities_full_sweep(su3_flag, g2_twistor):
    for sp in (su3_flag, g2_twistor):
        res = verify_curvature_identities(sp)
        assert res["bianchi"] < 1e-9
        assert res["pair_symmetry"] < 1e-9
        assert res["antisymmetry"] < 1e-9
        assert res["curvature_J_defect"] < 1e-9
        assert res["r_identity"] < 1e-9


@pytest.mark.filterwarnings("ignore::scipy.sparse.SparseEfficiencyWarning")
def test_curvature_identities_check_every_tuple():
    """One perturbed k-component on a dm = 84 space must show in the
    curvature residuals.  The entry kc[a, b, s] pairs a Cartan direction s
    with a root plane that ad(k_s) kills, so r and Ric* do not move and Ric
    moves only by the square of the change, at (a, a), through the diagonal
    entry of K K^T; the four-index identities see the change itself."""
    sp = realize("e", 7, "A3III", (2,))
    kc = sp.tensors()[1]
    s, dm = 0, sp.dim_m                                 # k_cols starts with the Cartan
    moved = np.abs(kc[:, s].toarray().reshape(dm, dm)).any(axis=1)   # [k_s, m_c] != 0
    a, b = int(np.flatnonzero(moved)[0]), int(np.flatnonzero(~moved)[0])
    kc[a * dm + b, s] += 0.5
    res = verify_curvature_identities(sp)
    assert max(res.values()) > 1e-6


def _bench_strata():
    """The analyze-irreducible and identity-sweep candidates of ``bench/workloads.py``."""
    path = Path(__file__).resolve().parents[1] / "bench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("bench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return ([("analyze",) + item for stratum in module.ANALYZE_STRATA for item in stratum]
            + [("space",) + item for stratum in module.IDENTITY_STRATA for item in stratum])


def _realize_item(item):
    if item[0] == "analyze":
        _, family, rank, *flags = item
        return cli._realize_from_args(cli.build_parser().parse_args(
            ["analyze", family, str(rank), *flags]))
    _, kind, family, rank, nodes = item
    return realize(family, rank, kind, nodes)


BENCH_SPACES = _bench_strata()


def _item_id(item) -> str:
    return "-".join(str(x).strip("-(),").replace(", ", ",") for x in item[1:])


@pytest.mark.parametrize("item", BENCH_SPACES, ids=_item_id)
def test_riemann_is_bit_identical_to_the_former_build(item, riemann_oracle):
    """R's slabs, born sorted and stacked, against the former build (slab
    list, ``vstack``, one sort), on every space the analyze-irreducible and
    identity-sweep workloads draw: indptr, indices and data byte for byte,
    and R canonical as its arrays stand.  A merge of unsorted rows would
    leave a row unsorted."""
    space = _realize_item(item)
    rr, want = stacked_riemann(space), riemann_oracle(space)
    for got, ref in ((rr.indptr, want.indptr), (rr.indices, want.indices), (rr.data, want.data)):
        assert got.dtype == ref.dtype and got.tobytes() == ref.tobytes()
    assert csr_matrix((rr.data, rr.indices, rr.indptr), shape=rr.shape).has_canonical_format


def _r_bytes(space) -> int:
    """R's bytes as a CSR operator would hold them, 12 for each entry of its
    build's slabs (an 8-byte value and a 4-byte column), indptr left out."""
    return 12 * sum(slab.nnz for _, slab, _ in curvature(space).slabs())


def test_riemann_build_holds_less_than_twice_r():
    """On e8 node 2 (dm 168), with X and K built, the build of R's slabs
    allocates at its peak less than twice R's bytes, its slabs' rows of G and
    the J-defect, Ric, Ric* and the three symmetries included: each slab is
    read and freed before the next is formed, with no slab list, stacked
    copy, buffer sized by a bound or whole G."""
    space = realize("e", 8, "A3IV", (2,))
    cv = curvature(space)
    space.tensors()
    tracemalloc.start()
    try:
        cv.identities
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * _r_bytes(space)


@pytest.mark.parametrize("item", BENCH_SPACES, ids=_item_id)
def test_curvature_pass_matches_operator_oracle(item, curvature_identity_oracle):
    """The reads of R's build against the operator reference (four slab sums
    that read R's permutations off transposed copies of R whole, and a whole
    R kron(J, J)), on every space the analyze-irreducible and identity-sweep
    workloads draw: each residual and Ric* to 1e-14, though the build reads
    the a-fixed Bianchi sum, the last pair and X's pair defect, and the
    reference the classical sum, the first pair and R's pair swap."""
    space = _realize_item(item)
    res = curvature(space).identities
    ric_star = curvature(space).ric_star
    want, want_star = curvature_identity_oracle(space)
    assert res.keys() == want.keys()
    assert max(abs(res[k] - want[k]) for k in want) <= 1e-14
    assert np.abs(ric_star - want_star).max() <= 1e-14


def test_symmetries_read_zero_off_the_support():
    """R cut down to one stored entry v at four distinct indices, handed to
    the build as its one slab: Bianchi and antisymmetry each read exactly
    |v|, so every relabelled read off the support of R returns 0.  Pair
    symmetry reads X's pair defect, not R, and stays 0."""
    sp = realize("g", 2, "A3III", (2,))
    cv = curvature(sp)
    one = stacked_riemann(sp)
    dm = sp.dim_m
    rows, cols = np.divmod(one.tocoo().row, dm), np.divmod(one.indices, dm)
    n = next(k for k in range(one.nnz)
             if len({rows[0][k], rows[1][k], cols[0][k], cols[1][k]}) == 4)
    v = one.data[n]
    one.data[:] = 0.0
    one.data[n] = v
    one.eliminate_zeros()
    cv.slabs = lambda: iter([(0, one, whole_g(sp))])    # replaces the build's slabs
    res = cv.identities
    assert res["bianchi"] == res["antisymmetry"] == abs(v) > 0
    assert res["pair_symmetry"] == 0.0


FAULT_SPACES = (lambda: realize("g", 2, "A3III", (2,)), lambda: realize("b", 5, "A3III", (4,)),
                lambda: realize("e", 7, "A3III", (2,)),
                lambda: realize_cyclic_c3(cached_algebra("f", 4)),
                lambda: realize_triality_d4(cached_algebra("d", 4)))


@pytest.mark.parametrize("tensor", ["X", "K"])
def test_one_changed_entry_fails_the_symmetries(tensor, curvature_identity_oracle):
    """One stored entry of X or of K moved by 0.5, on g2 node 2, b5 node 4,
    e7 node 2, f4 cyclic and the triality: Bianchi and the J-defect exceed
    1e-6, the J-defect equals the oracle's, and Bianchi, pair symmetry and
    antisymmetry match the oracle's classical forms on R whole to 1e-12.
    Pair symmetry sees the change of X, but not one of K: R^min = K K^T is
    pair-symmetric by construction, and X's pair defect E stays empty.  The
    J-defect sees K's change in the column (a, b) of K K^T, which kron(J, J)
    moves."""
    for make in FAULT_SPACES:
        sp = make()
        sp.tensors()[{"X": 0, "K": 1}[tensor]].data[0] += 0.5
        res = curvature(sp).identities
        want = curvature_identity_oracle(sp)[0]
        assert res.keys() == want.keys()
        assert res["curvature_J_defect"] == want["curvature_J_defect"] > 1e-6, sp.name
        for key in ("bianchi", "pair_symmetry", "antisymmetry"):
            assert res[key] == pytest.approx(want[key], rel=1e-12, abs=1e-15), (sp.name, key)
        assert res["bianchi"] > 1e-6, sp.name
        assert (res["pair_symmetry"] > 1e-6) == (tensor == "X"), sp.name
        assert tensor == "X" or res["pair_symmetry"] == 0.0


def test_a_sign_flipped_g_term_fails_bianchi_and_antisymmetry(monkeypatch):
    """The build's -G[a,c,b,d] term with its sign flipped, a mutant of the
    code: Bianchi and antisymmetry both read 1 on g2 node 2 and b3 node 2,
    2/3 on f4 cyclic and 4/3 on g2 node 1."""
    def flipped(rows, dm):
        once = nk_analyzer._moved(rows, dm, "zxy", rows[2])
        return csr.merged(csr_plus_csr, nk_analyzer._moved(rows, dm, "yxz", rows[2]),
                          nk_analyzer._moved(once, dm, "zxy", once[2]), dm * dm)

    monkeypatch.setattr(nk_analyzer, "_swapped_pairs", flipped)
    for space, want in ((realize("g", 2, "A3III", (2,)), 1.0), (realize("b", 3, "A3III", (2,)), 1.0),
                        (realize_cyclic_c3(cached_algebra("f", 4)), 2 / 3),
                        (realize("g", 2, "A3IV", (1,)), 4 / 3)):
        res = curvature(space).identities
        assert res["bianchi"] == pytest.approx(want, abs=1e-12), space.name
        assert res["antisymmetry"] == pytest.approx(want, abs=1e-12), space.name


def _lexsort_moved(rows, dm: int, to: str, data) -> csr_matrix:
    """Rows M[(a,x),(y,z)] moved to [(a,p),(q,s)], ``to`` = "pqs", the
    entries put in order by ``np.lexsort`` on the target (a, p, q, s)."""
    coo = rows.tocoo()
    at = dict(zip("axyz", (coo.row // dm, coo.row % dm, coo.col // dm, coo.col % dm)))
    p, q, s = (at[k] for k in to)
    order = np.lexsort((s, q, p, at["a"]))
    counts = np.bincount((at["a"] * dm + p), minlength=rows.shape[0])
    return csr_matrix((data[order], (q * dm + s)[order], np.concatenate([[0], np.cumsum(counts)])),
                      shape=rows.shape)


def _canonical(mat) -> bool:
    """Every row's column indices strictly increase: sorted, no duplicate."""
    rows = np.repeat(np.arange(mat.shape[0], dtype=np.int64), np.diff(mat.indptr))
    return bool((np.diff(rows * mat.shape[1] + mat.indices) > 0).all())


def _same_bytes(a, b) -> bool:
    return all(x.tobytes() == y.tobytes() for x, y in
               zip((a.indptr, a.indices, a.data), (b.indptr, b.indices, b.data)))


def _csr(rows, shape) -> csr_matrix:
    """CSR arrays (indptr, indices, data) as a scipy matrix, sharing them."""
    ptr, col, val = rows
    return csr_matrix((val, col, ptr), shape=shape)


MOVE_SPACES = (lambda: realize("g", 2, "A3III", (2,)), lambda: realize("e", 7, "A3IV", (5,)),
               lambda: realize_cyclic_c3(cached_algebra("f", 4)),
               lambda: realize_triality_d4(cached_algebra("d", 4)))


def test_moves_match_a_lexsort_reference():
    """On g2 node 2, e7 node 5, f4 cyclic and the triality, every move of R's
    slabs and of G's rows (each permutation of "xyz") equals the entries put in
    order by ``np.lexsort``, bit for bit: as it stands, with sorted,
    duplicate-free rows, for the moves that keep (q, s) in source order
    ("xyz", "yxz", "zxy"), and once its rows are sorted for the other three.
    ``_swapped_pairs`` equals -G moved by "yxz" plus G moved by "yzx", and
    ``_symmetries`` the maxima of R + R[a,c,d,b] + R[a,d,b,c] and of
    R + R[a,b,d,c] over the slab, each term so moved."""
    for make in MOVE_SPACES:
        space = make()
        dm = space.dim_m
        for _, slab, half in curvature(space).slabs():
            for rows in (slab, half):
                for to in ("xyz", "xzy", "yxz", "yzx", "zxy", "zyx"):
                    moved = _csr(nk_analyzer._moved(csr.arrays(rows), dm, to, rows.data), rows.shape)
                    if to not in ("xyz", "yxz", "zxy"):
                        moved.sort_indices()
                    assert _canonical(moved), (space.name, to)
                    assert _same_bytes(moved, _lexsort_moved(rows, dm, to, rows.data)), (space.name, to)
            pairs = _csr(nk_analyzer._swapped_pairs(csr.arrays(half), dm), half.shape)
            want = _lexsort_moved(half, dm, "yxz", -half.data) + _lexsort_moved(half, dm, "yzx", half.data)
            assert _canonical(pairs) and _same_bytes(pairs, want), space.name
            bianchi = slab + _lexsort_moved(slab, dm, "zxy", slab.data) \
                + _lexsort_moved(slab, dm, "yzx", slab.data)
            last = slab + _lexsort_moved(slab, dm, "xzy", slab.data)
            want = (float(abs(bianchi.data).max(initial=0.0)), float(abs(last.data).max(initial=0.0)))
            assert nk_analyzer._symmetries(csr.arrays(slab), dm) == want, space.name


def test_the_build_sorts_three_operators_per_slab(monkeypatch):
    """On f4 cyclic, R's build runs exactly three comparison sorts of rows
    per slab: K K^T's rows and G's rows, which scipy sorts, and
    R kron(J, J), which ``nk_analyzer`` sorts with the same kernel.  Every
    move of R's slabs and G's rows comes out of its counting pass sorted, so
    one that stops doing so fails here."""
    space = realize_cyclic_c3(cached_algebra("f", 4))
    space.tensors()
    cv = Curvature(space)
    cv.j, cv.row_weight
    sorts, real = [], scipy_compressed.csr_sort_indices

    def counted(*args):
        sorts.append(args[0])
        return real(*args)

    for module in (scipy_compressed, nk_analyzer):
        monkeypatch.setattr(module, "csr_sort_indices", counted)
    cv.identities
    assert len(sorts) == 3 * len(compactform.slab_cuts(cv.row_weight)), len(sorts)


@pytest.mark.parametrize("make, slabs", [(lambda: realize("e", 8, "A3IV", (2,)), 22),
                                         (lambda: realize_cyclic_c3(cached_algebra("f", 4)), 36)],
                         ids=["e8-node-2", "f4-cyclic"])
def test_the_build_forms_a_few_scipy_matrices_per_slab(make, slabs, monkeypatch):
    """On e8 node 2 (22 slabs) and f4 cyclic (36 slabs), R's build forms at
    most 2 scipy matrices per slab, the slab and G's rows it yields, and 8 per
    build.  The Gram products, moves and merges run scipy's kernels on CSR
    arrays, where scipy operators formed 34 to 45 matrices per slab."""
    space = make()
    space.tensors()
    cv = Curvature(space)
    cv.j, cv.row_weight
    assert len(compactform.slab_cuts(cv.row_weight, space.dim_m ** 2)) == slabs
    formed, real = [], scipy_compressed._cs_matrix.__init__

    def counted(self, *args, **kwargs):
        formed.append(type(self).__name__)
        return real(self, *args, **kwargs)

    monkeypatch.setattr(scipy_compressed._cs_matrix, "__init__", counted)
    cv.identities
    assert len(formed) <= 2 * slabs + 8, len(formed)


@pytest.mark.parametrize("algebra, make, bound", [
    (("g", 2), lambda: realize("g", 2, "A3IV", (1,)), 13),
    (("a", 2), lambda: realize_cyclic_c3(cached_algebra("a", 2)), 31),
    (("d", 4), lambda: realize_triality_d4(cached_algebra("d", 4)), 50),
    (("b", 5), lambda: realize("b", 5, "A3III", (4,)), 15),
], ids=["g2-node-1", "a2-cyclic", "triality", "b5-node-4"])
def test_a_space_forms_few_scipy_matrices_outside_the_build(algebra, make, bound, monkeypatch):
    """Realizing a space and running ``verify_space`` on it, outside R's build
    (``Curvature._build``, bounded per slab above), forms at most a quarter of
    the scipy matrices, compressed or COO, that scipy's operators formed there:
    112 on g2 node 1, 124 on a2 cyclic, 203 on the triality and 153 on b5
    node 4.  The float stages run scipy's kernels on CSR arrays (``csr``); the
    matrices left are chiefly what they return (sigma, the frames, X, K, J).
    An inner space's frames are basis columns selected by one counting pass,
    and the layer suites gather X's and K's rows on their arrays, so g2 node 1
    and b5 node 4 form 13 and 15."""
    cached_algebra(*algebra)
    formed, counting = [], [True]

    def counter(real):
        def counted(self, *args, **kwargs):
            if counting[0]:
                formed.append(type(self).__name__)
            return real(self, *args, **kwargs)
        return counted

    build = Curvature.__dict__["_build"]
    real_build = build.func

    def uncounted(self):
        counting[0] = False
        try:
            return real_build(self)
        finally:
            counting[0] = True

    for cls in (scipy_compressed._cs_matrix, scipy_coo._coo_base):
        monkeypatch.setattr(cls, "__init__", counter(cls.__init__))
    monkeypatch.setattr(build, "func", uncounted)
    verify_space(make())
    assert len(formed) <= bound, formed


def test_j_outside_a_signed_permutation_basis_raises():
    """The identity pass relabels R's columns by J, so it needs J to be a
    signed permutation of the m-basis; a rotated m-basis is refused."""
    sp = realize("g", 2, "A3IV", (1,))
    turn = np.linalg.qr(np.random.default_rng(5).standard_normal((sp.dim_m, sp.dim_m)))[0]
    rotated = type(sp)(sp.algebra, sp.type_label, sp.sigma, sp.k_cols, sp.m_cols @ turn)
    with pytest.raises(IdentityViolation, match="signed permutation"):
        curvature(rotated).identities


def test_curvature_pass_holds_less_than_r(monkeypatch):
    """On e8 node 2 (dm 168), with X, K and r built, each read of a slab of R
    in its build, the three symmetries (``_symmetries``) and the J-defect,
    Ric and Ric* (``_j_checks``), allocates beyond what it is handed less than
    R itself: like the former pass over a built R, the reads hold blocks of a
    slab, never R whole, a transposed copy of R, a whole R kron(J, J) or R as
    COO."""
    sp = realize("e", 8, "A3IV", (2,))
    cv = curvature(sp)
    sp.tensors()
    cv.r
    added = []

    def measured(read):
        def run(*args):
            held = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            out = read(*args)
            added.append(tracemalloc.get_traced_memory()[1] - held)
            return out
        return run

    for name in ("_symmetries", "_j_checks"):
        monkeypatch.setattr(nk_analyzer, name, measured(getattr(nk_analyzer, name)))
    tracemalloc.start()
    try:
        cv.ric
        verify_curvature_identities(sp)
    finally:
        tracemalloc.stop()
    assert len(added) == 2 * len(compactform.slab_cuts(cv.row_weight)) > 2
    assert max(added) < _r_bytes(sp)


def _bound_spaces():
    yield from (_realize_item(item) for item in BENCH_SPACES)
    yield realize_cyclic_c3(cached_algebra("e", 7))       # dm 266


def test_row_weight_bounds_g_rows_without_forming_g(monkeypatch):
    """``row_weight`` is K K^T's multiply-adds per a plus three times a bound on
    the entries of G's rows (a, .), the multiply-adds of X X^T, each capped at
    dm^3, the entries rows (a, .) can hold: at least the true count of a whole
    G on every space the benchmark draws and on e7 cyclic.  The cap, without
    which the triality's weight overstates its R's entries 120-fold, keeps
    its build one slab at a budget of 2^18 entries (three at 2^16).  On e7
    cyclic it allocates under a tenth of G's bytes, so it forms no G."""
    for space in _bound_spaces():
        (x, kc), dm = space.tensors(), space.dim_m
        ones = lambda mat: csr_matrix((np.ones(mat.nnz), mat.indices, mat.indptr), shape=mat.shape)
        madds = np.minimum((ones(kc) @ np.diff(kc.tocsc().indptr)).reshape(dm, dm).sum(axis=1), dm ** 3)
        bound = np.minimum((ones(x) @ np.diff(x.tocsc().indptr)).reshape(dm, dm).sum(axis=1), dm ** 3)
        cv = Curvature(space)                              # nothing of it built yet
        tracemalloc.start()
        try:
            weight = cv.row_weight
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        g = whole_g(space)
        assert np.array_equal(weight, madds + 3 * bound), space.name
        assert (bound >= np.diff(g.indptr[::dm])).all(), space.name
    assert peak < (g.data.nbytes + g.indices.nbytes + g.indptr.nbytes) / 10
    triality = realize_triality_d4(cached_algebra("d", 4))
    monkeypatch.setattr(compactform, "SLAB_ENTRIES", 1 << 18)
    assert len(compactform.slab_cuts(Curvature(triality).row_weight, triality.dim_m ** 2)) == 1


def test_curvature_identities_from_the_tensors_hold_under_two_and_a_half_r():
    """On f4 cyclic (dm 104), from the tensors alone, the curvature suite
    (each slab of R with its rows of G, the J-defect, Ric, Ric* and the three
    symmetries) allocates at its peak under 2.5 times R's bytes: G is formed
    a slab of rows at a time, never whole."""
    space = realize_cyclic_c3(cached_algebra("f", 4))
    space.tensors()
    tracemalloc.start()
    try:
        verify_curvature_identities(space)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2.5 * _r_bytes(space)


@pytest.mark.parametrize("make, mib", [(lambda: realize("e", 8, "A3IV", (2,)), 5),
                                       (lambda: realize_cyclic_c3(cached_algebra("f", 4)), 4)],
                         ids=["e8-node-2", "f4-cyclic"])
def test_the_build_peaks_under_a_few_mib(make, mib):
    """From the tensors, R's build (``Curvature._build``: J, the row weights,
    every slab with its reads) peaks under 5 MiB traced on e8 node 2 and
    under 4 MiB on f4 cyclic: its slabs hold 2^16 entries of their products,
    and each slab's temporaries are freed before the next is formed.  At
    2^18 entries a slab's temporaries took 10.5 and 7.8 MiB."""
    space = make()
    space.tensors()
    cv = Curvature(space)
    tracemalloc.start()
    try:
        cv._build
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < mib * 2 ** 20, peak


def test_curvature_identities_from_the_tensors_hold_under_a_quarter_of_r():
    """On e7 cyclic (dm 266), from the tensors alone, the curvature suite
    (each slab of R with its rows of G, the J-defect, Ric, Ric* and the three
    symmetries) allocates at its peak under a quarter of R's bytes, taken as
    12 bytes for each entry of its slabs: R is never held, and G is formed a
    slab of rows at a time, never whole."""
    space = realize_cyclic_c3(cached_algebra("e", 7))
    space.tensors()
    tracemalloc.start()
    try:
        verify_curvature_identities(space)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < _r_bytes(space) / 4


def test_curvature_holds_no_g():
    """``Curvature`` has no G, and after every suite on a type III space no
    (dm^2, dm^2) operator is held on it: not G, not R."""
    space = realize("b", 5, "A3III", (4,))
    verify_space(space)
    cv, dm = curvature(space), space.dim_m
    assert not hasattr(Curvature, "g") and not hasattr(cv, "g")
    assert not hasattr(Curvature, "riemann") and not hasattr(cv, "riemann")
    assert [v for v in vars(cv).values() if getattr(v, "shape", None) == (dm * dm, dm * dm)] == []


def test_every_blocked_loop_takes_the_entry_budget(monkeypatch):
    """With ``compactform.SLAB_ENTRIES`` at 2^10, four blocked loops cut more
    than one run with ``slab_cuts``: R's build and the minimal-connection
    suite on a8 nodes 2,5 (dm 52, one slab at the default budget) and g2
    cyclic, and the f4 Jacobi sweep; the symmetry reads cut one slab of a
    alone into one run, so they need only cut more than one somewhere.  R's
    slabs stacked, Ric, every ``verify_space`` residual and Jacobi's worst
    residual and triple equal those at the default budget bit for bit.  The
    width floor keeps g2 cyclic's commutant loop, 2 880 entries against a
    width of 3 584 columns, at one run."""
    def outputs():
        out = [cached_algebra("f", 4)._jacobi_worst()]
        for space in (realize("a", 8, "A3II", (2, 5)), realize_cyclic_c3(cached_algebra("g", 2))):
            res = verify_space(space)[1]
            rr = stacked_riemann(space)
            out += [{key: value.hex() for key, value in res.items()}, curvature(space).ric.tobytes(),
                    rr.indptr.tobytes(), rr.indices.tobytes(), rr.data.tobytes()]
        return out

    want, runs, real = outputs(), {}, compactform.slab_cuts

    def spy(*args, **kwargs):
        cuts = real(*args, **kwargs)
        runs.setdefault(sys._getframe(1).f_code.co_name, []).append(len(cuts))
        return cuts

    for module in (compactform, automorph, nk_analyzer):
        monkeypatch.setattr(module, "slab_cuts", spy)
    monkeypatch.setattr(compactform, "SLAB_ENTRIES", 1 << 10)
    assert outputs() == want
    assert sorted(runs) == ["_commutator_gram", "_jacobi_worst", "_symmetries", "min_connection",
                            "slabs"]
    assert max(runs.pop("_symmetries")) > 1, runs
    assert runs.pop("_commutator_gram") == [1]
    assert all(min(counts) > 1 for counts in runs.values()), runs


def test_the_commutant_gram_takes_the_budget_above_its_width(monkeypatch):
    """On the triality the commutant's product has 5 488 columns and its
    generators 32 928 entries, so a budget of 2^13 cuts the loop into 5 runs,
    and one of 2^10 into 6, one per width.  Summed slab by slab into one Gram
    in place, the Gram equals the one-run Gram to rounding."""
    space = realize_triality_d4(cached_algebra("d", 4))
    ak = automorph._ad_k_blocks(space)
    frame = automorph._weight_frame(automorph._checked_blocks(space, ak))
    whole, real = automorph._commutator_gram(ak, space.dim_m, frame), compactform.slab_cuts
    for budget, count in ((1 << 13, 5), (1 << 10, 6)):
        runs = []
        monkeypatch.setattr(automorph, "slab_cuts", lambda *args: runs.append(real(*args)) or runs[-1])
        monkeypatch.setattr(compactform, "SLAB_ENTRIES", budget)
        gram = automorph._commutator_gram(ak, space.dim_m, frame)
        assert [len(cuts) for cuts in runs] == [count]
        assert np.abs(gram - whole).max() <= 1e-12 * np.abs(whole).max()


def test_structure_identities(su3_flag):
    res = verify_structure_identities(su3_flag)
    assert max(res.values()) < 1e-9


@pytest.mark.parametrize("item", BENCH_SPACES, ids=_item_id)
def test_structure_identities_match_kron_oracle(item, structure_identity_oracle):
    """The relabellings of X and K by J = (pi, s) against the kron products
    they replace, on every space the analyze-irreducible and identity-sweep
    workloads draw: each residual to 1e-15."""
    space = _realize_item(item)
    res, want = verify_structure_identities(space), structure_identity_oracle(space)
    assert res.keys() == want.keys()
    assert max(abs(res[k] - want[k]) for k in want) <= 1e-15


@pytest.mark.parametrize("change", ["J sign", "X entry"])
def test_structure_residuals_move_as_the_oracle(change, structure_identity_oracle):
    """One sign of J flipped, or one stored entry of X moved by 0.5, on a
    dm = 84 space: every structure residual equals the kron oracle's, and
    the change shows."""
    sp = realize("e", 7, "A3III", (2,))
    if change == "J sign":
        curvature(sp).j.data[0] *= -1.0
    else:
        sp.tensors()[0].data[0] += 0.5
    res = verify_structure_identities(sp)
    assert res == structure_identity_oracle(sp)
    assert max(res.values()) > 1e-6


def test_structure_identities_form_no_kron(monkeypatch):
    """The structure suite runs with ``sp.kron`` raising in nk_analyzer."""
    sp = realize("e", 7, "A3III", (2,))
    sp.tensors(), curvature(sp).j

    def no_kron(*args, **kwargs):
        raise AssertionError("kron formed")

    monkeypatch.setattr(nk_analyzer.sp, "kron", no_kron)
    assert max(verify_structure_identities(sp).values()) < 1e-9


def _ambient_nat_reductive(space, x, y, z, t):
    """Independent curvature path: nested-bracket form in ambient coordinates.

    R(X,Y,Z,T) = <[[X,Y]_k, Z], T> + (1/2)<[[X,Y]_m, Z]_m, T>
                 - (1/4)<[X,[Y,Z]_m]_m, T> + (1/4)<[Y,[X,Z]_m]_m, T>
    valid on naturally reductive splits (the ambient basis is orthonormal).
    """
    alg = space.algebra
    mc, kc = space.m_cols, space.k_cols
    xa, ya, za, ta = (mc @ v for v in (x, y, z, t))
    pm = lambda v: mc @ (mc.T @ v)
    pk = lambda v: kc @ (kc.T @ v)
    br = lambda u, v: np.kron(u, v) @ alg.C
    out = br(pk(br(xa, ya)), za) @ ta
    out += 0.5 * pm(br(pm(br(xa, ya)), za)) @ ta
    out -= 0.25 * pm(br(xa, pm(br(ya, za)))) @ ta
    out += 0.25 * pm(br(ya, pm(br(xa, za)))) @ ta
    return out


@pytest.mark.parametrize("maker", [
    lambda: realize_cyclic_c3(__import__("nk_triad.tables", fromlist=["cached_algebra"]).cached_algebra("a", 1)),
    lambda: realize("g", 2, "A3III", (2,)),
])
def test_riemann_matches_nested_bracket_oracle(maker):
    sp = maker()
    op = stacked_riemann(sp)
    rng = np.random.default_rng(9)
    for _ in range(12):
        x, y, z, t = rng.standard_normal((4, sp.dim_m))
        want = _ambient_nat_reductive(sp, x, y, z, t)
        assert abs(riemann_value(sp, x, y, z, t) - want) < 1e-9
        assert abs(np.kron(x, y) @ (op @ np.kron(z, t)) - want) < 1e-9


def _dense_riemann(space):
    """Reference R[a,b,c,d] from dense einsums over the tensors."""
    xi, kc = dense_tensors(space)
    g2 = np.einsum("abk,cdk->abcd", xi, xi)
    r4 = np.einsum("abs,cds->abcd", kc, kc)
    return r4 + 2.0 * g2 - np.einsum("acbd->abcd", g2) + np.einsum("adbc->abcd", g2)


def _dense_ricci(space, j):
    """Reference (Ric, Ric*): Ric(X,Y) = R(X,e_i,Y,e_i), Ric*(X,Y) = R(X,e_i,JY,Je_i)."""
    r4 = _dense_riemann(space)
    return (np.einsum("aibi->ab", r4),
            np.einsum("aicd,cb,di->ab", r4, j, j))


@pytest.mark.parametrize("maker", [
    lambda: realize("a", 2, "A3II", (1, 2)),
    lambda: realize("g", 2, "A3III", (2,)),
    lambda: realize_cyclic_c3(__import__("nk_triad.tables", fromlist=["cached_algebra"]).cached_algebra("a", 1)),
    lambda: realize_triality_d4(__import__("nk_triad.tables", fromlist=["cached_algebra"]).cached_algebra("d", 4)),
])
def test_sparse_curvature_matches_dense_reference(maker):
    sp = maker()
    dm = sp.dim_m
    r4 = _dense_riemann(sp)
    ric, ric_star = _dense_ricci(sp, canonical_J(sp).toarray())
    op = stacked_riemann(sp)
    assert np.abs(op.toarray().reshape(dm, dm, dm, dm) - r4).max() < 1e-12
    got_ric, got_star, got_c = ricci_tensors(sp)
    assert np.abs(got_ric - ric).max() < 1e-12
    assert np.abs(got_star - ric_star).max() < 1e-12
    assert np.abs(got_c - (ric - 5.0 * ric_star)).max() < 1e-11
    # built once per space, and the memoised arrays are not writable
    assert curvature(sp) is curvature(sp)
    assert ricci_tensors(sp)[0] is got_ric and not got_ric.flags.writeable
    assert tensor_r(sp) is tensor_r(sp)


def test_s3xs3_sectional_curvature_nonnegative():
    from nk_triad.tables import cached_algebra

    sp = realize_cyclic_c3(cached_algebra("a", 1))
    samples = sectional_curvature_samples(sp, count=60, seed=4)
    assert min(samples) > -1e-10
    assert max(samples) > 0.1


def test_each_space_builds_its_exact_values_and_its_commutant_once(monkeypatch):
    """In the order of the identity sweep, every check reads one memoised
    report: one layer-trace table per inner space and none for the triality
    or a cyclic triple, one commutant per type-I/II space after realization."""
    spaces = [realize("g", 2, "A3III", (2,)), realize("a", 3, "A3II", (1, 3)),
              realize("g", 2, "A3IV", (1,)), realize_triality_d4(cached_algebra("d", 4)),
              realize_cyclic_c3(cached_algebra("a", 1))]
    calls = {}

    def counted(module, name):
        fn = getattr(module, name)

        def wrapper(*args):
            calls[name] = calls.get(name, 0) + 1
            return fn(*args)
        monkeypatch.setattr(module, name, wrapper)

    counted(exact, "layer_traces")
    counted(automorph, "commutant_basis")
    for sp in spaces:
        calls.clear()
        report, _ = verify_space(sp)
        again = build_report(sp)
        verify_ricci_oracle(sp)
        if report.nk_type in ("III", "IV"):
            verify_sat_identities(sp)
        want = {"layer_traces": 1} if sp.h_spec is not None else {}
        if report.nk_type in ("I", "II"):
            want["commutant_basis"] = 1
        assert calls == want, sp.name
        assert again is report and build_report(sp) is report


def test_scalar_r_for_irreducible_types():
    from nk_triad.tables import cached_algebra

    s6 = realize("g", 2, "A3IV", (1,))
    rep = build_report(s6)
    assert rep.eig_by_layer("r") == {"m": F(8, 3)}    # 2h*/3 with h* = 4
    assert rep.einstein and rep.einstein_constant == F(10, 3)
    spin8 = realize_triality_d4(cached_algebra("d", 4))
    rep8 = build_report(spin8)
    assert rep8.eig_by_layer("r") == {"m": F(4)}      # 2h*/3 with h* = 6
    c3 = realize_cyclic_c3(cached_algebra("a", 2))
    repc = build_report(c3)
    assert repc.eig_by_layer("r") == {"m": F(2)}      # 2h*/3 with h* = 3
    for sp in (s6, spin8, c3):
        assert sp._curvature is None                   # the report builds no curvature
        assert verify_ricci_oracle(sp) < 1e-9


@pytest.mark.parametrize("maker", [
    lambda: realize("g", 2, "A3III", (2,)),
    lambda: realize_cyclic_c3(tables.cached_algebra("a", 1)),
])
def test_ricci_oracle_checks_the_float_r(maker):
    """A float r 1% off its exact layer eigenvalues fails the oracle, on an
    inner space as on a cyclic one: the residual is 1% of the largest
    eigenvalue of r, read from r, not from Ricci."""
    sp = maker()
    cv = curvature(sp)
    r = cv.r
    assert verify_ricci_oracle(sp) < 1e-9
    cv.r = 1.01 * r                                    # replaces the memoised r
    worst = verify_ricci_oracle(sp)
    assert worst > 1e-9
    assert worst == pytest.approx(0.01 * np.abs(r).max(), abs=1e-12)


def test_ricci_oracle_refuses_a_kahler_space():
    """A Hermitian symmetric space has no exact layer eigenvalues for the
    oracle to read, so it is refused by name, not compared with nothing."""
    sp = realize("a", 3, "A3I", (1,))
    with pytest.raises(IdentityViolation, match=re.escape(f"{sp.name} is Kahler")):
        verify_ricci_oracle(sp)


def test_layer_closed_form_equals_trace_ricci():
    for args in [("b", 3, "A3III", (2,)), ("c", 3, "A3III", (2,)),
                 ("a", 3, "A3II", (1, 3)), ("f", 4, "A3III", (4,))]:
        sp = realize(*args)
        assert verify_ricci_oracle(sp) < 1e-9
        exact_r_eigenvalues(sp.algebra.cd, sp.h_spec)
        exact_r_cross_layer(sp.algebra.cd, sp.h_spec)


def test_ricci_star_symmetric_and_J_invariant(g2_twistor):
    ric, ric_star, c = ricci_tensors(g2_twistor)
    j = canonical_J(g2_twistor)
    for mtx in (ric, ric_star, c):
        assert np.abs(mtx - mtx.T).max() < 1e-9
        assert np.abs(mtx @ j - j @ mtx).max() < 1e-9
    r = tensor_r(g2_twistor)
    assert np.abs(ric - ric_star - r).max() < 1e-9


def test_eigenbundles_shared_between_tensors(g2_twistor):
    """r, Ric and C are simultaneously diagonal on the layer projectors."""
    sp = g2_twistor
    ric, _, c = ricci_tensors(sp)
    r = tensor_r(sp)
    for pos in sp.layers.values():
        proj = np.zeros((sp.dim_m, sp.dim_m))
        proj[pos, pos] = 1.0
        for mtx in (r, ric, c):
            assert np.abs(mtx @ proj - proj @ mtx).max() < 1e-9


def test_lk_ratio_catalogue():
    expected = {
        ("c", 2, (1,)): F(1),          # Einstein odd projective 3-space
        ("c", 3, (1,)): F(2),
        ("g", 2, (2,)): F(2),
        ("b", 4, (2,)): F(5),
        ("d", 5, (2,)): F(6),
        ("f", 4, (1,)): F(7),
        ("e", 6, (2,)): F(10),
    }
    for (family, rank, nodes), ratio in expected.items():
        rep = build_report(realize(family, rank, "A3III", nodes))
        assert rep.lk_ratio == ratio, (family, rank)
    # the third 10-dimensional ratio-2 space sits in the three-layer family
    rep = build_report(realize("a", 3, "A3II", (1, 3)))
    assert rep.lk_ratio == F(2)
    assert rep.splitting["V1"] == 2


def test_riemann_tensor_symmetries_small(su3_flag):
    r4 = riemann_tensor(su3_flag)
    assert np.abs(r4 + np.einsum("bacd->abcd", r4)).max() < 1e-12
    assert np.abs(r4 - np.einsum("cdab->abcd", r4)).max() < 1e-12


def _exact_r_on_root(cd, rs, alpha, t_of, betas=None) -> Fraction:
    """Reference trace of one m-root, summed in Fraction over the m-roots
    ``betas`` (all of them by default): 2 sum N^2 over the torsion pairs."""
    total = Fraction(0)
    ta = t_of[alpha]
    for beta in t_of if betas is None else betas:
        tb = t_of[beta]
        if beta == alpha:
            continue
        s = tuple(a + b for a, b in zip(alpha, beta))
        if rs.is_root(s) and (ta + tb) % 1 != 0:
            total += n_squared(cd, alpha, beta)
        d = tuple(a - b for a, b in zip(alpha, beta))
        if any(d) and rs.is_root(d) and ta != tb:
            total += n_squared(cd, tuple(-a for a in alpha), beta)
    return 2 * total


def test_layer_traces_match_fraction_oracle(fraction_count, alpha_oracle):
    """Every entry and every row sum of the int trace rows of each layer, one
    row per root of the layer in split order, against the Fraction reference
    on the 170 catalogue spaces; the int pass builds no Fraction."""
    spaces = [realize(f, r, "A3II", n) for f, r, n in tables.a3ii_sweep()]
    spaces += [realize(f, r, "A3III", (n,)) for f, r, n in tables.a3iii_sweep(deep=True)]
    assert len(spaces) == 170
    for sp in spaces:
        rs, cd = sp.algebra.rs, sp.algebra.cd
        traces, built = fraction_count(layer_traces, cd, sp.h_spec)
        assert built == 0, sp.name
        layer_roots = {label: [rs.roots[i] for i in roots]
                       for label, roots in sp.h_spec.split(rs)[0].items()}
        t_of = {r: alpha_oracle(sp.h_spec, rs, r) % 1
                for roots in layer_roots.values() for r in roots}
        assert list(traces) == list(layer_roots)
        for label, (layer, rows) in traces.items():
            roots = [rs.roots[i] for i in layer]
            assert roots == layer_roots[label]
            assert rows.shape == (len(roots), len(layer_roots))
            assert rows.dtype.kind == "i"
            for alpha, row in zip(roots, rows.tolist()):
                assert F(sum(row), 6) == _exact_r_on_root(cd, rs, alpha, t_of), sp.name
                for value, betas in zip(row, layer_roots.values()):
                    assert F(value, 6) == _exact_r_on_root(cd, rs, alpha, t_of, betas)


def test_changed_n_squared_entry_is_caught():
    """One N^2 entry off by one breaks the eigenbundle check at its root."""
    sp = realize("a", 5, "A3II", (2, 4))
    levels, d = sp.h_spec.levels(sp.algebra.rs)
    layer_roots = sp.h_spec.split(sp.algebra.rs)[0]
    layer_of = {i: lbl for lbl, roots in layer_roots.items() for i in roots.tolist()}
    cd = copy.copy(sp.algebra.cd)
    a, b = next((i, j) for i, j in np.argwhere(cd.plus >= 0).tolist()
                if i in layer_of and j in layer_of and (levels[i] + levels[j]) % d)
    cd.n12 = cd.n12.copy()
    cd.n12[a, b] += 12      # N^2 up by one
    assert len(layer_roots[layer_of[a]]) >= 3
    for check in (exact_r_cross_layer, exact_r_eigenvalues):
        with pytest.raises(NonRationalEigenvalue) as exc:
            check(cd, sp.h_spec)
        assert f"layer {layer_of[a]} " in str(exc.value)
        assert f"at root {cd.roots[a]}" in str(exc.value)
