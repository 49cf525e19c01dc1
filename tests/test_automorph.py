"""Order-3 automorphism enumeration and realization."""

import gc
import time
import tracemalloc
import weakref
from fractions import Fraction

import numpy as np
import pytest

from nk_triad import automorph, cli, tables
from nk_triad.automorph import (
    TrialityInconsistent,
    classify_type,
    commutant_basis,
    invariant_halves,
    orbit_span_dim,
    realize_cyclic_c3,
    realize_inner,
    realize_triality_d4,
)
from nk_triad.compactform import ZERO_DROP, CompactAlgebra, adjoint_action_exp
from nk_triad.nk_analyzer import curvature, gram
from nk_triad.rootsys import (
    ClassificationMismatch,
    InnerClass,
    InvalidRank,
    NotOrderThree,
    build_root_system,
    enumerate_inner_order3,
    subsystem_type,
)
from nk_triad.tables import realize

from conftest import (ad, ad_k, bracket_preservation_residual, fixed_algebra_root_signature,
                      root_mask, set_ad_k)

F = Fraction


def kinds(rs, dedup=False):
    return [(c.kind, c.nodes) for c in enumerate_inner_order3(rs, dedup=dedup)]


def test_enumeration_g2(rootsys):
    assert kinds(rootsys("g", 2)) == [("A3III", (2,)), ("A3IV", (1,))]


def test_enumeration_a2(rootsys):
    assert kinds(rootsys("a", 2)) == [("A3I", (1,)), ("A3I", (2,)), ("A3II", (1, 2))]


def test_enumeration_e8(rootsys):
    assert kinds(rootsys("e", 8)) == [("A3III", (1,)), ("A3III", (8,)),
                                      ("A3IV", (2,)), ("A3IV", (7,))]


def test_enumeration_e6_with_dedup(rootsys):
    rs = rootsys("e", 6)
    raw = kinds(rs)
    assert ("A3I", (1,)) in raw and ("A3I", (6,)) in raw
    assert ("A3II", (1, 6)) in raw
    assert raw.count(("A3IV", (4,))) == 1
    deduped = kinds(rs, dedup=True)
    assert ("A3I", (6,)) not in deduped          # diagram flip merges the ends
    assert ("A3III", (5,)) not in deduped        # 3 ~ 5 under the flip
    assert ("A3III", (3,)) in deduped


def test_enumeration_dn_pairs(rootsys):
    raw = kinds(rootsys("d", 5))
    assert ("A3II", (1, 4)) in raw and ("A3II", (1, 5)) in raw and ("A3II", (4, 5)) in raw
    dd = kinds(rootsys("d", 5), dedup=True)
    assert ("A3II", (1, 5)) not in dd            # 4 ~ 5 merges (1,4) and (1,5)


def test_alpha_value_is_exact(rootsys, alpha_oracle):
    rs = rootsys("g", 2)
    cls = InnerClass("A3IV", (1,), (F(1),))
    assert alpha_oracle(cls, rs, (3, 2)) == 1      # highest root, n1/m1 = 3/3
    assert alpha_oracle(cls, rs, (1, 1)) == F(1, 3)
    levels, d = cls.levels(rs)
    assert (levels[rs.root_index[(3, 2)]], levels[rs.root_index[(1, 1)]], d) == (0, 1, 3)


def _layer_label(cls, c) -> str:
    """The m-layer of a root by its coefficients on the nodes of its class."""
    if cls.kind == "A3II":
        return {(1, 1): "V1", (1, 0): "V2", (0, 1): "V3"}[tuple(c[n - 1] for n in cls.nodes)]
    if cls.kind == "A3III":
        return {2: "V", 1: "H"}[c[cls.nodes[0] - 1]]
    return "m"


def test_levels_match_alpha_value(rootsys, alpha_oracle):
    """The int numerators of a(H) mod 1 on every root against the exact
    Fraction value, and the root split: k holds exactly the positive roots
    with a(H) = 0 mod 1, and the m-layers the others, each once, ascending,
    under the label its coefficients name; layers come in the order of their
    first root."""
    for family, rank in [("a", 5), ("c", 4), ("g", 2), ("f", 4), ("e", 6), ("e", 8)]:
        rs = rootsys(family, rank)
        n = rs.n_positive
        for cls in enumerate_inner_order3(rs):
            levels, d = cls.levels(rs)
            assert d == 3
            exact = [alpha_oracle(cls, rs, c) % 1 for c in rs.roots]
            assert levels.tolist() == [t * d for t in exact]
            layer_roots, k_roots = cls.split(rs)
            assert k_roots.tolist() == [i for i in range(n) if exact[i] == 0]
            m_roots = [i for roots in layer_roots.values() for i in roots.tolist()]
            assert sorted(m_roots) == [i for i in range(n) if exact[i]]
            assert list(layer_roots) == list(dict.fromkeys(
                _layer_label(cls, rs.roots[i]) for i in sorted(m_roots)))
            for label, roots in layer_roots.items():
                assert roots.tolist() == sorted(roots.tolist())
                assert {_layer_label(cls, rs.roots[i]) for i in roots} == {label}


def test_split_memo_leaves_its_root_system_collectable():
    """The split memo lives on the root system, so a root system that was
    split is freed once the last reference to it goes."""
    rs = build_root_system("e", 6)
    for cls in enumerate_inner_order3(rs):
        cls.split(rs)
    assert len(rs._splits) == len(enumerate_inner_order3(rs))
    ref = weakref.ref(rs)
    del rs
    gc.collect()
    assert ref() is None


def test_split_memo_hits_hash_no_fraction(rootsys, monkeypatch):
    """Each memo read of ``split`` hashes the class, and a Fraction hashes in
    Python code; the class hashes its fields once, so the reads after the
    first hash no Fraction."""
    rs = rootsys("e", 7)
    calls, real = [], Fraction.__hash__
    monkeypatch.setattr(Fraction, "__hash__", lambda self: calls.append(self) or real(self))
    cls = InnerClass.of_nodes(rs, (2,))
    first = cls.split(rs)
    hashed = len(calls)
    for _ in range(5):
        assert cls.split(rs) is first
    assert hashed > 0 and len(calls) == hashed
    assert hash(cls) == hash(InnerClass.of_nodes(rs, (2,)))


def test_of_nodes_picks_the_class_from_the_marks(rootsys):
    """The class of a node set is the one ``enumerate_inner_order3`` lists for
    it; nodes of mark above 3 and bad sets raise ``InvalidRank``."""
    for family, rank in [("a", 3), ("d", 5), ("e", 6), ("e", 8), ("f", 4), ("g", 2)]:
        rs = rootsys(family, rank)
        for cls in enumerate_inner_order3(rs):
            assert InnerClass.of_nodes(rs, cls.nodes) == cls
    rs = rootsys("e", 8)
    for nodes in [(4,), (3,), (5,), (), (1, 2, 3), (0,), (9,), (1, 8), (1, 1)]:
        with pytest.raises(InvalidRank):
            InnerClass.of_nodes(rs, nodes)
    with pytest.raises(InvalidRank, match="give A3III, not A3IV"):
        realize("g", 2, "A3IV", (2,))


def test_realize_su3_flag(algebra):
    sp = realize_inner(algebra("a", 2), InnerClass("A3II", (1, 2), (F(1, 3), F(1, 3))))
    assert sp.dim_k == 2 and sp.dim_m == 6
    assert sp.h_spec.split(sp.algebra.rs)[1].tolist() == []
    assert {k: len(v) for k, v in sp.layers.items()} == {"V1": 2, "V2": 2, "V3": 2}
    assert classify_type(sp) == "III"


def test_realize_g2_twistor(algebra):
    sp = realize_inner(algebra("g", 2), InnerClass("A3III", (2,), (F(2, 3),)))
    rs = sp.algebra.rs
    assert [rs.roots[i] for i in sp.h_spec.split(rs)[1]] == [(1, 0)]
    assert sp.dim_k == 4 and sp.dim_m == 10
    assert len(sp.layers["V"]) == 2 and len(sp.layers["H"]) == 8
    assert classify_type(sp) == "IV"


def test_realize_f4_node1_isotropy_is_c3(algebra):
    sp = realize_inner(algebra("f", 4), InnerClass("A3III", (1,), (F(2, 3),)))
    rs = sp.algebra.rs
    k_roots = [rs.roots[i] for i in sp.h_spec.split(rs)[1]]
    assert len(k_roots) == 9 and sp.dim_k == rs.rank + 2 * 9
    full = k_roots + [tuple(-x for x in c) for c in k_roots]
    st = subsystem_type(rs, root_mask(rs, full))
    assert st.components == (("c", 3),) and st.torus_rank == 1


def test_sigma_cubes_for_all_table_classes(algebra):
    for family, rank in [("a", 3), ("b", 3), ("e", 6)]:
        ca = algebra(family, rank)
        for cls in enumerate_inner_order3(ca.rs):
            sp = realize_inner(ca, cls)
            sp.check_invariants()
            assert sp.dim_m % 2 == 0
            assert sp.dim_k + sp.dim_m == ca.dim


ALL_TYPES = ([("a", n) for n in range(1, 9)] + [("b", n) for n in range(2, 9)]
             + [("c", n) for n in range(2, 9)] + [("d", n) for n in range(4, 9)]
             + [("e", 6), ("e", 7), ("e", 8), ("f", 4), ("g", 2)])


def test_sigma_from_levels_is_bit_identical_to_fraction_angles(algebra, sigma_oracle):
    """sigma from the int levels against the Fraction-angle reference, every
    entry exactly equal (0.0 and -0.0 alike), on every inner class of all 32
    types up to rank 8."""
    assert len(ALL_TYPES) == 32
    for family, rank in ALL_TYPES:
        ca = algebra(family, rank)
        for cls in enumerate_inner_order3(ca.rs):
            got = adjoint_action_exp(ca, *cls.levels(ca.rs))
            assert np.array_equal(got.toarray(), sigma_oracle(ca, cls)), (family, rank, cls)


def test_bad_h_spec_raises(algebra):
    # an order-6 element is rejected by the order-3 invariant checks
    with pytest.raises(NotOrderThree):
        realize_inner(algebra("a", 2), InnerClass("A3II", (1, 2), (F(1, 6), F(1, 6))))


def test_triality_dimensions_and_fixed_vectors(algebra):
    ca = algebra("d", 4)
    sp = realize_triality_d4(ca)
    assert sp.dim_k == 14 and sp.dim_m == 14
    # sigma fixes the alpha_2 and highest-root planes
    rs = ca.rs
    for root in [(0, 1, 0, 0), (1, 2, 1, 1)]:
        for p in (0, 1):
            idx = ca.u_index(rs.root_index[root], p)
            assert abs(sp.sigma[idx, idx] - 1) < 1e-12
    assert bracket_preservation_residual(sp) < 1e-12


def test_triality_fixed_algebra_is_g2(algebra):
    sp = realize_triality_d4(algebra("d", 4))
    rank, nroots, ratio = fixed_algebra_root_signature(sp)
    assert (rank, nroots) == (2, 12)
    assert abs(ratio - 3.0) < 1e-6


def test_triality_halves_are_invariant(algebra):
    sp = realize_triality_d4(algebra("d", 4))
    ak = ad_k(sp)
    e_pos, je_pos = sp.layers["E"], sp.layers["JE"]
    for s in range(sp.dim_k):
        block = ak[s][np.ix_(je_pos, e_pos)]
        assert np.abs(block).max() < 1e-9
    assert classify_type(sp) == "II"
    halves = invariant_halves(sp)
    assert (halves[0].shape[1], halves[1].shape[1]) == (7, 7)


def test_cyclic_su2(algebra):
    sp = realize_cyclic_c3(algebra("a", 1))
    assert sp.algebra.dim == 9 and sp.dim_k == 3 and sp.dim_m == 6
    assert bracket_preservation_residual(sp) == 0.0     # every pair, block-diagonal C
    assert classify_type(sp) == "II"


def test_cyclic_diagonal_action_matches_component(algebra):
    """ad of the diagonal on the first half acts as the component algebra."""
    base = algebra("a", 2)
    sp = realize_cyclic_c3(base)
    ak = ad_k(sp)
    d = base.dim
    for s in range(d):
        expect = ad(base, s).toarray() / np.sqrt(3.0)
        assert np.abs(ak[s][:d, :d] - expect).max() < 1e-12


def test_orbit_span_full_on_isotropy_irreducible():
    sp = realize("g", 2, "A3IV", (1,))
    rng = np.random.default_rng(11)
    assert orbit_span_dim(sp, rng.standard_normal(sp.dim_m)) == sp.dim_m
    assert invariant_halves(sp) is None
    assert classify_type(sp) == "I"


def test_orbit_span_half_inside_invariant_subspace(algebra):
    sp = realize_cyclic_c3(algebra("a", 1))
    seed = np.zeros(sp.dim_m)
    seed[0] = 1.0                         # a vector of the E half
    assert orbit_span_dim(sp, seed) == 3
    halves = invariant_halves(sp)
    assert halves is not None and halves[0].shape[1] == 3


def test_bracket_preservation_checks_every_pair(algebra, monkeypatch):
    ca = algebra("d", 4)
    sp = realize_triality_d4(ca)
    col = ca.u_index(5, 0)
    row = int(np.flatnonzero(sp.sigma[:, col].toarray())[0])
    sp.sigma[row, col] *= -1.0                   # one U-plane entry of a fresh space
    sigma, eye = sp.sigma.toarray(), np.eye(ca.dim)
    br = lambda x, y: np.kron(x, y) @ ca.C
    dense = np.array([[np.abs(sigma @ br(eye[:, i], eye[:, j])
                              - br(sigma[:, i], sigma[:, j])).max()
                       for j in range(ca.dim)] for i in range(ca.dim)])
    assert bracket_preservation_residual(sp) > 1e-9
    residual, (i, j) = sp._bracket_preservation_worst()
    assert residual == pytest.approx(dense.max(), abs=1e-12)
    assert dense[i, j] == pytest.approx(dense.max(), abs=1e-12)
    # the realization names the pair: flip one sign, past the order-3 check
    signs = automorph._rotation_signs
    monkeypatch.setattr(automorph, "_rotation_signs",
                        lambda cd, image: [-e if k == 5 else e
                                           for k, e in enumerate(signs(cd, image))])
    monkeypatch.setattr(automorph.OrderThreeSymmetricSpace, "check_invariants",
                        lambda self, tol=1e-9: None)
    with pytest.raises(TrialityInconsistent, match=r"basis pair \(\d+, \d+\): residual"):
        realize_triality_d4(ca)


def dense_invariant_halves(space, tol=1e-7):
    """Reference: the commutant from the dim m^2 x dim m^2 normal matrix of the
    kron-product commutator map; returns (commutant dim, halves or None)."""
    ak = ad_k(space)
    dm = space.dim_m
    normal = np.zeros((dm * dm, dm * dm))
    eye = np.eye(dm)
    for s in range(space.dim_k):
        op = np.kron(ak[s], eye) - np.kron(eye, ak[s].T)
        normal += op.T @ op
    vals, vecs = np.linalg.eigh(normal)
    commutant = [vecs[:, k].reshape(dm, dm) for k in range(dm * dm) if vals[k] < tol]
    sym = [(m + m.T) / 2.0 for m in commutant if np.abs(m + m.T).max() > 2e-6]
    flat = np.array([s.ravel() / np.linalg.norm(s) for s in sym] + [eye.ravel() / np.sqrt(dm)])
    if np.linalg.matrix_rank(flat, tol=1e-6) <= 1:
        return len(commutant), None
    probe = next(s for s in sym if np.linalg.norm(s - (np.trace(s) / dm) * eye) > 1e-6)
    vals, vecs = np.linalg.eigh(probe - (np.trace(probe) / dm) * eye)
    return len(commutant), (vecs[:, vals > 0], vecs[:, vals <= 0])


def _leak(space, halves):
    return max(np.abs(halves[1].T @ a @ halves[0]).max() for a in ad_k(space))


COMMUTANT_SPACES = {                  # dim m <= 36: the dim m^2-coordinate Gram stays cheap
    "g2-node1": lambda: realize("g", 2, "A3IV", (1,)),
    "f4-node2": lambda: realize("f", 4, "A3IV", (2,)),
    "d4-triality": lambda: realize_triality_d4(tables.cached_algebra("d", 4)),
    **{f"{f}{r}-cyclic": (lambda f=f, r=r: realize_cyclic_c3(tables.cached_algebra(f, r)))
       for f, r in [("a", 1), ("a", 2), ("a", 3), ("b", 2), ("g", 2)]},
}


@pytest.mark.parametrize("name", list(COMMUTANT_SPACES))
def test_block_commutant_matches_dense_reference(name):
    sp = COMMUTANT_SPACES[name]()
    dim, ref = dense_invariant_halves(sp)
    basis = commutant_basis(sp)
    assert len(basis) == dim
    assert max(np.abs(a @ s - s @ a).max() for a in ad_k(sp) for s in basis) < 1e-9
    halves = invariant_halves(sp)
    if ref is None:
        assert halves is None
        return
    assert (halves[0].shape[1], halves[1].shape[1]) == (ref[0].shape[1], ref[1].shape[1])
    assert _leak(sp, halves) < 1e-9 and _leak(sp, ref) < 1e-9


@pytest.mark.parametrize("name", list(COMMUTANT_SPACES))
def test_coarsest_blocking_gives_the_same_commutant(name):
    """With every m column in block -1 the commutant is solved over all dim m^2
    entries: the same dimension and the same half dimensions as over the
    torus-weight blocks, which the torus check keeps, each half invariant."""
    sp = COMMUTANT_SPACES[name]()
    dm = sp.dim_m
    ak = sp.tensors()[1].T.reshape((sp.dim_k * dm, dm)).tocsr()
    assert automorph._checked_blocks(sp, ak) is sp.weight_block
    fine, fine_halves = len(commutant_basis(sp)), invariant_halves(sp)
    sp.weight_block = np.full(sp.dim_m, -1)
    assert len(commutant_basis(sp)) == fine
    halves = invariant_halves(sp)
    if fine_halves is None:
        assert halves is None
        return
    assert [h.shape[1] for h in halves] == [h.shape[1] for h in fine_halves]
    assert _leak(sp, halves) < 1e-9 and _leak(sp, fine_halves) < 1e-9


@pytest.mark.parametrize("make", [
    lambda: realize("g", 2, "A3IV", (1,)),
    lambda: realize_cyclic_c3(tables.cached_algebra("a", 2)),
], ids=["g2-node1", "a2-cyclic"])
def test_blocking_that_splits_a_root_plane_raises(make):
    """The two columns of one root plane in different blocks: the torus joins
    them, and ``commutant_basis`` refuses the blocking."""
    sp = make()
    with pytest.raises(ValueError):
        sp.weight_block[0] = 0                           # read-only
    block = sp.weight_block.copy()
    plane = np.flatnonzero(block >= 0)[:2]               # the first plane's two columns
    assert block[plane[0]] == block[plane[1]]
    block[plane[1]] = block.max() + 1
    sp.weight_block = block
    with pytest.raises(ClassificationMismatch, match="torus of k joins two weight blocks"):
        commutant_basis(sp)


def test_cli_analyze_exits_1_when_the_torus_joins_two_blocks(monkeypatch, capsys):
    """a1 cyclic with the JE half carrying E's blocks of ad(k) for generators
    0 and 1 swapped: the torus generator then joins a Cartan column to a root
    plane, and ``analyze`` exits 1 with one line, not a traceback."""
    def swapped(component):
        sp = realize_cyclic_c3(component)
        a, dm = ad_k(sp), sp.dim_m
        e, je = np.arange(dm // 2)[:, None], np.arange(dm // 2, dm)[:, None]
        a[0, je, je.T], a[1, je, je.T] = a[1, e, e.T], a[0, e, e.T]
        return set_ad_k(sp, a)

    monkeypatch.setattr(automorph, "realize_cyclic_c3", swapped)
    assert cli.main(["analyze", "a", "1", "--cyclic"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("verification failure: ClassificationMismatch: (a1)^3 / diagonal: "
                          "the torus of k joins")
    assert err.count("\n") == 1


def _broken_torus(family, rank, corrupt):
    """A fresh cyclic triple whose torus, on plane block 1, either takes the
    weights of block 0 or also swaps the E and JE copies: the plane frame
    would miss operators that commute with it."""
    sp = realize_cyclic_c3(tables.cached_algebra(family, rank))
    a, n = ad_k(sp), sp.torus
    b0, b1 = (np.flatnonzero(sp.weight_block == b) for b in (0, 1))
    if corrupt == "equal-weights":
        a[:n, b1[:, None], b1] = a[:n, b0[:, None], b0]
    else:                                                # I_2 (x) w J_2 -> (I_2 + X) (x) w J_2
        a[:n, b1[:, None], b1] += a[:n, b1[[2, 3, 0, 1]][:, None], b1]
    return set_ad_k(sp, a)


BROKEN_TORUS = "the torus of k breaks the weight blocks of m"


@pytest.mark.parametrize("family, rank, corrupt", [("a", 2, "equal-weights"),
                                                   ("a", 2, "mixed-copies"),
                                                   ("f", 4, "equal-weights")],
                         ids=["equal-weights", "mixed-copies", "f4-equal-weights"])
def test_a_torus_that_breaks_the_blocks_is_refused(family, rank, corrupt):
    """``commutant_basis`` refuses the blocking before it forms any Gram: on
    f4 cyclic (dim m 104) a Gram over every entry would take 0.87 GiB."""
    sp = _broken_torus(family, rank, corrupt)
    tracemalloc.start()
    try:
        with pytest.raises(ClassificationMismatch, match=f"diagonal: {BROKEN_TORUS}"):
            commutant_basis(sp)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 10 * 2**20


def test_cli_analyze_exits_1_when_the_torus_breaks_the_blocks(monkeypatch, capsys):
    monkeypatch.setattr(automorph, "realize_cyclic_c3",
                        lambda ca: _broken_torus("a", 2, "equal-weights"))
    assert cli.main(["analyze", "a", "2", "--cyclic"]) == 1
    err = capsys.readouterr().err
    assert err == f"verification failure: ClassificationMismatch: (a2)^3 / diagonal: {BROKEN_TORUS}\n"


def test_every_type_i_and_ii_space_is_confirmed(algebra):
    """No size cutoff: every A3IV class up to e8 (dim m 168) and every cyclic
    triple up to a4 gets a confirmed type, in bounded time."""
    spaces = [realize_inner(algebra(f, r), cls)
              for f, r in [("g", 2), ("f", 4), ("e", 6), ("e", 7), ("e", 8)]
              for cls in enumerate_inner_order3(algebra(f, r).rs, dedup=True)
              if cls.kind == "A3IV"]
    spaces += [realize_cyclic_c3(algebra(f, r))
               for f, r in [("a", 1), ("a", 2), ("a", 3), ("a", 4), ("b", 2), ("b", 3),
                            ("c", 3), ("g", 2)]]
    assert max(sp.dim_m for sp in spaces) == 168
    for sp in spaces:
        sp.tensors()
    start = time.process_time()
    labels = [classify_type(sp) for sp in spaces]
    assert time.process_time() - start < 20.0
    assert labels == ["I" if sp.type_label == "A3IV" else "II" for sp in spaces]
    # irreducible, so the orbit of any nonzero vector spans m
    for sp in spaces:
        if sp.type_label == "A3IV":
            assert orbit_span_dim(sp, np.eye(sp.dim_m)[0]) == sp.dim_m, sp.name


def _looks_reducible():
    """A fresh g2 node 1 space whose ad(k)|m, off the torus, has its entries
    between the m columns {0, 1} and the rest zeroed: the torus keeps its
    weight blocks, and the plane {0, 1} is invariant."""
    sp = realize("g", 2, "A3IV", (1,))
    kc = sp.tensors()[1]
    c, d = np.divmod(np.repeat(np.arange(kc.shape[0]), np.diff(kc.indptr)), sp.dim_m)
    kc.data[(kc.indices >= sp.torus) & ((c < 2) != (d < 2))] = 0.0   # K[(c, d), s]
    kc.eliminate_zeros()
    return sp


def test_classification_mismatch_fails_loudly(monkeypatch, capsys):
    with pytest.raises(ClassificationMismatch,
                       match=r"type I, but m splits into invariant halves \(2, 4\)"):
        classify_type(_looks_reducible())
    monkeypatch.setattr(tables, "realize", lambda *args: _looks_reducible())
    assert cli.main(["analyze", "g", "2", "--nodes", "1"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("verification failure: ClassificationMismatch: G2/SU(3): type I")
    assert err.count("\n") == 1
    monkeypatch.setattr(cli, "identity_subjects", lambda: ["g 2 --nodes 1"])
    assert cli.main(["verify", "identities"]) == 1
    assert "identities:g 2 --nodes 1:ClassificationMismatch:G2/SU(3): type I" \
        in capsys.readouterr().out


def _coupled_halves():
    """A fresh a1 cyclic space whose ad(k)|m couples its halves E and JE.

    ad(k_s) = kron(I, B_s), one antisymmetric 3 x 3 block B_s on each half.
    Rewritten as kron(I, B_0), kron(X, B_1) and kron(Z, B_2) (X the swap of
    E and JE, Z the sign flip of JE), every block stays antisymmetric, but only the scalars of the 2 x 2 factor
    commute with I, X and Z: no symmetric operator but a scalar commutes
    with the action, so m has no invariant halves."""
    sp = realize_cyclic_c3(tables.cached_algebra("a", 1))
    a, h = ad_k(sp), sp.dim_m // 2
    assert np.array_equal(a[:, :h, h:], np.zeros((sp.dim_k, h, h)))
    a[1] = np.kron([[0.0, 1.0], [1.0, 0.0]], a[1, :h, :h])
    a[2] = np.kron([[1.0, 0.0], [0.0, -1.0]], a[2, :h, :h])
    return set_ad_k(sp, a)


def test_type_ii_without_equal_halves_fails_loudly(monkeypatch, capsys):
    with pytest.raises(ClassificationMismatch,
                       match="type II needs two equal invariant halves, found none"):
        classify_type(_coupled_halves())
    monkeypatch.setattr(automorph, "realize_cyclic_c3", lambda ca: _coupled_halves())
    assert cli.main(["analyze", "a", "1", "--cyclic"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("verification failure: ClassificationMismatch: (a1)^3 / diagonal: "
                          "type II") and err.count("\n") == 1


# -- the tensors as one sparse product of C ------------------------------------------


def dense_reference_tensors(space):
    """Reference (xi, kc, ap) as dense 3-tensors, by tensordot over a dense C:
    xi[a, b, p] = -(1/2)<[m_a, m_b], m_p>, kc[a, b, s] = <[m_a, m_b], k_s> and
    ap[s, c, d] = <[k_s, m_c], m_d>, the last from C's [k, m] rows, which
    ``tensors()`` never reads."""
    d = space.algebra.dim
    c = space.algebra.C.toarray().reshape(d, d, d)
    m, k = space.m_cols.toarray(), space.k_cols.toarray()

    def on_pair(x, y, t):       # t[i, j, ...] -> [a, b, ...] = sum x[i, a] y[j, b] t[i, j, ...]
        return np.tensordot(x, np.tensordot(y, t, axes=(0, 1)), axes=(0, 1))

    cm = np.tensordot(c, m, axes=(2, 0))
    return (-0.5 * on_pair(m, m, cm), on_pair(m, m, np.tensordot(c, k, axes=(2, 0))),
            on_pair(k, m, cm))


ORACLE_SPACES = {
    "g2-node1": lambda: realize("g", 2, "A3IV", (1,)),
    "e7-node2": lambda: realize("e", 7, "A3III", (2,)),
    "d4-triality": lambda: realize_triality_d4(tables.cached_algebra("d", 4)),
    "a1-cyclic": lambda: realize_cyclic_c3(tables.cached_algebra("a", 1)),
    "a2-cyclic": lambda: realize_cyclic_c3(tables.cached_algebra("a", 2)),
    "g2-cyclic": lambda: realize_cyclic_c3(tables.cached_algebra("g", 2)),
    "f4-cyclic": lambda: realize_cyclic_c3(tables.cached_algebra("f", 4)),
}


@pytest.mark.parametrize("name", list(ORACLE_SPACES))
def test_tensors_match_dense_reference(name):
    """X, K and K^T against xi, kc and ap: K^T = A' is ad-invariance, tested
    against A' read off C's [k, m] rows.  Bit-identical on inner classes (M
    selects basis columns); within 1e-15 on the dense-column constructions,
    once the reference loses the float noise below ZERO_DROP that
    ``tensors()`` drops (up to 2e-15 on d4 triality, whose columns come from
    an eigensolver)."""
    space = ORACLE_SPACES[name]()
    dm, dk = space.dim_m, space.dim_k
    x, kc = space.tensors()
    got = [x.toarray(), kc.toarray(), kc.T.toarray()]
    ref = [t.reshape(shape) for t, shape in zip(
        dense_reference_tensors(space), ((dm * dm, dm), (dm * dm, dk), (dk, dm * dm)))]
    if space.h_spec is not None:
        assert all(np.array_equal(g, r) for g, r in zip(got, ref))
    else:
        for r in ref:
            r[np.abs(r) < ZERO_DROP] = 0.0
        assert max(np.abs(g - r).max() for g, r in zip(got, ref)) < 1e-15


def test_tensors_are_sparse_memoised_and_noise_free():
    """X, K, J, a row block of G (the rows (0, b), as R's build and the
    layer suites form G) and R's slabs are CSR with no entry below ``ZERO_DROP``."""
    for space in (realize_cyclic_c3(tables.cached_algebra("f", 4)),
                  realize_triality_d4(tables.cached_algebra("d", 4))):
        first = space.tensors()
        assert space.tensors() is first
        cv, dm = curvature(space), space.dim_m
        rows = gram(first[0], np.arange(dm), np.arange(dm * dm))
        for t in first + (cv.j, rows, *(slab for _, slab, _ in cv.slabs())):
            assert t.format == "csr" and np.abs(t.data).min() >= ZERO_DROP


def test_one_flipped_entry_moves_jacobi_preservation_and_xi(algebra):
    """C is the algebra's one bracket: negating one entry of it (both orders)
    on a fresh g2 shows in the Jacobi sweep, in bracket preservation by sigma
    and in xi, at that entry."""
    cached = algebra("g", 2)
    spec = next(c for c in enumerate_inner_order3(cached.rs) if c.kind == "A3IV")
    before = realize_inner(cached, spec)
    dm = before.dim_m
    x = before.tensors()[0].tocoo()
    (a, b), p = divmod(int(x.row[0]), dm), int(x.col[0])
    i, j, l = before.m_cols.toarray().argmax(axis=0)[[a, b, p]]   # their ambient basis vectors
    fresh = CompactAlgebra(cached.cd)
    c = fresh.C
    for r in (i * fresh.dim + j, j * fresh.dim + i):
        lo = c.indptr[r]
        c.data[lo + np.flatnonzero(c.indices[lo:c.indptr[r + 1]] == l)] *= -1.0
    assert cached.jacobi_max_residual() < 1e-12 < 1e-6 < fresh.jacobi_max_residual()
    after = realize_inner(fresh, spec)
    assert bracket_preservation_residual(before) < 1e-12
    assert bracket_preservation_residual(after) > 1e-6
    diff = (after.tensors()[0] - before.tensors()[0]).tocoo()
    diff.eliminate_zeros()
    moved = dict(zip(zip(diff.row.tolist(), diff.col.tolist()), diff.data.tolist()))
    assert moved == pytest.approx({(a * dm + b, p): -2.0 * x.data[0],
                                   (b * dm + a, p): 2.0 * x.data[0]})


@pytest.mark.parametrize("family,rank", [("f", 4), ("e", 7)])
def test_large_cyclic_spaces_are_confirmed_type_ii(family, rank):
    sp = realize_cyclic_c3(tables.cached_algebra(family, rank))
    assert classify_type(sp) == "II"                  # two invariant halves of dim m / 2
