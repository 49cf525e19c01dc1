"""Lie triple systems and canonical fibration subalgebras."""

import itertools
import re
from fractions import Fraction

import numpy as np
import pytest

from nk_triad import automorph, compactform, fibration, tables
from nk_triad.fibration import NonClosedSubalgebra, NotInvolutive, all_fibrations, fibration_subalgebras
from nk_triad.rootsys import InnerClass, RootSystem, alpha_levels
from nk_triad.tables import cached_algebra, cached_root_system, realize

from conftest import check_lie_triple_system, involution_fixed_points, root_mask

F = Fraction


def inner(family, rank, nodes):
    """(root system, inner class) of a node set: the arguments of the fibrations."""
    rs = cached_root_system(family, rank)
    return rs, InnerClass.of_nodes(rs, nodes)


def test_vertical_layers_are_lie_triple_systems():
    sp = realize("b", 4, "A3III", (2,))
    assert check_lie_triple_system(sp, sp.layers["V"])
    sp2 = realize("a", 3, "A3II", (1, 3))
    for label in ("V1", "V2", "V3"):
        assert check_lie_triple_system(sp2, sp2.layers[label])


def test_random_plane_usually_fails_lts():
    sp = realize("a", 2, "A3II", (1, 2))
    rng = np.random.default_rng(123)
    hits = 0
    for _ in range(5):
        plane, _ = np.linalg.qr(rng.standard_normal((sp.dim_m, 2)))
        hits += not check_lie_triple_system(sp, plane)
    assert hits >= 1


def test_g2_fibration():
    rep = fibration_subalgebras(*inner("g", 2, (2,)), "V")
    assert rep.g_v_type.components == (("a", 1),)
    assert rep.gbar_v_type.components == (("a", 1), ("a", 1))
    assert rep.gbar_v_type.torus_rank == 0
    assert (rep.fiber_dim, rep.base_dim) == (2, 8)
    assert not rep.base_hermitian


def test_f4_node4_fibration_is_so9():
    rep = fibration_subalgebras(*inner("f", 4, (4,)), "V")
    assert rep.g_v_type.components == (("b", 4),)
    assert rep.gbar_v_type.components == (("b", 4),)
    assert rep.g_v_dim == rep.gbar_v_dim == 36
    assert (rep.fiber_dim, rep.base_dim) == (14, 16)


def test_so2n_flag_fibrations():
    """The two fibration shapes of SO(2n)/(U(n-1)xSO(2)), at n = 5."""
    reps = {r.vertical_label: r for r in all_fibrations(*inner("d", 5, (4, 5)))}
    assert reps["V1"].g_v_type.components == (("d", 4),)
    assert reps["V1"].gbar_v_type.components == (("d", 4),)
    assert reps["V1"].gbar_v_type.torus_rank == 1
    assert (reps["V1"].fiber_dim, reps["V1"].base_dim) == (12, 16)
    for label in ("V2", "V3"):
        assert reps[label].g_v_type.components == (("a", 4),)
        assert (reps[label].fiber_dim, reps[label].base_dim) == (8, 20)
    assert all(r.base_hermitian for r in reps.values())


def test_su_flag_fibrations_cyclic_pattern():
    reps = {r.vertical_label: r for r in all_fibrations(*inner("a", 5, (2, 4)))}  # SU(6)/S(U(2)^3)
    for label in ("V1", "V2", "V3"):
        assert reps[label].g_v_type.components == (("a", 3),)
        assert reps[label].gbar_v_type.components == (("a", 1), ("a", 3))
        assert reps[label].gbar_v_type.torus_rank == 1
        assert (reps[label].fiber_dim, reps[label].base_dim) == (8, 16)


def test_involution_fixed_points_a2():
    rs = cached_root_system("a", 2)
    fixed = involution_fixed_points(rs, ((2, F(1, 2)),))
    assert fixed == [(1, 0)]            # dim = 2 cartan + 2 = 4
    with pytest.raises(NotInvolutive):
        involution_fixed_points(rs, ((2, F(1, 3)),))


def test_involution_fixed_points_bn():
    """tau fixes so(2i) + so(2(n-i)+1) on the odd orthogonal algebra."""
    from nk_triad.rootsys import subsystem_type

    rs = cached_root_system("b", 4)
    fixed = involution_fixed_points(rs, ((2, F(1)),))
    full = fixed + [tuple(-x for x in c) for c in fixed]
    st = subsystem_type(rs, root_mask(rs, full))
    assert st.components == (("a", 1), ("a", 1), ("b", 2))  # so(4) + so(5)
    assert st.torus_rank == 0


def test_fixed_mask_matches_fraction_oracle():
    """On every vertical layer of the 170 catalogue classes (350 fibrations)
    the level-0 mask of the involution's level array, which
    ``fibration_subalgebras`` compares with V + k, equals the mask of the
    Fraction-angle fixed roots and their negatives, and that is V + k."""
    classes = [inner(f, r, n) for f, r, n in tables.a3ii_sweep()]
    classes += [inner(f, r, (n,)) for f, r, n in tables.a3iii_sweep(deep=True)]
    assert len(classes) == 170
    checked = 0
    for rs, spec in classes:
        layer_roots, k_roots = spec.split(rs)
        for rep in all_fibrations(rs, spec):
            fixed = involution_fixed_points(rs, rep.involution_h)
            oracle = root_mask(rs, fixed + [tuple(-x for x in c) for c in fixed])
            levels, _ = alpha_levels(rs, rep.involution_h)
            assert np.array_equal(levels == 0, oracle), (spec, rep.vertical_label)
            gbar = root_mask(rs, [rs.roots[i] for i in (*layer_roots[rep.vertical_label], *k_roots)])
            assert np.array_equal(gbar | gbar[rs.neg], oracle), (spec, rep.vertical_label)
            checked += 1
    assert checked == 350


def test_rotation_that_is_no_involution_raises(monkeypatch):
    """A rule whose rotation turns a root by a third fails the fibration with
    the angle of the first root it turns."""
    rs, spec = inner("g", 2, (2,))
    monkeypatch.setitem(fibration._INVOLUTION_RULES, ("A3III", "V"), lambda i: ((i, F(2, 3)),))
    with pytest.raises(NotInvolutive, match="root angle 1/3 is not a half-turn"):
        fibration_subalgebras(rs, spec, "V")


def test_involutions_match_gbar_everywhere():
    for args, label in [(("b", 4, (2,)), "V"),
                        (("c", 4, (3,)), "V"),
                        (("a", 4, (2, 3)), "V2"),
                        (("e", 6, (3,)), "V")]:
        rep = fibration_subalgebras(*inner(*args), label)
        assert rep.gbar_v_dim + rep.base_dim == \
            {"b": 36, "c": 36, "a": 24, "e": 78}[args[0]]


def test_e8_sphere_fiber():
    rep = fibration_subalgebras(*inner("e", 8, (8,)), "V")
    assert rep.g_v_type.components == (("a", 1),)
    assert rep.gbar_v_type.components == (("a", 1), ("e", 7))
    assert (rep.fiber_dim, rep.base_dim) == (2, 112)
    assert not rep.base_hermitian


def test_type_iii_bases_hermitian_type_iv_not():
    assert all(r.base_hermitian for r in all_fibrations(*inner("a", 4, (1, 2))))
    assert not any(r.base_hermitian for r in all_fibrations(*inner("c", 3, (2,))))


def test_odd_projective_metric_note():
    rep = fibration_subalgebras(*inner("c", 3, (1,)), "V")
    assert "symplectic" in rep.note


def _tuple_closure(rs, seed):
    """Reference closure on coefficient tuples: pairwise sums until stable."""
    full = set(seed) | {tuple(-x for x in c) for c in seed}
    grew = True
    while grew:
        grew = False
        for x, y in itertools.combinations(sorted(full), 2):
            s = tuple(a + b for a, b in zip(x, y))
            if any(s) and rs.is_root(s) and s not in full:
                full |= {s, tuple(-a for a in s)}
                grew = True
    return full


def test_all_fibrations_match_fraction_oracle(subsystem_oracle, rank_oracle, fraction_count):
    """g_V and gbar_V of all 350 catalogue fibrations against tuple closures
    classified by the Fraction reference; the int path builds no Fraction."""
    classes = [inner(f, r, n) for f, r, n in tables.a3ii_sweep()]
    classes += [inner(f, r, (n,)) for f, r, n in tables.a3iii_sweep(deep=True)]
    checked = 0
    for rs, spec in classes:
        reports, built = fraction_count(all_fibrations, rs, spec)
        assert built == 0, spec
        layer_roots, k_roots = spec.split(rs)
        k_roots = [rs.roots[i] for i in k_roots]
        for rep in reports:
            v_roots = [rs.roots[i] for i in layer_roots[rep.vertical_label]]
            closure = _tuple_closure(rs, v_roots)
            pos = [c for c in closure if rs.root_index[c] < rs.n_positive]
            rank = rank_oracle(pos)
            assert rep.g_v_type == subsystem_oracle(rs, closure, ambient_rank=rank), spec
            assert rep.g_v_dim == 2 * len(pos) + rank
            gbar = set(v_roots) | set(k_roots)
            gbar |= {tuple(-x for x in c) for c in gbar}
            assert rep.gbar_v_type == subsystem_oracle(rs, gbar), spec
            assert rep.gbar_v_dim == len(gbar) + rs.rank
            checked += 1
    assert checked == 350


def test_fibration_tables_realize_no_space(monkeypatch):
    """All seven tables come from root splits and structure constants alone:
    with the algebra cache, the realization, sigma and the space constructor
    refusing, each matches its golden file byte for byte."""
    def refuse(*args, **kwargs):
        raise AssertionError("a table built an algebra or a space")

    for owner, name in [(tables, "cached_algebra"), (automorph, "realize_inner"),
                        (compactform, "adjoint_action_exp"), (automorph, "adjoint_action_exp"),
                        (automorph.OrderThreeSymmetricSpace, "__init__")]:
        monkeypatch.setattr(owner, name, refuse)
    for name, compute in tables.TABLES.items():
        assert tables.dumps_rows(compute()) == tables.golden_text(name), name


def test_tables_do_no_per_root_key_arithmetic():
    """Subsystems and fibration closures are read from the root-addition table
    alone: ``RootSystem`` has no per-root key to do arithmetic with (only the
    int64 keys ``plus`` reads), all seven tables still match their golden
    files byte for byte, and every algebra shares its root system's table
    rather than holding a copy."""
    assert not hasattr(RootSystem, "key")
    for name, compute in tables.TABLES.items():
        assert tables.dumps_rows(compute()) == tables.golden_text(name), name
    algebras = {(f, r) for f, r, _ in tables.a3ii_sweep()}
    algebras |= {(f, r) for f, r, _ in tables.a3iii_sweep(deep=True)}
    for family, rank in sorted(algebras):
        assert cached_algebra(family, rank).cd.plus is cached_root_system(family, rank).plus


# SU(4)/S(U(1)xU(2)xU(1)) (a3, nodes 1, 3): k = {(0,1,0)}, V1 = {(1,1,1)},
# V2 = {(1,0,0), (1,1,0)}, V3 = {(0,0,1), (0,1,1)}.  Each case alters the
# root split by one root so that exactly one check of the fibration fails.
@pytest.mark.parametrize("label,part,root,to,message", [
    # k + V3 holds (0,1,0) and (0,1,1) but no longer their difference
    ("V3", "V3", (0, 0, 1), None, "V + k is not bracket-closed"),
    # V + k is unchanged, but [k, V3] now reaches (0,0,1) outside g_V3
    ("V3", "V3", (0, 0, 1), "k", "V + [V,V] is not an ideal of V + k"),
    # V1 + k = {(1,1,1)} is closed, but the involution still fixes (0,1,0)
    ("V1", "k", (0, 1, 0), None, "involution fixed points differ from V + k"),
])
def test_each_fibration_check_can_fail(monkeypatch, label, part, root, to, message):
    """Dropping a root from one part of the split, or moving it to another,
    fails the closure of V + k, the ideal check or the fixed-point comparison,
    each with its own message."""
    rs, spec = inner("a", 3, (1, 3))
    split = InnerClass.split

    def altered(self, root_system):
        layers, k_roots = split(self, root_system)
        parts = {lbl: roots.tolist() for lbl, roots in layers.items()}
        parts["k"] = k_roots.tolist()
        at = root_system.root_index[root]
        parts[part].remove(at)
        if to is not None:
            parts[to].append(at)
        parts = {lbl: np.array(indices, dtype=np.int64) for lbl, indices in parts.items()}
        return parts, parts.pop("k")

    assert fibration_subalgebras(rs, spec, label).vertical_label == label
    monkeypatch.setattr(InnerClass, "split", altered)
    with pytest.raises(NonClosedSubalgebra, match=re.escape(message)):
        fibration_subalgebras(rs, spec, label)
