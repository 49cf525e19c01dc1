"""Structure-constant table: squares against an independent oracle, signs."""

import itertools
import re
from fractions import Fraction

import pytest

from nk_triad.chevalley import (
    IdentityViolation,
    build_structure_constants,
    verify_square_formula,
    verify_triangle_identity,
)
from nk_triad.rootsys import build_root_system


def _neg(c):
    return tuple(-x for x in c)


def _oracle_square(rs, a, b):
    """q(1-p)/2 <a,a> with the string bounds found by raw membership scans."""
    q = 0
    while rs.is_root(tuple(x + (q + 1) * y for x, y in zip(b, a))):
        q += 1
    p = 0
    while rs.is_root(tuple(x - (p + 1) * y for x, y in zip(b, a))):
        p += 1
    return Fraction(q * (1 + p), 2) * rs.norm_sq(a)


def test_a1_table_empty():
    cd = build_structure_constants(build_root_system("a", 1))
    assert not cd.n_sq
    assert verify_triangle_identity(cd) == 0


def test_a2_squares_and_triples():
    rs = build_root_system("a", 2)
    cd = build_structure_constants(rs)
    assert cd.n_squared((1, 0), (0, 1)) == 1  # kappa/2
    assert verify_triangle_identity(cd) == 2


@pytest.mark.parametrize("family,rank", [("a", 2), ("a", 3), ("g", 2), ("b", 3),
                                         ("c", 3), ("d", 4), ("f", 4), ("e", 6), ("e", 7)])
def test_squares_match_oracle(family, rank):
    rs = build_root_system(family, rank)
    cd = build_structure_constants(rs)
    roots = [r.coeffs for r in rs.all_roots()]
    pair_count = 0
    for a, b in itertools.product(roots, roots):
        s = tuple(x + y for x, y in zip(a, b))
        if any(s) and rs.is_root(s):
            assert cd.n_squared(a, b) == _oracle_square(rs, a, b)
            pair_count += 1
        else:
            assert cd.n_squared(a, b) == 0
    assert pair_count == len(cd.n_sq)
    assert verify_square_formula(cd) == pair_count


def test_square_formula_detects_a_changed_square():
    cd = build_structure_constants(build_root_system("g", 2))  # fresh table
    a, b = sorted(cd.n_sq)[0]
    cd.n_sq[(a, b)] *= 2
    with pytest.raises(IdentityViolation, match=re.escape(f"at {a}, {b}:")):
        verify_square_formula(cd)


def test_g2_short_root_square():
    rs = build_root_system("g", 2)
    cd = build_structure_constants(rs)
    # alpha1 short: string of alpha1 through alpha1+alpha2 has p = -1, q = 2
    value = cd.n_squared((1, 0), (1, 1))
    assert value == Fraction(2 * 2, 2) * Fraction(2, 3)


def test_antisymmetries():
    rs = build_root_system("b", 3)
    cd = build_structure_constants(rs)
    for (a, b), sq in cd.n_sq.items():
        assert cd.n_sq[(b, a)] == sq
        assert cd.n_sign(b, a) == -cd.n_sign(a, b)
        assert cd.n_sq[(_neg(a), _neg(b))] == sq
        assert cd.n_sign(_neg(a), _neg(b)) == -cd.n_sign(a, b)


def test_zero_sum_triples_counted_by_brute_force():
    rs = build_root_system("f", 4)
    cd = build_structure_constants(rs)
    roots = [r.coeffs for r in rs.all_roots()]
    rset = set(roots)
    brute = set()
    for a, b in itertools.combinations(roots, 2):
        c = tuple(-x - y for x, y in zip(a, b))
        if any(tuple(x + y for x, y in zip(a, b))) and c in rset:
            brute.add(tuple(sorted((a, b, c))))
    assert verify_triangle_identity(cd) == len(brute)


def test_extraspecial_pairs_are_positive():
    rs = build_root_system("d", 4)
    cd = build_structure_constants(rs)
    for gamma, (eps, eta) in cd._extraspecial.items():
        assert cd.n_sign(eps, eta) == 1
        assert tuple(x + y for x, y in zip(eps, eta)) == gamma


def test_determinism_across_builds():
    rs1 = build_root_system("c", 3)
    rs2 = build_root_system("c", 3)
    cd1 = build_structure_constants(rs1)
    cd2 = build_structure_constants(rs2)
    assert cd1.n_sq == cd2.n_sq
    assert {k: cd1.n_sign(*k) for k in cd1.n_sq} == {k: cd2.n_sign(*k) for k in cd2.n_sq}
