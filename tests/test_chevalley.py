"""Structure-constant table: squares against an independent oracle, signs."""

import gc
import itertools
import re
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from nk_triad import chevalley, exact
from nk_triad.chevalley import (
    ChevalleyData,
    IdentityViolation,
    SignInconsistency,
    verify_square_formula,
    verify_triangle_identity,
)
from nk_triad.compactform import CompactAlgebra
from nk_triad.rootsys import build_root_system

from conftest import all_roots, n_sign, n_squared, root_inner

ALL_TYPES = ([("a", r) for r in range(1, 9)] + [("b", r) for r in range(2, 9)]
             + [("c", r) for r in range(2, 9)] + [("d", r) for r in range(4, 9)]
             + [("e", 6), ("e", 7), ("e", 8), ("f", 4), ("g", 2)])


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
    return Fraction(q * (1 + p), 2) * root_inner(rs, a, a)


def test_a1_table_empty():
    cd = ChevalleyData(build_root_system("a", 1))
    assert not (cd.plus >= 0).any() and not cd.n12.any() and not cd.sign.any()
    assert verify_triangle_identity(cd) == 0


def test_a2_squares_and_triples():
    rs = build_root_system("a", 2)
    cd = ChevalleyData(rs)
    assert n_squared(cd, (1, 0), (0, 1)) == 1  # kappa/2
    assert verify_triangle_identity(cd) == 2


@pytest.mark.parametrize("family,rank", [("a", 2), ("a", 3), ("g", 2), ("b", 3),
                                         ("c", 3), ("d", 4), ("f", 4), ("e", 6), ("e", 7)])
def test_squares_match_oracle(family, rank):
    rs = build_root_system(family, rank)
    cd = ChevalleyData(rs)
    roots = [r.coeffs for r in all_roots(rs)]
    pair_count = 0
    for a, b in itertools.product(roots, roots):
        s = tuple(x + y for x, y in zip(a, b))
        if any(s) and rs.is_root(s):
            assert n_squared(cd, a, b) == _oracle_square(rs, a, b)
            pair_count += 1
        else:
            assert n_squared(cd, a, b) == 0
    assert pair_count == np.count_nonzero(cd.plus >= 0) == np.count_nonzero(cd.n12)
    assert verify_square_formula(cd) == pair_count


def _first_pair(cd):
    """Root indices and roots of the lexicographically first pair (a, b)."""
    i, j = min(np.argwhere(cd.plus >= 0).tolist(),
               key=lambda ij: (cd.roots[ij[0]], cd.roots[ij[1]]))
    return i, j, cd.roots[i], cd.roots[j]


def test_square_formula_detects_a_changed_square():
    cd = ChevalleyData(build_root_system("g", 2))  # fresh table
    i, j, a, b = _first_pair(cd)
    cd.n12[i, j] *= 2
    with pytest.raises(IdentityViolation, match=re.escape(f"at {a}, {b}:")):
        verify_square_formula(cd)


def test_square_formula_detects_a_square_off_the_pairs():
    cd = ChevalleyData(build_root_system("b", 3))
    i, j = np.argwhere(cd.plus < 0)[-1]
    cd.n12[i, j] = 12
    with pytest.raises(IdentityViolation,
                       match=re.escape(f"stored at {cd.roots[i]}, {cd.roots[j]},")):
        verify_square_formula(cd)


def test_square_formula_does_not_read_plus():
    """The pairs and string bounds come from the coefficients: an addition
    table emptied after the build leaves the check and its count unchanged."""
    cd = ChevalleyData(build_root_system("f", 4))
    count = verify_square_formula(cd)
    cd.plus = np.full_like(cd.plus, -1)
    assert verify_square_formula(cd) == count == 816


def test_one_identity_violation():
    assert chevalley.IdentityViolation is exact.IdentityViolation


@pytest.mark.parametrize("table", ["sign", "n12"])
def test_triangle_identity_detects_a_changed_entry(table):
    cd = ChevalleyData(build_root_system("g", 2))
    i, j, a, b = _first_pair(cd)
    getattr(cd, table)[i, j] *= -1 if table == "sign" else 2
    c = cd.roots[cd.neg[cd.plus[i, j]]]
    with pytest.raises(IdentityViolation) as exc:
        verify_triangle_identity(cd)
    assert all(str(r) in str(exc.value) for r in (a, b, c))


def test_g2_short_root_square():
    rs = build_root_system("g", 2)
    cd = ChevalleyData(rs)
    # alpha1 short: string of alpha1 through alpha1+alpha2 has p = -1, q = 2
    value = n_squared(cd, (1, 0), (1, 1))
    assert value == Fraction(2 * 2, 2) * Fraction(2, 3)


def test_antisymmetries():
    rs = build_root_system("b", 3)
    cd = ChevalleyData(rs)
    neg = np.ix_(cd.neg, cd.neg)
    pairs = cd.plus >= 0
    assert np.array_equal(cd.plus, cd.plus.T)
    assert np.array_equal(pairs, cd.plus[neg] >= 0)
    assert np.array_equal(cd.n12, cd.n12.T) and np.array_equal(cd.n12, cd.n12[neg])
    assert np.array_equal(cd.sign, -cd.sign.T) and np.array_equal(cd.sign, -cd.sign[neg])
    assert set(np.abs(cd.sign[pairs]).tolist()) == {1}
    for i, j in np.argwhere(pairs):
        a, b = cd.roots[i], cd.roots[j]
        assert n_sign(cd, b, a) == -n_sign(cd, a, b) == -cd.sign[i, j]
        assert n_squared(cd, _neg(a), _neg(b)) == n_squared(cd, a, b) == Fraction(cd.n12[i, j], 12)


def test_zero_sum_triples_counted_by_brute_force():
    rs = build_root_system("f", 4)
    cd = ChevalleyData(rs)
    roots = [r.coeffs for r in all_roots(rs)]
    rset = set(roots)
    brute = set()
    for a, b in itertools.combinations(roots, 2):
        c = tuple(-x - y for x, y in zip(a, b))
        if any(tuple(x + y for x, y in zip(a, b))) and c in rset:
            brute.add(tuple(sorted((a, b, c))))
    assert verify_triangle_identity(cd) == len(brute)


def test_extraspecial_pairs_are_positive():
    rs = build_root_system("d", 4)
    cd = ChevalleyData(rs)
    decomposable = 0
    for gamma, (eps, eta) in enumerate(cd.extraspecial.tolist()):
        if eps < 0:
            assert sum(cd.roots[gamma]) == 1        # a simple root
            continue
        decomposable += 1
        assert cd.sign[eps, eta] == 1 and cd.plus[eps, eta] == gamma
        assert tuple(x + y for x, y in zip(cd.roots[eps], cd.roots[eta])) == cd.roots[gamma]
    assert decomposable == rs.n_positive - rs.rank


def test_determinism_across_builds():
    rs1 = build_root_system("c", 3)
    rs2 = build_root_system("c", 3)
    cd1 = ChevalleyData(rs1)
    cd2 = ChevalleyData(rs2)
    for table in ("plus", "n12", "sign"):
        assert np.array_equal(getattr(cd1, table), getattr(cd2, table))


@pytest.mark.parametrize("family,rank", ALL_TYPES + [("b", 10), ("d", 12)])
def test_table_and_bracket_match_the_reference(family, rank, chevalley_oracle, bracket_oracle):
    """Every sign and 12 N^2 against the tuple/Fraction reference, and C bit
    for bit (indptr, indices, data) against the pair-loop reference."""
    rs = build_root_system(family, rank)
    cd, ref = ChevalleyData(rs), chevalley_oracle(rs)
    assert np.count_nonzero(cd.plus >= 0) == len(ref.n_sq)
    for (a, b), sq in ref.n_sq.items():
        i, j = cd.index[a], cd.index[b]
        assert cd.roots[cd.plus[i, j]] == tuple(x + y for x, y in zip(a, b))
        assert (cd.sign[i, j], cd.n12[i, j]) == (ref._sign[(a, b)], 12 * sq), (a, b)
    ca = CompactAlgebra(rs, cd)
    want = bracket_oracle(ca, ref)
    for part in ("indptr", "indices", "data"):
        got, exp = getattr(ca.C, part), getattr(want, part)
        assert got.dtype == exp.dtype and got.tobytes() == exp.tobytes(), part


def test_e8_table_and_bracket_build_no_fraction(fraction_count):
    rs = build_root_system("e", 8)
    cd, built = fraction_count(ChevalleyData, rs)
    assert built == 0
    _, built = fraction_count(CompactAlgebra, rs, cd)
    assert built == 0


@pytest.mark.parametrize("family,rank", [("g", 2), ("f", 4), ("e", 6)])
def test_sign_pass_detects_a_changed_square(family, rank):
    """12 N^2 times 4 (a square, so every cross term stays rational) on both
    orders of a positive pair that sums to the highest root and is not its
    extraspecial pair: the pair's contraction no longer balances, and no other
    contraction reads its square, so the pass names exactly that pair."""
    rs = build_root_system(family, rank)
    cd = ChevalleyData(rs)
    top = rs.root_index[rs.highest_root.coeffs]
    order = lambda k: (sum(cd.roots[k]), cd.roots[k])
    x, y = min(((x, y) for x, y in np.argwhere(cd.plus[:cd.n, :cd.n] == top).tolist()
                if order(x) < order(y) and x != cd.extraspecial[top, 0]),
               key=lambda xy: (order(xy[0]), order(xy[1])))
    cd.n12[x, y] *= 4
    cd.n12[y, x] *= 4
    with pytest.raises(SignInconsistency,
                       match=re.escape(f"magnitude mismatch at {cd.roots[x]}+{cd.roots[y]}") + "$"):
        cd._signs()


def test_e8_build_holds_only_its_arrays():
    """With ``plus`` built and the collector off, building e8's table peaks
    under 4 MiB and holds no more than its own arrays once built: no list
    copies of the (2n)^2 tables and no reference cycle left for the collector."""
    rs = build_root_system("e", 8)
    rs.plus
    gc.disable()
    tracemalloc.start()
    try:
        cd = ChevalleyData(rs)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
        gc.enable()
    own = sum(getattr(cd, name).nbytes for name in ("n12", "sign", "extraspecial"))
    assert peak < 4 * 2 ** 20
    assert held < own + 2 ** 14, (held, own)
