"""Compact real form: bracket table, Jacobi, invariant form, rotations."""

import math
from fractions import Fraction

import numpy as np
import pytest

from nk_triad.compactform import (
    CompactAlgebra,
    JacobiFailure,
    TraceFormFailure,
    adjoint_action_exp,
    build_compact_form,
)
from nk_triad.rootsys import build_root_system

DIMS = {("a", 1): 3, ("a", 2): 8, ("g", 2): 14, ("b", 3): 21, ("c", 3): 21,
        ("d", 4): 28, ("f", 4): 52, ("e", 6): 78}


@pytest.mark.parametrize("family,rank", sorted(DIMS))
def test_dimensions(family, rank, algebra):
    assert algebra(family, rank).dim == DIMS[(family, rank)]


def test_su2_bracket_table(algebra):
    ca = algebra("a", 1)
    u0, u1 = ca.u_index(0, 0), ca.u_index(0, 1)
    assert dict(ca.bracket_terms(u0, u1)) == {0: 2.0}
    assert dict(ca.bracket_terms(0, u0)) == {u1: 2.0}
    assert dict(ca.bracket_terms(0, u1)) == {u0: -2.0}
    # su(2) Jacobi is degenerate but ad must still be skew for the stored form
    assert ca.antisymmetry_max_residual() == 0.0


@pytest.mark.parametrize("family,rank", [("g", 2), ("e", 7)])
def test_structure_constants_totally_skew(family, rank, algebra):
    assert algebra(family, rank).antisymmetry_max_residual() == 0.0


def test_stored_form_is_minus_two_identity(algebra):
    ca = algebra("d", 4)
    for i in range(ca.dim):
        assert ca.killing_entry(i, i) == -2.0
        assert ca.killing_entry(i, (i + 1) % ca.dim) == 0.0


@pytest.mark.parametrize("family,rank", [("a", 1), ("a", 2), ("a", 3), ("a", 4),
                                         ("b", 2), ("b", 3), ("b", 4),
                                         ("c", 2), ("c", 3), ("c", 4),
                                         ("d", 4), ("g", 2), ("f", 4), ("e", 8)])
def test_jacobi_sweep(family, rank, algebra):
    assert algebra(family, rank).assert_jacobi(1e-9) < 1e-12


def _dense_jacobi_residual(ca):
    """Reference: R[i,j,k,m] = [[e_i,e_j],e_k] - [e_i,[e_j,e_k]] + [e_j,[e_i,e_k]],
    component m, from a dense structure-constant array."""
    c = np.zeros((ca.dim,) * 3)
    for i in range(ca.dim):
        for j in range(ca.dim):
            for k, coef in ca.bracket_terms(i, j):
                c[i, j, k] = coef
    return (np.einsum("ijl,lkm->ijkm", c, c) - np.einsum("jkl,ilm->ijkm", c, c)
            + np.einsum("ikl,jlm->ijkm", c, c))


def test_sign_flip_is_detected_and_located(algebra):
    cached = algebra("g", 2)
    ca = CompactAlgebra(cached.rs, cached.cd)  # fresh table; the cached one stays intact
    a, b = next(key for key, terms in ca._table.items() if min(key) >= ca.rank and len(terms) == 1)
    (l, coef), = ca._table[(a, b)]
    ca._table[(a, b)] = ((l, -coef),)
    assert ca.antisymmetry_max_residual() == pytest.approx(2 * abs(coef))
    ref = np.abs(_dense_jacobi_residual(ca))
    with pytest.raises(JacobiFailure) as exc:
        ca.assert_jacobi(1e-9)
    assert exc.value.residual == pytest.approx(ref.max(), abs=1e-12)
    assert ref[exc.value.triple].max() == pytest.approx(ref.max(), abs=1e-12)
    assert {a, b} & set(exc.value.triple)
    assert cached.antisymmetry_max_residual() == 0.0


def test_trace_form_proportional_to_stored(algebra):
    for family, rank in [("a", 2), ("b", 3), ("c", 3), ("d", 4), ("g", 2), ("f", 4)]:
        ca = algebra(family, rank)
        assert abs(ca.trace_form_ratio() - 2 * ca.dual_coxeter) < 1e-8


def _scaled_su2(algebra):
    """A fresh su(2) table with [U0, U1] doubled: tr(ad X ad X)/B0(X, X) goes
    from 4 to 8 on both U-vectors and stays 4 on h."""
    cached = algebra("a", 1)
    ca = CompactAlgebra(cached.rs, cached.cd)
    u0, u1 = ca.u_index(0, 0), ca.u_index(0, 1)
    ca._table[(u0, u1)] = tuple((l, 2 * c) for l, c in ca._table[(u0, u1)])
    return ca


def test_trace_form_failure_names_its_indices(algebra):
    ca = _scaled_su2(algebra)
    with pytest.raises(TraceFormFailure) as exc:
        ca.trace_form_ratio()
    lo, hi = exc.value.indices
    assert lo == 0 and hi in (ca.u_index(0, 0), ca.u_index(0, 1))
    assert exc.value.spread == pytest.approx(4.0)
    assert algebra("a", 1).trace_form_ratio() == pytest.approx(4.0)


def test_cli_reports_trace_form_failure(algebra, monkeypatch, capsys):
    from nk_triad import cli

    broken = _scaled_su2(algebra)
    monkeypatch.setattr(cli, "_JACOBI_DEFAULT", [("a", 1)])
    monkeypatch.setattr(cli, "cached_algebra", lambda family, rank: broken)
    assert cli.main(["verify", "jacobi"]) == 1
    assert '"trace-form:a1:trace-form ratio spread 4.000e+00' in capsys.readouterr().out


def test_ad_skew_and_invariance(algebra):
    ca = algebra("g", 2)
    rng = np.random.default_rng(2)
    eye = np.eye(ca.dim)
    for _ in range(10):
        i, j, k = rng.integers(0, ca.dim, size=3)
        x, y, z = eye[:, i], eye[:, j], eye[:, k]
        bxy = ca.bracket_vectors(x, y)
        bxz = ca.bracket_vectors(x, z)
        # invariance of the stored form B0 = -2 id
        assert abs(-2 * bxy @ z + -2 * y @ bxz) < 1e-12
    for i in range(ca.dim):
        ad = ca.ad_dense(i)
        assert np.abs(ad + ad.T).max() < 1e-12


def test_rotation_identity_at_zero(algebra):
    ca = algebra("a", 2)
    mat = adjoint_action_exp(ca, lambda c: Fraction(0))
    assert np.abs(mat - np.eye(ca.dim)).max() == 0.0


def test_rotation_planes_a2(algebra):
    """H = H1/3 turns each U-plane by 2 pi n1(alpha)/3."""
    ca = algebra("a", 2)
    rs = ca.rs
    mat = adjoint_action_exp(ca, lambda c: Fraction(c[0], 3))
    for k, r in enumerate(rs.positive_roots):
        i0, i1 = ca.u_index(k, 0), ca.u_index(k, 1)
        angle = 2 * math.pi * r.coeffs[0] / 3
        assert abs(mat[i0, i0] - math.cos(angle)) < 1e-12
        assert abs(mat[i1, i0] - math.sin(angle)) < 1e-12


def test_rotation_is_automorphism_and_order_three(algebra):
    from nk_triad.automorph import enumerate_inner_order3

    for family, rank in [("a", 2), ("g", 2), ("c", 3), ("d", 4)]:
        ca = algebra(family, rank)
        rs = ca.rs
        for cls in enumerate_inner_order3(rs):
            mat = adjoint_action_exp(ca, lambda c: cls.alpha_value(rs, c))
            assert np.abs(mat @ mat @ mat - np.eye(ca.dim)).max() < 1e-12
            assert np.abs(mat.T @ mat - np.eye(ca.dim)).max() < 1e-12
            rng = np.random.default_rng(0)
            eye = np.eye(ca.dim)
            for _ in range(6):
                i, j = rng.integers(0, ca.dim, size=2)
                lhs = mat @ ca.bracket_vectors(eye[:, i], eye[:, j])
                rhs = ca.bracket_vectors(mat[:, i], mat[:, j])
                assert np.abs(lhs - rhs).max() < 1e-9


def test_bracket_closes_on_basis(algebra):
    ca = algebra("c", 3)
    for i in range(ca.dim):
        for j in range(ca.dim):
            for k, coef in ca.bracket_terms(i, j):
                assert 0 <= k < ca.dim
                assert math.isfinite(coef)
