"""Acceptance criteria, one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines on a green run; pytest shows them automatically for any failure.
"""

import time
from fractions import Fraction

import numpy as np
import pytest

from nk_triad import tables
from nk_triad.automorph import (
    classify_type,
    invariant_halves,
    orbit_span_dim,
    realize_cyclic_c3,
    realize_triality_d4,
)
from nk_triad.exact import exact_r_cross_layer, exact_r_eigenvalues
from nk_triad.nk_analyzer import build_report, verify_ricci_oracle, verify_space
from nk_triad.tables import cached_algebra, realize

from conftest import ad, fixed_algebra_root_signature

F = Fraction
TOL = 1e-9


def _line(n, text):
    print(f"\nACCEPTANCE {n}: PASS - {text}")


@pytest.fixture(scope="module")
def aii_rows():
    return tables.compute_table_aii()


@pytest.fixture(scope="module")
def aiii_rows_deep():
    return tables.compute_table_aiii()


def test_criterion_1_three_layer_table(aii_rows):
    t0 = time.time()
    assert tables.diff_table("table_aii", aii_rows) == []
    golden = {(r["space"]): r for r in tables.load_golden("table_aii")}
    assert len(aii_rows) == 84 + 5 + 1          # SU compositions, SO(2n), e6
    for row in aii_rows:
        want = golden[row["space"]]
        assert row["lkm"] == want["lkm"]        # exact rational equality
        assert row["dims"] == want["dims"]
    elapsed = time.time() - t0
    assert elapsed < 30.0
    _line(1, f"three-layer table reproduced exactly, {len(aii_rows)} rows "
             f"in {elapsed:.1f}s")


def test_criterion_2_two_layer_table(aiii_rows_deep):
    t0 = time.time()
    # classical dimensions of the algebras behind the deep rows
    for family, rank, dim in (("g", 2, 14), ("f", 4, 52), ("e", 7, 133), ("e", 8, 248)):
        assert cached_algebra(family, rank).dim == dim
    assert tables.diff_table("table_aiii", aiii_rows_deep) == []
    by_space = {r["space"]: r for r in aiii_rows_deep}
    assert by_space["F4/(Sp(3)xT1)"]["dims"] == [2, 28]
    assert by_space["E8/(SO(14)xSO(2))"]["dims"] == [28, 128]
    assert by_space["E7/S(U(7)xU(1))"]["dims"] == [14, 70]
    # published so(odd)/so(even) eigenvalue pairs are half the exact ones
    for row in aiii_rows_deep:
        if row["family"] in ("b", "d"):
            for got, pub in zip(row["lk"], row["lk_printed"]):
                assert F(got["num"], got["den"]) == 2 * F(pub["num"], pub["den"])
        else:
            assert row["lk_printed"] is None
    elapsed = time.time() - t0
    assert elapsed < 600.0
    _line(2, f"two-layer table reproduced exactly incl. deep rows, "
             f"{len(aiii_rows_deep)} rows in {elapsed:.1f}s")


def test_criterion_3_einstein_lists(aii_rows, aiii_rows_deep):
    got_aii = tables.einstein_computed(aii_rows)
    assert got_aii == tables.einstein_expected_aii()
    got_aiii = tables.einstein_computed(aiii_rows_deep)
    assert got_aiii == tables.einstein_expected_aiii()
    # no exceptional two-layer space is Einstein
    assert not any(r["einstein"] for r in aiii_rows_deep if r["family"] in "efg")
    note = tables.einstein_expected_aiii.__doc__
    assert "SO(2a)" in note and "SO(a)" in note   # complement discrepancy logged
    _line(3, f"Einstein families match: {sorted(got_aii)} and {sorted(got_aiii)}"
             " (so(even) complement derived as SO(2a); published prints SO(a))")


def test_criterion_4_vertical_horizontal_ratios():
    cases = {
        ("c", 2, (1,)): F(1),     # 6-dim Einstein twistor space
        ("c", 3, (1,)): F(2),     # 10-dim, odd projective
        ("g", 2, (2,)): F(2),     # 10-dim
        ("f", 4, (1,)): F(7),
        ("e", 6, (2,)): F(10),
        ("e", 7, (1,)): F(16),
        ("e", 8, (8,)): F(28),
    }
    for (family, rank, nodes), want in cases.items():
        rep = build_report(realize(family, rank, "A3III", nodes))
        assert rep.lk_ratio == want, (family, rank, nodes)
        assert rep.splitting["V"] == 2
    flag = build_report(realize("a", 3, "A3II", (1, 3)))  # third 10-dim space
    assert flag.lk_ratio == F(2) and flag.splitting["V1"] == 2
    _line(4, "l/k ratios 1, 2 (three 10-dim spaces), 7, 10, 16, 28 exact")


JACOBI_FULL = (
    [("a", n) for n in range(1, 11)] + [("b", n) for n in range(2, 8)]
    + [("c", n) for n in range(2, 8)] + [("d", n) for n in range(4, 9)]
    + [("g", 2), ("f", 4), ("e", 6), ("e", 7)]
)


@pytest.fixture(scope="module")
def sweep_spaces():
    spaces = []
    for family, rank, nodes in tables.a3ii_sweep():
        spaces.append(realize(family, rank, "A3II", nodes))
    for family, rank, node in tables.a3iii_sweep(deep=True):
        spaces.append(realize(family, rank, "A3III", (node,)))
    return spaces


def test_criterion_5_identity_suite(sweep_spaces):
    t0 = time.time()
    for family, rank in JACOBI_FULL:
        ca = cached_algebra(family, rank)
        assert ca.dim <= 133
        assert ca.jacobi_max_residual() < TOL, (family, rank)
    jac = time.time() - t0

    for sp in sweep_spaces:
        _, res = verify_space(sp)
        assert "min_connection_identity" in res, sp.name
        bad = {k: v for k, v in res.items() if v > TOL}
        assert not bad, (sp.name, bad)
    _line(5, f"Jacobi full sweeps on {len(JACOBI_FULL)} algebras (dims <= 133, "
             f"{jac:.0f}s); torsion/curvature identity suite on "
             f"{len(sweep_spaces)} spaces exhaustively and 0 sampled, "
             f"total {time.time()-t0:.0f}s")


def test_criterion_6_ricci_oracle(sweep_spaces):
    extras = [
        realize("g", 2, "A3IV", (1,)),
        realize("f", 4, "A3IV", (2,)),
        realize_triality_d4(cached_algebra("d", 4)),
        realize_cyclic_c3(cached_algebra("a", 1)),
        realize_cyclic_c3(cached_algebra("a", 2)),
    ]
    for sp in sweep_spaces + extras:
        assert verify_ricci_oracle(sp, tol=TOL) < TOL, sp.name
        if sp.h_spec is not None:   # each raises unless every layer is an eigenbundle
            exact_r_eigenvalues(sp.algebra.cd, sp.h_spec)
            exact_r_cross_layer(sp.algebra.cd, sp.h_spec)
    _line(6, f"trace-of-curvature Ricci equals the layer closed form on "
             f"{len(sweep_spaces) + len(extras)} spaces at 1e-9")


def test_criterion_7_fibration_goldens():
    assert tables.diff_table("fibrations_aii", tables.compute_fibrations_aii()) == []
    assert tables.diff_table("fibrations_aiii", tables.compute_fibrations_aiii()) == []
    aiii = tables.load_golden("fibrations_aiii")
    items = {r["item"] for r in aiii}
    assert items == {"i", "ii", "iii", "iv", "v", "vi", "vii", "viii", "ix",
                     "x", "xi", "xii", "xiii"}
    aii = tables.load_golden("fibrations_aii")
    # the four three-layer fibration shapes: flag, projective-fiber and
    # grassmannian-fiber over so(2n), and the e6 item
    assert any(r["family"] == "a" for r in aii)
    assert any(r["family"] == "d" and r["vertical"] == "V1" for r in aii)
    assert any(r["family"] == "d" and r["vertical"] == "V2" for r in aii)
    assert any(r["family"] == "e" for r in aii)
    _line(7, f"all 13 two-layer fibration items and all 4 three-layer shapes "
             f"matched by root-subsystem classification "
             f"({len(aiii)} + {len(aii)} rows)")


def test_criterion_8_triality_and_cyclic():
    sp = realize_triality_d4(cached_algebra("d", 4))
    assert sp.dim_k == 14
    rank, nroots, ratio = fixed_algebra_root_signature(sp)
    assert (rank, nroots) == (2, 12) and abs(ratio - 3.0) < 1e-6
    halves = invariant_halves(sp)
    assert halves is not None
    assert halves[0].shape[1] == halves[1].shape[1] == 7
    ak = sp.tensors()[2].toarray().reshape(sp.dim_k, sp.dim_m, sp.dim_m).transpose(0, 2, 1)
    for s in range(sp.dim_k):
        assert np.abs(ak[s][np.ix_(sp.layers["JE"], sp.layers["E"])]).max() < TOL
    seed = np.zeros(sp.dim_m)
    seed[sp.layers["E"][0]] = 1.0
    assert orbit_span_dim(sp, seed) == 7             # proper invariant half
    rng = np.random.default_rng(23)
    assert orbit_span_dim(sp, rng.standard_normal(sp.dim_m)) == 14
    assert classify_type(sp) == "II"

    c3 = realize_cyclic_c3(cached_algebra("a", 1))
    assert (c3.algebra.dim, c3.dim_k, c3.dim_m) == (9, 3, 6)
    assert np.abs(c3.sigma @ c3.sigma @ c3.sigma - np.eye(9)).max() == 0.0
    halves_c = invariant_halves(c3)
    assert halves_c is not None and halves_c[0].shape[1] == 3
    akc = c3.tensors()[2].toarray().reshape(c3.dim_k, c3.dim_m, c3.dim_m).transpose(0, 2, 1)
    base = cached_algebra("a", 1)
    for s in range(3):
        assert np.abs(akc[s][:3, :3] - ad(base, s).toarray() / np.sqrt(3)).max() < TOL
    _line(8, "triality quotient: fixed algebra dim 14 with the (2, 12, x3) "
             "root signature; m = E + JE invariant halves, complex- but not "
             "real-irreducible; cyclic triple verified equivariant")
