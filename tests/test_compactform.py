"""Compact real form: structure constants C, Jacobi, invariant form, rotations."""

import itertools
import math
import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sparse

from nk_triad import compactform
from nk_triad.cli import _JACOBI
from nk_triad.compactform import (
    CompactAlgebra,
    GenerationFailure,
    JacobiFailure,
    NotOrderThree,
    TraceFormFailure,
    adjoint_action_exp,
    antisymmetry_max_residual,
    slab_cuts,
)

from conftest import ad

DIMS = {("a", 1): 3, ("a", 2): 8, ("g", 2): 14, ("b", 3): 21, ("c", 3): 21,
        ("d", 4): 28, ("f", 4): 52, ("e", 6): 78}


@pytest.mark.parametrize("family,rank", sorted(DIMS))
def test_dimensions(family, rank, algebra):
    assert algebra(family, rank).dim == DIMS[(family, rank)]


def _terms(ca, i, j):
    """[e_i, e_j] as {l: coefficient}, read off row (i, j) of C."""
    row = ca.C[i * ca.dim + j]
    return dict(zip(row.indices.tolist(), row.data.tolist()))


def _scale_pair(ca, i, j, factor):
    """Multiply [e_i, e_j] and [e_j, e_i] in C by ``factor``, in place."""
    c = ca.C
    for r in (i * ca.dim + j, j * ca.dim + i):
        c.data[c.indptr[r]:c.indptr[r + 1]] *= factor


def test_su2_bracket_table(algebra):
    ca = algebra("a", 1)
    u0, u1 = ca.u_index(0, 0), ca.u_index(0, 1)
    assert _terms(ca, u0, u1) == {0: 2.0}
    assert _terms(ca, u1, u0) == {0: -2.0}
    assert _terms(ca, 0, u0) == {u1: 2.0}
    assert _terms(ca, 0, u1) == {u0: -2.0}
    assert _terms(ca, u0, u0) == {}
    # su(2) Jacobi is degenerate but ad must still be skew for the stored form
    assert antisymmetry_max_residual(ca.C) == 0.0


@pytest.mark.parametrize("family,rank", [("g", 2), ("e", 7)])
def test_structure_constants_totally_skew(family, rank, algebra):
    assert antisymmetry_max_residual(algebra(family, rank).C) == 0.0


def _dense_trace_form(ca):
    """Reference: tr(ad e_i ad e_j) on every pair, from dense ad matrices."""
    ads = np.array([ad(ca, i).toarray() for i in range(ca.dim)])
    return np.einsum("ikl,jlk->ij", ads, ads)


def test_stored_form_is_minus_two_identity(algebra):
    """The trace form is 2h* times the stored form B0 = -2 id, on every basis
    pair: tr(ad e_i ad e_j) = -4h* delta_ij."""
    for family, rank in [("a", 1), ("g", 2), ("d", 4), ("f", 4)]:
        ca = algebra(family, rank)
        want = -4.0 * ca.dual_coxeter * np.eye(ca.dim)
        assert np.abs(_dense_trace_form(ca) - want).max() < 1e-12
    for family, rank in [("a", 1), ("g", 2), ("f", 4), ("e", 7), ("e", 8), ("a", 8), ("b", 5)]:
        ca = algebra(family, rank)
        assert abs(ca.trace_form_ratio() - 2 * ca.dual_coxeter) < 1e-12 * ca.dual_coxeter


@pytest.mark.parametrize("family,rank", [("a", 1), ("a", 2), ("a", 3), ("a", 4),
                                         ("b", 2), ("b", 3), ("b", 4),
                                         ("c", 2), ("c", 3), ("c", 4),
                                         ("d", 4), ("g", 2), ("f", 4), ("e", 8)])
def test_jacobi_sweep(family, rank, algebra):
    assert algebra(family, rank).assert_jacobi(1e-9) < 1e-12


def _dense_jacobi_residual(ca):
    """Reference: R[i,j,k,m] = [[e_i,e_j],e_k] - [e_i,[e_j,e_k]] + [e_j,[e_i,e_k]],
    component m, from a dense structure-constant array."""
    c = ca.C.toarray().reshape((ca.dim,) * 3)
    return (np.einsum("ijl,lkm->ijkm", c, c) - np.einsum("jkl,ilm->ijkm", c, c)
            + np.einsum("ikl,jlm->ijkm", c, c))


def _slabs_of(monkeypatch, ca):
    """The slabs of j that ``ca``'s Jacobi sweep cuts, read from its ``slab_cuts`` call."""
    cuts, real = [], compactform.slab_cuts
    monkeypatch.setattr(compactform, "slab_cuts", lambda *a, **k: cuts.append(real(*a, **k))
                        or cuts[-1])
    ca._jacobi_worst()
    monkeypatch.setattr(compactform, "slab_cuts", real)
    return cuts[-1]


@pytest.mark.parametrize("family,rank", _JACOBI)
def test_blocked_jacobi_sweep_matches_per_i_sweep(family, rank, algebra, jacobi_oracle):
    """The slab sweep returns the reference sweep's worst residual over the
    generator rows, bit for bit, and its first triple, on every algebra
    ``verify jacobi`` covers."""
    ca = algebra(family, rank)
    assert ca._jacobi_worst() == jacobi_oracle(ca, rows=ca.generators)


def test_blocked_jacobi_sweep_locates_flips_in_late_blocks(algebra, jacobi_oracle, monkeypatch):
    """With a small entry budget f4 is swept in more than four slabs of j.
    Negating [U^0_a, U^1_a] in that order only, for a whose U^0 opens a slab
    or is the last, puts the worst generator-row residual at a triple
    (i, U^0_a, U^1_a) in that slab, as the reference sweep over those rows finds
    it, and at half the worst residual over all rows."""
    monkeypatch.setattr(compactform, "SLAB_ENTRIES", 1 << 13)
    cached = algebra("f", 4)
    slabs = _slabs_of(monkeypatch, cached)
    assert len(slabs) > 4 and slabs[0][0] == 0 and slabs[-1][1] == cached.dim
    assert all(i1 == j0 for (_, i1), (j0, _) in zip(slabs, slabs[1:]))
    boundary = next(j0 for j0, _ in slabs[1:-1] if (j0 - cached.rank) % 2 == 0)
    last = cached.u_index(cached.n_pos - 1, 0)
    assert last > slabs[-1][0]
    for u0 in (boundary, last):
        ca = CompactAlgebra(cached.cd)
        c, r = ca.C, u0 * ca.dim + u0 + 1
        c.data[c.indptr[r]:c.indptr[r + 1]] *= -1.0
        worst, triple = ca._jacobi_worst()
        assert triple[0] in ca.generators and triple[1:] == (u0, u0 + 1)
        assert (worst, triple) == jacobi_oracle(ca, rows=ca.generators)
        assert worst == pytest.approx(jacobi_oracle(ca)[0] / 2, abs=1e-12)


def test_tiled_jacobi_sweep_is_exact_for_a_bracket_that_is_not_skew(algebra, jacobi_oracle,
                                                                   monkeypatch):
    """One stored entry of f4's C scaled by 0.5, -1 or 2, its mirror left
    alone, and f4 swept in at least three slabs: the sweep assumes no
    symmetry of C, so it matches the reference sweep over the generator rows bit
    for bit, worst residual and first triple alike.  (Reading
    [[e_i, e_j], e_k] as -[e_k, [e_i, e_j]], exact on skew C, misses this on
    most draws.)"""
    monkeypatch.setattr(compactform, "SLAB_ENTRIES", 1 << 14)
    cached = algebra("f", 4)
    assert len(_slabs_of(monkeypatch, cached)) >= 3
    ca = CompactAlgebra(cached.cd)
    rng = np.random.default_rng(20)
    for _ in range(24):
        at, factor = int(rng.integers(ca.C.nnz)), float(rng.choice([0.5, -1.0, 2.0]))
        kept = ca.C.data[at]
        ca.C.data[at] *= factor
        assert antisymmetry_max_residual(ca.C) > 0.0
        worst, triple = ca._jacobi_worst()
        assert worst > 1e-3 and (worst, triple) == jacobi_oracle(ca, rows=ca.generators)
        ca.C.data[at] = kept


def _corruptions(ca):
    """(positions in C.data, new values) of every single-entry corruption of
    C, each stored entry doubled, zeroed or shifted by 1e-6, and of every
    totally skew triple {i, j, k} of C with all six orders scaled by 2."""
    c, d = ca.C, ca.dim
    for at, x in enumerate(c.data.tolist()):
        for value in (2 * x, 0.0, x + 1e-6):
            yield [at], [value]
    coo = c.tocoo()
    first, second = np.divmod(coo.row, d)
    for triple in zip(first, second, coo.col):
        if triple[0] < triple[1] < triple[2]:
            at = [c.indptr[i * d + j] + np.flatnonzero(c[i * d + j].indices == k)[0]
                  for i, j, k in itertools.permutations(triple)]
            yield at, 2 * c.data[at]


@pytest.mark.parametrize("family,rank", [("g", 2), ("b", 2)])
def test_generator_sweep_flags_every_corruption_the_full_sweep_flags(family, rank, algebra,
                                                                     jacobi_oracle):
    """The fault matrix: over every corruption of ``_corruptions`` (570 on
    g2, 266 on b2), each that the reference sweep over all rows flags above 1e-9
    is flagged by ``GenerationFailure`` or at least half its residual (up to
    rounding, 1e-12 of it), and none that it passes is flagged.  The
    certificate fires on the zeroings that make a block of it singular, 10
    on g2 and 6 on b2.  About 2.6 s for both algebras on a 2-core VM."""
    ca = CompactAlgebra(algebra(family, rank).cd)
    data, missed, certified = ca.C.data, [], 0
    for at, values in _corruptions(ca):
        kept = data[at]
        data[at] = values
        want = jacobi_oracle(ca)[0]
        try:
            got = ca._jacobi_worst()[0]
        except GenerationFailure:
            got, certified = math.inf, certified + 1
        data[at] = kept
        if not (got >= 0.5 * want * (1 - 1e-12) if want > 1e-9 else got <= 1e-9):
            missed.append((at, values, want, got))
    assert missed == []
    assert certified == {"g": 10, "b": 6}[family]


def _extraspecial_rows(ca, beta):
    """The rows (U^p_e, U^0_g) of C, p = 0, 1, for the extraspecial pair (e, g) of beta."""
    e, g = ca.cd.extraspecial[beta]
    return [ca.u_index(e, p) * ca.dim + ca.u_index(g, 0) for p in (0, 1)]


def test_certificate_names_the_root_whose_plane_is_not_reached(algebra, monkeypatch, capsys):
    """Zeroing beta's plane entries of [U^p_e, U^0_g] on a fresh f4, (e, g)
    beta's extraspecial pair, leaves beta's plane unreached:
    ``GenerationFailure`` names beta, and ``verify jacobi`` prints one line
    for it and exits 1."""
    from nk_triad import cli, tables

    cached = algebra("f", 4)
    beta = int(np.flatnonzero(cached.rs.height == 3)[0])
    ca = CompactAlgebra(cached.cd)
    c, plane = ca.C, (ca.u_index(beta, 0), ca.u_index(beta, 1))
    for r in _extraspecial_rows(ca, beta):
        cols = c.indices[c.indptr[r]:c.indptr[r + 1]]
        assert np.isin(plane, cols).any()
        c.data[c.indptr[r]:c.indptr[r + 1]][np.isin(cols, plane)] = 0.0
    with pytest.raises(GenerationFailure, match="singular") as exc:
        ca.jacobi_max_residual()
    assert exc.value.root == ca.rs.roots[beta]
    monkeypatch.setattr(cli, "_JACOBI", [("f", 4)])
    monkeypatch.setattr(tables, "cached_algebra", lambda family, rank: ca)
    assert cli.main(["verify", "jacobi"]) == 1
    out = capsys.readouterr().out
    assert out.count('"jacobi:f4:') == 1
    assert f'"jacobi:f4:GenerationFailure:generation fails at {ca.rs.roots[beta]}:' in out


def test_certificate_refuses_a_bracket_outside_the_reached_planes(algebra):
    """A stored entry added to [U^0_e, U^0_g] on the plane of another root of
    beta's height, or to [U^0_a, U^1_a] of a simple root a off the Cartan,
    fails the certificate at beta or at the Cartan."""
    cached = algebra("f", 4)
    height = cached.rs.height
    beta, other = np.flatnonzero(height == 3)[:2]
    a = int(np.flatnonzero(height == 1)[0])
    for row, col, root in ((_extraspecial_rows(cached, beta)[0], cached.u_index(other, 1),
                            cached.rs.roots[beta]),
                           (cached.u_index(a, 0) * cached.dim + cached.u_index(a, 1),
                            cached.u_index(a, 0), None)):
        ca = CompactAlgebra(cached.cd)
        ca.C = ca.C + sparse.csr_matrix(([1e-3], ([row], [col])), shape=ca.C.shape)
        with pytest.raises(GenerationFailure, match="leave") as exc:
            ca.jacobi_max_residual()
        assert exc.value.root == root


def test_certificate_refuses_a_cartan_the_simple_brackets_do_not_span(algebra):
    """Zeroing [U^0_a, U^1_a] of one simple root a leaves the Cartan unspanned."""
    cached = algebra("b", 3)
    ca = CompactAlgebra(cached.cd)
    a = int(np.flatnonzero(ca.rs.height == 1)[0])
    c, r = ca.C, ca.u_index(a, 0) * ca.dim + ca.u_index(a, 1)
    c.data[c.indptr[r]:c.indptr[r + 1]] = 0.0
    with pytest.raises(GenerationFailure, match="do not span") as exc:
        ca.jacobi_max_residual()
    assert exc.value.root is None and "the Cartan" in str(exc.value)


def _assert_runs(weight, runs, budget):
    """The runs are non-empty, cover [0, n) in order, number at most
    ceil(sum / budget) (exactly that when no index outweighs sum / count),
    and each holds some weight, under sum / count before its last weighted
    index, unless no index weighs anything."""
    weight = np.asarray(weight, dtype=float)
    total = weight.sum()
    count = max(1, math.ceil(total / budget))
    assert runs[0][0] == 0 and runs[-1][1] == len(weight)
    assert all(i0 < i1 for i0, i1 in runs)
    assert all(i1 == j0 for (_, i1), (j0, _) in zip(runs, runs[1:]))
    assert len(runs) <= count
    if weight.max() <= total / count:
        assert len(runs) == count
    for i0, i1 in runs if total else []:
        last = i0 + np.flatnonzero(weight[i0:i1])[-1]
        assert weight[i0:last].sum() < total / count


# the ids name each case as it was numbered when slab_cuts also took a run cap
@pytest.mark.parametrize("weight,budget", [
    pytest.param([0] * 7, 4, id="weight0-4-None"),                       # all zero: one run
    pytest.param([0, 0, 3, 1, 2, 2, 1, 3, 0, 0], 3, id="weight1-3-None"),  # zero runs at both ends
    pytest.param([0, 1, 1, 1, 1, 0, 0], 1, id="weight2-1-None"),  # trailing zeros join the last run
    pytest.param([1, 1, 9, 1, 1, 1], 3, id="weight3-3-None"),     # one index heavier than the budget
    pytest.param([1, 10, 0], 4, id="weight4-4-None"),             # ... and zeros after it
    pytest.param([7] * 12, 100, id="weight7-100-None"),           # under the budget: one run
])
def test_slab_cuts_splits_the_weight_into_ordered_runs(weight, budget, monkeypatch):
    monkeypatch.setattr(compactform, "SLAB_ENTRIES", budget)
    _assert_runs(weight, slab_cuts(weight), budget)


def test_slab_cuts_reads_the_budget_at_call_time(monkeypatch):
    assert slab_cuts(np.ones(8)) == [(0, 8)]
    monkeypatch.setattr(compactform, "SLAB_ENTRIES", 2)
    assert slab_cuts(np.ones(8)) == [(0, 2), (2, 4), (4, 6), (6, 8)]
    assert slab_cuts([]) == []


@pytest.mark.parametrize("weight", [[5, 0, 3, 2], [1] * 9, [0, 4, 4, 0, 1, 7, 2, 0], [9, 1, 1, 1, 1, 1]])
def test_slab_cuts_makes_no_run_under_the_width(weight, monkeypatch):
    """``slab_cuts(weight, width)`` gives one run whenever the weight sums to at
    most ``width``, and, when ``width`` is at most the budget, the runs it
    gives with no width."""
    monkeypatch.setattr(compactform, "SLAB_ENTRIES", 2)
    total = sum(weight)
    for width in range(total + 3):
        runs = slab_cuts(weight, width)
        if total <= width:
            assert runs == [(0, len(weight))], width
        if width <= 2:
            assert runs == slab_cuts(weight), width
        _assert_runs(weight, runs, max(2, width))


def test_jacobi_sweep_memory_is_bounded(algebra):
    """The e8 sweep's working set follows SLAB_ENTRIES (about 3.3 MiB traced)."""
    ca = algebra("e", 8)
    tracemalloc.start()
    try:
        assert ca.jacobi_max_residual() < 1e-12
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2 ** 20


def test_sign_flip_is_detected_and_located(algebra):
    cached = algebra("g", 2)
    ca = CompactAlgebra(cached.cd)  # fresh C; the cached one stays intact
    a, b = next((i, j) for i in range(ca.rank, ca.dim) for j in range(i + 1, ca.dim)
                if len(_terms(ca, i, j)) == 1)
    (coef,) = _terms(ca, a, b).values()
    _scale_pair(ca, a, b, -1.0)
    assert antisymmetry_max_residual(ca.C) == pytest.approx(2 * abs(coef))
    ref = np.abs(_dense_jacobi_residual(ca))
    with pytest.raises(JacobiFailure) as exc:
        ca.assert_jacobi(1e-9)
    assert exc.value.residual == pytest.approx(ref.max(), abs=1e-12)
    assert ref[exc.value.triple].max() == pytest.approx(ref.max(), abs=1e-12)
    assert {a, b} & set(exc.value.triple)
    assert antisymmetry_max_residual(cached.C) == 0.0


def test_trace_form_proportional_to_stored(algebra):
    for family, rank in [("a", 2), ("b", 3), ("c", 3), ("d", 4), ("g", 2), ("f", 4)]:
        ca = algebra(family, rank)
        assert abs(ca.trace_form_ratio() - 2 * ca.dual_coxeter) < 1e-8


def _scaled_su2(algebra):
    """A fresh su(2) with [U0, U1] doubled (both orders in C): tr(ad X ad X)/B0(X, X)
    goes from 4 to 8 on both U-vectors and stays 4 on h, so the mean ratio is
    20/3 and h departs most from it, by 8/3."""
    cached = algebra("a", 1)
    ca = CompactAlgebra(cached.cd)
    _scale_pair(ca, ca.u_index(0, 0), ca.u_index(0, 1), 2.0)
    return ca


def _flipped_g2(algebra):
    """A fresh g2 with one U-U bracket negated in both orders of C."""
    cached = algebra("g", 2)
    ca = CompactAlgebra(cached.cd)
    _scale_pair(ca, ca.u_index(0, 0), ca.u_index(1, 1), -1.0)
    return ca


def test_trace_form_failure_names_its_indices(algebra):
    ca = _scaled_su2(algebra)
    with pytest.raises(TraceFormFailure) as exc:
        ca.trace_form_ratio()
    assert exc.value.pair == (0, 0)
    assert exc.value.residual == pytest.approx(8.0 / 3.0)
    assert algebra("a", 1).trace_form_ratio() == pytest.approx(4.0)
    # every pair is checked: the named pair is the worst of the dense reference
    for ca in (_scaled_su2(algebra), _flipped_g2(algebra)):
        ratios = _dense_trace_form(ca) / -2.0
        dev = np.abs(ratios - np.trace(ratios) / ca.dim * np.eye(ca.dim))
        with pytest.raises(TraceFormFailure) as exc:
            ca.trace_form_ratio()
        assert exc.value.residual == pytest.approx(dev.max(), abs=1e-12)
        assert dev[exc.value.pair] == pytest.approx(dev.max(), abs=1e-12)


def test_cli_reports_trace_form_failure(algebra, monkeypatch, capsys):
    from nk_triad import cli, tables

    broken = _scaled_su2(algebra)
    monkeypatch.setattr(cli, "_JACOBI", [("a", 1)])
    monkeypatch.setattr(tables, "cached_algebra", lambda family, rank: broken)
    assert cli.main(["verify", "jacobi"]) == 1
    assert '"jacobi:a1:TraceFormFailure:trace-form residual 2.667e+00 at basis pair (0, 0)' \
        in capsys.readouterr().out


def test_cli_reports_jacobi_failure(algebra, monkeypatch, capsys):
    """The flipped g2's worst triple over all rows, (0, 3, 5), has a Cartan
    row; the sweep names the first generator-row triple of that residual."""
    from nk_triad import cli, tables

    broken = _flipped_g2(algebra)
    monkeypatch.setattr(cli, "_JACOBI", [("g", 2)])
    monkeypatch.setattr(tables, "cached_algebra", lambda family, rank: broken)
    assert cli.main(["verify", "jacobi"]) == 1
    assert '"jacobi:g2:JacobiFailure:Jacobi residual 3.464e+00 at basis triple (3,0,5)"' \
        in capsys.readouterr().out


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_cli_reports_a_non_finite_jacobi_residual(bad, algebra, monkeypatch, capsys):
    """A NaN or an infinity in C gives a non-finite residual, the worst of
    all, named at its first triple: ``verify jacobi`` prints one JacobiFailure
    line and exits 1 (the former sweep raised a bare ValueError)."""
    from nk_triad import cli, tables

    ca = CompactAlgebra(algebra("g", 2).cd)
    ca.C.data[5] = bad
    worst, triple = ca._jacobi_worst()
    assert not math.isfinite(worst) and triple[0] in ca.generators
    monkeypatch.setattr(cli, "_JACOBI", [("g", 2)])
    monkeypatch.setattr(tables, "cached_algebra", lambda family, rank: ca)
    assert cli.main(["verify", "jacobi"]) == 1
    out = capsys.readouterr().out
    assert out.count('"jacobi:g2:') == 1
    assert f'"jacobi:g2:JacobiFailure:Jacobi residual {worst:.3e} at basis triple ' \
           f'({triple[0]},{triple[1]},{triple[2]})"' in out


def test_cli_refuses_an_infinite_trace_form(algebra, monkeypatch, capsys):
    """An infinite entry of C makes the mean trace-form ratio infinite: it is
    a TraceFormFailure, not a pass (the former rule read inf - inf as within
    1e-6 of inf).  And a ratio of inf or NaN is a finding of ``verify jacobi``
    against 2h*, where the former rule scaled the tolerance by the ratio."""
    from nk_triad import cli, tables

    ca = CompactAlgebra(algebra("g", 2).cd)
    ca.C.data[5] = math.inf
    monkeypatch.setattr(ca, "assert_jacobi", lambda tol: 0.0)   # the trace form alone
    monkeypatch.setattr(cli, "_JACOBI", [("g", 2)])
    monkeypatch.setattr(tables, "cached_algebra", lambda family, rank: ca)
    assert cli.main(["verify", "jacobi"]) == 1
    out = capsys.readouterr().out
    assert out.count('"jacobi:g2:') == 1 and '"jacobi:g2:TraceFormFailure:' in out
    for ratio in (math.inf, math.nan):
        sound = CompactAlgebra(algebra("g", 2).cd)
        monkeypatch.setattr(sound, "trace_form_ratio", lambda ratio=ratio: ratio)
        monkeypatch.setattr(tables, "cached_algebra", lambda family, rank: sound)
        assert cli.main(["verify", "jacobi"]) == 1
        out = capsys.readouterr().out
        assert out.count('"jacobi:g2:') == 1
        assert f'"jacobi:g2:trace-form ratio {ratio}, not 2h* = 8"' in out


def test_ad_skew_and_invariance(algebra):
    ca = algebra("g", 2)
    rng = np.random.default_rng(2)
    eye = np.eye(ca.dim)
    for _ in range(10):
        i, j, k = rng.integers(0, ca.dim, size=3)
        x, y, z = eye[:, i], eye[:, j], eye[:, k]
        bxy = np.kron(x, y) @ ca.C
        bxz = np.kron(x, z) @ ca.C
        # invariance of the stored form B0 = -2 id
        assert abs(-2 * bxy @ z + -2 * y @ bxz) < 1e-12
    for i in range(ca.dim):
        ad_i = ad(ca, i).toarray()
        assert np.abs(ad_i + ad_i.T).max() < 1e-12


def test_rotation_identity_at_zero(algebra):
    ca = algebra("a", 2)
    mat = adjoint_action_exp(ca, np.zeros(len(ca.rs.roots), dtype=np.int64), 3).toarray()
    assert np.abs(mat - np.eye(ca.dim)).max() == 0.0


def test_rotation_planes_a2(algebra):
    """H = H1/3 turns each U-plane by 2 pi n1(alpha)/3."""
    ca = algebra("a", 2)
    rs = ca.rs
    mat = adjoint_action_exp(ca, rs._coeffs[:, 0] % 3, 3).toarray()
    for k, r in enumerate(rs.roots[:rs.n_positive]):
        i0, i1 = ca.u_index(k, 0), ca.u_index(k, 1)
        angle = 2 * math.pi * r[0] / 3
        assert abs(mat[i0, i0] - math.cos(angle)) < 1e-12
        assert abs(mat[i1, i0] - math.sin(angle)) < 1e-12


def test_rotation_rejects_a_level_that_is_not_a_third(algebra):
    ca = algebra("a", 2)
    levels = np.zeros(len(ca.rs.roots), dtype=np.int64)
    levels[ca.rs.root_index[(1, 1)]] = 1
    with pytest.raises(NotOrderThree, match=r"level 1/4 of root \(1, 1\) is not a third"):
        adjoint_action_exp(ca, levels, 4)


def test_rotation_is_automorphism_and_order_three(algebra):
    from nk_triad.rootsys import enumerate_inner_order3

    for family, rank in [("a", 2), ("g", 2), ("c", 3), ("d", 4)]:
        ca = algebra(family, rank)
        rs = ca.rs
        for cls in enumerate_inner_order3(rs):
            mat = adjoint_action_exp(ca, *cls.levels(rs)).toarray()
            assert np.abs(mat @ mat @ mat - np.eye(ca.dim)).max() < 1e-12
            assert np.abs(mat.T @ mat - np.eye(ca.dim)).max() < 1e-12
            rng = np.random.default_rng(0)
            eye = np.eye(ca.dim)
            for _ in range(6):
                i, j = rng.integers(0, ca.dim, size=2)
                lhs = mat @ (np.kron(eye[:, i], eye[:, j]) @ ca.C)
                rhs = np.kron(mat[:, i], mat[:, j]) @ ca.C
                assert np.abs(lhs - rhs).max() < 1e-9


def test_bracket_closes_on_basis(algebra):
    """C is (dim^2, dim), finite, free of explicit zeros, and holds both orders
    of every pair: C[(j, i), l] = -C[(i, j), l]."""
    ca = algebra("c", 3)
    d = ca.dim
    c = ca.C.tocoo()
    assert c.shape == (d * d, d)
    assert np.isfinite(c.data).all() and (c.data != 0).all()
    i, j = np.divmod(c.row, d)
    swapped = sparse.csr_matrix((c.data, (j * d + i, c.col)), shape=c.shape)
    assert abs(ca.C + swapped).max() == 0.0
