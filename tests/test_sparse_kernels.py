"""The scipy kernels the float stages call on CSR arrays (``scipy.sparse._sparsetools``),
each through the ``csr`` helper that calls it against the public scipy
operation it stands for, bit for bit: on real operands of g2 node 1, a2
cyclic, the triality and f4 cyclic (frames, sigma, X, K, J, and the slabs and
rows of G of R's build on g2 node 2 and f4 cyclic), and on random operators,
sorted and with unsorted rows.  A scipy release that moves a kernel, or
changes what it computes, fails here under the kernel's name."""

import ast
import inspect

import numpy as np
import pytest
import scipy.sparse as sp

from nk_triad import csr
from nk_triad.automorph import realize_cyclic_c3, realize_triality_d4
from nk_triad.compactform import ZERO_DROP
from nk_triad.nk_analyzer import _moved, curvature
from nk_triad.tables import cached_algebra, realize

from conftest import drop_noise


def _unsorted(mat: sp.csr_matrix) -> sp.csr_matrix:
    """``mat`` with each row's entries in reverse order."""
    rows = np.repeat(np.arange(mat.shape[0]), np.diff(mat.indptr))
    order = np.lexsort((-np.arange(mat.nnz), rows))
    return sp.csr_matrix((mat.data[order], mat.indices[order], mat.indptr.copy()), shape=mat.shape)


def _random_pair(rng, dm: int):
    """Two sorted CSR operators of rows (a, b), a < 3, and dm^2 columns, the
    second sharing a third of the first's entries and the negation of another
    third, so that + and - both merge and cancel entries."""
    shape = (3 * dm, dm * dm)
    first = sp.random(*shape, density=0.3, format="csr", random_state=rng)
    share = first.copy()
    share.data[0::3] = 0.0
    share.data[1::3] *= -1.0
    share.eliminate_zeros()
    return first, (sp.random(*shape, density=0.3, format="csr", random_state=rng) + share).tocsr()


def _spaces():
    return [realize("g", 2, "A3IV", (1,)), realize_cyclic_c3(cached_algebra("a", 2)),
            realize_triality_d4(cached_algebra("d", 4)), realize_cyclic_c3(cached_algebra("f", 4))]


@pytest.fixture(scope="module")
def operands():
    """(name, first, second, dm): sorted CSR pairs of equal shape, the slab
    with its rows of G and the slab with its "zxy" move, on every slab of g2
    node 2 and f4 cyclic, then random pairs."""
    found = []
    for space in (realize("g", 2, "A3III", (2,)), realize_cyclic_c3(cached_algebra("f", 4))):
        dm = space.dim_m
        for a0, slab, half in curvature(space).slabs():
            moved = _moved(csr.arrays(slab), dm, "zxy", slab.data)
            found += [(f"{space.name} slab {a0}, G", slab, half, dm),
                      (f"{space.name} slab {a0}, moved", slab,
                       sp.csr_matrix(moved[::-1], shape=slab.shape), dm)]
    rng = np.random.default_rng(43)
    found += [(f"random dm {dm}", *_random_pair(rng, dm), dm) for dm in (5, 9, 14) for _ in range(2)]
    for name, first, second, _ in found:
        assert first.has_canonical_format and second.has_canonical_format, name
    return found


@pytest.fixture(scope="module")
def factors():
    """(name, first, second): CSR operators with first's columns second's
    rows, as the float stages multiply them, each pair also with first's
    rows unsorted: sigma sigma, sigma m, X J (X's rows come unsorted out of
    its product), X's first rows by X^T and K's by K^T, on g2 node 1, a2
    cyclic, the triality and f4 cyclic; then random pairs."""
    found = []
    for space in _spaces():
        (x, kc), j, dm = space.tensors(), curvature(space).j, space.dim_m
        found += [(f"{space.name}: {name}", first, second) for name, first, second in (
            ("sigma sigma", space.sigma, space.sigma), ("sigma m", space.sigma, space.m_cols),
            ("X J", x, j), ("X rows X^T", x[:3 * dm], x.T.tocsr()),
            ("K rows K^T", kc[:3 * dm], kc.T.tocsr()))]
    rng = np.random.default_rng(44)
    for n in (4, 11, 30):
        found.append((f"random {n}", sp.random(n, 2 * n, density=0.3, format="csr", random_state=rng),
                      sp.random(2 * n, n + 3, density=0.2, format="csr", random_state=rng)))
    found += [(f"{name}, unsorted", _unsorted(first), second) for name, first, second in found]
    return found


@pytest.fixture(scope="module")
def entries():
    """(name, (row, col, data), shape): COO entries with duplicates, each
    row's entries out of order: every entry of a real or random operator
    twice, the second copy halved, in a shuffled order."""
    rng = np.random.default_rng(45)
    found = []
    for space in _spaces():
        for name, mat in (("X", space.tensors()[0]), ("K", space.tensors()[1]), ("C", space.algebra.C)):
            found.append((f"{space.name}: {name}", mat))
    found += [(f"random {n}", sp.random(n, 3 * n, density=0.2, format="csr", random_state=rng))
              for n in (3, 17)]
    out = []
    for name, mat in found:
        coo = mat.tocoo()
        order = rng.permutation(2 * coo.nnz)
        row, col = np.tile(coo.row, 2)[order], np.tile(coo.col, 2)[order]
        data = np.concatenate([coo.data, 0.5 * coo.data])[order]
        out.append((name, (row.astype(np.int64), col.astype(np.int64), data), mat.shape))
    return out


def _expandptr(operands, factors, entries):
    return [((csr.entry_rows(first.indptr),), (first.tocoo().row,))
            for _, first, _, _ in operands]


def _coo_tocsr(operands, factors, entries):
    """R's moves (``nk_analyzer._moved``, a counting pass alone) against
    scipy's COO conversion, and ``coo_rows`` then ``canonical`` against
    ``coo_matrix(...).tocsr()`` on entries with duplicates out of order."""
    out = []
    for _, first, _, dm in operands:
        coo = first.tocoo()
        (a, x), (y, z) = np.divmod(coo.row, dm), np.divmod(coo.col, dm)
        for to, row, col in (("zxy", a * dm + z, x * dm + y), ("yxz", a * dm + y, x * dm + z)):
            out.append((_moved(csr.arrays(first), dm, to, first.data),
                        csr.arrays(sp.coo_matrix((first.data, (row, col)), shape=first.shape).tocsr())))
    return out + _canonical(operands, factors, entries)


def _canonical(operands, factors, entries):
    return [(csr.canonical(csr.coo_rows(*coo, shape), shape[1]),
             csr.arrays(sp.coo_matrix((coo[2], coo[:2]), shape=shape).tocsr()))
            for _, coo, shape in entries]


def _csr_plus_csr(operands, factors, entries):
    return [(csr.merged(csr.csr_plus_csr, csr.arrays(first), csr.arrays(second), dm * dm),
             csr.arrays(first + second)) for _, first, second, dm in operands]


def _csr_minus_csr(operands, factors, entries):
    return [(csr.merged(csr.csr_minus_csr, csr.arrays(first), csr.arrays(second), dm * dm),
             csr.arrays(first - second)) for _, first, second, dm in operands]


def _csr_sort_indices(operands, factors, entries):
    """Each first operator's columns relabelled by a bijection, as kron(J, J)
    relabels a slab, then sorted by the kernel as ``nk_analyzer`` calls it;
    and every canonical conversion."""
    out = []
    for _, first, _, dm in operands:
        perm = np.random.default_rng(first.nnz).permutation(dm * dm).astype(first.indices.dtype)
        ptr, col, val = first.indptr, perm[first.indices], first.data.copy()
        want = sp.csr_matrix((val.copy(), col.copy(), ptr), shape=first.shape)
        want.sort_indices()
        csr.csr_sort_indices(len(ptr) - 1, ptr, col, val)
        out.append(((ptr, col, val), csr.arrays(want)))
    return out + _canonical(operands, factors, entries)


def _csr_eliminate_zeros(operands, factors, entries):
    """Each first operator with every third entry scaled below ``ZERO_DROP``,
    those entries dropped by ``csr.dropped`` and by ``drop_noise``."""
    out = []
    for _, first, _, dm in operands:
        noisy = first.copy()
        noisy.data[::3] *= ZERO_DROP / 4
        copied = noisy.indptr.copy(), noisy.indices.copy(), noisy.data.copy()
        out.append((csr.dropped(copied, dm * dm), csr.arrays(drop_noise(noisy))))
    return out


def _csr_matmat(operands, factors, entries):
    """``product`` against scipy's @, sorted and unsorted first factors."""
    return [(csr.product(csr.arrays(first), csr.arrays(second), second.shape[1]),
             csr.arrays(first @ second)) for _, first, second in factors]


def _csr_tocsc(operands, factors, entries):
    """``transpose`` against ``.T.tocsr()``, sorted and unsorted operators."""
    return [(csr.transpose(csr.arrays(first), first.shape[1]), csr.arrays(first.T.tocsr()))
            for _, first, _ in factors]


def _csr_todense(operands, factors, entries):
    """The kernel adding an operator into a dense array in place, as the commutant
    Gram calls it, against adding scipy's ``toarray``, sorted and unsorted operators."""
    rng, out = np.random.default_rng(46), []
    for _, first, _ in factors:
        dense = rng.standard_normal(first.shape)
        got = dense.copy()
        csr.csr_todense(*first.shape, *csr.arrays(first), got)
        out.append(((got,), (dense + first.toarray(),)))
    return out


CHECKS = {"coo_tocsr": _coo_tocsr, "csr_plus_csr": _csr_plus_csr, "csr_minus_csr": _csr_minus_csr,
          "csr_sort_indices": _csr_sort_indices, "expandptr": _expandptr,
          "csr_eliminate_zeros": _csr_eliminate_zeros, "csr_matmat": _csr_matmat,
          "csr_matmat_maxnnz": _csr_matmat, "csr_tocsc": _csr_tocsc,
          "csr_has_canonical_format": _canonical, "csr_has_sorted_indices": _canonical,
          "csr_sum_duplicates": _canonical, "csr_todense": _csr_todense}


def test_row_reads_equal_scipy_row_indexing(factors):
    """``sliced`` equals scipy's row slice and ``gathered`` its row indexing,
    in dtype and bytes, repeated and reordered rows included."""
    rng = np.random.default_rng(47)
    for name, first, _ in factors:
        n = first.shape[0]
        for r0, r1 in ((0, n), (1, n - 1), (n // 2, n // 2)):
            want = first[r0:r1]
            for g, w in zip(csr.sliced(csr.arrays(first), r0, r1), csr.arrays(want)):
                assert g.dtype == w.dtype and g.tobytes() == w.tobytes(), (name, r0, r1)
        at = rng.integers(n, size=2 * n)
        for g, w in zip(csr.gathered(csr.arrays(first), at), csr.arrays(first[at])):
            assert g.dtype == w.dtype and g.tobytes() == w.tobytes(), name


def test_the_helpers_call_these_kernels_alone():
    """The kernels ``csr`` imports are the ones pinned here."""
    tree = ast.parse(inspect.getsource(csr))
    imported = {alias.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
                and node.module == "scipy.sparse._sparsetools" for alias in node.names}
    assert imported == set(CHECKS)


def test_the_operands_are_real_and_cover_both_orders(factors, entries):
    """Some first factor has unsorted rows as it comes (X), and some entries
    hold duplicates, so the product, transpose and canonical checks run on
    what scipy does not sort away."""
    assert any(not first.has_sorted_indices for name, first, _ in factors
               if not name.endswith("unsorted"))
    assert all(len(np.unique(coo[0] * shape[1] + coo[1])) < len(coo[0]) for _, coo, shape in entries)


@pytest.mark.parametrize("kernel", sorted(CHECKS))
def test_kernel_equals_the_public_operation(kernel, operands, factors, entries):
    """Each array the helper returns equals the public operation's in dtype
    and bytes, on every operand."""
    pairs = CHECKS[kernel](operands, factors, entries)
    assert pairs
    for at, (got, want) in enumerate(pairs):
        assert len(got) == len(want), (kernel, at)
        for g, w in zip(got, want):
            assert g.dtype == w.dtype and g.tobytes() == w.tobytes(), (kernel, at)
