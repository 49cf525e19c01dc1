"""The scipy kernels R's build calls on CSR arrays (``scipy.sparse._sparsetools``),
each through ``nk_analyzer``'s call of it against the public scipy operation
it stands for, bit for bit: on the slabs and rows of G of g2 node 2 and f4
cyclic, and on random sorted CSR operators.  A scipy release that moves a
kernel, or changes what it computes, fails here under the kernel's name."""

import ast
import inspect

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.sparse import _sparsetools

from nk_triad import nk_analyzer
from nk_triad.automorph import realize_cyclic_c3
from nk_triad.compactform import ZERO_DROP, drop_noise
from nk_triad.nk_analyzer import _arrays, _entry_rows, _merged, _moved, curvature
from nk_triad.tables import cached_algebra, realize


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


@pytest.fixture(scope="module")
def operands():
    """(name, first, second, dm): sorted CSR pairs of equal shape, the slab
    with its rows of G and the slab with its "zxy" move, on every slab of g2
    node 2 and f4 cyclic, then random pairs."""
    found = []
    for space in (realize("g", 2, "A3III", (2,)), realize_cyclic_c3(cached_algebra("f", 4))):
        dm = space.dim_m
        for a0, slab, half in curvature(space).slabs():
            moved = _moved(_arrays(slab), dm, "zxy", slab.data)
            found += [(f"{space.name} slab {a0}, G", slab, half, dm),
                      (f"{space.name} slab {a0}, moved", slab,
                       sp.csr_matrix(moved[::-1], shape=slab.shape), dm)]
    rng = np.random.default_rng(43)
    found += [(f"random dm {dm}", *_random_pair(rng, dm), dm) for dm in (5, 9, 14) for _ in range(2)]
    for name, first, second, _ in found:
        assert first.has_canonical_format and second.has_canonical_format, name
    return found


def _expandptr(first, second, dm):
    return (_entry_rows(first.indptr),), (first.tocoo().row,)


def _coo_tocsr(first, second, dm):
    coo = first.tocoo()
    (a, x), (y, z) = np.divmod(coo.row, dm), np.divmod(coo.col, dm)
    got, want = [], []
    for to, row, col in (("zxy", a * dm + z, x * dm + y), ("yxz", a * dm + y, x * dm + z)):
        got += _moved(_arrays(first), dm, to, first.data)
        want += _arrays(sp.coo_matrix((first.data, (row, col)), shape=first.shape).tocsr())
    return got, want


def _csr_plus_csr(first, second, dm):
    return _merged(_sparsetools.csr_plus_csr, _arrays(first), _arrays(second), dm * dm), \
        _arrays(first + second)


def _csr_minus_csr(first, second, dm):
    return _merged(_sparsetools.csr_minus_csr, _arrays(first), _arrays(second), dm * dm), \
        _arrays(first - second)


def _csr_sort_indices(first, second, dm):
    """The first operator's columns relabelled by a bijection, as kron(J, J)
    relabels a slab, then sorted."""
    perm = np.random.default_rng(first.nnz).permutation(dm * dm).astype(first.indices.dtype)
    ptr, col, val = first.indptr, perm[first.indices], first.data.copy()
    want = sp.csr_matrix((val.copy(), col.copy(), ptr), shape=first.shape)
    want.sort_indices()
    _sparsetools.csr_sort_indices(len(ptr) - 1, ptr, col, val)
    return (ptr, col, val), _arrays(want)


def _csr_eliminate_zeros(first, second, dm):
    """The first operator with every third entry scaled below ``ZERO_DROP``,
    those entries zeroed as ``Curvature.slabs`` zeroes them, then removed."""
    noisy = first.copy()
    noisy.data[::3] *= ZERO_DROP / 4
    ptr, col, val = noisy.indptr.copy(), noisy.indices.copy(), noisy.data.copy()
    val[(val > -ZERO_DROP) & (val < ZERO_DROP)] = 0.0
    _sparsetools.csr_eliminate_zeros(len(ptr) - 1, dm * dm, ptr, col, val)
    return (ptr, col[:ptr[-1]], val[:ptr[-1]]), _arrays(drop_noise(noisy))


CHECKS = {"coo_tocsr": _coo_tocsr, "csr_plus_csr": _csr_plus_csr, "csr_minus_csr": _csr_minus_csr,
          "csr_sort_indices": _csr_sort_indices, "expandptr": _expandptr,
          "csr_eliminate_zeros": _csr_eliminate_zeros}


def test_the_build_calls_these_kernels_alone():
    """The kernels ``nk_analyzer`` imports are the ones pinned here."""
    tree = ast.parse(inspect.getsource(nk_analyzer))
    imported = {alias.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
                and node.module == "scipy.sparse._sparsetools" for alias in node.names}
    assert imported == set(CHECKS)


@pytest.mark.parametrize("kernel", sorted(CHECKS))
def test_kernel_equals_the_public_operation(kernel, operands):
    """Each array the kernel's call returns equals the public operation's in
    dtype and bytes, on every operand pair."""
    for name, first, second, dm in operands:
        got, want = CHECKS[kernel](first, second, dm)
        assert len(got) == len(want), (kernel, name)
        for g, w in zip(got, want):
            assert g.dtype == w.dtype and g.tobytes() == w.tobytes(), (kernel, name)
