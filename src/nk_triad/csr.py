"""CSR arrays (indptr, indices, data) on scipy's kernels (``scipy.sparse._sparsetools``): each
helper makes one scipy operation's kernel calls, so its sums are scipy's bit for bit."""

import numpy as np
import scipy.sparse as sp
from scipy.sparse._sparsetools import (coo_tocsr, csr_eliminate_zeros, csr_has_canonical_format,
                                       csr_has_sorted_indices, csr_matmat, csr_matmat_maxnnz,
                                       csr_minus_csr, csr_plus_csr, csr_sort_indices,
                                       csr_sum_duplicates, csr_tocsc, csr_todense, expandptr)

ZERO_DROP = 1e-13         # entries below this are float noise on exact zeros


def arrays(mat: sp.csr_matrix) -> tuple:
    return mat.indptr, mat.indices, mat.data


def matrix(csr, shape) -> sp.csr_matrix:
    return sp.csr_matrix(csr[::-1], shape=shape)


def sliced(csr, r0: int, r1: int) -> tuple:
    """Rows [r0, r1) of CSR arrays, as a row slice: views of the entries, rebased pointers."""
    ptr, col, val = csr
    lo, hi = ptr[r0], ptr[r1]
    return ptr[r0:r1 + 1] - lo, col[lo:hi], val[lo:hi]


def gathered(csr, at: np.ndarray) -> tuple:
    """Rows ``at`` of CSR arrays in that order, entries in row order, as scipy's row indexing."""
    ptr, col, val = csr
    size = ptr[at + 1] - ptr[at]
    out = np.r_[0, np.cumsum(size)].astype(ptr.dtype)
    take = np.repeat(ptr[at] - out[:-1], size) + np.arange(out[-1])
    return out, col[take], val[take]


def entry_rows(ptr: np.ndarray) -> np.ndarray:
    """The row of each entry (``expandptr``)."""
    rows = np.empty(ptr[-1], dtype=ptr.dtype)
    expandptr(len(ptr) - 1, ptr, rows)
    return rows


def split(v: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """(v // n, v % n) of a non-negative integer array by one floor division,
    which numpy runs vectorized where its divmod and % are not."""
    high = v // n
    return high, v - high * n


def _trimmed(ptr, col, val) -> tuple:
    """Kernel output cut to its entries, copied: buffers shrunk in place leave heap holes."""
    cut = lambda a: a if a.size == ptr[-1] else a[:ptr[-1]].copy()
    return ptr, cut(col), cut(val)


def product(first, second, n: int) -> tuple:
    """first @ second (n columns) as scipy's @: ``csr_matmat``, in the order of first's rows."""
    m = len(first[0]) - 1
    cap = csr_matmat_maxnnz(m, n, first[0], first[1], second[0], second[1])
    out = np.empty(m + 1, first[0].dtype), np.empty(cap, first[1].dtype), np.empty(cap)
    csr_matmat(m, n, *first, *second, *out)
    return _trimmed(*out)


def transpose(csr, n: int) -> tuple:
    """The transpose of n columns, as ``.T.tocsr()``: ``csr_tocsc``, rows sorted."""
    ptr, col, val = csr
    out = np.empty(n + 1, ptr.dtype), np.empty(ptr[-1], col.dtype), np.empty(ptr[-1])
    csr_tocsc(len(ptr) - 1, n, ptr, col, val, *out)
    return out


def coo_rows(row, col, data, shape) -> tuple:
    """Entries grouped into rows, each in the entries' order (``coo_tocsr``), int32 as scipy's."""
    row, col = row.astype(np.int32, copy=False), col.astype(np.int32, copy=False)
    out = np.empty(shape[0] + 1, np.int32), np.empty_like(col), np.empty_like(data)
    coo_tocsr(shape[0], shape[1], len(row), row, col, data, *out)
    return out


def canonical(csr, n: int) -> tuple:
    """scipy's ``sum_duplicates`` in place: rows sorted unless sorted, duplicates summed in order."""
    ptr, col, val = csr
    if csr_has_canonical_format(len(ptr) - 1, ptr, col):
        return csr
    if not csr_has_sorted_indices(len(ptr) - 1, ptr, col):
        csr_sort_indices(len(ptr) - 1, ptr, col, val)
    csr_sum_duplicates(len(ptr) - 1, n, ptr, col, val)
    return _trimmed(ptr, col, val)


def merged(kernel, first, second, n: int) -> tuple:
    """``csr_plus_csr`` or ``csr_minus_csr`` (n columns), as scipy's + and -."""
    cap = first[0][-1] + second[0][-1]
    out = np.empty_like(first[0]), np.empty(cap, first[1].dtype), np.empty(cap)
    kernel(len(first[0]) - 1, n, *first, *second, *out)
    return _trimmed(*out)


def dropped(csr, n: int) -> tuple:
    """Entries below ``ZERO_DROP``, float noise on exact zeros, removed in place."""
    ptr, col, val = csr
    val[(val > -ZERO_DROP) & (val < ZERO_DROP)] = 0.0     # |val| < ZERO_DROP, with no |val| copy
    csr_eliminate_zeros(len(ptr) - 1, n, ptr, col, val)
    return _trimmed(ptr, col, val)

