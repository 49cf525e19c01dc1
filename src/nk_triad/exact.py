"""The exact layer eigenvalues and report of every space, in rationals.

Eigenvalues of r, Ric and C are exact rationals in units of kappa = |mu|^2.
On an inner class they are sums of exact squared structure constants over
its root split, read from the class and the algebra's ``ChevalleyData``
alone (``inner_report``); on the triality and the cyclic triples they are
a closed form in the dual Coxeter number (``constant_report``).  No space is
realized and no float module is loaded; ``nk_analyzer`` cross-checks each
report against the floating-point trace computations on a realized space.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .chevalley import ChevalleyData, IdentityViolation
from .rootsys import NK_TYPE, InnerClass, RootSystem, VerificationFailure


class FixedVectorInM(VerificationFailure):
    """sigma restricted to m has a fixed vector; the split k + m is wrong."""


class NonRationalEigenvalue(VerificationFailure):
    """A float eigenvalue failed to reconstruct as an exact rational."""


class RIdentityMismatch(VerificationFailure):
    """Ric - Ric* disagrees with the torsion tensor r."""


# -- exact layer eigenvalues -----------------------------------------------------


@dataclass(frozen=True)
class EigenData:
    layer: str
    value: Fraction          # eigenvalue in units of kappa
    dim: int


def layer_traces(cd: ChevalleyData, spec: InnerClass) -> dict[str, tuple[np.ndarray, np.ndarray]]:
    """Exact torsion traces of every m-root against every layer.

    ``out[L]`` is (the indices in ``rs.roots`` of the roots of layer L, as in
    ``spec.split``, and an int array of one row per root);
    entry [i, j] is 12 sum N^2 over the roots beta of the j-th layer of
    ``spec.split`` for which alpha + beta is a root with a(alpha) + a(beta)
    != 0 mod 1, or alpha - beta is a root with a(alpha) != a(beta) (N^2
    taken at (-alpha, beta) there), alpha the i-th root.  That is the trace
    4 sum_v |xi_X v|^2 over the frame of the layer, X a unit vector of the
    plane of alpha, in units of kappa / 12: sums of ``cd.n12`` over the
    positive (rows alpha) and negative (rows -alpha) halves of the table.
    """
    levels, d = spec.levels(cd.rs)
    layer_roots = spec.split(cd.rs)[0]
    sizes = [len(layer) for layer in layer_roots.values()]
    m = np.concatenate(list(layer_roots.values()))
    lev = levels[m][:, None]
    sums = np.where((lev + lev.T) % d != 0, cd.n12[np.ix_(m, m)], 0)
    diffs = np.where(lev != lev.T, cd.n12[np.ix_(m + cd.n, m)], 0)
    # column j of the traces sums the columns of the roots of layer j
    onehot = np.repeat(np.eye(len(sizes), dtype=np.int64), sizes, axis=0)
    traces, ends = (sums + diffs) @ onehot, np.cumsum(sizes).tolist()
    return {label: (layer, traces[end - len(layer):end])
            for (label, layer), end in zip(layer_roots.items(), ends)}


def _layer_row(label: str, layer: np.ndarray, rows: np.ndarray, whats: list[str], roots) -> list[int]:
    """A layer's one row, or NonRationalEigenvalue at a root off it in its first varying column."""
    off = rows != rows[0]
    if off.any():
        j = int(off.any(axis=0).argmax())
        column = rows[:, j].tolist()
        common = Counter(column).most_common(1)[0][0]
        root, v = next((roots[r], v) for r, v in zip(layer, column) if v != common)
        raise NonRationalEigenvalue(
            f"layer {label} is not an r-eigenbundle: {whats[j]} is {Fraction(v, 12)}"
            f" kappa at root {root}, {Fraction(common, 12)} kappa on the rest")
    return rows[0].tolist()


def _r_of(traces, roots: list) -> dict[str, int]:
    """r-eigenvalue per layer, in units of kappa / 12: the row sums of the traces."""
    return {label: _layer_row(label, layer, rows.sum(axis=1, keepdims=True), ["the r-trace"],
                              roots)[0] for label, (layer, rows) in traces.items()}


def _cross_of(traces, roots: list) -> dict[tuple[str, str], int]:
    """(L, S): the column of S on the roots of L, constant there, in sixths (absolute units)."""
    whats = [f"the trace against {other}" for other in traces]
    return {(label, other): value for label, (layer, rows) in traces.items()
            for other, value in zip(traces, _layer_row(label, layer, rows, whats, roots))}


def exact_r_eigenvalues(cd: ChevalleyData, spec: InnerClass) -> dict[str, Fraction]:
    """r-eigenvalue per root layer of an inner class, in units of kappa: the
    row sums of ``layer_traces``, which must agree on every root of a layer
    (else the layer is no eigenbundle: NonRationalEigenvalue).
    """
    return {label: Fraction(r, 12) for label, r in _r_of(layer_traces(cd, spec), cd.roots).items()}


def exact_r_cross_layer(cd: ChevalleyData, spec: InnerClass) -> dict[tuple[str, str], Fraction]:
    """Torsion trace of one layer against another, exact: entry (L, S) is
    4 sum_{v in S-frame} |xi_X v|^2 for X a unit vector of layer L, the column
    of S in ``layer_traces`` on the roots of L, which must be constant there.
    """
    return {pair: Fraction(c, 6) for pair, c in _cross_of(layer_traces(cd, spec), cd.roots).items()}


def exact_ricci_eigenvalues(cd: ChevalleyData, spec: InnerClass) -> dict[str, Fraction]:
    """Ricci eigenvalue per layer of an inner class (kappa units) by the
    layer-trace formula Ric|L = lambda_L/4 + (1/lambda_L) sum_S lambda_S r^S|L
    over the parallel layers; a closed form independent of the curvature trace.
    """
    return _inner_eigenvalues(cd, spec)[1]


def _inner_eigenvalues(cd: ChevalleyData, spec: InnerClass) -> tuple[dict[str, Fraction], dict[str, Fraction]]:
    """(r, Ric) per layer of an inner class from one ``layer_traces`` table; with
    r = R/12 and cross traces C/6, Ric|L = (R_L^2 + 4 sum_S R_S C_LS) / (48 R_L)."""
    traces = layer_traces(cd, spec)
    r, cross = _r_of(traces, cd.roots), _cross_of(traces, cd.roots)
    return ({label: Fraction(v, 12) for label, v in r.items()},
            {label: Fraction(r[label] ** 2 + 4 * sum(r[s] * cross[(label, s)] for s in r),
                             48 * r[label]) for label in r})


# -- report ---------------------------------------------------------------------


@dataclass
class NKReport:
    name: str
    algebra: str
    automorphism: str
    nk_type: str
    dim_m: int
    splitting: dict[str, int]
    r_eigs: list[EigenData]
    ric_eigs: list[EigenData]
    c_eigs: list[EigenData]
    einstein: bool
    einstein_constant: Fraction | None
    mu2: Fraction | None
    lk_ratio: Fraction | None
    lk_label: str | None
    kahler: bool = False
    notes: list[str] = field(default_factory=list)

    def eig_by_layer(self, which: str) -> dict[str, Fraction]:
        data = {"r": self.r_eigs, "ric": self.ric_eigs, "c": self.c_eigs}[which]
        return {e.layer: e.value for e in data}


_LAYER_ORDER = {"V": 0, "H": 1, "V1": 0, "V2": 1, "V3": 2, "m": 0, "E": 0, "JE": 1}


def _sorted_layers(layers: dict[str, list[int]]) -> list[str]:
    return sorted(layers, key=lambda s: (_LAYER_ORDER.get(s, 9), s))


def _report(name: str, algebra: str, automorphism: str, nk_type: str,
            splitting: dict[str, int], lam: dict[str, Fraction], ric: dict[str, Fraction],
            mu2: Fraction | None = None, lk: tuple = (None, None)) -> NKReport:
    """The report of exact layer eigenvalues; C = 5r - 4 Ric per layer."""
    dim_m = sum(splitting.values())
    labels = _sorted_layers(lam)
    dims = {lbl: splitting.get(lbl, dim_m) for lbl in labels}    # "m" off the root layers
    r_eigs = [EigenData(lbl, lam[lbl], dims[lbl]) for lbl in labels]
    ric_eigs = [EigenData(lbl, ric[lbl], dims[lbl]) for lbl in labels]
    c_eigs = [EigenData(lbl, 5 * lam[lbl] - 4 * ric[lbl], dims[lbl]) for lbl in labels]
    einstein = len({e.value for e in r_eigs}) == 1
    constant = ric_eigs[0].value if einstein else None
    return NKReport(name, algebra, automorphism, nk_type, dim_m, splitting, r_eigs,
                    ric_eigs, c_eigs, einstein, constant, mu2, *lk)


def inner_report(cd: ChevalleyData, spec: InnerClass, name: str) -> NKReport:
    """The report of an inner class, from its root split and the algebra's
    ``ChevalleyData`` alone: realizes no space, and takes the type the class
    names (``rootsys.NK_TYPE``) without confirming it."""
    rs = cd.rs
    layer_roots = spec.split(rs)[0]
    splitting = {lbl: 2 * len(layer_roots[lbl]) for lbl in _sorted_layers(layer_roots)}
    nk_type = NK_TYPE[spec.kind]
    if spec.kind == "A3I":
        return NKReport(name, rs.type_label, spec.describe(), nk_type, splitting["m"],
                        splitting, [], [], [], True, None, None, None, None, kahler=True)
    lam, ric = _inner_eigenvalues(cd, spec)
    mu2 = (sum(lam.values()) if spec.kind == "A3II"
           else lam["V"] + 2 * lam["H"] if spec.kind == "A3III" else None)
    return _report(name, rs.type_label, spec.describe(), nk_type, splitting, lam,
                   ric, mu2, lk_ratio(rs, spec, lam))


def constant_report(rs: RootSystem, dual_coxeter: int, automorphism: str,
                    splitting: dict[str, int], name: str) -> NKReport:
    """The report of the d4 triality (B3) or a cyclic triple l + l + l (C3) of
    ``rs``, with no root layers: r = 2h*/3 on all of m (layer "m"), h* the
    dual Coxeter number of ``rs``, and Ric = (5/4) r.  The type is the one
    the class names (``NK_TYPE``), unconfirmed."""
    r = Fraction(2 * dual_coxeter, 3)
    algebra = f"({rs.type_label})^3" if automorphism == "C3" else rs.type_label
    return _report(name, algebra, automorphism, NK_TYPE[automorphism], splitting,
                   {"m": r}, {"m": Fraction(5, 4) * r})


# -- Einstein / twistor ratio ----------------------------------------------------


def einstein_check(report: NKReport) -> tuple[bool, str]:
    """Einstein flag with the dimension-balance certificate behind it."""
    if report.kahler:
        return True, "Kahler symmetric layer; r = 0"
    lam = report.eig_by_layer("r")
    dims = report.splitting
    if report.nk_type == "III":
        cert = (f"dim V1 = {dims['V1']}, dim V2 = {dims['V2']}, dim V3 = {dims['V3']}"
                f" -> Einstein iff all equal")
        flag = dims["V1"] == dims["V2"] == dims["V3"]
    elif report.nk_type == "IV":
        cert = f"2 dim V = {2 * dims['V']}, dim H = {dims['H']} -> Einstein iff equal"
        flag = 2 * dims["V"] == dims["H"]
    else:
        cert = "single r-eigenvalue"
        flag = True
    if flag != (len(set(lam.values())) == 1):
        raise RIdentityMismatch("dimension balance contradicts the eigenvalue test")
    return flag, cert


def lk_ratio(rs: RootSystem, spec: InnerClass, lam: dict[str, Fraction]):
    """Vertical/horizontal eigenvalue ratio l/k for twistor-type splittings.

    Defined for the two-eigenvalue situation: every A3III class, and A3II
    classes whose two horizontal layers share one eigenvalue (the vertical
    layer is the odd one out, or V1 when all three agree).
    """
    if spec.kind == "A3III":
        vertical, horizontal = "V", "H"
    elif spec.kind == "A3II" and len(set(lam.values())) <= 2:
        counts = Counter(lam.values())
        vertical = min(("V1", "V2", "V3"), key=lambda p: counts[lam[p]])
        horizontal = next(p for p in lam if p != vertical)
    else:
        return None, None
    ratio = lam[vertical] / lam[horizontal]
    return ratio, _lk_label(rs, spec, ratio, 2 * len(spec.split(rs)[0][vertical]))


def _lk_label(rs: RootSystem, spec: InnerClass, ratio: Fraction, dim_v: int) -> str:
    """Name per the two-dimensional-fiber classification; generic otherwise."""
    fam = rs.family
    if dim_v != 2:
        return f"l/k = {ratio}"
    if ratio == 1:
        return "Einstein twistor space"
    if fam == "c" and spec.nodes == (1,):
        return f"odd projective space with the symplectic metric, l/k = {ratio}"
    if fam in ("b", "d") and spec.nodes[0] == 2:
        return f"real-Grassmannian twistor space, l/k = {ratio}"
    if fam == "g":
        return f"g2 twistor space, l/k = {ratio}"
    if fam in ("f", "e"):
        return f"exceptional twistor space, l/k = {ratio}"
    if fam == "a":
        return f"flag twistor space over a complex Grassmannian, l/k = {ratio}"
    return f"l/k = {ratio}"


def verify_prop_table_relations(report: NKReport) -> None:
    """Exact eigenvalue relations between r, Ric and C per splitting shape."""
    lam = report.eig_by_layer("r")
    ric = report.eig_by_layer("ric")
    cc = report.eig_by_layer("c")
    if report.nk_type == "IV":
        l, k = lam["V"], lam["H"]
        checks = [
            (ric["V"], (l + 4 * k) / 4), (ric["H"], (2 * l + 3 * k) / 4),
            (cc["V"], 4 * (l - k)), (cc["H"], 2 * (k - l)),
        ]
    elif report.nk_type == "III":
        l, k, m = lam["V1"], lam["V2"], lam["V3"]
        checks = [
            (ric["V1"], (l + 2 * k + 2 * m) / 4),
            (ric["V2"], (2 * l + k + 2 * m) / 4),
            (ric["V3"], (2 * l + 2 * k + m) / 4),
            (cc["V1"], 2 * (2 * l - k - m)),
            (cc["V2"], 2 * (-l + 2 * k - m)),
            (cc["V3"], 2 * (-l - k + 2 * m)),
        ]
    elif report.nk_type in ("I", "II"):
        k = lam["m"]
        checks = [(ric["m"], Fraction(5, 4) * k), (cc["m"], Fraction(0))]
    else:
        return
    for got, want in checks:
        if got != want:
            raise RIdentityMismatch(f"table relation failed: {got} != {want}")
    if report.einstein:
        for e in report.c_eigs:
            if e.value != 0:
                raise RIdentityMismatch("Einstein space with nonzero C")
