"""Table generation, golden-data comparison, and verification sweeps.

Five table families are reproducible by computation:

    AI   - Hermitian symmetric quotients (mark-1 nodes)
    AII  - three-layer flag twistor spaces, eigenvalues (l, k, m)
    AIII - two-layer twistor spaces, eigenvalues (l, k)
    AIV  - isotropy-irreducible quotients (mark-3 nodes)
    BC   - the outer (triality) and cyclic constructions

Every table and fibration row is exact: it reads root splits and the cached
``ChevalleyData`` alone, so a table run loads no float module.  Only
``cached_algebra`` and ``realize`` load them, when first called.

Golden rows live as JSON next to the package (``NK_TRIAD_GOLDEN_DIR``
overrides the location).  Rational values are serialized as {num, den}
pairs in units of kappa, never as floats.

The published two-layer table understates (l, k) by a factor 2 on the
so(odd)/so(even) families; the stored golden carries the values consistent
with the trace identities (see ``lk_printed`` on those rows, which preserves
the published numbers).
"""

from __future__ import annotations

import itertools
import json
import os
from fractions import Fraction
from importlib import resources
from pathlib import Path

import numpy as np

from .chevalley import ChevalleyData
from .exact import inner_report
from .fibration import all_fibrations
from .rootsys import (InnerClass, InvalidRank, RootSystem, build_root_system, enumerate_inner_order3,
                      subsystem_type)


class GoldenFileError(ValueError):
    """A golden file is missing, unreadable or not valid golden JSON."""


# -- algebra cache -------------------------------------------------------------


_ROOTSYS: dict[tuple[str, int], RootSystem] = {}
_CHEVALLEY: dict[tuple[str, int], ChevalleyData] = {}
_ALGEBRAS: dict = {}


def cached_root_system(family: str, rank: int) -> RootSystem:
    key = (family, rank)
    if key not in _ROOTSYS:
        _ROOTSYS[key] = build_root_system(family, rank)
    return _ROOTSYS[key]


def cached_chevalley(family: str, rank: int) -> ChevalleyData:
    key = (family, rank)
    if key not in _CHEVALLEY:
        _CHEVALLEY[key] = ChevalleyData(cached_root_system(family, rank))
    return _CHEVALLEY[key]


def cached_algebra(family: str, rank: int):
    """The ``CompactAlgebra`` over ``cached_chevalley``, so a warm algebra
    leaves its structure constants warm for the tables too."""
    key = (family, rank)
    if key not in _ALGEBRAS:
        from .compactform import CompactAlgebra
        _ALGEBRAS[key] = CompactAlgebra(cached_chevalley(family, rank))
    return _ALGEBRAS[key]


# -- naming ---------------------------------------------------------------------


def _su_partition(rank: int, nodes: tuple[int, int]) -> tuple[int, int, int]:
    n = rank + 1
    i, j = nodes
    return i, j - i, n - j


def space_name(family: str, rank: int, kind: str, nodes: tuple[int, ...]) -> str:
    n = rank
    if kind == "A3II":
        if family == "a":
            r1, r2, r3 = _su_partition(rank, nodes)
            return f"SU({rank + 1})/S(U({r1})xU({r2})xU({r3}))"
        if family == "d":
            return f"SO({2 * n})/(U({n - 1})xSO(2))"
        return "E6/(SO(8)xSO(2)xSO(2))"
    if kind == "A3III":
        i = nodes[0]
        if family == "b":
            return f"SO({2 * n + 1})/(U({i})xSO({2 * (n - i) + 1}))"
        if family == "c":
            return f"Sp({n})/(U({i})xSp({n - i}))"
        if family == "d":
            return f"SO({2 * n})/(U({i})xSO({2 * (n - i)}))"
        return {
            ("g", 2): "G2/U(2)",
            ("f", 1): "F4/(Sp(3)xT1)",
            ("f", 4): "F4/(Spin(7)xT1)",
            ("e6", 2): "E6/(SU(6)xT1)",
            ("e6", 3): "E6/(S(U(5)xU(1))xSU(2))",
            ("e6", 5): "E6/(S(U(5)xU(1))xSU(2))",
            ("e7", 1): "E7/(SO(12)xSO(2))",
            ("e7", 2): "E7/S(U(7)xU(1))",
            ("e7", 6): "E7/(SU(2)xSO(10)xSO(2))",
            ("e8", 1): "E8/(SO(14)xSO(2))",
            ("e8", 8): "E8/(E7xSO(2))",
        }[(family if family != "e" else f"e{rank}", i)]
    if kind == "A3I":
        i = nodes[0]
        if family == "a":
            return f"SU({rank + 1})/S(U({i})xU({rank + 1 - i}))"
        if family == "b":
            return f"SO({2 * n + 1})/(SO({2 * n - 1})xSO(2))"
        if family == "c":
            return f"Sp({n})/U({n})"
        if family == "d":
            return f"SO({2 * n})/(SO({2 * n - 2})xSO(2))" if i == 1 else f"SO({2 * n})/U({n})"
        if family == "e" and rank == 6:
            return "E6/(SO(10)xSO(2))"
        return "E7/(E6xT1)"
    # A3IV
    i = nodes[0]
    return {
        ("g", 1): "G2/SU(3)",
        ("f", 2): "F4/(SU(3)xSU(3))",
        ("e6", 4): "E6/(SU(3)xSU(3)xSU(3))",
        ("e7", 3): "E7/(SU(3)xSU(6))",
        ("e7", 5): "E7/(SU(3)xSU(6))",
        ("e8", 2): "E8/SU(9)",
        ("e8", 7): "E8/(SU(3)xE6)",
    }[(family if family != "e" else f"e{rank}", i)]


# -- serialization ----------------------------------------------------------------


def frac_json(x: Fraction) -> dict:
    return {"num": x.numerator, "den": x.denominator}


def dumps_rows(rows: list[dict]) -> str:
    return json.dumps({"schema_version": "1.0", "rows": rows},
                      indent=1, sort_keys=True) + "\n"


def _golden_path(name: str):
    override = os.environ.get("NK_TRIAD_GOLDEN_DIR")
    if override:
        return Path(override) / f"{name}.json"
    return resources.files("nk_triad").joinpath(f"golden/{name}.json")


def golden_text(name: str) -> str:
    path = _golden_path(name)
    try:
        return path.read_text(encoding="utf-8")
    except OSError as exc:
        raise GoldenFileError(f"cannot read golden file {path}: {exc.strerror or exc}") from None


def load_golden(name: str) -> list[dict]:
    text = golden_text(name)
    try:
        return json.loads(text)["rows"]
    except (ValueError, KeyError, TypeError) as exc:
        raise GoldenFileError(f"malformed golden file {_golden_path(name)}: "
                              f"{type(exc).__name__}: {exc}") from None


# -- sweeps -----------------------------------------------------------------------


MAX_SU = 9      # the three-layer sweep covers su(3) .. su(MAX_SU)
MAX_SO = 8      # and so(2n) for n = 4 .. MAX_SO
MAX_RANK = 8    # the two-layer sweep covers b, c, d up to this rank


def a3ii_sweep() -> list[tuple[str, int, tuple[int, int]]]:
    out = []
    for n in range(3, MAX_SU + 1):
        for i, j in itertools.combinations(range(1, n), 2):
            out.append(("a", n - 1, (i, j)))
    for n in range(4, MAX_SO + 1):
        out.append(("d", n, (n - 1, n)))
    out.append(("e", 6, (1, 6)))
    return out


def a3iii_sweep(deep: bool = True) -> list[tuple[str, int, int]]:
    """Every two-layer (A3III) class of the tables, e7 and e8 included, as
    (family, rank, node).  ``deep`` is unused; it stays until
    ``bench/workloads.py`` stops passing it."""
    out = []
    for n in range(3, MAX_RANK + 1):
        out.extend(("b", n, i) for i in range(2, n + 1))
    for n in range(2, MAX_RANK + 1):
        out.extend(("c", n, i) for i in range(1, n))
    for n in range(4, MAX_RANK + 1):
        out.extend(("d", n, i) for i in range(2, n - 1))
    out.append(("g", 2, 2))
    out.extend((("f", 4, 1), ("f", 4, 4)))
    out.extend((("e", 6, 2), ("e", 6, 3), ("e", 7, 1), ("e", 7, 2), ("e", 7, 6)))
    out.extend((("e", 8, 1), ("e", 8, 8)))
    return out


def _inner_class(family: str, rank: int, kind: str, nodes: tuple[int, ...]) -> InnerClass:
    """The inner class of ``nodes``, which must be of kind ``kind``."""
    spec = InnerClass.of_nodes(cached_root_system(family, rank), nodes)
    if spec.kind != kind:
        raise InvalidRank(f"nodes {list(nodes)} of {family}{rank} give {spec.kind}, not {kind}")
    return spec


def realize(family: str, rank: int, kind: str, nodes: tuple[int, ...]):
    """The inner space of ``nodes``, which must give the class ``kind``."""
    from .automorph import realize_inner
    spec = _inner_class(family, rank, kind, nodes)
    return realize_inner(cached_algebra(family, rank), spec,
                         name=space_name(family, rank, kind, spec.nodes))


def _isotropy(rs: RootSystem, spec: InnerClass):
    """(components, torus rank) of k and dim m, from the root split of ``spec``."""
    layer_roots, k_roots = spec.split(rs)
    k = np.zeros(2 * rs.n_positive, dtype=bool)
    k[np.concatenate([k_roots, rs.neg[k_roots]])] = True
    st = subsystem_type(rs, k)
    return ([list(c) for c in st.components], st.torus_rank,
            2 * sum(map(len, layer_roots.values())))


# -- table rows -------------------------------------------------------------------


def _class_report(family: str, rank: int, kind: str, nodes: tuple[int, ...]):
    """(class, report) of the inner class of ``nodes``, from its root split."""
    spec = _inner_class(family, rank, kind, nodes)
    return spec, inner_report(cached_chevalley(family, rank), spec,
                              space_name(family, rank, kind, nodes))


def compute_table_aii() -> list[dict]:
    rows = []
    for family, rank, nodes in a3ii_sweep():
        spec, report = _class_report(family, rank, "A3II", nodes)
        lam = report.eig_by_layer("r")
        comps, torus, _ = _isotropy(cached_root_system(family, rank), spec)
        rows.append({
            "family": family, "rank": rank, "nodes": list(nodes),
            "space": report.name,
            "k_components": comps, "k_torus": torus,
            "lkm": [frac_json(lam[l]) for l in ("V1", "V2", "V3")],
            "dims": [report.splitting[l] for l in ("V1", "V2", "V3")],
            "einstein": report.einstein,
        })
    return rows


def compute_table_aiii() -> list[dict]:
    rows = []
    for family, rank, node in a3iii_sweep():
        spec, report = _class_report(family, rank, "A3III", (node,))
        lam = report.eig_by_layer("r")
        comps, torus, _ = _isotropy(cached_root_system(family, rank), spec)
        printed = None
        if family in ("b", "d"):
            printed = [frac_json(lam["V"] / 2), frac_json(lam["H"] / 2)]
        rows.append({
            "family": family, "rank": rank, "node": node,
            "space": report.name,
            "k_components": comps, "k_torus": torus,
            "lk": [frac_json(lam["V"]), frac_json(lam["H"])],
            "lk_printed": printed,
            "dims": [report.splitting["V"], report.splitting["H"]],
            "einstein": report.einstein,
            "lk_ratio": frac_json(report.lk_ratio),
        })
    return rows


def compute_table_ai() -> list[dict]:
    rows = []
    families = [("a", n) for n in range(1, 9)] + [("b", n) for n in range(2, 9)] \
        + [("c", n) for n in range(3, 9)] + [("d", n) for n in range(4, 9)] \
        + [("e", 6), ("e", 7)]
    for family, rank in families:
        rs = cached_root_system(family, rank)
        for cls in enumerate_inner_order3(rs, dedup=True):
            if cls.kind != "A3I":
                continue
            comps, torus, m_dim = _isotropy(rs, cls)
            rows.append({
                "family": family, "rank": rank, "node": cls.nodes[0],
                "space": space_name(family, rank, "A3I", cls.nodes),
                "k_components": comps, "k_torus": torus, "m_dim": m_dim,
            })
    return rows


def compute_table_aiv() -> list[dict]:
    rows = []
    for family, rank in (("g", 2), ("f", 4), ("e", 6), ("e", 7), ("e", 8)):
        rs = cached_root_system(family, rank)
        seen = set()
        for cls in enumerate_inner_order3(rs):
            if cls.kind != "A3IV":
                continue
            comps, torus, m_dim = _isotropy(rs, cls)
            key = (space_name(family, rank, "A3IV", cls.nodes),
                   json.dumps(comps), torus)
            if key in seen:
                continue
            seen.add(key)
            rows.append({
                "family": family, "rank": rank, "node": cls.nodes[0],
                "space": key[0],
                "k_components": comps, "k_torus": torus, "m_dim": m_dim,
            })
    return rows


def compute_table_bc() -> list[dict]:
    return [
        {"construction": "triality", "space": "Spin(8)/[SU(3)/Z3]",
         "fixed_algebra": [["a", 2]], "m_dim": 20},
        {"construction": "triality", "space": "Spin(8)/G2",
         "fixed_algebra": [["g", 2]], "m_dim": 14},
        {"construction": "cyclic", "space": "(LxLxL)/diagonal L",
         "fixed_algebra": "diagonal copy of l", "m_dim": "2 dim l"},
    ]


# -- fibration rows ----------------------------------------------------------------


_AIII_ITEM = {"b": "i", "c": "ii", "d": "iii", ("g", 2): "iv",
              ("f", 1): "v", ("f", 4): "vi", ("e6", 3): "vii", ("e6", 2): "viii",
              ("e7", 1): "ix", ("e7", 2): "x", ("e7", 6): "xi",
              ("e8", 8): "xii", ("e8", 1): "xiii"}


def _aiii_item(family: str, rank: int, node: int) -> str:
    if family in ("b", "c", "d"):
        return _AIII_ITEM[family]
    key = family if family != "e" else f"e{rank}"
    return _AIII_ITEM[(key, node)]


def fibration_fields(rep) -> dict:
    """The fields every fibration row carries, from one ``FibrationReport``."""
    return {
        "vertical": rep.vertical_label,
        "g_v": [list(c) for c in rep.g_v_type.components],
        "gbar_v": [list(c) for c in rep.gbar_v_type.components],
        "gbar_torus": rep.gbar_v_type.torus_rank,
        "fiber_dim": rep.fiber_dim, "base_dim": rep.base_dim,
        "base_hermitian": rep.base_hermitian,
    }


def compute_fibrations_aiii() -> list[dict]:
    rows = []
    for family, rank, node in a3iii_sweep():
        rs = cached_root_system(family, rank)
        rep = all_fibrations(rs, _inner_class(family, rank, "A3III", (node,)))[0]
        rows.append({
            "family": family, "rank": rank, "node": node,
            "space": space_name(family, rank, "A3III", (node,)),
            "item": _aiii_item(family, rank, node), **fibration_fields(rep),
        })
    return rows


def compute_fibrations_aii() -> list[dict]:
    rows = []
    for family, rank, nodes in a3ii_sweep():
        rs = cached_root_system(family, rank)
        name = space_name(family, rank, "A3II", nodes)
        item = {"a": "i", "d": "ii+iii", "e": "iv"}[family]
        for rep in all_fibrations(rs, _inner_class(family, rank, "A3II", nodes)):
            rows.append({
                "family": family, "rank": rank, "nodes": list(nodes),
                "space": name, "item": item, **fibration_fields(rep),
            })
    return rows


# -- golden comparison ----------------------------------------------------------------


TABLES = {
    "table_aii": compute_table_aii,
    "table_aiii": compute_table_aiii,
    "table_ai": compute_table_ai,
    "table_aiv": compute_table_aiv,
    "table_bc": compute_table_bc,
    "fibrations_aii": compute_fibrations_aii,
    "fibrations_aiii": compute_fibrations_aiii,
}


SERIALIZATION_DRIFT = "serialization drift"


def diff_table(name: str, computed: list[dict]) -> list[str]:
    """Differences between the computed rows and the golden file; empty when
    their serialization matches it byte for byte.  A mismatch is reported as
    its row differences, or as ``SERIALIZATION_DRIFT`` when the row sets agree
    (reordered or duplicated rows, or a change in formatting).
    """
    if regenerate_matches_bytes(name, computed):
        return []
    key = lambda r: json.dumps(r, sort_keys=True)
    gmap = {key(r): r for r in load_golden(name)}
    cmap = {key(r): r for r in computed}
    diffs = []
    for k in gmap:
        if k not in cmap:
            diffs.append(f"missing computed row: {gmap[k].get('space', k)}")
    for k in cmap:
        if k not in gmap:
            diffs.append(f"unexpected computed row: {cmap[k].get('space', k)}")
    return diffs or [SERIALIZATION_DRIFT]


def regenerate_matches_bytes(name: str, computed: list[dict]) -> bool:
    """Byte-level comparison of the rows' serialization against golden."""
    return dumps_rows(computed) == golden_text(name)


# -- Einstein families -----------------------------------------------------------------


def einstein_expected_aii() -> set[str]:
    """Closed-form Einstein list for the three-layer sweep."""
    out = set()
    for a in range(1, MAX_SU // 3 + 1):
        out.add(space_name("a", 3 * a - 1, "A3II", (a, 2 * a)))
    out.add(space_name("d", 4, "A3II", (3, 4)))
    out.add(space_name("e", 6, "A3II", (1, 6)))
    return out


def einstein_expected_aiii() -> set[str]:
    """Closed-form Einstein list for the two-layer sweep.

    The so(even) series is derived from the dimension balance
    2 dim V = dim H, which forces the complement SO(2a); the published
    list prints SO(a) there.
    """
    out = set()
    a = 2
    while 3 * a - 1 <= MAX_RANK:      # so(6a-1): rank n = 3a-1, node 2a
        out.add(space_name("b", 3 * a - 1, "A3III", (2 * a,)))
        a += 1
    a = 1
    while 3 * a - 1 <= MAX_RANK:      # sp(3a-1): node 2a-1
        out.add(space_name("c", 3 * a - 1, "A3III", (2 * a - 1,)))
        a += 1
    a = 2
    while 3 * a + 1 <= MAX_RANK:      # so(6a+2): rank n = 3a+1, node 2a+1
        out.add(space_name("d", 3 * a + 1, "A3III", (2 * a + 1,)))
        a += 1
    return out


def einstein_computed(rows: list[dict]) -> set[str]:
    return {r["space"] for r in rows if r["einstein"]}
