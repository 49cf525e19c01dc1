#!/usr/bin/env python3
"""Write the golden table files from the published closed-form rows.

Every value here is typed in from the published classification rows
(with two documented corrections), NOT computed by the library:
the package's table commands must reproduce these numbers from scratch.

Corrections carried by the golden data:
  * the (l, k) eigenvalue pairs of the so(odd) and so(even) two-layer rows
    are stored at twice the published values; the published numbers only
    satisfy scale-invariant checks and contradict the dim V = 2 closed form
    (the published pair is preserved in ``lk_printed``);
  * for i = 2 the vertical subalgebra V + [V, V] of the so-family rows is
    su(2), not so(4): the V-layer is a single root plane whose self-bracket
    only reaches its own coroot line.
"""

from __future__ import annotations

import os
import sys
from fractions import Fraction

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from nk_triad.tables import (  # noqa: E402  (naming/serialization helpers only)
    _su_partition,
    a3ii_sweep,
    a3iii_sweep,
    dumps_rows,
    frac_json,
    space_name,
)

OUT = os.path.join(os.path.dirname(__file__), "..", "src", "nk_triad", "golden")


def canon(family: str, rank: int) -> list[list]:
    """Canonical component list of one classical factor, [] when empty."""
    if rank <= 0:
        return []
    if rank == 1:
        return [["a", 1]]
    if family == "b" and rank == 2 or family == "c" and rank == 2:
        return [["b", 2]]
    if family == "d" and rank == 2:
        return [["a", 1], ["a", 1]]
    if family == "d" and rank == 3:
        return [["a", 3]]
    return [[family, rank]]


def comps(*parts: list[list]) -> list[list]:
    merged = [c for p in parts for c in p]
    return sorted(merged)


def dim_simple(family: str, rank: int) -> int:
    if family == "e":
        return {6: 78, 7: 133, 8: 248}[rank]
    return {"a": rank * (rank + 2), "b": rank * (2 * rank + 1),
            "c": rank * (2 * rank + 1), "d": rank * (2 * rank - 1),
            "g": 14, "f": 52}[family]


# -- three-layer table (flag twistor spaces) -------------------------------------


def rows_aii() -> list[dict]:
    rows = []
    for family, rank, nodes in a3ii_sweep():
        if family == "a":
            r1, r2, r3 = _su_partition(rank, nodes)
            lkm = (2 * r2, 2 * r3, 2 * r1)
            dims = (2 * r1 * r3, 2 * r1 * r2, 2 * r2 * r3)
            k_comps = comps(canon("a", r1 - 1), canon("a", r2 - 1), canon("a", r3 - 1))
            torus = 2
            einstein = r1 == r2 == r3
        elif family == "d":
            n = rank
            lkm = (4, 2 * (n - 2), 2 * (n - 2))
            dims = ((n - 1) * (n - 2), 2 * (n - 1), 2 * (n - 1))
            k_comps = comps(canon("a", n - 2))
            torus = 2
            einstein = n == 4
        else:
            lkm, dims = (8, 8, 8), (16, 16, 16)
            k_comps = comps(canon("d", 4))
            torus = 2
            einstein = True
        rows.append({
            "family": family, "rank": rank, "nodes": list(nodes),
            "space": space_name(family, rank, "A3II", nodes),
            "k_components": k_comps, "k_torus": torus,
            "lkm": [frac_json(Fraction(v)) for v in lkm],
            "dims": list(dims),
            "einstein": einstein,
        })
    return rows


# -- two-layer table (twistor spaces over symmetric bases) ------------------------

AIII_EXCEPTIONAL = {
    ("g", 2, 2): ((4, 2), (2, 8), [["a", 1]], 1),
    ("f", 4, 1): ((14, 2), (2, 28), [["c", 3]], 1),
    ("f", 4, 4): ((4, 7), (14, 16), [["b", 3]], 1),
    ("e", 6, 2): ((20, 2), (2, 40), [["a", 5]], 1),
    ("e", 6, 3): ((12, 6), (10, 40), [["a", 1], ["a", 4]], 1),
    ("e", 7, 1): ((32, 2), (2, 64), [["d", 6]], 1),
    ("e", 7, 2): ((20, 8), (14, 70), [["a", 6]], 1),
    ("e", 7, 6): ((16, 10), (20, 64), [["a", 1], ["d", 5]], 1),
    ("e", 8, 1): ((32, 14), (28, 128), [["d", 7]], 1),
    ("e", 8, 8): ((56, 2), (2, 112), [["e", 7]], 1),
}


def rows_aiii() -> list[dict]:
    rows = []
    for family, rank, node in a3iii_sweep():
        n, i = rank, node
        printed = None
        if family == "b":
            lk = (2 * (2 * (n - i) + 1), 2 * (i - 1))
            printed = (2 * (n - i) + 1, i - 1)
            dims = (i * (i - 1), 2 * i * (2 * (n - i) + 1))
            k_comps = comps(canon("a", i - 1), canon("b", n - i))
        elif family == "c":
            lk = (2 * (n - i), i + 1)
            dims = (i * (i + 1), 4 * i * (n - i))
            k_comps = comps(canon("a", i - 1), canon("c", n - i))
        elif family == "d":
            lk = (4 * (n - i), 2 * (i - 1))
            printed = (2 * (n - i), i - 1)
            dims = (i * (i - 1), 4 * i * (n - i))
            k_comps = comps(canon("a", i - 1), canon("d", n - i))
        else:
            lk, dims, k_comps, _ = AIII_EXCEPTIONAL[(family, rank, node)]
        einstein = 2 * dims[0] == dims[1]
        rows.append({
            "family": family, "rank": rank, "node": node,
            "space": space_name(family, rank, "A3III", (node,)),
            "k_components": k_comps, "k_torus": 1,
            "lk": [frac_json(Fraction(v)) for v in lk],
            "lk_printed": None if printed is None
            else [frac_json(Fraction(v)) for v in printed],
            "dims": list(dims),
            "einstein": einstein,
            "lk_ratio": frac_json(Fraction(lk[0], lk[1])),
        })
    return rows


# -- Hermitian symmetric and isotropy-irreducible tables ---------------------------


def rows_ai() -> list[dict]:
    rows = []
    for rank in range(1, 9):                      # su(rank+1)
        for i in range(1, (rank + 1) // 2 + 1):
            rows.append({
                "family": "a", "rank": rank, "node": i,
                "space": space_name("a", rank, "A3I", (i,)),
                "k_components": comps(canon("a", i - 1), canon("a", rank - i)),
                "k_torus": 1,
                "m_dim": 2 * i * (rank + 1 - i),
            })
    for n in range(2, 9):                         # so(2n+1), node 1
        rows.append({
            "family": "b", "rank": n, "node": 1,
            "space": space_name("b", n, "A3I", (1,)),
            "k_components": comps(canon("b", n - 1)), "k_torus": 1,
            "m_dim": 4 * n - 2,
        })
    for n in range(3, 9):                         # sp(n), node n
        rows.append({
            "family": "c", "rank": n, "node": n,
            "space": space_name("c", n, "A3I", (n,)),
            "k_components": comps(canon("a", n - 1)), "k_torus": 1,
            "m_dim": n * (n + 1),
        })
    for n in range(4, 9):                         # so(2n), nodes 1 and n-1
        rows.append({
            "family": "d", "rank": n, "node": 1,
            "space": space_name("d", n, "A3I", (1,)),
            "k_components": comps(canon("d", n - 1)), "k_torus": 1,
            "m_dim": 4 * (n - 1),
        })
        if n > 4:  # for n = 4 the diagram rotation merges all three end nodes
            rows.append({
                "family": "d", "rank": n, "node": n - 1,
                "space": space_name("d", n, "A3I", (n - 1,)),
                "k_components": comps(canon("a", n - 1)), "k_torus": 1,
                "m_dim": n * (n - 1),
            })
    rows.append({
        "family": "e", "rank": 6, "node": 1, "space": "E6/(SO(10)xSO(2))",
        "k_components": comps(canon("d", 5)), "k_torus": 1, "m_dim": 32,
    })
    rows.append({
        "family": "e", "rank": 7, "node": 7, "space": "E7/(E6xT1)",
        "k_components": [["e", 6]], "k_torus": 1, "m_dim": 54,
    })
    rows.sort(key=lambda r: (r["family"], r["rank"], r["node"]))
    return rows


def rows_aiv() -> list[dict]:
    data = [
        ("g", 2, 1, [["a", 2]], 6),
        ("f", 4, 2, [["a", 2], ["a", 2]], 36),
        ("e", 6, 4, [["a", 2], ["a", 2], ["a", 2]], 54),
        ("e", 7, 3, [["a", 2], ["a", 5]], 90),
        ("e", 8, 2, [["a", 8]], 168),
        ("e", 8, 7, [["a", 2], ["e", 6]], 162),
    ]
    return [{
        "family": f, "rank": r, "node": n,
        "space": space_name(f, r, "A3IV", (n,)),
        "k_components": sorted(k), "k_torus": 0, "m_dim": m,
    } for f, r, n, k, m in data]


def rows_bc() -> list[dict]:
    return [
        {"construction": "triality", "space": "Spin(8)/[SU(3)/Z3]",
         "fixed_algebra": [["a", 2]], "m_dim": 20},
        {"construction": "triality", "space": "Spin(8)/G2",
         "fixed_algebra": [["g", 2]], "m_dim": 14},
        {"construction": "cyclic", "space": "(LxLxL)/diagonal L",
         "fixed_algebra": "diagonal copy of l", "m_dim": "2 dim l"},
    ]


# -- canonical fibrations ------------------------------------------------------------


def _aiii_fib(family, rank, node):
    n, i = rank, node
    if family == "b":
        g_v = canon("d", i) if i >= 3 else [["a", 1]]
        gbar = comps(canon("d", i), canon("b", n - i))
        fiber = i * (i - 1)
        base = dim_simple("b", n) - (i * (2 * i - 1) + (n - i) * (2 * (n - i) + 1))
    elif family == "c":
        g_v = canon("c", i)
        gbar = comps(canon("c", i), canon("c", n - i))
        fiber = i * (i + 1)
        base = dim_simple("c", n) - (i * (2 * i + 1) + (n - i) * (2 * (n - i) + 1))
    elif family == "d":
        g_v = canon("d", i) if i >= 3 else [["a", 1]]
        gbar = comps(canon("d", i), canon("d", n - i))
        fiber = i * (i - 1)
        base = dim_simple("d", n) - (i * (2 * i - 1) + (n - i) * (2 * (n - i) - 1))
    else:
        table = {
            ("g", 2, 2): ([["a", 1]], [["a", 1], ["a", 1]], 2, 8),
            ("f", 4, 1): ([["a", 1]], [["a", 1], ["c", 3]], 2, 28),
            ("f", 4, 4): ([["b", 4]], [["b", 4]], 14, 16),
            ("e", 6, 3): ([["a", 5]], [["a", 1], ["a", 5]], 10, 40),
            ("e", 6, 2): ([["a", 1]], [["a", 1], ["a", 5]], 2, 40),
            ("e", 7, 1): ([["a", 1]], [["a", 1], ["d", 6]], 2, 64),
            ("e", 7, 2): ([["a", 7]], [["a", 7]], 14, 70),
            ("e", 7, 6): ([["d", 6]], [["a", 1], ["d", 6]], 20, 64),
            ("e", 8, 8): ([["a", 1]], [["a", 1], ["e", 7]], 2, 112),
            ("e", 8, 1): ([["d", 8]], [["d", 8]], 28, 128),
        }
        g_v, gbar, fiber, base = table[(family, rank, node)]
    return sorted(g_v), gbar, fiber, base


def rows_fib_aiii() -> list[dict]:
    item_map = {"b": "i", "c": "ii", "d": "iii",
                ("g", 2, 2): "iv", ("f", 4, 1): "v", ("f", 4, 4): "vi",
                ("e", 6, 3): "vii", ("e", 6, 2): "viii", ("e", 7, 1): "ix",
                ("e", 7, 2): "x", ("e", 7, 6): "xi", ("e", 8, 8): "xii",
                ("e", 8, 1): "xiii"}
    rows = []
    for family, rank, node in a3iii_sweep():
        g_v, gbar, fiber, base = _aiii_fib(family, rank, node)
        rows.append({
            "family": family, "rank": rank, "node": node,
            "space": space_name(family, rank, "A3III", (node,)),
            "item": item_map.get(family) or item_map[(family, rank, node)],
            "vertical": "V",
            "g_v": g_v, "gbar_v": gbar, "gbar_torus": 0,
            "fiber_dim": fiber, "base_dim": base,
            "base_hermitian": False,
        })
    return rows


def rows_fib_aii() -> list[dict]:
    rows = []
    for family, rank, nodes in a3ii_sweep():
        name = space_name(family, rank, "A3II", nodes)
        if family == "a":
            n = rank + 1
            r1, r2, r3 = _su_partition(rank, nodes)
            per = [
                ("V1", canon("a", r1 + r3 - 1), comps(canon("a", r2 - 1), canon("a", r1 + r3 - 1)),
                 2 * r1 * r3, 2 * r2 * (n - r2)),
                ("V2", canon("a", r1 + r2 - 1), comps(canon("a", r3 - 1), canon("a", r1 + r2 - 1)),
                 2 * r1 * r2, 2 * r3 * (n - r3)),
                ("V3", canon("a", r2 + r3 - 1), comps(canon("a", r1 - 1), canon("a", r2 + r3 - 1)),
                 2 * r2 * r3, 2 * r1 * (n - r1)),
            ]
            item = "i"
        elif family == "d":
            n = rank
            per = [
                ("V1", canon("d", n - 1), canon("d", n - 1), (n - 1) * (n - 2), 4 * (n - 1)),
                ("V2", canon("a", n - 1), canon("a", n - 1), 2 * (n - 1), n * (n - 1)),
                ("V3", canon("a", n - 1), canon("a", n - 1), 2 * (n - 1), n * (n - 1)),
            ]
            item = "ii+iii"
        else:
            per = [(v, canon("d", 5), canon("d", 5), 16, 32) for v in ("V1", "V2", "V3")]
            item = "iv"
        for vertical, g_v, gbar, fiber, base in per:
            rows.append({
                "family": family, "rank": rank, "nodes": list(nodes),
                "space": name, "item": item,
                "vertical": vertical,
                "g_v": sorted(g_v), "gbar_v": sorted(gbar), "gbar_torus": 1,
                "fiber_dim": fiber, "base_dim": base,
                "base_hermitian": True,
            })
    return rows


def main() -> None:
    os.makedirs(OUT, exist_ok=True)
    files = {
        "table_aii": rows_aii(),
        "table_aiii": rows_aiii(),
        "table_ai": rows_ai(),
        "table_aiv": rows_aiv(),
        "table_bc": rows_bc(),
        "fibrations_aii": rows_fib_aii(),
        "fibrations_aiii": rows_fib_aiii(),
    }
    for name, rows in files.items():
        path = os.path.join(OUT, f"{name}.json")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(dumps_rows(rows))
        print(f"wrote {path} ({len(rows)} rows)")


if __name__ == "__main__":
    main()
