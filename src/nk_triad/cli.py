"""Command-line front end.

    nk-triad classify <family> <rank> [--dedup] [--json]
    nk-triad analyze  <family> <rank> (--nodes I[,J] | --triality | --cyclic)
                      [--json] [--tol F] [--seed N]
    nk-triad table    <AI|AII|AIII|AIV|BC|FIB-AII|FIB-AIII> [--json|--csv]
    nk-triad verify   <all|jacobi|identities|tables|fibrations> [--tol F] [--deep]

Each subcommand takes only the flags it reads, but two: ``verify --deep`` and
``analyze --seed`` are read by nothing, since every scope checks its whole
catalogue and every check is exhaustive; the benchmark's workloads pass them.

``verify`` runs one loop over (scope, subject, check): a check does all the
work for its subject and returns findings or raises ``VerificationFailure``,
and each is one line ``<scope>:<subject>:<finding>`` or
``<scope>:<subject>:<Class>:<message>``, after which the scope goes on.

Exit status: 0 on success; 1 on a failed check or a ``VerificationFailure``;
2 on a ``UsageError`` (golden files are read before any check), a ``--tol``
below ``TOL_FLOOR`` or a ``MemoryError``.
JSON reports carry ``schema_version: 1.x`` and serialize every rational in
kappa units as a {num, den} pair.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import math
import sys
from fractions import Fraction

from . import tables
from .chevalley import verify_square_formula, verify_triangle_identity
from .exact import NKReport
from .fibration import all_fibrations
from .rootsys import (NK_TYPE, TOL_FLOOR, TRIALITY_NAME, InnerClass, InvalidRank, UsageError,
                      VerificationFailure, enumerate_inner_order3)
from .tables import TABLES

SCHEMA_VERSION = "1.0"


def _frac(x):
    return None if x is None else tables.frac_json(Fraction(x))


def _report_json(report: NKReport) -> dict:
    eig = lambda es: [{"layer": e.layer, "value": _frac(e.value), "dim": e.dim}
                      for e in es]
    return {
        "name": report.name,
        "algebra": report.algebra,
        "automorphism": report.automorphism,
        "nk_type": report.nk_type,
        "dim_m": report.dim_m,
        "splitting": report.splitting,
        "r_eigenvalues": eig(report.r_eigs),
        "ric_eigenvalues": eig(report.ric_eigs),
        "c_eigenvalues": eig(report.c_eigs),
        "einstein": report.einstein,
        "einstein_constant": _frac(report.einstein_constant),
        "mu2": _frac(report.mu2),
        "lk_ratio": _frac(report.lk_ratio),
        "lk_label": report.lk_label,
        "kahler": report.kahler,
        "notes": report.notes,
    }


def _fibration_json(rep) -> dict:
    return {
        **tables.fibration_fields(rep),
        "g_v_dim": rep.g_v_dim,
        "gbar_v_dim": rep.gbar_v_dim,
        "involution_h": [[n, tables.frac_json(c)] for n, c in rep.involution_h],
        "note": rep.note,
    }


# -- classify ----------------------------------------------------------------


def cmd_classify(args) -> int:
    rs = tables.cached_root_system(args.family, args.rank)
    entries = []
    for cls in enumerate_inner_order3(rs, dedup=args.dedup):
        entries.append({
            "kind": cls.kind,
            "nodes": list(cls.nodes),
            "h": cls.describe(),
            "nk_type": NK_TYPE[cls.kind] + (" (Kahler)" if cls.kind == "A3I" else ""),
            "space": tables.space_name(args.family, args.rank, cls.kind, cls.nodes),
        })
    if (args.family, args.rank) == ("d", 4):
        entries.append({"kind": "B3", "nodes": [], "h": "diagram rotation",
                        "nk_type": NK_TYPE["B3"], "space": TRIALITY_NAME})
    doc = {"schema_version": SCHEMA_VERSION, "algebra": rs.type_label,
           "marks": list(rs.marks), "classes": entries}
    if args.json:
        print(json.dumps(doc, indent=1, sort_keys=True))
    else:
        print(f"{rs.type_label}: marks {rs.marks}")
        for e in entries:
            print(f"  {e['kind']:<5} nodes {str(e['nodes']):<8} NK type {e['nk_type']:<28}"
                  f" {e['space']}")
    return 0


# -- analyze -----------------------------------------------------------------


def _realize_from_args(args):
    from .automorph import realize_cyclic_c3, realize_triality_d4
    rs = tables.cached_root_system(args.family, args.rank)  # rejects a bad type first
    if args.triality:
        if (args.family, args.rank) != ("d", 4):
            raise InvalidRank(f"--triality needs the algebra d 4, got {args.family} {args.rank}")
        return realize_triality_d4(tables.cached_algebra(args.family, args.rank))
    if args.cyclic:
        return realize_cyclic_c3(tables.cached_algebra(args.family, args.rank))
    try:
        nodes = tuple(int(t) for t in args.nodes.split(","))
    except ValueError:
        raise InvalidRank(f"--nodes expects integers, got {args.nodes!r}")
    spec = InnerClass.of_nodes(rs, nodes)
    return tables.realize(args.family, args.rank, spec.kind, spec.nodes)


def cmd_analyze(args) -> int:
    from .nk_analyzer import verify_space
    space = _realize_from_args(args)
    report, verification = verify_space(space)
    fibs = all_fibrations(space.algebra.rs, space.h_spec) \
        if report.nk_type in ("III", "IV") else []
    over = _over_tol(verification, args.tol)
    doc = {
        "schema_version": SCHEMA_VERSION,
        "space": {"family": args.family, "rank": args.rank,
                  "construction": ("triality" if args.triality else
                                   "cyclic" if args.cyclic else "inner"),
                  "name": space.name},
        "nk_report": _report_json(report),
        "fibrations": [_fibration_json(f) for f in fibs],
        "verification": {"tolerance": args.tol, "pass": not over,
                         "residuals": verification},
    }
    if args.json:
        print(json.dumps(doc, indent=1, sort_keys=True))
    else:
        _print_analysis(doc)
    for finding in over:
        print(f"verification failure: {finding}", file=sys.stderr)
    return 1 if over else 0


def _over_tol(residuals: dict, tol: float) -> list[str]:
    """The residuals above ``tol`` (NaN among them) as one finding, or none."""
    bad = {k: v for k, v in residuals.items() if not v <= tol}
    return [f"residuals over tol {tol}: {bad}"] if bad else []


def _print_analysis(doc: dict) -> None:
    rep = doc["nk_report"]
    print(f"{rep['name']}  [{rep['algebra']}; {rep['automorphism']}]")
    if rep["kahler"]:
        print("  Kahler (Hermitian symmetric); torsion vanishes")
        _print_verification(doc["verification"])
        return
    print(f"  NK type {rep['nk_type']}   dim m = {rep['dim_m']}   "
          f"splitting {rep['splitting']}")

    def fmt(e):
        v = Fraction(e["value"]["num"], e["value"]["den"])
        return f"{e['layer']}: {v} kappa (dim {e['dim']})"

    print("  r   : " + ";  ".join(fmt(e) for e in rep["r_eigenvalues"]))
    print("  Ric : " + ";  ".join(fmt(e) for e in rep["ric_eigenvalues"]))
    print("  C   : " + ";  ".join(fmt(e) for e in rep["c_eigenvalues"]))
    star = "Einstein" if rep["einstein"] else "not Einstein"
    print(f"  {star}" + (f", l/k = {Fraction(rep['lk_ratio']['num'], rep['lk_ratio']['den'])}"
                         if rep["lk_ratio"] else ""))
    for fib in doc["fibrations"]:
        gv = "+".join(f"{f}{r}" for f, r in fib["g_v"])
        gbar = "+".join(f"{f}{r}" for f, r in fib["gbar_v"])
        if fib["gbar_torus"]:
            gbar += f"+T^{fib['gbar_torus']}"
        print(f"  fibration {fib['vertical']}: g_V = {gv}, gbar_V = {gbar}, "
              f"fiber dim {fib['fiber_dim']}, base dim {fib['base_dim']}, "
              f"{'Hermitian' if fib['base_hermitian'] else 'non-Hermitian'} base")
    _print_verification(doc["verification"])


def _print_verification(verification: dict) -> None:
    worst = max(verification["residuals"].values(), default=0.0)
    print(f"  verification: {'pass' if verification['pass'] else 'FAIL'}"
          f" (worst residual {worst:.2e})")


# -- table -------------------------------------------------------------------


_TABLE_NAMES = {"AI": "table_ai", "AII": "table_aii", "AIII": "table_aiii",
                "AIV": "table_aiv", "BC": "table_bc",
                "FIB-AII": "fibrations_aii", "FIB-AIII": "fibrations_aiii"}


def cmd_table(args) -> int:
    name = _TABLE_NAMES[args.which]
    tables.load_golden(name)  # a bad golden file exits 2 before any work
    rows = TABLES[name]()
    if args.json:
        print(tables.dumps_rows(rows), end="")
    elif args.csv:
        _print_csv(rows)
    else:
        _print_rows(rows)
    findings = tables.golden_findings(name, rows)
    if findings:
        print(f"GOLDEN MISMATCH: table {name}: {'; '.join(findings)}", file=sys.stderr)
        return 1
    print(f"# {len(rows)} rows; matches golden data", file=sys.stderr)
    return 0


def _flatten(row: dict) -> dict:
    flat = {}
    for key, val in row.items():
        if isinstance(val, dict) and set(val) == {"num", "den"}:
            flat[key] = str(Fraction(val["num"], val["den"]))
        elif isinstance(val, list) and val and isinstance(val[0], dict) \
                and set(val[0]) == {"num", "den"}:
            flat[key] = ";".join(str(Fraction(v["num"], v["den"])) for v in val)
        elif isinstance(val, list):
            flat[key] = json.dumps(val)
        else:
            flat[key] = val
    return flat


def _print_csv(rows: list[dict]) -> None:
    flat = [_flatten(r) for r in rows]
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=sorted({k for r in flat for k in r}))
    writer.writeheader()
    writer.writerows(flat)
    print(buf.getvalue(), end="")


def _print_rows(rows: list[dict]) -> None:
    flat = [_flatten(r) for r in rows]
    cols = sorted({k for r in flat for k in r})
    widths = {c: max(len(c), *(len(str(r.get(c, ""))) for r in flat)) for c in cols}
    print("  ".join(c.ljust(widths[c]) for c in cols))
    for r in flat:
        print("  ".join(str(r.get(c, "")).ljust(widths[c]) for c in cols))


# -- verify ------------------------------------------------------------------


_JACOBI = [("a", n) for n in range(1, 5)] + [("b", n) for n in (2, 3, 4)] \
    + [("c", n) for n in (2, 3, 4)] + [("d", 4), ("g", 2), ("f", 4)] \
    + [("a", 8), ("b", 8), ("c", 8), ("d", 8), ("e", 6), ("e", 7), ("e", 8)]


def _check_algebra(family: str, rank: int, tol: float) -> list[str]:
    """The exact Chevalley checks of one algebra's N^2 and signs, then Jacobi
    on its bracket, then its trace form, whose ratio to B0 must be 2h*."""
    ca = tables.cached_algebra(family, rank)
    verify_triangle_identity(ca.cd)
    verify_square_formula(ca.cd)
    ca.assert_jacobi(tol)
    ratio = ca.trace_form_ratio()
    return [] if abs(ratio - 2 * ca.dual_coxeter) <= 1e-6 * ratio \
        else [f"trace-form ratio {ratio}, not 2h* = {2 * ca.dual_coxeter}"]


def identity_subjects() -> list[str]:
    """The ``analyze`` arguments of every space the identity suites run over:
    every class of the two-layer and three-layer sweeps, g2 node 1, the
    triality and a1 cyclic."""
    return [f"{f} {r} --nodes {n}" for f, r, n in tables.a3iii_sweep()] \
        + [f"{f} {r} --nodes {i},{j}" for f, r, (i, j) in tables.a3ii_sweep()] \
        + ["g 2 --nodes 1", "d 4 --triality", "a 1 --cyclic"]


def _check_space(subject: str, tol: float) -> list[str]:
    """Every identity suite on the space that ``analyze <subject>`` realizes."""
    from .nk_analyzer import verify_space
    args = build_parser().parse_args(["analyze", *subject.split()])
    _, res = verify_space(_realize_from_args(args))
    return _over_tol(res, tol)


def _golden_pairs(prefix: str) -> list:
    """One check per table whose name starts with ``prefix``; every golden
    file of them is read first, so a bad one exits 2 before any check."""
    names = sorted(name for name in TABLES if name.startswith(prefix))
    for name in names:
        tables.load_golden(name)
    return [(name, lambda name=name: tables.golden_findings(name, TABLES[name]()))
            for name in names]


# scope -> its (subject, check) pairs; a check returns its findings or raises
_SCOPES = {
    "jacobi": lambda tol: [(f"{f}{r}", functools.partial(_check_algebra, f, r, tol))
                           for f, r in _JACOBI],
    "identities": lambda tol: [(s, functools.partial(_check_space, s, tol))
                               for s in identity_subjects()],
    "tables": lambda tol: _golden_pairs("table_"),
    "fibrations": lambda tol: _golden_pairs("fibrations_"),
}


def cmd_verify(args) -> int:
    scopes = list(_SCOPES) if args.scope == "all" else [args.scope]
    plan = {scope: _SCOPES[scope](args.tol) for scope in scopes}   # a bad input exits 2 here
    failures: list[str] = []
    for scope, pairs in plan.items():
        found = []
        for subject, check in pairs:
            try:
                found += [f"{scope}:{subject}:{finding}" for finding in check()]
            except VerificationFailure as exc:
                found.append(f"{scope}:{subject}:{type(exc).__name__}:{exc}")
        print(f"verify {scope}: {'ok' if not found else f'{len(found)} failures'}")
        failures += found
    if failures:
        print(json.dumps({"failures": failures}, indent=1))
        return 1
    return 0


# -- entry -------------------------------------------------------------------


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: ``main`` only reads it."""
    parser = argparse.ArgumentParser(
        prog="nk-triad",
        description="Compact 3-symmetric spaces and their nearly Kahler invariants",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("classify", help="enumerate order-3 automorphism classes")
    p.add_argument("family", choices=list("abcdefg"))
    p.add_argument("rank", type=int)
    p.add_argument("--dedup", action="store_true",
                   help="collapse diagram-symmetric duplicates")
    p.add_argument("--json", action="store_true", help="machine-readable output")
    p.set_defaults(func=cmd_classify, parser=p)

    p = sub.add_parser("analyze", help="full invariant report for one space")
    p.add_argument("family", choices=list("abcdefg"))
    p.add_argument("rank", type=int)
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--nodes", help="defining node(s), e.g. 2 or 1,6")
    group.add_argument("--triality", action="store_true")
    group.add_argument("--cyclic", action="store_true",
                       help="analyze (g+g+g)/diagonal for this algebra")
    p.add_argument("--json", action="store_true", help="machine-readable output")
    p.add_argument("--tol", type=float, default=1e-9)
    p.add_argument("--seed", type=int, default=0,
                   help="unused, since every identity suite is exhaustive; accepted "
                        "only because the benchmark's workloads pass it")
    p.set_defaults(func=cmd_analyze, parser=p)

    p = sub.add_parser("table", help="regenerate a table and diff against golden")
    p.add_argument("which", choices=sorted(_TABLE_NAMES))
    p.add_argument("--json", action="store_true", help="machine-readable output")
    p.add_argument("--csv", action="store_true")
    p.set_defaults(func=cmd_table, parser=p)

    p = sub.add_parser("verify", help="run invariant suites")
    p.add_argument("scope", choices=["all", *_SCOPES])
    p.add_argument("--tol", type=float, default=1e-9)
    p.add_argument("--deep", action="store_true",
                   help="unused, since every scope checks its whole catalogue; "
                        "accepted only because the benchmark's workloads pass it")
    p.set_defaults(func=cmd_verify, parser=p)
    return parser


def main(argv=None) -> int:
    args, extra = build_parser().parse_known_args(argv)
    if extra:                                # refused with the subcommand's own usage
        args.parser.error(f"unrecognized arguments: {' '.join(extra)}")
    if "tol" in args and not TOL_FLOOR <= args.tol < math.inf:   # NaN fails both comparisons
        print(f"error: --tol must be a finite number >= {TOL_FLOOR}, got {args.tol}", file=sys.stderr)
        return 2
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:
        print("error: out of memory" + (f": {exc}" if str(exc) else ""), file=sys.stderr)
        return 2
    except VerificationFailure as exc:
        print(f"verification failure: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
