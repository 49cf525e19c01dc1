"""The three benchmark workloads: the seeded item lists and the per-item checks.

A workload is a plan -- the algebras set-up pre-builds and the items the timed
phase runs -- drawn from the seed.  Every item goes through the library's
public entry points and is checked; a failed check is recorded and the run
goes on.  The seed only selects among candidates of equal dim m, equal
method and equal cost (identity-sweep, analyze-irreducible, whose items then
run in stratum order, since the order moves the peak RSS) or orders the items
(tables-golden), and it is passed on as the sampling seed of the identity
suites, so different seeds do about the same amount of work.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
import traceback
from pathlib import Path

from nk_triad import cli, nk_analyzer, tables
from nk_triad.compactform import DUAL_COXETER

TOL = 1e-9
REFERENCE_DIR = Path(__file__).resolve().parent / "reference" / "analyze"

# identity-sweep strata: one candidate is drawn from each.  Candidates of a
# stratum share the algebra and dim m: a6 nodes 2,3 and 4,5 are mirror images
# under the A_n diagram flip, the a8 candidates permute the same block sizes
# 2, 3, 4, and e7 nodes 2 and 6 are both sampled at dm 84.
# Together they sit on both sides of dim m = 64 and of the 200 000-tuple
# min-connection cutoff; e8 is left out because its Jacobi sweep alone takes
# longer than a whole run.
IDENTITY_STRATA = (
    [("A3II", "a", 6, n) for n in ((2, 3), (4, 5))],      # dm 28, 86016 tuples
    [("A3II", "a", 8, n) for n in ((2, 5), (4, 7), (2, 6), (3, 7), (3, 5), (4, 6))],  # dm 52, sampled
    [("A3III", "b", 5, (4,))],                            # dm 36, 124416 tuples
    [("A3III", "e", 7, (1,))],                            # dm 66, exhaustive min-connection
    [("A3III", "e", 7, (2,)), ("A3III", "e", 7, (6,))],   # dm 84, sampled
)

# analyze-irreducible strata: the A3IV classes of the AIV table (e7 nodes 3
# and 5 give the same space), the d4 triality, cyclic triples of small
# components, and f4 cyclic on the dm > 64 side.  e6 node 4 (about 18 s,
# nearly all in invariant_halves), a4 cyclic (about 10 s), c3 cyclic (about
# 4 s) and e8 node 7 (about 5 s; e8 node 2 takes the same path at dm 168
# against 162) are left out so that a run fits its share of the time budget,
# and so is b3 cyclic: it shares dm 42 with c3 cyclic but takes 30% longer, so
# drawing between the two made the seed move the run time by 7%.  f4 node 2
# still puts invariant_halves at dm 36 in every draw.
ANALYZE_STRATA = (
    [("g", 2, "--nodes", "1")],
    [("f", 4, "--nodes", "2")],
    [("e", 7, "--nodes", "3"), ("e", 7, "--nodes", "5")],
    [("e", 8, "--nodes", "2")],
    [("d", 4, "--triality")],
    [("a", 1, "--cyclic")],
    [("a", 2, "--cyclic")],
    [("b", 2, "--cyclic")],
    [("a", 3, "--cyclic")],
    [("g", 2, "--cyclic")],
    [("f", 4, "--cyclic")],                         # dm 104
)


def quiet_cli(argv: list[str]) -> tuple[int, str]:
    """Run the CLI in-process; return its exit code and what it printed."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = cli.main(argv)
    return rc, buf.getvalue()


# -- tables-golden ---------------------------------------------------------------


def plan_tables_golden(rng: random.Random):
    algebras = sorted({(f, r) for f, r, _ in tables.a3ii_sweep()}
                      | {(f, r) for f, r, _ in tables.a3iii_sweep(deep=True)})
    rng.shuffle(algebras)
    items = [("verify", "tables"), ("verify", "fibrations")]
    rng.shuffle(items)
    return algebras, items


def run_verify(item) -> list[str]:
    _, scope = item
    rc, text = quiet_cli(["verify", scope, "--deep"])
    return [] if rc == 0 else [f"exit {rc}: {text[-500:]}"]


# -- identity-sweep --------------------------------------------------------------


def plan_identity_sweep(rng: random.Random):
    catalogue = {("A3II", f, r, n) for f, r, n in tables.a3ii_sweep()}
    catalogue |= {("A3III", f, r, (n,)) for f, r, n in tables.a3iii_sweep(deep=True)}
    spaces = [rng.choice(stratum) for stratum in IDENTITY_STRATA]
    missing = [s for s in spaces if s not in catalogue]
    if missing:
        raise ValueError(f"identity strata name spaces outside the catalogue: {missing}")
    algebras = list(dict.fromkeys((f, r) for _, f, r, _ in spaces))
    items = [("algebra", f, r) for f, r in algebras] + [("space",) + s for s in spaces]
    return algebras, items


def run_identity(item, seed: int) -> list[str]:
    if item[0] == "algebra":
        _, family, rank = item
        ca = tables.cached_algebra(family, rank)
        failures = []
        res = ca.jacobi_max_residual()
        if not res <= TOL:
            failures.append(f"jacobi residual {res:.3e}")
        ratio = ca.trace_form_ratio()
        want = 2 * DUAL_COXETER[family](rank)
        if not abs(ratio - want) <= 1e-6 * want:
            failures.append(f"trace-form ratio {ratio} != {want}")
        return failures
    _, kind, family, rank, nodes = item
    space = tables.realize(family, rank, kind, nodes)
    res = {}
    res.update(nk_analyzer.verify_structure_identities(space, tol=TOL))
    res.update(nk_analyzer.verify_curvature_identities(space, tol=TOL, seed=seed))
    res["ricci_oracle"] = nk_analyzer.verify_ricci_oracle(space, tol=TOL)
    res["min_connection"] = nk_analyzer.verify_min_connection_identity(space, tol=TOL, seed=seed)
    res.update(nk_analyzer.verify_sat_identities(space, tol=TOL, seed=seed))
    report = nk_analyzer.build_report(space)
    nk_analyzer.verify_prop_table_relations(report)
    nk_analyzer.einstein_check(report)
    return [f"{k} residual {v:.3e}" for k, v in res.items() if not v <= TOL]


# -- analyze-irreducible -----------------------------------------------------------


def plan_analyze(rng: random.Random):
    items = [rng.choice(stratum) for stratum in ANALYZE_STRATA]
    algebras = list(dict.fromkeys((f, r) for f, r, *_ in items))
    return algebras, [("analyze",) + it for it in items]


def reference_name(item) -> str:
    _, family, rank, *flags = item
    return f"{family}{rank}" + "".join(f.replace("--", "-") for f in flags) + ".json"


def analyze_sections(doc: dict) -> str:
    """The compared part of an analyze report, serialized canonically."""
    return json.dumps({"nk_report": doc["nk_report"], "fibrations": doc["fibrations"]},
                      indent=1, sort_keys=True) + "\n"


def analyze_argv(item, seed: int) -> list[str]:
    _, family, rank, *flags = item
    return ["analyze", family, str(rank), *flags, "--json", "--seed", str(seed)]


def run_analyze(item, seed: int) -> list[str]:
    rc, text = quiet_cli(analyze_argv(item, seed))
    if rc != 0:
        return [f"exit {rc}: {text[-500:]}"]
    doc = json.loads(text)
    failures = []
    if doc["verification"]["pass"] is not True:
        failures.append(f"verification failed: {doc['verification']['residuals']}")
    ref_dir = Path(os.environ.get("NK_BENCH_REFERENCE_DIR", REFERENCE_DIR))
    expected = (ref_dir / reference_name(item)).read_text(encoding="utf-8")
    if analyze_sections(doc) != expected:
        failures.append(f"report differs from reference {reference_name(item)}")
    return failures


# -- dispatch ----------------------------------------------------------------------


PLANS = {
    "tables-golden": plan_tables_golden,
    "identity-sweep": plan_identity_sweep,
    "analyze-irreducible": plan_analyze,
}


def plan(workload: str, seed: int):
    return PLANS[workload](random.Random(seed))


def run_item(workload: str, item, seed: int) -> list[str]:
    """Failures of one item; an exception counts as a failure, never aborts the run."""
    try:
        if workload == "tables-golden":
            return run_verify(item)
        if workload == "identity-sweep":
            return run_identity(item, seed)
        return run_analyze(item, seed)
    except Exception:  # noqa: BLE001 - every failure is counted, the run goes on
        return [traceback.format_exc(limit=-3)[-1500:]]


def item_label(item) -> str:
    return " ".join(str(x) if not isinstance(x, tuple) else ",".join(map(str, x))
                    for x in item)
