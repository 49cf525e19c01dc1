"""The layers the traced run measures, and the per-layer metrics made from them.

Each layer is a public function (or constructor) of one ``nk_triad`` module;
its span name is ``<module>.<function>``.  Several functions can share one
span name: the three realizations are all ``automorph.realize`` and the three
exact-eigenvalue routines are all ``nk_analyzer.exact_eigenvalues``.
"""

from __future__ import annotations

import importlib
import json
from pathlib import Path

from spans import Tracer, summarize

BENCHMARK_JSON = Path(__file__).resolve().parents[1] / "BENCHMARK.json"

# (module, attribute path, span name); resolved only when tracing is installed
WRAPPED = (
    ("rootsys", "build_root_system", "rootsys.build_root_system"),
    ("rootsys", "subsystem_type", "rootsys.subsystem_type"),
    ("chevalley", "ChevalleyData.__init__", "chevalley.ChevalleyData"),
    ("compactform", "CompactAlgebra.__init__", "compactform.CompactAlgebra"),
    ("compactform", "CompactAlgebra.jacobi_max_residual", "compactform.jacobi_max_residual"),
    ("compactform", "CompactAlgebra.trace_form_ratio", "compactform.trace_form_ratio"),
    ("automorph", "realize_inner", "automorph.realize"),
    ("automorph", "realize_triality_d4", "automorph.realize"),
    ("automorph", "realize_cyclic_c3", "automorph.realize"),
    ("automorph", "OrderThreeSymmetricSpace.tensors", "automorph.tensors"),
    ("automorph", "classify_type", "automorph.classify_type"),
    ("automorph", "invariant_halves", "automorph.invariant_halves"),
    ("automorph", "orbit_span_dim", "automorph.orbit_span_dim"),
    ("nk_analyzer", "build_report", "nk_analyzer.build_report"),
    ("nk_analyzer", "exact_r_eigenvalues", "nk_analyzer.exact_eigenvalues"),
    ("nk_analyzer", "exact_r_cross_layer", "nk_analyzer.exact_eigenvalues"),
    ("nk_analyzer", "exact_ricci_eigenvalues", "nk_analyzer.exact_eigenvalues"),
    ("nk_analyzer", "ricci_tensors", "nk_analyzer.ricci_tensors"),
    ("nk_analyzer", "tensor_r", "nk_analyzer.tensor_r"),
    ("nk_analyzer", "verify_structure_identities", "nk_analyzer.verify_structure_identities"),
    ("nk_analyzer", "verify_curvature_identities", "nk_analyzer.verify_curvature_identities"),
    ("nk_analyzer", "verify_min_connection_identity", "nk_analyzer.verify_min_connection_identity"),
    ("nk_analyzer", "verify_sat_identities", "nk_analyzer.verify_sat_identities"),
    ("nk_analyzer", "verify_ricci_oracle", "nk_analyzer.verify_ricci_oracle"),
    ("fibration", "all_fibrations", "fibration.all_fibrations"),
    ("tables", "diff_table", "tables.golden_compare"),
    ("tables", "regenerate_matches_bytes", "tables.golden_compare"),
    ("cli", "main", "cli.main"),
)

_TABLE_PREFIX = "tables.compute_table:"


def per_layer() -> list[dict]:
    """The per_layer metric entries of BENCHMARK.json: name, unit, better."""
    return json.loads(BENCHMARK_JSON.read_text(encoding="utf-8"))["per_layer"]


def install(tracer: Tracer) -> None:
    """Wrap every layer function of the loaded library at all its import sites."""
    for module, path, name in WRAPPED:
        owner = importlib.import_module(f"nk_triad.{module}")
        *classes, attr = path.split(".")
        for cls in classes:
            owner = getattr(owner, cls)
        tracer.install(owner, attr, tracer.wrap(name, getattr(owner, attr)))
    automorph = importlib.import_module("nk_triad.automorph")
    tables = importlib.import_module("nk_triad.tables")
    tracer.install(automorph, "_build_tensors",
                   tracer.count("automorph.tensors.builds", automorph._build_tensors))
    # cli imports the same dict object, so patching its values covers both sites
    for table, fn in list(tables.TABLES.items()):
        tables.TABLES[table] = tracer.count(
            _TABLE_PREFIX + table, tracer.wrap("tables.compute_table", fn))


def span_metrics(tracer: Tracer) -> dict[str, float]:
    """Every per-layer metric that comes from spans and counts (0 if never called)."""
    stats = summarize(tracer.spans)
    out: dict[str, float] = {}
    for name in (entry["name"] for entry in per_layer()):
        span, _, stat = name.rpartition(".")
        if stat in ("self_s", "calls", "rss_growth_mb"):
            out[name] = stats.get(span, {}).get(stat, 0.0 if stat != "calls" else 0)
    spaces = stats.get("automorph.realize", {}).get("calls", 0)
    for span in ("nk_analyzer.ricci_tensors", "nk_analyzer.tensor_r"):
        calls = stats.get(span, {}).get("calls", 0)
        out[f"{span}.calls_per_space"] = calls / spaces if spaces else 0.0
    out["automorph.tensors.builds"] = tracer.counts["automorph.tensors.builds"]
    per_table = [n for n in tracer.counts if n.startswith(_TABLE_PREFIX)]
    calls = sum(tracer.counts[n] for n in per_table)
    out["tables.compute_table.calls_per_table"] = calls / len(per_table) if per_table else 0.0
    return out
