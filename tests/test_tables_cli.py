"""Table regeneration against golden data, and the command-line surface."""

import ast
import importlib.util
import json
import os
import pkgutil
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import nk_triad
from nk_triad import cli, tables
from nk_triad.cli import main
from nk_triad.chevalley import ChevalleyData
from nk_triad.compactform import CompactAlgebra
from nk_triad.rootsys import UsageError, VerificationFailure, build_root_system


def _scope_tables(scope: str) -> list[str]:
    """The tables a golden scope of ``verify`` checks: those whose name in
    ``tables.TABLES`` carries the scope's prefix."""
    prefix = {"tables": "table_", "fibrations": "fibrations_"}[scope]
    return [name for name in tables.TABLES if name.startswith(prefix)]


def test_tables_match_golden_fast():
    for name in ("table_ai", "table_aiv", "table_bc", "table_aii"):
        assert tables.diff_table(name, tables.TABLES[name]()) == []


def test_table_aiii_matches_golden():
    assert tables.diff_table("table_aiii", tables.compute_table_aiii()) == []


def test_byte_identical_regeneration():
    assert tables.regenerate_matches_bytes("table_aii", tables.compute_table_aii())
    assert tables.regenerate_matches_bytes("table_ai", tables.compute_table_ai())
    assert tables.regenerate_matches_bytes("table_aiv", tables.compute_table_aiv())
    assert tables.regenerate_matches_bytes("table_bc", tables.compute_table_bc())


def test_generate_golden_writes_the_golden_files(tmp_path, monkeypatch, capsys):
    """tools/generate_golden.py, pointed at an empty directory, writes all 7
    golden files byte for byte as the package holds them."""
    path = Path(__file__).resolve().parents[1] / "tools" / "generate_golden.py"
    spec = importlib.util.spec_from_file_location("generate_golden", path)
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setattr(sys, "path", list(sys.path))     # the script prepends src/
    spec.loader.exec_module(module)
    monkeypatch.setattr(module, "OUT", str(tmp_path))
    module.main()
    golden = Path(tables.__file__).with_name("golden")
    written = sorted(p.name for p in tmp_path.iterdir())
    assert written == sorted(p.name for p in golden.glob("*.json")) and len(written) == 7
    for name in written:
        assert (tmp_path / name).read_bytes() == (golden / name).read_bytes(), name


def test_printed_lk_deviation_is_the_factor_two():
    rows = tables.load_golden("table_aiii")
    for row in rows:
        printed = row["lk_printed"]
        if row["family"] in ("b", "d"):
            assert printed is not None
            for got, pub in zip(row["lk"], printed):
                assert Fraction(got["num"], got["den"]) == \
                    2 * Fraction(pub["num"], pub["den"])
        else:
            assert printed is None


def test_einstein_lists_match_published_families():
    aii = tables.compute_table_aii()
    assert tables.einstein_computed(aii) == tables.einstein_expected_aii()
    aiii = tables.compute_table_aiii()
    assert tables.einstein_computed(aiii) == tables.einstein_expected_aiii()


def test_golden_dir_override(tmp_path, monkeypatch):
    src = tables.golden_text("table_bc")
    (tmp_path / "table_bc.json").write_text(src, encoding="utf-8")
    monkeypatch.setenv("NK_TRIAD_GOLDEN_DIR", str(tmp_path))
    assert tables.diff_table("table_bc", tables.compute_table_bc()) == []
    broken = json.loads(src)
    broken["rows"][0]["m_dim"] = 99
    (tmp_path / "table_bc.json").write_text(json.dumps(broken), encoding="utf-8")
    assert tables.diff_table("table_bc", tables.compute_table_bc()) != []


def test_space_names():
    assert tables.space_name("a", 5, "A3II", (2, 4)) == "SU(6)/S(U(2)xU(2)xU(2))"
    assert tables.space_name("b", 4, "A3III", (2,)) == "SO(9)/(U(2)xSO(5))"
    assert tables.space_name("c", 2, "A3III", (1,)) == "Sp(2)/(U(1)xSp(1))"
    assert tables.space_name("e", 8, "A3III", (8,)) == "E8/(E7xSO(2))"
    assert tables.space_name("g", 2, "A3IV", (1,)) == "G2/SU(3)"


# -- CLI ------------------------------------------------------------------------


def test_cli_classify(capsys):
    assert main(["classify", "g", "2"]) == 0
    out = capsys.readouterr().out
    assert "A3III" in out and "A3IV" in out and "G2/U(2)" in out


def test_cli_classify_json(capsys):
    assert main(["classify", "a", "1", "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["schema_version"].startswith("1.")
    assert [c["kind"] for c in doc["classes"]] == ["A3I"]


def test_cli_classify_dedup(capsys):
    assert main(["classify", "e", "6"]) == 0
    raw = capsys.readouterr().out
    assert raw.count("A3III") == 3          # nodes 2, 3, 5
    assert main(["classify", "e", "6", "--dedup"]) == 0
    out = capsys.readouterr().out
    assert out.count("A3III") == 2          # 3 ~ 5 merge under the flip
    assert out.count("A3I ") == 1


def test_cli_analyze_json_roundtrip(capsys):
    assert main(["analyze", "g", "2", "--nodes", "2", "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    rep = doc["nk_report"]
    assert rep["nk_type"] == "IV"
    assert rep["r_eigenvalues"][0]["value"] == {"num": 4, "den": 1}
    assert all(isinstance(e["value"]["num"], int)
               for e in rep["ric_eigenvalues"])
    assert doc["verification"]["pass"] is True
    assert doc["fibrations"][0]["g_v"] == [["a", 1]]
    # serialization carries no floats for the rational payloads
    assert '"value": {' in json.dumps(rep)


@pytest.mark.parametrize("family,rank,pair,name", [
    ("a", 3, (1, 2), "SU(4)/S(U(1)xU(1)xU(2))"),
    ("a", 3, (1, 3), "SU(4)/S(U(1)xU(2)xU(1))"),
    ("d", 4, (3, 4), "SO(8)/(U(3)xSO(2))"),
])
def test_cli_analyze_node_pair_order_is_inert(family, rank, pair, name, capsys):
    """A node pair names one class whatever the order it is typed in: the
    same space name, layers V2/V3 and fibrations."""
    docs = []
    for nodes in (pair, pair[::-1]):
        argv = ["analyze", family, str(rank), "--nodes", ",".join(map(str, nodes)), "--json"]
        assert main(argv) == 0
        docs.append(json.loads(capsys.readouterr().out))
    for key in ("nk_report", "fibrations"):
        assert docs[0][key] == docs[1][key]
    assert docs[0]["space"]["name"] == docs[1]["space"]["name"] == name


def test_cli_seed_is_inert(capsys):
    """analyze --seed is accepted and changes nothing: every check is exhaustive."""
    outs = []
    for seed in ("0", "9"):
        assert main(["analyze", "g", "2", "--nodes", "2", "--json", "--seed", seed]) == 0
        outs.append(capsys.readouterr().out)
    assert outs[0] == outs[1]


@pytest.mark.parametrize("command,flag", [
    ("classify g 2", "--tol 5"), ("classify g 2", "--seed 3"), ("classify g 2", "--deep"),
    ("analyze g 2 --nodes 1", "--deep"),
    ("table BC", "--tol 0"), ("table BC", "--seed 9"), ("table BC", "--deep"),
    ("verify tables", "--json"), ("verify tables", "--seed 4"),
])
def test_cli_flag_the_subcommand_does_not_read_exits_2(command, flag, capsys):
    """A flag that its subcommand does not read is a usage error: exit 2,
    with that subcommand's usage and the flag on stderr, and nothing run."""
    with pytest.raises(SystemExit) as exc:
        main(command.split() + flag.split())
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"usage: nk-triad {command.split()[0]} ")
    assert captured.err.endswith(f"error: unrecognized arguments: {flag}\n")


def test_cli_analyze_check_failure_exit_1(monkeypatch, capsys):
    """Float residuals over tol end with exit 1 after the whole report: g2
    with one bracket entry doubled in both orders prints its JSON report with
    ``pass: false``, and one stderr line names every residual over tol, with
    the values of the printed report."""
    ca = CompactAlgebra(ChevalleyData(build_root_system("g", 2)))
    d, c = ca.dim, ca.C.tolil()
    i, j, l = 2, 10, 12
    assert c[i * d + j, l] != 0
    c[i * d + j, l] *= 2
    c[j * d + i, l] *= 2
    ca.C = c.tocsr()
    monkeypatch.setattr(tables, "cached_algebra", lambda family, rank: ca)
    assert main(["analyze", "g", "2", "--nodes", "2", "--json"]) == 1
    captured = capsys.readouterr()
    verification = json.loads(captured.out)["verification"]
    assert verification["pass"] is False and verification["tolerance"] == 1e-9
    head = "verification failure: residuals over tol 1e-09: "
    assert captured.err.startswith(head) and captured.err.endswith("}\n")
    assert captured.err.count("\n") == 1
    named = ast.literal_eval(captured.err[len(head):])
    assert named == {k: v for k, v in verification["residuals"].items() if not v <= 1e-9}
    assert {"r_identity", "ricci_oracle", "trace_identity_vertical_frame",
            "trace_identity_horizontal_frame"} <= set(named)


def test_cli_out_of_memory_exits_2_with_one_line(monkeypatch, capsys):
    """A MemoryError inside a command ends with exit 2 and one stderr line,
    not a traceback; nothing large is allocated."""
    def no_memory(args):
        raise MemoryError("Unable to allocate 625. MiB for an array with shape (1023840, 80)")

    monkeypatch.setattr(cli, "_realize_from_args", no_memory)
    assert main(["analyze", "a", "80", "--nodes", "1"]) == 2
    captured = capsys.readouterr()
    assert captured.err == ("error: out of memory: Unable to allocate 625. MiB for an array "
                            "with shape (1023840, 80)\n")
    assert captured.out == ""


def test_cli_absurd_rank_exits_2_before_allocating():
    """``analyze a 99999999999999999999`` in a fresh interpreter capped at
    1 GiB of address space: exit 2 within 30 s and one stderr line with the
    root system's estimated size, since the rank is refused before anything
    as long as the rank is built."""
    script = ("import resource, sys; resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30)); "
              "from nk_triad.cli import main; sys.exit(main(sys.argv[1:]))")
    src = str(Path(nk_triad.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)}
    proc = subprocess.run([sys.executable, "-c", script, "analyze", "a", "99999999999999999999",
                           "--nodes", "1"], capture_output=True, text=True, env=env, timeout=30)
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr == ("error: a99999999999999999999: its root system needs an estimated "
                           "7.45e+71 GiB, over the budget of 1 GiB\n")


def test_cli_parser_is_built_once_and_reused(capsys):
    """Consecutive ``main`` calls share one parser, and each prints what a
    call with a freshly built parser prints, flags of the call before left
    behind."""
    calls = [["analyze", "g", "2", "--nodes", "1", "--json"],
             ["analyze", "g", "2", "--nodes", "1", "--tol", "1e-8"]]
    fresh = []
    for argv in calls:
        cli.build_parser.cache_clear()
        assert main(argv) == 0
        fresh.append(capsys.readouterr())
    assert fresh[0].out != fresh[1].out
    parser = cli.build_parser()
    for argv, want in zip(calls, fresh):
        assert main(argv) == 0
        assert capsys.readouterr() == want
    assert cli.build_parser() is parser


@pytest.mark.parametrize("family,rank,nodes,i,j,l", [("g", 2, "2", 0, 4, 5),
                                                     ("g", 2, "2", 4, 5, 0),
                                                     ("a", 3, "1", 0, 5, 6)])
def test_cli_analyze_fails_on_corrupted_isotropy_bracket(family, rank, nodes, i, j, l,
                                                         monkeypatch, capsys):
    """One entry of the isotropy bracket [k, k] doubled in both orders leaves
    every torsion and curvature suite passing (g2 node 2), or runs none of them
    (the Kahler a3 node 1); the total skewness of C reads it, as
    |C[i,j,l] + C[i,l,j]| = |C[i,j,l]|, and analyze exits 1 with one stderr
    line naming that residual."""
    ca = CompactAlgebra(ChevalleyData(build_root_system(family, rank)))
    d, c = ca.dim, ca.C.tolil()
    entry = c[i * d + j, l]
    assert entry != 0
    c[i * d + j, l] *= 2
    c[j * d + i, l] *= 2
    ca.C = c.tocsr()
    monkeypatch.setattr(tables, "cached_algebra", lambda family, rank: ca)
    assert main(["analyze", family, str(rank), "--nodes", nodes, "--json"]) == 1
    out, err = capsys.readouterr()
    verification = json.loads(out)["verification"]
    assert verification["pass"] is False
    skew = verification["residuals"]["bracket_total_skew"]
    assert skew == pytest.approx(abs(entry))
    assert err == f"verification failure: residuals over tol 1e-09: {{'bracket_total_skew': {skew!r}}}\n"
    assert all(v < 1e-9 for k, v in verification["residuals"].items()
               if k != "bracket_total_skew")


def test_cli_analyze_fails_on_a_non_skew_isotropy_pairing(monkeypatch, capsys):
    """One entry C[i,j,l] of [m, m]_k on g2 node 2 doubled in both orders
    (i, j) and (j, i), its [k, m] partners C[l,i,j] and C[l,j,i] left as they
    are: C is no longer totally skew, and analyze exits 1 with one stderr
    line that names ``bracket_total_skew``.  R^min = K K^T reads [m, m]_k
    alone, so pair symmetry stays below 1e-12 and cannot see this fault."""
    ca = CompactAlgebra(ChevalleyData(build_root_system("g", 2)))
    space = tables.realize("g", 2, "A3III", (2,))
    m, k = (set(cols.tocoo().row.tolist()) for cols in (space.m_cols, space.k_cols))
    d, c, coo = ca.dim, ca.C.tolil(), ca.C.tocoo()
    i, j, l = next((i, j, l) for i, j, l in zip(*np.divmod(coo.row, d), coo.col)
                   if i in m and j in m and l in k)
    partners = c[l * d + i, j], c[l * d + j, i]
    c[i * d + j, l] *= 2
    c[j * d + i, l] *= 2
    ca.C = c.tocsr()
    assert (ca.C[l * d + i, j], ca.C[l * d + j, i]) == partners != (0, 0)
    monkeypatch.setattr(tables, "cached_algebra", lambda family, rank: ca)
    assert main(["analyze", "g", "2", "--nodes", "2", "--json"]) == 1
    out, err = capsys.readouterr()
    residuals = json.loads(out)["verification"]["residuals"]
    assert residuals["bracket_total_skew"] > 1e-9 and residuals["pair_symmetry"] < 1e-12
    assert err.startswith("verification failure: residuals over tol 1e-09: {")
    assert "'bracket_total_skew'" in err and err.count("\n") == 1


def test_cli_classify_d4_names_the_triality_as_analyze_does(capsys):
    """The B3 entry of ``classify d 4`` has the NK type and space name that
    ``analyze d 4 --triality`` confirms."""
    assert main(["classify", "d", "4", "--json"]) == 0
    b3 = [c for c in json.loads(capsys.readouterr().out)["classes"] if c["kind"] == "B3"]
    assert main(["analyze", "d", "4", "--triality", "--json"]) == 0
    report = json.loads(capsys.readouterr().out)["nk_report"]
    assert [(c["nk_type"], c["space"]) for c in b3] == [(report["nk_type"], report["name"])] \
        == [("II", "Spin(8)/G2 (triality fixed points)")]


def test_cli_analyze_triality(capsys):
    assert main(["analyze", "d", "4", "--triality", "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["nk_report"]["nk_type"] == "II"
    assert doc["nk_report"]["splitting"] == {"E": 7, "JE": 7}


def test_cli_table_check(capsys):
    assert main(["table", "AIV", "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert len(doc["rows"]) == 6


def test_cli_table_csv(capsys):
    assert main(["table", "BC", "--csv"]) == 0
    out = capsys.readouterr().out
    assert out.splitlines()[0].startswith("construction")


@pytest.mark.parametrize("which", ["AIII", "FIB-AIII"])
def test_cli_two_layer_table_prints_the_golden_bytes(which, capsys):
    """The two-layer tables are computed whole: ``table X --json`` prints the
    golden file byte for byte."""
    golden = tables.golden_text(cli._TABLE_NAMES[which])
    assert main(["table", which, "--json"]) == 0
    assert capsys.readouterr().out == golden


def test_cli_usage_error_exit_2():
    with pytest.raises(SystemExit) as exc:
        main(["table", "nope"])
    assert exc.value.code == 2
    assert main(["classify", "d", "3"]) == 2  # invalid rank


@pytest.mark.parametrize("argv,message", [
    (["classify", "d", "3"], "error: no simple type d3"),
    (["analyze", "e", "9", "--nodes", "1"], "error: no simple type e9"),
    (["analyze", "a", "0", "--cyclic"], "error: no simple type a0"),
    (["analyze", "a", "1", "--triality"], "error: --triality needs the algebra d 4, got a 1"),
    (["analyze", "b", "3", "--triality"], "error: --triality needs the algebra d 4, got b 3"),
    (["analyze", "g", "2", "--nodes", "x"], "error: --nodes expects integers, got 'x'"),
    (["analyze", "g", "2", "--nodes", "3"], "error: --nodes must name one or two of 1..2"),
    (["analyze", "g", "2", "--nodes", "1,2"], "error: a node pair needs two distinct mark-1 nodes"),
    (["analyze", "a", "2", "--nodes", "1,1"], "error: a node pair needs two distinct mark-1 nodes"),
    (["analyze", "e", "8", "--nodes", "4"],
     "error: node 4 has mark 6; an order-3 class needs a node of mark 1, 2 or 3"),
    (["analyze", "e", "8", "--nodes", "3"],
     "error: node 3 has mark 4; an order-3 class needs a node of mark 1, 2 or 3"),
    (["analyze", "f", "4", "--nodes", "3"],
     "error: node 3 has mark 4; an order-3 class needs a node of mark 1, 2 or 3"),
    (["verify", "jacobi", "--tol", "nan"], "error: --tol must be a finite number >= 1e-12, got nan"),
    (["analyze", "c", "2", "--nodes", "1", "--tol", "nan"],
     "error: --tol must be a finite number >= 1e-12, got nan"),
    (["analyze", "g", "2", "--nodes", "2", "--tol", "-1"],
     "error: --tol must be a finite number >= 1e-12, got -1.0"),
    (["verify", "tables", "--tol", "inf"], "error: --tol must be a finite number >= 1e-12, got inf"),
    (["analyze", "g", "2", "--nodes", "2", "--tol", "0"],
     "error: --tol must be a finite number >= 1e-12, got 0.0"),
    (["verify", "identities", "--tol", "1e-13"],
     "error: --tol must be a finite number >= 1e-12, got 1e-13"),
])
def test_cli_error_paths_exit_2(argv, message, monkeypatch, capsys):
    """Each bad input ends with exit 2 and one line on stderr, before any
    algebra is built."""
    from nk_triad import cli

    def no_algebra(*args):
        raise AssertionError("an algebra was built for a rejected input")

    monkeypatch.setattr(tables, "cached_algebra", no_algebra)
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.err == message + "\n" and captured.out == ""


@pytest.mark.parametrize("argv,files,message", [
    (["verify", "tables"], {},
     "error: cannot read golden file {dir}/table_ai.json: No such file or directory"),
    (["table", "BC"], {"table_bc.json": '{"rows": [\n'},
     "error: malformed golden file {dir}/table_bc.json: "
     "JSONDecodeError: Expecting value: line 2 column 1 (char 11)"),
    (["table", "BC"], {"table_bc.json": '{"schema_version": "1.0"}\n'},
     "error: malformed golden file {dir}/table_bc.json: KeyError: 'rows'"),
    (["verify", "all"], {},
     "error: cannot read golden file {dir}/table_ai.json: No such file or directory"),
    (["verify", "fibrations"], {},
     "error: cannot read golden file {dir}/fibrations_aii.json: No such file or directory"),
])
def test_cli_golden_file_errors_exit_2(argv, files, message, tmp_path, monkeypatch, capsys):
    """A missing or malformed golden file ends with exit 2 and one stderr
    line naming the file, before any algebra is built or table computed."""
    def no_work(*args):
        raise AssertionError("work was done for a rejected input")

    for name, text in files.items():
        (tmp_path / name).write_text(text, encoding="utf-8")
    monkeypatch.setenv("NK_TRIAD_GOLDEN_DIR", str(tmp_path))
    monkeypatch.setattr(tables, "cached_algebra", no_work)
    for name in tables.TABLES:
        monkeypatch.setitem(tables.TABLES, name, no_work)
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.err == message.format(dir=tmp_path) + "\n" and captured.out == ""


def test_cli_verify_jacobi_reads_no_golden_file(tmp_path, monkeypatch, capsys):
    """Only the golden scopes read golden files: ``verify jacobi`` passes with
    an empty golden directory."""
    monkeypatch.setenv("NK_TRIAD_GOLDEN_DIR", str(tmp_path))
    monkeypatch.setattr(cli, "_JACOBI", [("a", 1), ("g", 2)])
    assert main(["verify", "jacobi"]) == 0
    assert capsys.readouterr() == ("verify jacobi: ok\n", "")


def test_cli_verify_tables_scope(monkeypatch):
    calls = {}
    for name, fn in list(tables.TABLES.items()):
        def counted(name=name, fn=fn):
            calls[name] = calls.get(name, 0) + 1
            return fn()
        monkeypatch.setitem(tables.TABLES, name, counted)
    assert main(["verify", "tables"]) == 0
    assert calls == dict.fromkeys(["table_ai", "table_aii", "table_aiii", "table_aiv",
                                   "table_bc"], 1)


def test_cli_verify_counts_failures_per_scope(monkeypatch, capsys):
    """A failing scope among passing ones: each status line counts its own scope."""
    monkeypatch.setattr(cli, "_check_algebra",
                        lambda family, rank, tol: ["forced"] if (family, rank) == ("a", 1) else [])
    monkeypatch.setattr(cli, "identity_subjects", lambda: ["g 2 --nodes 2"])
    assert main(["verify", "all"]) == 1
    text = capsys.readouterr().out
    assert text.splitlines()[:4] == ["verify jacobi: 1 failures", "verify identities: ok",
                                     "verify tables: ok", "verify fibrations: ok"]
    assert json.loads(text[text.index("{"):])["failures"] == ["jacobi:a1:forced"]


@pytest.mark.parametrize("change,failure", [
    (lambda rows: rows, None),
    (lambda rows: rows[::-1], "tables:table_bc:serialization drift"),
    (lambda rows: [dict(rows[0], m_dim=99)] + rows[1:],
     "tables:table_bc:['missing computed row: Spin(8)/[SU(3)/Z3]', "
     "'unexpected computed row: Spin(8)/[SU(3)/Z3]']"),
    (lambda rows: rows[::-1], "fibrations:fibrations_aii:serialization drift"),
])
def test_cli_verify_tables_failures(monkeypatch, capsys, change, failure):
    """Row diffs and byte drift are both reported, from one computation; the
    scope and the changed table are the ones the failure names (by default
    ``verify tables`` with table_bc)."""
    scope, changed = (failure or "tables:table_bc").split(":")[:2]
    for name in _scope_tables(scope):
        rows = tables.load_golden(name)
        if name == changed:
            rows = change(rows)
        monkeypatch.setitem(tables.TABLES, name, lambda rows=rows: rows)
    rc = main(["verify", scope])
    text = capsys.readouterr().out
    if failure is None:
        assert rc == 0
    else:
        assert rc == 1
        assert json.loads(text[text.index("{"):])["failures"] == [failure]


@pytest.mark.parametrize("table", ["table_aii", "table_aiii"])
def test_cli_verify_tables_checks_the_einstein_lists(table, monkeypatch, capsys):
    """The paper's Einstein list of one eigenvalue table with one name
    dropped: ``verify tables`` exits 1 with exactly one failure line, which
    names that space as an unexpected Einstein space of that table, and
    ``table`` of that table exits 1 with the same finding."""
    for name in _scope_tables("tables"):
        monkeypatch.setitem(tables.TABLES, name, lambda rows=tables.load_golden(name): rows)
    listed = getattr(tables, "einstein_expected_" + table.removeprefix("table_"))
    dropped = sorted(listed())[0]
    monkeypatch.setattr(tables, listed.__name__, lambda: listed() - {dropped})
    assert main(["verify", "tables"]) == 1
    text = capsys.readouterr().out
    assert json.loads(text[text.index("{"):])["failures"] == [
        f"tables:{table}:Einstein list: missing [], unexpected [{dropped!r}]"]
    assert main(["table", table.removeprefix("table_").upper(), "--json"]) == 1
    assert capsys.readouterr().err == (f"GOLDEN MISMATCH: table {table}: "
                                       f"Einstein list: missing [], unexpected [{dropped!r}]\n")


@pytest.mark.parametrize("table", ["table_aii", "table_aiii"])
def test_cli_verify_tables_names_a_missing_einstein_space(table, monkeypatch, capsys):
    """One space of the paper's Einstein list left out of the computed rows:
    ``verify tables`` names it as a missing golden row and as missing from
    the Einstein list."""
    for name in _scope_tables("tables"):
        monkeypatch.setitem(tables.TABLES, name, lambda rows=tables.load_golden(name): rows)
    dropped = sorted(getattr(tables, "einstein_expected_" + table.removeprefix("table_"))())[0]
    rows = [r for r in tables.load_golden(table) if r["space"] != dropped]
    monkeypatch.setitem(tables.TABLES, table, lambda: rows)
    assert main(["verify", "tables"]) == 1
    text = capsys.readouterr().out
    assert json.loads(text[text.index("{"):])["failures"] == [
        f"tables:{table}:['missing computed row: {dropped}']",
        f"tables:{table}:Einstein list: missing [{dropped!r}], unexpected []"]


def test_cli_entry_point_installed():
    """``nk-triad classify a 2`` through the console script; where none is
    installed, through the target ``pyproject.toml`` declares for it, run the
    way the script runs it, with this package first on the path."""
    exe = shutil.which("nk-triad")
    env = None
    if exe is not None:
        cmd = [exe]
    else:
        import tomllib

        with open(Path(__file__).resolve().parents[1] / "pyproject.toml", "rb") as fh:
            module, func = tomllib.load(fh)["project"]["scripts"]["nk-triad"].split(":")
        cmd = [sys.executable, "-c", f"import sys; from {module} import {func}; sys.exit({func}())"]
        src = str(Path(nk_triad.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            p for p in (src, os.environ.get("PYTHONPATH")) if p)}
    proc = subprocess.run([*cmd, "classify", "a", "2"], capture_output=True, text=True, env=env)
    assert proc.returncode == 0
    assert "A3II" in proc.stdout


def test_identity_spaces_cover_all_constructions():
    """The whole catalogue, in order: every class of the two-layer and
    three-layer sweeps, e7 and e8 included, then g2 node 1, the triality and
    a1 cyclic, 173 spaces, each named by the ``analyze`` arguments that
    realize it."""
    spaces = (cli._realize_from_args(cli.build_parser().parse_args(["analyze", *s.split()]))
              for s in cli.identity_subjects())
    names, labels = zip(*((sp.name, sp.type_label) for sp in spaces))
    assert {"A3II", "A3III", "A3IV", "B3", "C3"} <= set(labels)
    want = [tables.space_name(f, r, "A3III", (n,)) for f, r, n in tables.a3iii_sweep()] \
        + [tables.space_name(f, r, "A3II", n) for f, r, n in tables.a3ii_sweep()] \
        + ["G2/SU(3)", "Spin(8)/G2 (triality fixed points)", "(a1)^3 / diagonal"]
    assert len(want) == 173 and list(names) == want


def test_a3iii_sweep_ignores_deep():
    sweep = tables.a3iii_sweep()
    assert len(sweep) == 80 and ("e", 8, 8) in sweep
    assert tables.a3iii_sweep(deep=False) == sweep == tables.a3iii_sweep(deep=True)


def test_cli_verify_jacobi_is_whole_with_or_without_deep(monkeypatch, capsys):
    """``verify jacobi`` visits the same 20 algebras in the same order, and
    prints the same, whether or not ``--deep`` is passed."""
    want = [("a", 1), ("a", 2), ("a", 3), ("a", 4), ("b", 2), ("b", 3), ("b", 4),
            ("c", 2), ("c", 3), ("c", 4), ("d", 4), ("g", 2), ("f", 4),
            ("a", 8), ("b", 8), ("c", 8), ("d", 8), ("e", 6), ("e", 7), ("e", 8)]
    outs, build = [], tables.cached_algebra
    for extra in ([], ["--deep"]):
        seen = []
        monkeypatch.setattr(tables, "cached_algebra",
                            lambda f, r: seen.append((f, r)) or build(f, r))
        assert main(["verify", "jacobi", *extra]) == 0
        assert seen == want
        outs.append(capsys.readouterr().out)
    assert outs[0] == outs[1] == "verify jacobi: ok\n"


def _cli_grid():
    """Fixed CLI inputs, valid and not: every inner class of small algebras by
    ``--nodes``, nodes out of range, a pair that is not two mark-1 nodes, the
    cyclic and triality constructions, ``classify`` at a bad and a good rank
    of each family, and ``table BC``."""
    from itertools import combinations

    from nk_triad.rootsys import enumerate_inner_order3

    for f, r in [("a", 1), ("a", 2), ("a", 3), ("a", 4), ("b", 2), ("b", 3),
                 ("c", 2), ("c", 3), ("d", 4), ("g", 2)]:
        rs = tables.cached_root_system(f, r)
        nodes = [",".join(map(str, c.nodes)) for c in enumerate_inner_order3(rs)]
        odd = next((p for p in combinations(range(1, r + 1), 2)
                    if (rs.marks[p[0] - 1], rs.marks[p[1] - 1]) != (1, 1)), (1, 1))
        nodes += ["0", str(r + 1), "%d,%d" % odd]
        yield from (["analyze", f, str(r), "--nodes", n] for n in nodes)
    yield from (["analyze", f, r, "--cyclic"] for f, r in ["a1", "a2", "b2", "g2"])
    yield from (["analyze", f, r, "--triality"] for f, r in ["d4", "g2"])
    for f, bad, good in ["a02", "b12", "c13", "d34", "e56", "f34", "g32"]:
        yield from (["classify", f, bad], ["classify", f, good])
    yield ["table", "BC"]


def test_cli_grid_ends_in_an_exit_status_and_one_line(capsys):
    """Each input of the grid ends in exit 0, 1 or 2 with at most one stderr
    line, never a traceback."""
    for argv in _cli_grid():
        try:
            rc = main(argv)
        except SystemExit as exc:
            rc = exc.code
        out, err = capsys.readouterr()
        assert rc in (0, 1, 2), argv
        assert err.count("\n") <= 1 and "Traceback" not in out + err, argv


def test_cli_verify_all_fails_on_one_flipped_chevalley_sign(monkeypatch, capsys):
    """One sign of g2's table flipped after its C is built: only the exact
    Chevalley checks of ``verify jacobi`` read it, and they name it."""
    cd = tables.cached_algebra("g", 2).cd
    i, j = (int(k[0]) for k in np.nonzero(cd.plus >= 0))
    sign = cd.sign.copy()
    sign[i, j] *= -1
    monkeypatch.setattr(cd, "sign", sign)
    monkeypatch.setattr(cli, "identity_subjects", lambda: ["g 2 --nodes 2", "g 2 --nodes 1"])
    assert main(["verify", "all"]) == 1
    out = capsys.readouterr().out
    failures = json.loads(out[out.index("{"):])["failures"]
    assert len(failures) == 1 and failures[0].startswith("jacobi:g2:IdentityViolation:triple ")


# -- the failure contract --------------------------------------------------------


def _package_exceptions():
    """Every exception class defined in a module of the package, by name."""
    found = {}
    for info in pkgutil.iter_modules(nk_triad.__path__):
        module = importlib.import_module(f"nk_triad.{info.name}")
        found.update((name, obj) for name, obj in vars(module).items()
                     if isinstance(obj, type) and issubclass(obj, BaseException)
                     and obj.__module__ == module.__name__)
    return [found[name] for name in sorted(found)
            if found[name] not in (UsageError, VerificationFailure)]


def test_every_exception_derives_from_exactly_one_base():
    """Each exception of the package is a ``UsageError`` or a
    ``VerificationFailure``, never both and never neither, so its exit code is
    fixed where it is defined."""
    classes = _package_exceptions()
    assert {"ClassificationMismatch", "FixedVectorInM", "GoldenFileError", "IdentityViolation",
            "InvalidRank", "JacobiFailure", "NonClosedSubalgebra", "NonRationalEigenvalue",
            "NotARoot", "NotClosed", "NotInvolutive", "NotOrderThree", "RIdentityMismatch",
            "SignInconsistency", "TraceFormFailure", "TrialityInconsistent"} \
        <= {cls.__name__ for cls in classes}
    for cls in classes:
        assert issubclass(cls, UsageError) + issubclass(cls, VerificationFailure) == 1, cls


@pytest.mark.parametrize("cls", _package_exceptions(), ids=lambda cls: cls.__name__)
def test_cli_maps_every_exception_to_its_exit_code(cls, monkeypatch, capsys):
    """Any exception of the package raised inside ``analyze`` ends in exit 2
    (a usage error) or 1 (a verification failure) with one stderr line
    naming it, never a traceback; the constructor is bypassed, since some
    classes take their location rather than a message."""
    def fail(args):
        raise cls.__new__(cls, "forced")

    monkeypatch.setattr(cli, "_realize_from_args", fail)
    rc = main(["analyze", "g", "2", "--nodes", "2"])
    out, err = capsys.readouterr()
    if issubclass(cls, UsageError):
        assert (rc, err) == (2, "error: forced\n")
    else:
        assert (rc, err) == (1, f"verification failure: {cls.__name__}: forced\n")
    assert out == ""


def test_cli_analyze_accepts_the_tolerance_floor(capsys):
    assert main(["analyze", "g", "2", "--nodes", "2", "--tol", "1e-12"]) == 0
    assert "verification: pass" in capsys.readouterr().out


def test_cli_triality_exits_1_on_a_bracket_entry_it_does_not_preserve(monkeypatch, capsys):
    """d4 with C[(5, 9), l] negated in both orders, l the pair's first stored
    column, reached only through ``tables.cached_algebra``: the rotation no
    longer preserves the bracket, and ``analyze`` exits 1 with one line."""
    ca = CompactAlgebra(ChevalleyData(build_root_system("d", 4)))
    d, c = ca.dim, ca.C.tolil()
    i, j = 5, 9
    l = ca.C[i * d + j].indices[0]
    c[i * d + j, l] *= -1
    c[j * d + i, l] *= -1
    ca.C = c.tocsr()
    monkeypatch.setattr(tables, "cached_algebra", lambda family, rank: ca)
    assert main(["analyze", "d", "4", "--triality"]) == 1
    captured = capsys.readouterr()
    assert captured.err == ("verification failure: TrialityInconsistent: rescaled rotation fails "
                            "to preserve the bracket of basis pair (5, 9): residual 2.000e+00\n")
    assert captured.out == ""


@pytest.mark.parametrize("scope,failure", [
    ("jacobi", "jacobi:a2:SignInconsistency:magnitude mismatch at forced"),
    ("identities", "identities:c 3 --nodes 1:NotOrderThree:forced"),
    ("fibrations", "fibrations:fibrations_aii:NonClosedSubalgebra:forced"),
], ids=["algebra", "space", "table"])
def test_cli_verify_goes_on_past_a_subject_that_raises(scope, failure, monkeypatch, capsys):
    """An algebra whose Chevalley signs fail to build, a space that fails to
    realize, or a table whose computation raises: ``verify all`` records it
    as the one failure line of its scope, still checks the subject after it,
    prints every scope's summary line and exits 1 (jacobi and identities cut
    to three subjects each)."""
    from nk_triad.chevalley import SignInconsistency
    from nk_triad.fibration import NonClosedSubalgebra
    from nk_triad.rootsys import NotOrderThree

    monkeypatch.setattr(cli, "_JACOBI", [("a", 1), ("a", 2), ("a", 3)])
    monkeypatch.setattr(cli, "identity_subjects",
                        lambda: ["c 2 --nodes 1", "c 3 --nodes 1", "c 3 --nodes 2"])
    calls = []

    def faulty(real, bad, exc):
        def patched(*args):
            if args == bad:
                raise exc
            calls.append(args)
            return real(*args)
        return patched

    if scope == "jacobi":
        monkeypatch.setattr(tables, "cached_algebra", faulty(
            tables.cached_algebra, ("a", 2), SignInconsistency("magnitude mismatch at forced")))
        after = ("a", 3)
    elif scope == "identities":
        monkeypatch.setattr(tables, "realize", faulty(
            tables.realize, ("c", 3, "A3III", (1,)), NotOrderThree("forced")))
        after = ("c", 3, "A3III", (2,))
    else:
        computed = dict(tables.TABLES)
        table = faulty(lambda name: computed[name](), ("fibrations_aii",),
                       NonClosedSubalgebra("forced"))
        for name in _scope_tables("fibrations"):
            monkeypatch.setitem(tables.TABLES, name, lambda name=name: table(name))
        after = ("fibrations_aiii",)
    assert main(["verify", "all"]) == 1
    out, err = capsys.readouterr()
    assert out.splitlines()[:4] == [f"verify {s}: {'1 failures' if s == scope else 'ok'}"
                                    for s in ("jacobi", "identities", "tables", "fibrations")]
    assert json.loads(out[out.index("{"):])["failures"] == [failure] and err == ""
    assert after in calls
