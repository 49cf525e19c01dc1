"""The package imports nothing beyond the standard library, numpy and scipy,
and its exact path (root systems, structure constants, the exact report,
fibrations, tables and the command line) loads no scipy and no float module."""

import ast
import importlib.util
import inspect
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import nk_triad
from nk_triad.cli import main

SRC = Path(__file__).resolve().parents[1] / "src" / "nk_triad"
ALLOWED = set(sys.stdlib_module_names) | {"numpy", "scipy", "nk_triad"}
EXACT = ("__init__", "rootsys", "chevalley", "exact", "fibration", "tables", "cli")
FLOAT = ("csr", "compactform", "automorph", "nk_analyzer")


def foreign_imports(source: str) -> list[str]:
    """Modules ``source`` imports from outside ``ALLOWED``, in order; a
    relative import is the package's own."""
    names = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.append(node.module)
    return [name for name in names if name.split(".")[0] not in ALLOWED]


def test_package_imports_only_the_stdlib_numpy_and_scipy():
    modules = sorted(SRC.glob("*.py"))
    assert len(modules) > 1
    found = {path.name: foreign_imports(path.read_text(encoding="utf-8")) for path in modules}
    assert {name: bad for name, bad in found.items() if bad} == {}


def test_a_foreign_import_is_named():
    source = ("from __future__ import annotations\nimport os, numpy.linalg\n"
              "from . import tables\nfrom scipy import sparse\n"
              "from pandas import DataFrame\n\ndef f():\n    import yaml as y\n")
    assert foreign_imports(source) == ["pandas", "yaml"]


def float_imports_at_load(source: str) -> list[str]:
    """The scipy and float modules (``FLOAT``) that ``source`` imports when it
    is loaded, in order: every import outside a function body."""
    found = []

    def visit(node):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            if isinstance(child, ast.Import):
                found.extend(alias.name for alias in child.names)
            elif isinstance(child, ast.ImportFrom):
                found.extend([child.module] if child.module else [a.name for a in child.names])
            visit(child)

    visit(ast.parse(source))
    return [name for name in found
            if name.split(".")[0] == "scipy" or name.split(".")[-1] in FLOAT]


def test_exact_modules_import_no_float_module_at_load():
    found = {name: float_imports_at_load((SRC / f"{name}.py").read_text(encoding="utf-8"))
             for name in EXACT}
    assert {name: bad for name, bad in found.items() if bad} == {}


def test_a_float_import_at_load_is_named():
    source = ("import numpy as np\nimport scipy.sparse as sp\nfrom . import tables, compactform\n"
              "from .automorph import realize_inner\nfrom nk_triad.nk_analyzer import build_report\n"
              "try:\n    from scipy import linalg\nexcept ImportError:\n    pass\n\n"
              "def f():\n    from .nk_analyzer import verify_space\n\n"
              "class A:\n    import scipy\n")
    assert float_imports_at_load(source) == ["scipy.sparse", "compactform", "automorph",
                                             "nk_triad.nk_analyzer", "scipy", "scipy"]


def private_exact_imports(source: str) -> list[str]:
    """The ``_``-prefixed names that ``source`` imports from ``exact``, in order."""
    return [alias.name for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[-1] == "exact"
            for alias in node.names if alias.name.startswith("_")]


def test_float_modules_import_no_private_name_of_exact():
    """The float modules read exact values through ``exact``'s public names alone."""
    found = {name: private_exact_imports((SRC / f"{name}.py").read_text(encoding="utf-8"))
             for name in FLOAT}
    assert {name: bad for name, bad in found.items() if bad} == {}


def test_a_private_exact_import_is_named():
    source = ("from .exact import NKReport, _report\nfrom .rootsys import _read_only\n"
              "from nk_triad.exact import (inner_report,\n    _sorted_layers)\n"
              "from . import exact\n\ndef f():\n    from .exact import _r_of\n")
    assert private_exact_imports(source) == ["_report", "_sorted_layers", "_r_of"]


def private_scipy_imports(source: str) -> list[str]:
    """The private scipy modules (a dotted path with a ``_``-prefixed part)
    that ``source`` imports, in order, each by its full path."""
    private = lambda path: path.split(".")[0] == "scipy" and any(
        part.startswith("_") for part in path.split("."))
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            found += [alias.name for alias in node.names if private(alias.name)]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            if private(node.module):
                found.append(node.module)
            else:
                found += [path for path in (f"{node.module}.{alias.name}" for alias in node.names)
                          if private(path)]
    return found


def test_only_the_csr_helpers_import_a_private_scipy_module():
    """The package reaches into scipy at one place: ``csr`` calls the
    compiled kernels of ``scipy.sparse._sparsetools`` on CSR arrays for every
    float stage, and ``tests/test_sparse_kernels.py`` pins each against its
    public operation."""
    found = {path.stem: private_scipy_imports(path.read_text(encoding="utf-8"))
             for path in sorted(SRC.glob("*.py"))}
    assert {name: bad for name, bad in found.items() if bad} == {
        "csr": ["scipy.sparse._sparsetools"]}


def scipy_packages(source: str) -> list[str]:
    """The deepest scipy package on each scipy import path of ``source``, in
    order: ``scipy.sparse`` for ``from scipy.sparse import csr_matrix`` and
    for the kernel module ``scipy.sparse._sparsetools``, and
    ``scipy.sparse.csgraph`` for ``from scipy.sparse import csgraph``.  The
    packages are found, not imported (``importlib.util.find_spec``)."""
    paths = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            paths += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            paths += [f"{node.module}.{alias.name}" for alias in node.names]
    found = []
    for parts in (path.split(".") for path in paths if path.split(".")[0] == "scipy"):
        deepest = "scipy"
        for n in range(2, len(parts) + 1):
            spec = importlib.util.find_spec(".".join(parts[:n]))
            if spec is None or spec.submodule_search_locations is None:
                break
            deepest = ".".join(parts[:n])
        found.append(deepest)
    return found


def test_the_package_imports_no_scipy_subpackage_but_sparse():
    """The float modules reach scipy through ``scipy.sparse`` alone, and no
    module imports another subpackage: not ``scipy.sparse.csgraph`` (25 ms to
    import warm and 0.49 s cold on a 2-core VM, which would land in a run's
    set-up or pass), not ``scipy.linalg``."""
    found = {path.stem: scipy_packages(path.read_text(encoding="utf-8"))
             for path in sorted(SRC.glob("*.py"))}
    assert {name: bad for name, bad in found.items() if set(bad) - {"scipy.sparse"}} == {}
    assert {name for name, packages in found.items() if packages} == set(FLOAT)


def test_a_scipy_subpackage_import_is_named():
    source = ("import scipy.sparse as sp, scipy\nfrom scipy.sparse import csr_matrix, csgraph\n"
              "from scipy.sparse._sparsetools import expandptr\nfrom scipy import linalg\n"
              "from numpy import linalg as la\n\ndef f():\n"
              "    from scipy.sparse.csgraph import connected_components\n")
    assert scipy_packages(source) == ["scipy.sparse", "scipy", "scipy.sparse", "scipy.sparse.csgraph",
                                      "scipy.sparse", "scipy.linalg", "scipy.sparse.csgraph"]


def test_a_private_scipy_import_is_named():
    source = ("import scipy.sparse as sp, scipy._lib._util\n"
              "from scipy.sparse._sparsetools import coo_tocsr, expandptr\n"
              "from scipy.sparse import _compressed, csr_matrix\n"
              "from numpy._core import multiarray\nfrom . import _private\n\n"
              "def f():\n    from scipy.linalg import _flapack\n")
    assert private_scipy_imports(source) == ["scipy._lib._util", "scipy.sparse._sparsetools",
                                             "scipy.sparse._compressed", "scipy.linalg._flapack"]


def tol_comparisons(source: str) -> list[str]:
    """The comparisons in ``source`` with an operand that reads the name
    ``tol``, alone or inside an expression, in order."""
    return [ast.unparse(node) for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Compare)
            and any(isinstance(sub, ast.Name) and sub.id == "tol"
                    for operand in (node.left, *node.comparators) for sub in ast.walk(operand))]


def test_float_suites_judge_no_residual():
    """No comparison in ``nk_analyzer`` reads ``tol``: the suites return
    their residuals, and the command line alone judges them (``cli._over_tol``),
    so ``verify_space`` takes the space alone."""
    from nk_triad.nk_analyzer import verify_space
    assert tol_comparisons((SRC / "nk_analyzer.py").read_text(encoding="utf-8")) == []
    assert list(inspect.signature(verify_space).parameters) == ["space"]


def test_a_tol_comparison_is_named():
    source = ("def f(res, s, r, tol=1e-9, limit=1.0):\n"
              "    if res > tol * max(1.0, s):\n        raise X\n"
              "    bad = {k: v for k, v in r.items() if v > tol}\n"
              "    if not res <= limit or s == TOL_FLOOR:\n        return bad\n")
    assert tol_comparisons(source) == ["res > tol * max(1.0, s)", "v > tol"]


# A fresh interpreter: pytest itself loads scipy.sparse (the filterwarnings setting).
LOADED = ("sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'"
          " or m.removeprefix('nk_triad.') in {})".format(FLOAT))


def fresh(script: str, *args: str) -> subprocess.CompletedProcess:
    """``script`` run by a fresh interpreter, this package first on the path."""
    src = str(Path(nk_triad.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)}
    return subprocess.run([sys.executable, "-c", script, *args], capture_output=True, text=True,
                          env=env)


def test_package_import_loads_no_module_and_every_name_resolves():
    """``import nk_triad`` loads none of its modules; the names of the exact
    modules resolve without scipy, and every ``__all__`` name resolves to the
    definition in its module."""
    proc = fresh("import json, sys\nimport nk_triad\n"
                 "before = sorted(m for m in sys.modules if m.startswith('nk_triad') or m == 'scipy')\n"
                 "exact = [getattr(nk_triad, n) for n in nk_triad.__all__"
                 f" if nk_triad._HOME[n] in {EXACT}]\n"
                 f"loaded = {LOADED}\n"
                 "homes = {n: getattr(nk_triad, n).__module__ for n in nk_triad.__all__}\n"
                 "print(json.dumps([before, len(exact), loaded, homes]))\n")
    assert proc.returncode == 0, proc.stderr
    before, exact, loaded, homes = json.loads(proc.stdout)
    assert before == ["nk_triad"] and exact > 10 and loaded == []
    assert homes == {name: f"nk_triad.{nk_triad._HOME[name]}" for name in nk_triad.__all__}


@pytest.mark.parametrize("argv", [["table", "AI"], ["table", "FIB-AIII"],
                                  ["verify", "tables", "--deep"], ["verify", "fibrations", "--deep"],
                                  ["classify", "e", "8", "--json"]],
                         ids=" ".join)
def test_exact_commands_load_no_float_module(argv, capsys):
    """Each exact command, run in a fresh interpreter, loads no scipy and no
    float module, and prints what it prints in this process, byte for byte."""
    proc = fresh("import sys\nfrom nk_triad.cli import main\nrc = main(sys.argv[1:])\n"
                 f"print({LOADED}, file=sys.stderr)\nsys.exit(rc)\n", *argv)
    *err, loaded = proc.stderr.splitlines(keepends=True)
    assert loaded == "[]\n"
    assert main(argv) == proc.returncode == 0
    assert capsys.readouterr() == (proc.stdout, "".join(err))
