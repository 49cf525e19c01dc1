"""The package imports nothing beyond the standard library, numpy and scipy."""

import ast
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "nk_triad"
ALLOWED = set(sys.stdlib_module_names) | {"numpy", "scipy", "nk_triad"}


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
