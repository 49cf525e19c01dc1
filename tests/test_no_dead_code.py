"""Every function, class and method of the package has a use: a reference in
the package itself, a place in ``nk_triad.__all__``, or a wrapped layer of the
traced benchmark run (``bench/layers.py`` ``WRAPPED``).  Code that only the
tests call belongs in the tests."""

import ast
from pathlib import Path

import nk_triad

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "nk_triad"


def defined_and_referenced(sources: list[str]) -> tuple[dict[str, int], set[str]]:
    """(name -> line of its first definition, names read as a Name or an
    Attribute) over the modules' sources; dunder names are left out."""
    defined, referenced = {}, set()
    for source in sources:
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                if not (node.name.startswith("__") and node.name.endswith("__")):
                    defined.setdefault(node.name, node.lineno)
            elif isinstance(node, ast.Name):
                referenced.add(node.id)
            elif isinstance(node, ast.Attribute):
                referenced.add(node.attr)
    return defined, referenced


def wrapped_names() -> set[str]:
    """Every component of the attribute paths in ``bench/layers.py`` ``WRAPPED``."""
    tree = ast.parse((ROOT / "bench" / "layers.py").read_text(encoding="utf-8"))
    value = next(node.value for node in tree.body if isinstance(node, ast.Assign)
                 and any(getattr(t, "id", None) == "WRAPPED" for t in node.targets))
    return {part for _, path, _ in ast.literal_eval(value) for part in path.split(".")}


def unused(sources: list[str], exported: set[str]) -> list[str]:
    defined, referenced = defined_and_referenced(sources)
    return sorted(name for name in defined if name not in referenced | exported)


def test_every_definition_in_src_has_a_use():
    sources = [path.read_text(encoding="utf-8") for path in sorted(SRC.glob("*.py"))]
    assert len(sources) > 1
    assert unused(sources, set(nk_triad.__all__) | wrapped_names()) == []


def test_an_unused_method_is_named():
    source = ("class A:\n    def __init__(self):\n        self.b = helper()\n"
              "    def used(self):\n        return self.b\n    def spare(self):\n        pass\n\n"
              "def helper():\n    return A().used\n\ndef exported():\n    pass\n")
    assert unused([source], {"exported"}) == ["spare"]
