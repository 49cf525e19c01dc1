"""Every function, class and method of the package has a use: a reference in
the package itself, a place in ``nk_triad.__all__``, or a wrapped layer of the
traced benchmark run (``bench/layers.py`` ``WRAPPED``).  A method is used only
through an attribute (``obj.method``): a bare name of the same spelling is a
local variable or a function, not a call of the method.  Code that only the
tests call belongs in the tests."""

import ast
from pathlib import Path

import nk_triad

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "nk_triad"


def defined_and_referenced(sources: list[str]) -> tuple[dict[str, int], set[str], set[str], set[str]]:
    """(name -> line of its first definition, method names, names read as a
    Name, names read as an Attribute) over the modules' sources; dunder names
    are left out."""
    defined, methods, names, attrs = {}, set(), set(), set()
    for source in sources:
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                if not (node.name.startswith("__") and node.name.endswith("__")):
                    defined.setdefault(node.name, node.lineno)
                if isinstance(node, ast.ClassDef):
                    methods.update(f.name for f in node.body
                                   if isinstance(f, (ast.FunctionDef, ast.AsyncFunctionDef)))
            elif isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                attrs.add(node.attr)
    return defined, methods, names, attrs


def wrapped_names() -> set[str]:
    """Every component of the attribute paths in ``bench/layers.py`` ``WRAPPED``."""
    tree = ast.parse((ROOT / "bench" / "layers.py").read_text(encoding="utf-8"))
    value = next(node.value for node in tree.body if isinstance(node, ast.Assign)
                 and any(getattr(t, "id", None) == "WRAPPED" for t in node.targets))
    return {part for _, path, _ in ast.literal_eval(value) for part in path.split(".")}


def unused(sources: list[str], exported: set[str]) -> list[str]:
    defined, methods, names, attrs = defined_and_referenced(sources)
    return sorted(name for name in defined if name not in attrs | exported
                  and (name in methods or name not in names))


def test_every_definition_in_src_has_a_use():
    sources = [path.read_text(encoding="utf-8") for path in sorted(SRC.glob("*.py"))]
    assert len(sources) > 1
    assert unused(sources, set(nk_triad.__all__) | wrapped_names()) == []


def test_an_unused_method_is_named():
    source = ("class A:\n    def __init__(self):\n        self.b = helper()\n"
              "    def used(self):\n        return self.b\n    def spare(self):\n        pass\n"
              "    def shadowed(self):\n        pass\n\n"
              "def helper():\n    shadowed = lambda: 0\n    return A().used, shadowed()\n\n"
              "def exported():\n    pass\n")
    assert unused([source], {"exported"}) == ["shadowed", "spare"]


def cached_methods(source: str) -> list[str]:
    """Methods decorated with ``functools.cache`` or ``lru_cache``, as Class.method."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ClassDef):
            for f in node.body:
                if isinstance(f, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    for dec in f.decorator_list:
                        target = dec.func if isinstance(dec, ast.Call) else dec
                        name = target.attr if isinstance(target, ast.Attribute) else getattr(target, "id", "")
                        if name in ("cache", "lru_cache"):
                            found.append(f"{node.name}.{f.name}")
    return found


def test_no_method_in_src_is_cached_process_wide():
    """A ``functools.cache`` or ``lru_cache`` on a method keys its entries on
    ``self`` and its arguments for the life of the process, so every object it
    sees stays alive; memos belong on the instance they describe."""
    for path in sorted(SRC.glob("*.py")):
        assert cached_methods(path.read_text(encoding="utf-8")) == [], path.name


def test_a_cached_method_is_named():
    source = ("import functools\nfrom functools import cache, cached_property, lru_cache\n\n"
              "@functools.cache\ndef free():\n    pass\n\n"
              "class A:\n    @functools.cache\n    def a(self):\n        pass\n"
              "    @lru_cache(maxsize=4)\n    def b(self):\n        pass\n"
              "    @cache\n    def c(self):\n        pass\n"
              "    @functools.lru_cache\n    def d(self):\n        pass\n"
              "    @cached_property\n    def e(self):\n        pass\n")
    assert cached_methods(source) == ["A.a", "A.b", "A.c", "A.d"]


def names_slab_entries(source: str) -> bool:
    """Whether the code (not its strings) names ``SLAB_ENTRIES``: as a name,
    an attribute or an import."""
    return any("SLAB_ENTRIES" in (getattr(node, "id", None), getattr(node, "attr", None))
               or isinstance(node, ast.alias) and node.name == "SLAB_ENTRIES"
               for node in ast.walk(ast.parse(source)))


def test_only_compactform_names_the_slab_budget():
    """One slab rule: every blocked loop cuts its indices with
    ``compactform.slab_cuts``, which reads ``SLAB_ENTRIES`` at each call, so no
    other module names the budget (a copy taken at import would not see a
    changed budget)."""
    assert [path.name for path in sorted(SRC.glob("*.py"))
            if names_slab_entries(path.read_text(encoding="utf-8"))] == ["compactform.py"]


def test_a_slab_budget_name_is_found():
    assert names_slab_entries("from .compactform import SLAB_ENTRIES\n")
    assert names_slab_entries("from . import compactform\nstep = compactform.SLAB_ENTRIES // 2\n")
    assert names_slab_entries("def f(n):\n    return max(1, SLAB_ENTRIES // n)\n")
    assert not names_slab_entries('def f(n):\n    """About SLAB_ENTRIES entries."""\n    return n\n')
