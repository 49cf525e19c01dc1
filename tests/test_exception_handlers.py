"""Every exception handler of the package names what it catches: none is bare
or catches ``Exception`` or ``BaseException``, and a ``VerificationFailure``
is caught only where it becomes output, in the verify loop (one failure line
of its scope) and in ``cli.main`` (exit 1)."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "nk_triad"


def handlers(source: str) -> list[tuple[str, list[str]]]:
    """(enclosing function, names caught) of every ``except`` clause, in
    order; a bare clause catches ``BaseException``, and a clause outside any
    function is in ``<module>``."""
    found = []

    def visit(node, func):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ExceptHandler):
                types = child.type.elts if isinstance(child.type, ast.Tuple) else [child.type]
                found.append((func, [getattr(t, "id", None) or getattr(t, "attr", None)
                                     if t is not None else "BaseException" for t in types]))
            visit(child, child.name if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef))
                  else func)

    visit(ast.parse(source), "<module>")
    return found


def src_handlers() -> list[tuple[str, str, list[str]]]:
    return [(path.stem, func, names) for path in sorted(SRC.glob("*.py"))
            for func, names in handlers(path.read_text(encoding="utf-8"))]


def test_no_handler_in_src_is_broad():
    found = src_handlers()
    assert found
    assert [h for h in found if {"Exception", "BaseException"} & set(h[2])] == []


def test_only_the_verify_loop_and_main_catch_a_verification_failure():
    assert [(module, func) for module, func, names in src_handlers()
            if "VerificationFailure" in names] == [("cli", "cmd_verify"), ("cli", "main")]


def test_a_broad_or_verification_handler_is_found():
    source = ("try:\n    pass\nexcept:\n    pass\n\n"
              "def f():\n    try:\n        pass\n    except (ValueError, Exception):\n        pass\n"
              "    except rootsys.VerificationFailure as exc:\n        pass\n\n"
              "class A:\n    def g(self):\n        try:\n            pass\n"
              "        except KeyError:\n            pass\n")
    assert handlers(source) == [("<module>", ["BaseException"]),
                                ("f", ["ValueError", "Exception"]),
                                ("f", ["VerificationFailure"]), ("g", ["KeyError"])]
