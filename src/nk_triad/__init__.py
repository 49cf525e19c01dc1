"""Compact 3-symmetric spaces and their nearly Kahler invariants.

Each public name is imported from its module on first access, so importing
the package loads none of its modules, and the exact path (root systems,
structure constants, the exact report, fibrations, tables) never loads scipy.
"""

import importlib

__version__ = "1.0.0"

_HOME = {name: module for module, names in (
    ("automorph", "OrderThreeSymmetricSpace classify_type realize_cyclic_c3 realize_inner"
                  " realize_triality_d4"),
    ("chevalley", "ChevalleyData verify_triangle_identity"),
    ("compactform", "CompactAlgebra adjoint_action_exp"),
    ("exact", "NKReport einstein_check exact_r_cross_layer exact_ricci_eigenvalues"),
    ("fibration", "FibrationReport all_fibrations fibration_subalgebras"),
    ("nk_analyzer", "build_report canonical_J ricci_tensors"),
    ("rootsys", "InnerClass RootSystem build_root_system enumerate_inner_order3 root_string"
                " subsystem_type"),
) for name in names.split()}

__all__ = sorted(_HOME)


def __getattr__(name: str):
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f".{_HOME[name]}", __name__), name)
