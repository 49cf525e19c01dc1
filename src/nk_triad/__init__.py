"""Compact 3-symmetric spaces and their nearly Kahler invariants."""

__version__ = "1.0.0"

from .automorph import (
    InnerClass,
    OrderThreeSymmetricSpace,
    classify_type,
    enumerate_inner_order3,
    realize_cyclic_c3,
    realize_inner,
    realize_triality_d4,
)
from .chevalley import ChevalleyData, build_structure_constants, verify_triangle_identity
from .compactform import CompactAlgebra, adjoint_action_exp, build_compact_form
from .fibration import FibrationReport, all_fibrations, check_lie_triple_system, fibration_subalgebras
from .nk_analyzer import (NKReport, build_report, canonical_J, einstein_check, exact_r_cross_layer,
                          exact_ricci_eigenvalues, lk_classification, ricci_tensors)
from .rootsys import Root, RootSystem, build_root_system, root_string, subsystem_type

__all__ = [
    "ChevalleyData",
    "CompactAlgebra",
    "FibrationReport",
    "InnerClass",
    "NKReport",
    "OrderThreeSymmetricSpace",
    "Root",
    "RootSystem",
    "adjoint_action_exp",
    "all_fibrations",
    "build_compact_form",
    "build_report",
    "build_root_system",
    "build_structure_constants",
    "canonical_J",
    "check_lie_triple_system",
    "classify_type",
    "einstein_check",
    "enumerate_inner_order3",
    "exact_r_cross_layer",
    "exact_ricci_eigenvalues",
    "fibration_subalgebras",
    "lk_classification",
    "realize_cyclic_c3",
    "realize_inner",
    "realize_triality_d4",
    "ricci_tensors",
    "root_string",
    "subsystem_type",
    "verify_triangle_identity",
]
