"""Vertical Lie triple systems and the canonical twistor fibrations.

For a vertical layer V of a type III/IV space the two relevant subalgebras are

    g_V    = V + [V, V]          (an ideal of the next one)
    gbar_V = V + k

gbar_V is the fixed algebra of an explicit inner involution, the fiber of the
canonical fibration is Gbar_V / K with tangent space V, and the base is
G / Gbar_V.  Everything here is exact root combinatorics: subalgebras are
closed root subsets plus Cartan directions, and types are read off through
the Dynkin classification of the subsystem, never from dimension counts.
V and k are the root sets of the inner class's split
(``rootsys.InnerClass.split``), so no space is realized and no float module
is loaded.  Root subsets are boolean masks over the roots of ``rootsys``, so
the closure, the closure check on V + k, the ideal check and the comparison
with the involution's fixed points are mask reads of the root-addition table
``RootSystem.plus``, and the involution is one array of angles on all roots
(``alpha_levels``), whose level-0 mask must be V + k.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .rootsys import InnerClass, NotClosed, RootSystem, SubsystemType, alpha_levels, subsystem_type


class NonClosedSubalgebra(RuntimeError):
    """A bracket closure produced vectors outside the candidate subalgebra."""


class NotInvolutive(ValueError):
    """The candidate automorphism does not square to the identity."""


@dataclass
class FibrationReport:
    vertical_label: str
    g_v_type: SubsystemType
    gbar_v_type: SubsystemType
    g_v_dim: int
    gbar_v_dim: int
    fiber_dim: int
    base_dim: int
    involution_h: tuple[tuple[int, Fraction], ...]
    base_hermitian: bool
    note: str = ""


def _root_closure(rs: RootSystem, seed: np.ndarray) -> np.ndarray:
    """Mask of the smallest negation-symmetric, closed root set containing the mask seed."""
    full = seed | seed[rs.neg]
    new = full
    while new.any():
        new = rs.sum_mask(full, new) & ~full
        full |= new
    return full


_HALF, _ONE = Fraction(1, 2), Fraction(1)
_INVOLUTION_RULES = {
    ("A3II", "V1"): lambda i, j: ((i, _HALF), (j, _HALF)),
    ("A3II", "V2"): lambda i, j: ((j, _HALF),),
    ("A3II", "V3"): lambda i, j: ((i, _HALF),),
    ("A3III", "V"): lambda i: ((i, _ONE),),
}


def fibration_subalgebras(rs: RootSystem, spec: InnerClass,
                          vertical_label: str) -> FibrationReport:
    """Compute (g_V, gbar_V) for one vertical layer of an inner class and
    classify both, from the root split of the class alone."""
    if spec.kind not in ("A3II", "A3III"):
        raise NonClosedSubalgebra("canonical fibrations need a type III/IV space")
    layer_roots, k_roots = spec.split(rs)
    if vertical_label not in layer_roots:
        raise KeyError(f"no vertical layer {vertical_label}")
    v = np.zeros(2 * rs.n_positive, dtype=bool)
    v[layer_roots[vertical_label]] = True

    # g_V is semisimple: its rank is that of its simple roots, and it has no torus
    closure = _root_closure(rs, v)
    g_v = subsystem_type(rs, closure)
    g_v_type = SubsystemType(g_v.components, 0)
    g_v_dim = int(closure.sum()) + rs.rank - g_v.torus_rank

    gbar_pos = v.copy()
    gbar_pos[k_roots] = True
    gbar = gbar_pos | gbar_pos[rs.neg]
    try:        # gbar is negation-symmetric, so NotClosed means a sum left it
        gbar_v_type = subsystem_type(rs, gbar)
    except NotClosed:
        raise NonClosedSubalgebra("V + k is not bracket-closed") from None
    gbar_v_dim = 2 * int(gbar_pos.sum()) + rs.rank

    # g_V must be an ideal of gbar_V (both sets are negation-symmetric)
    if (rs.sum_mask(gbar_pos, closure) & ~closure).any():
        raise NonClosedSubalgebra("V + [V,V] is not an ideal of V + k")

    invol = _INVOLUTION_RULES[(spec.kind, vertical_label)](*spec.nodes)
    levels, d = alpha_levels(rs, invol)
    off = np.flatnonzero((levels != 0) & (2 * levels != d))
    if off.size:
        raise NotInvolutive(f"root angle {Fraction(int(levels[off[0]]), d)} is not a half-turn")
    if ((levels == 0) != gbar).any():
        raise NonClosedSubalgebra("involution fixed points differ from V + k")

    fiber_dim = 2 * len(layer_roots[vertical_label])
    note = ""
    if spec.kind == "A3III" and fiber_dim == 2 and rs.family == "c" \
            and spec.nodes == (1,):
        note = ("odd projective space carries the symplectic-group metric here, "
                "not the symmetric one")
    return FibrationReport(
        vertical_label, g_v_type, gbar_v_type, g_v_dim, gbar_v_dim,
        fiber_dim, rs.rank + 2 * rs.n_positive - gbar_v_dim, invol,
        base_hermitian=gbar_v_type.torus_rank >= 1, note=note,
    )


def all_fibrations(rs: RootSystem, spec: InnerClass) -> list[FibrationReport]:
    labels = ("V1", "V2", "V3") if spec.kind == "A3II" else ("V",)
    return [fibration_subalgebras(rs, spec, lbl) for lbl in labels]
