"""Vertical Lie triple systems and the canonical twistor fibrations.

For a vertical layer V of a type III/IV space the two relevant subalgebras are

    g_V    = V + [V, V]          (an ideal of the next one)
    gbar_V = V + k

gbar_V is the fixed algebra of an explicit inner involution, the fiber of the
canonical fibration is Gbar_V / K with tangent space V, and the base is
G / Gbar_V.  Everything here is exact root combinatorics: subalgebras are
closed root subsets plus Cartan directions, and types are read off through
the Dynkin classification of the subsystem, never from dimension counts.
Root subsets are sets of the additive int root keys of ``rootsys``, so the
closure, the closure check on V + k and the ideal check are int additions
and set lookups, and the involution angles are int numerators over the lcm
of the denominators of c_k / m_k.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .automorph import OrderThreeSymmetricSpace
from .rootsys import RootSystem, SubsystemType, _bareiss_rank, alpha_levels, subsystem_type


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


def check_lie_triple_system(space: OrderThreeSymmetricSpace, nu,
                            tol: float = 1e-9) -> bool:
    """[nu,nu]_m inside nu and [[nu,nu]_k, nu] inside nu, to tolerance.

    ``nu`` is either a list of m-basis positions or a dm x r column matrix.
    """
    xi, kc, ak = space.tensors()
    dm = space.dim_m
    if isinstance(nu, np.ndarray) and nu.ndim == 2:
        cols = nu
    else:
        cols = np.eye(dm)[:, list(nu)]
    proj_out = np.eye(dm) - cols @ cols.T
    r = cols.shape[1]
    act = ak.reshape((space.dim_k, dm * dm)).T.tocsr()     # [(p, q), s] = ak[s, p, q]
    for a in range(r):
        for b in range(a + 1, r):
            pair = np.kron(cols[:, a], cols[:, b])
            # m-closure: [nu_a, nu_b]_m = -2 xi(nu_a, nu_b)
            if np.abs(proj_out @ (-2.0 * (xi.T @ pair))).max() > tol:
                return False
            if np.abs(proj_out @ (act @ (kc.T @ pair)).reshape(dm, dm) @ cols).max() > tol:
                return False
    return True


def _root_closure(rs: RootSystem, seed: set[int]) -> set[int]:
    """Keys of the smallest negation-symmetric, closed root set containing seed."""
    full = seed | {-k for k in seed}
    new = full
    while new:
        new = rs.root_sums(full, new) - full
        full |= new
    return full


def involution_fixed_points(rs: RootSystem, h_nodes: tuple[tuple[int, Fraction], ...]):
    """Positive roots fixed by Ad(exp 2 pi sqrt(-1) H'), H' = sum c_k H_k.

    Raises unless the rotation is an involution (every angle a half-turn).
    """
    levels, d = alpha_levels(rs, h_nodes)
    fixed = []
    for root, t in levels.items():
        if t == 0:
            fixed.append(root)
        elif 2 * t != d:
            raise NotInvolutive(f"root angle {Fraction(t, d)} is not a half-turn")
    return fixed


_HALF, _ONE = Fraction(1, 2), Fraction(1)
_INVOLUTION_RULES = {
    ("A3II", "V1"): lambda i, j: ((i, _HALF), (j, _HALF)),
    ("A3II", "V2"): lambda i, j: ((j, _HALF),),
    ("A3II", "V3"): lambda i, j: ((i, _HALF),),
    ("A3III", "V"): lambda i: ((i, _ONE),),
}


def fibration_subalgebras(space: OrderThreeSymmetricSpace,
                          vertical_label: str) -> FibrationReport:
    """Compute (g_V, gbar_V) for one vertical layer and classify both."""
    if space.type_label not in ("A3II", "A3III"):
        raise NonClosedSubalgebra("canonical fibrations need a type III/IV space")
    if vertical_label not in space.layer_roots:
        raise KeyError(f"no vertical layer {vertical_label}")
    rs = space.algebra.rs
    coeffs = rs._coeffs_of
    v_keys = {rs.key(c) for c in space.layer_roots[vertical_label]}

    closure = _root_closure(rs, v_keys)
    pos = [coeffs[k] for k in closure & rs.positive_keys]
    g_v_rank = _bareiss_rank(pos)
    g_v_type = subsystem_type(rs, [coeffs[k] for k in closure], ambient_rank=g_v_rank)
    g_v_dim = 2 * len(pos) + g_v_rank

    gbar_pos = v_keys | {rs.key(c) for c in space.delta_plus_h}
    gbar = gbar_pos | {-k for k in gbar_pos}
    if rs.root_sums(gbar_pos, gbar) - gbar:
        raise NonClosedSubalgebra("V + k is not bracket-closed")
    gbar_v_type = subsystem_type(rs, [coeffs[k] for k in gbar], ambient_rank=rs.rank)
    gbar_v_dim = 2 * len(gbar_pos) + rs.rank

    # g_V must be an ideal of gbar_V (both sets are negation-symmetric)
    if rs.root_sums(gbar_pos, closure) - closure:
        raise NonClosedSubalgebra("V + [V,V] is not an ideal of V + k")

    fiber_dim = 2 * len(v_keys)
    base_dim = space.algebra.dim - gbar_v_dim
    if fiber_dim != gbar_v_dim - (space.algebra.dim - space.dim_m):
        raise NonClosedSubalgebra("fiber dimension bookkeeping failed")

    nodes = space.h_spec.nodes
    invol = _INVOLUTION_RULES[(space.type_label, vertical_label)](*nodes)
    fixed = involution_fixed_points(rs, invol)
    if {rs.key(c) for c in fixed} != gbar_pos:
        raise NonClosedSubalgebra("involution fixed points differ from V + k")

    note = ""
    if space.type_label == "A3III" and fiber_dim == 2 and rs.family == "c" \
            and nodes == (1,):
        note = ("odd projective space carries the symplectic-group metric here, "
                "not the symmetric one")
    return FibrationReport(
        vertical_label, g_v_type, gbar_v_type, g_v_dim, gbar_v_dim,
        fiber_dim, base_dim, invol,
        base_hermitian=gbar_v_type.torus_rank >= 1, note=note,
    )


def all_fibrations(space: OrderThreeSymmetricSpace) -> list[FibrationReport]:
    labels = ("V1", "V2", "V3") if space.type_label == "A3II" else ("V",)
    return [fibration_subalgebras(space, lbl) for lbl in labels]
