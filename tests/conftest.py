import cProfile
import functools
import itertools
import pstats
from fractions import Fraction

import pytest

from nk_triad.rootsys import RootSystem, SubsystemType
from nk_triad.tables import cached_algebra, cached_root_system


@pytest.fixture(scope="session")
def algebra():
    """Session-cached compact-form factory."""
    return cached_algebra


@pytest.fixture(scope="session")
def rootsys():
    return cached_root_system


def rational_rank(vectors):
    """Rank by Gaussian elimination over Fraction rows (reference)."""
    rows = [[Fraction(c) for c in v] for v in vectors]
    rank = 0
    ncols = len(rows[0]) if rows else 0
    col = 0
    while rank < len(rows) and col < ncols:
        pivot = next((r for r in range(rank, len(rows)) if rows[r][col]), None)
        if pivot is None:
            col += 1
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        lead = rows[rank][col]
        for r in range(len(rows)):
            if r != rank and rows[r][col]:
                factor = rows[r][col] / lead
                rows[r] = [x - factor * y for x, y in zip(rows[r], rows[rank])]
        rank += 1
        col += 1
    return rank


def _matrices_isomorphic(a, b) -> bool:
    """Whether two Cartan matrices agree up to a permutation of the nodes."""
    n = len(a)
    if len(b) != n:
        return False
    sig = lambda m, i: tuple(sorted(m[i][j] * m[j][i] for j in range(n) if j != i and m[i][j]))
    asig = [(a[i][i], sig(a, i)) for i in range(n)]
    bsig = [(b[i][i], sig(b, i)) for i in range(n)]
    if sorted(asig) != sorted(bsig):
        return False

    def extend(mapping):
        if len(mapping) == n:
            return True
        i = len(mapping)
        used = set(mapping.values())
        for j in range(n):
            if j in used or asig[i] != bsig[j]:
                continue
            if all(a[i][k] == b[j][mapping[k]] and a[k][i] == b[mapping[k]][j]
                   for k in mapping):
                mapping[i] = j
                if extend(mapping):
                    return True
                del mapping[i]
        return False

    return extend({})


@functools.cache
def _candidate_cartan(family, rank):
    try:
        return RootSystem(family, rank).cartan_matrix
    except ValueError:
        return None


def _identify_component(cartan):
    """Reference naming: the first candidate type of the same rank whose
    Cartan matrix is isomorphic (a before b before c, so a1, b2, a3 are
    canonical)."""
    rank = len(cartan)
    for family in "abcdefg":
        candidate = _candidate_cartan(family, rank)
        if candidate is not None and _matrices_isomorphic(cartan, candidate):
            return family, rank
    raise AssertionError(f"rank-{rank} component matches no simple type")


def fraction_subsystem_type(rs, roots, ambient_rank=None):
    """Reference classification on coefficient tuples: pairwise closure by
    is_root, indecomposables by tuple subtraction, the rank by Fraction
    elimination over all positives and the Cartan matrix from Fraction inner
    products."""
    subset = {tuple(r) for r in roots}
    for c in subset:
        assert rs.is_root(c), c
        assert tuple(-x for x in c) in subset, "not closed under negation"
    for x, y in itertools.combinations(subset, 2):
        s = tuple(a + b for a, b in zip(x, y))
        assert not (any(s) and rs.is_root(s) and s not in subset), "not closed"

    ambient = rs.rank if ambient_rank is None else ambient_rank
    positives = sorted(c for c in subset if c in rs._index)
    torus = ambient - (rational_rank(positives) if positives else 0)
    if not positives:
        return SubsystemType((), torus)
    posset = set(positives)
    simples = [beta for beta in positives
               if not any(tuple(b - g for b, g in zip(beta, gamma)) in posset
                          for gamma in positives if gamma != beta)]
    m = len(simples)
    cartan = [[int(2 * rs.inner(simples[i], simples[j]) / rs.norm_sq(simples[j]))
               for j in range(m)] for i in range(m)]
    comps, seen = [], set()
    for start in range(m):
        if start in seen:
            continue
        stack, comp = [start], []
        while stack:
            node = stack.pop()
            if node in seen:
                continue
            seen.add(node)
            comp.append(node)
            stack.extend(j for j in range(m) if j not in seen and cartan[node][j])
        comps.append(sorted(comp))
    names = [_identify_component([[cartan[i][j] for j in c] for i in c]) for c in comps]
    return SubsystemType(tuple(sorted(names)), torus)


@pytest.fixture(scope="session")
def subsystem_oracle():
    """The Fraction reference for ``rootsys.subsystem_type``."""
    return fraction_subsystem_type


@pytest.fixture(scope="session")
def rank_oracle():
    """The Fraction reference for ``rootsys._bareiss_rank``."""
    return rational_rank


@pytest.fixture(scope="session")
def fraction_count():
    """fn(*args) and the number of Fraction objects it constructed, by cProfile."""
    def count(fn, *args):
        prof = cProfile.Profile()
        result = prof.runcall(fn, *args)
        return result, sum(stat[1] for (path, _, name), stat in pstats.Stats(prof).stats.items()
                           if name == "__new__" and path.endswith("fractions.py"))
    return count
