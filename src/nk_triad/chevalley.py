"""Sign-consistent structure constants N_{a,b} for a Weyl basis.

The basis is normalized so that the invariant form pairs opposite root vectors
to 1.  In that normalization the constants satisfy

    N_{a,b} = -N_{b,a},   N_{a,b} = -N_{-a,-b},
    N_{a,b} = N_{b,c} = N_{c,a}          whenever a + b + c = 0,
    N_{a,b}^2 = q(1-p)/2 * <a,a>         with (p, q) the a-string through b.

Only the squares are rational in general; the table stores exact squares plus
a sign, fixing signs by assigning +1 to the extraspecial pair of every
positive root (minimal decomposition in height-then-lex order) and
propagating through the antisymmetries, the zero-sum triple identity, and the
four-term contraction that expresses any other decomposition of a positive
root against its extraspecial one.  Any consistent choice produces the same
squares; determinism here is what makes downstream tables reproducible.
"""

from __future__ import annotations

import math
import operator
from fractions import Fraction

from .rootsys import Coeffs, NotARoot, RootSystem, root_string


class SignInconsistency(RuntimeError):
    """Sign propagation contradicted itself; indicates an internal bug."""


class IdentityViolation(AssertionError):
    """An algebraic identity of the constants failed."""


def _neg(c: Coeffs) -> Coeffs:
    return tuple(map(operator.neg, c))


def _add(a: Coeffs, b: Coeffs) -> Coeffs:
    return tuple(map(operator.add, a, b))


def _sub(a: Coeffs, b: Coeffs) -> Coeffs:
    return tuple(map(operator.sub, a, b))


def _sqrt_fraction(q: Fraction) -> Fraction | None:
    """Exact square root of a nonnegative fraction, or None."""
    if q < 0:
        return None
    num = math.isqrt(q.numerator)
    den = math.isqrt(q.denominator)
    if num * num == q.numerator and den * den == q.denominator:
        return Fraction(num, den)
    return None


def _root_pairs(rs: RootSystem):
    """Every ordered pair of roots (a, b) whose sum gamma is a root, as
    (a, b, gamma, p, q) with (p, q) the bounds of the a-string through b.

    Roots are walked through their additive int keys (``RootSystem.key``):
    every vector probed below is a sum of two roots, so a sum or string step
    is an int addition and a dict lookup.
    """
    by_key = rs._coeffs_of
    for ka, a in by_key.items():
        for kb, b in by_key.items():
            gamma = by_key.get(ka + kb)
            if gamma is None:
                continue
            q = 1  # a + b is a root
            while kb + (q + 1) * ka in by_key:
                q += 1
            p = 0
            while kb + (p - 1) * ka in by_key:
                p -= 1
            yield a, b, gamma, p, q


class ChevalleyData:
    """Structure-constant table over a root system."""

    def __init__(self, rs: RootSystem):
        self.rs = rs
        # height-then-lex order drives the extraspecial-pair convention
        pos = [r.coeffs for r in rs.positive_roots]
        self._order = {c: k for k, c in enumerate(sorted(pos, key=lambda c: (sum(c), c)))}
        self._roots = rs._key_of
        self.n_sq: dict[tuple[Coeffs, Coeffs], Fraction] = {}
        self._sign: dict[tuple[Coeffs, Coeffs], int] = {}
        # extraspecial pair of gamma: the decomposition a + b of positive roots
        # with a first in the order
        self._extraspecial: dict[Coeffs, tuple[Coeffs, Coeffs]] = {}
        # N_{a,b}^2 = q(1-p)/2 * <a,a> = q(1-p) * 6<a,a> / 12, with 6<a,a> an int
        norm6 = {r.coeffs: int(6 * r.norm_sq) for r in rs.all_roots()}
        for a, b, gamma, p, q in _root_pairs(rs):
            self.n_sq[(a, b)] = Fraction(q * (1 - p) * norm6[a], 12)
            if a in self._order and b in self._order:
                best = self._extraspecial.get(gamma)
                if best is None or self._order[a] < self._order[best[0]]:
                    self._extraspecial[gamma] = (a, b)
        for key in self.n_sq:
            self._sign[key] = self._resolve_sign(*key)

    # -- signs ---------------------------------------------------------------

    def _resolve_sign(self, a: Coeffs, b: Coeffs) -> int:
        key = (a, b)
        if key in self._sign:
            return self._sign[key]
        a_pos = a in self._order
        b_pos = b in self._order
        if a_pos and b_pos:
            s = self._positive_pair_sign(a, b)
        elif not a_pos and not b_pos:
            s = -self._resolve_sign(_neg(a), _neg(b))
        else:
            # one sign each: rotate through the zero-sum triple (a, b, c),
            # c = -(a+b), onto the pair avoiding the mixed signs
            c = _neg(_add(a, b))
            if c in self._order:  # a+b negative
                s = self._resolve_sign(b, c) if b_pos else self._resolve_sign(c, a)
            else:  # a+b positive: land on an all-negative pair, then negate
                s = -self._resolve_sign(_neg(b), _neg(c)) if not b_pos \
                    else -self._resolve_sign(_neg(c), _neg(a))
        self._sign[key] = s
        return s

    def _positive_pair_sign(self, a: Coeffs, b: Coeffs) -> int:
        key = (a, b)
        if key in self._sign:
            return self._sign[key]
        if self._order[a] > self._order[b]:
            s = -self._positive_pair_sign(b, a)
            self._sign[key] = s
            return s
        gamma = _add(a, b)
        eps, eta = self._extraspecial[gamma]
        if (a, b) == (eps, eta):
            s = 1
        else:
            # contract the two decompositions of gamma through E_{-eps}:
            # N_{a,b} N_{gamma,-eps} = -N_{-eps,a} N_{a-eps,b} - N_{b,-eps} N_{b-eps,a}
            t = []
            for x, y in (((_neg(eps), a), (_sub(a, eps), b)),
                         ((b, _neg(eps)), (_sub(b, eps), a))):
                mid = _add(*x)
                if mid in self._roots and any(mid):
                    s1 = self._resolve_sign(*x)
                    s2 = self._resolve_sign(*y)
                    qq = self.n_sq[x] * self.n_sq[y]
                    t.append((s1 * s2, qq))
            if not t:
                raise SignInconsistency(f"no contraction terms for {a}+{b}")
            lhs_sq = self.n_sq[(a, b)] * self.n_sq[(gamma, _neg(eps))]
            if len(t) == 1:
                rhs_sign = -t[0][0]
                rhs_sq = t[0][1]
            else:
                if t[0][0] == t[1][0]:
                    rhs_sign = -t[0][0]
                elif t[0][1] == t[1][1]:
                    raise SignInconsistency(f"cancelling contraction at {a}+{b}")
                else:
                    rhs_sign = -t[0][0] if t[0][1] > t[1][1] else -t[1][0]
                cross = _sqrt_fraction(t[0][1] * t[1][1])
                if cross is None:
                    raise SignInconsistency(f"irrational contraction at {a}+{b}")
                rhs_sq = t[0][1] + t[1][1] + 2 * t[0][0] * t[1][0] * cross
            if rhs_sq != lhs_sq:
                raise SignInconsistency(f"magnitude mismatch at {a}+{b}")
            s = rhs_sign * self._resolve_sign(gamma, _neg(eps))
        self._sign[key] = s
        return s

    # -- public access -------------------------------------------------------

    def n_sign(self, a, b) -> int:
        key = (tuple(a), tuple(b))
        if key not in self._sign:
            raise NotARoot(f"{key[0]} + {key[1]} is not a root")
        return self._sign[key]

    def n_squared(self, a, b) -> Fraction:
        """Exact N^2; zero when a+b is not a root."""
        key = (tuple(a), tuple(b))
        return self.n_sq.get(key, Fraction(0))

    def n_value(self, a, b) -> float:
        """N as a float (exact sign, possibly irrational magnitude)."""
        key = (tuple(a), tuple(b))
        if key not in self.n_sq:
            return 0.0
        return self._sign[key] * math.sqrt(float(self.n_sq[key]))

    def n_exact(self, a, b) -> tuple[int, Fraction]:
        key = (tuple(a), tuple(b))
        if key not in self.n_sq:
            return 0, Fraction(0)
        return self._sign[key], self.n_sq[key]


def build_structure_constants(rs: RootSystem) -> ChevalleyData:
    return ChevalleyData(rs)


def verify_triangle_identity(cd: ChevalleyData) -> int:
    """Check N_{a,b} = N_{b,c} = N_{c,a} on all zero-sum triples; return count."""
    roots = sorted(cd._roots)
    count = 0
    seen = set()
    for a in roots:
        for b in roots:
            if b <= a:
                continue
            c = _neg(_add(a, b))
            if c not in cd._roots or not any(_add(a, b)):
                continue
            triple = tuple(sorted((a, b, c)))
            if triple in seen:
                continue
            seen.add(triple)
            vals = {cd.n_exact(a, b), cd.n_exact(b, c), cd.n_exact(c, a)}
            if len(vals) != 1:
                raise IdentityViolation(f"triple {a}, {b}, {c}: {vals}")
            count += 1
    return count


def verify_square_formula(cd: ChevalleyData) -> int:
    """Recheck every stored square against an independent string scan."""
    rs = cd.rs
    count = 0
    for (a, b), value in cd.n_sq.items():
        p, q = root_string(rs, a, b)
        expect = Fraction(q * (1 - p), 2) * rs.norm_sq(a)
        if value != expect:
            raise IdentityViolation(f"square mismatch at {a}, {b}: stored {value}, "
                                    f"string scan {expect}")
        count += 1
    return count
