"""Characters and trace functions on the 3-holed sphere, 1-holed torus
and 4-holed sphere, with lazy propagation over the modular configuration.

Slope conventions for both level-1 surfaces: the seed triangle sits at
(0/1, 1/0, 1/1).  On the 4-holed sphere each slope class separates the
four boundary components into pairs; the pairing depends only on the
parity of (p, q), anchored by the generator dictionary
alpha1 = [x1 x2], alpha2 = [x2 x3], alpha3 = [x1 x3] with boundary
words x1, x2, x3, x1x2x3.
"""

from __future__ import annotations

import math
import operator
import sys
from dataclasses import dataclass

from .qfield import characteristic, too_many_digits
from .sl2 import Rep, delta_values, realize_triple
from .farey import BASE_TRIANGLE, farey_walk
from .fricke import subset_trace_assignment


class SurfaceError(ValueError):
    pass


def half_product(a, b):
    """a*b/2, read as b when a = 2 in characteristic 2."""
    ctx = a.ctx
    if characteristic(ctx) == 2:
        if a != ctx.from_int(2):
            raise SurfaceError("char-2 half product needs a = 2")
        return b
    return a * b / ctx.from_int(2)


def _size_check(ctx):
    """Over Q, a check for each base scalar a walk stores: once its numerator
    or denominator is too long to print (more than
    sys.get_int_max_str_digits() digits, told by bit_length()) it raises the
    error printing would, so the walk stops before its values grow further.
    None over F_p, whose values are bounded, or with no digit limit."""
    digits = sys.get_int_max_str_digits()
    if characteristic(ctx) != 0 or not digits:
        return None
    bits = math.ceil(digits * math.log2(10))  # an integer past it has more digits

    def check(x):
        if x.numerator.bit_length() > bits or x.denominator.bit_length() > bits:
            raise too_many_digits()
    return check


def _step_field(ctx, seeds):
    """The field a Farey step loop runs in, chosen once from its seeds:
    (lower, wrap, mul, sub, check).  When every seed is at tower level 0 the
    memo holds base scalars (int or Fraction over Q, int mod p over F_p),
    `lower` takes a seed to its scalar and `wrap` a scalar back to a
    TowerElement, so a step builds no element; otherwise the memo holds
    TowerElements and both are the identity.  `check` is the size guard of
    each stored value, or None."""
    check_scalar = _size_check(ctx)
    if all(v.level == 0 for v in seeds):
        return (lambda v: v.coords[0]), ctx.from_base, ctx.base.mul, ctx.base.sub, check_scalar

    def check(v):
        for x in v.coords:
            check_scalar(x)
    same = lambda v: v
    return same, same, operator.mul, operator.sub, check_scalar and check


# ---------------------------------------------------------------------------
# 3-holed sphere


@dataclass(frozen=True)
class Sigma03Verdict:
    is_character: bool
    reducible: bool
    residual: object


def sigma03_check(v1, v2, v3):
    """Any value triple is a character; reducible iff the delta form vanishes."""
    res = delta_values(v1, v2, v3)
    return Sigma03Verdict(True, res.is_zero(), res)


def sigma03_special(v1, v2, v3, char):
    """Reducibility under v1^2 = 4: v3 = v1 v2 / 2 (char != 2) or
    v3 = v2 (char 2)."""
    ctx = v1.ctx
    if v1 * v1 != ctx.from_int(4):
        raise SurfaceError("first value must square to 4")
    if char == 2:
        return v3 == v2
    return v3 == half_product(v1, v2)


# ---------------------------------------------------------------------------
# 1-holed torus


class TF11:
    """Trace function on the 1-holed torus, seeded on the base triangle."""

    def __init__(self, v1, v2, v3):
        self.ctx = v1.ctx
        self._seed = (v1, v2, v3)
        self.boundary = delta_values(v1, v2, v3) + 2
        lower, self._wrap, self._mul, self._sub, self._check = _step_field(self.ctx, self._seed)
        self.values = dict(zip(BASE_TRIANGLE, map(lower, self._seed)))

    def seed(self):
        return self._seed

    def query(self, slope):
        values = self.values
        if slope not in values:
            mul, sub, check = self._mul, self._sub, self._check
            for a, b, old, new in farey_walk(slope):
                if new in values:
                    continue
                v = sub(mul(values[a], values[b]), values[old])
                if check:
                    check(v)
                values[new] = v
        return self._wrap(values[slope])

    def reducible(self):
        return delta_values(*self.seed()).is_zero()

    def triangle_boundary_residual(self, a, b, c):
        """Boundary value recomputed from any triangle (conservation check)."""
        return delta_values(self.query(a), self.query(b), self.query(c)) + 2


def tf11_extend(v1, v2, v3):
    return TF11(v1, v2, v3)


def tf11_realize(tf):
    """Rank-2 rep whose slope traces reproduce the trace function."""
    ctx = tf.ctx
    v1, v2, v3 = tf.seed()
    two = ctx.from_int(2)
    a1, a2, _ = realize_triple(v1, v2, two, v3, v2, v1, ctx)
    return Rep([a1, a2])


# ---------------------------------------------------------------------------
# 4-holed sphere


# boundary pairs split off by a slope class, keyed by (p mod 2, q mod 2);
# indices are 0-based into the boundary 4-tuple (x1, x2, x3, x1x2x3).
# A Farey triangle has one slope in each class; the base triangle
# (0/1, 1/0, 1/1) lists them in this order.
PAIRING = {
    (0, 1): ((0, 1), (2, 3)),  # alpha1 = [x1 x2]
    (1, 0): ((1, 2), (0, 3)),  # alpha2 = [x2 x3]
    (1, 1): ((0, 2), (1, 3)),  # alpha3 = [x1 x3]
}


def tf04_residual(boundary, triangle):
    """The 4-holed-sphere character relation; zero iff the boundary values
    and the triangle values (in PAIRING order) are character data.  Serves
    int and tower values alike."""
    b1, b2, b3, b4 = boundary
    u1, u2, u3 = triangle
    return (
        u1 * u1 + u2 * u2 + u3 * u3 + u1 * u2 * u3
        + b1 * b1 + b2 * b2 + b3 * b3 + b4 * b4 + b1 * b2 * b3 * b4
        - u1 * (b1 * b2 + b3 * b4)
        - u2 * (b2 * b3 + b1 * b4)
        - u3 * (b1 * b3 + b2 * b4)
        - 4
    )


class TF04:
    """Trace function on the 4-holed sphere: boundary values plus a seed
    triangle, propagated over the modular configuration."""

    def __init__(self, boundary, triangle):
        self.ctx = boundary[0].ctx
        self.boundary = b = tuple(boundary)
        self._seed = tuple(triangle)
        lower, self._wrap, self._mul, self._sub, self._check = _step_field(
            self.ctx, b + self._seed)
        self.values = dict(zip(BASE_TRIANGLE, map(lower, self._seed)))
        # b_i b_j + b_k b_l for each slope class, the constant of its step
        self.pair_terms = {
            cls: lower(b[i] * b[j] + b[k] * b[l]) for cls, ((i, j), (k, l)) in PAIRING.items()
        }

    def seed(self):
        return self._seed

    def residual(self):
        return tf04_residual(self.boundary, self.seed())

    def query(self, slope):
        values = self.values
        if slope not in values:
            mul, sub, check, terms = self._mul, self._sub, self._check, self.pair_terms
            for a, b, old, new in farey_walk(slope):
                if new in values:
                    continue
                v = sub(sub(terms[new[0] & 1, new[1] & 1], mul(values[a], values[b])), values[old])
                if check:
                    check(v)
                values[new] = v
        return self._wrap(values[slope])

    def triangle_residual(self, a, b, c):
        """The character relation at the Farey triangle (a, b, c), in any order."""
        by_class = {(s.p % 2, s.q % 2): self.query(s) for s in (a, b, c)}
        if len(by_class) != 3:
            raise SurfaceError(f"{a}, {b}, {c} is not a Farey triangle")
        return tf04_residual(self.boundary, [by_class[cls] for cls in PAIRING])

    def restrictions(self):
        """The six pants value-triples (alpha_i with its flanking pairs)."""
        return [(u, self.boundary[i], self.boundary[j])
                for u, pairs in zip(self.seed(), PAIRING.values()) for i, j in pairs]

    def reducible(self):
        return all(sigma03_check(*triple).reducible for triple in self.restrictions())


def tf04_extend(boundary, triangle):
    tf = TF04(boundary, triangle)
    res = tf.residual()
    if not res.is_zero():
        raise SurfaceError(f"seed data is not a character (residual {res!r})")
    return tf


def tf04_realize(tf):
    """Rank-3 rep matching boundary, triangle and the 4th boundary trace."""
    ctx = tf.ctx
    b1, b2, b3, b4 = tf.boundary
    u1, u2, u3 = tf.seed()
    mats = realize_triple(b1, b2, b3, u1, u2, u3, ctx)
    t123 = (mats[0] * mats[1] * mats[2]).trace()
    if t123 != b4:
        mats = tuple(m.inverse() for m in mats)
        t123 = (mats[0] * mats[1] * mats[2]).trace()
    if t123 != b4:
        raise SurfaceError("4th boundary trace matches neither triple-product root")
    return Rep(list(mats))


def tf04_from_rep(rep):
    """Harvest 4-holed-sphere data from a rank-3 rep."""
    a = subset_trace_assignment(rep)
    boundary = (a[(1,)], a[(2,)], a[(3,)], a[(1, 2, 3)])
    triangle = (a[(1, 2)], a[(2, 3)], a[(1, 3)])
    return TF04(boundary, triangle)


# ---------------------------------------------------------------------------
# the +-2 lemma for the 4-holed sphere


@dataclass(frozen=True)
class PM2Verdict:
    extends: bool
    reducible: bool
    residual: object


def pm2_check(boundary, triangle):
    """Extension test for +-2-valued seed data (characteristic != 2).

    Extends exactly when the seed residual vanishes; the necessary
    product law 2*prod(triangle) = prod(boundary) is implied.  Reducible
    iff the boundary product is 16.
    """
    ctx = boundary[0].ctx
    if characteristic(ctx) == 2:
        raise SurfaceError("pm2 analysis needs characteristic != 2")
    two, m2 = ctx.from_int(2), ctx.from_int(-2)
    for v in (*boundary, *triangle):
        if v != two and v != m2:
            raise SurfaceError("pm2 analysis needs values in {2, -2}")
    res = tf04_residual(boundary, triangle)
    if not res.is_zero():
        return PM2Verdict(False, False, res)
    bprod = boundary[0] * boundary[1] * boundary[2] * boundary[3]
    return PM2Verdict(True, bprod == ctx.from_int(16), res)


def tf_seed_to_json(kind, boundary, triangle):
    return {
        "surface": kind,
        "boundary": [v.to_json() for v in boundary],
        "triangle": [v.to_json() for v in triangle],
    }


def tf_seed_from_json(ctx, obj):
    """Load a TF11 or TF04 from its seed record."""
    from .qfield import TowerElement

    triangle = [TowerElement.from_json(ctx, v) for v in obj["triangle"]]
    if obj["surface"] == "sigma11":
        return tf11_extend(*triangle)
    if obj["surface"] == "sigma04":
        boundary = [TowerElement.from_json(ctx, v) for v in obj["boundary"]]
        return tf04_extend(boundary, triangle)
    raise SurfaceError(f"unknown surface {obj['surface']!r}")
