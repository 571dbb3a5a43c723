"""The modular configuration on Q u {oo}: neighbor relation, triangle
completion, deterministic walks from the base triangle, and the
Christoffel word map for slopes on the once-punctured torus."""

from __future__ import annotations

import math
from collections import namedtuple
from dataclasses import dataclass

from .fricke import Word


class FareyError(ValueError):
    pass


@dataclass(frozen=True, order=False)
class Slope:
    """Reduced fraction p/q with q >= 0; infinity is 1/0."""

    p: int
    q: int

    def __post_init__(self):
        p, q = self.p, self.q
        if q > 0 and math.gcd(p, q) == 1:
            return
        if q == 0 and p == 0:
            raise FareyError("0/0 is not a slope")
        g = math.gcd(abs(p), abs(q))
        p, q = p // g, q // g
        if q < 0 or (q == 0 and p < 0):
            p, q = -p, -q
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "q", q)

    @classmethod
    def parse(cls, text):
        if "/" in text:
            a, b = text.split("/", 1)
            return cls(int(a), int(b))
        return cls(int(text), 1)

    def __str__(self):
        return f"{self.p}/{self.q}"

    def vector(self):
        return (self.p, self.q)


INF = Slope(1, 0)
ZERO = Slope(0, 1)
ONE = Slope(1, 1)
BASE_TRIANGLE = (ZERO, INF, ONE)


def is_neighbor(r, s):
    """Modular relation: |p q' - p' q| = 1."""
    return abs(r.p * s.q - r.q * s.p) == 1


def complete_triangle(r, s):
    """The two slopes completing a neighbor pair to triangles
    (vector sum and difference)."""
    if not is_neighbor(r, s):
        raise FareyError(f"{r} and {s} are not neighbors")
    rp, rq = r.vector()
    sp, sq = s.vector()
    # det(r, r +- s) = det(r, s) = +-1: both neighbor r and s
    return (Slope(rp + sp, rq + sq), Slope(rp - sp, rq - sq))


class FareyStep(namedtuple("FareyStep", "a b old new")):
    """Quadrilateral step: (a, b, old) is a visited triangle and new is
    the other completion of the edge (a, b).  Built only by `farey_walk`,
    whose Stern-Brocot descent makes every step a quadrilateral."""

    __slots__ = ()

    def to_json(self):
        return [str(self.a), str(self.b), str(self.old), str(self.new)]


def _lt(u, v):
    """Order on slope vectors with q >= 0; (-1,0) acts as -oo, (1,0) as +oo."""
    return u[0] * v[1] < v[0] * u[1]


def farey_walk(target):
    """Deterministic quadrilateral walk from the base triangle to target.

    Stern-Brocot descent: each step keeps the two interval endpoints,
    drops the third vertex, and adjoins the mediant.
    """
    if not isinstance(target, Slope):
        target = Slope.parse(str(target))
    if target in BASE_TRIANGLE:
        return []
    steps = []
    t = target.vector()
    # vectors drive the descent ((-1, 0) is -oo); the *_s names hold
    # their slopes, so each step builds only the mediant's Slope
    if target.p < 0:
        lo, hi, med = (-1, 0), (0, 1), (-1, 1)
        lo_s, hi_s = INF, ZERO
        steps.append(FareyStep(ZERO, INF, ONE, Slope(-1, 1)))
    elif _lt(t, (1, 1)):
        lo, hi, med = (0, 1), (1, 1), (1, 2)
        lo_s, hi_s = ZERO, ONE
        steps.append(FareyStep(ZERO, ONE, INF, Slope(1, 2)))
    else:
        lo, hi, med = (1, 1), (1, 0), (2, 1)
        lo_s, hi_s = ONE, INF
        steps.append(FareyStep(ONE, INF, ZERO, Slope(2, 1)))
    med_s = steps[-1].new
    while med != t:
        if _lt(t, med):
            hi, hi_s, third_s = med, med_s, hi_s
        else:
            lo, lo_s, third_s = med, med_s, lo_s
        med = (lo[0] + hi[0], lo[1] + hi[1])
        med_s = Slope(*med)
        steps.append(FareyStep(lo_s, hi_s, third_s, med_s))
    return steps


def psl2z_act(matrix, r):
    """Fractional linear action of an integer matrix with det +-1."""
    (a, b), (c, d) = matrix
    if abs(a * d - b * c) != 1:
        raise FareyError("matrix determinant must be +-1")
    return Slope(a * r.p + b * r.q, c * r.p + d * r.q)


# ---------------------------------------------------------------------------
# Christoffel words on the once-punctured torus


def slope_word_torus(r):
    """Word of the simple closed curve of slope r, rank-2 conventions:
    w(0/1) = x1, w(1/0) = x2, w(mediant) = w(left) w(right); negative
    slopes apply x1 -> x1^-1 to the word of |r|."""
    if not isinstance(r, Slope):
        r = Slope.parse(str(r))
    if r.p < 0:
        pos = slope_word_torus(Slope(-r.p, r.q))
        return Word(tuple(-k if abs(k) == 1 else k for k in pos.letters))
    return Word(_christoffel(r.p, r.q))


def _christoffel(p, q):
    if (p, q) == (0, 1):
        return (1,)
    if (p, q) == (1, 0):
        return (2,)
    lo, lo_w = (0, 1), (1,)
    hi, hi_w = (1, 0), (2,)
    while True:
        med = (lo[0] + hi[0], lo[1] + hi[1])
        med_w = lo_w + hi_w
        if med == (p, q):
            return med_w
        if p * med[1] < med[0] * q:
            hi, hi_w = med, med_w
        else:
            lo, lo_w = med, med_w


def slopes_in_box(bound):
    """All slopes with |p| <= bound and q <= bound (plus infinity)."""
    out = [INF]
    for q in range(1, bound + 1):
        for p in range(-bound, bound + 1):
            if math.gcd(abs(p), q) == 1:
                out.append(Slope(p, q))
    return out
