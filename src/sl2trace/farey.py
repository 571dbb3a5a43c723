"""The modular configuration on Q u {oo}: neighbor relation, triangle
completion, deterministic walks from the base triangle, and the
Christoffel word map for slopes on the once-punctured torus."""

from __future__ import annotations

import math
from collections import namedtuple

from .fricke import Word


class FareyError(ValueError):
    pass


class Slope(namedtuple("Slope", "p q")):
    """Reduced fraction p/q with q >= 0; infinity is 1/0.

    A Slope is the tuple (p, q): it equals and hashes like its vector.
    Tuple order is lexicographic on (p, q), not the order on Q."""

    __slots__ = ()

    def __new__(cls, p, q):
        if q > 0 and math.gcd(p, q) == 1:
            return tuple.__new__(cls, (p, q))
        if q == 0 and p == 0:
            raise FareyError("0/0 is not a slope")
        g = math.gcd(p, q)
        p, q = p // g, q // g
        if q < 0 or (q == 0 and p < 0):
            p, q = -p, -q
        return tuple.__new__(cls, (p, q))

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
    whose Stern-Brocot descent makes every step a quadrilateral.  For a
    positive target, a < new < b in Q: a and b are the interval
    endpoints and new is their mediant."""

    __slots__ = ()

    def to_json(self):
        return [str(self.a), str(self.b), str(self.old), str(self.new)]


def farey_walk(target):
    """Deterministic quadrilateral walk from the base triangle to target.

    Stern-Brocot descent: each step keeps the two interval endpoints,
    drops the third vertex, and adjoins the mediant.
    """
    if target in BASE_TRIANGLE:
        return []
    # the mediant of Farey neighbours is reduced with q > 0, so each new
    # Slope and FareyStep is built as a tuple, with no gcd
    new = tuple.__new__
    tp, tq = target
    # lo is a vector ((-1, 0) is -oo) and lo_s its slope; hi is a slope
    if tp < 0:
        lo, lo_s, hi, med = (-1, 0), INF, ZERO, new(Slope, (-1, 1))
        steps = [new(FareyStep, (ZERO, INF, ONE, med))]
    elif tp < tq:
        lo, lo_s, hi, med = ZERO, ZERO, ONE, new(Slope, (1, 2))
        steps = [new(FareyStep, (ZERO, ONE, INF, med))]
    else:
        lo, lo_s, hi, med = ONE, ONE, INF, new(Slope, (2, 1))
        steps = [new(FareyStep, (ONE, INF, ZERO, med))]
    while med != target:
        if tp * med[1] < med[0] * tq:
            hi, third = med, hi
        else:
            lo, lo_s, third = med, med, lo_s
        med = new(Slope, (lo[0] + hi[0], lo[1] + hi[1]))
        steps.append(new(FareyStep, (lo_s, hi, third, med)))
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
    w(0/1) = x1, w(1/0) = x2, w(mediant) = w(left) w(right), built along
    the walk to r; negative slopes apply x1 -> x1^-1 to the word of |r|."""
    if r.p < 0:
        pos = slope_word_torus(Slope(-r.p, r.q))
        return Word(tuple(-k if abs(k) == 1 else k for k in pos.letters))
    words = {ZERO: (1,), INF: (2,), ONE: (1, 2)}
    for a, b, _, new in farey_walk(r):
        words[new] = words[a] + words[b]  # a < new < b
    return Word(words[r])


def slopes_in_box(bound):
    """All slopes with |p| <= bound and q <= bound (plus infinity)."""
    out = [INF]
    for q in range(1, bound + 1):
        for p in range(-bound, bound + 1):
            if math.gcd(abs(p), q) == 1:
                out.append(Slope(p, q))
    return out
