"""The 5-holed sphere and planar trace functions.

Fixes a pentagon curve atlas with free-group words (rank 4, with the
fifth boundary letter x5 = (x1 x2 x3 x4)^-1), harvests the linear
elimination system that pins values outside the two 4-holed-sphere
sides, glues side characters into rank-4 reps, and enumerates the
finitely many exceptional trace functions.
"""

from __future__ import annotations

import functools
import heapq
import itertools
import operator
from dataclasses import dataclass
from typing import NamedTuple

from .qfield import characteristic, solve_quadratic
from .sl2 import Mat2, Rep, delta_values, diagonalize_family
from .farey import Slope
from .fricke import TracePolynomial, Word, reduce_trace_word, subset_trace_assignment
from .surfchar import TF04, sigma03_check, tf04_realize, tf04_residual


class PlanarError(ValueError):
    pass


# ---------------------------------------------------------------------------
# curve atlas

FIFTEEN_KEYS = (
    "1", "2", "3", "4", "1234",
    "12", "13", "14", "23", "24", "34",
    "123", "124", "134", "234",
)

_X5 = (-4, -3, -2, -1)


def _letter(i):
    """Word of the cyclic boundary letter x_i, i taken mod 5."""
    i = (i - 1) % 5 + 1
    return (i,) if i <= 4 else _X5


def _inv(word):
    return tuple(-k for k in reversed(word))


def key_word(key):
    """Word of a 15-element atlas class."""
    return tuple(int(c) for c in key)


def key_type(key):
    """Boundary pair split off by an interior atlas class."""
    s = frozenset(int(c) for c in key)
    if len(s) == 2:
        return s
    if len(s) == 3:
        return frozenset(range(1, 6)) - s
    raise PlanarError(f"{key!r} is not an interior class")


def pentagon_word(i):
    """alpha_i, the curve splitting off boundary pair {i, i+1}."""
    return _letter(i) + _letter(i + 1)


def boundary_word(i):
    i = (i - 1) % 5 + 1
    return (i,) if i <= 4 else (1, 2, 3, 4)


def product_word(i):
    """alpha_i alpha_{i+1} (resolution product of pentagon neighbors)."""
    return _letter(i) + _letter(i + 2)


def product_word_rev(i):
    """alpha_{i+1} alpha_i, the other completion of the shared edge."""
    return _letter(i) + _letter(i + 1) + _letter(i + 2) + _inv(_letter(i + 1))


_ALPHA_KEY = {1: "12", 2: "23", 3: "34", 4: "123", 5: "234"}


def pentagon_relations_check(rep):
    """Trace-level validation of the atlas word table on a rep.

    Checks the cyclic product relations, the adjacent cancellation
    relations, the boundary dictionary, and the six linear equation
    instances consumed by the elimination.
    """
    report = {}
    tr = lambda w: rep.image(w).trace()
    # alpha_i alpha_{i+1} alpha_{i+2} = alpha_{i+3} alpha_{i+4}: the triple
    # product resolves to the word x_i x_{i+3}
    report["cyclic_products"] = all(
        tr(_letter(i) + _letter(i + 3)) == tr(product_word(i + 3)) for i in range(1, 6)
    )
    # alpha_i alpha_{i+1} alpha_i = alpha_{i+1}: route through the shared
    # 4-holed sphere gives the word x_{i+2} x_{i+1}
    report["adjacent_cancellation"] = all(
        tr(_letter(i + 2) + _letter(i + 1)) == tr(pentagon_word(i + 1)) for i in range(1, 6)
    )
    report["boundary_closure"] = tr(boundary_word(5)) == tr(_inv(_X5))
    report["pentagon_vs_atlas"] = all(
        tr(pentagon_word(i)) == tr(key_word(_ALPHA_KEY[i])) for i in range(1, 6)
    )
    data = TraceData05.from_rep(rep)
    eqs = _equation_residuals(data)
    report["linear_equations"] = all(v.is_zero() for v in eqs.values())
    report["ok"] = all(report.values())
    return report


# ---------------------------------------------------------------------------
# trace data on the 15-element set


class TraceData05:
    """Values on the 15 atlas classes; equivalently a full subset-trace
    assignment for the rank-4 free group."""

    def __init__(self, values):
        self.values = dict(values)
        missing = set(FIFTEEN_KEYS) - set(self.values)
        if missing:
            raise PlanarError(f"missing atlas values {sorted(missing)}")
        self.ctx = self.values["1"].ctx

    @classmethod
    def from_rep(cls, rep):
        if rep.rank != 4:
            raise PlanarError("atlas data needs a rank-4 rep")
        assign = subset_trace_assignment(rep)
        return cls({k: assign[tuple(int(c) for c in k)] for k in FIFTEEN_KEYS})

    @classmethod
    def from_json(cls, ctx, obj):
        from .qfield import TowerElement

        vals = {}
        for i, s in enumerate(obj["boundary"], start=1):
            vals[str(i) if i <= 4 else "1234"] = TowerElement.from_json(ctx, s)
        for k, s in obj["interior"].items():
            vals[k] = TowerElement.from_json(ctx, s)
        return cls(vals)

    def to_json(self):
        return {
            "boundary": [self.values[k].to_json() for k in ("1", "2", "3", "4", "1234")],
            "interior": {
                k: self.values[k].to_json()
                for k in FIFTEEN_KEYS
                if k not in ("1", "2", "3", "4", "1234")
            },
        }

    def assignment(self):
        return {tuple(int(c) for c in k): v for k, v in self.values.items()}

    def value_of_word(self, word):
        """Trace value of any rank-4 word, via its trace polynomial."""
        poly = reduce_trace_word(Word(word), 4)
        return poly.evaluate_in(self.ctx, self.assignment())

    def boundary_value(self, i):
        i = (i - 1) % 5 + 1
        return self.values[str(i)] if i <= 4 else self.values["1234"]

    def alpha_value(self, i):
        i = (i - 1) % 5 + 1
        return self.values[_ALPHA_KEY[i]]

    def middle_triple(self, r):
        """Values on the pants bounded by alpha_{2+r}, alpha_{5+r}, b_{4+r}."""
        return (self.alpha_value(2 + r), self.alpha_value(5 + r), self.boundary_value(4 + r))

    def side(self, k):
        """4-holed sphere with generators (x_k, x_{k+1}, x_{k+2}), bounded
        by b_k, b_{k+1}, b_{k+2} and alpha_{k+3}.  The rotation-r sides
        are X = side(4 + r) and Y = side(2 + r)."""
        boundary = (
            self.boundary_value(k),
            self.boundary_value(k + 1),
            self.boundary_value(k + 2),
            self.alpha_value(k + 3),
        )
        triangle = (
            self.alpha_value(k),
            self.alpha_value(k + 1),
            self.value_of_word(_letter(k) + _letter(k + 2)),
        )
        return TF04(boundary, triangle)


# ---------------------------------------------------------------------------
# the linear system around the pentagon

# unknown classes and their words (standard pentagon, r = 0); xij is the
# value on alpha_i alpha_j, so the shared-edge dictionary of (alpha5,
# alpha1) assigns x51 = [x5 x2] and x15 = [x5 x1 x2 x1^-1]
UNKNOWN_WORDS = {
    "x1": pentagon_word(1),
    "x12": product_word(1),
    "x21": product_word_rev(1),
    "x51": product_word(5),
    "x15": product_word_rev(5),
    "x34": product_word(3),
    "x43": product_word_rev(3),
}


def _p_values(h, primed):
    """Right-hand sides p1, p2, p3, p6, p7, p10 for the pentagon system.

    h maps named known classes to values; primed selects the variant
    pentagon (alpha1 alpha2, alpha2, alpha3 alpha2, alpha4, alpha5),
    whose 4th and 5th boundary labels are swapped relative to the
    standard pentagon.
    """
    b = {i: h[f"b{i}"] for i in range(1, 6)}  # beta_i values
    if primed:
        b[4], b[5] = b[5], b[4]
        a3 = h["a3p"]
        p23 = h["a3"]       # alpha'2 alpha'3 = alpha3 by cancellation
        p32 = h["p32p"]
    else:
        a3 = h["a3"]
        p23 = h["p23"]
        p32 = h["p32"]
    a4 = h["a4"]
    p45 = h["p45"]      # alpha4 alpha5
    p54 = h["p54"]      # alpha5 alpha4
    return {
        1: -a3 * a4 + b[2] * b[5],
        2: b[3] * b[5] + b[4] * a4,
        3: b[4] * b[2] + b[3] * a3,
        6: b[5] * p54 + a4 * p32,
        7: b[2] * p23 + a3 * p45,
        10: b[3] * p32 - b[4] * p45,
    }


def harvest_known_values(data):
    """Known class values for the standard and primed pentagon systems.

    beta_i is the boundary component b_{i+3}; the primed pentagon swaps
    alpha3 for alpha3 alpha2 and needs the quadrilateral partner
    (alpha3 alpha2) alpha2, propagated inside the side Y.
    """
    tf_y = data.side(2)
    return {
        "a2": data.alpha_value(2),
        "a3": data.alpha_value(3),
        "a4": data.alpha_value(4),
        "a5": data.alpha_value(5),
        "b1": data.boundary_value(4),
        "b2": data.boundary_value(5),
        "b3": data.boundary_value(1),
        "b4": data.boundary_value(2),
        "b5": data.boundary_value(3),
        "p45": data.value_of_word(product_word(4)),
        "p54": data.value_of_word(product_word_rev(4)),
        "p23": data.value_of_word(product_word(2)),
        "p32": data.value_of_word(product_word_rev(2)),
        "a3p": data.value_of_word(product_word_rev(2)),
        "p32p": tf_y.query(Slope(-1, 2)),
    }


def _equation_residuals(data):
    """The six linear equations, evaluated on full atlas data."""
    h = harvest_known_values(data)
    p = _p_values(h, primed=False)
    x = {k: data.value_of_word(w) for k, w in UNKNOWN_WORDS.items()}
    a2, a5, b1 = h["a2"], h["a5"], h["b1"]
    return {
        1: x["x34"] + x["x43"] - b1 * x["x1"] - p[1],
        2: x["x12"] + x["x21"] + a2 * x["x1"] - p[2],
        3: x["x15"] + x["x51"] + a5 * x["x1"] - p[3],
        6: x["x51"] - x["x15"] + a2 * x["x34"] + b1 * x["x12"] - p[6],
        7: x["x21"] - x["x12"] + a5 * x["x43"] + b1 * x["x15"] - p[7],
        10: x["x34"] - x["x43"] - a2 * x["x15"] + a5 * x["x12"] - p[10],
    }


def _adjugate_rows(a2, a5, b1, two, four):
    """Adjugate of B = [[b1,-2,a2],[-2,b1,-a5],[a5,-a2,2]]."""
    c11 = two * b1 - a2 * a5
    c12 = four - a5 * a5
    c13 = two * a2 - a5 * b1
    c21 = four - a2 * a2
    c22 = two * b1 - a2 * a5
    c23 = a2 * b1 - two * a5
    c31 = two * a5 - a2 * b1
    c32 = a5 * b1 - two * a2
    c33 = b1 * b1 - four
    return ((c11, c21, c31), (c12, c22, c32), (c13, c23, c33))


def elimination_45(a2, a5, b1, p, p_primed):
    """Solve the pentagon linear system for the seven unknown values.

    p and p_primed map {1, 2, 3, 6, 7, 10} to the right-hand sides of
    the standard and variant pentagon equations.  Requires the middle
    pants to be irreducible (delta nonzero).  In characteristic 2 only
    x1 and the pair sums are determined; the single values come back
    as None.
    """
    ctx = a2.ctx
    four = ctx.from_int(4)
    two = ctx.from_int(2)
    delta = delta_values(a2, a5, b1)
    if delta.is_zero():
        raise PlanarError("reducible middle pair: delta = 0")

    def stage(ps):
        p11 = ps[6] - ps[3]
        p12 = ps[7] - ps[2] - a5 * ps[1]
        p13 = ps[10] + ps[1]
        rows = _adjugate_rows(a2, a5, b1, two, four)
        out = []
        for row in rows:
            out.append((row[0] * p11 + row[1] * p12 + row[2] * p13) / delta)
        return out  # p14, p15, p16

    p14, p15, p16 = stage(p)
    q14, q15, _q16 = stage(p_primed)
    p20 = two * p_primed[2] - q14
    p21 = two * p_primed[3] - q15

    if characteristic(ctx) != 2:
        c15 = four - a2 * a2
        if not c15.is_zero():
            x1 = (two * p20 - a2 * p14) / c15
        else:
            c16 = two * b1 - a2 * a5
            if c16.is_zero():
                raise PlanarError("degenerate coefficients with nonzero delta")
            x1 = (two * p21 - two * p16 - a5 * p14) / c16
        x12 = (p14 - a2 * x1) / two
        x15 = (p15 - a5 * x1) / two
        x34 = (p16 + b1 * x1) / two
        return {
            "x1": x1,
            "x12": x12,
            "x15": x15,
            "x34": x34,
            "x21": p[2] - a2 * x1 - x12,
            "x51": p[3] - a5 * x1 - x15,
            "x43": p[1] + b1 * x1 - x34,
        }
    # characteristic 2: the doubled equations degenerate; solve x1 from
    # the surviving scalar equations
    for coeff, rhs in ((a2, p14), (a5, p15), (b1, p16)):
        if not coeff.is_zero():
            x1 = rhs / coeff
            return {"x1": x1, "x12": None, "x15": None, "x34": None,
                    "x21": None, "x51": None, "x43": None}
    raise PlanarError("characteristic-2 coefficients all vanish with delta nonzero")


def elimination_symbolic_identity():
    """Polynomial identities behind the elimination: det B = 2 Delta and
    B* A = [[2D,0,0,a2 D],[0,2D,0,a5 D],[0,0,2D,-b1 D]]."""
    a2 = TracePolynomial.variable("a2")
    a5 = TracePolynomial.variable("a5")
    b1 = TracePolynomial.variable("b1")
    one = TracePolynomial.constant(1)
    two = TracePolynomial.constant(2)
    four = TracePolynomial.constant(4)
    delta = delta_values(a2, a5, b1)
    bmat = (
        (b1, -two * one, a2),
        (-two * one, b1, -one * a5),
        (a5, -one * a2, two),
    )
    col4 = (-one * a5, a5 * b1 - a2, -one * b1)
    det = (
        bmat[0][0] * (bmat[1][1] * bmat[2][2] - bmat[1][2] * bmat[2][1])
        - bmat[0][1] * (bmat[1][0] * bmat[2][2] - bmat[1][2] * bmat[2][0])
        + bmat[0][2] * (bmat[1][0] * bmat[2][1] - bmat[1][1] * bmat[2][0])
    )
    adj = _adjugate_rows(a2, a5, b1, two, four)
    amat = tuple(
        (bmat[i][0], bmat[i][1], bmat[i][2], col4[i]) for i in range(3)
    )
    product = tuple(
        tuple(
            adj[i][0] * amat[0][j] + adj[i][1] * amat[1][j] + adj[i][2] * amat[2][j]
            for j in range(4)
        )
        for i in range(3)
    )
    zero = TracePolynomial.constant(0)
    expected = (
        (two * delta, zero, zero, a2 * delta),
        (zero, two * delta, zero, a5 * delta),
        (zero, zero, two * delta, -one * b1 * delta),
    )
    return {
        "det_is_2_delta": det == two * delta,
        "adjugate_product_matches": product == expected,
        "product": product,
        "expected": expected,
    }


def harvest_p_values(data, primed):
    h = harvest_known_values(data)
    return _p_values(h, primed)


# ---------------------------------------------------------------------------
# gluing


@dataclass
class Verdict:
    """The verdict of `glue_sigma05` ("rep", "exceptional-obstruction" or
    "rejected") or of `check_trace_function_05` ("character",
    "exceptional" or "invalid"), with the glued rep or the witness."""

    kind: str
    rep: object = None
    witness: object = None


def _nullspace_vector(rows, ctx):
    """One nonzero kernel vector of an exact m x 4 system, or None."""
    m = [list(r) for r in rows]
    ncols = 4
    pivots = []
    r = 0
    for col in range(ncols):
        sel = None
        for i in range(r, len(m)):
            if not m[i][col].is_zero():
                sel = i
                break
        if sel is None:
            continue
        m[r], m[sel] = m[sel], m[r]
        inv = ctx.one / m[r][col]
        m[r] = [v * inv for v in m[r]]
        for i in range(len(m)):
            if i != r and not m[i][col].is_zero():
                f = m[i][col]
                m[i] = [vi - f * vr for vi, vr in zip(m[i], m[r])]
        pivots.append(col)
        r += 1
    free = [c for c in range(ncols) if c not in pivots]
    if not free:
        return None
    sol = [ctx.zero] * ncols
    sol[free[0]] = ctx.one
    for i, col in enumerate(pivots):
        sol[col] = -m[i][free[0]]
    return sol


def conjugate_pair_onto(p1, p2, q1, q2):
    """S in SL2 with S p_i S^-1 = q_i, for irreducible equal-trace pairs."""
    ctx = p1.ctx
    rows = []
    for p, q in ((p1, q1), (p2, q2)):
        pa, pb, pc, pd = p.entries()
        qa, qb, qc, qd = q.entries()
        # S p - q S = 0, S = [[s0, s1], [s2, s3]]
        rows.append([pa - qa, pc, -qb, ctx.zero])
        rows.append([pb, pd - qa, ctx.zero, -qb])
        rows.append([-qc, ctx.zero, pa - qd, pc])
        rows.append([ctx.zero, -qc, pb, pd - qd])
    sol = _nullspace_vector(rows, ctx)
    if sol is None:
        raise PlanarError("no intertwiner found")
    det = sol[0] * sol[3] - sol[1] * sol[2]
    if det.is_zero():
        raise PlanarError("intertwiner is singular")
    c, _ = solve_quadratic(ctx, ctx.zero, -(ctx.one / det))
    s = Mat2(c * sol[0], c * sol[1], c * sol[2], c * sol[3])
    for p, q in ((p1, q1), (p2, q2)):
        if s * p != q * s:
            raise PlanarError("intertwiner verification failed")
    return s


def _weyl(ctx):
    return Mat2(ctx.zero, -ctx.one, ctx.one, ctx.zero)


def _match_diagonal_pairs(p1, p2, q1, q2):
    """S in {id, weyl} with S p_i S^-1 = q_i for diagonal pairs."""
    ctx = p1.ctx
    for s in (Mat2.identity(ctx), _weyl(ctx)):
        si = s.inverse()
        if s * p1 * si == q1 and s * p2 * si == q2:
            return s
    raise PlanarError("diagonal pants data cannot be matched")


def _glue_rotation(data, r):
    """Rank-4 rep from the two sides of the rotation-r pentagon."""
    tf_x = data.side(4 + r)
    tf_y = data.side(2 + r)
    for name, tf in (("X", tf_x), ("Y", tf_y)):
        res = tf.residual()
        if not res.is_zero():
            return Verdict("rejected", witness=(name, res))
    if not sigma03_check(*data.middle_triple(r)).reducible:
        xs = tf04_realize(tf_x).generators  # images of x_{4+r}, x_{5+r}, x_{1+r}
        ys = tf04_realize(tf_y).generators  # images of x_{2+r}, x_{3+r}, x_{4+r}
        match = conjugate_pair_onto
    elif tf_x.reducible() and tf_y.reducible():
        xs = diagonalize_family(tf04_realize(tf_x).generators)
        ys = diagonalize_family(tf04_realize(tf_y).generators)
        match = _match_diagonal_pairs
    else:
        return Verdict("exceptional-obstruction",
                       witness="middle pants reducible but a side is irreducible")
    s = match((xs[0] * xs[1] * xs[2]).inverse(), xs[0], ys[0] * ys[1], ys[2])
    si = s.inverse()
    names = {
        (4 + r - 1) % 5 + 1: s * xs[0] * si,
        (5 + r - 1) % 5 + 1: s * xs[1] * si,
        (1 + r - 1) % 5 + 1: s * xs[2] * si,
        (2 + r - 1) % 5 + 1: ys[0],
        (3 + r - 1) % 5 + 1: ys[1],
    }
    if names[(4 + r - 1) % 5 + 1] != ys[2]:
        raise PlanarError("glued images disagree on the shared pants")
    rep = Rep([names[1], names[2], names[3], names[4]])
    if rep.image(_X5) != names[5]:
        raise PlanarError("glued rep violates the boundary relation")
    return Verdict("rep", rep=rep)


def glue_sigma05(data):
    """Glue the two standard sides (bounded by alpha2 and alpha5)."""
    return _glue_rotation(data, 0)


# ---------------------------------------------------------------------------
# the full decision for 15-value data


def _exceptional_signature(data):
    """±2 values, each boundary pair's pants irreducible; the caller has
    already found all five middle pants reducible."""
    ctx = data.ctx
    if characteristic(ctx) == 2:
        return False
    two, m2 = ctx.from_int(2), ctx.from_int(-2)
    if any(v != two and v != m2 for v in data.values.values()):
        return False
    for key in FIFTEEN_KEYS:
        if key in ("1", "2", "3", "4", "1234"):
            continue
        i, j = sorted(key_type(key))
        triple = (data.boundary_value(i), data.boundary_value(j), data.values[key])
        if sigma03_check(*triple).reducible:
            return False
    return True


def check_trace_function_05(data):
    """Classify 15-value atlas data: character (with a witness rep),
    exceptional, or invalid (with the violated constraint).

    Glues the first rotation whose middle pants is irreducible, or
    rotation 0 when all five are reducible; only then can the gluing meet
    an obstruction, which is the exceptional case or no case at all."""
    for name, k in (("X", 4), ("Y", 2)):
        res = data.side(k).residual()
        if not res.is_zero():
            return Verdict("invalid", witness=(f"side-{name}-residual", res))
    r = next((r for r in range(5) if not sigma03_check(*data.middle_triple(r)).reducible), 0)
    verdict = _glue_rotation(data, r)
    if verdict.kind == "rep":
        return _compare_with_rep(data, verdict.rep)
    if verdict.kind == "rejected":
        return Verdict("invalid", witness=("side-residual", verdict.witness))
    if _exceptional_signature(data):
        return Verdict("exceptional")
    return Verdict("invalid", witness=("no-admissible-branch", None))


def _compare_with_rep(data, rep):
    got = TraceData05.from_rep(rep)
    for key in FIFTEEN_KEYS:
        if got.values[key] != data.values[key]:
            return Verdict(
                "invalid", witness=("value-mismatch", (key, data.values[key], got.values[key]))
            )
    return Verdict("character", rep=rep)


# ---------------------------------------------------------------------------
# exceptional trace functions (partition model, integer +-2 values)


def _canonical_subset(s, n):
    comp = frozenset(range(1, n + 1)) - s
    a, b = sorted(s), sorted(comp)
    return frozenset(s) if (len(a), a) <= (len(b), b) else comp


@dataclass(frozen=True)
class PartitionTF:
    """A +-2-valued candidate trace function constant on partition types:
    boundary values plus one value per boundary subset (up to complement)."""

    n: int
    boundary: tuple
    table: tuple  # sorted ((sorted subset tuple), value) pairs

    @classmethod
    def build(cls, n, boundary, table_dict):
        merged = {}
        for s, v in table_dict.items():
            key = tuple(sorted(_canonical_subset(frozenset(s), n)))
            if merged.setdefault(key, v) != v:
                raise PlanarError(f"conflicting values for subset type {key}")
        return cls(n, tuple(boundary), tuple(sorted(merged.items())))

    @functools.cached_property
    def _values(self):
        """Value of every subset in a class that has one, its complement
        included; a singleton takes its own boundary value."""
        universe = frozenset(range(1, self.n + 1))
        out = {}
        for k, v in self.table:
            out[frozenset(k)] = out[universe - frozenset(k)] = v
        out.update((universe - {i}, v) for i, v in enumerate(self.boundary, 1))
        out.update((frozenset((i,)), v) for i, v in enumerate(self.boundary, 1))
        return out

    def value(self, subset):
        s = frozenset(subset)
        try:
            return self._values[s]
        except KeyError:
            raise PlanarError(f"no table value for subset {sorted(s)}") from None


@functools.cache
def _set_partitions(n, parts):
    """Set partitions of {1..n} into exactly `parts` nonempty blocks, each
    a tuple of frozensets; computed once per (n, parts).  Element x goes
    into each existing block in turn, then into a new block."""
    out = []

    def rec(x, blocks):
        if x > n:
            if len(blocks) == parts:
                out.append(tuple(frozenset(b) for b in blocks))
            return
        for b in blocks:
            b.append(x)
            rec(x + 1, blocks)
            b.pop()
        if len(blocks) < parts:
            blocks.append([x])
            rec(x + 1, blocks)
            blocks.pop()

    if n:
        rec(2, [[1]])
    return tuple(out)


def exceptional_witness_partition(n, value_fn):
    """A 5-block partition whose restriction is one of the 16 exceptional
    functions on the 5-holed sphere, or None."""
    for blocks in _set_partitions(n, 5):
        vals = [value_fn(b) for b in blocks]
        prod = 1
        for v in vals:
            prod *= v
        if prod != 32:
            continue
        ok = True
        for i in range(5):
            for j in range(i + 1, 5):
                if value_fn(blocks[i] | blocks[j]) != -vals[i] * vals[j] // 2:
                    ok = False
                    break
            if not ok:
                break
        if ok:
            return blocks
    return None


def exceptional_enumerate(n, char=0):
    """All +-2 partition-type trace functions that are exceptional, by an
    exhaustive constraint search over the finite table space: every
    embedded 4-holed sphere must carry character data and an exceptional
    5-holed-sphere witness must embed.  At n = 5 these are the sixteen
    boundary assignments with product 32, extended by the pair rule.
    """
    if char == 2:
        raise PlanarError("no exceptional trace functions in characteristic 2")
    if n < 5:
        raise PlanarError("exceptional trace functions need at least 5 boundary components")
    return _search_pm2_family(n, char)


class _Pm2System(NamedTuple):
    """Flat-index form of the n-boundary search.

    The search keeps one list `vals`: the n boundary values, then one
    value per table key in search order.
    """

    keys: list  # table keys, sorted canonical subset tuples, in lex order
    order: tuple  # lex positions of the keys in search order
    index: dict  # vals index of every proper nonempty subset (complements share one)
    fire: list  # per search position, the constraints its key completes


def _pm2_system(n):
    """The n-boundary search in greedy key order.

    Each 4-holed-sphere constraint is a 7-tuple of `vals` indices (four
    block values, then the values on t1|t2, t2|t3, t1|t3) and fires at the
    search position of its last-assigned key.  The next key in the order
    is the one that completes the most constraints, ties broken by key
    size and then lexicographically, so most constraints fire early and
    prune the DFS near its root.
    """
    universe = frozenset(range(1, n + 1))
    keys = sorted(
        {tuple(sorted(_canonical_subset(frozenset(s), n)))
         for size in range(2, n - 1)
         for s in itertools.combinations(universe, size)}
    )
    lex = {}
    for pos, key in enumerate(keys):
        s = frozenset(key)
        lex[s] = lex[universe - s] = pos
    blocks = [(t1, t2, t3, t4, t1 | t2, t2 | t3, t1 | t3)
              for t1, t2, t3, t4 in _set_partitions(n, 4)]
    order = _greedy_order(keys, [{lex[s] for s in c if s in lex} for c in blocks])
    index = {}
    for i in range(1, n + 1):
        index[frozenset((i,))] = index[universe - {i}] = i - 1
    for pos, k in enumerate(order):
        s = frozenset(keys[k])
        index[s] = index[universe - s] = n + pos
    fire = [[] for _ in keys]
    for c in blocks:
        idx = tuple(index[s] for s in c)
        fire[max(idx) - n].append(idx)
    return _Pm2System(keys, order, index, fire)


def _greedy_order(keys, members):
    """Lex positions of `keys` in greedy order: the next key completes the
    most constraints (`members` holds each constraint's key positions),
    ties broken by key size, then lex position.  Scores only grow, so a
    heap with stale entries skipped costs O(total constraint size x log)."""
    containing = [[] for _ in keys]
    for c, m in enumerate(members):
        for k in m:
            containing[k].append(c)
    unassigned = [len(m) for m in members]
    score = [0] * len(keys)
    for m in members:
        if len(m) == 1:
            score[next(iter(m))] += 1
    heap = [(-score[k], len(key), k) for k, key in enumerate(keys)]
    heapq.heapify(heap)
    done = [False] * len(keys)
    order = []
    while heap:
        neg, _, k = heapq.heappop(heap)
        if done[k] or -neg != score[k]:
            continue
        done[k] = True
        order.append(k)
        for c in containing[k]:
            unassigned[c] -= 1
            if unassigned[c] == 1:
                last = next(j for j in members[c] if not done[j])
                score[last] += 1
                heapq.heappush(heap, (-score[last], len(keys[last]), last))
    return tuple(order)


def _pm2_tables(n, boundary, system):
    """Value tuples, in lex key order, of every exceptional table over one
    boundary vector; the DFS tries 2 before -2 at each key."""
    index, fire = system.index, system.fire
    vals = list(boundary) + [0] * len(fire)
    end = len(vals)
    lex_values = operator.itemgetter(*(index[frozenset(k)] for k in system.keys))
    tables = []

    def value_fn(s):
        return vals[index[s]]

    def dfs(pos):
        if pos == end:
            if exceptional_witness_partition(n, value_fn) is not None:
                tables.append(lex_values(vals))
            return
        constraints = fire[pos - n]
        for v in (2, -2):
            vals[pos] = v
            for a, b, c, d, e, f, g in constraints:
                if tf04_residual((vals[a], vals[b], vals[c], vals[d]),
                                 (vals[e], vals[f], vals[g])):
                    break
            else:
                dfs(pos + 1)

    dfs(n)
    return tables


def _search_pm2_family(n, char=0):
    """Constraint search driving the n >= 5 enumeration; empty in
    characteristic 2 (the candidate value set collapses).

    The result set is closed under even sign flips.  Flipping the boundary
    signs on an index set I with |I| even multiplies the table value on
    a subset S by (-1)^|S & I|; the sign is the same for S and its
    complement because |I| is even.  Each 4-holed-sphere residual term
    then picks up a product of block signs in which every block sign
    appears an even number of times (the four block signs multiply to
    (-1)^|I| = 1), so residuals are unchanged; so are the product and
    the pair rule of a 5-block witness.  Even flips act transitively on
    each product-sign class of boundary vectors, so the DFS runs once
    from each class root, (2, ..., 2) and (-2, 2, ..., 2), and every
    other boundary vector takes the flipped results of its class root.
    Results come in the order of a lex-key DFS over every boundary vector.
    """
    if char == 2:
        return []
    system = _pm2_system(n)
    keys = system.keys
    key_sets = [frozenset(k) for k in keys]
    roots = ((2,) * n, (-2,) + (2,) * (n - 1))
    root_tables = [_pm2_tables(n, root, system) for root in roots]
    results = []
    for boundary in itertools.product((2, -2), repeat=n):
        cls = boundary.count(-2) % 2
        flip = {i + 1 for i in range(n) if boundary[i] != roots[cls][i]}
        signs = [-1 if len(k & flip) % 2 else 1 for k in key_sets]
        # descending value tuples are the order of a lex-key DFS (2 before -2)
        tables = sorted(
            (tuple(s * v for s, v in zip(signs, t)) for t in root_tables[cls]),
            reverse=True,
        )
        for t in tables:
            results.append(PartitionTF(n, boundary, tuple(zip(keys, t))))
    return results


def construct_n6_exceptional():
    """Exceptional trace function on the 6-holed sphere: boundary all 2,
    distinguished pair {5, 6}; derived from the 5-holed-sphere family."""
    n = 6
    table = {}
    for s in itertools.combinations(range(1, 7), 2):
        fs = frozenset(s)
        if fs == frozenset((5, 6)) or (5 in fs and 6 not in fs):
            table[fs] = 2
        else:
            table[fs] = -2
    for s in itertools.combinations(range(1, 7), 3):
        table[frozenset(s)] = -2
    return PartitionTF.build(6, (2,) * 6, table)


def partition_tf_to_trace_data(tf, ctx):
    """TraceData05 over a field context from a 5-boundary partition TF."""
    if tf.n != 5:
        raise PlanarError("only 5-holed-sphere data maps to the atlas")
    vals = {}
    for i in range(1, 5):
        vals[str(i)] = ctx.from_int(tf.boundary[i - 1])
    vals["1234"] = ctx.from_int(tf.boundary[4])
    for key in FIFTEEN_KEYS:
        if key in vals:
            continue
        vals[key] = ctx.from_int(tf.value(key_type(key)))
    return TraceData05(vals)


def certify_exceptional(tf, ctx):
    """Certificate that a partition TF is exceptional: every embedded
    4-holed sphere carries character data, pants reducibility matches
    the exceptional pattern, and gluing obstructs."""
    if characteristic(ctx) == 2:
        raise PlanarError("exceptional certificates need characteristic != 2")
    cert = {"n": tf.n}
    quads_ok = all(
        tf04_residual((tf.value(t1), tf.value(t2), tf.value(t3), tf.value(t4)),
                      (tf.value(t1 | t2), tf.value(t2 | t3), tf.value(t1 | t3))) == 0
        for t1, t2, t3, t4 in _set_partitions(tf.n, 4)
    )
    cert["embedded_sigma04_pass"] = quads_ok
    if tf.n == 5:
        alpha_irr = True
        for s in itertools.combinations(range(1, 6), 2):
            i, j = s
            v = delta_values(tf.boundary[i - 1], tf.boundary[j - 1], tf.value(frozenset(s)))
            if v == 0:
                alpha_irr = False
        middle_red = True
        for i, j, k, l, m in _disjoint_pair_splits():
            v = delta_values(tf.value(frozenset((i, j))), tf.value(frozenset((k, l))),
                             tf.boundary[m - 1])
            if v != 0:
                middle_red = False
        cert["boundary_pants_irreducible"] = alpha_irr
        cert["middle_pants_reducible"] = middle_red
        data = partition_tf_to_trace_data(tf, ctx)
        verdict = glue_sigma05(data)
        cert["glue_obstruction"] = verdict.kind == "exceptional-obstruction"
        cert["exceptional"] = all(
            (cert["embedded_sigma04_pass"], alpha_irr, middle_red, cert["glue_obstruction"])
        )
        return cert
    witness = exceptional_witness_partition(tf.n, tf.value)
    cert["witness_partition"] = None if witness is None else [sorted(b) for b in witness]
    if witness is None or not quads_ok:
        cert["exceptional"] = False
        return cert
    sub_boundary = tuple(tf.value(b) for b in witness)
    sub_table = {}
    for i in range(5):
        for j in range(i + 1, 5):
            sub_table[frozenset((i + 1, j + 1))] = tf.value(witness[i] | witness[j])
    sub = PartitionTF.build(5, sub_boundary, sub_table)
    sub_cert = certify_exceptional(sub, ctx)
    cert["witness_certificate"] = sub_cert
    cert["exceptional"] = quads_ok and sub_cert["exceptional"]
    return cert


def _disjoint_pair_splits():
    """(i,j,k,l,m): {i,j} and {k,l} disjoint pairs in {1..5}, m the rest."""
    out = []
    for s in itertools.combinations(range(1, 6), 2):
        for t in itertools.combinations(range(1, 6), 2):
            if s < t and not set(s) & set(t):
                m = (set(range(1, 6)) - set(s) - set(t)).pop()
                out.append((*s, *t, m))
    return out
