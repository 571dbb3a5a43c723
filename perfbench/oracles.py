"""Output oracles, run after the timed window.

Each check takes a job and its outcome (exit code, report text) and
returns None when the report is right, or a one-line reason.  The checks
share no code with `sl2trace`: tower elements are re-multiplied with a
small coordinate implementation kept here, Farey values come from an
independent Stern-Brocot recursion, and trace polynomials are evaluated
on integer matrices.
"""

from __future__ import annotations

import json
from fractions import Fraction

from workloads import ATLAS_KEYS, subset_traces, word_trace


class OracleError(Exception):
    pass


# ---------------------------------------------------------------------------
# tower arithmetic on coordinate tuples


class Tower:
    """The tower a report echoes: level k adjoins a square root of a
    level-(k-1) element; an element at level k is 2^k base coordinates,
    the upper half being the coefficient of the level-k root."""

    def __init__(self, field_spec, tower_json):
        self.p = None if field_spec == "q" else int(field_spec[3:])
        self.defs = []
        for level, entry in enumerate(tower_json):
            if isinstance(entry, dict):
                raise OracleError("unexpected Artin-Schreier level")
            self.defs.append(self._lift([self.parse(s) for s in entry], level))
        self.height = len(self.defs)

    def parse(self, s):
        return Fraction(s) if self.p is None else int(s) % self.p

    def _norm(self, coords):
        return tuple(coords) if self.p is None else tuple(c % self.p for c in coords)

    def _lift(self, coords, level):
        if len(coords) > 1 << level:
            raise OracleError("element above its level")
        return self._norm(list(coords) + [0] * ((1 << level) - len(coords)))

    def element(self, obj):
        """A report element ({"level", "coords"}) or base scalar string."""
        if isinstance(obj, str):
            return self._lift([self.parse(obj)], self.height)
        if len(obj["coords"]) != 1 << obj["level"]:
            raise OracleError("coordinate count does not match level")
        return self._lift([self.parse(s) for s in obj["coords"]], self.height)

    def add(self, x, y):
        return self._norm(a + b for a, b in zip(x, y))

    def sub(self, x, y):
        return self._norm(a - b for a, b in zip(x, y))

    def mul(self, x, y):
        return self._mul(x, y, self.height)

    def _mul(self, x, y, level):
        if level == 0:
            return self._norm((x[0] * y[0],))
        h = len(x) // 2
        a1, b1, a2, b2 = x[:h], x[h:], y[:h], y[h:]
        d = self.defs[level - 1][: h]
        lo = self.add(self._mul(a1, a2, level - 1),
                      self._mul(d, self._mul(b1, b2, level - 1), level - 1))
        hi = self.add(self._mul(a1, b2, level - 1), self._mul(b1, a2, level - 1))
        return lo + hi

    def const(self, n):
        return self._lift([n], self.height)

    # 2x2 matrices as 4-tuples of elements
    def mat(self, entries):
        if len(entries) != 4:
            raise OracleError("matrix needs four entries")
        return tuple(self.element(e) for e in entries)

    def mat_mul(self, x, y):
        m = self.mul
        return (self.add(m(x[0], y[0]), m(x[1], y[2])), self.add(m(x[0], y[1]), m(x[1], y[3])),
                self.add(m(x[2], y[0]), m(x[3], y[2])), self.add(m(x[2], y[1]), m(x[3], y[3])))

    def det(self, x):
        return self.sub(self.mul(x[0], x[3]), self.mul(x[1], x[2]))

    def trace(self, x):
        return self.add(x[0], x[3])


def _tower(report):
    return Tower(report["field"], report.get("tower", []))


def _realized_traces(tower, mats_json):
    mats = [tower.mat(m) for m in mats_json]
    one = tower.const(1)
    if any(tower.det(m) != one for m in mats):
        raise OracleError("matrix with determinant != 1")
    out = {}
    n = len(mats)
    for mask in range(1, 1 << n):
        subset = tuple(i + 1 for i in range(n) if mask >> i & 1)
        m = mats[subset[0] - 1]
        for i in subset[1:]:
            m = tower.mat_mul(m, mats[i - 1])
        out[subset] = tower.trace(m)
    return out


# ---------------------------------------------------------------------------
# per-kind checks; report is the parsed JSON


def _delta(tower, a, b, c):
    """a^2 + b^2 + c^2 - abc - 4: zero iff pants values are reducible."""
    m, add, sub = tower.mul, tower.add, tower.sub
    s = add(add(m(a, a), m(b, b)), m(c, c))
    return sub(sub(s, m(m(a, b), c)), tower.const(4))


def _check_atlas_rep(job, code, report):
    verdict = report["result"]["verdict"]
    tower = _tower(report)
    payload = job.expect["payload"]
    if report["command"] == "glue05" and code == 0 and verdict == "exceptional-obstruction":
        # glue05 glues along the standard pentagon only; it reports an
        # obstruction when that middle pants (alpha2, alpha5, b4) is reducible
        a2, a5, b4 = (tower.element(s) for s in (payload["interior"]["23"],
                                                 payload["interior"]["234"],
                                                 payload["boundary"][3]))
        if _delta(tower, a2, a5, b4) == tower.const(0):
            return None
    if code != 0 or verdict not in ("character", "rep"):
        return f"exit {code}, verdict {verdict} on rep-derived data"
    traces = _realized_traces(tower, report["result"]["rep"])
    want = {(i,): payload["boundary"][i - 1] for i in (1, 2, 3, 4)}
    want[(1, 2, 3, 4)] = payload["boundary"][4]
    for key in ATLAS_KEYS:
        want[tuple(int(c) for c in key)] = payload["interior"][key]
    for subset, value in want.items():
        if traces[subset] != tower.element(value):
            return f"rep trace on {subset} differs from the input"
    return None


def _check_atlas_perturbed(job, code, report):
    # a perturbed dataset that is still a character must come with a rep
    # that reproduces it
    if code == 0:
        return _check_atlas_rep(job, code, report)
    verdict = report["result"]["verdict"]
    if code == 1 and verdict == "invalid" and report["result"].get("witness"):
        return None
    return f"exit {code}, verdict {verdict} on perturbed data"


def _check_atlas_exceptional(job, code, report):
    want = "exceptional" if report["command"] == "check05" else "exceptional-obstruction"
    verdict = report["result"]["verdict"]
    return None if code == 0 and verdict == want else f"exit {code}, verdict {verdict}"


def _check_realize(job, code, report):
    if code != 0:
        return f"exit {code}"
    tower = _tower(report)
    traces = _realized_traces(tower, report["result"]["matrices"])
    t = [tower.element(s) for s in job.expect["payload"]["traces"]]
    got = [traces[(1,)], traces[(2,)], traces[(3,)], traces[(1, 2)], traces[(2, 3)],
           traces[(1, 3)]]
    return None if got == t else "realized traces differ from the targets"


def _poly_value(poly_json, traces):
    total = 0
    for term in poly_json:
        v = int(term["coeff"])
        for sym in term["vars"]:
            v *= traces[tuple(sym)]
        total += v
    return total


def _check_tracepoly(job, code, report):
    if code != 0:
        return f"exit {code}"
    poly = report["result"]["polynomial"]
    for mats in job.expect["reps"]:
        if _poly_value(poly, subset_traces(mats)) != word_trace(mats, job.expect["letters"]):
            return "polynomial disagrees with the matrix trace"
    return None


def _check_variety(job, code, report):
    if code != 0:
        return f"exit {code}"
    t1, t2, t3, t12, t23, t31, t123 = job.expect["point"]
    p = t1 * t23 + t2 * t31 + t3 * t12 - t1 * t2 * t3
    q = (t1 * t1 + t2 * t2 + t3 * t3 + t12 * t12 + t23 * t23 + t31 * t31
         - t1 * t2 * t12 - t2 * t3 * t23 - t3 * t1 * t31 + t12 * t23 * t31 - 4)
    res = t123 * t123 - p * t123 + q
    tower = _tower(report)
    if tower.element(report["result"]["residual"]) != tower.const(res):
        return "wrong residual"
    return None if report["result"]["on_variety"] == (res == 0) else "wrong on_variety"


def _slope(text):
    p, q = (int(x) for x in text.split("/"))
    if q < 0 or (q == 0 and p < 0):
        p, q = -p, -q
    return p, q


def farey_values(surface, triangle, boundary, slopes, p=None):
    """Trace-function values by Stern-Brocot descent from the triangle
    (0/1, 1/0, 1/1): tr(new) = tr(a) tr(b) - tr(old) on the 1-holed
    torus, and tr(new) = -tr(a) tr(b) + pair(new) - tr(old) on the
    4-holed sphere, pair(new) being b_i b_j + b_k b_l for the boundary
    pairing that the parity of new selects."""
    red = (lambda x: x) if p is None else (lambda x: x % p)
    val = {(0, 1): triangle[0], (1, 0): triangle[1], (1, 1): triangle[2]}
    if surface == "sigma04":
        b1, b2, b3, b4 = boundary
        pairs = {(0, 1): b1 * b2 + b3 * b4, (1, 0): b2 * b3 + b1 * b4,
                 (1, 1): b1 * b3 + b2 * b4}

    def key(v):
        return (1, 0) if v[1] == 0 else v

    def fill(a, b, old):
        new = (a[0] + b[0], a[1] + b[1])
        if new not in val:
            x, y, z = val[key(a)], val[key(b)], val[key(old)]
            if surface == "sigma11":
                val[new] = red(x * y - z)
            else:
                val[new] = red(-x * y + pairs[(new[0] % 2, new[1] % 2)] - z)
        return new

    out = []
    for text in slopes:
        t = _slope(text)
        if t not in val:
            if t[0] < 0:
                lo, hi, med = (-1, 0), (0, 1), fill((0, 1), (-1, 0), (1, 1))
            else:
                lo, hi, med = (0, 1), (1, 0), (1, 1)
            while med != t:
                if t[0] * med[1] < med[0] * t[1]:
                    lo, hi, med = lo, med, fill(lo, med, hi)
                else:
                    lo, hi, med = med, hi, fill(med, hi, lo)
        out.append((t, val[t]))
    return out


def _check_propagate(job, code, report):
    if code != 0:
        return f"exit {code}"
    payload = job.expect["payload"]
    tower = _tower(report)
    p = tower.p
    triangle = [tower.parse(s) for s in payload["triangle"]]
    boundary = [tower.parse(s) for s in payload.get("boundary", [])]
    want = farey_values(payload["surface"], triangle, boundary, payload["slopes"], p)
    got = report["result"]["values"]
    if len(got) != len(want):
        return "wrong number of values"
    for (slope, value), (text, elt) in zip(want, got):
        if _slope(text) != slope or tower.element(elt) != tower.const(value):
            return f"wrong value at {text}"
    if payload["surface"] == "sigma11":
        v1, v2, v3 = triangle
        b = v1 * v1 + v2 * v2 + v3 * v3 - v1 * v2 * v3 - 2
        if tower.element(report["result"]["boundary_value"]) != tower.const(b):
            return "wrong boundary value"
    return None


def _check_exceptional(job, code, report):
    if code != 0:
        return f"exit {code}"
    functions = report["result"]["functions"]
    if report["result"]["count"] != job.expect["count"] or len(functions) != job.expect["count"]:
        return f"{len(functions)} functions, expected {job.expect['count']}"
    seen = set()
    for tf in functions:
        values = list(tf["boundary"]) + [v for _, v in tf["table"]]
        if any(v not in (2, -2) for v in values):
            return "value outside {2, -2}"
        seen.add(json.dumps(tf, sort_keys=True))
    return None if len(seen) == len(functions) else "duplicate functions"


def _check_certify(job, code, report):
    if code != 0 or report["result"]["certificate"].get("exceptional") is not True:
        return f"exit {code}, function not certified exceptional"
    return None


CHECKS = {
    "atlas_rep": _check_atlas_rep,
    "atlas_perturbed": _check_atlas_perturbed,
    "atlas_exceptional": _check_atlas_exceptional,
    "realize": _check_realize,
    "tracepoly": _check_tracepoly,
    "variety": _check_variety,
    "propagate": _check_propagate,
    "exceptional": _check_exceptional,
    "certify": _check_certify,
}


def check(job, code, text):
    """None if the job's report is right, else the reason it is not."""
    try:
        report = json.loads(text)
        if report.get("input") is None and report["command"] != "exceptional":
            return "report does not echo its input"
        return CHECKS[job.kind](job, code, report)
    except (OracleError, ValueError, KeyError, TypeError, IndexError,
            ZeroDivisionError) as exc:
        return f"malformed report: {exc!r}"
