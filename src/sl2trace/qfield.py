"""Exact arithmetic in a growing tower of quadratic extensions.

The base field is Q or a prime field F_p.  Each tower level adjoins one
root of a monic quadratic: a square root of a non-square discriminant in
odd or zero characteristic, or an Artin-Schreier root (x^2 = x + c) in
characteristic 2.  Elements carry canonical coefficient tuples over the
base, so structural equality is field equality.  Over Q the base gives
integers as `int` and other rationals as `Fraction`; a `Fraction` with
denominator 1 that Fraction arithmetic leaves behind compares, hashes and
prints like its `int`.
"""

from __future__ import annotations

import math
import re
import sys
from fractions import Fraction


class FieldError(ValueError):
    pass


def too_many_digits():
    """The error for a value too long to print (sys.get_int_max_str_digits())."""
    return FieldError(f"a result has more than {sys.get_int_max_str_digits()} digits")


# ---------------------------------------------------------------------------
# base fields

_RATIONAL = re.compile(r"[+-]?[0-9]+(/[0-9]+)?")  # the scalar grammar over Q
_INTEGER = re.compile(r"[+-]?[0-9]+")  # the scalar grammar over F_p
PRIME_MAX = 1 << 31  # primes are tested by Miller-Rabin, exact below it


def _rational(x):
    """A Fraction as an int when it is an integer, else itself."""
    return x.numerator if x.denominator == 1 else x


def _is_prime(n):
    """Deterministic Miller-Rabin on the bases 2, 3, 5 and 7: exact for
    n < 3 215 031 751, the least strong pseudoprime to all four."""
    if n < 2:
        return False
    for k in (2, 3, 5, 7):
        if n % k == 0:
            return n == k
    d, s = n - 1, 0
    while not d & 1:
        d >>= 1
        s += 1
    for a in (2, 3, 5, 7):
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


class RationalBase:
    characteristic = 0

    zero = 0
    one = 1

    def from_int(self, n):
        return n

    def add(self, x, y):
        return x + y

    def sub(self, x, y):
        return x - y

    def mul(self, x, y):
        return x * y

    def neg(self, x):
        return -x

    def div(self, x, y):
        if y == 0:
            raise FieldError("division by zero")
        return _rational(Fraction(x, y))

    def sqrt(self, x):
        """Exact square root of a rational, or None."""
        if x < 0:
            return None
        num, den = x.numerator, x.denominator
        rn, rd = math.isqrt(num), math.isqrt(den)
        if rn * rn == num and rd * rd == den:
            return _rational(Fraction(rn, rd))
        return None

    def parse(self, s):
        if not _RATIONAL.fullmatch(s):
            raise FieldError(f"expected an integer or p/q, got {s!r}")
        return _rational(Fraction(s))

    def fmt(self, x):
        try:
            return f"{x.numerator}/{x.denominator}"
        except ValueError:  # str() refuses integers past the interpreter's digit limit
            raise too_many_digits() from None

    def spec(self):
        return "q"

    def __repr__(self):
        return "Q"


class PrimeBase:
    def __init__(self, p):
        if not 2 <= p < PRIME_MAX or not _is_prime(p):
            raise FieldError(f"{p} is not a prime below 2^31")
        self.p = p
        self.characteristic = p
        self.zero = 0
        self.one = 1 % p

    def from_int(self, n):
        return n % self.p

    def add(self, x, y):
        return (x + y) % self.p

    def sub(self, x, y):
        return (x - y) % self.p

    def mul(self, x, y):
        return (x * y) % self.p

    def neg(self, x):
        return (-x) % self.p

    def div(self, x, y):
        if y % self.p == 0:
            raise FieldError("division by zero")
        return (x * pow(y, self.p - 2, self.p)) % self.p

    def sqrt(self, x):
        """Tonelli-Shanks square root mod p, or None for non-residues."""
        p = self.p
        x %= p
        if x == 0:
            return 0
        if p == 2:
            return x
        if pow(x, (p - 1) // 2, p) != 1:
            return None
        if p % 4 == 3:
            return pow(x, (p + 1) // 4, p)
        # write p-1 = q * 2^s with q odd
        q, s = p - 1, 0
        while q % 2 == 0:
            q //= 2
            s += 1
        z = 2
        while pow(z, (p - 1) // 2, p) != p - 1:
            z += 1
        m, c, t, r = s, pow(z, q, p), pow(x, q, p), pow(x, (q + 1) // 2, p)
        while t != 1:
            i, t2 = 0, t
            while t2 != 1:
                t2 = (t2 * t2) % p
                i += 1
            b = pow(c, 1 << (m - i - 1), p)
            m, c = i, (b * b) % p
            t, r = (t * c) % p, (r * b) % p
        return r

    def parse(self, s):
        if not _INTEGER.fullmatch(s):
            raise FieldError(f"expected an integer, got {s!r}")
        return int(s) % self.p

    def fmt(self, x):
        return str(x % self.p)

    def spec(self):
        return f"fp:{self.p}"

    def __repr__(self):
        return f"F{self.p}"


def base_from_spec(spec):
    """Parse a field spec string: "q" or "fp:<prime>"."""
    if spec == "q":
        return RationalBase()
    if spec.startswith("fp:"):
        return PrimeBase(int(spec[3:]))
    raise FieldError(f"unknown field spec {spec!r}")


# ---------------------------------------------------------------------------
# tower


class TowerLevel:
    """One quadratic adjunction: sqrt kind (theta^2 = d) or
    Artin-Schreier kind (theta^2 = theta + c, characteristic 2 only)."""

    __slots__ = ("kind", "defining")

    def __init__(self, kind, defining):
        self.kind = kind
        self.defining = defining  # TowerElement of the tower below


class TowerContext:
    """Append-only tower of quadratic extensions over Q or F_p."""

    def __init__(self, base=None):
        self.base = base if base is not None else RationalBase()
        self.levels = []

    # -- constructors ------------------------------------------------------

    def from_int(self, n):
        return TowerElement(self, 0, (self.base.from_int(n),))

    def from_base(self, v):
        return TowerElement(self, 0, (v,))

    @property
    def zero(self):
        return self.from_base(self.base.zero)

    @property
    def one(self):
        return self.from_base(self.base.one)

    def from_rational(self, num, den=1):
        return self.from_base(self.base.div(self.base.from_int(num), self.base.from_int(den)))

    def parse(self, s):
        """Parse a base-field scalar string into a level-0 element."""
        return self.from_base(self.base.parse(s))

    def generator(self, level):
        """The adjoined root of tower level `level` (1-based)."""
        if not 1 <= level <= len(self.levels):
            raise FieldError(f"no tower level {level}")
        coords = [self.base.zero] * (1 << level)
        coords[1 << (level - 1)] = self.base.one
        return TowerElement(self, level, tuple(coords))

    # -- raw coordinate arithmetic ----------------------------------------

    def _lift(self, coords, frm, to):
        while frm < to:
            coords = coords + (self.base.zero,) * len(coords)
            frm += 1
        return coords

    def _add(self, x, y):
        add = self.base.add
        return tuple((add(a, b) if a else b) if b else a for a, b in zip(x, y))

    def _sub(self, x, y):
        sub = self.base.sub
        return tuple(sub(a, b) for a, b in zip(x, y))

    def _neg(self, x):
        return tuple(map(self.base.neg, x))

    def _scale(self, x, c):
        mul = self.base.mul
        return tuple(mul(a, c) if a else a for a in x)

    def _is_zero(self, x):
        return not any(x)  # coordinates are numbers: an int or Fraction over Q, an int mod p

    def _mul_low(self, x, e):
        """x times the element e of a level at most x's, at x's level: a
        scalar product when e is rational, else one product per block of x
        (each block is a coefficient in e's subfield)."""
        if e.level == 0:
            return self._scale(x, e.coords[0])
        w = len(e.coords)
        return tuple(c for i in range(0, len(x), w)
                     for c in self._mul(e.level, x[i:i + w], e.coords))

    def _mul(self, level, x, y):
        if not any(x):
            return x
        if not any(y):
            return y
        if level == 0:
            return (self.base.mul(x[0], y[0]),)
        h = len(x) // 2
        a1, b1 = x[:h], x[h:]
        a2, b2 = y[:h], y[h:]
        lev = level - 1
        # a zero top half leaves a1 (a2 + b2 t) = a1 a2 + a1 b2 t, or its mirror
        if not any(b1):
            return self._mul(lev, a1, a2) + self._mul(lev, a1, b2)
        if not any(b2):
            return self._mul(lev, a1, a2) + self._mul(lev, b1, a2)
        aa = self._mul(lev, a1, a2)
        bb = self._mul(lev, b1, b2)
        cross = self._add(self._mul(lev, a1, b2), self._mul(lev, b1, a2))
        top = self.levels[lev]
        lo = self._add(aa, self._mul_low(bb, top.defining))
        hi = cross if top.kind == "sqrt" else self._add(cross, bb)  # theta^2 = theta + c
        return lo + hi

    def _inv(self, level, x):
        if level == 0:
            return (self.base.div(self.base.one, x[0]),)
        h = len(x) // 2
        a, b = x[:h], x[h:]
        lev = level - 1
        if not any(b):
            return self._inv(lev, a) + b
        top = self.levels[lev]
        dbb = self._mul_low(self._mul(lev, b, b), top.defining)
        if top.kind == "sqrt":
            # (a + b t)^-1 = (a - b t) / (a^2 - d b^2)
            norm = self._sub(self._mul(lev, a, a), dbb)
            conj = a + self._neg(b)
        else:
            # conjugate root is t + 1; norm = a^2 + a b + c b^2
            norm = self._add(self._mul(lev, a, a), self._add(self._mul(lev, a, b), dbb))
            conj = self._add(a, b) + b
        if self._is_zero(norm):
            raise FieldError("division by zero")
        ninv = self._inv(lev, norm)
        return self._mul(lev, conj[:h], ninv) + self._mul(lev, conj[h:], ninv)

    # -- square roots ------------------------------------------------------

    def sqrt_in_tower(self, elt):
        """Exact square root within the current tower, or None.

        Complete decision procedure; extending the tower by an element
        that is already a square would create zero divisors, so this
        must never report a false negative.
        """
        if self.base.characteristic == 2:
            return self._sqrt_char2(elt)
        top = len(self.levels)
        coords = self._sqrt_rec(top, self._lift(elt.coords, elt.level, top))
        return None if coords is None else TowerElement(self, top, coords)._trim()

    def _sqrt_rec(self, level, x):
        if level == 0:
            r = self.base.sqrt(x[0])
            return None if r is None else (r,)
        h = len(x) // 2
        a, b = x[:h], x[h:]
        lev = level - 1
        d = self.levels[lev].defining
        if self._is_zero(b):
            ra = self._sqrt_rec(lev, a)
            if ra is not None:
                return ra + b
            rad = self._sqrt_rec(lev, self._mul_low(a, d))
            if rad is not None:
                # sqrt(a) = (rad / d) * t
                dinv = TowerElement(self, d.level, self._inv(d.level, d.coords))
                return b + self._mul_low(rad, dinv)
            return None
        # a + b t = (u + v t)^2 needs u^2 + d v^2 = a, 2uv = b
        norm = self._sub(self._mul(lev, a, a), self._mul_low(self._mul(lev, b, b), d))
        s = self._sqrt_rec(lev, norm)
        if s is None:
            return None
        two = self.base.from_int(2)
        half = self._inv(0, (two,))[0]
        for cand in (self._add(a, s), self._sub(a, s)):
            t = self._scale(cand, half)
            u = self._sqrt_rec(lev, t)
            if u is None or self._is_zero(u):
                continue
            v = self._mul(lev, b, self._inv(lev, self._scale(u, two)))
            got = self._mul(level, u + v, u + v)
            if got == x:
                return u + v
        return None

    def _sqrt_char2(self, elt):
        # finite char-2 tower is perfect: sqrt is the inverse Frobenius,
        # i.e. square (dim - 1) more times where dim = 2^height over F_2
        m = 1 << len(self.levels)
        r = elt
        for _ in range(m - 1):
            r = r * r
        if r * r != elt:
            raise FieldError("char-2 square root failed")
        return r

    # -- extension ---------------------------------------------------------

    def adjoin_sqrt(self, d):
        """Append a level with a formal sqrt of d; returns the new root."""
        if d.is_zero():
            raise FieldError("cannot adjoin sqrt(0) as a tower level")
        self.levels.append(TowerLevel("sqrt", d))
        return self.generator(len(self.levels))

    def adjoin_artin_schreier(self, c):
        """Append a char-2 level with theta^2 = theta + c; returns theta."""
        self.levels.append(TowerLevel("as", c))
        return self.generator(len(self.levels))

    # -- serialization -----------------------------------------------------

    def to_json(self):
        tower = []
        for lev in self.levels:
            entry = [self.base.fmt(v) for v in lev.defining.coords]
            if lev.kind == "sqrt":
                tower.append(entry)
            else:
                tower.append({"as": entry})
        return {"field": self.base.spec(), "tower": tower}

    @classmethod
    def from_json(cls, obj):
        ctx = cls(base_from_spec(obj["field"]))
        for entry in obj["tower"]:
            kind = "sqrt"
            coords = entry
            if isinstance(entry, dict):
                kind, coords = "as", entry["as"]
            ctx.levels.append(TowerLevel(kind, ctx._decode(coords)))
        return ctx

    def _decode(self, coords, level=None):
        """The element of this tower with the coordinate strings `coords`:
        2^k of them for a level k of at most the tower height, which
        `level` must equal when given."""
        k = len(coords).bit_length() - 1
        if not coords or len(coords) != 1 << k or k > len(self.levels) or level not in (None, k):
            got = f"{len(coords)} coordinates" + ("" if level is None else f" and level {level!r}")
            raise FieldError(f"no element of a tower of height {len(self.levels)} has {got}")
        return TowerElement(self, k, tuple(map(self.base.parse, coords)))._trim()


class TowerElement:
    """Immutable element of a TowerContext, in trimmed canonical form: at
    level > 0 the top half of `coords` is nonzero.  Every operation and
    constructor returns trimmed elements, so equality and hashing compare
    `level` and `coords` as stored."""

    __slots__ = ("ctx", "level", "coords")

    def __init__(self, ctx, level, coords):
        self.ctx = ctx
        self.level = level
        self.coords = coords

    def _trim(self):
        level, coords = self.level, self.coords
        ctx = self.ctx
        while level > 0 and ctx._is_zero(coords[len(coords) // 2:]):
            coords = coords[: len(coords) // 2]
            level -= 1
        if level == self.level:
            return self
        return TowerElement(ctx, level, coords)

    def is_zero(self):
        return self.ctx._is_zero(self.coords)

    def _pair(self, other):
        """(level, x, y): both operands' coordinates at the larger level, or None."""
        if isinstance(other, int):
            other = self.ctx.from_int(other)
        if not isinstance(other, TowerElement):
            return None
        if other.ctx is not self.ctx:
            raise FieldError("operands belong to different towers")
        lev = max(self.level, other.level)
        lift = self.ctx._lift
        return lev, lift(self.coords, self.level, lev), lift(other.coords, other.level, lev)

    def _level0(self, other):
        """Both operands rational elements of this tower: the fast path."""
        return (type(other) is TowerElement and other.ctx is self.ctx
                and self.level == other.level == 0)

    def __add__(self, other):
        if self._level0(other):
            return TowerElement(self.ctx, 0, (self.ctx.base.add(self.coords[0], other.coords[0]),))
        pair = self._pair(other)
        if pair is None:
            return NotImplemented
        lev, x, y = pair
        return TowerElement(self.ctx, lev, self.ctx._add(x, y))._trim()

    __radd__ = __add__

    def __sub__(self, other):
        if self._level0(other):
            return TowerElement(self.ctx, 0, (self.ctx.base.sub(self.coords[0], other.coords[0]),))
        pair = self._pair(other)
        if pair is None:
            return NotImplemented
        lev, x, y = pair
        return TowerElement(self.ctx, lev, self.ctx._sub(x, y))._trim()

    def __rsub__(self, other):
        return (-self) + other

    def __neg__(self):
        if self.level == 0:
            return TowerElement(self.ctx, 0, (self.ctx.base.neg(self.coords[0]),))
        return TowerElement(self.ctx, self.level, self.ctx._neg(self.coords))

    def __mul__(self, other):
        if self._level0(other):
            return TowerElement(self.ctx, 0, (self.ctx.base.mul(self.coords[0], other.coords[0]),))
        pair = self._pair(other)
        if pair is None:
            return NotImplemented
        lev, x, y = pair
        return TowerElement(self.ctx, lev, self.ctx._mul(lev, x, y))._trim()

    __rmul__ = __mul__

    def __truediv__(self, other):
        pair = self._pair(other)
        if pair is None:
            return NotImplemented
        lev, _, y = pair
        if self.ctx._is_zero(y):
            raise FieldError("division by zero")
        return self * TowerElement(self.ctx, lev, self.ctx._inv(lev, y))._trim()

    def __rtruediv__(self, other):
        return self.ctx.from_int(other) / self

    def __pow__(self, n):
        if n < 0:
            return (self.ctx.one / self) ** (-n)
        r = self.ctx.one
        b = self
        while n:
            if n & 1:
                r = r * b
            b = b * b
            n >>= 1
        return r

    def __eq__(self, other):
        if isinstance(other, int):
            other = self.ctx.from_int(other)
        if not isinstance(other, TowerElement):
            return NotImplemented
        return other.ctx is self.ctx and self.level == other.level and self.coords == other.coords

    def __hash__(self):
        return hash((self.level, self.coords))

    def __repr__(self):
        return f"Tower({self.level}; {', '.join(self.ctx.base.fmt(v) for v in self.coords)})"

    def to_json(self):
        return {"level": self.level, "coords": [self.ctx.base.fmt(v) for v in self.coords]}

    @classmethod
    def from_json(cls, ctx, obj):
        return ctx._decode(obj["coords"], obj["level"])


# ---------------------------------------------------------------------------
# public operations


def characteristic(ctx):
    return ctx.base.characteristic


def solve_quadratic(ctx, a, b):
    """Both roots of x^2 + a x + b = 0, extending the tower if needed.

    Returned roots satisfy r1 + r2 == -a and r1 * r2 == b exactly.
    """
    if ctx.base.characteristic == 2:
        return _solve_quadratic_char2(ctx, a, b)
    two = ctx.from_int(2)
    disc = a * a - ctx.from_int(4) * b
    s = ctx.sqrt_in_tower(disc)
    if s is None:
        s = ctx.adjoin_sqrt(disc)
    r1 = (-a + s) / two
    r2 = (-a - s) / two
    return r1, r2


def _solve_quadratic_char2(ctx, a, b):
    if a.is_zero():
        r = ctx.sqrt_in_tower(b)  # always exists: perfect field
        return r, r
    # substitute x = a y:  y^2 + y + b/a^2 = 0
    c = b / (a * a)
    y = _artin_schreier_root(ctx, c)
    if y is None:
        y = ctx.adjoin_artin_schreier(c)
    return a * y, a * (y + ctx.one)


def _artin_schreier_root(ctx, c):
    """Solve y^2 + y = c inside the current char-2 tower, or None."""
    top = len(ctx.levels)
    n = 1 << top
    target = ctx._lift(c.coords, c.level, top)
    # y -> y^2 + y is F_2-linear in the coordinates; solve by elimination
    cols = []
    for i in range(n):
        e = tuple(ctx.base.one if j == i else ctx.base.zero for j in range(n))
        cols.append([v % 2 for v in ctx._add(ctx._mul(top, e, e), e)])
    rows = [[cols[j][i] for j in range(n)] + [target[i] % 2] for i in range(n)]
    piv = []
    r = 0
    for col in range(n):
        sel = next((i for i in range(r, n) if rows[i][col]), None)
        if sel is None:
            continue
        rows[r], rows[sel] = rows[sel], rows[r]
        for i in range(n):
            if i != r and rows[i][col]:
                rows[i] = [(x + y) % 2 for x, y in zip(rows[i], rows[r])]
        piv.append(col)
        r += 1
    for i in range(r, n):
        if rows[i][n]:
            return None
    sol = [0] * n
    for i, col in enumerate(piv):
        sol[col] = rows[i][n]
    y = TowerElement(ctx, top, tuple(ctx.base.from_int(v) for v in sol))._trim()
    if y * y + y != c:
        return None
    return y
