"""Determinant-1 matrix algebra over a tower field.

Covers trace identities, reducibility detection with eigenline
witnesses, normal forms for reducible pairs, and the constructive
realization of six prescribed traces by a matrix triple.
"""

from __future__ import annotations

from .qfield import solve_quadratic


class SL2Error(ValueError):
    pass


class Mat2:
    """2x2 matrix with determinant 1, entries in one TowerContext."""

    __slots__ = ("a", "b", "c", "d", "ctx")

    def __init__(self, a, b, c, d):
        self.a, self.b, self.c, self.d = a, b, c, d
        self.ctx = a.ctx
        if a * d - b * c != self.ctx.one:
            raise SL2Error("determinant is not 1")

    @classmethod
    def identity(cls, ctx):
        return _mat2(ctx.one, ctx.zero, ctx.zero, ctx.one)

    @classmethod
    def from_ints(cls, ctx, a, b, c, d):
        return cls(ctx.from_int(a), ctx.from_int(b), ctx.from_int(c), ctx.from_int(d))

    def __mul__(self, other):
        return _mat2(
            self.a * other.a + self.b * other.c,
            self.a * other.b + self.b * other.d,
            self.c * other.a + self.d * other.c,
            self.c * other.b + self.d * other.d,
        )

    def inverse(self):
        return _mat2(self.d, -self.b, -self.c, self.a)

    def __neg__(self):
        return _mat2(-self.a, -self.b, -self.c, -self.d)

    def trace(self):
        return self.a + self.d

    def commutator(self, other):
        return self * other * self.inverse() * other.inverse()

    def conjugate_by(self, s):
        """s * self * s^-1."""
        return s * self * s.inverse()

    def apply(self, u, v):
        return (self.a * u + self.b * v, self.c * u + self.d * v)

    def is_identity(self):
        ctx = self.ctx
        return self.a == ctx.one and self.d == ctx.one and self.b.is_zero() and self.c.is_zero()

    def is_plus_minus_identity(self):
        return self.is_identity() or (-self).is_identity()

    def __eq__(self, other):
        if not isinstance(other, Mat2):
            return NotImplemented
        return (self.a, self.b, self.c, self.d) == (other.a, other.b, other.c, other.d)

    def __hash__(self):
        return hash((self.a, self.b, self.c, self.d))

    def __repr__(self):
        return f"Mat2[{self.a!r} {self.b!r}; {self.c!r} {self.d!r}]"

    def entries(self):
        return (self.a, self.b, self.c, self.d)

    def to_json(self):
        return [e.to_json() for e in self.entries()]


def _mat2(a, b, c, d):
    """Mat2 without the determinant check, for the identity and for
    products, inverses and negations of Mat2s, whose determinant is 1."""
    m = object.__new__(Mat2)
    m.a, m.b, m.c, m.d, m.ctx = a, b, c, d, a.ctx
    return m


class Rep:
    """Assignment of one Mat2 per free-group generator."""

    def __init__(self, generators):
        if not generators:
            raise SL2Error("rep needs at least one generator")
        self.generators = list(generators)
        self.ctx = self.generators[0].ctx

    @property
    def rank(self):
        return len(self.generators)

    def image(self, word):
        """Matrix of a word given as signed 1-based generator indices."""
        m = Mat2.identity(self.ctx)
        for letter in word:
            g = self.generators[abs(letter) - 1]
            m = m * (g if letter > 0 else g.inverse())
        return m

    def to_json(self):
        return {"generators": [g.to_json() for g in self.generators]}


class Line:
    """Projective point (u : v), scaled so the first nonzero entry is 1."""

    __slots__ = ("u", "v")

    def __init__(self, u, v):
        if u.is_zero() and v.is_zero():
            raise SL2Error("line needs a nonzero direction")
        if not u.is_zero():
            v = v / u
            u = u.ctx.one
        else:
            v = v.ctx.one
        self.u, self.v = u, v

    def __eq__(self, other):
        if not isinstance(other, Line):
            return NotImplemented
        return self.u == other.u and self.v == other.v

    def __hash__(self):
        return hash((self.u, self.v))

    def __repr__(self):
        return f"Line({self.u!r} : {self.v!r})"

    def is_fixed_by(self, m):
        nu, nv = m.apply(self.u, self.v)
        return (nu * self.v - nv * self.u).is_zero()


def delta(am, bm):
    """Delta of trA, trB, trAB; zero iff <A,B> is reducible."""
    return delta_values(am.trace(), bm.trace(), (am * bm).trace())


def delta_values(x, y, z):
    """The Fricke form x^2 + y^2 + z^2 - xyz - 4, for int, tower and
    trace-polynomial values alike.  Zero iff a pair A, B with traces
    x = trA, y = trB, z = trAB (or a pair of pants with boundary values
    x, y, z) is reducible."""
    return x * x + y * y + z * z - x * y * z - 4


def eigenvalues(m):
    """Both eigenvalues, extending the tower when they are irrational."""
    return solve_quadratic(m.ctx, -m.trace(), m.ctx.one)


def eigenlines(m):
    """All eigenlines of m (one or two); m must not be +-id."""
    if m.is_plus_minus_identity():
        raise SL2Error("every line is an eigenline of +-id")
    ctx = m.ctx
    lines = []
    for lam in set(eigenvalues(m)):
        if not m.b.is_zero():
            lines.append(Line(m.b, lam - m.a))
        elif m.a == lam:
            if m.c.is_zero() and m.d == lam:
                continue
            lines.append(Line(lam - m.d, m.c))
        else:
            lines.append(Line(ctx.zero, ctx.one))
    out = []
    for ln in lines:
        if ln not in out and ln.is_fixed_by(m):
            out.append(ln)
    if not out:
        raise SL2Error("eigenline computation failed")
    return out


def common_eigenline(mats):
    """A line fixed by every matrix in the family, or None."""
    active = [m for m in mats if not m.is_plus_minus_identity()]
    if not active:
        return Line(mats[0].ctx.one, mats[0].ctx.zero)
    for ln in eigenlines(active[0]):
        if all(ln.is_fixed_by(m) for m in active[1:]):
            return ln
    return None


class ReducibilityVerdict:
    __slots__ = ("reducible", "witness", "certificate")

    def __init__(self, reducible, witness=None, certificate=None):
        self.reducible = reducible
        self.witness = witness  # Line when reducible
        self.certificate = certificate  # indices of a failing subfamily

    def __bool__(self):
        return self.reducible


def is_reducible_pair(am, bm):
    if am.is_plus_minus_identity() or bm.is_plus_minus_identity():
        return ReducibilityVerdict(True, witness=common_eigenline([am, bm]))
    if not delta(am, bm).is_zero():
        return ReducibilityVerdict(False, certificate=(0, 1))
    ln = common_eigenline([am, bm])
    if ln is None:
        raise SL2Error("delta vanished but no common eigenline found")
    return ReducibilityVerdict(True, witness=ln)


def is_reducible_family(mats):
    """Reducibility of the generated group, with witness or certificate.

    Pairs are tested by delta; a certificate names a 2- or 3-element
    subfamily with no common eigenline.
    """
    if not mats:
        raise SL2Error("empty family")
    idx = [i for i, m in enumerate(mats) if not m.is_plus_minus_identity()]
    if not idx:
        return ReducibilityVerdict(True, witness=Line(mats[0].ctx.one, mats[0].ctx.zero))
    for ii in range(len(idx)):
        for jj in range(ii + 1, len(idx)):
            i, j = idx[ii], idx[jj]
            if not delta(mats[i], mats[j]).is_zero():
                return ReducibilityVerdict(False, certificate=(i, j))
    ln = common_eigenline([mats[i] for i in idx])
    if ln is not None:
        return ReducibilityVerdict(True, witness=ln)
    # all pairs share lines but the family does not: certify with a triple
    for ii in range(len(idx)):
        for jj in range(ii + 1, len(idx)):
            for kk in range(jj + 1, len(idx)):
                tri = (idx[ii], idx[jj], idx[kk])
                if common_eigenline([mats[t] for t in tri]) is None:
                    return ReducibilityVerdict(False, certificate=tri)
    raise SL2Error("inconsistent reducibility state")


# ---------------------------------------------------------------------------
# realization of prescribed traces


def realize_triple(t1, t2, t3, t12, t23, t31, ctx):
    """Three SL(2) matrices with tr A_i = t_i and tr A_iA_j = t_ij.

    Always succeeds over the tower (extending it as needed); the six
    trace equations are re-verified before returning.
    """
    mats = _realize(t1, t2, t3, t12, t23, t31, ctx)
    _verify_triple(mats, (t1, t2, t3, t12, t23, t31))
    return mats


def _verify_triple(mats, ts):
    a1, a2, a3 = mats
    t1, t2, t3, t12, t23, t31 = ts
    ok = (
        a1.trace() == t1 and a2.trace() == t2 and a3.trace() == t3
        and (a1 * a2).trace() == t12
        and (a2 * a3).trace() == t23
        and (a3 * a1).trace() == t31
    )
    if not ok:
        raise SL2Error("trace realization failed verification")


def _pm2(x):
    ctx = x.ctx
    return x == ctx.from_int(2) or x == ctx.from_int(-2)


def _rotated(solve, ts, r, ctx):
    """solve() on the generators relabelled from 1 + r, its matrices put
    back in the original order."""
    gens = [ts[(i + r) % 3] for i in range(3)]
    pairs = [ts[3 + (i + r) % 3] for i in range(3)]
    mats = solve(*gens, *pairs, ctx)
    return tuple(mats[(i - r) % 3] for i in range(3))


def _realize(t1, t2, t3, t12, t23, t31, ctx):
    ts = (t1, t2, t3, t12, t23, t31)
    for r in range(3):
        if not _pm2(ts[r]):
            return _rotated(_realize_case1, ts, r, ctx)
    for r in range(3):
        if not _pm2(ts[3 + r]):
            return _rotated(_realize_case2, ts, r, ctx)
    return _realize_case3(ts, ctx)


def _realize_case1(x1, x2, x3, x12, x23, x31, ctx):
    # x1 is not +-2: A1 = diag(lam, 1/lam) with lam + 1/lam = x1
    lam, _ = solve_quadratic(ctx, -x1, ctx.one)
    lam_inv = ctx.one / lam
    dt = lam - lam_inv
    a = (x12 - lam_inv * x2) / dt
    d = x2 - a
    x = (x31 - lam_inv * x3) / dt
    w = x3 - x
    p = x23 - a * x - d * w
    bc = a * d - ctx.one
    yz = x * w - ctx.one
    if not bc.is_zero():
        b, c = ctx.one, bc
        # c y^2 - p y + yz = 0
        y, _ = solve_quadratic(ctx, -p / c, yz / c)
        z = p - c * y
    elif p.is_zero():
        b, c = ctx.zero, ctx.zero
        y, z = yz, ctx.one
    else:
        b, c = ctx.one, ctx.zero
        z = p
        y = yz / p
    a1 = Mat2(lam, ctx.zero, ctx.zero, lam_inv)
    a2 = Mat2(a, b, c, d)
    a3 = Mat2(x, y, z, w)
    return (a1, a2, a3)


def _realize_case2(x1, x2, x3, x12, x23, x31, ctx):
    # x12 is not +-2: pass to B1 = A1 A2, B2 = A2^-1, B3 = A2^-1 A3
    s1 = x12
    s2 = x2
    s3 = x2 * x3 - x23
    s12 = x1
    s23 = x2 * x2 * x3 - x2 * x23 - x3
    s31 = x31
    b1, b2, b3 = _realize_case1(s1, s2, s3, s12, s23, s31, ctx)
    b2i = b2.inverse()
    return (b1 * b2, b2i, b2i * b3)


def _case3_templates(ctx):
    ident = Mat2.identity(ctx)
    up = Mat2.from_ints(ctx, 1, 1, 0, 1)
    low = Mat2.from_ints(ctx, 1, 0, -4, 1)
    last = Mat2.from_ints(ctx, -1, 1, -4, 3)
    two = ctx.from_int(2)
    m2 = -two
    return {
        (two, two, two): (ident, ident, ident),
        (m2, two, two): (up, low, ident),
        (m2, m2, two): (up, low, up),
        (m2, m2, m2): (up, low, last),
    }


# (generator permutation s, inverse of the induced pair-position map);
# positions are 0:{1,2} 1:{2,3} 2:{3,1}
_S3 = [
    ((0, 1, 2), (0, 1, 2)),
    ((1, 2, 0), (2, 0, 1)),
    ((2, 0, 1), (1, 2, 0)),
    ((1, 0, 2), (0, 2, 1)),
    ((0, 2, 1), (2, 1, 0)),
    ((2, 1, 0), (1, 0, 2)),
]


def _realize_case3(ts, ctx):
    # all six values +-2: flip signs of A_i to normalize t_i = 2, then
    # match one of the four solution templates up to index permutation
    t1, t2, t3, t12, t23, t31 = ts
    two = ctx.from_int(2)
    eps = tuple(ctx.one if t == two else -ctx.one for t in (t1, t2, t3))
    pair = (t12 * eps[0] * eps[1], t23 * eps[1] * eps[2], t31 * eps[2] * eps[0])
    templates = _case3_templates(ctx)
    for gen_perm, pair_perm in _S3:
        key = tuple(pair[i] for i in pair_perm)
        if key in templates:
            sol = templates[key]
            mats = tuple(sol[gen_perm[i]] for i in range(3))
            return tuple(
                m if e == ctx.one else -m for m, e in zip(mats, eps)
            )
    raise SL2Error("no case-3 template matched")


# ---------------------------------------------------------------------------
# normal forms


class NormalizedPair:
    __slots__ = ("conjugator", "first", "second", "diagonalizable")

    def __init__(self, conjugator, first, second, diagonalizable):
        self.conjugator = conjugator
        self.first = first
        self.second = second
        self.diagonalizable = diagonalizable


def _line_to_first_basis(ln, ctx):
    """SL2 matrix T with T (1,0)^t proportional to the line direction."""
    if not ln.u.is_zero():
        return Mat2(ln.u, ctx.zero, ln.v, ctx.one / ln.u)
    return Mat2(ctx.zero, -(ctx.one / ln.v), ln.v, ctx.zero)


def diagonalize_or_normalize(am, bm):
    """Upper-triangular normal form of a reducible pair.

    Returns a NormalizedPair whose conjugator S satisfies
    S^-1 A S = first, S^-1 B S = second; the pair is made diagonal
    whenever a second shared eigenline exists.
    """
    verdict = is_reducible_pair(am, bm)
    if not verdict.reducible:
        raise SL2Error("pair is irreducible")
    ctx = am.ctx
    t = _line_to_first_basis(verdict.witness, ctx)
    tinv = t.inverse()
    a1, b1 = tinv * am * t, tinv * bm * t
    # hunt a second common fixed line, necessarily of the form (x : 1)
    second_x = None
    found = False
    for m in (a1, b1):
        if m.is_plus_minus_identity():
            continue
        found = True
        dt = m.a - m.d
        if not dt.is_zero():
            second_x = -m.b / dt
        break
    if not found:
        second_x = ctx.zero  # both +-id: already diagonal
    ok2 = second_x is not None and Line(second_x, ctx.one).is_fixed_by(a1) \
        and Line(second_x, ctx.one).is_fixed_by(b1)
    if ok2:
        u = Mat2(ctx.one, second_x, ctx.zero, ctx.one)
        t = t * u
        tinv = u.inverse() * tinv
        a1, b1 = tinv * am * t, tinv * bm * t
        diag = True
    else:
        diag = False
        if not a1.b.is_zero() and not (a1.a - a1.d).is_zero():
            # put A into diagonal form, keeping B upper triangular
            u = Mat2(ctx.one, a1.b / (a1.d - a1.a), ctx.zero, ctx.one)
            t = t * u
            tinv = u.inverse() * tinv
            a1, b1 = tinv * am * t, tinv * bm * t
        if not b1.b.is_zero():
            s = ctx.sqrt_in_tower(b1.b)
            if s is None:
                s = ctx.adjoin_sqrt(b1.b)
            u = Mat2(s, ctx.zero, ctx.zero, ctx.one / s)
            t = t * u
            tinv = u.inverse() * tinv
            a1, b1 = tinv * am * t, tinv * bm * t
    if a1.trace() != am.trace() or b1.trace() != bm.trace():
        raise SL2Error("normalization changed traces")
    return NormalizedPair(t, a1, b1, diag)


def diagonalize_family(mats):
    """Diagonal matrices with the same character as a reducible family.

    Conjugates the common eigenline to (1:0) and drops the upper
    triangle, which preserves all word traces of a reducible family.
    """
    ln = common_eigenline(mats)
    if ln is None:
        raise SL2Error("family is irreducible")
    ctx = mats[0].ctx
    t = _line_to_first_basis(ln, ctx)
    tinv = t.inverse()
    out = []
    for m in mats:
        mm = tinv * m * t
        if not mm.c.is_zero():
            raise SL2Error("triangularization failed")
        out.append(Mat2(mm.a, ctx.zero, ctx.zero, mm.d))
    return out


# ---------------------------------------------------------------------------
# trace-2 normal subgroup test


class GMVerdict:
    __slots__ = ("kind", "witness")

    def __init__(self, kind, witness=None):
        self.kind = kind  # identity_image | reducible | not_applicable
        self.witness = witness


def gm_reducibility_witness(rep, word):
    """If tr w = 2 and tr [w, x_i] = 2 for all i: w maps to id or the
    rep is reducible (with the unique eigenline of the image as witness)."""
    two = rep.ctx.from_int(2)
    m = rep.image(word)
    if m.trace() != two:
        return GMVerdict("not_applicable")
    for g in rep.generators:
        if m.commutator(g).trace() != two:
            return GMVerdict("not_applicable")
    if m.is_identity():
        return GMVerdict("identity_image")
    lines = eigenlines(m)
    return GMVerdict("reducible", witness=lines[0])
