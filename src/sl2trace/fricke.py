"""Trace polynomials for words in free-group generators.

Any word trace reduces to an integer polynomial in the variables
t_S, S a subset of generators, using only the basic trace identity
tr(AB) + tr(A^-1 B) = tr(A) tr(B) and tr(id) = 2.  The rewriting
eliminates inverse letters, splits repeated letters, and bubble-sorts
the remaining distinct positive letters into subset order.
"""

from __future__ import annotations

from .qfield import FieldError


class WordError(ValueError):
    pass


class Word:
    """Freely reduced word: tuple of signed 1-based generator indices."""

    __slots__ = ("letters",)

    def __init__(self, letters=()):
        self.letters = _free_reduce(tuple(int(x) for x in letters))
        if any(x == 0 for x in self.letters):
            raise WordError("generator indices are signed and start at 1")

    @classmethod
    def parse(cls, text):
        """Grammar: whitespace-separated tokens x<k> or x<k>^-1."""
        letters = []
        for tok in text.split():
            neg = False
            if tok.endswith("^-1"):
                neg = True
                tok = tok[:-3]
            if not tok.startswith("x") or not tok[1:].isdigit():
                raise WordError(f"bad token {tok!r}")
            k = int(tok[1:])
            if k < 1:
                raise WordError(f"bad generator index in {tok!r}")
            letters.append(-k if neg else k)
        return cls(letters)

    def __str__(self):
        return " ".join(f"x{abs(k)}" + ("^-1" if k < 0 else "") for k in self.letters)

    def __mul__(self, other):
        return Word(self.letters + other.letters)

    def inverse(self):
        return Word(tuple(-k for k in reversed(self.letters)))

    def conjugate_by(self, g):
        return g * self * g.inverse()

    def rank(self):
        return max((abs(k) for k in self.letters), default=0)

    def __len__(self):
        return len(self.letters)

    def __eq__(self, other):
        return isinstance(other, Word) and self.letters == other.letters

    def __hash__(self):
        return hash(self.letters)

    def __repr__(self):
        return f"Word({self.letters})"


def _free_reduce(letters):
    out = []
    for x in letters:
        if out and out[-1] == -x:
            out.pop()
        else:
            out.append(x)
    return tuple(out)


def _cyclic_reduce(letters):
    while len(letters) >= 2 and letters[0] == -letters[-1]:
        letters = letters[1:-1]
    return letters


def _min_rotation(letters):
    if not letters:
        return letters
    low = min(letters)
    return min(letters[i:] + letters[:i] for i, x in enumerate(letters) if x == low)


# ---------------------------------------------------------------------------
# sparse integer polynomials over hashable variable symbols


class TracePolynomial:
    """Sparse integer polynomial; monomial keys are sorted variable tuples.

    Trace variables are tuples of increasing generator indices, e.g.
    (1, 3) for the trace of x1 x3.
    """

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        self.terms = {}
        if terms:
            for mono, coeff in terms.items():
                if coeff:
                    self.terms[mono] = coeff

    @classmethod
    def _of(cls, terms):
        """Wrap a dict that already holds no zero coefficient."""
        poly = cls.__new__(cls)
        poly.terms = terms
        return poly

    @classmethod
    def constant(cls, n):
        return cls._of({(): n} if n else {})

    @classmethod
    def variable(cls, sym):
        return cls._of({(sym,): 1})

    def __add__(self, other):
        if isinstance(other, int):
            other = TracePolynomial.constant(other)
        out = dict(self.terms)
        for mono, coeff in other.terms.items():
            c = out.get(mono, 0) + coeff
            if c:
                out[mono] = c
            else:
                out.pop(mono, None)
        return TracePolynomial._of(out)

    __radd__ = __add__

    def __neg__(self):
        return TracePolynomial._of({m: -c for m, c in self.terms.items()})

    def __sub__(self, other):
        if isinstance(other, int):
            other = TracePolynomial.constant(other)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, int):
            if not other:
                return TracePolynomial._of({})
            return TracePolynomial._of({m: c * other for m, c in self.terms.items()})
        out = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                mono = tuple(sorted(m1 + m2))
                c = out.get(mono, 0) + c1 * c2
                if c:
                    out[mono] = c
                else:
                    out.pop(mono, None)
        return TracePolynomial._of(out)

    __rmul__ = __mul__

    def __eq__(self, other):
        if isinstance(other, int):
            other = TracePolynomial.constant(other)
        return isinstance(other, TracePolynomial) and self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def variables(self):
        out = set()
        for mono in self.terms:
            out.update(mono)
        return out

    def evaluate(self, assignment):
        """Exact evaluation; assignment maps each variable to a value."""
        missing = self.variables() - set(assignment)
        if missing:
            raise FieldError(f"assignment missing variables {sorted(missing)}")
        total = None
        for mono, coeff in self.terms.items():
            term = None
            for sym in mono:
                v = assignment[sym]
                term = v if term is None else term * v
            if term is None:
                contrib = coeff
            else:
                contrib = term * coeff
            total = contrib if total is None else total + contrib
        if total is None:
            return 0
        return total

    def evaluate_in(self, ctx, assignment):
        """Evaluate into a TowerContext (handles the empty polynomial)."""
        val = self.evaluate(assignment)
        if isinstance(val, int):
            return ctx.from_int(val)
        return val

    def __repr__(self):
        if not self.terms:
            return "0"
        bits = []
        for mono, coeff in sorted(self.terms.items()):
            names = "*".join("t" + "".join(str(i) for i in sym) for sym in mono)
            bits.append(f"{coeff}" + (f"*{names}" if names else ""))
        return " + ".join(bits)

    def to_json(self):
        out = []
        for mono, coeff in sorted(self.terms.items()):
            out.append({"vars": [list(sym) for sym in mono], "coeff": str(coeff)})
        return out

    @classmethod
    def from_json(cls, obj):
        terms = {}
        for item in obj:
            mono = tuple(sorted(tuple(v) for v in item["vars"]))
            terms[mono] = terms.get(mono, 0) + int(item["coeff"])
        return cls(terms)


# ---------------------------------------------------------------------------
# word trace reduction
#
# The reduction works on packed monomials: each trace variable t_S owns a
# one-byte exponent field of one int, assigned on first use, so a product
# of monomials is an int addition.  Every rewrite keeps the total degree
# of tr(w) at most the cyclically reduced length of w, so no field
# overflows while that length is below 2**_WIDTH = 256.  Memo entries are
# plain {packed monomial: coefficient} dicts, shared and never mutated.


_WIDTH = 8  # bits per exponent field: one byte, read back by _decode
_MAX_LETTERS = 1 << _WIDTH
_SHIFT = {}    # trace variable -> bit offset of its exponent field
_SYMS = []     # trace variables in field order
_DECODED = {}  # packed monomial -> sorted variable tuple
_REDUCE_CACHE = {}


def _var(sym):
    """Packed monomial of the single trace variable sym."""
    shift = _SHIFT.get(sym)
    if shift is None:
        shift = _SHIFT[sym] = _WIDTH * len(_SYMS)
        _SYMS.append(sym)
    return 1 << shift


def _decode(mono):
    """Sorted variable tuple of a packed monomial (one byte per field)."""
    syms = _DECODED.get(mono)
    if syms is None:
        out = []
        for i, e in enumerate(mono.to_bytes(len(_SYMS), "little")):
            if e:
                out += (_SYMS[i],) * e
        out.sort()
        syms = _DECODED[mono] = tuple(out)
    return syms


def reduce_trace_word(word, rank=None):
    """Integer trace polynomial of a word, valid for every SL(2) rep.

    Raises WordError for a letter above rank and for a word whose cyclic
    reduction has 256 letters or more (the exponent fields are one byte)."""
    if isinstance(word, Word):
        letters = word.letters
    else:
        letters = Word(word).letters
    if rank is not None:
        bad = [k for k in letters if abs(k) > rank]
        if bad:
            raise WordError(f"letters {bad} exceed rank {rank}")
    if len(_cyclic_reduce(letters)) >= _MAX_LETTERS:
        raise WordError(f"cyclically reduced words must be shorter than {_MAX_LETTERS} letters")
    return TracePolynomial._of({_decode(m): c for m, c in _reduce(letters).items()})


def _reduce(letters):
    letters = _min_rotation(_cyclic_reduce(_free_reduce(letters)))
    if not letters:
        return {0: 2}
    cached = _REDUCE_CACHE.get(letters)
    if cached is not None:
        return cached
    terms = _reduce_step(letters)
    _REDUCE_CACHE[letters] = terms
    return terms


def _add_product(out, p, q):
    """out += p * q on packed-monomial dicts, dropping zero terms."""
    get = out.get
    for m1, c1 in p.items():
        for m2, c2 in q.items():
            m = m1 + m2
            c = get(m, 0) + c1 * c2
            if c:
                out[m] = c
            else:
                del out[m]


def _negated(p):
    return {m: -c for m, c in p.items()}


def _reduce_step(letters):
    n = len(letters)
    # single letter: tr x = tr x^-1 = t_i
    if n == 1:
        return {_var((abs(letters[0]),)): 1}

    # eliminate an inverse letter: tr(x^-1 V) = tr(x) tr(V) - tr(x V)
    for i, x in enumerate(letters):
        if x < 0:
            rest = letters[i + 1:] + letters[:i]
            out = _negated(_reduce((-x,) + rest))
            _add_product(out, {_var((-x,)): 1}, _reduce(rest))
            return out

    # split a repeated letter: tr(xV xW) = tr(xV) tr(xW) - tr(V^-1 W)
    first_pos = {}
    for i, x in enumerate(letters):
        if x in first_pos:
            j = first_pos[x]
            v = letters[j + 1: i]
            w = letters[i + 1:] + letters[:j]
            vinv = tuple(-k for k in reversed(v))
            out = _negated(_reduce(vinv + w))
            _add_product(out, _reduce((x,) + v), _reduce((x,) + w))
            return out
        first_pos[x] = i

    # positive word, distinct letters: bubble adjacent out-of-order pairs
    # tr(xj xi M) = -tr(xi xj M) + tr(xi xj) tr(M)
    #              + tr(xi) tr(xj M) + tr(xj) tr(xi M) - tr(xi) tr(xj) tr(M)
    for i in range(n - 1):
        if letters[i] > letters[i + 1]:
            xj, xi = letters[i], letters[i + 1]
            m = letters[i + 2:] + letters[:i]
            ti, tj = _var((xi,)), _var((xj,))
            tm = _reduce(m)
            out = _negated(_reduce((xi, xj) + m))
            _add_product(out, _reduce((xi, xj)), tm)
            _add_product(out, {ti: 1}, _reduce((xj,) + m))
            _add_product(out, {tj: 1}, _reduce((xi,) + m))
            _add_product(out, {ti + tj: -1}, tm)
            return out

    # sorted positive word with distinct letters: a basic variable
    return {_var(letters): 1}


def trace_of_word_direct(rep, word):
    """Brute-force oracle: multiply the matrices, take the trace."""
    letters = word.letters if isinstance(word, Word) else Word(word).letters
    return rep.image(letters).trace()


def subset_trace_assignment(rep):
    """Traces of all products x_{i1}..x_{ik}, i1 < .. < ik, for a rep."""
    from .sl2 import Mat2

    n = rep.rank
    prods = {(): Mat2.identity(rep.ctx)}
    assignment = {}
    for mask in range(1, 1 << n):
        subset = tuple(i + 1 for i in range(n) if mask >> i & 1)
        prods[subset] = rep.generators[subset[0] - 1] * prods[subset[1:]]
        assignment[subset] = prods[subset].trace()
    return assignment


# ---------------------------------------------------------------------------
# the rank-3 character hypersurface


def t123_pq(t1, t2, t3, t12, t23, t31):
    """P and Q with x^2 - P x + Q = 0 solved by tr(A1A2A3), tr(A1^-1A2^-1A3^-1)."""
    four = t1.ctx.from_int(4)
    p = t1 * t23 + t2 * t31 + t3 * t12 - t1 * t2 * t3
    q = (
        t1 * t1 + t2 * t2 + t3 * t3
        + t12 * t12 + t23 * t23 + t31 * t31
        - t1 * t2 * t12 - t2 * t3 * t23 - t3 * t1 * t31
        + t12 * t23 * t31 - four
    )
    return p, q


def t123_roots(t1, t2, t3, t12, t23, t31, ctx=None):
    """Both admissible triple traces for the given six trace values."""
    from .qfield import solve_quadratic

    ctx = ctx if ctx is not None else t1.ctx
    p, q = t123_pq(t1, t2, t3, t12, t23, t31)
    return solve_quadratic(ctx, -p, q)


class CharPoint3:
    """Candidate rank-3 character point (t1,t2,t3,t12,t23,t31,t123)."""

    __slots__ = ("values",)

    def __init__(self, values):
        values = tuple(values)
        if len(values) != 7:
            raise WordError("a rank-3 character point has 7 coordinates")
        self.values = values


def variety_residual(point):
    """Defining equation of the rank-3 character hypersurface, evaluated."""
    if isinstance(point, CharPoint3):
        vals = point.values
    else:
        vals = tuple(point)
    t1, t2, t3, t12, t23, t31, t123 = vals
    p, q = t123_pq(t1, t2, t3, t12, t23, t31)
    return t123 * t123 - p * t123 + q


def harvest_char_point(rep):
    """The 7 subset traces of a rank-3 rep, in hypersurface order."""
    a = subset_trace_assignment(rep)
    return CharPoint3(
        (a[(1,)], a[(2,)], a[(3,)], a[(1, 2)], a[(2, 3)], a[(1, 3)], a[(1, 2, 3)])
    )
