import random

import pytest
from hypothesis import given, settings, strategies as st

import sl2trace.fricke as fricke
from sl2trace.qfield import FieldError, PrimeBase, RationalBase, TowerContext
from sl2trace.sl2 import Mat2, Rep
from sl2trace.fricke import (
    CharPoint3,
    TracePolynomial,
    Word,
    WordError,
    harvest_char_point,
    reduce_trace_word,
    subset_trace_assignment,
    t123_roots,
    trace_of_word_direct,
    variety_residual,
)


def q_ctx():
    return TowerContext(RationalBase())


def random_rep(rng, ctx, rank, bound=3):
    gens = []
    for _ in range(rank):
        b = ctx.from_int(rng.randint(-bound, bound))
        c = ctx.from_int(rng.randint(-bound, bound))
        gens.append(Mat2(ctx.one, b, c, ctx.one + b * c))
    return Rep(gens)


def reduced_words(rank, max_len):
    stack = [()]
    while stack:
        w = stack.pop()
        if w:
            yield w
        if len(w) == max_len:
            continue
        for k in range(1, rank + 1):
            for s in (k, -k):
                if w and w[-1] == -s:
                    continue
                stack.append(w + (s,))


def test_word_parse_and_str():
    w = Word.parse("x1 x2 x1^-1")
    assert w.letters == (1, 2, -1)
    assert str(w) == "x1 x2 x1^-1"
    assert Word.parse(str(w)) == w


def test_word_free_reduction():
    assert Word((1, -1, 2)).letters == (2,)
    assert Word((1, 2, -2, -1)).letters == ()


def test_word_parse_errors():
    with pytest.raises(WordError):
        Word.parse("y1")
    with pytest.raises(WordError):
        Word.parse("x0")


def test_single_letters():
    assert reduce_trace_word(Word((1,))) == TracePolynomial.variable((1,))
    assert reduce_trace_word(Word((-1,))) == TracePolynomial.variable((1,))


def test_commutator_polynomial():
    p = reduce_trace_word(Word((1, 2, -1, -2)))
    t1, t2, t12 = (TracePolynomial.variable(v) for v in [(1,), (2,), (1, 2)])
    assert p == t1 * t1 + t2 * t2 + t12 * t12 - t1 * t2 * t12 - 2


def test_conjugated_generator_polynomial():
    p = reduce_trace_word(Word((1, 2, 3, -2)))
    t = {v: TracePolynomial.variable(v) for v in [(1,), (2,), (3,), (1, 2), (2, 3), (1, 3), (1, 2, 3)]}
    expected = -t[(1, 2)] * t[(2, 3)] + t[(1,)] * t[(3,)] + t[(2,)] * t[(1, 2, 3)] - t[(1, 3)]
    assert p == expected


def test_commutator_eval_all_twos():
    p = reduce_trace_word(Word((1, 2, -1, -2)))
    val = p.evaluate({(1,): 2, (2,): 2, (1, 2): 2})
    assert val == 2


def test_eval_missing_variable():
    p = reduce_trace_word(Word((1, 2)))
    with pytest.raises(FieldError):
        p.evaluate({(1,): 2})


def test_poly_json_roundtrip():
    p = reduce_trace_word(Word((1, 2, -1, -2, 3)))
    q = TracePolynomial.from_json(p.to_json())
    assert p == q


def test_oracle_small_exhaustive():
    rng = random.Random(101)
    ctx = q_ctx()
    reps = [random_rep(rng, ctx, 3) for _ in range(5)]
    assigns = [subset_trace_assignment(r) for r in reps]
    for letters in reduced_words(3, 4):
        poly = reduce_trace_word(Word(letters), 3)
        for rep, assign in zip(reps, assigns):
            direct = trace_of_word_direct(rep, Word(letters))
            assert poly.evaluate_in(ctx, assign) == direct, letters


def test_oracle_rank4_random_words():
    rng = random.Random(202)
    ctx = q_ctx()
    reps = [random_rep(rng, ctx, 4) for _ in range(3)]
    assigns = [subset_trace_assignment(r) for r in reps]
    for _ in range(40):
        length = rng.randint(1, 8)
        letters = []
        while len(letters) < length:
            s = rng.choice([1, -1]) * rng.randint(1, 4)
            if letters and letters[-1] == -s:
                continue
            letters.append(s)
        w = Word(letters)
        poly = reduce_trace_word(w, 4)
        for rep, assign in zip(reps, assigns):
            assert poly.evaluate_in(ctx, assign) == trace_of_word_direct(rep, w)


def test_conjugacy_and_inverse_invariance():
    rng = random.Random(303)
    ctx = q_ctx()
    reps = [random_rep(rng, ctx, 3) for _ in range(3)]
    assigns = [subset_trace_assignment(r) for r in reps]
    for _ in range(25):
        letters = [rng.choice([1, -1]) * rng.randint(1, 3) for _ in range(rng.randint(1, 6))]
        g = [rng.choice([1, -1]) * rng.randint(1, 3) for _ in range(rng.randint(1, 3))]
        w = Word(letters)
        pw = reduce_trace_word(w)
        pc = reduce_trace_word(w.conjugate_by(Word(g)))
        pi = reduce_trace_word(w.inverse())
        for rep, assign in zip(reps, assigns):
            base = pw.evaluate_in(ctx, assign)
            assert pc.evaluate_in(ctx, assign) == base
            assert pi.evaluate_in(ctx, assign) == base


def test_oracle_over_f5():
    rng = random.Random(404)
    ctx = TowerContext(PrimeBase(5))
    rep = random_rep(rng, ctx, 3)
    assign = subset_trace_assignment(rep)
    for letters in [(1, 2, 3), (1, -2, 1, 3), (3, 3, 2, -1), (2, 1, 3, 2)]:
        w = Word(letters)
        assert reduce_trace_word(w).evaluate_in(ctx, assign) == trace_of_word_direct(rep, w)


def test_variety_residual_all_twos():
    ctx = q_ctx()
    two = ctx.from_int(2)
    assert variety_residual([two] * 7).is_zero()


def test_variety_residual_zero_tuple():
    ctx = q_ctx()
    z = ctx.zero
    pt = [z, z, z, z, z, z, ctx.from_int(2)]
    # residual reduces to t123^2 - 4
    assert variety_residual(pt).is_zero()
    pt[6] = ctx.from_int(3)
    assert variety_residual(pt) == ctx.from_int(5)


def test_variety_residual_on_random_reps():
    rng = random.Random(505)
    ctx = q_ctx()
    for _ in range(50):
        rep = random_rep(rng, ctx, 3)
        pt = harvest_char_point(rep)
        assert variety_residual(pt).is_zero()


def test_variety_residual_detects_perturbation():
    rng = random.Random(606)
    ctx = q_ctx()
    hits = 0
    for _ in range(50):
        rep = random_rep(rng, ctx, 3)
        pt = list(harvest_char_point(rep).values)
        r1, r2 = t123_roots(*pt[:6], ctx)
        bumped = pt[6] + ctx.one
        if bumped == r1 or bumped == r2:
            continue
        hits += 1
        pt[6] = bumped
        assert not variety_residual(pt).is_zero()
    assert hits > 30


def test_t123_roots_all_twos():
    ctx = q_ctx()
    two = ctx.from_int(2)
    r1, r2 = t123_roots(two, two, two, two, two, two, ctx)
    assert r1 == two and r2 == two


def test_t123_roots_vieta_on_zero_tuple():
    ctx = q_ctx()
    z = ctx.zero
    r1, r2 = t123_roots(z, z, z, z, z, z, ctx)
    assert r1 + r2 == ctx.zero
    assert r1 * r2 == ctx.from_int(-4)


def test_t123_roots_match_rep():
    rng = random.Random(707)
    ctx = q_ctx()
    for _ in range(20):
        rep = random_rep(rng, ctx, 3)
        a = subset_trace_assignment(rep)
        r1, r2 = t123_roots(a[(1,)], a[(2,)], a[(3,)], a[(1, 2)], a[(2, 3)], a[(1, 3)], ctx)
        t123 = a[(1, 2, 3)]
        tinv = trace_of_word_direct(rep, Word((-1, -2, -3)))
        assert {r1, r2} == {t123, tinv}


@settings(max_examples=40, deadline=None)
@given(st.lists(st.sampled_from([1, -1, 2, -2, 3, -3]), min_size=1, max_size=7))
def test_oracle_property(letters):
    ctx = q_ctx()
    rng = random.Random(hash(tuple(letters)) & 0xFFFF)
    rep = random_rep(rng, ctx, 3)
    w = Word(letters)
    lhs = reduce_trace_word(w, 3).evaluate_in(ctx, subset_trace_assignment(rep))
    assert lhs == trace_of_word_direct(rep, w)


def test_char_point_length_check():
    with pytest.raises(WordError):
        CharPoint3((1, 2, 3))



# ---------------------------------------------------------------------------
# the packed reduction against a sorted-tuple reference


def _canonical(letters):
    """Free and cyclic reduction, then the least rotation."""
    out = []
    for x in letters:
        if out and out[-1] == -x:
            out.pop()
        else:
            out.append(x)
    while len(out) >= 2 and out[0] == -out[-1]:
        out = out[1:-1]
    w = tuple(out)
    return min((w[i:] + w[:i] for i in range(len(w))), default=w)


def _ref_combine(*signed_products):
    """Sum of sign * p * q over sorted-tuple monomial dicts."""
    out = {}
    for sign, p, q in signed_products:
        for m1, c1 in p.items():
            for m2, c2 in q.items():
                m = tuple(sorted(m1 + m2))
                out[m] = out.get(m, 0) + sign * c1 * c2
    return {m: c for m, c in out.items() if c}


def _ref_reduce(letters, memo):
    """Trace polynomial by the same three rewrite rules, on sorted tuples."""
    w = _canonical(letters)
    if not w:
        return {(): 2}
    if w in memo:
        return memo[w]
    one = {(): 1}

    def var(sym):
        return {(sym,): 1}

    def red(x):
        return _ref_reduce(x, memo)

    n = len(w)
    negative = [i for i, x in enumerate(w) if x < 0]
    seen = {}
    repeat = None
    for i, x in enumerate(w):
        if x in seen:
            repeat = (seen[x], i, x)
            break
        seen[x] = i
    swap = next((i for i in range(n - 1) if w[i] > w[i + 1]), None)
    if n == 1:
        out = var((abs(w[0]),))
    elif negative:
        i = negative[0]
        rest = w[i + 1:] + w[:i]
        out = _ref_combine((1, var((-w[i],)), red(rest)), (-1, red((-w[i],) + rest), one))
    elif repeat is not None:
        j, i, x = repeat
        v, rest = w[j + 1: i], w[i + 1:] + w[:j]
        vinv = tuple(-k for k in reversed(v))
        out = _ref_combine((1, red((x,) + v), red((x,) + rest)), (-1, red(vinv + rest), one))
    elif swap is not None:
        xj, xi = w[swap], w[swap + 1]
        m = w[swap + 2:] + w[:swap]
        ti, tj, tm = var((xi,)), var((xj,)), red(m)
        out = _ref_combine(
            (-1, red((xi, xj) + m), one),
            (1, red((xi, xj)), tm),
            (1, ti, red((xj,) + m)),
            (1, tj, red((xi,) + m)),
            (-1, _ref_combine((1, ti, tj)), tm),
        )
    else:
        out = var(w)
    memo[w] = out
    return out


def _random_words(seed, count, max_len=10):
    rng = random.Random(seed)
    words = []
    for _ in range(count):
        rank = rng.randint(1, 5)
        letters = [rng.choice([1, -1]) * rng.randint(1, rank)
                   for _ in range(rng.randint(1, max_len))]
        words.append(Word(letters))
    return words


def test_packed_reduction_matches_sorted_tuple_reference():
    memo = {}
    words = _random_words(808, 320)
    assert {w.rank() for w in words} >= {1, 2, 3, 4, 5}
    for w in words:
        assert reduce_trace_word(w).terms == _ref_reduce(w.letters, memo), w


def test_cold_and_warm_memo_agree():
    words = _random_words(909, 40)
    warm = [reduce_trace_word(w).terms for w in words]
    for w, terms in zip(words, warm):
        fricke._REDUCE_CACHE.clear()
        assert reduce_trace_word(w).terms == terms, w


def test_degree_at_most_cyclically_reduced_length():
    for w in _random_words(1010, 200, max_len=12) + [Word((1,) * 9), Word((1, 2) * 5)]:
        length = len(_canonical(w.letters))
        for mono in reduce_trace_word(w).terms:
            assert len(mono) <= length, w


def test_exponent_field_width_limit():
    limit = fricke._MAX_LETTERS
    # tr(x1^n) is the Chebyshev-like polynomial with leading term t1^n
    poly = reduce_trace_word(Word((1,) * (limit - 1)))
    assert poly.terms[((1,),) * (limit - 1)] == 1
    entries = len(fricke._REDUCE_CACHE)
    for letters in [(1,) * limit, (2, 1) * (limit // 2), (3,) + (1, -2) * limit + (-3,)]:
        with pytest.raises(WordError):
            reduce_trace_word(Word(letters))
    assert len(fricke._REDUCE_CACHE) == entries
    # a conjugate is accepted: only the cyclically reduced length counts
    assert reduce_trace_word(Word((2,) * limit + (1,) + (-2,) * limit)) == TracePolynomial.variable((1,))


def test_reduce_memo_is_module_global():
    # perfbench reads fricke._REDUCE_CACHE (through a getattr default)
    fricke._REDUCE_CACHE.clear()
    reduce_trace_word(Word((1, 2, -1, -2)))
    size = len(fricke._REDUCE_CACHE)
    assert size > 0
    reduce_trace_word(Word((1, 2, 3, -1, -2, -3)))
    assert len(fricke._REDUCE_CACHE) > size
    assert all(type(terms) is dict for terms in fricke._REDUCE_CACHE.values())
