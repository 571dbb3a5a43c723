import json
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from sl2trace.planar import FIFTEEN_KEYS, TraceData05, check_trace_function_05
from sl2trace.qfield import (
    FieldError,
    PrimeBase,
    RationalBase,
    TowerContext,
    TowerElement,
    base_from_spec,
    characteristic,
    solve_quadratic,
)


def q_ctx():
    return TowerContext(RationalBase())


def test_base_rational_arith():
    ctx = q_ctx()
    half = ctx.from_rational(1, 2)
    third = ctx.from_rational(1, 3)
    assert half + third == ctx.from_rational(5, 6)
    assert half * third == ctx.from_rational(1, 6)
    assert -half == ctx.from_rational(-1, 2)


def test_characteristic():
    assert characteristic(q_ctx()) == 0
    assert characteristic(TowerContext(PrimeBase(3))) == 3
    assert characteristic(TowerContext(PrimeBase(2))) == 2


def test_mixed_context_rejected():
    a = q_ctx().one
    b = q_ctx().one
    with pytest.raises(FieldError):
        a + b


def test_division_by_zero():
    ctx = q_ctx()
    with pytest.raises(FieldError):
        ctx.one / ctx.zero


def test_sqrt5_defining_relation():
    ctx = q_ctx()
    r1, r2 = solve_quadratic(ctx, ctx.zero, ctx.from_int(-5))
    assert r1 * r1 == ctx.from_int(5)
    assert r2 == -r1
    assert len(ctx.levels) == 1


def test_div_by_one_plus_sqrt5():
    ctx = q_ctx()
    s5, _ = solve_quadratic(ctx, ctx.zero, ctx.from_int(-5))
    x = ctx.one / (ctx.one + s5)
    assert x == (s5 - ctx.one) / ctx.from_int(4)
    assert x * (ctx.one + s5) == ctx.one


def test_perfect_square_quadratic():
    ctx = q_ctx()
    r1, r2 = solve_quadratic(ctx, ctx.from_int(-4), ctx.from_int(4))
    assert r1 == ctx.from_int(2) and r2 == ctx.from_int(2)
    assert ctx.levels == []


def test_golden_ratio_roots():
    ctx = q_ctx()
    r1, r2 = solve_quadratic(ctx, ctx.from_int(-1), ctx.from_int(-1))
    assert r1 + r2 == ctx.one
    assert r1 * r2 == ctx.from_int(-1)
    assert len(ctx.levels) == 1
    assert ctx.levels[0].defining == ctx.from_int(5)


def test_vieta_after_extension():
    ctx = q_ctx()
    a, b = ctx.from_int(-3), ctx.one
    r1, r2 = solve_quadratic(ctx, a, b)
    assert r1 + r2 + a == ctx.zero
    assert r1 * r2 - b == ctx.zero


def test_no_duplicate_extension_for_recognized_square():
    ctx = q_ctx()
    solve_quadratic(ctx, ctx.zero, ctx.from_int(-5))
    depth = len(ctx.levels)
    r, _ = solve_quadratic(ctx, ctx.zero, ctx.from_int(-20))
    assert r * r == ctx.from_int(20)
    assert len(ctx.levels) == depth  # sqrt(20) = 2 sqrt(5) already present


def test_nested_extension_square_recognition():
    ctx = q_ctx()
    s2, _ = solve_quadratic(ctx, ctx.zero, ctx.from_int(-2))
    # adjoin sqrt(1 + sqrt 2), then recognize its square
    r, _ = solve_quadratic(ctx, ctx.zero, -(ctx.one + s2))
    assert r * r == ctx.one + s2
    depth = len(ctx.levels)
    again, _ = solve_quadratic(ctx, ctx.zero, -(ctx.one + s2))
    assert again * again == ctx.one + s2
    assert len(ctx.levels) == depth


def test_append_only_values_stable():
    ctx = q_ctx()
    s5, _ = solve_quadratic(ctx, ctx.zero, ctx.from_int(-5))
    val = (ctx.one + s5) / ctx.from_int(2)
    before = val * val - val  # golden ratio: x^2 - x = 1
    solve_quadratic(ctx, ctx.zero, ctx.from_int(-7))
    after = val * val - val
    assert before == after == ctx.one


def test_lift_roundtrip_and_equality():
    ctx = q_ctx()
    solve_quadratic(ctx, ctx.zero, ctx.from_int(-5))
    x = ctx.from_rational(3, 7)
    assert x.lift(1)._trim() == x
    assert x.lift(1) == x
    assert hash(x.lift(1)) == hash(x)


@settings(max_examples=150, deadline=None)
@given(st.integers(-30, 30), st.integers(-30, 30), st.integers(-30, 30))
def test_field_axioms_rational(a, b, c):
    ctx = q_ctx()
    x, y, z = ctx.from_int(a), ctx.from_int(b), ctx.from_int(c)
    assert (x + y) + z == x + (y + z)
    assert x * (y + z) == x * y + x * z
    assert (x * y) * z == x * (y * z)
    if b != 0:
        assert (x / y) * y == x


def test_field_axioms_in_extension():
    rng = random.Random(7)
    ctx = q_ctx()
    s5, _ = solve_quadratic(ctx, ctx.zero, ctx.from_int(-5))
    s3, _ = solve_quadratic(ctx, ctx.zero, ctx.from_int(-3))
    pool = [ctx.one + s5, s3 - ctx.from_int(2), s5 * s3, ctx.from_rational(1, 2) + s3]
    for _ in range(50):
        x, y, z = (rng.choice(pool) for _ in range(3))
        assert (x + y) * z == x * z + y * z
        if not y.is_zero():
            assert (x / y) * y == x


def test_prime_field_tower():
    ctx = TowerContext(PrimeBase(5))
    # x^2 = 2 has no root mod 5: extends
    r, _ = solve_quadratic(ctx, ctx.zero, ctx.from_int(-2))
    assert len(ctx.levels) == 1
    assert r * r == ctx.from_int(2)
    # x^2 = 4 solved in place
    r4, _ = solve_quadratic(ctx, ctx.zero, ctx.from_int(-4))
    assert r4 * r4 == ctx.from_int(4)
    assert len(ctx.levels) == 1


def test_char2_artin_schreier():
    ctx = TowerContext(PrimeBase(2))
    # x^2 + x + 1 = 0 is irreducible over F_2
    r1, r2 = solve_quadratic(ctx, ctx.one, ctx.one)
    assert len(ctx.levels) == 1
    assert r1 + r2 == ctx.one  # -a
    assert r1 * r2 == ctx.one  # b
    assert r1 * r1 + r1 + ctx.one == ctx.zero
    # now solvable without extension
    r3, r4 = solve_quadratic(ctx, ctx.one, ctx.one)
    assert len(ctx.levels) == 1
    assert r3 * r3 + r3 + ctx.one == ctx.zero


def test_char2_pure_square_root():
    ctx = TowerContext(PrimeBase(2))
    t1, _ = solve_quadratic(ctx, ctx.one, ctx.one)
    z = t1 + ctx.one
    r, r2 = solve_quadratic(ctx, ctx.zero, z)  # x^2 = z (char 2: -z = z)
    assert r == r2
    assert r * r == z
    assert len(ctx.levels) == 1  # perfect field: no extension needed


def test_serialization_roundtrip():
    ctx = q_ctx()
    s5, _ = solve_quadratic(ctx, ctx.zero, ctx.from_int(-5))
    x = (ctx.from_rational(2, 3) + s5) / (ctx.one - s5)
    blob = json.dumps({"ctx": ctx.to_json(), "x": x.to_json()})
    loaded = json.loads(blob)
    ctx2 = TowerContext.from_json(loaded["ctx"])
    x2 = TowerElement.from_json(ctx2, loaded["x"])
    assert x2.to_json() == x.to_json()
    assert ctx2.to_json() == ctx.to_json()
    # bit-exact round trip again
    assert json.dumps(ctx2.to_json()) == json.dumps(ctx.to_json())


def test_base_from_spec():
    assert base_from_spec("q").characteristic == 0
    assert base_from_spec("fp:7").characteristic == 7
    with pytest.raises(FieldError):
        base_from_spec("fp:6")
    assert base_from_spec("fp:2147483647").characteristic == 2**31 - 1
    with pytest.raises(FieldError):  # prime, but past the trial-division cap
        base_from_spec("fp:2305843009213693951")


def test_rational_scalar_grammar():
    ctx = q_ctx()
    assert [ctx.parse(s) for s in ("12", "-3/4", "+6/8")] == [
        ctx.from_int(12), ctx.from_rational(-3, 4), ctx.from_rational(3, 4)]
    for s in ("1e5", "0.5", ".5", " 3", "3 / 4", "1_000", "3/-4", ""):
        with pytest.raises(FieldError):
            ctx.parse(s)


@settings(max_examples=60, deadline=None)
@given(st.integers(-40, 40), st.integers(-40, 40))
def test_solve_quadratic_vieta_random(a, b):
    ctx = q_ctx()
    ea, eb = ctx.from_int(a), ctx.from_int(b)
    r1, r2 = solve_quadratic(ctx, ea, eb)
    assert r1 + r2 + ea == ctx.zero
    assert r1 * r2 - eb == ctx.zero


# ---------------------------------------------------------------------------
# the sparse tower product against a dense schoolbook reference

# (field, defining elements): each is the coordinate list of an element at
# its own level, adjoined as a square root, or over F_2 as the constant c
# of y^2 + y = c; so level 1 of every tower sits over a rational, the
# others over a rational or a higher-level element (0, 1) = t1,
# (0, 1, 1, 0) = t1 + t2 and (0, 0, 1, 0) = t2
TOWERS = [
    ("q", [(2,)]),
    ("q", [(2,), (3,)]),
    ("q", [(2,), (1, 1)]),
    ("q", [(2,), (3,), (5,)]),
    ("q", [(2,), (1, 1), (3,)]),
    ("q", [(2,), (3,), (0, 1, 1, 0)]),
    ("fp:5", [(2,)]),
    ("fp:5", [(2,), (0, 1)]),
    ("fp:5", [(2,), (0, 1), (0, 0, 1, 0)]),
    ("fp:2", [(1,)]),
    ("fp:2", [(1,), (0, 1)]),
    ("fp:2", [(1,), (0, 1), (0, 0, 0, 1)]),
]
SHAPES = ("dense", "random", "monomial", "zero-half")


def build_tower(spec, defining):
    """A tower that is a field: the library's own test finds each defining
    element a non-square (no Artin-Schreier root over F_2)."""
    ctx = TowerContext(base_from_spec(spec))
    a = ctx.one if characteristic(ctx) == 2 else ctx.zero
    for coords in defining:
        level = len(coords).bit_length() - 1
        d = TowerElement(ctx, level, tuple(ctx.base.from_int(v) for v in coords))._trim()
        before = len(ctx.levels)
        solve_quadratic(ctx, a, -d)  # x^2 - d, or over F_2 x^2 + x + d
        assert len(ctx.levels) == before + 1
    return ctx


def ref_poly(ctx, elt):
    """elt as {exponent tuple: coefficient}, one 0/1 exponent per level."""
    height = len(ctx.levels)
    return {tuple((i >> k) & 1 for k in range(height)): c for i, c in enumerate(elt.coords) if c}


def ref_mul(ctx, x, y):
    """Schoolbook product of two ref_poly dicts: every pair of terms, then
    each t_k^2 rewritten by level k's relation (t^2 = d, or t^2 = t + c),
    highest level first, until every exponent is 0 or 1."""
    p = ctx.base.characteristic
    terms = {}

    def put(e, c):
        v = terms.get(e, 0) + c
        terms[e] = v % p if p else v

    for ex, cx in x.items():
        for ey, cy in y.items():
            put(tuple(a + b for a, b in zip(ex, ey)), cx * cy)
    while True:
        e = next((e for e, c in terms.items() if c and max(e) > 1), None)
        if e is None:
            return {e: c for e, c in terms.items() if c}
        c = terms.pop(e)
        k = max(i for i, a in enumerate(e) if a > 1)
        rest = e[:k] + (e[k] - 2,) + e[k + 1:]
        relation = ref_poly(ctx, ctx.levels[k].defining)
        if ctx.levels[k].kind == "as":
            relation[tuple(int(i == k) for i in range(len(e)))] = 1
        for er, cr in relation.items():
            put(tuple(a + b for a, b in zip(rest, er)), c * cr)


def random_operand(ctx, rng, shape):
    height = len(ctx.levels)
    p = ctx.base.characteristic

    def scalar():
        if p:
            return rng.randrange(1, p)
        return Fraction(rng.choice((-1, 1)) * rng.randint(1, 9), rng.randint(1, 4))

    zero, n = ctx.base.zero, 1 << height
    if shape == "dense":
        coords = [scalar() for _ in range(n)]
    elif shape == "random":
        coords = [scalar() if rng.random() < 0.5 else zero for _ in range(n)]
    elif shape == "monomial":
        coords = [zero] * n
        coords[rng.randrange(n)] = scalar()
    else:  # one half zero at a random level: the top or the bottom half of each block
        k, side = rng.randrange(height), rng.randrange(2)
        coords = [scalar() if (i >> k) & 1 == side else zero for i in range(n)]
    return TowerElement(ctx, height, tuple(coords))._trim()


@pytest.mark.parametrize("spec,defining", TOWERS,
                         ids=[f"{s}-h{len(d)}-{i}" for i, (s, d) in enumerate(TOWERS)])
def test_sparse_kernel_matches_dense_reference(spec, defining):
    ctx = build_tower(spec, defining)
    rng = random.Random(f"{spec}:{defining}")
    one = {(0,) * len(ctx.levels): ctx.base.one}
    for sx in SHAPES:
        for sy in SHAPES:
            for _ in range(4):
                x, y = random_operand(ctx, rng, sx), random_operand(ctx, rng, sy)
                px, py = ref_poly(ctx, x), ref_poly(ctx, y)
                assert ref_poly(ctx, x * y) == ref_mul(ctx, px, py)
        x = random_operand(ctx, rng, sx)
        if not x.is_zero():
            assert ref_mul(ctx, ref_poly(ctx, x), ref_poly(ctx, ctx.one / x)) == one
        square = x * x
        root = ctx.sqrt_in_tower(square)
        assert root is not None
        assert ref_mul(ctx, ref_poly(ctx, root), ref_poly(ctx, root)) == ref_poly(ctx, square)


class CountingBase(RationalBase):
    """Q that counts its products."""

    def __init__(self):
        self.products = 0

    def mul(self, x, y):
        self.products += 1
        return x * y


def test_sparse_products_count_base_products():
    """Work, not wall time: the dense product took 5^3 = 125 base products
    for one level-3 product, whatever its operands."""
    ctx = TowerContext(CountingBase())
    s2, s3, s5 = (ctx.adjoin_sqrt(ctx.from_int(d)) for d in (2, 3, 5))
    m = s2 * s3 * s5
    ctx.base.products = 0
    assert m * m == ctx.from_int(30)
    assert ctx.base.products <= 8
    ctx.base.products = 0
    assert (m + s5) * (m - s5) == ctx.from_int(30 - 5)
    assert ctx.base.products <= 16


def test_check05_counts_base_products():
    """A check05 job whose realization needs a tower of height 3 (subset
    traces of an integer rank-4 rep); the dense product took 19 163 base
    products for it."""
    ctx = TowerContext(CountingBase())
    boundary = ["-1", "0", "3", "4", "-39"]
    interior = {"12": "-4", "13": "2", "14": "0", "23": "0", "24": "5", "34": "4",
                "123": "-8", "124": "-18", "134": "16", "234": "14"}
    values = dict(zip(FIFTEEN_KEYS, (ctx.parse(s) for s in boundary)))
    values.update((k, ctx.parse(s)) for k, s in interior.items())
    verdict = check_trace_function_05(TraceData05(values))
    assert verdict.kind == "character"
    assert len(ctx.levels) == 3
    assert ctx.base.products <= 6000
