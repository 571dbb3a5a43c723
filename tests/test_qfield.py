import json
import random

import pytest
from hypothesis import given, settings, strategies as st

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
