import itertools
import random

import pytest

from sl2trace.qfield import PrimeBase, RationalBase, TowerContext, base_from_spec, solve_quadratic
from sl2trace.sl2 import Mat2, Rep, delta_values
from sl2trace.farey import Slope, complete_triangle, farey_walk, slope_word_torus, slopes_in_box
from sl2trace.fricke import TracePolynomial, trace_of_word_direct
from sl2trace.surfchar import (
    SurfaceError,
    half_product,
    pm2_check,
    sigma03_check,
    sigma03_special,
    tf04_extend,
    tf04_from_rep,
    tf04_realize,
    tf04_residual,
    tf11_extend,
    tf11_realize,
)


def q_ctx():
    return TowerContext(RationalBase())


def ints(ctx, *vals):
    return tuple(ctx.from_int(v) for v in vals)


def random_rep(rng, ctx, rank, bound=3):
    gens = []
    for _ in range(rank):
        b = ctx.from_int(rng.randint(-bound, bound))
        c = ctx.from_int(rng.randint(-bound, bound))
        gens.append(Mat2(ctx.one, b, c, ctx.one + b * c))
    return Rep(gens)


# -- the Fricke form and the 4-holed-sphere relation, one definition each ----


def test_identities_serve_int_tower_and_polynomial_values():
    rng = random.Random(21)
    x, y, z = (TracePolynomial.variable(k) for k in "xyz")
    delta_poly = delta_values(x, y, z)
    for spec in ("q", "fp:5", "fp:2"):
        ctx = TowerContext(base_from_spec(spec))
        w, _ = solve_quadratic(ctx, ctx.one, ctx.one)  # w^2 + w + 1 = 0: level 1
        for _ in range(20):
            ints3 = [rng.randint(-9, 9) for _ in range(3)]
            want = delta_values(*ints3)
            assert delta_poly.evaluate(dict(zip("xyz", ints3))) == want
            assert delta_values(*ints(ctx, *ints3)) == ctx.from_int(want)
            vals = [ctx.from_int(rng.randint(-9, 9)) + ctx.from_int(rng.randint(-9, 9)) * w
                    for _ in range(3)]
            a, b, c = vals
            got = delta_values(*vals)
            assert got == a * a + b * b + c * c - a * b * c - ctx.from_int(4)
            assert got == delta_poly.evaluate(dict(zip("xyz", vals)))
    ctx = q_ctx()
    for bits in itertools.product((2, -2), repeat=7):
        assert ctx.from_int(tf04_residual(bits[:4], bits[4:])) == tf04_residual(
            ints(ctx, *bits[:4]), ints(ctx, *bits[4:]))


# -- 3-holed sphere ----------------------------------------------------------


def test_sigma03_examples():
    ctx = q_ctx()
    assert sigma03_check(*ints(ctx, 2, 2, 2)).reducible
    assert not sigma03_check(*ints(ctx, 2, 2, -2)).reducible
    v = sigma03_check(*ints(ctx, 0, 0, 0))
    assert not v.reducible and v.residual == ctx.from_int(-4)
    assert v.is_character


def test_sigma03_special_branches():
    ctx = q_ctx()
    two, three = ctx.from_int(2), ctx.from_int(3)
    assert sigma03_special(two, three, three, 0)
    assert not sigma03_special(two, three, ctx.from_int(4), 0)
    assert sigma03_special(two, two, two, 0)
    assert not sigma03_special(two, two, ctx.from_int(-2), 0)
    with pytest.raises(SurfaceError):
        sigma03_special(three, two, two, 0)


def test_sigma03_special_char2():
    ctx = TowerContext(PrimeBase(2))
    z = ctx.zero  # the only value with v^2 = 4 = 0
    one = ctx.one
    assert sigma03_special(z, one, one, 2)
    assert not sigma03_special(z, one, z, 2)


def test_sigma03_special_matches_general():
    ctx = q_ctx()
    for v1 in (2, -2):
        for v2 in range(-3, 4):
            for v3 in range(-3, 4):
                a, b, c = ints(ctx, v1, v2, v3)
                assert sigma03_special(a, b, c, 0) == sigma03_check(a, b, c).reducible


def test_half_product_conventions():
    ctx = q_ctx()
    assert half_product(ctx.from_int(3), ctx.from_int(4)) == ctx.from_int(6)
    ctx2 = TowerContext(PrimeBase(2))
    assert half_product(ctx2.from_int(2), ctx2.one) == ctx2.one
    with pytest.raises(SurfaceError):
        half_product(ctx2.one, ctx2.one)


# -- 1-holed torus -----------------------------------------------------------


def test_tf11_quaternion_seed():
    ctx = q_ctx()
    tf = tf11_extend(*ints(ctx, 0, 0, 0))
    assert tf.boundary == ctx.from_int(-2)
    for s in slopes_in_box(6):
        assert tf.query(s).is_zero()
    assert not tf.reducible()


def test_tf11_identity_seed():
    ctx = q_ctx()
    tf = tf11_extend(*ints(ctx, 2, 2, 2))
    assert tf.boundary == ctx.from_int(2)
    for s in slopes_in_box(5):
        assert tf.query(s) == ctx.from_int(2)
    assert tf.reducible()


def test_tf11_three_seed():
    ctx = q_ctx()
    tf = tf11_extend(*ints(ctx, 3, 3, 3))
    assert tf.boundary == ctx.from_int(-2)
    assert tf.query(Slope(-1, 1)) == ctx.from_int(6)


def test_tf11_matches_realized_rep():
    rng = random.Random(12)
    for _ in range(6):
        ctx = q_ctx()
        tf = tf11_extend(*ints(ctx, rng.randint(-4, 4), rng.randint(-4, 4), rng.randint(-4, 4)))
        rep = tf11_realize(tf)
        for s in slopes_in_box(6):
            assert tf.query(s) == trace_of_word_direct(rep, slope_word_torus(s))


def test_tf11_boundary_conservation():
    rng = random.Random(13)
    ctx = q_ctx()
    tf = tf11_extend(*ints(ctx, 3, -2, 5))
    checked = 0
    for s in slopes_in_box(7):
        for step in farey_walk(s):
            assert tf.triangle_boundary_residual(step.a, step.b, step.new) == tf.boundary
            checked += 1
    assert checked >= 10


def test_tf11_path_independence():
    ctx = q_ctx()
    seeds = ints(ctx, 4, -1, 2)
    tf = tf11_extend(*seeds)
    box = slopes_in_box(6)
    for s in box:
        tf.query(s)
    # a fresh function queried in reversed order fills its memo in another order
    fresh = tf11_extend(*seeds)
    for s in reversed(box):
        assert fresh.query(s) == tf.values[s]
    for s in box:
        base = tf.query(s)
        # a second route: derive f(s) from the deeper quadrilateral
        # (a, s; new completions) around its defining edge
        steps = farey_walk(s)
        if not steps:
            continue
        a, b = steps[-1].a, steps[-1].b
        for other in (a, b):
            c1, c2 = complete_triangle(other, s)
            v = tf.query(other) * base - tf.query(c1)
            assert v == tf.query(c2)


def test_tf11_dichotomy_cor():
    # irreducible overall but reducible on every pants: boundary -2, all 0
    ctx = q_ctx()
    tf = tf11_extend(*ints(ctx, 0, 0, 0))
    assert not tf.reducible()
    for s in slopes_in_box(4):
        v = tf.query(s)
        assert sigma03_check(v, v, tf.boundary).reducible
    assert tf.boundary == ctx.from_int(-2)


# -- 4-holed sphere ----------------------------------------------------------


def test_tf04_identity_data():
    ctx = q_ctx()
    tf = tf04_extend(ints(ctx, 2, 2, 2, 2), ints(ctx, 2, 2, 2))
    for s in slopes_in_box(5):
        assert tf.query(s) == ctx.from_int(2)
    assert tf.reducible()


def test_tf04_pm2_family_propagates_in_pm2():
    ctx = q_ctx()
    tf = tf04_extend(ints(ctx, 2, 2, 2, -2), ints(ctx, 2, 2, -2))
    two, m2 = ctx.from_int(2), ctx.from_int(-2)
    for s in slopes_in_box(6):
        assert tf.query(s) in (two, m2)
    assert not tf.reducible()


def test_tf04_rejects_bad_seed():
    ctx = q_ctx()
    with pytest.raises(SurfaceError):
        tf04_extend(ints(ctx, 2, 2, 2, 2), ints(ctx, 2, 2, -2))


def test_tf04_harvest_residual_zero():
    rng = random.Random(14)
    ctx = q_ctx()
    for _ in range(25):
        rep = random_rep(rng, ctx, 3)
        tf = tf04_from_rep(rep)
        assert tf.residual().is_zero()


def test_tf04_realize_roundtrip():
    rng = random.Random(15)
    for _ in range(15):
        ctx = q_ctx()
        rep = random_rep(rng, ctx, 3)
        tf = tf04_from_rep(rep)
        rep2 = tf04_realize(tf)
        tf2 = tf04_from_rep(rep2)
        assert tf.boundary == tf2.boundary
        assert tf.seed() == tf2.seed()
        for s in slopes_in_box(4):
            assert tf.query(s) == tf2.query(s)


def test_tf04_first_step_matches_identity_d():
    # the -1/1 propagated value equals the trace of x1 x2 x3 x2^-1
    rng = random.Random(16)
    ctx = q_ctx()
    for _ in range(20):
        rep = random_rep(rng, ctx, 3)
        tf = tf04_from_rep(rep)
        direct = trace_of_word_direct(rep, [1, 2, 3, -2])
        assert tf.query(Slope(-1, 1)) == direct


def test_tf04_residual_conservation():
    rng = random.Random(17)
    ctx = q_ctx()
    rep = random_rep(rng, ctx, 3)
    tf = tf04_from_rep(rep)
    for s in slopes_in_box(5):
        for step in farey_walk(s):
            for triangle in itertools.permutations((step.a, step.b, step.new)):
                assert tf.triangle_residual(*triangle).is_zero()
    with pytest.raises(SurfaceError):
        tf.triangle_residual(Slope(0, 1), Slope(2, 1), Slope(1, 1))


def test_tf04_diagonal_rep_quadrilateral_symmetry():
    # reducible data: f(gamma) = f(gamma') on every quadrilateral
    ctx = q_ctx()
    rng = random.Random(18)
    for _ in range(5):
        gens = []
        for _ in range(3):
            a = ctx.from_int(rng.choice([2, 3, 5, -2]))
            gens.append(Mat2(a, ctx.zero, ctx.zero, ctx.one / a))
        rep = Rep(gens)
        tf = tf04_from_rep(rep)
        assert tf.reducible()
        for s in slopes_in_box(5):
            for step in farey_walk(s):
                assert tf.query(step.new) == tf.query(step.old)


def test_tf04_path_independence():
    rng = random.Random(19)
    ctx = q_ctx()
    rep = random_rep(rng, ctx, 3)
    tf = tf04_from_rep(rep)
    box = slopes_in_box(5)
    for s in box:
        tf.query(s)
    fresh = tf04_from_rep(rep)
    for s in reversed(box):
        assert fresh.query(s) == tf.values[s]


def test_pm2_examples():
    ctx = q_ctx()
    v = pm2_check(ints(ctx, 2, 2, 2, -2), ints(ctx, 2, 2, -2))
    assert v.extends and not v.reducible
    v = pm2_check(ints(ctx, 2, 2, 2, 2), ints(ctx, 2, 2, 2))
    assert v.extends and v.reducible
    v = pm2_check(ints(ctx, 2, 2, 2, 2), ints(ctx, 2, 2, -2))
    assert not v.extends and not v.residual.is_zero()


def test_pm2_residual_zero_implies_product_law():
    ctx = q_ctx()
    two, m2 = ctx.from_int(2), ctx.from_int(-2)
    sixteen = ctx.from_int(16)
    count = 0
    for bits in itertools.product((two, m2), repeat=7):
        boundary, triangle = bits[:4], bits[4:]
        v = pm2_check(boundary, triangle)
        if v.extends:
            count += 1
            bprod = boundary[0] * boundary[1] * boundary[2] * boundary[3]
            tprod = triangle[0] * triangle[1] * triangle[2]
            assert ctx.from_int(2) * tprod == bprod
    assert count > 0


def test_pm2_product_law_alone_insufficient():
    # 2*prod(triangle) = prod(boundary) holds but the seed is no character
    ctx = q_ctx()
    v = pm2_check(ints(ctx, 2, 2, 2, 2), ints(ctx, -2, -2, 2))
    assert not v.extends


def test_pm2_rejects_bad_values():
    ctx = q_ctx()
    with pytest.raises(SurfaceError):
        pm2_check(ints(ctx, 2, 2, 2, 3), ints(ctx, 2, 2, 2))
    ctx2 = TowerContext(PrimeBase(2))
    with pytest.raises(SurfaceError):
        pm2_check(
            tuple(ctx2.from_int(2) for _ in range(4)),
            tuple(ctx2.from_int(2) for _ in range(3)),
        )


def test_pm2_irreducible_realizable():
    # boundary product -16 extends to an irreducible character
    ctx = q_ctx()
    tf = tf04_extend(ints(ctx, 2, 2, 2, -2), ints(ctx, 2, 2, -2))
    rep = tf04_realize(tf)
    tf2 = tf04_from_rep(rep)
    assert tf2.boundary == tf.boundary and tf2.seed() == tf.seed()
    assert not tf.reducible()


def test_tf_seed_json_roundtrip():
    from sl2trace.surfchar import tf_seed_from_json, tf_seed_to_json

    ctx = q_ctx()
    tf = tf04_extend(ints(ctx, 2, 2, 2, -2), ints(ctx, 2, 2, -2))
    blob = tf_seed_to_json("sigma04", tf.boundary, tf.seed())
    tf2 = tf_seed_from_json(ctx, blob)
    assert tf2.boundary == tf.boundary and tf2.seed() == tf.seed()
    tf11 = tf11_extend(*ints(ctx, 3, 3, 3))
    blob11 = tf_seed_to_json("sigma11", [tf11.boundary], tf11.seed())
    tf11b = tf_seed_from_json(ctx, blob11)
    assert tf11b.seed() == tf11.seed() and tf11b.boundary == tf11.boundary
