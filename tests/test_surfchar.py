import itertools
import random

import pytest

from sl2trace.qfield import (
    FieldError, PrimeBase, RationalBase, TowerContext, TowerElement, base_from_spec,
    solve_quadratic,
)
from sl2trace.sl2 import Mat2, Rep, delta_values
from sl2trace.farey import (
    Slope, complete_triangle, farey_walk, psl2z_act, slope_word_torus, slopes_in_box,
)
from sl2trace.fricke import TracePolynomial, trace_of_word_direct
from sl2trace.planar import TraceData05
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
        assert fresh.query(s) == tf.query(s)
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
        assert fresh.query(s) == tf.query(s)


def test_memo_values_over_q_with_integer_seeds_stay_int():
    """Over q, integer seeds give an int at every memo entry, and a level-0
    element with an int coordinate for every query, not Fractions with
    denominator 1 (the cost of a step, not its value)."""
    rng = random.Random(20)
    ctx = q_ctx()
    surfaces = [tf11_extend(*ints(ctx, 3, 3, 3)), tf11_extend(*ints(ctx, -2, 1, 0)),
                tf04_extend(ints(ctx, 2, 2, 2, -2), ints(ctx, 2, 2, -2)),
                tf04_from_rep(random_rep(rng, ctx, 3))]
    for tf in surfaces:
        for s in slopes_in_box(6) + [Slope(13, 8), Slope(-21, 34), Slope(1, 40)]:
            tf.query(s)
        assert len(tf.values) > 80
        for slope, v in tf.values.items():
            assert type(slope) is Slope
            assert type(v) is int, (slope, v)
            got = tf.query(slope)
            assert got.level == 0 and type(got.coords[0]) is int and got.coords[0] == v


# Braid automorphisms of <x1, x2, x3> that fix x1 x2 x3, with the integer
# matrix of their action on 4-holed-sphere slopes: sigma1 (and its inverse)
# is a half-twist about alpha1 = [x1 x2], slope 0/1; sigma2 about
# alpha2 = [x2 x3], slope 1/0.  Their slope actions generate SL(2, Z).
BRAIDS = [
    ({1: (1, 2, -1), 2: (1,), 3: (3,)}, ((1, 0), (1, 1))),
    ({1: (2,), 2: (-2, 1, 2), 3: (3,)}, ((1, 0), (-1, 1))),
    ({1: (1,), 2: (2, 3, -2), 3: (2,)}, ((1, -1), (0, 1))),
    ({1: (1,), 2: (3,), 3: (-3, 2, 3)}, ((1, 1), (0, 1))),
]


def braid_image(images, word):
    out = []
    for k in word:
        image = images[k] if k > 0 else tuple(-x for x in reversed(images[-k]))
        for x in image:
            if out and out[-1] == -x:
                out.pop()
            else:
                out.append(x)
    return tuple(out)


def sphere_slope_words(bound):
    """A word in x1, x2, x3 for the curve of each slope of slopes_in_box(bound)
    on the 4-holed sphere: the braid images of the base triangle's curves
    [x1 x2], [x2 x3], [x1 x3], found breadth first.  Shares no code with the
    Farey recurrence."""
    words = {Slope(0, 1): (1, 2), Slope(1, 0): (2, 3), Slope(1, 1): (1, 3)}
    want = set(slopes_in_box(bound))
    frontier = list(words)
    while not want <= set(words):
        grown = []
        for slope in frontier:
            for images, matrix in BRAIDS:
                image = psl2z_act(matrix, slope)
                if image not in words:
                    words[image] = braid_image(images, words[slope])
                    grown.append(image)
        frontier = grown
    return {slope: words[slope] for slope in want}


def level1_rep(rng, ctx, rank):
    """A rep over Q(sqrt 2) whose off-diagonal entries all involve the root."""
    root = ctx.adjoin_sqrt(ctx.from_int(2))
    gens = []
    for _ in range(rank):
        b, c = (ctx.from_int(rng.randint(-2, 2)) + ctx.from_int(rng.randint(1, 2)) * root
                for _ in range(2))
        gens.append(Mat2(ctx.one, b, c, ctx.one + b * c))
    return Rep(gens)


def test_fp_memo_holds_residues_and_queries_match_traces():
    for p in (5, 101):
        ctx = TowerContext(PrimeBase(p))
        rng = random.Random(p)
        rep2, rep3 = random_rep(rng, ctx, 2), random_rep(rng, ctx, 3)
        a1, a2 = rep2.generators
        tf11 = tf11_extend(a1.trace(), a2.trace(), (a1 * a2).trace())
        tf04 = tf04_from_rep(rep3)
        words = sphere_slope_words(4)
        for s in slopes_in_box(4):
            assert tf11.query(s) == trace_of_word_direct(rep2, slope_word_torus(s)), (p, s)
            assert tf04.query(s) == trace_of_word_direct(rep3, words[s]), (p, s)
        for tf in (tf11, tf04):
            assert len(tf.values) >= len(slopes_in_box(4))
            assert all(type(v) is int and 0 <= v < p for v in tf.values.values())


def test_level1_seeds_propagate_tower_elements():
    rng = random.Random(21)
    ctx = q_ctx()
    rep3 = level1_rep(rng, ctx, 3)
    tf04 = tf04_from_rep(rep3)
    assert max(v.level for v in tf04.boundary + tf04.seed()) == 1
    a1, a2 = rep3.generators[:2]
    tf11 = tf11_extend(a1.trace(), a2.trace(), (a1 * a2).trace())
    words = sphere_slope_words(4)
    for s in slopes_in_box(4):
        assert tf04.query(s) == trace_of_word_direct(rep3, words[s]), s
        assert tf11.query(s) == trace_of_word_direct(Rep([a1, a2]), slope_word_torus(s)), s
    for tf in (tf04, tf11):
        assert all(type(v) is TowerElement for v in tf.values.values())
        assert any(v.level == 1 for v in tf.values.values())


def test_size_guard_stops_a_tower_walk_midway():
    """Values too long to print stop a walk on tower elements as they stop
    one on scalars (the CLI's propagate tests)."""
    ctx = q_ctx()
    root = ctx.adjoin_sqrt(ctx.from_int(2))
    tf = tf11_extend(ctx.from_int(3) + root, *ints(ctx, 3, 3))
    with pytest.raises(FieldError, match="digits"):
        tf.query(Slope(1, 20000))
    assert 3 < len(tf.values) < 20000


@pytest.mark.parametrize("make_rep,memo_type", [
    (lambda rng, ctx: random_rep(rng, ctx, 4), int),
    (lambda rng, ctx: level1_rep(rng, ctx, 4), TowerElement),
], ids=["level0", "level1"])
def test_planar_side_query_matches_its_word_trace(make_rep, memo_type):
    """The value planar reads for its primed pentagon, side(2) at -1/2,
    is the trace of that curve on the generators x2, x3, x4."""
    words = sphere_slope_words(2)
    for seed in range(3):
        ctx = q_ctx()
        rep = make_rep(random.Random(seed), ctx)
        tf_y = TraceData05.from_rep(rep).side(2)
        side = Rep(list(rep.generators[1:]))
        assert tf_y.query(Slope(-1, 2)) == trace_of_word_direct(side, words[Slope(-1, 2)])
        assert tf_y.boundary[3] == trace_of_word_direct(side, (1, 2, 3))
        assert all(type(v) is memo_type for v in tf_y.values.values())


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
