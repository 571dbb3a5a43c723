import random

import pytest

from sl2trace.qfield import PrimeBase, RationalBase, TowerContext
from sl2trace.sl2 import (
    Line,
    Mat2,
    Rep,
    SL2Error,
    delta,
    diagonalize_or_normalize,
    diagonalize_family,
    eigenlines,
    gm_reducibility_witness,
    is_reducible_family,
    is_reducible_pair,
    realize_triple,
)


def q_ctx():
    return TowerContext(RationalBase())


def random_sl2(rng, ctx, bound=5):
    while True:
        a = ctx.from_int(rng.randint(-bound, bound))
        b = ctx.from_int(rng.randint(-bound, bound))
        c = ctx.from_int(rng.randint(-bound, bound))
        if not a.is_zero():
            d = (ctx.one + b * c) / a
            return Mat2(a, b, c, d)


def test_det_checked():
    ctx = q_ctx()
    with pytest.raises(SL2Error):
        Mat2.from_ints(ctx, 1, 0, 0, 2)


def _tower_height_2():
    ctx = q_ctx()
    ctx.adjoin_sqrt(ctx.from_int(2))
    ctx.adjoin_sqrt(ctx.from_int(3))
    return ctx


@pytest.mark.parametrize("make_ctx", [q_ctx, lambda: TowerContext(PrimeBase(5)), _tower_height_2],
                         ids=["q", "fp5", "tower2"])
def test_derived_matrices_have_det_1(make_ctx):
    # Mat2 products, inverses and negations skip the determinant check
    rng = random.Random(13)
    ctx = make_ctx()
    scalars = [ctx.generator(k) for k in range(1, len(ctx.levels) + 1)] + [ctx.one]

    def entry():
        return sum((ctx.from_int(rng.randint(-3, 3)) * g for g in scalars), ctx.zero)

    def random_mat():
        while True:
            a, b, c = entry(), entry(), entry()
            if not a.is_zero():
                return Mat2(a, b, c, (ctx.one + b * c) / a)

    for _ in range(10):
        x, y = random_mat(), random_mat()
        for m in (x * y, x.inverse(), -x, x.conjugate_by(y), x.commutator(y),
                  Rep([x, y]).image((1, -2, 2, 1))):
            assert m.a * m.d - m.b * m.c == ctx.one


def test_inverse_adjugate():
    ctx = q_ctx()
    m = Mat2.from_ints(ctx, 1, 1, 0, 1)
    assert m.inverse() == Mat2.from_ints(ctx, 1, -1, 0, 1)
    assert m * m.inverse() == Mat2.identity(ctx)


def test_trace_product():
    ctx = q_ctx()
    u = Mat2.from_ints(ctx, 1, 1, 0, 1)
    l = Mat2.from_ints(ctx, 1, 0, 1, 1)
    assert (u * l).trace() == ctx.from_int(3)


def test_commuting_diag_commutator_trace():
    ctx = q_ctx()
    a = Mat2(ctx.from_int(2), ctx.zero, ctx.zero, ctx.from_rational(1, 2))
    b = Mat2(ctx.from_int(3), ctx.zero, ctx.zero, ctx.from_rational(1, 3))
    assert a.commutator(b).trace() == ctx.from_int(2)


def test_delta_examples():
    ctx = q_ctx()
    u = Mat2.from_ints(ctx, 1, 1, 0, 1)
    l = Mat2.from_ints(ctx, 1, 0, 1, 1)
    assert delta(Mat2.identity(ctx), u).is_zero()
    assert delta(u, l) == ctx.one
    assert delta(u, l) == u.commutator(l).trace() - ctx.from_int(2)


def test_trace_identities_random():
    rng = random.Random(11)
    ctx = q_ctx()
    two = ctx.from_int(2)
    for _ in range(60):
        a, b = random_sl2(rng, ctx), random_sl2(rng, ctx)
        # tr(AB) + tr(A^-1 B) = trA trB
        assert (a * b).trace() + (a.inverse() * b).trace() == a.trace() * b.trace()
        # commutator form
        ta, tb, tab = a.trace(), b.trace(), (a * b).trace()
        lhs = ta * ta + tb * tb + tab * tab - ta * tb * tab
        assert lhs == a.commutator(b).trace() + two


def test_reducible_pair_upper_triangular():
    ctx = q_ctx()
    a = Mat2(ctx.from_int(2), ctx.from_int(3), ctx.zero, ctx.from_rational(1, 2))
    b = Mat2.from_ints(ctx, 1, 5, 0, 1)
    v = is_reducible_pair(a, b)
    assert v.reducible
    assert v.witness == Line(ctx.one, ctx.zero)


def test_irreducible_pair():
    ctx = q_ctx()
    u = Mat2.from_ints(ctx, 1, 1, 0, 1)
    l = Mat2.from_ints(ctx, 1, 0, 1, 1)
    v = is_reducible_pair(u, l)
    assert not v.reducible


def test_identity_pair_always_reducible():
    ctx = q_ctx()
    rng = random.Random(3)
    for _ in range(10):
        b = random_sl2(rng, ctx)
        assert is_reducible_pair(Mat2.identity(ctx), b).reducible


def test_reducible_iff_delta_zero_randomized():
    rng = random.Random(23)
    ctx = q_ctx()
    for _ in range(40):
        a, b = random_sl2(rng, ctx), random_sl2(rng, ctx)
        v = is_reducible_pair(a, b)
        assert v.reducible == delta(a, b).is_zero()
        if v.reducible and not (a.is_plus_minus_identity() and b.is_plus_minus_identity()):
            assert v.witness.is_fixed_by(a) and v.witness.is_fixed_by(b)


def test_rigged_reducible_pair_has_hidden_witness():
    rng = random.Random(5)
    ctx = q_ctx()
    for _ in range(20):
        s = random_sl2(rng, ctx)
        a = Mat2(ctx.from_int(3), ctx.from_int(1), ctx.zero, ctx.from_rational(1, 3))
        b = Mat2(ctx.from_int(5), ctx.from_int(2), ctx.zero, ctx.from_rational(1, 5))
        av, bv = a.conjugate_by(s), b.conjugate_by(s)
        v = is_reducible_pair(av, bv)
        assert v.reducible
        assert v.witness.is_fixed_by(av) and v.witness.is_fixed_by(bv)


def test_family_diagonal_reducible():
    ctx = q_ctx()
    mats = [
        Mat2(ctx.from_int(2), ctx.zero, ctx.zero, ctx.from_rational(1, 2)),
        Mat2(ctx.from_int(3), ctx.zero, ctx.zero, ctx.from_rational(1, 3)),
    ]
    v = is_reducible_family(mats)
    assert v.reducible and v.witness == Line(ctx.one, ctx.zero)


def test_family_pair_certificate():
    ctx = q_ctx()
    u = Mat2.from_ints(ctx, 1, 1, 0, 1)
    l = Mat2.from_ints(ctx, 1, 0, 1, 1)
    v = is_reducible_family([u, l, Mat2.identity(ctx)])
    assert not v.reducible
    assert v.certificate == (0, 1)


def test_family_powers_reducible():
    ctx = q_ctx()
    rng = random.Random(9)
    a = random_sl2(rng, ctx)
    v = is_reducible_family([a, a * a, a * a * a])
    assert v.reducible


def test_family_triple_certificate():
    # pairwise reducible but no family-wide line: quaternion-style triple
    ctx = q_ctx()
    i = Mat2.from_ints(ctx, 0, -1, 1, 0)
    # adjoin sqrt(-1)
    from sl2trace.qfield import solve_quadratic

    r, _ = solve_quadratic(ctx, ctx.zero, ctx.one)
    j = Mat2(r, ctx.zero, ctx.zero, -r)
    k = i * j
    v = is_reducible_family([i, j, k])
    assert not v.reducible
    assert v.certificate is not None and len(v.certificate) in (2, 3)
    brute = all(
        is_reducible_pair(x, y).reducible for x, y in [(i, j), (j, k), (i, k)]
    )
    # each pair here is actually irreducible, so a pair certificate is fine
    assert not brute


def test_realize_case3_verbatim_solutions():
    ctx = q_ctx()
    two, m2 = ctx.from_int(2), ctx.from_int(-2)
    ident = Mat2.identity(ctx)
    up = Mat2.from_ints(ctx, 1, 1, 0, 1)
    low = Mat2.from_ints(ctx, 1, 0, -4, 1)
    assert realize_triple(two, two, two, two, two, two, ctx) == (ident, ident, ident)
    assert realize_triple(two, two, two, m2, two, two, ctx) == (up, low, ident)
    assert realize_triple(two, two, two, m2, m2, two, ctx) == (up, low, up)
    assert realize_triple(two, two, two, m2, m2, m2, ctx) == (
        up,
        low,
        Mat2.from_ints(ctx, -1, 1, -4, 3),
    )


def test_realize_case3_all_sign_patterns():
    ctx = q_ctx()
    vals = [ctx.from_int(2), ctx.from_int(-2)]
    for mask in range(64):
        ts = [vals[(mask >> i) & 1] for i in range(6)]
        realize_triple(*ts, ctx)  # raises on any verification failure


def test_realize_random_roundtrip():
    rng = random.Random(17)
    for _ in range(30):
        ctx = q_ctx()
        ts = [ctx.from_int(rng.randint(-6, 6)) for _ in range(6)]
        realize_triple(*ts, ctx)


def test_realize_case2_tuples():
    rng = random.Random(29)
    for _ in range(25):
        ctx = q_ctx()
        pm = [2, -2]
        ts = [ctx.from_int(rng.choice(pm)) for _ in range(3)]
        pairs = [ctx.from_int(rng.choice(pm)) for _ in range(3)]
        pairs[rng.randrange(3)] = ctx.from_int(rng.choice([-5, -3, 0, 3, 5]))
        realize_triple(*ts, *pairs, ctx)


def test_realize_spec_example_300100():
    ctx = q_ctx()
    realize_triple(
        ctx.from_int(3), ctx.zero, ctx.zero,
        ctx.one, ctx.zero, ctx.zero, ctx,
    )


def test_realize_over_prime_field():
    rng = random.Random(31)
    for _ in range(15):
        ctx = TowerContext(PrimeBase(5))
        ts = [ctx.from_int(rng.randint(0, 4)) for _ in range(6)]
        realize_triple(*ts, ctx)


def test_diagonalize_diagonal_input():
    ctx = q_ctx()
    a = Mat2(ctx.from_int(2), ctx.zero, ctx.zero, ctx.from_rational(1, 2))
    b = Mat2(ctx.from_int(3), ctx.zero, ctx.zero, ctx.from_rational(1, 3))
    n = diagonalize_or_normalize(a, b)
    assert n.diagonalizable
    assert n.first == a and n.second == b


def test_diagonalize_mixed_input():
    ctx = q_ctx()
    a = Mat2(ctx.from_int(2), ctx.zero, ctx.zero, ctx.from_rational(1, 2))
    b = Mat2.from_ints(ctx, 1, 1, 0, 1)
    n = diagonalize_or_normalize(a, b)
    assert not n.diagonalizable
    assert n.first == a
    assert n.second == b
    assert n.first.trace() == a.trace() and n.second.trace() == b.trace()


def test_diagonalize_unipotent_branch():
    ctx = q_ctx()
    n = diagonalize_or_normalize(Mat2.identity(ctx), Mat2.from_ints(ctx, 1, 1, 0, 1))
    assert not n.diagonalizable
    assert n.second.c.is_zero()


def test_diagonalize_rejects_irreducible():
    ctx = q_ctx()
    with pytest.raises(SL2Error):
        diagonalize_or_normalize(
            Mat2.from_ints(ctx, 1, 1, 0, 1), Mat2.from_ints(ctx, 1, 0, 1, 1)
        )


def test_diagonalize_hidden_line():
    rng = random.Random(41)
    ctx = q_ctx()
    s = random_sl2(rng, ctx)
    a = Mat2(ctx.from_int(3), ctx.one, ctx.zero, ctx.from_rational(1, 3)).conjugate_by(s)
    b = Mat2(ctx.from_int(2), ctx.one, ctx.zero, ctx.from_rational(1, 2)).conjugate_by(s)
    n = diagonalize_or_normalize(a, b)
    assert n.first.c.is_zero() and n.second.c.is_zero()
    assert n.first.trace() == a.trace() and n.second.trace() == b.trace()


def test_diagonalize_family_preserves_word_traces():
    rng = random.Random(43)
    ctx = q_ctx()
    s = random_sl2(rng, ctx)
    ups = [
        Mat2(ctx.from_int(2), ctx.one, ctx.zero, ctx.from_rational(1, 2)),
        Mat2(ctx.from_int(3), ctx.from_int(2), ctx.zero, ctx.from_rational(1, 3)),
        Mat2(ctx.from_int(5), ctx.from_int(-1), ctx.zero, ctx.from_rational(1, 5)),
    ]
    fam = [m.conjugate_by(s) for m in ups]
    diag = diagonalize_family(fam)
    rep1, rep2 = Rep(fam), Rep(diag)
    for word in [(1,), (2, 3), (1, 2, 3), (1, -2, 3, 3), (3, -1, -1, 2)]:
        assert rep1.image(word).trace() == rep2.image(word).trace()


def test_gm_witness_identity():
    ctx = q_ctx()
    rep = Rep([Mat2.identity(ctx), Mat2.identity(ctx)])
    assert gm_reducibility_witness(rep, (1,)).kind == "identity_image"


def test_gm_witness_reducible():
    ctx = q_ctx()
    rep = Rep([Mat2.from_ints(ctx, 1, 1, 0, 1), Mat2.from_ints(ctx, 1, 2, 0, 1)])
    v = gm_reducibility_witness(rep, (1,))
    assert v.kind == "reducible"
    assert v.witness == Line(ctx.one, ctx.zero)


def test_gm_witness_not_applicable():
    ctx = q_ctx()
    a = Mat2(ctx.from_int(3), ctx.zero, ctx.zero, ctx.from_rational(1, 3))
    rep = Rep([a, Mat2.identity(ctx)])
    assert gm_reducibility_witness(rep, (1,)).kind == "not_applicable"


def test_eigenlines_unipotent():
    ctx = q_ctx()
    u = Mat2.from_ints(ctx, 1, 1, 0, 1)
    assert eigenlines(u) == [Line(ctx.one, ctx.zero)]


def test_realize_over_f2():
    rng = random.Random(53)
    from sl2trace.qfield import PrimeBase

    for _ in range(12):
        ctx = TowerContext(PrimeBase(2))
        ts = [ctx.from_int(rng.randint(0, 1)) for _ in range(6)]
        realize_triple(*ts, ctx)
