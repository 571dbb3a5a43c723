import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from sl2trace.qfield import RationalBase, TowerContext
from sl2trace.sl2 import Mat2, Rep
from sl2trace.fricke import trace_of_word_direct
from sl2trace.farey import (
    BASE_TRIANGLE,
    FareyError,
    Slope,
    complete_triangle,
    farey_walk,
    is_neighbor,
    psl2z_act,
    slope_word_torus,
    slopes_in_box,
)


def test_slope_canonicalization():
    assert Slope(2, 4) == Slope(1, 2)
    assert Slope(-1, -2) == Slope(1, 2)
    assert Slope(3, -6) == Slope(-1, 2)
    assert Slope(-2, 0) == Slope(1, 0)
    assert str(Slope.parse("1/0")) == "1/0"
    with pytest.raises(FareyError):
        Slope(0, 0)


def test_slope_is_its_vector():
    for p, q in ((1, 2), (-3, 5), (1, 0), (0, 1), (144, 89)):
        s = Slope(p, q)
        assert s == (p, q) and (p, q) == s
        assert hash(s) == hash((p, q))
        assert s.vector() == (p, q) and (s.p, s.q) == (p, q)
        assert {s: 1}[(p, q)] == 1  # a memo keyed by slopes answers vectors
    assert Slope(3, -6) == (-1, 2)
    assert Slope(-2, 0) == (1, 0)
    assert Slope(p=4, q=6) == (2, 3)
    assert str(Slope(-3, 5)) == "-3/5"
    assert repr(Slope(-3, 5)) == "Slope(p=-3, q=5)"
    assert Slope.parse("-6/4") == (-3, 2) and Slope.parse("7") == (7, 1)


def test_farey_walk_steps_hold_reduced_slopes():
    for target in slopes_in_box(15) + [Slope(-89, 144), Slope(1, 60), Slope(-60, 1)]:
        for step in farey_walk(target):
            for s in step:
                assert type(s) is Slope
                assert s.q >= 0 and math.gcd(s.p, s.q) == 1
                assert Slope(*s) == s and tuple.__eq__(Slope(s.p, s.q), s)
    steps = farey_walk(Slope(-3, 5))
    assert [s.to_json() for s in steps] == [
        ["0/1", "1/0", "1/1", "-1/1"], ["-1/1", "0/1", "1/0", "-1/2"],
        ["-1/1", "-1/2", "0/1", "-2/3"], ["-2/3", "-1/2", "-1/1", "-3/5"]]
    assert repr(steps[0]) == ("FareyStep(a=Slope(p=0, q=1), b=Slope(p=1, q=0), "
                              "old=Slope(p=1, q=1), new=Slope(p=-1, q=1))")
    assert [s.to_json() for s in farey_walk(Slope(3, 5))] == [
        ["0/1", "1/1", "1/0", "1/2"], ["1/2", "1/1", "0/1", "2/3"], ["1/2", "2/3", "1/1", "3/5"]]
    assert [s.to_json() for s in farey_walk(Slope(5, 2))] == [
        ["1/1", "1/0", "0/1", "2/1"], ["2/1", "1/0", "1/1", "3/1"], ["2/1", "3/1", "1/0", "5/2"]]


def test_is_neighbor_examples():
    assert is_neighbor(Slope(0, 1), Slope(1, 0))
    assert is_neighbor(Slope(1, 2), Slope(2, 5))
    assert not is_neighbor(Slope(1, 2), Slope(1, 4))


def test_complete_triangle_examples():
    assert set(complete_triangle(Slope(0, 1), Slope(1, 0))) == {Slope(1, 1), Slope(-1, 1)}
    assert set(complete_triangle(Slope(1, 2), Slope(1, 3))) == {Slope(2, 5), Slope(0, 1)}
    assert set(complete_triangle(Slope(1, 1), Slope(1, 0))) == {Slope(2, 1), Slope(0, 1)}
    with pytest.raises(FareyError):
        complete_triangle(Slope(1, 2), Slope(1, 4))


def test_farey_walk_base_cases():
    for s in BASE_TRIANGLE:
        assert farey_walk(s) == []


def test_farey_walk_two_over_one():
    steps = farey_walk(Slope(2, 1))
    assert len(steps) == 1
    s = steps[0]
    assert {s.a, s.b, s.old} == {Slope(1, 1), Slope(1, 0), Slope(0, 1)}
    assert s.new == Slope(2, 1)


def test_farey_walk_three_fifths():
    steps = farey_walk(Slope(3, 5))
    assert len(steps) == 3
    assert steps[-1].new == Slope(3, 5)
    seen = set(BASE_TRIANGLE)
    for st_ in steps:
        assert {st_.a, st_.b, st_.old} <= seen
        seen.add(st_.new)


def test_farey_walk_replayable_everywhere():
    for target in slopes_in_box(12):
        steps = farey_walk(target)
        seen = set(BASE_TRIANGLE)
        for s in steps:
            assert {s.a, s.b, s.old} <= seen
            # every step is a quadrilateral: FareyStep does not check this
            for x, y in ((s.a, s.b), (s.a, s.old), (s.b, s.old), (s.a, s.new), (s.b, s.new)):
                assert is_neighbor(x, y)
            assert s.old != s.new
            assert {s.old, s.new} == set(complete_triangle(s.a, s.b))
            seen.add(s.new)
        if target not in BASE_TRIANGLE:
            assert steps[-1].new == target
        # determinism
        assert [s.to_json() for s in farey_walk(target)] == [s.to_json() for s in steps]


def test_psl2z_examples():
    assert psl2z_act(((1, 0), (0, 1)), Slope(5, 7)) == Slope(5, 7)
    assert psl2z_act(((1, 1), (0, 1)), Slope(0, 1)) == Slope(1, 1)
    assert psl2z_act(((0, -1), (1, 0)), Slope(3, 4)) == Slope(-4, 3)
    with pytest.raises(FareyError):
        psl2z_act(((2, 0), (0, 1)), Slope(1, 1))


@settings(max_examples=60, deadline=None)
@given(st.integers(-9, 9), st.integers(-9, 9), st.integers(-9, 9), st.integers(-9, 9))
def test_psl2z_preserves_neighbors(p, q, r, s):
    try:
        x, y = Slope(p, q), Slope(r, s)
    except FareyError:
        return
    rng = random.Random(p * 1000 + q * 100 + r * 10 + s)

    def matmul(x, y):
        return (
            (x[0][0] * y[0][0] + x[0][1] * y[1][0], x[0][0] * y[0][1] + x[0][1] * y[1][1]),
            (x[1][0] * y[0][0] + x[1][1] * y[1][0], x[1][0] * y[0][1] + x[1][1] * y[1][1]),
        )

    m = ((1, 0), (0, 1))
    for _ in range(3):
        k = rng.randint(-3, 3)
        shear = ((1, k), (0, 1)) if rng.random() < 0.5 else ((1, 0), (k, 1))
        m = matmul(m, shear)
    assert abs(m[0][0] * m[1][1] - m[0][1] * m[1][0]) == 1
    assert is_neighbor(x, y) == is_neighbor(psl2z_act(m, x), psl2z_act(m, y))


def test_christoffel_words_base():
    assert slope_word_torus(Slope(0, 1)).letters == (1,)
    assert slope_word_torus(Slope(1, 0)).letters == (2,)
    assert slope_word_torus(Slope(1, 1)).letters == (1, 2)
    assert slope_word_torus(Slope(1, 2)).letters == (1, 1, 2)


def test_christoffel_negative_convention():
    assert slope_word_torus(Slope(-1, 1)).letters == (-1, 2)
    assert slope_word_torus(Slope(-1, 2)).letters == (-1, -1, 2)


def test_christoffel_lengths():
    for s in slopes_in_box(15):
        w = slope_word_torus(s)
        assert len(w) == abs(s.p) + s.q


def random_rep2(rng, ctx, bound=3):
    gens = []
    for _ in range(2):
        b = ctx.from_int(rng.randint(-bound, bound))
        c = ctx.from_int(rng.randint(-bound, bound))
        gens.append(Mat2(ctx.one, b, c, ctx.one + b * c))
    return Rep(gens)


def test_slope_word_trace_recursion():
    """f(gamma) + f(gamma') = f(alpha) f(beta) on every walk quadrilateral."""
    rng = random.Random(99)
    ctx = TowerContext(RationalBase())
    reps = [random_rep2(rng, ctx) for _ in range(8)]
    quads = set()
    for target in slopes_in_box(9):
        for s in farey_walk(target):
            quads.add((s.a, s.b, s.old, s.new))
    for rep in reps:
        f = {}

        def val(slope, rep=rep, f=f):
            if slope not in f:
                f[slope] = trace_of_word_direct(rep, slope_word_torus(slope))
            return f[slope]

        for a, b, old, new in quads:
            assert val(new) + val(old) == val(a) * val(b), (a, b, old, new)
