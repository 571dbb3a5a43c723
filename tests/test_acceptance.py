"""Acceptance suite: one test per criterion, exact arithmetic throughout.

Run with `pytest tests/test_acceptance.py -v -s` to see one PASS line
per criterion.  Randomized parts use fixed seeds.
"""

import random
import subprocess
import sys
import time
from pathlib import Path

import pytest

from sl2trace.qfield import PrimeBase, RationalBase, TowerContext
from sl2trace.sl2 import (
    Mat2,
    Rep,
    delta,
    delta_values,
    is_reducible_family,
    is_reducible_pair,
    realize_triple,
)
from sl2trace.farey import Slope, complete_triangle, farey_walk, slopes_in_box
from sl2trace.fricke import (
    Word,
    harvest_char_point,
    reduce_trace_word,
    subset_trace_assignment,
    t123_roots,
    trace_of_word_direct,
    variety_residual,
)
from sl2trace.surfchar import sigma03_special, tf04_from_rep, tf04_realize, tf11_extend
from sl2trace.planar import (
    FIFTEEN_KEYS,
    TraceData05,
    UNKNOWN_WORDS,
    certify_exceptional,
    check_trace_function_05,
    construct_n6_exceptional,
    elimination_45,
    elimination_symbolic_identity,
    exceptional_enumerate,
    harvest_p_values,
    _search_pm2_family,
)
from sl2trace.cli import _identity_suite

ROOT = Path(__file__).resolve().parent.parent


def q_ctx():
    return TowerContext(RationalBase())


def _passline(num, label, detail=""):
    print(f"[criterion {num:2d}] {label}: PASS {detail}".rstrip())


def random_unimodular(rng, ctx, bound=3):
    b = ctx.from_int(rng.randint(-bound, bound))
    c = ctx.from_int(rng.randint(-bound, bound))
    return Mat2(ctx.one, b, c, ctx.one + b * c)


def random_sl2(rng, ctx, bound=4):
    while True:
        a = ctx.from_int(rng.randint(-bound, bound))
        b = ctx.from_int(rng.randint(-bound, bound))
        c = ctx.from_int(rng.randint(-bound, bound))
        if not a.is_zero():
            return Mat2(a, b, c, (ctx.one + b * c) / a)


# ---------------------------------------------------------------------------


def test_criterion_01_trace_identity_suite():
    start = time.time()
    for field in (RationalBase(), PrimeBase(5)):
        ctx = TowerContext(field)
        rng = random.Random(2024)
        counts = _identity_suite(ctx, rng, 1000)
        assert all(v == 1000 for v in counts.values()), (field, counts)
    elapsed = time.time() - start
    assert elapsed < 10, f"identity suite took {elapsed:.1f}s"
    _passline(1, "trace identities (a)-(d), 1000 tuples over Q and F5",
              f"({elapsed:.1f}s)")


def test_criterion_02_realize_triple():
    rng = random.Random(77)
    # the four canonical all-(+-2) inputs and their printed solutions
    ctx = q_ctx()
    two, m2 = ctx.from_int(2), ctx.from_int(-2)
    ident = Mat2.identity(ctx)
    up = Mat2.from_ints(ctx, 1, 1, 0, 1)
    low = Mat2.from_ints(ctx, 1, 0, -4, 1)
    assert realize_triple(two, two, two, two, two, two, ctx) == (ident, ident, ident)
    assert realize_triple(two, two, two, m2, two, two, ctx) == (up, low, ident)
    assert realize_triple(two, two, two, m2, m2, two, ctx) == (up, low, up)
    assert realize_triple(two, two, two, m2, m2, m2, ctx) == (
        up, low, Mat2.from_ints(ctx, -1, 1, -4, 3))

    total = 0
    # all 64 sign patterns, then 36 more random +-2 tuples (case 3 pool)
    pm_tuples = [tuple(2 if (mask >> i) & 1 else -2 for i in range(6)) for mask in range(64)]
    pm_tuples += [tuple(rng.choice((2, -2)) for _ in range(6)) for _ in range(36)]
    # 100 case-2 tuples: t_i in {+-2}, some t_ij outside
    case2 = []
    while len(case2) < 100:
        ts = [rng.choice((2, -2)) for _ in range(3)]
        pairs = [rng.choice((2, -2)) for _ in range(3)]
        pairs[rng.randrange(3)] = rng.choice((-7, -5, -3, -1, 0, 1, 3, 5, 7))
        case2.append(tuple(ts + pairs))
    generic = [tuple(rng.randint(-8, 8) for _ in range(6)) for _ in range(800)]
    for tup in pm_tuples + case2 + generic:
        ctx = q_ctx()
        vals = [ctx.from_int(v) for v in tup]
        realize_triple(*vals, ctx)  # verifies all six equations internally
        total += 1
    assert total == 1000
    _passline(2, "realize_triple round trip on 1000 tuples + verbatim case-3 table")


def test_criterion_03_fricke_oracle():
    start = time.time()
    p = 1009
    rng = random.Random(555)

    def raw_rep(rank):
        gens = []
        for _ in range(rank):
            b, c = rng.randrange(p), rng.randrange(p)
            gens.append(((1, b), (c, (1 + b * c) % p)))
        return gens

    def raw_mul(x, y):
        return (
            ((x[0][0] * y[0][0] + x[0][1] * y[1][0]) % p,
             (x[0][0] * y[0][1] + x[0][1] * y[1][1]) % p),
            ((x[1][0] * y[0][0] + x[1][1] * y[1][0]) % p,
             (x[1][0] * y[0][1] + x[1][1] * y[1][1]) % p),
        )

    def raw_inv(m):
        return ((m[1][1], (-m[0][1]) % p), ((-m[1][0]) % p, m[0][0]))

    def assignment(gens, rank):
        out = {}
        prods = {(): ((1, 0), (0, 1))}
        for mask in range(1, 1 << rank):
            subset = tuple(i + 1 for i in range(rank) if mask >> i & 1)
            prods[subset] = raw_mul(gens[subset[0] - 1], prods[subset[1:]])
            out[subset] = (prods[subset][0][0] + prods[subset][1][1]) % p
        return out

    reps3 = [raw_rep(3) for _ in range(50)]
    assigns3 = [assignment(g, 3) for g in reps3]
    eval_cache = {}

    def poly_values(poly, assigns):
        if poly not in eval_cache:
            eval_cache[poly] = [poly.evaluate(a) % p for a in assigns]
        return eval_cache[poly]

    checked = 0

    def sweep(word, mats):
        nonlocal checked
        if word:
            poly = reduce_trace_word(word)
            values = poly_values(poly, assigns3)
            for m, v in zip(mats, values):
                assert (m[0][0] + m[1][1]) % p == v, word
            checked += 1
        if len(word) == 6:
            return
        for k in (1, -1, 2, -2, 3, -3):
            if word and word[-1] == -k:
                continue
            step = [raw_mul(m, reps3[i][k - 1] if k > 0 else raw_inv(reps3[i][-k - 1]))
                    for i, m in enumerate(mats)]
            sweep(word + (k,), step)

    sweep((), [((1, 0), (0, 1))] * 50)
    assert checked == 23436  # all freely reduced words of length <= 6, rank 3

    reps4 = [raw_rep(4) for _ in range(50)]
    assigns4 = [assignment(g, 4) for g in reps4]
    for _ in range(200):
        length = rng.randint(1, 10)
        letters = []
        while len(letters) < length:
            s = rng.choice([1, -1]) * rng.randint(1, 4)
            if letters and letters[-1] == -s:
                continue
            letters.append(s)
        word = tuple(letters)
        poly = reduce_trace_word(word, 4)
        for gens, a in zip(reps4, assigns4):
            m = ((1, 0), (0, 1))
            for k in word:
                m = raw_mul(m, gens[k - 1] if k > 0 else raw_inv(gens[-k - 1]))
            assert poly.evaluate(a) % p == (m[0][0] + m[1][1]) % p

    # the packaged tower path agrees with the raw oracle on a sample
    ctx = TowerContext(PrimeBase(p))
    rep = Rep([Mat2(ctx.one, ctx.from_int(3), ctx.from_int(5), ctx.from_int(16)),
               Mat2(ctx.one, ctx.from_int(2), ctx.from_int(7), ctx.from_int(15)),
               Mat2(ctx.one, ctx.from_int(1), ctx.from_int(4), ctx.from_int(5))])
    assign = subset_trace_assignment(rep)
    for letters in [(1, 2, 3), (1, -2, 1, 3, 2, -3), (3, 2, 1, -2, 3, 3)]:
        w = Word(letters)
        assert reduce_trace_word(w).evaluate_in(ctx, assign) == trace_of_word_direct(rep, w)

    elapsed = time.time() - start
    assert elapsed < 120, f"fricke oracle took {elapsed:.1f}s"
    _passline(3, "Fricke oracle, exhaustive rank 3 (23436 words) + 200 rank-4 words x 50 reps",
              f"({elapsed:.1f}s)")


def test_criterion_04_variety_membership():
    rng = random.Random(4004)
    ctx = q_ctx()
    on_variety = 0
    for _ in range(1000):
        rep = Rep([random_unimodular(rng, ctx) for _ in range(3)])
        pt = harvest_char_point(rep)
        assert variety_residual(pt).is_zero()
        on_variety += 1
    assert on_variety == 1000
    perturbed = 0
    tried = 0
    while perturbed < 1000:
        tried += 1
        rep = Rep([random_unimodular(rng, ctx) for _ in range(3)])
        vals = list(harvest_char_point(rep).values)
        r1, r2 = t123_roots(*vals[:6], ctx)
        bumped = vals[6] + ctx.one
        if bumped == r1 or bumped == r2:
            continue
        vals[6] = bumped
        assert not variety_residual(vals).is_zero()
        perturbed += 1
    _passline(4, "variety residual: 0 on 1000 character points, nonzero on 1000 perturbations",
              f"(perturbation attempts: {tried})")


def _brute_force_family_reducible(mats):
    active = [m for m in mats if not m.is_plus_minus_identity()]
    if not active:
        return True
    from sl2trace.sl2 import eigenlines

    candidates = []
    for m in active:
        candidates.extend(eigenlines(m))
    return any(all(ln.is_fixed_by(m) for m in active) for ln in candidates)


def test_criterion_05_reducibility_equivalence():
    rng = random.Random(505)

    def rigged_pair(ctx):
        s = random_sl2(rng, ctx)
        da = ctx.from_int(rng.choice([2, 3, 5]))
        db = ctx.from_int(rng.choice([2, 7]))
        a = Mat2(da, ctx.from_int(rng.randint(-2, 2)), ctx.zero, ctx.one / da)
        b = Mat2(db, ctx.from_int(rng.randint(-2, 2)), ctx.zero, ctx.one / db)
        return a.conjugate_by(s), b.conjugate_by(s)

    def unipotent_pair(ctx):
        s = random_sl2(rng, ctx)
        a = Mat2.from_ints(ctx, 1, rng.randint(1, 4), 0, 1)
        b = Mat2.from_ints(ctx, 1, rng.randint(-4, -1), 0, 1)
        return a.conjugate_by(s), b.conjugate_by(s)

    for i in range(1000):
        ctx = q_ctx()
        kind = i % 5
        if kind == 0:
            a, b = rigged_pair(ctx)
        elif kind == 1:
            a, b = unipotent_pair(ctx)
        elif kind == 2:
            a, b = Mat2.identity(ctx), random_sl2(rng, ctx)
        elif kind == 3:
            a, b = -Mat2.identity(ctx), random_sl2(rng, ctx)
        else:
            a, b = random_sl2(rng, ctx), random_sl2(rng, ctx)
        verdict = is_reducible_pair(a, b)
        assert verdict.reducible == delta(a, b).is_zero()
        assert verdict.reducible == _brute_force_family_reducible([a, b])
        if verdict.reducible and not (a.is_plus_minus_identity() and b.is_plus_minus_identity()):
            assert verdict.witness.is_fixed_by(a) and verdict.witness.is_fixed_by(b)

    # pool of 200 matrix recipes; 200 families of size <= 4
    recipes = []
    for _ in range(200):
        kind = rng.randrange(4)
        if kind == 0:
            recipes.append(("upper", rng.choice([2, 3, 5]), rng.randint(-3, 3)))
        elif kind == 1:
            recipes.append(("pmid", rng.choice([1, -1])))
        else:
            recipes.append(("rand", rng.randint(-4, 4), rng.randint(-4, 4), rng.randint(1, 4)))

    def instantiate(recipe, ctx, conj):
        if recipe[0] == "upper":
            m = Mat2(ctx.from_int(recipe[1]), ctx.from_int(recipe[2]), ctx.zero,
                     ctx.one / ctx.from_int(recipe[1]))
        elif recipe[0] == "pmid":
            m = Mat2.identity(ctx) if recipe[1] == 1 else -Mat2.identity(ctx)
        else:
            _, b, c, a = recipe
            m = Mat2(ctx.from_int(a), ctx.from_int(b), ctx.from_int(c),
                     (ctx.one + ctx.from_int(b * c)) / ctx.from_int(a))
        return m.conjugate_by(conj)

    agree = 0
    for fam_i in range(200):
        ctx = q_ctx()
        conj = random_sl2(rng, ctx)
        use_conj = fam_i % 2 == 0
        size = rng.randint(1, 4)
        fam = [instantiate(rng.choice(recipes), ctx,
                           conj if use_conj else Mat2.identity(ctx))
               for _ in range(size)]
        verdict = is_reducible_family(fam)
        assert verdict.reducible == _brute_force_family_reducible(fam)
        if verdict.reducible:
            active = [m for m in fam if not m.is_plus_minus_identity()]
            assert all(verdict.witness.is_fixed_by(m) for m in active)
        agree += 1
    assert agree == 200
    _passline(5, "reducibility: pair verdicts on 1000 cases, families vs brute force on 200")


def test_criterion_06_farey_propagation():
    start = time.time()
    rng = random.Random(66)
    box = [s for s in slopes_in_box(30)]
    parents = {}
    for s in box:
        steps = farey_walk(s)
        if steps:
            parents[s] = (steps[-1].a, steps[-1].b, steps[-1].old)
    for _ in range(100):
        ctx = q_ctx()
        a1, a2 = random_unimodular(rng, ctx, 2), random_unimodular(rng, ctx, 2)
        rep = Rep([a1, a2])
        tf = tf11_extend(a1.trace(), a2.trace(), (a1 * a2).trace())
        # direct side: product tree over positive slopes for rep and its
        # x1 -> x1^-1 twist (negative slopes)
        mats = {Slope(0, 1): a1, Slope(1, 0): a2, Slope(1, 1): a1 * a2}
        mats_neg = {Slope(0, 1): a1.inverse(), Slope(1, 0): a2, Slope(1, 1): a1.inverse() * a2}

        def direct(slope):
            table = mats_neg if slope.p < 0 else mats
            key = Slope(abs(slope.p), slope.q)
            if key not in table:
                a, b, _old = parents[key]
                left, right = (a, b) if a.p * b.q <= b.p * a.q else (b, a)
                table[key] = direct_pos(left, table) * direct_pos(right, table)
            return table[key]

        def direct_pos(slope, table):
            if slope not in table:
                a, b, _old = parents[slope]
                left, right = (a, b) if a.p * b.q <= b.p * a.q else (b, a)
                table[slope] = direct_pos(left, table) * direct_pos(right, table)
            return table[slope]

        for s in box:
            assert tf.query(s) == direct(s).trace(), s
        # path independence: three derivations per slope
        fresh = tf11_extend(a1.trace(), a2.trace(), (a1 * a2).trace())
        for s in reversed(box):
            assert fresh.query(s) == tf.values[s]
        for s in box:
            base = tf.query(s)
            for other in (Slope(0, 1), Slope(1, 0)):
                if s == other:
                    continue
                if abs(s.p * other.q - other.p * s.q) != 1:
                    continue
                c1, c2 = complete_triangle(other, s)
                assert tf.query(other) * base - tf.query(c1) == tf.query(c2)
    elapsed = time.time() - start
    assert elapsed < 60, f"farey propagation took {elapsed:.1f}s"
    _passline(6, "1-holed-torus propagation vs Christoffel traces, |p|,q <= 30, 100 reps",
              f"({elapsed:.1f}s)")


DEEP_SLOPES = [Slope(3, 7), Slope(5, 8), Slope(-4, 9), Slope(7, 2), Slope(-5, 3),
               Slope(9, 4), Slope(11, 5), Slope(-7, 6), Slope(8, 11), Slope(13, 3),
               Slope(-9, 7), Slope(10, 9), Slope(12, 7), Slope(-11, 4), Slope(6, 13)]


def test_criterion_07_sigma04_roundtrip():
    rng = random.Random(777)
    irreducible_seen = 0
    for _ in range(100):
        ctx = q_ctx()
        rep = Rep([random_unimodular(rng, ctx, 2) for _ in range(3)])
        tf = tf04_from_rep(rep)
        assert tf.residual().is_zero()
        rep2 = tf04_realize(tf)
        tf2 = tf04_from_rep(rep2)
        assert tf2.boundary == tf.boundary
        assert tf2.seed() == tf.seed()
        for s in DEEP_SLOPES:
            assert tf.query(s) == tf2.query(s), s
        if not tf.reducible():
            irreducible_seen += 1
            # conjugate-consistency spot check through a direct word trace
            assert trace_of_word_direct(rep2, [1, 2, 3, -2]) == tf.query(Slope(-1, 1))
    assert irreducible_seen > 50
    _passline(7, "4-holed-sphere extend/realize round trip on 100 reps",
              f"({irreducible_seen} irreducible)")


def test_criterion_08_elimination():
    sym = elimination_symbolic_identity()
    assert sym["det_is_2_delta"]
    assert sym["adjugate_product_matches"]
    rng = random.Random(888)
    done = 0
    while done < 200:
        ctx = q_ctx()
        rep = Rep([random_unimodular(rng, ctx, 2) for _ in range(4)])
        data = TraceData05.from_rep(rep)
        a2, a5, b1 = data.alpha_value(2), data.alpha_value(5), data.boundary_value(4)
        if delta_values(a2, a5, b1).is_zero():
            continue
        sol = elimination_45(
            a2, a5, b1,
            harvest_p_values(data, primed=False),
            harvest_p_values(data, primed=True),
        )
        assert sol["x1"] == data.values["12"]
        for name, word in UNKNOWN_WORDS.items():
            assert sol[name] == data.value_of_word(word), name
        done += 1
    _passline(8, "pentagon elimination: symbolic adjugate identity + 200 rep recoveries")


def test_criterion_09_theorem41_roundtrip():
    rng = random.Random(999)
    done_irr, done_diag = 0, 0
    while done_irr < 140:
        ctx = q_ctx()
        rep = Rep([random_unimodular(rng, ctx, 2) for _ in range(4)])
        data = TraceData05.from_rep(rep)
        if delta_values(*data.middle_triple(0)).is_zero():
            continue
        verdict = check_trace_function_05(data)
        assert verdict.kind == "character", verdict.witness
        got = TraceData05.from_rep(verdict.rep)
        for key in FIFTEEN_KEYS:
            assert got.values[key] == data.values[key], key
        done_irr += 1
    while done_diag < 60:
        ctx = q_ctx()
        gens = []
        for _ in range(4):
            a = ctx.from_int(rng.choice([2, 3, 5, -2, -3]))
            gens.append(Mat2(a, ctx.zero, ctx.zero, ctx.one / a))
        data = TraceData05.from_rep(Rep(gens))
        verdict = check_trace_function_05(data)
        assert verdict.kind == "character", verdict.witness
        got = TraceData05.from_rep(verdict.rep)
        for key in FIFTEEN_KEYS:
            assert got.values[key] == data.values[key], key
        done_diag += 1
    _passline(9, "5-holed-sphere decision: 200 rep round trips (140 irreducible + 60 diagonal)")


def test_criterion_10_exceptional_family():
    from sl2trace.planar import partition_tf_to_trace_data

    fams = exceptional_enumerate(5)
    assert len(fams) == 16
    for tf in fams:
        prod = 1
        for v in tf.boundary:
            prod *= v
        assert prod == 32
        assert all(v in (2, -2) for v in tf.boundary)
        assert all(v in (2, -2) for _, v in tf.table)
        cert = certify_exceptional(tf, q_ctx())
        assert cert["exceptional"], cert
        assert cert["glue_obstruction"]
        # the full decision never yields a rep or invalid on these
        verdict = check_trace_function_05(partition_tf_to_trace_data(tf, q_ctx()))
        assert verdict.kind == "exceptional"
    tf6 = construct_n6_exceptional()
    cert6 = certify_exceptional(tf6, q_ctx())
    assert cert6["exceptional"], cert6
    _passline(10, "16 exceptional functions on the 5-holed sphere, all certified; "
                  "6-holed-sphere construction certified")


def test_criterion_11_characteristic_2():
    assert _search_pm2_family(6, char=2) == []
    assert _search_pm2_family(5, char=2) == []
    with pytest.raises(Exception):
        exceptional_enumerate(5, char=2)
    # char-2 reducibility rule f(b3) = f(b2) under f(b1)^2 = 4
    ctx = TowerContext(PrimeBase(2))
    t, _ = __import__("sl2trace.qfield", fromlist=["solve_quadratic"]).solve_quadratic(
        ctx, ctx.one, ctx.one)
    z = ctx.zero  # the unique value with square 4 = 0
    assert sigma03_special(z, t, t, 2)
    assert not sigma03_special(z, t, t + ctx.one, 2)
    assert sigma03_special(z, ctx.one, ctx.one, 2)
    _passline(11, "characteristic 2: empty exceptional search over F2, special pants rule")


CLI_CASES = [
    ("realize", "realize.json"),
    ("realize", "realize_generic.json"),
    ("tracepoly", "tracepoly.json"),
    ("variety", "variety.json"),
    ("propagate", "propagate_sigma11.json"),
    ("propagate", "propagate_sigma04.json"),
    ("check05", "check05_f0.json"),
    ("glue05", "glue05_identity.json"),
]


def test_criterion_12_cli_determinism():
    def invoke(args):
        proc = subprocess.run([sys.executable, "-m", "sl2trace.cli", *args],
                              capture_output=True, text=True, cwd=ROOT / "src")
        return proc.returncode, proc.stdout

    for command, infile in CLI_CASES:
        args = [command, "--input", str(ROOT / "cli_examples" / infile)]
        c1, out1 = invoke(args)
        c2, out2 = invoke(args)
        assert c1 == c2 == 0, (command, infile)
        assert out1 == out2, (command, infile)
        name = infile.replace(".json", ".out.json")
        assert out1 == (ROOT / "tests" / "golden" / name).read_text(), infile
    for extra, golden in ((["exceptional", "--n", "5"], "exceptional_n5.out.json"),
                          (["identities", "--samples", "25", "--seed", "7"],
                           "identities.out.json")):
        c1, out1 = invoke(extra)
        c2, out2 = invoke(extra)
        assert c1 == c2 == 0
        assert out1 == out2 == (ROOT / "tests" / "golden" / golden).read_text()
    _passline(12, "CLI determinism: byte-identical double runs on all shipped examples")
