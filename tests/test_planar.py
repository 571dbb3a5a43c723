import collections
import itertools
import math
import random

import pytest

from sl2trace.qfield import RationalBase, TowerContext
from sl2trace.sl2 import Mat2, Rep, delta_values
from sl2trace.planar import (
    FIFTEEN_KEYS,
    PartitionTF,
    PlanarError,
    TraceData05,
    UNKNOWN_WORDS,
    certify_exceptional,
    check_trace_function_05,
    construct_n6_exceptional,
    elimination_45,
    elimination_symbolic_identity,
    exceptional_enumerate,
    glue_sigma05,
    harvest_p_values,
    key_type,
    key_word,
    partition_tf_to_trace_data,
    pentagon_relations_check,
    pentagon_word,
    _equation_residuals,
    _pm2_system,
    _pm2_tables,
    _search_pm2_family,
)


def q_ctx():
    return TowerContext(RationalBase())


def random_rep4(rng, ctx, bound=2):
    gens = []
    for _ in range(4):
        b = ctx.from_int(rng.randint(-bound, bound))
        c = ctx.from_int(rng.randint(-bound, bound))
        gens.append(Mat2(ctx.one, b, c, ctx.one + b * c))
    return Rep(gens)


def diagonal_rep4(rng, ctx):
    gens = []
    for _ in range(4):
        a = ctx.from_int(rng.choice([2, 3, 5, -2, -3]))
        gens.append(Mat2(a, ctx.zero, ctx.zero, ctx.one / a))
    return Rep(gens)


def f0_data(ctx):
    vals = {}
    for k in FIFTEEN_KEYS:
        if k in ("1", "2", "3", "4", "1234"):
            vals[k] = ctx.from_int(2)
        else:
            vals[k] = ctx.from_int(-2)
    return TraceData05(vals)


# -- atlas words -------------------------------------------------------------


def test_pentagon_words_split_expected_pairs():
    # alpha_i should be trace-equal to the 15-set class of type {i, i+1}
    rng = random.Random(1)
    ctx = q_ctx()
    rep = random_rep4(rng, ctx)
    pairs = {1: "12", 2: "23", 3: "34", 4: "123", 5: "234"}
    for i, key in pairs.items():
        assert rep.image(pentagon_word(i)).trace() == rep.image(key_word(key)).trace()


def test_key_types():
    assert key_type("12") == frozenset((1, 2))
    assert key_type("123") == frozenset((4, 5))
    assert key_type("134") == frozenset((2, 5))
    with pytest.raises(PlanarError):
        key_type("1")


def test_pentagon_relations_on_random_reps():
    rng = random.Random(2)
    ctx = q_ctx()
    for _ in range(1000):
        rep = random_rep4(rng, ctx)
        report = pentagon_relations_check(rep)
        assert report["ok"], report


def test_pentagon_relations_mutation_detected():
    # an off-by-one in an atlas word must fail on some random rep
    from sl2trace import planar

    rng = random.Random(3)
    ctx = q_ctx()
    original = planar.product_word

    def corrupted(i):
        w = original(i)
        return w[:-1] + ((w[-1] % 4) + 1,)

    planar.product_word = corrupted
    try:
        failures = 0
        for _ in range(8):
            rep = random_rep4(rng, ctx)
            data = TraceData05.from_rep(rep)
            eqs = planar._equation_residuals(data)
            if not all(v.is_zero() for v in eqs.values()):
                failures += 1
        assert failures > 0
    finally:
        planar.product_word = original


def test_equation_residuals_vanish_on_reps():
    rng = random.Random(4)
    ctx = q_ctx()
    for _ in range(20):
        rep = random_rep4(rng, ctx)
        data = TraceData05.from_rep(rep)
        eqs = _equation_residuals(data)
        assert all(v.is_zero() for v in eqs.values()), {k: repr(v) for k, v in eqs.items()}


# -- elimination -------------------------------------------------------------


def test_elimination_symbolic_identity():
    out = elimination_symbolic_identity()
    assert out["det_is_2_delta"]
    assert out["adjugate_product_matches"]


def test_elimination_recovers_unknowns():
    rng = random.Random(5)
    ctx = q_ctx()
    done = 0
    while done < 25:
        rep = random_rep4(rng, ctx)
        data = TraceData05.from_rep(rep)
        a2, a5, b1 = data.alpha_value(2), data.alpha_value(5), data.boundary_value(4)
        if delta_values(a2, a5, b1).is_zero():
            continue
        sol = elimination_45(
            a2, a5, b1,
            harvest_p_values(data, primed=False),
            harvest_p_values(data, primed=True),
        )
        for name, word in UNKNOWN_WORDS.items():
            assert sol[name] == data.value_of_word(word), name
        done += 1


def test_elimination_rejects_reducible_middle():
    ctx = q_ctx()
    two = ctx.from_int(2)
    with pytest.raises(PlanarError):
        elimination_45(two, two, two, {k: two for k in (1, 2, 3, 6, 7, 10)},
                       {k: two for k in (1, 2, 3, 6, 7, 10)})


# -- gluing ------------------------------------------------------------------


def test_glue_roundtrip_irreducible():
    rng = random.Random(6)
    done = 0
    while done < 10:
        ctx = q_ctx()
        rep = random_rep4(rng, ctx)
        data = TraceData05.from_rep(rep)
        if delta_values(*data.middle_triple(0)).is_zero():
            continue
        verdict = glue_sigma05(data)
        assert verdict.kind == "rep"
        got = TraceData05.from_rep(verdict.rep)
        for key in FIFTEEN_KEYS:
            assert got.values[key] == data.values[key], key
        done += 1


def test_glue_identity_data():
    ctx = q_ctx()
    vals = {k: ctx.from_int(2) for k in FIFTEEN_KEYS}
    verdict = glue_sigma05(TraceData05(vals))
    assert verdict.kind == "rep"
    got = TraceData05.from_rep(verdict.rep)
    assert all(got.values[k] == ctx.from_int(2) for k in FIFTEEN_KEYS)


def test_glue_diagonal_rep():
    rng = random.Random(7)
    for _ in range(6):
        ctx = q_ctx()
        rep = diagonal_rep4(rng, ctx)
        data = TraceData05.from_rep(rep)
        verdict = glue_sigma05(data)
        assert verdict.kind == "rep"
        got = TraceData05.from_rep(verdict.rep)
        for key in FIFTEEN_KEYS:
            assert got.values[key] == data.values[key], key


def test_glue_f0_obstruction():
    ctx = q_ctx()
    verdict = glue_sigma05(f0_data(ctx))
    assert verdict.kind == "exceptional-obstruction"


def test_glue_rejects_bad_residual():
    ctx = q_ctx()
    vals = {k: ctx.from_int(2) for k in FIFTEEN_KEYS}
    vals["14"] = ctx.from_int(3)
    verdict = glue_sigma05(TraceData05(vals))
    assert verdict.kind == "rejected"


# -- full decision -----------------------------------------------------------


def test_check05_random_reps():
    rng = random.Random(8)
    for _ in range(10):
        ctx = q_ctx()
        rep = random_rep4(rng, ctx)
        data = TraceData05.from_rep(rep)
        verdict = check_trace_function_05(data)
        assert verdict.kind == "character"
        got = TraceData05.from_rep(verdict.rep)
        assert all(got.values[k] == data.values[k] for k in FIFTEEN_KEYS)


def test_check05_diagonal_reps():
    rng = random.Random(9)
    for _ in range(5):
        ctx = q_ctx()
        data = TraceData05.from_rep(diagonal_rep4(rng, ctx))
        verdict = check_trace_function_05(data)
        assert verdict.kind == "character"


def test_check05_f0_exceptional():
    ctx = q_ctx()
    assert check_trace_function_05(f0_data(ctx)).kind == "exceptional"


def test_check05_invalid_residual():
    ctx = q_ctx()
    vals = {k: ctx.from_int(2) for k in FIFTEEN_KEYS}
    vals["12"] = ctx.from_int(5)
    verdict = check_trace_function_05(TraceData05(vals))
    assert verdict.kind == "invalid"
    assert verdict.witness is not None


# One +-2 dataset per branch of the decision: the keys valued -2 (all
# others 2), the verdict and the witness tag, with the side named for a
# rejection in a rotated pentagon.
CHECK05_BRANCHES = [
    ((), "character", None),
    (("234",), "invalid", "side-X-residual"),
    (("34",), "invalid", "side-Y-residual"),
    (("23", "234"), "invalid", "side-residual X"),
    (("23", "24", "34", "234"), "invalid", "side-residual Y"),
    (("134",), "invalid", "value-mismatch"),
    (FIFTEEN_KEYS[5:], "exceptional", None),
    (("12", "14", "23", "24", "34", "123", "234"), "invalid", "no-admissible-branch"),
]


@pytest.mark.parametrize("minus,kind,tag", CHECK05_BRANCHES,
                         ids=[f"{kind}-{tag}".replace(" ", "-") for _, kind, tag in CHECK05_BRANCHES])
def test_check05_every_branch(minus, kind, tag):
    ctx = q_ctx()
    data = TraceData05({k: ctx.from_int(-2 if k in minus else 2) for k in FIFTEEN_KEYS})
    verdict = check_trace_function_05(data)
    assert verdict.kind == kind
    witness = verdict.witness
    got = None if witness is None else witness[0]
    if got == "side-residual":
        got += " " + witness[1][0]
    assert got == tag


def test_check05_json_roundtrip():
    rng = random.Random(10)
    ctx = q_ctx()
    data = TraceData05.from_rep(random_rep4(rng, ctx))
    blob = data.to_json()
    data2 = TraceData05.from_json(ctx, blob)
    assert all(data2.values[k] == data.values[k] for k in FIFTEEN_KEYS)


# -- exceptional family ------------------------------------------------------


def test_sixteen_exceptionals():
    fams = exceptional_enumerate(5)
    assert len(fams) == 16
    for tf in fams:
        prod = 1
        for v in tf.boundary:
            prod *= v
        assert prod == 32
        assert all(v in (2, -2) for _, v in tf.table)


def test_exceptional_enumerate_char2_rejected():
    with pytest.raises(PlanarError):
        exceptional_enumerate(5, char=2)
    assert _search_pm2_family(6, char=2) == []


def test_f0_is_enumerated():
    fams = exceptional_enumerate(5)
    f0 = [tf for tf in fams if all(v == 2 for v in tf.boundary)]
    assert len(f0) == 1
    assert all(v == -2 for _, v in f0[0].table)


def test_certify_all_sixteen():
    ctx = q_ctx()
    for tf in exceptional_enumerate(5):
        cert = certify_exceptional(tf, ctx)
        assert cert["exceptional"], cert
        assert cert["glue_obstruction"]


def test_certify_rejects_all_twos():
    tf = PartitionTF.build(
        5, (2,) * 5,
        {frozenset((i, j)): 2 for i in range(1, 6) for j in range(i + 1, 6)},
    )
    cert = certify_exceptional(tf, q_ctx())
    assert not cert["exceptional"]
    assert not cert["boundary_pants_irreducible"]


def test_certify_detects_mutation():
    fams = exceptional_enumerate(5)
    f0 = next(tf for tf in fams if all(v == 2 for v in tf.boundary))
    table = {frozenset(k): v for k, v in f0.table}
    table[frozenset((1, 2))] = 2  # flip one pair value
    mutant = PartitionTF.build(5, f0.boundary, table)
    cert = certify_exceptional(mutant, q_ctx())
    assert not cert["exceptional"]
    assert not cert["embedded_sigma04_pass"]


def test_n6_construction_certifies():
    tf = construct_n6_exceptional()
    cert = certify_exceptional(tf, q_ctx())
    assert cert["exceptional"], cert
    assert cert["witness_partition"] is not None
    assert cert["witness_certificate"]["glue_obstruction"]


def test_n6_enumeration_contains_construction():
    fams = exceptional_enumerate(6)
    assert len(fams) == len(set(fams)) == 192
    target = construct_n6_exceptional()
    assert any(tf == target for tf in fams)
    for tf in fams[:4]:
        assert certify_exceptional(tf, q_ctx())["exceptional"]


def _flip(tf, flip):
    """The even sign flip of a partition TF on the index set `flip`; the
    table keys do not change."""
    boundary = tuple(-v if i + 1 in flip else v for i, v in enumerate(tf.boundary))
    table = tuple((k, -v if len(flip.intersection(k)) % 2 else v) for k, v in tf.table)
    return PartitionTF(tf.n, boundary, table)


def _relabel(tf, perm):
    """The partition TF with boundary component i renamed perm[i]."""
    boundary = [0] * tf.n
    for i, v in enumerate(tf.boundary, 1):
        boundary[perm[i] - 1] = v
    table = {frozenset(perm[i] for i in k): v for k, v in tf.table}
    return PartitionTF.build(tf.n, boundary, table)


@pytest.mark.parametrize("n", [5, 6, 7])
def test_results_closed_under_even_sign_flips(n):
    fams = set(exceptional_enumerate(n))
    for size in range(2, n + 1, 2):
        for flip in itertools.combinations(range(1, n + 1), size):
            assert {_flip(tf, set(flip)) for tf in fams} == fams, flip


@pytest.mark.parametrize("n", [6, 7])
def test_results_closed_under_relabelling(n):
    """A transposition and an n-cycle generate S_n."""
    fams = set(exceptional_enumerate(n))
    transposition = {i: i for i in range(1, n + 1)} | {1: 2, 2: 1}
    cycle = {i: i % n + 1 for i in range(1, n + 1)}
    for perm in (transposition, cycle):
        assert {_relabel(tf, perm) for tf in fams} == fams, perm


def _four_block_partitions(n):
    """Set partitions of {1..n} into 4 blocks, from restricted growth strings."""
    for labels in itertools.product(range(4), repeat=n - 1):
        labels = (0, *labels)
        if all(labels[i] <= max(labels[:i]) + 1 for i in range(1, n)) and max(labels) == 3:
            yield [frozenset(i + 1 for i in range(n) if labels[i] == b) for b in range(4)]


@pytest.mark.parametrize("n,stirling", [(5, 10), (6, 65), (7, 350), (8, 1701)])
def test_greedy_order_fires_each_constraint_once(n, stirling):
    system = _pm2_system(n)
    assert sorted(system.order) == list(range(len(system.keys)))
    universe = frozenset(range(1, n + 1))
    search_pos = {}
    for pos, k in enumerate(system.order):
        s = frozenset(system.keys[k])
        search_pos[s] = search_pos[universe - s] = pos

    def shape(idx):
        return frozenset(idx[:4]), frozenset(idx[4:])

    fired = collections.Counter((pos, shape(idx))
                                for pos, constraints in enumerate(system.fire)
                                for idx in constraints)
    expected = collections.Counter()
    for t1, t2, t3, t4 in _four_block_partitions(n):
        classes = (t1, t2, t3, t4, t1 | t2, t2 | t3, t1 | t3)
        last = max(search_pos[s] for s in classes if s in search_pos)
        expected[last, shape([system.index[s] for s in classes])] += 1
    assert sum(expected.values()) == sum(fired.values()) == stirling
    assert fired == expected


@pytest.mark.parametrize("n,per_root", [(7, [21, 1]), (8, [56, 8])])
def test_every_root_table_certifies(n, per_root):
    """Every table over the two class roots certifies; every other boundary
    vector takes their even sign flips."""
    roots = ((2,) * n, (-2,) + (2,) * (n - 1))
    tables = [tf for tf in exceptional_enumerate(n) if tf.boundary in roots]
    assert [sum(tf.boundary == root for tf in tables) for root in roots] == per_root
    ctx = q_ctx()
    for tf in tables:
        assert certify_exceptional(tf, ctx)["exceptional"], tf


def test_partition_tf_value_lookup():
    tf = construct_n6_exceptional()
    assert tf.value({5, 6}) == tf.value({1, 2, 3, 4}) == 2
    assert tf.value({1, 2}) == -2
    assert tf.value({3}) == tf.value({1, 2, 4, 5, 6}) == 2
    with pytest.raises(PlanarError, match="no table value"):
        tf.value(set())


def test_search_reproduces_the_closed_form_n5():
    """The sixteen n = 5 functions: boundary product 32, pair value -b_i b_j / 2."""
    closed_form = []
    for bits in itertools.product((2, -2), repeat=5):
        if math.prod(bits) != 32:
            continue
        table = {frozenset((i, j)): -bits[i - 1] * bits[j - 1] // 2
                 for i, j in itertools.combinations(range(1, 6), 2)}
        closed_form.append(PartitionTF.build(5, bits, table))
    assert exceptional_enumerate(5) == closed_form


@pytest.mark.parametrize("n", [5, 6])
def test_dfs_from_a_non_root_boundary_matches_the_flipped_root(n):
    system = _pm2_system(n)
    keys = [frozenset(k) for k in system.keys]

    def found(boundary):
        return {PartitionTF.build(n, boundary, dict(zip(keys, t)))
                for t in _pm2_tables(n, boundary, system)}

    positive_root, positive = (2,) * n, (2, -2, -2) + (2,) * (n - 3)
    negative_root, negative = (-2,) + (2,) * (n - 1), (2, -2) + (2,) * (n - 2)
    assert found(positive_root)
    for root, boundary in ((positive_root, positive), (negative_root, negative)):
        flip = {i + 1 for i in range(n) if boundary[i] != root[i]}
        assert found(boundary) == {_flip(tf, flip) for tf in found(root)}


def test_partition_tf_to_trace_data():
    ctx = q_ctx()
    fams = exceptional_enumerate(5)
    f0 = next(tf for tf in fams if all(v == 2 for v in tf.boundary))
    data = partition_tf_to_trace_data(f0, ctx)
    assert data.values["12"] == ctx.from_int(-2)
    assert data.values["1234"] == ctx.from_int(2)


def test_check05_rotated_pentagon_glue():
    # x2, x3, x4 upper triangular makes the standard middle pants
    # reducible; a generic x1 leaves some rotated middle irreducible,
    # forcing the decision through a rotated pentagon
    rng = random.Random(31)
    exercised = 0
    for _ in range(6):
        ctx = q_ctx()

        def upper(a_num, b):
            a = ctx.from_int(a_num)
            return Mat2(a, ctx.from_int(b), ctx.zero, ctx.one / a)

        b_, c_ = rng.randint(-2, 2), rng.randint(1, 3)
        g1 = Mat2(ctx.one, ctx.from_int(b_), ctx.from_int(c_), ctx.one + ctx.from_int(b_ * c_))
        rep = Rep([
            g1,
            upper(2, rng.randint(-2, 2)),
            upper(3, rng.randint(-2, 2)),
            upper(5, rng.randint(-2, 2)),
        ])
        data = TraceData05.from_rep(rep)
        if delta_values(*data.middle_triple(0)).is_zero() and any(
            not delta_values(*data.middle_triple(r)).is_zero() for r in range(1, 5)
        ):
            exercised += 1
        verdict = check_trace_function_05(data)
        assert verdict.kind == "character", verdict.witness
        got = TraceData05.from_rep(verdict.rep)
        assert all(got.values[k] == data.values[k] for k in FIFTEEN_KEYS)
    assert exercised >= 2
