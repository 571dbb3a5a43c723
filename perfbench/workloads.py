"""Seeded job generators for the four benchmark workloads.

A workload run is a sequence of rounds; each round runs in a fresh
interpreter (the `fricke` reduction memo is process-global) and executes a
fixed-size batch of CLI jobs.  Round `r` of seed `s` is generated from
`random.Random(f"{workload}:{s}:{r}")`, so the same seed always yields the
same jobs, whatever the number of rounds a run reaches.

A job is the argv handed to `sl2trace.cli.main` plus what its oracle
needs.  The program sees only the argv (inline `--json` payloads).
"""

from __future__ import annotations

import itertools
import json
import math
import random
from dataclasses import dataclass, field

# Every job passes --jobs 2 (the machine has two cores): the CLI accepts
# and ignores the flag today, so a change that honours it is measured
# without editing the benchmark.
JOBS_FLAG = ["--jobs", "2"]

# All integer SL(2) matrices with entries in [-3, 3].
SL2_INT = [
    m for m in itertools.product(range(-3, 4), repeat=4) if m[0] * m[3] - m[1] * m[2] == 1
]

ATLAS_KEYS = ("12", "13", "14", "23", "24", "34", "123", "124", "134", "234")


@dataclass
class Job:
    argv: list
    kind: str  # oracle name, see oracles.CHECKS
    expect: dict = field(default_factory=dict)
    # builds follow-up jobs from this job's report text; they run after the
    # timed jobs, untimed, and are checked like the rest
    followup: object = None


def _argv(command, seed, field_spec=None, payload=None, extra=()):
    argv = [command, "--seed", str(seed), *JOBS_FLAG]
    if field_spec is not None:
        argv += ["--field", field_spec]
    if payload is not None:
        argv += ["--json", json.dumps(payload, sort_keys=True, separators=(",", ":"))]
    return argv + list(extra)


# ---------------------------------------------------------------------------
# integer matrices (shared with the oracles)


def mat_mul(x, y):
    a, b, c, d = x
    e, f, g, h = y
    return (a * e + b * g, a * f + b * h, c * e + d * g, c * f + d * h)


def mat_inv(x):
    a, b, c, d = x
    return (d, -b, -c, a)


def subset_traces(mats):
    """Trace of x_{i1}..x_{ik} for every nonempty increasing index tuple."""
    out = {}
    for k in range(1, len(mats) + 1):
        for subset in itertools.combinations(range(1, len(mats) + 1), k):
            m = mats[subset[0] - 1]
            for i in subset[1:]:
                m = mat_mul(m, mats[i - 1])
            out[subset] = m[0] + m[3]
    return out


def word_trace(mats, letters):
    m = (1, 0, 0, 1)
    for k in letters:
        g = mats[abs(k) - 1]
        m = mat_mul(m, g if k > 0 else mat_inv(g))
    return m[0] + m[3]


def random_rep(rng, rank):
    return [rng.choice(SL2_INT) for _ in range(rank)]


def generic_rep(rng, rank):
    """Products of three small matrices: traces are rarely 0 or +-2, so a
    polynomial evaluated on the rep does not lose terms to zero traces."""
    return [mat_mul(mat_mul(*random_rep(rng, 2)), rng.choice(SL2_INT)) for _ in range(rank)]


def _scalar(v, field_spec):
    if field_spec == "q":
        return str(v)
    return str(v % int(field_spec[3:]))


# ---------------------------------------------------------------------------
# atlas-check: check05 / glue05 / realize (tower levels 2-3, sl2, planar)


def atlas_payload(traces, field_spec):
    """15-value atlas data from the subset traces of a rank-4 rep."""
    boundary = [traces[(i,)] for i in (1, 2, 3, 4)] + [traces[(1, 2, 3, 4)]]
    interior = {k: traces[tuple(int(c) for c in k)] for k in ATLAS_KEYS}
    return {
        "boundary": [_scalar(v, field_spec) for v in boundary],
        "interior": {k: _scalar(v, field_spec) for k, v in interior.items()},
    }


def exceptional_atlas_payloads():
    """The 16 exceptional datasets on the 5-holed sphere: boundary values
    +-2 with product 32, pair value -b_i b_j / 2 on the class splitting
    off boundary pair {i, j} (a 3-letter class splits off its complement)."""
    out = []
    for bits in itertools.product((2, -2), repeat=5):
        if math.prod(bits) != 32:
            continue
        interior = {}
        for key in ATLAS_KEYS:
            s = {int(c) for c in key}
            i, j = sorted(s if len(s) == 2 else {1, 2, 3, 4, 5} - s)
            interior[key] = str(-bits[i - 1] * bits[j - 1] // 2)
        out.append({"boundary": [str(b) for b in bits], "interior": interior})
    return out


# (command, field) of the rep-derived jobs in every round; data over q is a
# clear majority of them.
ATLAS_SLOTS = ([("check05", "q")] * 20 + [("glue05", "q")] * 13
               + [("check05", "fp:101")] * 2 + [("glue05", "fp:101")])
# Rep-derived jobs over q take 20-150 ms, in two clusters by tower depth,
# and their latency drifts with the host by up to a third between runs.
# The cheap `realize` jobs (3-6 ms, mostly CLI and level 0-2 arithmetic)
# are made the majority by count, so the median job lies in their dense
# cluster; jobs_per_s and p90 still follow the rep-derived work, which
# takes about 85% of the time.
ATLAS_REALIZE = 81


def _atlas_round(rng, seed, rnd):
    # The cost of a rep-derived job is set by the tower depth it needs (two
    # levels over q take about 30 ms, three about 110 ms), an arithmetic
    # accident of the traces.  So that every round of every run has the same
    # mix of depths, whatever the seed and the number of rounds, the base
    # reps of each slot are the same in every round, and the seed flips
    # generator signs: A -> -A keeps each t^2 - 4, hence almost always the
    # depth, but changes the data.  Everything else is drawn from the seed.
    base = random.Random("atlas-check:reps")

    def flipped_traces():
        signs = [rng.choice((1, -1)) for _ in range(4)]
        return subset_traces([tuple(s * x for x in m) for s, m in zip(signs, random_rep(base, 4))])

    jobs = []
    for command, field_spec in ATLAS_SLOTS:
        payload = atlas_payload(flipped_traces(), field_spec)
        jobs.append(Job(_argv(command, seed, field_spec, payload), "atlas_rep",
                        {"payload": payload}))
    # perturbed data: one interior value +1, rejected with a witness; the
    # perturbed class decides how far the check gets, so it is fixed per slot
    for k in range(2):
        payload = atlas_payload(flipped_traces(), "q")
        key = ATLAS_KEYS[(2 * rnd + k) % len(ATLAS_KEYS)]
        payload["interior"][key] = str(int(payload["interior"][key]) + 1)
        jobs.append(Job(_argv("check05", seed, "q", payload), "atlas_perturbed",
                        {"payload": payload}))
    payload = rng.choice(exceptional_atlas_payloads())
    command = ("check05", "glue05")[rnd % 2]
    jobs.append(Job(_argv(command, seed, "q", payload), "atlas_exceptional",
                    {"payload": payload}))
    for _ in range(ATLAS_REALIZE):
        payload = {"traces": [str(rng.randint(-3, 3)) for _ in range(6)]}
        jobs.append(Job(_argv("realize", seed, "q", payload), "realize", {"payload": payload}))
    rng.shuffle(jobs)
    return jobs


# ---------------------------------------------------------------------------
# farey-propagate: memoised Farey propagation at tower level 0


def random_slope(rng, bound=300):
    while True:
        p, q = rng.randint(-bound, bound), rng.randint(1, bound)
        if math.gcd(p, q) == 1:
            return f"{p}/{q}"


def _propagate_round(rng, seed, rnd):
    jobs = []
    for i in range(100):
        surface = "sigma11" if i % 2 == 0 else "sigma04"
        field_spec = "q" if i % 4 < 2 else "fp:1000003"
        if i % 5 == 4:
            # repeated slopes: the second query of each reads the memo
            distinct = [random_slope(rng) for _ in range(10)]
            slopes = distinct * 2
            rng.shuffle(slopes)
        else:
            slopes = [random_slope(rng) for _ in range(20)]
        if surface == "sigma11":
            payload = {"surface": surface,
                       "triangle": [str(rng.randint(-3, 3)) for _ in range(3)],
                       "slopes": slopes}
        else:
            t = subset_traces(random_rep(rng, 3))
            payload = {"surface": surface,
                       "boundary": [_scalar(t[k], field_spec)
                                    for k in ((1,), (2,), (3,), (1, 2, 3))],
                       "triangle": [_scalar(t[k], field_spec)
                                    for k in ((1, 2), (2, 3), (1, 3))],
                       "slopes": slopes}
        jobs.append(Job(_argv("propagate", seed, field_spec, payload), "propagate",
                        {"payload": payload}))
    rng.shuffle(jobs)
    return jobs


# ---------------------------------------------------------------------------
# word-reduce: Fricke reduction with a cold process-global memo


def random_word(rng, length, inverses, rank=4):
    """Random freely reduced word with `inverses` inverse letters."""
    signs = [-1] * inverses + [1] * (length - inverses)
    rng.shuffle(signs)
    letters = []
    for sign in signs:
        k = sign * rng.randint(1, rank)
        while letters and letters[-1] == -k:
            k = sign * rng.randint(1, rank)
        letters.append(k)
    return letters


def word_text(letters):
    return " ".join(f"x{abs(k)}" + ("^-1" if k < 0 else "") for k in letters)


def _word_round(rng, seed, rnd):
    # Word length (10-16) and the inverse share (30%) are fixed per slot.
    # Memo growth, and with it time and RSS, is heavy-tailed in the word
    # shapes, so like atlas-check the shapes of round `rnd` come from a
    # stream every seed shares; the seed relabels each word's generators.
    base = random.Random(f"word-reduce:words:{rnd}")
    jobs = []
    for i in range(180):
        length = 10 + i % 7
        perm = rng.sample(range(1, 5), 4)
        letters = [perm[abs(k) - 1] * (1 if k > 0 else -1)
                   for k in random_word(base, length, round(0.3 * length))]
        payload = {"word": word_text(letters), "rank": 4}
        reps = [generic_rep(rng, 4) for _ in range(2)]
        jobs.append(Job(_argv("tracepoly", seed, None, payload), "tracepoly",
                        {"letters": letters, "reps": reps}))
    for i in range(20):
        t = subset_traces(random_rep(rng, 3))
        point = [t[k] for k in ((1,), (2,), (3,), (1, 2), (2, 3), (1, 3), (1, 2, 3))]
        if i % 2:
            point[rng.randrange(7)] += rng.choice((-1, 1))
        payload = {"point": [str(v) for v in point]}
        jobs.append(Job(_argv("variety", seed, "q", payload), "variety", {"point": point}))
    rng.shuffle(jobs)
    return jobs


# ---------------------------------------------------------------------------
# exceptional-search: the n = 6 exhaustive search, then certify each result

EXCEPTIONAL_N = 6
EXCEPTIONAL_COUNT = {5: 16, 6: 192}


def _certify_jobs(seed, order_seed, report_text):
    """Follow-up: one certify job per function the search returned."""
    report = json.loads(report_text)
    n = report["result"]["n"]
    jobs = [Job(_argv("certify", seed, "q", {"n": n, "boundary": tf["boundary"],
                                             "table": tf["table"]}), "certify")
            for tf in report["result"]["functions"]]
    random.Random(order_seed).shuffle(jobs)
    return jobs


def _exceptional_round(rng, seed, rnd, n=EXCEPTIONAL_N):
    order_seed = rng.getrandbits(64)
    job = Job(_argv("exceptional", seed, "q", extra=["--n", str(n)]), "exceptional",
              {"count": EXCEPTIONAL_COUNT[n]})
    job.followup = lambda text: _certify_jobs(seed, order_seed, text)
    return [job]


ROUNDS = {
    "atlas-check": _atlas_round,
    "farey-propagate": _propagate_round,
    "word-reduce": _word_round,
    "exceptional-search": _exceptional_round,
}


def make_round(workload, seed, rnd):
    """First-phase jobs of round `rnd`; deterministic in (workload, seed, rnd)."""
    rng = random.Random(f"{workload}:{seed}:{rnd}")
    return ROUNDS[workload](rng, seed, rnd)
