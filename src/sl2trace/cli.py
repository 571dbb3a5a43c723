"""JSON command-line front end.

Every subcommand reads exact base-field scalars, runs the library over a
fresh tower context, and emits one deterministic JSON report that echoes
the input and the tower extensions used.  Exit codes: 0 success, 1
mathematical rejection (witness in the report), 2 malformed input.

This module is the program's one input boundary: argv and payloads are
decoded and range-checked here, by the parser and the `_read_*`
functions, which raise `InputError`.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import json
import random
import sys
from dataclasses import dataclass

from .qfield import FieldError, TowerContext, base_from_spec, characteristic
from .sl2 import Mat2, SL2Error, realize_triple
from .farey import FareyError, Slope
from .fricke import Word, WordError, reduce_trace_word, variety_residual
from .surfchar import SurfaceError, TF04, tf11_extend
from .planar import (
    FIFTEEN_KEYS,
    PartitionTF,
    PlanarError,
    TraceData05,
    check_trace_function_05,
    certify_exceptional,
    exceptional_enumerate,
    glue_sigma05,
)


SCHEMA = "1"

# Input caps; README.md gives the time the slowest accepted input takes.
EXCEPTIONAL_N = (5, 8)  # n of the n-holed sphere, for exceptional and certify
WORD_MAX_LETTERS = 16  # after free reduction
WORD_MAX_GENERATOR = 5
SAMPLES_MAX = 1000
SLOPE_MAX_WALK = 20000  # Farey walk steps of one job, summed over its slopes
# Over q each walk step adds about a seed's size to the values, so the total
# walk times the seed size (its largest numerator or denominator
# bit_length) is capped; 20000 steps from one-digit seeds (4 bits) fit.
WALK_SEED_BITS_MAX = 4 * SLOPE_MAX_WALK


class InputError(ValueError):
    pass


@dataclass
class JobSpec:
    command: str
    field: str = "q"
    seed: int = 0
    payload: dict | None = None
    n: int = 5
    samples: int = 100


# ---------------------------------------------------------------------------
# readers: decode one kind of input or raise InputError


def _read_base(spec):
    try:
        return base_from_spec(spec.field)
    except ValueError as exc:  # FieldError, or int() of "fp:zz"
        raise InputError(
            f"bad field spec {spec.field!r}: expected q or fp:<prime below 2^31>") from exc


def _ctx(spec):
    return TowerContext(_read_base(spec))


def _get(payload, key, kind=None, count=None):
    """payload[key] of type `kind`, a list of `count` values if given."""
    if not isinstance(payload, dict):
        raise InputError("the payload must be a JSON object")
    if key not in payload:
        raise InputError(f"missing field {key!r}")
    value = payload[key]
    if kind is not None and not isinstance(value, kind):
        raise InputError(f"{key!r} must be a {kind.__name__}, got {value!r}")
    if count is not None and len(value) != count:
        raise InputError(f"{key!r} must have {count} values, got {len(value)}")
    return value


def _decode(parse, text, what):
    """parse(text) for a string `text`; any failure is malformed input."""
    if not isinstance(text, str):
        raise InputError(f"bad {what}: {text!r} is not a string")
    try:
        return parse(text)
    except (ValueError, ZeroDivisionError) as exc:  # FareyError, WordError are ValueErrors
        raise InputError(f"bad {what} {text!r}: {exc}") from exc


def _read_scalars(ctx, payload, key, count):
    return [_decode(ctx.parse, str(s), key) for s in _get(payload, key, list, count)]


def _read_int(item, what, lo=None, hi=None):
    """A JSON integer or an integer literal string, within lo..hi."""
    value = item if type(item) is int else _decode(int, item, what)
    if (lo is not None and value < lo) or (hi is not None and value > hi):
        raise InputError(f"{what} must be in {lo}..{hi}, got {value}")
    return value


def _read_slopes(payload):
    """The optional slopes and the total length of their Farey walks, at
    most SLOPE_MAX_WALK steps; a repeated slope counts each time."""
    slopes, walk = [], 0
    for text in _get(payload, "slopes", list) if "slopes" in payload else ():
        slope = _decode(Slope.parse, text, "slope")
        p, q = abs(slope.p), slope.q
        while q:  # Euclid; a walk's length is the sum of the partial quotients
            walk += p // q
            p, q = q, p % q
            if walk > SLOPE_MAX_WALK:
                raise InputError(f"the slopes' walks total over {SLOPE_MAX_WALK} steps "
                                 f"(at slope {text!r})")
        slopes.append(slope)
    return slopes, walk


def _read_seeds(ctx, payload, key, count, walk):
    """Seed scalars for walks of `walk` steps in total, within
    WALK_SEED_BITS_MAX over q."""
    seeds = _read_scalars(ctx, payload, key, count)
    if characteristic(ctx) == 0:
        bits = max(n.bit_length() for v in seeds for x in v.coords
                   for n in (x.numerator, x.denominator))
        if walk * bits > WALK_SEED_BITS_MAX:
            raise InputError(f"total walk {walk} x seed size {bits} bits is over "
                             f"{WALK_SEED_BITS_MAX}")
    return seeds


def _read_word(payload):
    word = _decode(Word.parse, _get(payload, "word"), "word")
    if len(word) > WORD_MAX_LETTERS or word.rank() > WORD_MAX_GENERATOR:
        raise InputError(f"words are capped at {WORD_MAX_LETTERS} letters, x{WORD_MAX_GENERATOR}")
    return word


def _read_trace_data(ctx, payload):
    """Atlas data: 5 boundary scalars and exactly the 10 interior keys."""
    vals = dict(zip(FIFTEEN_KEYS, _read_scalars(ctx, payload, "boundary", 5)))
    interior = _get(payload, "interior", dict)
    if set(interior) != set(FIFTEEN_KEYS[5:]):
        raise InputError(f"'interior' must map exactly the keys {list(FIFTEEN_KEYS[5:])}")
    vals.update((key, _decode(ctx.parse, str(s), key)) for key, s in interior.items())
    return TraceData05(vals)


def _read_partition_tf(payload):
    """A certify table: one value per boundary subset class, none twice."""
    n = _read_int(_get(payload, "n"), "n", *EXCEPTIONAL_N)
    boundary = [_read_int(v, "boundary value") for v in _get(payload, "boundary", list, n)]
    universe = frozenset(range(1, n + 1))
    table = {}
    for entry in _get(payload, "table", list):
        if not (isinstance(entry, list) and len(entry) == 2 and isinstance(entry[0], list)):
            raise InputError(f"table entries must be [subset, value] pairs, got {entry!r}")
        subset = frozenset(_read_int(k, "subset member", 1, n) for k in entry[0])
        value = _read_int(entry[1], "table value")
        for key in (subset, universe - subset):  # a subset and its complement are one class
            if table.get(key, value) != value:
                raise InputError(f"the table gives subset {sorted(subset)} two values")
        table[subset] = value
    for size in range(2, n - 1):
        for s in itertools.combinations(range(1, n + 1), size):
            if frozenset(s) not in table and universe - frozenset(s) not in table:
                raise InputError(f"the table has no value for subset {list(s)}")
    return PartitionTF.build(n, boundary, table)


def _report(spec, result, ctx=None):
    out = {
        "schema": SCHEMA,
        "command": spec.command,
        "field": spec.field,
        "seed": spec.seed,
        "input": spec.payload,
        "result": result,
    }
    if ctx is not None:
        out["tower"] = ctx.to_json()["tower"]
    return out


# ---------------------------------------------------------------------------
# subcommands


def _run_realize(spec):
    ctx = _ctx(spec)
    mats = realize_triple(*_read_scalars(ctx, spec.payload, "traces", 6), ctx)
    return 0, _report(spec, {"matrices": [m.to_json() for m in mats]}, ctx)


def _run_tracepoly(spec):
    word = _read_word(spec.payload)
    rank = _read_int(spec.payload.get("rank", 0), "rank") or None
    poly = reduce_trace_word(word, rank)
    return 0, _report(spec, {"word": str(word), "polynomial": poly.to_json()})


def _run_variety(spec):
    ctx = _ctx(spec)
    res = variety_residual(_read_scalars(ctx, spec.payload, "point", 7))
    return 0, _report(spec, {"residual": res.to_json(), "on_variety": res.is_zero()}, ctx)


def _run_propagate(spec):
    ctx = _ctx(spec)
    surface = _get(spec.payload, "surface")
    slopes, walk = _read_slopes(spec.payload)
    if surface == "sigma11":
        tf = tf11_extend(*_read_seeds(ctx, spec.payload, "triangle", 3, walk))
        values = [[str(s), tf.query(s).to_json()] for s in slopes]
        return 0, _report(spec, {"boundary_value": tf.boundary.to_json(), "values": values}, ctx)
    if surface == "sigma04":
        boundary = _read_seeds(ctx, spec.payload, "boundary", 4, walk)
        tf = TF04(boundary, _read_seeds(ctx, spec.payload, "triangle", 3, walk))
        res = tf.residual()
        if not res.is_zero():
            return 1, _report(spec, {"rejected": "seed residual", "residual": res.to_json()}, ctx)
        values = [[str(s), tf.query(s).to_json()] for s in slopes]
        return 0, _report(spec, {"values": values}, ctx)
    raise InputError("surface must be sigma11 or sigma04")


def _run_atlas(spec, decide):
    """check05 or glue05: exit 1 with the witness of a rejection, else 0."""
    ctx = _ctx(spec)
    verdict = decide(_read_trace_data(ctx, spec.payload))
    result = {"verdict": verdict.kind}
    if verdict.rep is not None:
        result["rep"] = [m.to_json() for m in verdict.rep.generators]
    if verdict.kind == "exceptional-obstruction":
        result["detail"] = verdict.witness
    elif verdict.witness is not None:
        result["witness"] = _witness_json(verdict.witness)
        return 1, _report(spec, result, ctx)
    return 0, _report(spec, result, ctx)


def _witness_json(w):
    if w is None:
        return None
    if isinstance(w, tuple):
        return [_witness_json(x) for x in w]
    if hasattr(w, "to_json"):
        return w.to_json()
    return str(w)


def _run_exceptional(spec):
    base = _read_base(spec)
    n = _read_int(spec.n, "n", *EXCEPTIONAL_N)
    # tuples dump as JSON arrays, so the (key, value) pairs go out as they are
    items = [{"boundary": tf.boundary, "table": tf.table}
             for tf in sorted(exceptional_enumerate(n, char=base.characteristic),
                              key=lambda t: (t.boundary, t.table))]
    return 0, _report(spec, {"n": n, "count": len(items), "functions": items})


def _run_certify(spec):
    tf = _read_partition_tf(spec.payload)
    cert = certify_exceptional(tf, _ctx(spec))  # raises PlanarError in characteristic 2
    return 0 if cert["exceptional"] else 1, _report(spec, {"certificate": cert})


def _random_sl2(rng, ctx, bound=4):
    while True:
        a = ctx.from_int(rng.randint(-bound, bound))
        b = ctx.from_int(rng.randint(-bound, bound))
        c = ctx.from_int(rng.randint(-bound, bound))
        if not a.is_zero():
            return Mat2(a, b, c, (ctx.one + b * c) / a)


def _identity_suite(ctx, rng, samples):
    two = ctx.from_int(2)
    counts = {"a": 0, "b": 0, "c": 0, "d": 0}
    for _ in range(samples):
        a1, a2, a3 = (_random_sl2(rng, ctx) for _ in range(3))
        t = lambda m: m.trace()
        if t(a1 * a2) + t(a1.inverse() * a2) == t(a1) * t(a2):
            counts["a"] += 1
        lhs = t(a1) ** 2 + t(a2) ** 2 + t(a1 * a2) ** 2 - t(a1) * t(a2) * t(a1 * a2)
        if lhs == a1.commutator(a2).trace() + two:
            counts["b"] += 1
        p = t(a1) * t(a2 * a3) + t(a2) * t(a3 * a1) + t(a3) * t(a1 * a2) \
            - t(a1) * t(a2) * t(a3)
        q = (
            t(a1) ** 2 + t(a2) ** 2 + t(a3) ** 2
            + t(a1 * a2) ** 2 + t(a2 * a3) ** 2 + t(a3 * a1) ** 2
            - t(a1) * t(a2) * t(a1 * a2)
            - t(a2) * t(a3) * t(a2 * a3)
            - t(a3) * t(a1) * t(a3 * a1)
            + t(a1 * a2) * t(a2 * a3) * t(a3 * a1)
            - ctx.from_int(4)
        )
        r1 = t(a1 * a2 * a3)
        r2 = t(a1.inverse() * a2.inverse() * a3.inverse())
        if r1 + r2 == p and r1 * r2 == q:
            counts["c"] += 1
        lhs = t(a1 * a3) + t(a1 * a2 * a3 * a2.inverse())
        rhs = -t(a1 * a2) * t(a2 * a3) + t(a1) * t(a3) + t(a2) * t(a1 * a2 * a3)
        if lhs == rhs:
            counts["d"] += 1
    return counts


def _run_identities(spec):
    samples = _read_int(spec.samples, "samples", 1, SAMPLES_MAX)
    rng = random.Random(spec.seed)
    results = {}
    for field in ("q", "fp:5"):
        ctx = TowerContext(base_from_spec(field))
        counts = _identity_suite(ctx, rng, samples)
        results[field] = {"samples": samples, "counts": counts,
                          "all_pass": all(v == samples for v in counts.values())}
    code = 0 if all(r["all_pass"] for r in results.values()) else 1
    return code, _report(spec, results)


_COMMANDS = {
    "realize": _run_realize,
    "tracepoly": _run_tracepoly,
    "variety": _run_variety,
    "propagate": _run_propagate,
    # the deciders are looked up when a job runs, so a wrapper bound over
    # these module names (perfbench/spans.py) sees every call
    "check05": lambda spec: _run_atlas(spec, check_trace_function_05),
    "glue05": lambda spec: _run_atlas(spec, glue_sigma05),
    "exceptional": _run_exceptional,
    "certify": _run_certify,
    "identities": _run_identities,
}


def _error_report(command, exc):
    return {"schema": SCHEMA, "command": command, "error": str(exc)}


def run(spec):
    """Execute a job; returns (exit_code, report_dict)."""
    try:
        if spec.command not in _COMMANDS:
            raise InputError(f"unknown command {spec.command!r}")
        return _COMMANDS[spec.command](spec)
    except (InputError, WordError) as exc:  # malformed input
        return 2, _error_report(spec.command, exc)
    except (FieldError, SL2Error, SurfaceError, PlanarError, FareyError) as exc:
        return 1, _error_report(spec.command, exc)  # mathematical rejection


def _dump(report):
    return json.dumps(report, sort_keys=True, separators=(",", ":")) + "\n"


class _ArgumentParser(argparse.ArgumentParser):
    """Reports a bad argv as an InputError instead of usage text and exit."""

    def error(self, message):
        raise InputError(message)


@functools.cache
def _parser():
    parser = _ArgumentParser(prog="sl2trace", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--field", default="q", help="q or fp:<prime below 2^31>")
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--jobs", type=int, default=1,
                       help="accepted for interface compatibility; execution is serial")
        p.add_argument("--input", help="path to a JSON payload")
        p.add_argument("--json", help="inline JSON payload")
        p.add_argument("--output", help="write the report here instead of stdout")
        if name == "exceptional":
            p.add_argument("--n", type=int, default=5, help="boundary components, 5..8")
        if name == "identities":
            p.add_argument("--samples", type=int, default=100, help=f"1..{SAMPLES_MAX}")
    return parser


def _read_job(args):
    try:
        if args.input:
            with open(args.input, "r", encoding="utf-8") as fh:
                payload = json.load(fh)
        else:
            payload = json.loads(args.json) if args.json else None
    except (OSError, ValueError, RecursionError) as exc:
        raise InputError(f"bad input: {exc}") from exc
    # --n and --samples exist only on their subcommands (JobSpec has defaults); --jobs is unused
    flags = {k: v for k, v in vars(args).items() if k in JobSpec.__dataclass_fields__}
    return JobSpec(payload=payload, **flags)


def main(argv=None):
    """Run the job argv names; prints one JSON report (or writes it to
    --output) and returns the exit code.  Only -h exits instead."""
    args = None
    try:
        args = _parser().parse_args(argv)
        code, report = run(_read_job(args))
    except InputError as exc:
        code, report = 2, _error_report(getattr(args, "command", None), exc)
    text = _dump(report)
    if args is not None and args.output:
        try:
            with open(args.output, "w", encoding="utf-8") as fh:
                fh.write(text)
            return code
        except OSError as exc:
            code, text = 2, _dump(_error_report(args.command, f"bad output: {exc}"))
    sys.stdout.write(text)
    return code


if __name__ == "__main__":
    sys.exit(main())
