"""JSON command-line front end.

Every subcommand reads exact base-field scalars, runs the library over a
fresh tower context, and emits one deterministic JSON report that echoes
the input and the tower extensions used.  Exit codes: 0 success, 1
mathematical rejection (witness in the report), 2 malformed input.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
from dataclasses import dataclass

from .qfield import FieldError, TowerContext, base_from_spec
from .sl2 import Mat2, SL2Error, realize_triple
from .farey import FareyError, Slope
from .fricke import Word, WordError, reduce_trace_word, variety_residual
from .surfchar import SurfaceError, TF04, tf11_extend
from .planar import (
    PlanarError,
    TraceData05,
    check_trace_function_05,
    certify_exceptional,
    exceptional_enumerate,
    glue_sigma05,
)


SCHEMA = "1"


class InputError(ValueError):
    pass


@dataclass
class JobSpec:
    command: str
    field: str = "q"
    seed: int = 0
    jobs: int = 1
    payload: dict | None = None
    n: int = 5
    samples: int = 100


def _ctx(spec):
    return TowerContext(base_from_spec(spec.field))


def _parse_scalars(ctx, items, count=None):
    if count is not None and len(items) != count:
        raise InputError(f"expected {count} values, got {len(items)}")
    try:
        return [ctx.parse(str(s)) for s in items]
    except (ValueError, ZeroDivisionError) as exc:
        raise InputError(f"bad scalar: {exc}") from exc


def _parse_int(item):
    """A JSON integer or an integer literal string."""
    if isinstance(item, (int, str)) and not isinstance(item, bool):
        try:
            return int(item)
        except ValueError:
            pass
    raise InputError(f"expected an integer, got {item!r}")


def _mat_json(m):
    return [e.to_json() for e in m.entries()]


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
    traces = _parse_scalars(ctx, spec.payload["traces"], 6)
    mats = realize_triple(*traces, ctx)
    return 0, _report(spec, {"matrices": [_mat_json(m) for m in mats]}, ctx)


def _run_tracepoly(spec):
    rank = int(spec.payload.get("rank", 0)) or None
    word = Word.parse(spec.payload["word"])
    poly = reduce_trace_word(word, rank)
    return 0, _report(spec, {"word": str(word), "polynomial": poly.to_json()})


def _run_variety(spec):
    ctx = _ctx(spec)
    point = _parse_scalars(ctx, spec.payload["point"], 7)
    res = variety_residual(point)
    return 0, _report(spec, {"residual": res.to_json(), "on_variety": res.is_zero()}, ctx)


def _run_propagate(spec):
    ctx = _ctx(spec)
    surface = spec.payload.get("surface")
    slopes = [Slope.parse(s) for s in spec.payload.get("slopes", [])]
    if surface == "sigma11":
        triangle = _parse_scalars(ctx, spec.payload["triangle"], 3)
        tf = tf11_extend(*triangle)
        values = [[str(s), tf.query(s).to_json()] for s in slopes]
        return 0, _report(
            spec, {"boundary_value": tf.boundary.to_json(), "values": values}, ctx
        )
    if surface == "sigma04":
        boundary = _parse_scalars(ctx, spec.payload["boundary"], 4)
        triangle = _parse_scalars(ctx, spec.payload["triangle"], 3)
        tf = TF04(boundary, triangle)
        res = tf.residual()
        if not res.is_zero():
            return 1, _report(spec, {"rejected": "seed residual", "residual": res.to_json()}, ctx)
        values = [[str(s), tf.query(s).to_json()] for s in slopes]
        return 0, _report(spec, {"values": values}, ctx)
    raise InputError("surface must be sigma11 or sigma04")


def _trace_data_from_payload(ctx, payload):
    boundary = _parse_scalars(ctx, payload["boundary"], 5)
    interior = payload["interior"]
    vals = {str(i + 1): boundary[i] for i in range(4)}
    vals["1234"] = boundary[4]
    for key, s in interior.items():
        vals[key] = ctx.parse(str(s))
    return TraceData05(vals)


def _run_check05(spec):
    ctx = _ctx(spec)
    data = _trace_data_from_payload(ctx, spec.payload)
    verdict = check_trace_function_05(data)
    result = {"verdict": verdict.kind}
    if verdict.kind == "character":
        result["rep"] = [_mat_json(m) for m in verdict.rep.generators]
        return 0, _report(spec, result, ctx)
    if verdict.kind == "exceptional":
        return 0, _report(spec, result, ctx)
    result["witness"] = _witness_json(verdict.witness)
    return 1, _report(spec, result, ctx)


def _run_glue05(spec):
    ctx = _ctx(spec)
    data = _trace_data_from_payload(ctx, spec.payload)
    verdict = glue_sigma05(data)
    result = {"verdict": verdict.kind}
    if verdict.kind == "rep":
        result["rep"] = [_mat_json(m) for m in verdict.rep.generators]
        return 0, _report(spec, result, ctx)
    if verdict.kind == "exceptional-obstruction":
        result["detail"] = str(verdict.detail)
        return 0, _report(spec, result, ctx)
    result["witness"] = _witness_json(verdict.detail)
    return 1, _report(spec, result, ctx)


def _witness_json(w):
    if w is None:
        return None
    if isinstance(w, tuple):
        return [_witness_json(x) for x in w]
    if hasattr(w, "to_json"):
        return w.to_json()
    return str(w)


def _run_exceptional(spec):
    base = base_from_spec(spec.field)
    if spec.n > 8:
        raise InputError("exceptional enumeration is capped at n = 8")
    fams = exceptional_enumerate(spec.n, char=base.characteristic)
    items = []
    for tf in sorted(fams, key=lambda t: (t.boundary, t.table)):
        items.append({
            "boundary": list(tf.boundary),
            "table": [[list(k), v] for k, v in tf.table],
        })
    return 0, _report(spec, {"n": spec.n, "count": len(items), "functions": items})


def _run_certify(spec):
    base = base_from_spec(spec.field)
    if base.characteristic == 2:
        raise PlanarError("no exceptional trace functions in characteristic 2")
    from .planar import PartitionTF

    payload = spec.payload
    n = _parse_int(payload["n"])
    if n > 8:
        raise InputError("exceptional certificates are capped at n = 8")
    boundary = payload["boundary"]
    if not isinstance(boundary, list) or len(boundary) != n:
        raise InputError(f"boundary must be a list of n = {n} values")
    boundary = [_parse_int(v) for v in boundary]
    table = {}
    for entry in payload["table"]:
        if not (isinstance(entry, list) and len(entry) == 2 and isinstance(entry[0], list)):
            raise InputError(f"table entries must be [subset, value] pairs, got {entry!r}")
        subset = frozenset(_parse_int(k) for k in entry[0])
        if not all(1 <= k <= n for k in subset):
            raise InputError(f"table subset {entry[0]!r} is not inside 1..{n}")
        table[subset] = _parse_int(entry[1])
    tf = PartitionTF.build(n, boundary, table)
    cert = certify_exceptional(tf, _ctx(spec))
    code = 0 if cert["exceptional"] else 1
    return code, _report(spec, {"certificate": _cert_json(cert)})


def _cert_json(cert):
    out = {}
    for k, v in cert.items():
        if isinstance(v, dict):
            out[k] = _cert_json(v)
        else:
            out[k] = v
    return out


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
    rng = random.Random(spec.seed)
    results = {}
    for field in ("q", "fp:5"):
        ctx = TowerContext(base_from_spec(field))
        counts = _identity_suite(ctx, rng, spec.samples)
        results[field] = {
            "samples": spec.samples,
            "counts": counts,
            "all_pass": all(v == spec.samples for v in counts.values()),
        }
    code = 0 if all(r["all_pass"] for r in results.values()) else 1
    return code, _report(spec, results)


_COMMANDS = {
    "realize": _run_realize,
    "tracepoly": _run_tracepoly,
    "variety": _run_variety,
    "propagate": _run_propagate,
    "check05": _run_check05,
    "glue05": _run_glue05,
    "exceptional": _run_exceptional,
    "certify": _run_certify,
    "identities": _run_identities,
}


def run(spec):
    """Execute a job; returns (exit_code, report_dict)."""
    try:
        return _COMMANDS[spec.command](spec)
    except (InputError, WordError, KeyError, TypeError) as exc:
        return 2, {"schema": SCHEMA, "command": spec.command, "error": str(exc)}
    except (FieldError, SL2Error, SurfaceError, PlanarError, FareyError) as exc:
        return 1, {"schema": SCHEMA, "command": spec.command, "error": str(exc)}


def _dump(report):
    return json.dumps(report, sort_keys=True, separators=(",", ":")) + "\n"


def main(argv=None):
    parser = argparse.ArgumentParser(prog="sl2trace", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--field", default="q", help="q or fp:<prime>")
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--jobs", type=int, default=1,
                       help="accepted for interface compatibility; execution is serial")
        p.add_argument("--input", help="path to a JSON payload")
        p.add_argument("--json", help="inline JSON payload")
        p.add_argument("--output", help="write the report here instead of stdout")
        if name == "exceptional":
            p.add_argument("--n", type=int, default=5)
        if name == "identities":
            p.add_argument("--samples", type=int, default=100)
    args = parser.parse_args(argv)

    payload = None
    if getattr(args, "input", None):
        try:
            with open(args.input, "r", encoding="utf-8") as fh:
                payload = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            sys.stdout.write(_dump({"schema": SCHEMA, "error": f"bad input: {exc}"}))
            return 2
    elif getattr(args, "json", None):
        try:
            payload = json.loads(args.json)
        except json.JSONDecodeError as exc:
            sys.stdout.write(_dump({"schema": SCHEMA, "error": f"bad input: {exc}"}))
            return 2

    spec = JobSpec(
        command=args.command,
        field=args.field,
        seed=args.seed,
        jobs=args.jobs,
        payload=payload,
        n=getattr(args, "n", 5),
        samples=getattr(args, "samples", 100),
    )
    code, report = run(spec)
    text = _dump(report)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return code


if __name__ == "__main__":
    sys.exit(main())
