"""Tracing from outside the program: wrap the public functions of each
layer, record spans, and derive the per-layer metrics.

Modules bind names at import time (`from .sl2 import realize_triple` in
`surfchar` and `cli`, `from .surfchar import tf04_realize` in `planar`,
the package `__init__` re-exports), and classes alias methods
(`__rmul__ = __mul__`).  Patching one module attribute would miss those
call sites, so `Tracer.install` replaces every binding of the original
object: each attribute of every loaded `sl2trace` module, and each name
in a class dict, that is the original.  `Tracer.uninstall` puts every
original back.

Each wrapped call is a span (name, start, end, parent span, job id).
A span's self time is its duration minus the time its child spans cover;
the tracer computes it as calls return.  Spans are kept in memory and
written out when the round ends; the arithmetic spans (tower add, mul,
div and 2x2 matrix products, millions per round) are only aggregated,
not stored one by one.
"""

from __future__ import annotations

import json
import sys
import time

# (metric prefix, module, attribute, record each span)
TARGETS = [
    ("cli.main", "sl2trace.cli", "main", True),
    ("qfield.mul", "sl2trace.qfield", "TowerElement.__mul__", False),
    ("qfield.add", "sl2trace.qfield", "TowerElement.__add__", False),
    ("qfield.add", "sl2trace.qfield", "TowerElement.__sub__", False),
    ("qfield.add", "sl2trace.qfield", "TowerElement.__rsub__", False),
    ("qfield.add", "sl2trace.qfield", "TowerElement.__neg__", False),
    ("qfield.div", "sl2trace.qfield", "TowerElement.__truediv__", False),
    ("qfield.div", "sl2trace.qfield", "TowerElement.__rtruediv__", False),
    ("qfield.sqrt", "sl2trace.qfield", "TowerContext.sqrt_in_tower", True),
    ("qfield.solve_quadratic", "sl2trace.qfield", "solve_quadratic", True),
    ("qfield.adjoin", "sl2trace.qfield", "TowerContext.adjoin_sqrt", True),
    ("qfield.adjoin", "sl2trace.qfield", "TowerContext.adjoin_artin_schreier", True),
    ("sl2.realize", "sl2trace.sl2", "realize_triple", True),
    ("sl2.matmul", "sl2trace.sl2", "Mat2.__mul__", False),
    ("fricke.reduce", "sl2trace.fricke", "reduce_trace_word", True),
    ("fricke.evaluate", "sl2trace.fricke", "TracePolynomial.evaluate", True),
    ("farey.walk", "sl2trace.farey", "farey_walk", True),
    ("surfchar.query", "sl2trace.surfchar", "TF11.query", True),
    ("surfchar.query", "sl2trace.surfchar", "TF04.query", True),
    ("surfchar.realize", "sl2trace.surfchar", "tf04_realize", True),
    ("surfchar.realize", "sl2trace.surfchar", "tf11_realize", True),
    ("surfchar.residual", "sl2trace.surfchar", "TF04.residual", True),
    ("planar.check", "sl2trace.planar", "check_trace_function_05", True),
    ("planar.glue", "sl2trace.planar", "glue_sigma05", True),
    ("planar.enumerate", "sl2trace.planar", "exceptional_enumerate", True),
    ("planar.certify", "sl2trace.planar", "certify_exceptional", True),
]

# per-layer metrics: (name, unit, better); see README.md for what each moves
METRICS = [
    ("cli.main.calls", "count", "lower"),
    ("cli.main.self_ms_per_job", "ms", "lower"),
    ("qfield.mul.calls", "count", "lower"),
    ("qfield.mul.self_s", "s", "lower"),
    ("qfield.mul.level_mean", "level", "lower"),
    ("qfield.add.calls", "count", "lower"),
    ("qfield.add.self_s", "s", "lower"),
    ("qfield.div.calls", "count", "lower"),
    ("qfield.div.self_s", "s", "lower"),
    ("qfield.sqrt.calls", "count", "lower"),
    ("qfield.sqrt.self_s", "s", "lower"),
    ("qfield.sqrt.cache_hit_ratio", "ratio", "higher"),
    ("qfield.solve_quadratic.calls", "count", "lower"),
    ("qfield.adjoin.calls", "count", "lower"),
    ("qfield.level_max", "level", "lower"),
    ("sl2.realize.calls", "count", "lower"),
    ("sl2.realize.self_s", "s", "lower"),
    ("sl2.matmul.calls", "count", "lower"),
    ("sl2.matmul.self_s", "s", "lower"),
    ("fricke.reduce.calls", "count", "lower"),
    ("fricke.reduce.self_s", "s", "lower"),
    ("fricke.memo_entries", "count", "lower"),
    ("fricke.poly_terms", "count", "lower"),
    ("fricke.evaluate.calls", "count", "lower"),
    ("fricke.evaluate.self_s", "s", "lower"),
    ("farey.walk.calls", "count", "lower"),
    ("farey.walk.self_s", "s", "lower"),
    ("farey.walk.steps", "count", "lower"),
    ("surfchar.query.calls", "count", "lower"),
    ("surfchar.query.self_s", "s", "lower"),
    ("surfchar.step_reuse_ratio", "ratio", "lower"),
    ("surfchar.realize.calls", "count", "lower"),
    ("surfchar.realize.self_s", "s", "lower"),
    ("surfchar.residual.calls", "count", "lower"),
    ("planar.check.calls", "count", "lower"),
    ("planar.check.self_s", "s", "lower"),
    ("planar.glue.calls", "count", "lower"),
    ("planar.glue.self_s", "s", "lower"),
    ("planar.enumerate.self_s", "s", "lower"),
    ("planar.enumerate.results", "count", "higher"),
    ("planar.certify.calls", "count", "lower"),
    ("planar.certify.self_s", "s", "lower"),
    ("tracing.jobs_per_s_ratio", "ratio", "higher"),
]


def _resolve(module, attr):
    """(owner, original) for 'func' or 'Class.method'."""
    mod = sys.modules[module]
    if "." in attr:
        cls_name, meth = attr.split(".")
        cls = getattr(mod, cls_name)
        return cls, cls.__dict__[meth]
    return mod, getattr(mod, attr)


def _bindings(owner, original):
    """Every (namespace owner, name) bound to `original`."""
    if isinstance(owner, type):
        return [(owner, k) for k, v in list(owner.__dict__.items()) if v is original]
    out = []
    for name, mod in list(sys.modules.items()):
        if mod is None or not (name == "sl2trace" or name.startswith("sl2trace.")):
            continue
        out += [(mod, k) for k, v in list(vars(mod).items()) if v is original]
    return out


class Tracer:
    def __init__(self):
        self.stack = []  # open frames: [child seconds, span id for children, name, args]
        self.calls = {}
        self.self_s = {}
        self.spans = []  # (id, parent id, name, job, start, end)
        self.job = None
        self.counts = {"mul_levels": 0, "sqrt_hits": 0, "poly_terms": 0, "walk_steps": 0,
                       "query_steps": 0, "query_reused": 0, "enumerate_results": 0,
                       "level_max": 0}
        self._patches = []

    # -- hooks that count work at the boundaries ---------------------------

    def _pre_mul(self, args):
        a, b = args
        level = a.level
        other = getattr(b, "level", 0)
        self.counts["mul_levels"] += level if level >= other else other

    def _pre_sqrt(self, args):
        ctx, elt = args
        t = elt._trim()
        if (t.level, t.coords) in getattr(ctx, "_sqrt_cache", ()):
            self.counts["sqrt_hits"] += 1

    def _post_adjoin(self, args, result):
        self.counts["level_max"] = max(self.counts["level_max"], len(args[0].levels))

    def _post_reduce(self, args, result):
        self.counts["poly_terms"] += len(result.terms)

    def _post_walk(self, args, result):
        self.counts["walk_steps"] += len(result)
        caller = self.stack[-1] if self.stack else None
        if caller is not None and caller[2] == "surfchar.query":
            # the query fills the memo only after the walk returns
            values = caller[3][0].values
            self.counts["query_steps"] += len(result)
            self.counts["query_reused"] += sum(step.new in values for step in result)

    def _post_enumerate(self, args, result):
        self.counts["enumerate_results"] += len(result)

    _HOOKS = {
        "qfield.mul": (_pre_mul, None),
        "qfield.sqrt": (_pre_sqrt, None),
        "qfield.adjoin": (None, _post_adjoin),
        "fricke.reduce": (None, _post_reduce),
        "farey.walk": (None, _post_walk),
        "planar.enumerate": (None, _post_enumerate),
    }

    # -- wrapping ----------------------------------------------------------

    def _wrap(self, name, fn, record):
        stack, calls, self_s, spans = self.stack, self.calls, self.self_s, self.spans
        calls.setdefault(name, 0)
        self_s.setdefault(name, 0.0)
        pre, post = self._HOOKS.get(name, (None, None))
        clock = time.perf_counter
        tracer = self

        def wrapper(*args, **kwargs):
            if pre is not None:
                pre(tracer, args)
            parent = stack[-1] if stack else None
            parent_id = parent[1] if parent is not None else None
            span_id = len(spans) if record else parent_id
            frame = [0.0, span_id, name, args]
            if record:
                spans.append(None)  # reserve the id; filled on return
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                calls[name] += 1
                self_s[name] += duration - frame[0]
                if parent is not None:
                    parent[0] += duration
                if record:
                    spans[span_id] = (span_id, parent_id, name, tracer.job, start, end)
            if post is not None:
                post(tracer, args, result)
            return result

        wrapper.span_name = name
        return wrapper

    def install(self):
        """Patch every binding of every target; idempotent per Tracer."""
        if self._patches:
            return
        for name, module, attr, record in TARGETS:
            owner, original = _resolve(module, attr)
            wrapper = self._wrap(name, original, record)
            for ns, key in _bindings(owner, original):
                self._patches.append((ns, key, original))
                setattr(ns, key, wrapper)

    def uninstall(self):
        for ns, key, original in reversed(self._patches):
            setattr(ns, key, original)
        self._patches = []

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()

    # -- results -----------------------------------------------------------

    def layer_totals(self, jobs, memo_entries):
        """Per-layer numbers for one round (sums; ratios combine later)."""
        return {"jobs": jobs, "calls": dict(self.calls), "self_s": dict(self.self_s),
                "counts": dict(self.counts), "memo_entries": memo_entries}

    def write_spans(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for sp in self.spans:
                if sp is None:
                    continue
                sid, parent, name, job, start, end = sp
                fh.write(json.dumps({"id": sid, "parent": parent, "name": name, "job": job,
                                     "start": start, "end": end}) + "\n")


def combine(rounds, untraced_jobs_per_s, traced_jobs_per_s):
    """Per-layer metrics: means per traced round, ratios over all rounds."""
    n = len(rounds)
    calls, self_s, counts = {}, {}, {}
    jobs = memo = 0
    for r in rounds:
        jobs += r["jobs"]
        memo += r["memo_entries"]
        for d, src in ((calls, r["calls"]), (self_s, r["self_s"]), (counts, r["counts"])):
            for key, v in src.items():
                d[key] = max(d.get(key, 0), v) if key == "level_max" else d.get(key, 0) + v

    def ratio(a, b):
        return a / b if b else 0.0

    out = {}
    for metric, _, _ in METRICS:
        prefix, _, stat = metric.rpartition(".")
        if stat == "calls":
            out[metric] = calls.get(prefix, 0) / n
        elif stat == "self_s":
            out[metric] = self_s.get(prefix, 0.0) / n
    out["cli.main.self_ms_per_job"] = 1000 * ratio(self_s.get("cli.main", 0.0), jobs)
    out["qfield.mul.level_mean"] = ratio(counts.get("mul_levels", 0), calls.get("qfield.mul", 0))
    out["qfield.sqrt.cache_hit_ratio"] = ratio(counts.get("sqrt_hits", 0),
                                               calls.get("qfield.sqrt", 0))
    out["qfield.level_max"] = counts.get("level_max", 0)
    out["fricke.memo_entries"] = memo / n
    out["fricke.poly_terms"] = counts.get("poly_terms", 0) / n
    out["farey.walk.steps"] = counts.get("walk_steps", 0) / n
    out["surfchar.step_reuse_ratio"] = ratio(counts.get("query_reused", 0),
                                             counts.get("query_steps", 0))
    out["planar.enumerate.results"] = counts.get("enumerate_results", 0) / n
    out["tracing.jobs_per_s_ratio"] = ratio(traced_jobs_per_s, untraced_jobs_per_s)
    return {m: {"value": out[m], "unit": unit} for m, unit, _ in METRICS}
