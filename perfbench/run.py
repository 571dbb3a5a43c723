"""sl2trace benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout.  Every timing is reported at a nominal
host speed, measured with a reference kernel on the same thread (see
refspeed.py).  Measures set-up time with fresh interpreters, then runs
rounds of the workload (each in a fresh worker process, see worker.py)
until `--seconds` have passed.  With `--trace 0`
it reports the end-to-end metrics; with `--trace 1` every round is run
twice on the same inputs, untraced and traced, and it reports the
per-layer metrics and the tracing overhead.  The last line of stdout is
one JSON object: {"correct", "attempted", "failed", "metrics"}.  A record
of the run (per-round SHA-256 of the report bytes, failures) goes to
perfbench/out/.  See README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import statistics
import subprocess
import sys
import time

import refspeed
import spans
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")

SETUP_PROBES = 15
SETUP_KERNEL_PASSES = 20  # reference-kernel samples before each set-up probe
# a run must end within 180 s; one exceptional-search pair takes about 70 s
RUN_LIMIT_S = 170

PROBE = (
    "import sys, time\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "import sl2trace.cli\n"
    "print(time.clock_gettime_ns(time.CLOCK_MONOTONIC))\n"
)


# per-round fields kept in the run record; times there are as measured
ROUND_KEYS = ("jobs", "wall_s", "speed_scale", "speed_samples", "rss_mb", "sha256")


class BenchError(RuntimeError):
    pass


def setup_seconds():
    """Median time from spawning a fresh interpreter until `sl2trace.cli`
    is imported, at the nominal host speed (see refspeed.py): each probe
    is scaled by the host's speed sampled just before it.  The first
    probe, which may write bytecode caches, is discarded."""
    samples = []
    for _ in range(SETUP_PROBES + 1):
        scale = refspeed.scale([refspeed.time_kernel() for _ in range(SETUP_KERNEL_PASSES)])
        t0 = time.clock_gettime_ns(time.CLOCK_MONOTONIC)
        proc = subprocess.run([sys.executable, "-c", PROBE, SRC], capture_output=True,
                              text=True, timeout=60)
        if proc.returncode != 0:
            raise BenchError(f"importing sl2trace.cli failed:\n{proc.stderr}")
        samples.append((int(proc.stdout) - t0) / 1e9 * scale)
    return statistics.median(samples[1:])


def run_worker(workload, seed, rnd, trace, deadline):
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), workload, str(seed), str(rnd),
           str(trace), OUT]
    timeout = max(1.0, deadline - time.monotonic())
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=timeout)
    except subprocess.TimeoutExpired as exc:  # run() has killed and reaped the worker
        raise BenchError(f"round {rnd} did not finish within the run limit") from exc
    if proc.returncode != 0:
        raise BenchError(f"worker for round {rnd} exited with {proc.returncode}")
    return json.loads(proc.stdout.splitlines()[-1])


def latency_stats(rounds):
    lat = sorted(x * r["speed_scale"] for r in rounds for x in r["latencies_ms"])
    rank = math.ceil(0.9 * len(lat))
    return statistics.median(lat), lat[rank - 1], len(lat), len(lat) - rank


def jobs_per_s(rounds):
    return sum(r["jobs"] for r in rounds) / sum(r["wall_s"] * r["speed_scale"] for r in rounds)


def end_to_end(rounds, setup_s):
    p50, p90, _, _ = latency_stats(rounds)
    return {
        "jobs_per_s": {"value": jobs_per_s(rounds), "unit": "jobs/s"},
        "job_p50_ms": {"value": p50, "unit": "ms"},
        "job_p90_ms": {"value": p90, "unit": "ms"},
        "setup_s": {"value": setup_s, "unit": "s"},
        "peak_rss_mb": {"value": statistics.median(r["rss_mb"] for r in rounds), "unit": "MB"},
    }


def run_digest(rounds):
    return hashlib.sha256("".join(r["sha256"] for r in rounds).encode()).hexdigest()


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.ROUNDS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "sl2trace", "cli.py")):
        print(f"no program to measure: {SRC}/sl2trace/cli.py is missing", file=sys.stderr)
        return 2
    os.makedirs(OUT, exist_ok=True)
    deadline = time.monotonic() + RUN_LIMIT_S

    try:
        setup_s = setup_seconds()
        untraced, traced = [], []
        start = time.monotonic()
        rnd = 0
        while rnd == 0 or time.monotonic() - start < args.seconds:
            untraced.append(run_worker(args.workload, args.seed, rnd, 0, deadline))
            if args.trace:
                traced.append(run_worker(args.workload, args.seed, rnd, 1, deadline))
            rnd += 1
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 1

    every = untraced + traced
    attempted = sum(r["checked"] for r in every)
    failed = sum(r["failed"] for r in every)
    if args.trace:
        metrics = spans.combine([r["layers"] for r in traced], jobs_per_s(untraced),
                                jobs_per_s(traced))
    else:
        metrics = end_to_end(untraced, setup_s)

    p50, p90, samples, beyond = latency_stats(untraced)
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "metrics": metrics, "attempted": attempted, "failed": failed,
        "failures": [f for r in every for f in r["failures"]][:20],
        "sha256": run_digest(untraced),
        "rounds": [{k: r[k] for k in ROUND_KEYS} for r in untraced],
        "traced_rounds": [{k: r[k] for k in ROUND_KEYS} for r in traced],
    }
    path = os.path.join(OUT, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)

    print(f"workload {args.workload} seed {args.seed}: {len(untraced)} rounds, "
          f"{samples} untraced jobs")
    print(f"job_p90_ms {p90:.3f} ms over {samples} jobs, {beyond} beyond it"
          + ("" if samples >= 100 else " (fewer than 100 jobs)"))
    print("host speed scale (nominal s per measured s) by round: "
          + ", ".join(f"{r['speed_scale']:.3f}" for r in untraced))
    print(f"failed_frac {failed / attempted:.6f} ratio ({failed} of {attempted})")
    for f in record["failures"]:
        print(f"failure: {f}")
    print(f"report sha256 {record['sha256']} (per round: "
          f"{', '.join(r['sha256'][:12] for r in untraced)})")
    if traced:
        same = [a["sha256"] == b["sha256"] for a, b in zip(untraced, traced)]
        print(f"traced reports identical to untraced: {all(same)}")
    for name, m in metrics.items():
        print(f"{name} {m['value']:.6g} {m['unit']}")
    print(f"record {os.path.relpath(path, ROOT)}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
