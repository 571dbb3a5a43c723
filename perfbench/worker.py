"""One benchmark round in a fresh interpreter.

    python3 perfbench/worker.py <workload> <seed> <round> <trace 0|1> <out dir>

Imports the program from the checkout's `src`, generates the round's jobs,
runs them one at a time through `sl2trace.cli.main(argv)` with stdout
captured (closed loop, one client) while `refspeed.Probe` samples the
host's speed, reads the peak RSS, and only then checks every report with
the oracles.  Prints one JSON line; its times are as measured, with the
probe's own time taken out, and `speed_scale` converts them to the
nominal speed.
"""

import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(1, os.path.join(ROOT, "src"))

import sl2trace.cli  # noqa: E402
import sl2trace.fricke  # noqa: E402

import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import time  # noqa: E402

import oracles  # noqa: E402
import refspeed  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402


def run_phase(jobs, first_id, tracer=None, probe=None):
    """Run jobs back to back; returns (outcomes, wall seconds).  Time the
    probe spent sampling the reference kernel is left out of both."""
    outcomes = []

    def clock():  # perf_counter less the probe's sampling so far
        return time.perf_counter() - (probe.busy if probe is not None else 0.0)

    start = clock()
    for i, job in enumerate(jobs):
        if tracer is not None:
            tracer.job = first_id + i
        buf = io.StringIO()
        error = None
        t0 = clock()
        try:
            with contextlib.redirect_stdout(buf):
                code = sl2trace.cli.main(job.argv)
        except SystemExit as exc:
            code, error = exc.code, f"SystemExit({exc.code})"
        except Exception as exc:  # a crashing job is a failed job, not a crashed round
            code, error = None, repr(exc)
        outcomes.append((code, buf.getvalue(), clock() - t0, error))
    return outcomes, clock() - start


def run_round(jobs, tracer=None, probe=None):
    """Run a round: the timed jobs, then the follow-up jobs built from
    their reports.  Returns (jobs, outcomes, timed wall seconds, number of
    timed jobs); follow-ups come last, are checked and traced like the
    rest, but are not timed.  A `refspeed.Probe`, if given, samples the
    host's speed during the timed jobs."""
    all_jobs, all_outcomes, wall, timed = [], [], 0.0, len(jobs)
    while jobs:
        if tracer is not None:
            tracer.install()
        timed_probe = probe if not all_jobs else None
        try:
            with timed_probe or contextlib.nullcontext():
                outcomes, phase_wall = run_phase(jobs, len(all_jobs), tracer, timed_probe)
        finally:
            if tracer is not None:
                tracer.uninstall()
        if not all_jobs:
            wall = phase_wall
        all_jobs += jobs
        all_outcomes += outcomes
        follow = []
        for job, (code, text, _, error) in zip(jobs, outcomes):
            if job.followup is not None and error is None and code == 0:
                try:
                    follow += job.followup(text)
                except (ValueError, KeyError, TypeError):
                    pass  # the job's own oracle reports the bad report
        jobs = follow
    return all_jobs, all_outcomes, wall, timed


def check_round(jobs, outcomes):
    """Oracle verdicts: list of (job index, command, reason) for failures."""
    failures = []
    for i, (job, (code, text, _, error)) in enumerate(zip(jobs, outcomes)):
        reason = error or oracles.check(job, code, text)
        if reason is not None:
            failures.append((i, job.argv[0], reason))
    return failures


def main(argv):
    workload, seed, rnd, trace, out_dir = argv
    seed, rnd, trace = int(seed), int(rnd), trace == "1"
    tracer = spans.Tracer() if trace else None
    probe = refspeed.Probe()
    jobs, outcomes, wall, timed = run_round(workloads.make_round(workload, seed, rnd), tracer,
                                            probe)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    failures = check_round(jobs, outcomes)
    digest = hashlib.sha256("".join(o[1] for o in outcomes).encode()).hexdigest()
    result = {
        "jobs": timed,
        "checked": len(jobs),
        "wall_s": wall,
        "speed_scale": probe.scale(),
        "speed_samples": len(probe.samples),
        "latencies_ms": [o[2] * 1000 for o in outcomes[:timed]],
        "rss_mb": rss_mb,
        "failed": len(failures),
        "failures": failures[:10],
        "sha256": digest,
    }
    if tracer is not None:
        memo = len(getattr(sl2trace.fricke, "_REDUCE_CACHE", ()))
        result["layers"] = tracer.layer_totals(len(jobs), memo)
        tracer.write_spans(os.path.join(out_dir, f"spans-{workload}-seed{seed}-round{rnd}.jsonl"))
    sys.stdout.write(json.dumps(result) + "\n")


if __name__ == "__main__":
    main(sys.argv[1:])
