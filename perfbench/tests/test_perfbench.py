"""Self-tests of the benchmark: deterministic inputs, oracles that reject
wrong reports, and a tracer that sees every layer and restores it."""

import json
import os
import random
import signal
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
sys.path.insert(0, BENCH)

import oracles  # noqa: E402
import refspeed  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402

import sl2trace  # noqa: E402  (worker put the checkout's src on sys.path)


def _job_bytes(jobs):
    return json.dumps([[j.argv, j.kind, j.expect] for j in jobs], sort_keys=True).encode()


def test_same_seed_gives_identical_job_lists():
    for workload in workloads.ROUNDS:
        a = _job_bytes(workloads.make_round(workload, 11, 2))
        b = _job_bytes(workloads.make_round(workload, 11, 2))
        assert a == b, workload
    for workload in ("atlas-check", "farey-propagate", "word-reduce"):
        assert _job_bytes(workloads.make_round(workload, 11, 2)) != \
            _job_bytes(workloads.make_round(workload, 12, 2))


def _first(workload, kind, command=None, field=None, seed=0):
    for job in workloads.make_round(workload, seed, 0):
        if job.kind == kind and command in (None, job.argv[0]) and \
                (field is None or job.argv[job.argv.index("--field") + 1] == field):
            return job
    raise AssertionError(f"no {kind} job")


def _corrupt_first_coordinate(obj):
    """Change one coordinate of the first tower element found."""
    if isinstance(obj, dict):
        if "coords" in obj:
            obj["coords"][0] = obj["coords"][0] + "1"
            return True
        return any(_corrupt_first_coordinate(v) for v in obj.values())
    if isinstance(obj, list):
        return any(_corrupt_first_coordinate(v) for v in obj)
    return False


def test_corrupted_report_counts_as_failed():
    for job in (_first("atlas-check", "atlas_rep", "check05", "q"),
                _first("atlas-check", "realize"),
                _first("farey-propagate", "propagate")):
        jobs, outcomes, _, _ = worker.run_round([job])
        assert worker.check_round(jobs, outcomes) == []
        code, text, latency, error = outcomes[0]
        report = json.loads(text)
        assert _corrupt_first_coordinate(report["result"])
        bad = (code, json.dumps(report), latency, error)
        assert len(worker.check_round(jobs, [bad])) == 1, job.argv[0]


def test_tracepoly_oracle_rejects_a_changed_coefficient():
    job = _first("word-reduce", "tracepoly")
    jobs, outcomes, _, _ = worker.run_round([job])
    assert worker.check_round(jobs, outcomes) == []
    code, text, latency, error = outcomes[0]
    report = json.loads(text)
    term = report["result"]["polynomial"][0]
    term["coeff"] = str(int(term["coeff"]) + 1)
    assert len(worker.check_round(jobs, [(code, json.dumps(report), latency, error)])) == 1


def test_farey_oracle_matches_a_hand_computed_walk():
    # 1-holed torus seeded with (3, 3, 3): 1/2 = 3*3 - 3 (edge 0/1, 1/1, old 1/0)
    got = dict(oracles.farey_values("sigma11", [3, 3, 3], [], ["1/2", "-1/1", "2/1"]))
    assert got == {(1, 2): 6, (-1, 1): 6, (2, 1): 6}
    got = dict(oracles.farey_values("sigma11", [3, 4, 5], [], ["1/2", "1/3"]))
    assert got[(1, 2)] == 3 * 5 - 4 and got[(1, 3)] == 3 * got[(1, 2)] - 5


# layer -> (workload where the layer is heavy, what the traced jobs are)
HEAVY = {
    "cli": "word-reduce",
    "fricke": "word-reduce",
    "qfield": "atlas-check",
    "sl2": "atlas-check",
    "farey": "farey-propagate",
    "surfchar": "farey-propagate",
    "planar": "exceptional-search",
}


def _small_round(workload):
    if workload == "exceptional-search":
        # the n = 5 search (16 functions) stands in for n = 6 (about 30 s)
        return workloads._exceptional_round(random.Random(0), 0, 0, n=5)
    jobs = workloads.make_round(workload, 0, 0)
    q_jobs = [j for j in jobs if "--field" not in j.argv or "q" in j.argv]
    return q_jobs[:6]


def _wrapped(obj):
    return hasattr(obj, "span_name")


def test_traced_round_records_spans_for_each_heavy_layer():
    for workload in sorted(set(HEAVY.values())):
        tracer = spans.Tracer()
        jobs, outcomes, _, _ = worker.run_round(_small_round(workload), tracer)
        assert worker.check_round(jobs, outcomes) == [], workload
        seen = {sp[2].split(".")[0] for sp in tracer.spans if sp is not None}
        for layer, heavy in HEAVY.items():
            if heavy == workload:
                assert layer in seen, (layer, workload, seen)
        assert all(sp[3] is not None and sp[4] <= sp[5] for sp in tracer.spans)


def test_tracer_patches_every_binding_and_restores_them():
    from sl2trace import cli, planar, qfield, sl2, surfchar

    originals = {
        "mul": qfield.TowerElement.__dict__["__mul__"],
        "realize_triple": sl2.realize_triple,
        "tf04_realize": surfchar.tf04_realize,
    }
    tracer = spans.Tracer()
    with tracer:
        # import-time bindings and method aliases all see the wrapper
        assert _wrapped(qfield.TowerElement.__dict__["__mul__"])
        assert _wrapped(qfield.TowerElement.__dict__["__rmul__"])
        assert _wrapped(qfield.TowerElement.__dict__["__radd__"])
        for mod in (sl2, surfchar, cli, sl2trace):
            assert _wrapped(mod.realize_triple), mod.__name__
        assert _wrapped(planar.tf04_realize) and _wrapped(surfchar.tf04_realize)
        assert _wrapped(planar.solve_quadratic) and _wrapped(sl2.solve_quadratic)
        assert _wrapped(cli.main)
    assert qfield.TowerElement.__dict__["__mul__"] is originals["mul"]
    assert qfield.TowerElement.__dict__["__rmul__"] is originals["mul"]
    assert sl2.realize_triple is originals["realize_triple"]
    assert planar.tf04_realize is originals["tf04_realize"]
    modules = [m for name, m in sys.modules.items()
               if m is not None and (name == "sl2trace" or name.startswith("sl2trace."))]
    for mod in modules:
        for value in vars(mod).values():
            assert not _wrapped(value)
            if isinstance(value, type):
                assert not any(_wrapped(v) for v in vars(value).values())


def test_speed_probe_samples_inside_the_block_and_restores_the_handler():
    assert abs(refspeed.scale([refspeed.REF_S] * 3) - 1.0) < 1e-12
    assert abs(refspeed.scale([2 * refspeed.REF_S] * 3) - 0.5) < 1e-12
    before = signal.getsignal(signal.SIGALRM)
    jobs = _small_round("farey-propagate")[:2]
    with refspeed.Probe() as probe:
        t0 = time.perf_counter()
        while time.perf_counter() - t0 < 0.3:
            pass
        outcomes, wall = worker.run_phase(jobs, 0, probe=probe)
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert len(probe.samples) >= 5  # entry, exit and one every INTERVAL_S
    assert probe.busy == sum(probe.samples[1:-1])
    assert 0 < sum(o[2] for o in outcomes) <= wall


def test_benchmark_json_lists_exactly_the_reported_metrics():
    with open(os.path.join(os.path.dirname(BENCH), "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(workloads.ROUNDS)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == spans.METRICS
    rounds = [{"jobs": 2, "wall_s": 1.0, "speed_scale": 1.0, "latencies_ms": [1.0, 2.0],
               "rss_mb": 20.0}]
    reported = run.end_to_end(rounds, 0.1)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == \
        [(k, v["unit"]) for k, v in reported.items()]
