import contextlib
import hashlib
import io
import json
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from sl2trace.cli import JobSpec, main, run

ROOT = Path(__file__).resolve().parent.parent
EXAMPLES = ROOT / "cli_examples"
GOLDEN = ROOT / "tests" / "golden"

CASES = [
    ("realize", "realize.json", "realize.out.json"),
    ("realize", "realize_generic.json", "realize_generic.out.json"),
    ("tracepoly", "tracepoly.json", "tracepoly.out.json"),
    ("variety", "variety.json", "variety.out.json"),
    ("propagate", "propagate_sigma11.json", "propagate_sigma11.out.json"),
    ("propagate", "propagate_sigma04.json", "propagate_sigma04.out.json"),
    ("check05", "check05_f0.json", "check05_f0.out.json"),
    ("glue05", "glue05_identity.json", "glue05_identity.out.json"),
]


def invoke(args):
    proc = subprocess.run(
        [sys.executable, "-m", "sl2trace.cli", *args],  # found in src/, installed or not
        capture_output=True, text=True, cwd=ROOT / "src",
    )
    return proc.returncode, proc.stdout


@pytest.mark.parametrize("command,infile,golden", CASES)
def test_golden_outputs_and_determinism(command, infile, golden):
    args = [command, "--input", str(EXAMPLES / infile)]
    code1, out1 = invoke(args)
    code2, out2 = invoke(args)
    assert code1 == code2 == 0
    assert out1 == out2  # byte-identical across runs
    assert out1 == (GOLDEN / golden).read_text()


def test_exceptional_subcommand_golden():
    args = ["exceptional", "--n", "5"]
    code1, out1 = invoke(args)
    code2, out2 = invoke(args)
    assert code1 == code2 == 0
    assert out1 == out2 == (GOLDEN / "exceptional_n5.out.json").read_text()
    report = json.loads(out1)
    assert report["result"]["count"] == 16


def test_exceptional_n6_golden():
    code, out = invoke(["exceptional", "--n", "6"])
    assert code == 0
    assert out == (GOLDEN / "exceptional_n6.out.json").read_text()
    assert json.loads(out)["result"]["count"] == 192


# SHA-256 of the `exceptional --n 7` report, taken from a search that walks
# the keys in size order (then lex) with no reordering of constraints
EXCEPTIONAL_N7_SHA256 = "adc047ff325f3d0dab4dd00fc7b336801eaa885afed8cbf23c9448fba5cccbe6"


def test_exceptional_n7_digest():
    code, out = main_in_process(["exceptional", "--n", "7"])
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == EXCEPTIONAL_N7_SHA256
    assert json.loads(out)["result"]["count"] == 1408 == 22 * 64


def test_identities_subcommand_golden():
    args = ["identities", "--samples", "25", "--seed", "7"]
    code1, out1 = invoke(args)
    code2, out2 = invoke(args)
    assert code1 == code2 == 0
    assert out1 == out2 == (GOLDEN / "identities.out.json").read_text()
    report = json.loads(out1)
    assert report["result"]["q"]["all_pass"]
    assert report["result"]["fp:5"]["all_pass"]


def test_malformed_json_exit_2():
    code, out = invoke(["variety", "--json", "{not json"])
    assert code == 2


def test_missing_field_exit_2():
    code, out = invoke(["variety", "--json", "{}"])
    assert code == 2
    assert "error" in json.loads(out)


def test_payload_not_an_object_exit_2():
    code, report = run(JobSpec(command="variety", payload=[1, 2]))
    assert code == 2
    assert "JSON object" in report["error"]


def test_mathematical_rejection_exit_1():
    payload = json.dumps({
        "surface": "sigma04",
        "boundary": ["2", "2", "2", "2"],
        "triangle": ["2", "2", "-2"],
        "slopes": ["1/1"],
    })
    code, out = invoke(["propagate", "--json", payload])
    assert code == 1
    report = json.loads(out)
    assert report["result"]["rejected"] == "seed residual"


def test_exceptional_char2_rejected():
    code, out = invoke(["exceptional", "--n", "5", "--field", "fp:2"])
    assert code == 1
    assert "characteristic 2" in json.loads(out)["error"]


def test_exceptional_cap():
    code, out = invoke(["exceptional", "--n", "9"])
    assert code == 2
    assert "5..8" in json.loads(out)["error"]


F0_TABLE = [[[i, j], -2] for i in range(1, 6) for j in range(i + 1, 6)]


def test_certify_f0():
    payload = {"n": 5, "boundary": [2] * 5, "table": F0_TABLE}
    code, report = run(JobSpec(command="certify", payload=payload))
    assert code == 0
    assert report["result"]["certificate"]["exceptional"] is True


@pytest.mark.parametrize("payload", [
    {"n": 9, "boundary": [2] * 9, "table": []},
    {"n": 5, "boundary": [2] * 4, "table": F0_TABLE},
    {"n": 5, "boundary": [2] * 6, "table": F0_TABLE},
    {"n": 5, "boundary": "22222", "table": F0_TABLE},
    {"n": 5, "boundary": [2, 2, 2, 2, "zz"], "table": F0_TABLE},
    {"n": 5, "boundary": [2, 2, 2, 2, 2.5], "table": F0_TABLE},
    {"n": "five", "boundary": [2] * 5, "table": F0_TABLE},
    {"n": 5, "boundary": [2] * 5, "table": F0_TABLE[:-1] + [[[4, 5], "zz"]]},
    {"n": 5, "boundary": [2] * 5, "table": F0_TABLE[:-1] + [[[4, "x"], -2]]},
    {"n": 5, "boundary": [2] * 5, "table": F0_TABLE[:-1] + [[[4, 5], -2, 0]]},
    {"n": 5, "boundary": [2] * 5, "table": F0_TABLE + [[[1, 9], 2]]},
    # one subset named twice, or with its complement, with different values
    {"n": 5, "boundary": [2] * 5, "table": F0_TABLE + [[[2, 1], 2]]},
    {"n": 5, "boundary": [2] * 5, "table": F0_TABLE + [[[3, 4, 5], 2]]},
    # a subset class with no value
    {"n": 5, "boundary": [2] * 5, "table": F0_TABLE[1:]},
    # fewer than 5 boundary components
    {"n": 0, "boundary": [], "table": []},
    {"n": 4, "boundary": [2] * 4, "table": [[[1, 2], 2], [[1, 3], 2], [[1, 4], 2]]},
])
def test_certify_malformed_exit_2(payload):
    code, report = run(JobSpec(command="certify", payload=payload))
    assert code == 2
    assert "error" in report


def test_certify_table_errors_name_the_subset():
    twice = {"n": 5, "boundary": [2] * 5, "table": F0_TABLE + [[[2, 1], 2]]}
    assert "[1, 2]" in run(JobSpec(command="certify", payload=twice))[1]["error"]
    missing = {"n": 5, "boundary": [2] * 5, "table": F0_TABLE[1:]}
    assert "[1, 2]" in run(JobSpec(command="certify", payload=missing))[1]["error"]


def main_in_process(argv):
    """(exit code, stdout) of `main(argv)` run in this process."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(argv)
    return code, buf.getvalue()


CHECK05 = json.loads((EXAMPLES / "check05_f0.json").read_text())
SIGMA11 = {"surface": "sigma11", "triangle": ["3", "3", "3"], "slopes": ["1/2"]}


def payload_with(base, **changes):
    out = json.loads(json.dumps(base))
    for key, value in changes.items():
        if key.startswith("interior_"):
            out["interior"][key[len("interior_"):]] = value
        else:
            out[key] = value
    return json.dumps(out)


def without_interior(key):
    out = json.loads(json.dumps(CHECK05))
    del out["interior"][key]
    return json.dumps(out)


# Malformed argv and payloads; each ends in exit 2 with one JSON line.
PROBES = [
    ["propagate", "--json", payload_with(SIGMA11, slopes=["a/b"])],
    ["propagate", "--json", payload_with(SIGMA11, slopes=["0/0"])],
    ["propagate", "--json", payload_with(SIGMA11, slopes="12")],
    ["tracepoly", "--json", json.dumps({"word": "x1 x2", "rank": "abc"})],
    ["tracepoly", "--json", json.dumps({"word": 5})],
    ["tracepoly", "--json", json.dumps({"word": " ".join(["x1"] * 3000)})],
    ["tracepoly", "--json", json.dumps({"word": "x1 x9"})],
    ["check05", "--json", payload_with(CHECK05, interior_12="zz")],
    ["glue05", "--json", payload_with(CHECK05, interior_12="zz")],
    ["check05", "--json", payload_with(CHECK05, interior_zz="2")],
    ["glue05", "--json", payload_with(CHECK05, interior_zz="2")],
    ["check05", "--json", without_interior("12")],
    ["realize", "--json", json.dumps({"traces": "123456"})],
    ["realize", "--field", "zz", "--json", json.dumps({"traces": ["2"] * 6})],
    ["realize", "--field", "fp:4", "--json", json.dumps({"traces": ["2"] * 6})],
    # past the caps on field primes (2^31), q scalars ([+-]digits(/digits)?), walks (20000)
    # and, over q, walk length x seed bits (80000)
    ["realize", "--field", "fp:2305843009213693951", "--json", json.dumps({"traces": ["2"] * 6})],
    ["variety", "--json", json.dumps({"point": ["1e999999999"] + ["0"] * 6})],
    ["variety", "--json", json.dumps({"point": ["0.5"] + ["0"] * 6})],
    ["propagate", "--json", payload_with(SIGMA11, slopes=["1/100000000000000"])],
    ["propagate", "--json", payload_with(SIGMA11, slopes=["1/20001"])],
    ["propagate", "--json", payload_with(
        SIGMA11, triangle=["10000000000000000000000000000000000000000000000007", "3", "3"],
        slopes=["1/20000"])],
    ["realize", "--bogus"],
    ["exceptional", "--n", "abc"],
    ["exceptional", "--n", "4"],
    ["exceptional", "--n", "9"],
    ["identities", "--samples", "-5"],
    ["identities", "--samples", "1001"],
    [],
]


@pytest.mark.parametrize("argv", PROBES, ids=lambda argv: " ".join(argv)[:60] or "no-command")
def test_malformed_argv_gives_one_json_line_exit_2(argv):
    code, out = main_in_process(argv)
    assert code == 2
    assert out.count("\n") == 1
    assert "error" in json.loads(out)


# Results with an integer too long for str() (sys.get_int_max_str_digits()).
TOO_LARGE = [
    ["variety", "--json", json.dumps({"point": ["1/" + "9" * 3000] + ["0"] * 6})],
    ["realize", "--json", json.dumps({"traces": ["1" + "0" * 2999] + ["3"] * 5})],
    ["propagate", "--json", payload_with(SIGMA11, slopes=["1/20000"])],
    # values too long to print stop the walk midway: small partial quotients
    # (F40/F41), and a rational seed
    pytest.param(["propagate", "--json", payload_with(SIGMA11, slopes=["102334155/165580141"])],
                 id="propagate-fibonacci-slope"),
    pytest.param(["propagate", "--json", payload_with(
        SIGMA11, triangle=["-9/8", "3", "3"], slopes=["1/20000"])], id="propagate-rational-seed"),
]


@pytest.mark.parametrize("argv", TOO_LARGE, ids=lambda argv: argv[0])
def test_result_too_large_to_print_exit_1(argv):
    code, out = main_in_process(argv)
    assert code == 1
    assert out.count("\n") == 1
    assert "digits" in json.loads(out)["error"]


def test_output_into_missing_directory_exit_2(tmp_path):
    argv = ["realize", "--input", str(EXAMPLES / "realize.json"),
            "--output", str(tmp_path / "missing" / "x.json")]
    code, out = main_in_process(argv)
    assert code == 2
    assert "bad output" in json.loads(out)["error"]


def test_output_file_gets_the_report(tmp_path):
    target = tmp_path / "out.json"
    code, out = main_in_process(["realize", "--input", str(EXAMPLES / "realize.json"),
                                 "--output", str(target)])
    assert (code, out) == (0, "")
    assert target.read_text() == (GOLDEN / "realize.out.json").read_text()


def test_help_still_prints_usage():
    with pytest.raises(SystemExit) as exc:
        main_in_process(["realize", "-h"])
    assert exc.value.code == 0


# A bounded space of argv: every command with a payload that is mostly
# well formed, then perturbed; good and bad flag values; and junk.  Values
# stay small so that no job runs long.
ATLAS_KEYS = ["12", "13", "14", "23", "24", "34", "123", "124", "134", "234"]
SCALAR = st.sampled_from(["-2", "-1", "0", "1", "2", "3", "1/2", 2])
BAD_SCALAR = SCALAR | st.sampled_from(["1/0", "zz", None])
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-9, 9)
    | st.text(alphabet="x12-^/ 0z", max_size=4),
    lambda inner: st.lists(inner, max_size=7)
    | st.dictionaries(st.sampled_from(["traces", "word", "n", "12", "zz"]), inner, max_size=4),
    max_leaves=12,
)


def mostly(good, bad):
    """Draws from `good` three times in four."""
    return st.one_of(good, good, good, bad)


def scalars(count):
    return mostly(st.lists(SCALAR, min_size=count, max_size=count),
                  st.lists(BAD_SCALAR, max_size=8))


PAIRS = [(i, j) for i in range(1, 6) for j in range(i + 1, 6)]
ATLAS = st.fixed_dictionaries({
    "boundary": scalars(5),
    "interior": mostly(st.fixed_dictionaries({k: SCALAR for k in ATLAS_KEYS}),
                       st.dictionaries(st.sampled_from(ATLAS_KEYS + ["zz"]), BAD_SCALAR,
                                       max_size=11)),
})
PAYLOADS = {
    "realize": st.fixed_dictionaries({"traces": scalars(6)}),
    "variety": st.fixed_dictionaries({"point": scalars(7)}),
    "tracepoly": st.fixed_dictionaries(
        {"word": st.lists(st.sampled_from(["x1", "x2", "x3", "x1^-1", "x2^-1", "x9", "y"]),
                          max_size=8).map(" ".join)},
        optional={"rank": st.sampled_from([0, 2, 4, "3", "abc", 2.5])}),
    "propagate": st.fixed_dictionaries(
        {"surface": st.sampled_from(["sigma11", "sigma04", "torus"]),
         "triangle": scalars(3), "boundary": scalars(4)},
        optional={"slopes": st.lists(
            st.sampled_from(["0/1", "1/0", "2/3", "-1/2", "0/0", "a/b", 3]), max_size=4)}),
    "check05": ATLAS,
    "glue05": ATLAS,
    "certify": st.fixed_dictionaries({
        "n": st.sampled_from([5, 5, 4, 9, "x"]),
        "boundary": st.lists(st.sampled_from([2, -2, 2, -2, 0, "x"]), min_size=5, max_size=5),
        "table": mostly(
            st.lists(st.sampled_from([2, -2]), min_size=10, max_size=10).map(
                lambda values: [[list(pair), v] for pair, v in zip(PAIRS, values)]),
            st.lists(st.tuples(st.lists(st.integers(1, 6), max_size=3), BAD_SCALAR).map(list),
                     max_size=6)),
    }),
}
COMMANDS = ["realize", "tracepoly", "variety", "propagate", "check05", "glue05",
            "exceptional", "certify", "identities", "bogus", None]
FLAGS = st.one_of(
    st.tuples(st.just("--field"), st.sampled_from(["q", "fp:5", "fp:2", "fp:4", "zz", "fp:x"])),
    st.tuples(st.just("--seed"), st.sampled_from(["0", "7", "-1", "x"])),
    st.tuples(st.just("--jobs"), st.sampled_from(["1", "2", "x"])),
    st.tuples(st.just("--n"), st.sampled_from(["-1", "4", "5", "7", "x"])),
    st.tuples(st.just("--samples"), st.sampled_from(["0", "1", "2", "1001", "x"])),
    st.tuples(st.just("--json"), JSON_VALUES.map(json.dumps)),
    st.tuples(st.just("--input"), st.sampled_from(
        [str(EXAMPLES / "realize.json"), str(EXAMPLES / "missing.json"), str(ROOT)])),
    st.tuples(st.just("--output"), st.just(str(ROOT / "missing-dir" / "x.json"))),
    st.tuples(st.sampled_from(["--bogus", "zz", "-x"])),
)


@st.composite
def argvs(draw):
    command = draw(st.sampled_from(COMMANDS))
    argv = [] if command is None else [command]
    if draw(st.booleans()):
        argv += ["--field", draw(st.sampled_from(["q", "fp:5", "fp:3", "fp:2", "fp:4", "zz"]))]
    if command in PAYLOADS:
        argv += ["--json", json.dumps(draw(mostly(PAYLOADS[command], JSON_VALUES)))]
    if command == "identities":  # the default of 100 samples takes about a second
        argv += ["--samples", draw(st.sampled_from(["0", "1", "2", "1001", "x"]))]
    return argv + [tok for flag in draw(st.lists(FLAGS, max_size=1)) for tok in flag]


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(argvs())
def test_every_argv_gives_one_json_line_and_exit_0_1_2(argv):
    code, out = main_in_process(argv)
    assert code in (0, 1, 2)
    assert out.count("\n") == 1 and out.endswith("\n")
    assert isinstance(json.loads(out), dict)


def test_run_api_inline():
    code, report = run(JobSpec(command="variety", payload={"point": ["0"] * 6 + ["2"]}))
    assert code == 0
    assert report["result"]["on_variety"] is True


def test_realize_prints_case3_verbatim():
    report = json.loads((GOLDEN / "realize.out.json").read_text())
    mats = report["result"]["matrices"]
    flat = [[e["coords"] for e in m] for m in mats]
    assert flat[0] == [["1/1"], ["1/1"], ["0/1"], ["1/1"]]
    assert flat[1] == [["1/1"], ["0/1"], ["-4/1"], ["1/1"]]
    assert flat[2] == [["1/1"], ["0/1"], ["0/1"], ["1/1"]]


def test_field_fp_realize():
    code, out = invoke(["realize", "--field", "fp:5",
                        "--json", json.dumps({"traces": ["1", "2", "3", "4", "0", "1"]})])
    assert code == 0
    report = json.loads(out)
    assert len(report["result"]["matrices"]) == 3
