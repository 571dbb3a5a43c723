import json
import subprocess
import sys
from pathlib import Path

import pytest

from sl2trace.cli import JobSpec, run

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
        [sys.executable, "-m", "sl2trace.cli", *args],
        capture_output=True, text=True, cwd=ROOT,
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
])
def test_certify_malformed_exit_2(payload):
    code, report = run(JobSpec(command="certify", payload=payload))
    assert code == 2
    assert "error" in report


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
