"""CLI golden bytes: stdout, stderr and exit code of small fixed inputs.

Each case runs `cli.main` in-process from the repository root and compares
with `tests/golden/<case>.json`.  The inputs are the `schemas/*.json`
payloads and the covers under `tests/golden/inputs/`.  A refactor that must
keep the CLI's bytes keeps these files unchanged.  To record them from a
checkout, run `PYTHONPATH=src python tests/test_cli_golden.py [CASE ...]`:
with case names it records only those cases, and a name that is not in
`CASES` is an error that records nothing; with none it records every case.
"""

import contextlib
import io
import json
import os
import pathlib
import sys

import pytest

from toricover import cli

ROOT = pathlib.Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden"
INPUTS = "tests/golden/inputs/"


def _verify(theorem, path, *extra):
    return ["verify", "--theorem", theorem, "--input", path, *extra]


CASES = {
    "ring": ["ring", "--input", "schemas/ring.json"],
    "intersect": ["intersect", "--input", "schemas/intersect.json"],
    "principal": ["principal", "--input", "schemas/principal.json"],
    "principal-not": [
        "principal", "--input",
        '{"polytope": {"dim": 1, "facets": [{"normal": [1], "offset": "0"},'
        ' {"normal": [-1], "offset": "1"}]}, "divisor": {"coeffs": {"0": "1"}}}',
    ],
    "avoid": ["avoid", "--input", "schemas/avoid.json"],
    "color": ["color", "--input", "schemas/color.json"],
    "color-partition": ["color", "--input", INPUTS + "axes-partition.json"],
    "color-bricks": ["color", "--input", INPUTS + "bricks.json"],
    "moment-cpn": ["moment", "--kind", "cpn", "--input", "schemas/moment.json"],
    "moment-product-cp1": [
        "moment", "--kind", "product_cp1", "--input",
        '{"input": [[["1", "0"], ["0", "1"]], [["2", "0"], ["1/2", "0"]]]}',
    ],
    "moment-real-sphere": [
        "moment", "--kind", "real_sphere", "--input", '{"input": ["3/5", "4/5", "0"]}',
    ],
    "generate-bricks-1": ["generate", "--pattern", "bricks", "--n", "1", "--r", "4"],
    "generate-bricks-2": ["generate", "--pattern", "bricks", "--n", "2", "--r", "4"],
    "generate-bricks-bad-r": ["generate", "--pattern", "bricks", "--n", "2", "--r", "3"],
    "generate-bricks-kind-simplex": [
        "generate", "--pattern", "bricks", "--kind", "simplex", "--n", "2", "--r", "4",
    ],
    "generate-bricks-m": [
        "generate", "--pattern", "bricks", "--n", "2", "--r", "8", "--m", "7", "--seed", "99",
    ],
    "generate-kkm": ["generate", "--pattern", "kkm", "--n", "2", "--r", "3"],
    "generate-kkm-kind-cube": [
        "generate", "--pattern", "kkm", "--kind", "cube", "--n", "2", "--r", "3",
    ],
    "generate-kkm-seed": ["generate", "--pattern", "kkm", "--n", "2", "--r", "3", "--seed", "5"],
    "generate-random-cube": [
        "generate", "--pattern", "random", "--n", "2", "--r", "4", "--seed", "1",
    ],
    "generate-random-cube-m3": [
        "generate", "--pattern", "random", "--n", "3", "--r", "3", "--m", "3", "--seed", "5",
    ],
    "generate-random-huge-m": [
        "generate", "--pattern", "random", "--n", "1", "--r", "2", "--m", "1000000000",
    ],
    "generate-random-simplex": [
        "generate", "--pattern", "random", "--kind", "simplex", "--n", "2", "--r", "3",
        "--m", "3", "--seed", "2",
    ],
    "lebesgue-witness": _verify("lebesgue", "schemas/verify.json"),
    "lebesgue-not-a-cover": _verify("lebesgue", INPUTS + "not-a-cover.json"),
    "lebesgue-bricks": _verify("lebesgue", INPUTS + "bricks.json"),
    "lebesgue-simplex": _verify("lebesgue", INPUTS + "kkm-family.json"),
    "kkm-witness-k1": _verify("kkm", INPUTS + "kkm-family.json", "--k", "1"),
    "kkm-witness-k2": _verify("kkm", INPUTS + "kkm-family.json", "--k", "2"),
    "kkm-stars": _verify("kkm", INPUTS + "kkm-stars.json", "--k", "1"),
    "kkm-midpoints": _verify("kkm", INPUTS + "kkm-midpoints.json", "--k", "1"),
    "kkm-no-k": _verify("kkm", INPUTS + "kkm-family.json"),
    "complement-witness": _verify("complement", INPUTS + "complement-family.json", "--k", "1"),
    "complement-candidate": _verify(
        "complement", INPUTS + "complement-candidate.json", "--k", "1"
    ),
    "complement-candidate-k2": _verify(
        "complement", INPUTS + "complement-candidate.json", "--k", "2"
    ),
    "complement-spans": _verify("complement", "schemas/verify.json", "--k", "1"),
    "axes-witness": _verify("axes", INPUTS + "axes-partition.json"),
    "axes-checkerboard": _verify("axes", INPUTS + "axes-checkerboard.json"),
    "axes-not-a-cover": _verify("axes", INPUTS + "not-a-cover.json"),
    "axes-arity": _verify("axes", INPUTS + "bricks.json"),
    "verify-lebesgue-k": _verify("lebesgue", "schemas/verify.json", "--k", "2"),
    "verify-axes-eps": _verify("axes", INPUTS + "axes-partition.json", "--eps", "1/2"),
    "kkm-lebesgue": _verify("kkm-lebesgue", "schemas/verify-kkm-lebesgue.json"),
    "kkm-lebesgue-eps0": _verify(
        "kkm-lebesgue", "schemas/verify-kkm-lebesgue.json", "--eps", "0"
    ),
    "kkm-lebesgue-eps-negative": _verify(
        "kkm-lebesgue", "schemas/verify-kkm-lebesgue.json", "--eps", "-1"
    ),
    "kkm-lebesgue-empty-sample": _verify("kkm-lebesgue", INPUTS + "empty-sample.json"),
    "kkm-lebesgue-repeated-sample": _verify("kkm-lebesgue", INPUTS + "repeated-sample.json"),
    "kkm-lebesgue-repeated-sample-eps0": _verify(
        "kkm-lebesgue", INPUTS + "repeated-sample.json", "--eps", "0"
    ),
    "kkm-lebesgue-repeated-sample-outside": _verify(
        "kkm-lebesgue", INPUTS + "repeated-sample-outside.json"
    ),
}


def run_case(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(list(argv))
    return {"argv": argv, "exit": code, "stdout": out.getvalue(), "stderr": err.getvalue()}


@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_golden(name, monkeypatch):
    monkeypatch.chdir(ROOT)
    expected = json.loads((GOLDEN / f"{name}.json").read_text())
    assert run_case(CASES[name]) == expected


def test_every_exit_code_and_theorem_is_pinned():
    recorded = [json.loads((GOLDEN / f"{name}.json").read_text()) for name in CASES]
    assert {case["exit"] for case in recorded} == {0, 2, 3, 4}
    theorems = {case["argv"][2] for case in recorded if case["argv"][0] == "verify"}
    assert theorems == {"lebesgue", "kkm", "axes", "complement", "kkm-lebesgue"}
    commands = {case["argv"][0] for case in recorded}
    assert commands == {
        "ring", "intersect", "principal", "avoid", "verify", "color", "generate", "moment",
    }


if __name__ == "__main__":
    os.chdir(ROOT)
    names = sys.argv[1:] or sorted(CASES)
    unknown = [name for name in names if name not in CASES]
    if unknown:
        sys.exit(f"unknown case(s): {' '.join(unknown)}")
    for name in names:
        case = run_case(CASES[name])
        (GOLDEN / f"{name}.json").write_text(json.dumps(case, indent=1) + "\n")
        print(f"{name}: exit {case['exit']}", file=sys.stderr)
