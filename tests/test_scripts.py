"""Smoke tests: the example scripts still run against the library."""

import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


@pytest.mark.parametrize(
    "argv",
    [["witness_demo.py"], ["resolution_scan.py", "--instances", "2"]],
    ids=lambda argv: argv[0],
)
def test_script_runs(argv):
    assert _run(argv)


def test_resolution_scan_skips_what_the_caps_refuse():
    # the case that used to die at r=16; one instance per suite keeps it cheap
    rows = _run(["resolution_scan.py", "--n", "5", "--instances", "1"]).splitlines()
    assert [row.count("skipped") for row in rows] == [0, 0, 0, 2, 3]
    assert "lebesgue: skipped (LatticeModel(kind='cube', n=5, r=16) has more than" in rows[3]
    assert rows[3].endswith("kkm: 1/1")
    assert "kkm: skipped (LatticeModel(kind='simplex', n=5, r=24) has (r+1)^n" in rows[4]


def _run(argv):
    """The script's stdout; it must exit 0."""
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    proc = subprocess.run(
        [sys.executable, os.path.join(ROOT, "scripts", argv[0]), *argv[1:]],
        cwd=ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout
