"""Smoke tests: the example scripts still run against the library."""

import glob
import importlib.util
import json
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


def _bench_pairs():
    path = os.path.join(ROOT, "scripts", "bench_pairs.py")
    spec = importlib.util.spec_from_file_location("bench_pairs", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _line(items, rss):
    return {"correct": True, "attempted": 10, "failed": 0, "metrics": {
        "items_per_ref_s": {"value": items, "unit": "1/ref_s"},
        "peak_rss_mb": {"value": rss, "unit": "MB"},
    }}


def test_bench_pairs_summary_on_canned_lines():
    bench_pairs = _bench_pairs()
    pairs = [
        {"parent": _line(p, pr), "change": _line(c, cr)}
        for p, c, pr, cr in [(10, 12, 30, 31), (11, 11, 30, 29), (9, 13, 30, 30), (10, 14, 31, 32)]
    ]
    got = bench_pairs.summarize(pairs, {"items_per_ref_s": "higher", "peak_rss_mb": "lower"})
    assert got["items_per_ref_s"] == {
        "unit": "1/ref_s", "better": "higher", "parent_median": 10, "change_median": 12.5,
        "change_vs_parent": "+25.0 %", "parent_quartiles": [9.75, 10.0, 10.25],
        "change_quartiles": [11.75, 12.5, 13.25],
        # the tie (11, 11) counts for neither side
        "pairs_change_better": "3/4",
    }
    assert got["peak_rss_mb"]["pairs_change_better"] == "1/4"
    assert got["peak_rss_mb"]["change_vs_parent"] == "+1.7 %"
    assert bench_pairs.seed_list("11-13") == [11, 12, 13]


@pytest.mark.parametrize(
    "name", sorted(os.path.basename(path) for path in glob.glob(os.path.join(ROOT, "BENCH_*.json")))
)
def test_bench_pairs_summary_reproduces_a_committed_file(name):
    """A committed BENCH file keeps every pair's result lines next to its
    summary, and every run in it passed its checks."""
    bench_pairs = _bench_pairs()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        better = {m["name"]: m["better"] for m in json.load(fh)["end_to_end"]}
    with open(os.path.join(ROOT, name)) as fh:
        workloads = json.load(fh)["workloads"]
    for entry in workloads.values():
        assert bench_pairs.summarize(entry["pairs"], better) == entry["summary"]
        assert entry["all_correct"]
        for pair in entry["pairs"]:
            assert pair["parent"]["failed"] == 0 and pair["change"]["failed"] == 0


def test_bench_pairs_run_one_stops_on_a_failed_run(tmp_path):
    """A nonzero exit or a last line that is not JSON stops the script with
    the checkout, the exit code and stderr."""
    bench_pairs = _bench_pairs()
    run = tmp_path / "perfbench" / "run.py"
    run.parent.mkdir()
    run.write_text("import sys\nprint('{}')\nsys.stderr.write('boom')\nsys.exit(3)\n")
    with pytest.raises(SystemExit, match=r"(?s)exited with code 3.*boom") as info:
        bench_pairs.run_one(str(tmp_path), "divisor_ring", 1, 0.1)
    assert str(tmp_path) in str(info.value)
    run.write_text("print('{\"correct\": true}')\nprint('done')\n")
    with pytest.raises(SystemExit, match="not a JSON result"):
        bench_pairs.run_one(str(tmp_path), "divisor_ring", 1, 0.1)
    run.write_text("print('{\"correct\": true}')\n")
    assert bench_pairs.run_one(str(tmp_path), "divisor_ring", 1, 0.1) == {"correct": True}
