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


def test_divisor_scale_prints_one_row_per_dimension():
    rows = _run(["divisor_scale.py", "--max-n", "3"]).splitlines()
    assert rows[:2] == ["| polytope | construct | perturb | genericity | H^n | presentation |",
                        "|---|---|---|---|---|---|"]
    assert [row.split(" | ")[0] for row in rows[2:]] == ["| Q^2", "| Q^3"]
    for row in rows[2:]:
        construct, perturb, generic, top, ring = map(float, row.strip("| ").split(" | ")[1:])
        assert min(construct, perturb, generic, top, ring) >= 0 and generic <= perturb


def test_sample_scale_prints_one_row_per_polytope_and_resolution():
    rows = _run(["sample_scale.py", "--max-r", "3", "--repeat", "1"]).splitlines()
    assert rows[:2] == [
        "| polytope | r | points | perturb | lattice_sample | sample and masks | witness |",
        "|---|---|---|---|---|---|---|",
    ]
    assert [row.split(" | ")[:2] for row in rows[2:]] == [
        ["| Q^3", "2"], ["| Q^3", "3"], ["| Q^4", "2"], ["| Q^4", "3"],
        ["| Delta^3", "2"], ["| Delta^3", "3"],
    ]
    for row in rows[2:]:
        points, *times = row.strip("| ").split(" | ")[2:]
        assert int(points) > 0 and len(times) == 4 and min(map(float, times)) >= 0


def test_mask_scale_prints_one_row_per_model_and_share():
    argv = ["mask_scale.py", "--cube", "2,4", "--simplex", "2,4", "--repeat", "1"]
    rows = _run(argv).splitlines()
    assert rows[:2] == [
        "| model | share | set bits | density | gaps µs | selectors µs | points_of |",
        "|---|---|---|---|---|---|---|",
    ]
    shares = ["1/256", "1/64", "1/32", "1/24", "1/16", "1/12", "1/8", "1/4", "1/2", "1/1"]
    cells = [row.strip("| ").split(" | ") for row in rows[2:]]
    assert [c[:2] for c in cells] == [[m, s] for m in ("cube n=2 r=4", "simplex n=2 r=4")
                                      for s in shares]
    for _, _, bits, density, gaps, selectors, way in cells:
        assert int(bits) >= 0 and 0 <= float(density) <= 1
        assert min(float(gaps), float(selectors)) >= 0
        # the density is printed rounded, so rows near 1/16 are left out
        if abs(float(density) - 1 / 16) > 0.001:
            assert way == ("selectors" if float(density) > 1 / 16 or int(bits) == 0 else "gaps")
    # the full set of the cube is every cell
    assert cells[9][2:4] == ["25", "1.000"]


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


def _script_module(name):
    path = os.path.join(ROOT, "scripts", name + ".py")
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _bench_pairs():
    return _script_module("bench_pairs")


def test_resolution_scan_prints_seeds_not_instance_indices(monkeypatch, capsys):
    """A failing instance is printed as its seed, config.seed + index, which
    replays it; instance 3 of a suite seeded at 100 has seed 103."""
    scan = _script_module("resolution_scan")

    def fail_instance_3(config):
        return {"failures": [3] if config.verifier == "lebesgue" else []}

    monkeypatch.setattr(scan, "run_property_suite", fail_instance_3)
    monkeypatch.setattr(sys, "argv", ["resolution_scan.py", "--instances", "5", "--seed", "100"])
    scan.main()
    rows = capsys.readouterr().out.splitlines()
    assert len(rows) == 5
    for row in rows:
        assert "lebesgue: 4/5 (replay seeds [103])   axes: 5/5   kkm: 5/5" in row


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


METRICS = [
    {"name": "items_per_ref_s", "better": "higher", "bound": 0.15},
    {"name": "peak_rss_mb", "better": "lower", "bound": 0.1},
]


def _ten_pairs(parent_items, change_items, parent_rss, change_rss):
    return [{"parent": _line(p, pr), "change": _line(c, cr)}
            for p, c, pr, cr in zip(parent_items, change_items, parent_rss, change_rss)]


def test_bench_pairs_rule_checks_on_canned_lines():
    """A gain needs the change better in 9 of 10 pairs and the medians
    further apart than the parent's interquartile distance; a median worse
    than the parent's by more than the bound is named."""
    bench_pairs = _bench_pairs()
    # 9 wins and one tie, medians 10 -> 12 against an interquartile distance
    # of 0; rss 13.3 % worse against a bound of 10 %
    pairs = _ten_pairs([10] * 9 + [12], [12] * 10, [30] * 10, [34] * 10)
    assert bench_pairs.rule_checks(pairs, METRICS) == [
        "items_per_ref_s: gain shown: change better in 9/10 pairs, medians 10 -> 12,"
        " the parent's interquartile distance 0",
        "items_per_ref_s: within its bound: change +20.0 %, bound 15 %",
        "peak_rss_mb: gain not shown: change better in 0/10 pairs, medians 30 -> 34,"
        " the parent's interquartile distance 0",
        "peak_rss_mb: worse than its bound: change +13.3 %, bound 10 %",
    ]
    # 10 wins, but the medians 10 -> 11 lie within the parent's spread of 4;
    # rss 6.7 % worse stays within its bound
    pairs = _ten_pairs([8, 12] * 5, [9, 13] * 5, [30] * 10, [32] * 10)
    lines = bench_pairs.rule_checks(pairs, METRICS)
    assert lines[0] == ("items_per_ref_s: gain not shown: change better in 10/10 pairs,"
                        " medians 10 -> 11, the parent's interquartile distance 4")
    assert lines[3] == "peak_rss_mb: within its bound: change +6.7 %, bound 10 %"
    # far apart, but better in only 8 of 10 pairs; items 20 % worse is past 15 %
    pairs = _ten_pairs([10] * 10, [20] * 8 + [10, 10], [30] * 10, [30] * 10)
    assert bench_pairs.rule_checks(pairs, METRICS)[0].startswith(
        "items_per_ref_s: gain not shown: change better in 8/10 pairs, medians 10 -> 20,")
    pairs = _ten_pairs([10] * 10, [8] * 10, [30] * 10, [30] * 10)
    assert bench_pairs.rule_checks(pairs, METRICS)[1] == (
        "items_per_ref_s: worse than its bound: change -20.0 %, bound 15 %")


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
        if "failures" in entry:  # written since the script began recording them
            assert bench_pairs.failures(entry["pairs"]) == entry["failures"]
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


@pytest.mark.parametrize("line, code, stops", [
    ('{"correct": false}', 1, False),  # a failed check: run.py's own exit
    ('{"correct": true}', 1, True),
    ('{"correct": false}', 2, True),
    ('{}', 1, True),
])
def test_bench_pairs_run_one_keeps_a_run_whose_check_failed(tmp_path, line, code, stops):
    """Exit code 1 with a last line reading "correct": false is a run whose
    check failed, as perfbench/run.py reports one: its line is returned.
    Any other nonzero exit stops the script."""
    bench_pairs = _bench_pairs()
    run = tmp_path / "perfbench" / "run.py"
    run.parent.mkdir()
    run.write_text(f"import sys\nprint({line!r})\nsys.exit({code})\n")
    if stops:
        with pytest.raises(SystemExit, match=f"exited with code {code}"):
            bench_pairs.run_one(str(tmp_path), "divisor_ring", 1, 0.1)
    else:
        assert bench_pairs.run_one(str(tmp_path), "divisor_ring", 1, 0.1) == json.loads(line)


# exits 1 on an incorrect run, after its result line, as perfbench/run.py does
CANNED_RUN = """import json, sys
args = sys.argv[1:]
seed = int(args[args.index("--seed") + 1])
print(json.dumps({"correct": CORRECT, "attempted": 4, "failed": FAILED, "argv": args, "metrics": {
    "items_per_ref_s": {"value": seed + SPEED, "unit": "1/ref_s"}}}))
sys.exit(0 if CORRECT else 1)
"""


def _git(checkout, *args):
    return subprocess.run(
        ["git", "-C", str(checkout), "-c", "user.name=canned", "-c", "user.email=canned@example.org",
         *args], check=True, capture_output=True, text=True,
    ).stdout.strip()


def _canned_pairs(tmp_path, failed=(0, 0), correct=(True, True)):
    """bench_pairs.main on two git checkouts whose perfbench/run.py prints a
    canned result line: the parent reads seed + 0, the change seed + 100,
    and each side fails its entry of `failed` of 4 items per run.  Returns
    the --out path and the SystemExit main raised, or None."""
    for side, speed, fails, ok in zip(("parent", "change"), (0, 100), failed, correct):
        run = tmp_path / side / "perfbench" / "run.py"
        run.parent.mkdir(parents=True)
        run.write_text(CANNED_RUN.replace("SPEED", str(speed)).replace("FAILED", str(fails))
                       .replace("CORRECT", str(ok)))
        _git(tmp_path / side, "init", "-q")
        _git(tmp_path / side, "add", "-A")
        _git(tmp_path / side, "commit", "-q", "-m", f"canned {side}")
    (tmp_path / "change" / "BENCHMARK.json").write_text(json.dumps({
        "run_seconds": 0.5,
        "end_to_end": [{"name": "items_per_ref_s", "better": "higher", "bound": 0.15}],
    }))
    out = tmp_path / "BENCH.json"
    bench_pairs = _bench_pairs()
    try:
        bench_pairs.main(["--parent", str(tmp_path / "parent"), "--change", str(tmp_path / "change"),
                          "--workload", "lattice_suite", "--seeds", "7-9", "--out", str(out)])
    except SystemExit as exc:
        return out, exc
    return out, None


def test_bench_pairs_adds_one_traced_run_per_side(tmp_path, capsys):
    """After the untraced pairs, each side runs once with --trace 1 on the
    first seed, and both result lines go under the workload's "traced".
    The rule checks follow on stderr."""
    out, stopped = _canned_pairs(tmp_path)
    assert stopped is None
    assert capsys.readouterr().err.splitlines()[-2:] == [
        "lattice_suite items_per_ref_s: gain shown: change better in 3/3 pairs,"
        " medians 8 -> 108, the parent's interquartile distance 1",
        "lattice_suite items_per_ref_s: within its bound: change +1250.0 %, bound 15 %",
    ]
    doc = json.loads(out.read_text())
    assert doc["parent"] == _git(tmp_path / "parent", "rev-parse", "HEAD")
    entry = doc["workloads"]["lattice_suite"]
    assert [pair["seed"] for pair in entry["pairs"]] == [7, 8, 9]
    assert all(pair[side]["argv"][-2:] == ["--trace", "0"]
               for pair in entry["pairs"] for side in ("parent", "change"))
    traced = entry["traced"]
    assert traced["seed"] == 7
    for side, speed in (("parent", 7), ("change", 107)):
        assert traced[side]["argv"] == ["--workload", "lattice_suite", "--seed", "7",
                                        "--seconds", "0.5", "--trace", "1"]
        assert traced[side]["metrics"]["items_per_ref_s"]["value"] == speed
    assert entry["summary"]["items_per_ref_s"]["pairs_change_better"] == "3/3"
    assert entry["failures"] == {
        side: {"attempted": 12, "failed": 0, "failed_share": 0.0} for side in ("parent", "change")
    }


@pytest.mark.parametrize("failed", [(0, 1), (1, 2)])
def test_bench_pairs_stops_when_the_change_fails_a_larger_share(tmp_path, failed):
    """The file is still written, with both sides' failure totals, and then
    the script exits naming the two counts."""
    out, stopped = _canned_pairs(tmp_path, failed=failed)
    parent, change = (3 * f for f in failed)
    assert str(stopped) == (f"lattice_suite: the change fails {change} of 12 items,"
                            f" the parent {parent} of 12")
    entry = json.loads(out.read_text())["workloads"]["lattice_suite"]
    assert entry["failures"]["change"] == {
        "attempted": 12, "failed": change, "failed_share": round(change / 12, 6)}
    assert entry["failures"]["parent"]["failed"] == parent


def test_bench_pairs_accepts_an_equal_or_smaller_failed_share(tmp_path):
    out, stopped = _canned_pairs(tmp_path, failed=(2, 1))
    assert stopped is None
    assert json.loads(out.read_text())["workloads"]["lattice_suite"]["failures"]["parent"] == {
        "attempted": 12, "failed": 6, "failed_share": 0.5}


def test_bench_pairs_stops_on_an_incorrect_run(tmp_path):
    """A run reading correct: false stops the script after the file is
    written, naming every such run, the traced one included."""
    out, stopped = _canned_pairs(tmp_path, correct=(True, False))
    assert str(stopped) == ("lattice_suite: runs read correct: false: change seed 7,"
                            " change seed 8, change seed 9, change seed 7 (traced)")
    assert json.loads(out.read_text())["workloads"]["lattice_suite"]["all_correct"] is False


def test_bench_pairs_refuses_a_parent_that_is_not_a_git_checkout(tmp_path):
    """A parent copied without its .git stops the script before the first
    pair, naming the checkout, instead of writing an unknown parent."""
    bench_pairs = _bench_pairs()
    (tmp_path / "change").mkdir()
    (tmp_path / "change" / "BENCHMARK.json").write_text(json.dumps({
        "run_seconds": 0.5,
        "end_to_end": [{"name": "items_per_ref_s", "better": "higher"}],
    }))
    parent = tmp_path / "parent"
    parent.mkdir()
    out = tmp_path / "BENCH.json"
    with pytest.raises(SystemExit, match="is not a git checkout.*git worktree add") as info:
        bench_pairs.main(["--parent", str(parent), "--change", str(tmp_path / "change"),
                          "--workload", "lattice_suite", "--seeds", "7-8", "--out", str(out)])
    assert str(info.value).startswith(str(parent))
    assert not out.exists()
