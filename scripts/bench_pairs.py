#!/usr/bin/env python3
"""Run perfbench on two checkouts in alternating pairs and summarize them.

    python3 scripts/bench_pairs.py --parent ../parent --change . \\
        --workload lattice_suite --seeds 11-20 --out BENCH_15.json

Each pair runs `perfbench/run.py --workload W --seed S --seconds T --trace 0`,
with T the run_seconds of BENCHMARK.json, once in each checkout, one process
at a time; which side runs first alternates from pair to pair.  After the
pairs, each side makes one run with --trace 1 on the first seed, whose
per-layer result lines show where the time went.  The results go into the
--out file under "workloads" -> W, next to any other workload already in it,
in the layout of the committed BENCH_<pr>.json files: every pair's result
lines, the traced result lines under "traced", and per end-to-end metric the
medians, the quartiles and the number of pairs in which the change reads
better, and under "failures" each side's attempted and failed items over
the pairs with the failed share.  Keys written by hand ("claim", "notes",
"limits") are kept.  The parent must be a git checkout: its commit,
resolved before the first pair, goes into the file as "parent".

After writing the file the script prints to stderr, per end-to-end metric,
whether the pairs show a gain (the change better in at least 9 of 10
pairs, the medians further apart than the parent's interquartile distance)
and whether the change's median is worse than the parent's by more than the
metric's bound in BENCHMARK.json.  It then exits nonzero if any run reads
"correct": false or the change fails a larger share of its items than the
parent.  Uses the standard library only.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys


def seed_list(spec: str) -> list:
    """The seeds of a range "11-20", both ends included."""
    lo, hi = spec.split("-")
    return list(range(int(lo), int(hi) + 1))


def run_one(checkout: str, workload: str, seed: int, seconds: float, trace: int = 0) -> dict:
    """The result line of one perfbench run in checkout, untraced unless
    trace is 1.

    Stops the script, naming the checkout, the exit code and stderr, when
    the run exits nonzero or its last stdout line is not a JSON object.  A
    run whose check failed is the exception: perfbench/run.py exits 1 after
    writing its result line, which reads "correct": false, and that line is
    returned, so that main records the run and names it.
    """
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=checkout, capture_output=True, text=True,
    )
    where = f"perfbench in {checkout} (seed {seed}) exited with code {proc.returncode}"
    lines = proc.stdout.splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        result = None
    incorrect = proc.returncode == 1 and isinstance(result, dict) and result.get("correct") is False
    if proc.returncode and not incorrect:
        sys.exit(f"{where}:\n{proc.stderr}")
    if not isinstance(result, dict):
        sys.exit(f"{where} but its last line is not a JSON result:\n{proc.stderr}")
    return result


def _quartiles(values: list) -> list:
    if len(values) == 1:
        return [values[0]] * 3
    return statistics.quantiles(values, n=4, method="inclusive")


def summarize(pairs: list, better: dict) -> dict:
    """Per end-to-end metric of the result lines in pairs (each a dict with
    "parent" and "change" results): unit, direction, both medians, their
    relative change, both sides' quartiles [q1, median, q3] and how many
    pairs the change wins, ties counting for neither side."""
    out = {}
    for name, direction in better.items():
        sides = {
            side: [pair[side]["metrics"][name]["value"] for pair in pairs]
            for side in ("parent", "change")
        }
        sign = 1 if direction == "higher" else -1
        wins = sum(sign * (c - p) > 0 for p, c in zip(sides["parent"], sides["change"]))
        parent_median = statistics.median(sides["parent"])
        change_median = statistics.median(sides["change"])
        out[name] = {
            "unit": pairs[0]["parent"]["metrics"][name]["unit"],
            "better": direction,
            "parent_median": round(parent_median, 4),
            "change_median": round(change_median, 4),
            "change_vs_parent": f"{100 * (change_median / parent_median - 1):+.1f} %",
            "parent_quartiles": [round(q, 4) for q in _quartiles(sides["parent"])],
            "change_quartiles": [round(q, 4) for q in _quartiles(sides["change"])],
            "pairs_change_better": f"{wins}/{len(pairs)}",
        }
    return out


def rule_checks(pairs: list, metrics: list) -> list:
    """Two lines per end-to-end metric of BENCHMARK.json (each a dict with
    "name", "better" and "bound") on the result lines in pairs.  The first
    says whether they show a gain: the change better in at least 9 of every
    10 pairs, and its median better than the parent's by more than the
    parent's interquartile distance.  The second says whether the change's
    median is worse than the parent's by more than the bound, a share of
    the parent's median."""
    summary = summarize(pairs, {m["name"]: m["better"] for m in metrics})
    lines = []
    for m in metrics:
        name, entry, bound = m["name"], summary[m["name"]], m["bound"]
        sign = 1 if m["better"] == "higher" else -1
        wins, count = map(int, entry["pairs_change_better"].split("/"))
        parent, change = entry["parent_median"], entry["change_median"]
        q1, _, q3 = entry["parent_quartiles"]
        gain = 10 * wins >= 9 * count and sign * (change - parent) > q3 - q1
        lines.append(
            f"{name}: gain {'shown' if gain else 'not shown'}: change better in"
            f" {wins}/{count} pairs, medians {parent:g} -> {change:g}, the parent's"
            f" interquartile distance {q3 - q1:.4g}")
        worse = sign * (parent - change) > bound * abs(parent)
        lines.append(
            f"{name}: {'worse than its bound' if worse else 'within its bound'}:"
            f" change {entry['change_vs_parent']}, bound {100 * bound:g} %")
    return lines


def failures(pairs: list) -> dict:
    """Per side of the result lines in pairs: the attempted and failed items
    summed over the pairs and the failed share of them."""
    out = {}
    for side in ("parent", "change"):
        attempted = sum(pair[side]["attempted"] for pair in pairs)
        failed = sum(pair[side]["failed"] for pair in pairs)
        out[side] = {"attempted": attempted, "failed": failed,
                     "failed_share": round(failed / attempted, 6) if attempted else 0.0}
    return out


def _head(checkout: str) -> str:
    """The commit checked out at the top of the git checkout `checkout`.

    Stops the script, naming the checkout, when it is not one: a copy made
    by `git archive`, or a directory inside some other repository.
    """
    proc = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=checkout,
                          capture_output=True, text=True)
    lines = proc.stdout.split("\n")
    if proc.returncode or os.path.realpath(lines[0]) != os.path.realpath(checkout):
        sys.exit(f"{checkout} is not a git checkout, so its commit is unknown;"
                 " make it with `git worktree add` or `git clone`")
    return lines[1]


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", required=True, help="checkout of the parent commit")
    ap.add_argument("--change", required=True, help="checkout of the change")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", required=True, type=seed_list, help='a range, e.g. "11-20"')
    ap.add_argument("--out", required=True, help="the BENCH_<pr>.json file to update")
    args = ap.parse_args(argv)

    with open(os.path.join(args.change, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    seconds = spec["run_seconds"]
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}
    checkouts = {"parent": args.parent, "change": args.change}
    parent = _head(args.parent)
    pairs = []
    for i, seed in enumerate(args.seeds):
        first, second = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        pair = {"seed": seed, "first": first}
        for side in (first, second):
            pair[side] = run_one(checkouts[side], args.workload, seed, seconds)
        pairs.append(pair)
        print(f"{args.workload} seed {seed}: " + ", ".join(
            f"{side} {pair[side]['metrics']['items_per_ref_s']['value']:.2f}"
            for side in ("parent", "change")), file=sys.stderr)

    traced = {"seed": args.seeds[0]}
    for side in checkouts:
        traced[side] = run_one(checkouts[side], args.workload, args.seeds[0], seconds, trace=1)

    doc = {}
    if os.path.exists(args.out):
        with open(args.out) as fh:
            doc = json.load(fh)
    doc.update({
        "what": "perfbench end-to-end results, parent commit vs this change, in alternating pairs",
        "parent": parent,
        "command": f"python3 perfbench/run.py --workload W --seed S --seconds {seconds:g} --trace 0",
        "run_seconds": seconds,
        "order": "each pair runs both sides back to back; which side runs first "
                 "alternates from pair to pair",
        "host": f"{os.cpu_count()} logical CPUs, {platform.machine()}, "
                f"Python {platform.python_version()}",
    })
    workloads = doc.setdefault("workloads", {})
    failed = failures(pairs)
    workloads[args.workload] = {
        "seeds": [pair["seed"] for pair in pairs],
        "all_correct": all(pair[side]["correct"] for pair in pairs for side in checkouts),
        "pairs": pairs,
        "traced": traced,
        "summary": summarize(pairs, better),
        "failures": failed,
    }
    doc["workloads"] = dict(sorted(workloads.items()))
    with open(args.out, "w") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")
    for line in rule_checks(pairs, spec["end_to_end"]):
        print(f"{args.workload} {line}", file=sys.stderr)

    wrong = [f"{side} seed {run['seed']}{' (traced)' if run is traced else ''}"
             for run in pairs + [traced] for side in checkouts if not run[side]["correct"]]
    if wrong:
        sys.exit(f"{args.workload}: runs read correct: false: {', '.join(wrong)}")
    parent_side, change_side = failed["parent"], failed["change"]
    if change_side["failed"] * parent_side["attempted"] > parent_side["failed"] * change_side["attempted"]:
        sys.exit(f"{args.workload}: the change fails {change_side['failed']} of"
                 f" {change_side['attempted']} items, the parent {parent_side['failed']} of"
                 f" {parent_side['attempted']}")


if __name__ == "__main__":
    main()
