"""toricover benchmark: four closed-loop, single-process workloads.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the program is imported from src/.
The workload is built from the seed, warmed up, and then whole rounds of
items run until S seconds have passed.  Every output is checked against the
oracles in oracles.py.  The last line of stdout is one JSON object with
`correct`, `attempted`, `failed` and `metrics`: the end-to-end metrics with
--trace 0, the per-layer metrics (tracing.metric_specs) with --trace 1.

Times are reference times (see refclock.py).  A failed item prints its
label and replay command on stderr.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time

import refclock
import tracing

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SETUP_PROBES = 7
"""Fresh interpreters whose set-up is timed; setup_s is their median."""
PROBE_SAMPLE_S = 0.05
"""Reference sampled before and after each probe: a set-up lasts only a few
tenths of a second, so a short sample would add noise of its own."""
MIN_ITEMS = 100
"""Rounds continue past --seconds until this many items were attempted, so
that at least ten items lie beyond the 90th percentile even on a slow host."""
WORKLOAD_NAMES = ("divisor_ring", "lattice_suite", "sample_cover", "cli_roundtrip")
END_TO_END_UNITS = {
    "items_per_ref_s": "1/ref_s",
    "item_ref_ms_p50": "ref_ms",
    "item_ref_ms_p90": "ref_ms",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}


def _import_workloads():
    src = os.path.join(ROOT, "src")
    if not os.path.isdir(os.path.join(src, "toricover")):
        sys.exit(f"no toricover sources under {src}: run from the root of a checkout")
    sys.path.insert(0, src)
    import workloads

    return workloads


BAND = 0.04


def _percentile(sorted_values, q):
    """The q-th percentile, smoothed: the mean of the values ranked within
    q +- BAND.  A single order statistic jumps whenever the percentile falls
    between two groups of similar items; the band mean does not."""
    n = len(sorted_values)
    window = sorted_values[math.floor((q - BAND) * n):math.ceil((q + BAND) * n)]
    return sum(window) / len(window)


class Runner:
    """Runs rounds of items in groups bracketed by reference samples."""

    GROUP_S = 0.1

    def __init__(self, args):
        self.args = args
        self.attempted = 0
        self.failed = 0
        self.correct = True
        self.ref_times = []      # per item, reference seconds; None if failed
        self.raw_s = 0.0
        self.ref_s = 0.0
        self.check_s = 0.0

    def run_round(self, items, rnd, tracer=None):
        """Run one round's items; return the reference seconds they took."""
        total = 0.0
        i = 0
        while i < len(items):
            before = refclock.sample()
            group = []
            wall = 0.0
            while i < len(items) and wall < self.GROUP_S:
                item = items[i]
                i += 1
                if tracer is not None:
                    tracer.item = self.attempted + len(group)
                start = time.perf_counter()
                try:
                    out, error = item.run(), None
                except Exception as exc:  # every failure is counted and reported
                    out, error = None, exc
                dt = time.perf_counter() - start
                wall += dt
                group.append((item, out, error, dt))
            factor = refclock.factor(before, refclock.after_sample(wall))
            if tracer is not None:
                tracer.flush(factor)
            checks = time.perf_counter()
            for item, out, error, dt in group:
                total += dt * factor
                self._account(item, out, error, dt, factor, rnd)
            self.check_s += time.perf_counter() - checks
            self.raw_s += wall
        self.ref_s += total
        return total

    def _account(self, item, out, error, dt, factor, rnd):
        self.attempted += 1
        reason = None
        if error is not None:
            reason = f"{type(error).__name__}: {error}"
            if item.expected_error is None or not isinstance(error, item.expected_error):
                self.correct = False
        else:
            try:
                reason = item.check(out)
            except Exception as exc:  # a malformed output can trip an oracle
                reason = f"check raised {type(exc).__name__}: {exc}"
            if reason is not None:
                self.correct = False
        if reason is None:
            self.ref_times.append(dt * factor)
            return
        self.failed += 1
        self.ref_times.append(None)
        a = self.args
        print(
            f"FAILED {a.workload} seed {a.seed} round {rnd}: {item.label}: {reason} | "
            f"replay: python3 perfbench/run.py --workload {a.workload} --seed {a.seed} "
            f"--seconds {a.seconds:g} --trace 0",
            file=sys.stderr,
        )


def _setup_probe(args):
    """Set up in this fresh interpreter.  The reference is sampled here, on
    whatever core this process got, at its start and after the warm-up; the
    first sample's own duration is reported so that it can be left out."""
    start = time.monotonic()
    before = refclock.sample(PROBE_SAMPLE_S)
    sampling = time.monotonic() - start
    workloads = _import_workloads()
    workload = workloads.WORKLOADS[args.workload](args.seed, ROOT)
    workload.warm_up()
    done = time.monotonic()
    factor = refclock.factor(before, refclock.sample(PROBE_SAMPLE_S))
    print(json.dumps({"done": done, "sampling": sampling, "factor": factor}))


def _timed_setups(args):
    """Reference seconds from interpreter start to the end of warm-up, for
    SETUP_PROBES fresh interpreters."""
    out = []
    for _ in range(SETUP_PROBES):
        start = time.monotonic()
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--setup-probe",
             "--workload", args.workload, "--seed", str(args.seed)],
            capture_output=True, text=True, timeout=120, check=True,
        )
        probe = json.loads(proc.stdout.strip().splitlines()[-1])
        out.append((probe["done"] - start - probe["sampling"]) * probe["factor"])
    return out


@contextlib.contextmanager
def _tracing(workload, tracer):
    """Wrappers installed, and the workload's own counters routed to the
    tracer, for the duration of the block."""
    tracer.install()
    if hasattr(workload, "count"):
        workload.count = tracer.count
    try:
        yield
    finally:
        tracer.uninstall()
        if hasattr(workload, "count"):
            workload.count = None


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.setup_probe:
        _setup_probe(args)
        return 0

    t0 = time.perf_counter()
    workloads = _import_workloads()
    workload = workloads.WORKLOADS[args.workload](args.seed, ROOT)
    workload.warm_up()
    own_setup = time.perf_counter() - t0

    runner = Runner(args)
    deadline = time.perf_counter() + args.seconds
    rnd = 0
    if args.trace:
        tracer = tracing.Tracer()
        untraced = traced = 0.0
        traced_items = 0
        while rnd == 0 or time.perf_counter() < deadline:
            # the same items untraced, then traced: their difference is the
            # tracing overhead; generating them is not traced
            items = workload.round_items(rnd)
            untraced += runner.run_round(items, rnd)
            before = runner.attempted
            with _tracing(workload, tracer):
                traced += runner.run_round(items, rnd, tracer)
            traced_items += runner.attempted - before
            rnd += 1
        metrics = tracer.metrics(traced_items, traced, untraced)
        units = {name: unit for name, unit, _ in tracing.metric_specs()}
        tracer.write(os.path.join(HERE, "out", f"trace-{args.workload}.json"),
                     {"workload": args.workload, "seed": args.seed, "rounds": rnd,
                      "traced_items": traced_items})
    else:
        while time.perf_counter() < deadline or runner.attempted < MIN_ITEMS:
            runner.run_round(workload.round_items(rnd), rnd)
            rnd += 1
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        setups = _timed_setups(args)
        done = [t for t in runner.ref_times if t is not None]
        ranked = sorted(t if t is not None else math.inf for t in runner.ref_times)
        metrics = {
            "items_per_ref_s": len(done) / runner.ref_s,
            "item_ref_ms_p50": 1000 * _percentile(ranked, 0.5),
            "item_ref_ms_p90": 1000 * _percentile(ranked, 0.9),
            "peak_rss_mb": peak_rss_mb,
            "setup_s": statistics.median(setups),
        }
        units = END_TO_END_UNITS
        print(
            f"{args.workload} seed {args.seed}: {rnd} rounds, {runner.attempted} items, "
            f"{runner.failed} failed; items {runner.raw_s:.3f} s raw = {runner.ref_s:.3f} ref_s, "
            f"checks {runner.check_s:.3f} s raw; "
            f"set-up here {own_setup:.3f} s raw, probes {', '.join(f'{s:.3f}' for s in setups)} ref_s",
            file=sys.stderr,
        )

    result = {
        "correct": runner.correct,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if runner.correct else 1


if __name__ == "__main__":
    sys.exit(main())
