#!/usr/bin/env python3
"""Time the sample lab on seeded perturbed polytopes, one row per resolution.

    PYTHONPATH=src python3 scripts/sample_scale.py --max-r 12

For each of Q^3, Q^4 and Delta^3, perturbed with budget 1/100 and seed 1,
and each resolution r = 2..R, the script takes the multiplicity-2 sample
cover polytope_sample_cover(p, r, 2, seed 1) and runs kkm_lebesgue_witness
on it with the cover's eps, as the sample_cover benchmark's items do.  It
prints one Markdown table row per polytope and r: the points kept, then
the three stages of an item layer by layer, in milliseconds: the perturb
time, the lattice_sample time and the rest of polytope_sample_cover (the
Sample and its slab and ball masks), and the kkm_lebesgue_witness time.
Each is the best of --repeat runs on a freshly perturbed polytope, so that
no run reads what an earlier one left on the polytope or the sample.  A cover
whose sample is empty gets dashes.  Uses the standard library only.

The best of --repeat runs is taken inside one process, which does not absorb
the host's drift between one invocation and the next.  A before/after table
therefore needs fresh processes, alternated per shape: run the script once
per checkout and shape in turn (parent, change, parent, change, ...), each
with PYTHONPATH at that checkout's src, and compare the rows of the same
shape across the invocations.
"""

import argparse
import time
from fractions import Fraction

from toricover import covering, harness, polytope
from toricover.polytope import InputError

BUDGET = Fraction(1, 100)
SEED = 1
SHAPES = [("Q^3", "cube", 3), ("Q^4", "cube", 4), ("Delta^3", "simplex", 3)]


def timed(call, *args):
    """(result, milliseconds) of one call."""
    start = time.perf_counter()
    result = call(*args)
    return result, 1000 * (time.perf_counter() - start)


def one_run(base, r):
    """(points kept, perturb ms, scan ms, sample and mask ms, witness ms) of
    one item, or None when its sample is empty.

    polytope_sample_cover looks lattice_sample up on the harness module when
    it runs, so a timing wrapper put there for the call sees the scan."""
    p, tilt = timed(lambda: polytope.perturb(base, BUDGET, seed=SEED))
    scan = harness.lattice_sample
    spent = []

    def timed_scan(*args, **kwargs):
        start = time.perf_counter()
        result = scan(*args, **kwargs)
        spent.append(1000 * (time.perf_counter() - start))
        return result

    harness.lattice_sample = timed_scan
    try:
        (cover, eps), total = timed(harness.polytope_sample_cover, p, r, 2, SEED)
    except InputError:
        return None
    finally:
        harness.lattice_sample = scan
    _, witness = timed(covering.kkm_lebesgue_witness, p, cover, eps)
    return len(cover.sample), tilt, spent[0], total - spent[0], witness


def row(name, base, r, repeat):
    runs = [one_run(base, r) for _ in range(repeat)]
    if runs[0] is None:
        return f"| {name} | {r} | 0 | — | — | — | — |"
    kept = runs[0][0]
    times = (min(run[k] for run in runs) for k in (1, 2, 3, 4))
    return f"| {name} | {r} | {kept} | " + " | ".join(f"{t:.3f}" for t in times) + " |"


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--max-r", type=int, default=8, help="largest resolution (at least 2)")
    ap.add_argument("--repeat", type=int, default=5, help="runs per row, the best one shown")
    args = ap.parse_args()
    if args.max_r < 2:
        ap.error("--max-r must be at least 2")
    if args.repeat < 1:
        ap.error("--repeat must be at least 1")
    print("| polytope | r | points | perturb | lattice_sample | sample and masks | witness |")
    print("|---|---|---|---|---|---|---|")
    for name, kind, n in SHAPES:
        base = polytope.construct_standard(kind, n)
        for r in range(2, args.max_r + 1):
            print(row(name, base, r, args.repeat), flush=True)


if __name__ == "__main__":
    main()
