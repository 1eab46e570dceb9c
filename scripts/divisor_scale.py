#!/usr/bin/env python3
"""Time the divisor ring on seeded perturbed cubes, one row per dimension.

    PYTHONPATH=src python3 scripts/divisor_scale.py --max-n 8

For n = 2..N the script builds the cube Q^n, perturbs it with budget 1/100
and seed 1, and takes the top self-intersection H^n of its ample class H
(ample_from_offsets, then self_intersection_top).  It also takes the ring
presentation of Q^n (chow.presentation).  It prints one Markdown table row
per n, with the time of each step in seconds, timed once.  The perturb
column includes the genericity check, and the genericity column is that
check's share of it.  The H^n column includes building the polytope's
vertex cones, since the first query on a polytope builds them.  Uses the
standard library only.
"""

import argparse
import time
from fractions import Fraction

from toricover import chow, polytope

BUDGET = Fraction(1, 100)
SEED = 1


def timed(call, *args, **kwargs):
    """(result, seconds) of one call."""
    start = time.perf_counter()
    result = call(*args, **kwargs)
    return result, time.perf_counter() - start


def perturb_with_check_time(base):
    """(perturbed, seconds in perturb, seconds in its genericity checks).

    perturb looks generic_normals_check up on the polytope module when it
    runs, so a timing wrapper put there for the call sees every check."""
    check = polytope.generic_normals_check
    spent = []

    def timed_check(p):
        result, seconds = timed(check, p)
        spent.append(seconds)
        return result

    polytope.generic_normals_check = timed_check
    try:
        p, seconds = timed(polytope.perturb, base, BUDGET, seed=SEED)
    finally:
        polytope.generic_normals_check = check
    return p, seconds, sum(spent)


def row(n):
    base, construct = timed(polytope.construct_standard, "cube", n)
    p, perturb, generic = perturb_with_check_time(base)
    _, top = timed(lambda: chow.self_intersection_top(p, chow.ample_from_offsets(p)))
    _, ring = timed(chow.presentation, base)
    return f"| Q^{n} | {construct:.4f} | {perturb:.4f} | {generic:.4f} | {top:.4f} | {ring:.4f} |"


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--max-n", type=int, default=6, help="largest dimension (at least 2)")
    args = ap.parse_args()
    if args.max_n < 2:
        ap.error("--max-n must be at least 2")
    print("| polytope | construct | perturb | genericity | H^n | presentation |")
    print("|---|---|---|---|---|---|")
    for n in range(2, args.max_n + 1):
        print(row(n), flush=True)


if __name__ == "__main__":
    main()
