#!/usr/bin/env python3
"""Time the two ways a lattice point set's mask is enumerated, per density.

    PYTHONPATH=src python3 scripts/mask_scale.py --repeat 5

A PointSet is iterated through Grid.points_of, which reads a mask's set
bits one of two ways: by selector bytes (itertools.compress over the
grid's per-cell tuple of points, steered by the mask's binary digits) or by
gaps (the set bits read off the runs of zeros between them, each then
indexing the per-cell tuple).  The first costs per bit of the mask's span,
the second per set bit, so which one is cheaper depends on the share of
set bits in the span, the density.  covering._dense picks the selector
bytes from a density of 1/16 on.

For cube n=3 r=18 and simplex n=3 r=24 (--cube and --simplex change them),
and for each share of the model's points drawn at random with seed 1, the
script prints one Markdown table row: the model, the share of points drawn,
the set bits, the density (set bits over the bit length), the best of
--repeat enumerations into a list by each way in microseconds, and the way
points_of takes.  Uses the standard library only.
"""

import argparse
import random
import time

from toricover import covering

SHARES = (1 / 256, 1 / 64, 1 / 32, 1 / 24, 1 / 16, 1 / 12, 1 / 8, 1 / 4, 1 / 2, 1)


def model_arg(kind):
    def parse(text):
        n, r = map(int, text.split(","))
        return covering.LatticeModel(kind, n, r)
    return parse


def best_us(call, repeat):
    """The best of repeat wall times of call(), in microseconds."""
    times = []
    for _ in range(repeat):
        start = time.perf_counter()
        call()
        times.append(time.perf_counter() - start)
    return 1e6 * min(times)


def rows(model, repeat):
    grid = model.grid()
    by_cell = grid._point_at
    rng = random.Random(1)
    cells = list(covering._bits_of(grid.full))
    for share in SHARES:
        drawn = [c for c in cells if rng.random() < share]
        mask = covering._mask(drawn) if share < 1 else grid.full
        ways = (lambda: list(map(by_cell.__getitem__, covering._bits_of(mask))),
                lambda: list(covering._by_selectors(by_cell, mask)))
        want = list(grid.points_of(mask))
        assert all(way() == want for way in ways)
        gaps, selectors = (best_us(way, repeat) for way in ways)
        taken = "selectors" if covering._dense(mask.bit_count(), mask.bit_length()) else "gaps"
        name = f"{model.kind} n={model.n} r={model.r}"
        density = mask.bit_count() / max(mask.bit_length(), 1)
        yield (f"| {name} | 1/{round(1 / share)} | {mask.bit_count()} | {density:.3f} |"
               f" {gaps:.1f} | {selectors:.1f} | {taken} |")


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--cube", type=model_arg("cube"), default="3,18", help="n,r of the cube")
    ap.add_argument("--simplex", type=model_arg("simplex"), default="3,24",
                    help="n,r of the simplex")
    ap.add_argument("--repeat", type=int, default=5, help="runs per way, the best one shown")
    args = ap.parse_args()
    if args.repeat < 1:
        ap.error("--repeat must be at least 1")
    print("| model | share | set bits | density | gaps µs | selectors µs | points_of |")
    print("|---|---|---|---|---|---|---|")
    for model in (args.cube, args.simplex):
        for row in rows(model, args.repeat):
            print(row, flush=True)


if __name__ == "__main__":
    main()
