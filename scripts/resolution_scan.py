#!/usr/bin/env python3
"""Probe how lattice resolution affects the discrete witness searches.

Nothing is known a priori about the resolution needed for the discrete
analogues to hold; this experiment scans r for the random suites and reports
the verdict mix per resolution, so counterexample candidates (if any resolution
produces them) show up with replayable seeds.  A verifier whose model the
size caps refuse at some r is printed as skipped, with the cap's message.
"""

import argparse

from toricover import InputError, SuiteConfig, run_property_suite


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--n", type=int, default=2)
    ap.add_argument("--instances", type=int, default=50)
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()

    for r in (4, 8, 12, 16, 24):
        row = []
        for verifier, kind, extra in (
            ("lebesgue", "cube", {"multiplicity": args.n}),
            ("axes", "cube", {}),
            ("kkm", "simplex", {"k": args.n}),
        ):
            config = SuiteConfig(
                verifier=verifier, kind=kind, n=args.n, r=r,
                instances=args.instances, seed=args.seed, **extra,
            )
            try:
                report = run_property_suite(config)
            except InputError as exc:
                row.append(f"{verifier}: skipped ({exc})")
                continue
            fails = len(report["failures"])
            row.append(f"{verifier}: {args.instances - fails}/{args.instances}")
            if fails:
                seeds = [config.seed + i for i in report["failures"][:3]]
                row[-1] += f" (replay seeds {seeds})"
        print(f"r={r:>3}  " + "   ".join(row))


if __name__ == "__main__":
    main()
