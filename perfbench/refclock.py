"""Reference time: wall time corrected for the host's drifting speed.

On a shared host the speed of one core wanders by up to a half over seconds
to minutes, and the same work can take 0.8 s in one process and 1.3 s in the
next.  A fixed stdlib loop whose instruction mix resembles the program's
(Fraction arithmetic, tuple building, dict churn) is timed right before and
right after each group of measured work.  The work's wall time is then
scaled by the loop's nominal duration over its measured duration, which
reads the same on a fast or a slow stretch of the host.
"""

from __future__ import annotations

import time
from fractions import Fraction

CHUNK_REPS = 400
NOMINAL_CHUNK_S = 0.004
"""Nominal seconds of one reference chunk: one reference second is the time
the host needs for 1 / NOMINAL_CHUNK_S chunks."""

MIN_SAMPLE_S = 0.015
SHARE = 0.2
"""Each sample after a group lasts at least SHARE of the group's wall time,
so that long items are surrounded by enough reference time."""


def reference_chunk(reps=CHUNK_REPS):
    acc = Fraction(0)
    table = {}
    for i in range(reps):
        f = Fraction(i % 7 + 1, i % 5 + 2)
        acc += f * f - Fraction(1, 3)
        key = (i % 11, i % 13, acc.denominator)
        table[key] = table.get(key, 0) + 1
        if len(table) > 64:
            table.clear()
    return acc


def sample(min_seconds=MIN_SAMPLE_S):
    """Run reference chunks for at least min_seconds (two at the least);
    return the measured seconds per chunk."""
    chunks = 0
    start = time.perf_counter()
    while True:
        reference_chunk()
        chunks += 1
        elapsed = time.perf_counter() - start
        if chunks >= 2 and elapsed >= min_seconds:
            return elapsed / chunks


def factor(before, after):
    """Reference seconds per wall second for work between two samples."""
    return NOMINAL_CHUNK_S / ((before + after) / 2)


def after_sample(wall_seconds):
    """The sample that closes a group of the given wall duration."""
    return sample(max(MIN_SAMPLE_S, SHARE * wall_seconds))
