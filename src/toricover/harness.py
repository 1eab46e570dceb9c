"""Cover generators, brute-force oracles, and the property-suite runner.

All randomness flows through random.Random(seed) (MT19937), so every cover and
every suite report replays exactly from its seed.  Generators measure what
they promise: random covers come back stamped with their measured
multiplicity, never an assumed one.  Their Voronoi cells and balls are masks
grown by the model grid's one search, Grid.bfs.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import asdict, dataclass
from fractions import Fraction
from itertools import chain, repeat
from operator import floordiv, sub

from . import chow, covering
from .covering import (
    HYPOTHESIS_VIOLATED, WITNESS_FOUND, LatticeCover, LatticeModel, PointCloudCover, PointSet,
)
from .polytope import InputError, SimplePolytope, construct_standard, perturb

# random_low_multiplicity_cover holds at most m times the model's points and
# counts its multiplicity m layers deep; 20 * MAX_MODEL_POINTS admits m <= n+1
# on every model the covering caps accept (cube n <= 19, simplex n <= 18).
MAX_LAYERED_POINTS = 20 * covering.MAX_MODEL_POINTS


class BadResolutionError(InputError):
    """Resolution incompatible with the requested structured cover."""


@dataclass(frozen=True)
class StampedCover:
    """A generated cover together with its measured covering multiplicity."""

    cover: LatticeCover
    multiplicity: int


def shifted_brick_cover(n: int, r: int) -> LatticeCover:
    """The staggered brick pattern: small closed bricks, multiplicity n+1.

    Bricks are lattice translates of the box with side 2^(n-1-j) * t along
    axis j, where t = max(1, r // 2^n); translate (i_0..i_{n-1}) starts at
    start_j = sum_{l >= j} i_l * s_l, i.e. each finer layer shifts all coarser
    axes by half their period.  Every brick has extent at most r/2 along every
    axis (so none spans an opposite facet pair) and the closed pattern meets
    in at most n+1 bricks at any point, with n+1 attained.

    Each brick meeting the cube is the AND of its per-axis slabs
    [start_j, start_j + s_j], clipped to 0..r.

    Requires r divisible by 2n (documented precondition) and r > 2^(n-1) so
    the bricks stay strictly smaller than the cube.
    """
    model = LatticeModel("cube", n, r)
    if r % (2 * n) != 0:
        raise BadResolutionError(f"r={r} must be divisible by 2n={2 * n}")
    if r <= 2 ** (n - 1):
        raise BadResolutionError(f"r={r} too coarse for staggered bricks in n={n}")
    t = max(1, r // (2 ** n))
    sides = [2 ** (n - 1 - j) * t for j in range(n)]
    grid = model.grid()
    slabs = {}

    def slab(axis, lo, hi):
        key = (axis, max(lo, 0), min(hi, r))
        if key not in slabs:
            slabs[key] = grid.slab(*key)
        return slabs[key]

    bricks = []

    def descend(axis, running, idx, mask):
        # translates i along axis whose slab [running + i s, running + (i+1) s]
        # meets 0..r
        if axis < 0:
            bricks.append((tuple(reversed(idx)), mask))
            return
        s = sides[axis]
        for i in range(-((running + s) // s), (r - running) // s + 1):
            lo = running + i * s
            descend(axis - 1, lo, idx + [i], mask & slab(axis, lo, lo + s))

    descend(n - 1, 0, [], grid.full)
    sets = {
        "brick_" + "_".join(map(str, idx)): PointSet(grid, mask)
        for idx, mask in sorted(bricks)
    }
    return LatticeCover(model, sets)


def kkm_standard_cover(n: int, r: int) -> LatticeCover:
    """The extremal closed-star family on the simplex: X_i holds the points
    whose i-th barycentric coordinate is maximal.

    Each X_i misses the facet {a_i = 0} once r >= n+1, and the multiplicity
    n+1 is attained at the barycenter whenever n+1 divides r.
    """
    model = LatticeModel("simplex", n, r)
    sets = {}
    for i in range(n + 1):
        sets[f"star_{i}"] = frozenset(
            p for p in model.points() if all(p[i] >= p[j] for j in range(n + 1))
        )
    return LatticeCover(model, sets)


def random_low_multiplicity_cover(
    model: LatticeModel, m: int, seed: int
) -> StampedCover:
    """A deterministic-from-seed full cover with multiplicity at most m.

    Layer 1 is a BFS Voronoi partition (for the cube with m >= 2 the sources
    sit on a random axis-parallel line, which makes every cell contain a full
    slice of the cube); layers 2..m are families of disjoint BFS balls, the
    first ball of every layer anchored at a common point so that the stamped
    multiplicity m is actually attained.  The balls of a layer are disjoint,
    so the sets hold at most m times the model's points, and the layering
    that counts their multiplicity runs over up to m layers per set; m times
    the larger of m and the model's points is at most MAX_LAYERED_POINTS.
    """
    if m < 1:
        raise InputError("target multiplicity must be >= 1")
    points = model.points()
    if m * max(m, len(points)) > MAX_LAYERED_POINTS:
        raise InputError(
            f"target multiplicity m={m} times max(m, {len(points)} model points)"
            f" is more than {MAX_LAYERED_POINTS}"
        )
    rng = random.Random(seed)
    grid = model.grid()
    sets = {}

    if model.kind == "cube" and m >= 2 and model.n >= 2:
        axis = rng.randrange(model.n)
        count = rng.randint(2, min(4, model.r + 1))
        positions = sorted(rng.sample(range(model.r + 1), count))
        center = tuple(rng.randint(0, model.r) for _ in range(model.n))
        sources = [center[:axis] + (x,) + center[axis + 1:] for x in positions]
    else:
        count = rng.randint(2, min(len(points), 2 * model.n + 2))
        sources = rng.sample(points, count)
    for i, cell in enumerate(grid.bfs([grid.bit(s) for s in sources])):
        if cell:
            sets[f"cell_{i}"] = PointSet(grid, cell)

    anchor = rng.choice(points)
    for layer in range(1, m):
        used = 0
        for b in range(rng.randint(1, 3)):
            center = anchor if b == 0 else rng.choice(points)
            radius = rng.randint(1, max(1, model.r // 3))
            ball = grid.bfs([grid.bit(center)], radius)[0] & ~used
            if ball:
                sets[f"ball_{layer}_{b}"] = PointSet(grid, ball)
                used |= ball

    cover = LatticeCover(model, sets)
    return StampedCover(cover, covering.multiplicity(cover))


def random_small_set_family(model: LatticeModel, k: int, seed: int) -> LatticeCover:
    """k layers of one or two separated small BFS balls, each ball missing one
    facet.

    Balls are grown inside the complement of a randomly chosen facet and
    capped at radius r//4, so on the cube no ball can span an opposite facet
    pair and on the simplex every ball misses a facet.  Multiplicity is at
    most k by the layer structure.  The family does not cover the model.

    Within a layer balls keep graph distance at least 2 from each other:
    disjoint closed sets have positive distance, and two merely disjoint but
    adjacent lattice balls would act as one merged wall with no complement
    gap between them, which no pair of disjoint closed sets can imitate.
    """
    rng = random.Random(seed)
    grid = model.grid()
    radius_cap = max(1, model.r // 4)
    sets = {}
    for layer in range(k):
        blocked = 0
        for b in range(rng.randint(1, 2)):
            facet = rng.choice(model.facets())
            allowed = grid.full & ~grid.facets[facet] & ~blocked
            if not allowed:
                continue
            # the same draw as rng.choice over the list of allowed points
            center = _nth_bit(allowed, rng.choice(range(allowed.bit_count())))
            radius = rng.randint(1, radius_cap)
            ball = grid.bfs([center], radius, allowed)[0]
            sets[f"set_{layer}_{b}"] = PointSet(grid, ball)
            blocked |= ball | grid.expand(ball)
    return LatticeCover(model, sets)


def _nth_bit(mask: int, j: int) -> int:
    """The position of the j-th (from 0) set bit of mask, by bisection on
    the count of set bits below a position."""
    # kept over islice(_bits_of(mask), j, None): lattice_suite read 474-483
    # items_per_ref_s with the bisection, 423-438 without (2 shared cores)
    lo, hi = 0, mask.bit_length()
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if (mask & ((1 << mid) - 1)).bit_count() > j:
            hi = mid
        else:
            lo = mid
    return lo


def dilated_partition_cover(model: LatticeModel, parts: int, seed: int) -> LatticeCover:
    """A BFS Voronoi partition into `parts` cells, each closed off by adding
    its graph neighbors.  The overlaps mimic a closed cover; the union is the
    whole model."""
    rng = random.Random(seed)
    grid = model.grid()
    sources = rng.sample(model.points(), parts)
    cells = grid.bfs([grid.bit(s) for s in sources])
    sets = {
        f"part_{i}": PointSet(grid, cell | grid.expand(cell)) for i, cell in enumerate(cells)
    }
    return LatticeCover(model, sets)


def lattice_sample(p: SimplePolytope, resolution: int, columns: list | None = None):
    """The rational points of P on the grid (1/resolution) Z^n.

    A grid point a / resolution lies in P iff D_F <u_F, a> + resolution N_F >= 0
    for every facet with offset N_F / D_F, so the scan runs over integer grid
    indices a.  The heads, the first n-1 indices, range over P's bounding
    box; each facet then tightens every head's interval on the last index in
    one pass over all heads, and the points are emitted in lexicographic
    order of a.  Fractions are built once per grid value.  When columns is a
    list, it is extended with the n numerator columns over resolution:
    column k holds a_k of every point, in point order, as Sample.from_grid
    takes them.
    """
    if resolution < 1:
        raise InputError("resolution must be >= 1")
    r = resolution
    # per axis, ceil(r x) .. floor(r x) over the vertices' coordinates x
    ranges = [
        range(-max(-r * x.numerator // x.denominator for x in axis),
              max(r * x.numerator // x.denominator for x in axis) + 1)
        for axis in zip(*(v.coords for v in p.vertices))
    ]
    *head_ranges, last = ranges
    first = [last.start] * math.prod(map(len, head_ranges))
    stop = [last.stop] * len(first)
    for u, c in zip(p.normals, p.offsets):
        # w_last a_last + x >= 0 with x = <w_head, head> + b
        *w_head, w_last = (c.denominator * x for x in u)
        b = r * c.numerator
        if w_last > 0:
            # a_last >= ceil(-x / w_last) = floor((w_last - 1 - x) / w_last)
            bound = _head_sums([-x for x in w_head], head_ranges, w_last - 1 - b)
            first = list(map(max, first, map(floordiv, bound, repeat(w_last))))
        elif w_last < 0:
            # a_last < floor(x / -w_last) + 1 = floor((x - w_last) / -w_last)
            bound = _head_sums(w_head, head_ranges, b - w_last)
            stop = list(map(min, stop, map(floordiv, bound, repeat(-w_last))))
        else:
            rest = _head_sums(w_head, head_ranges, b)
            stop = [s if x >= 0 else last.start for s, x in zip(stop, rest)]
    counts = list(map(sub, stop, first))  # <= 0 on an empty interval: no point
    head_columns = list(zip(*itertools.product(*head_ranges))) or [()] * (p.dim - 1)
    cols = [list(chain.from_iterable(map(repeat, col, counts))) for col in head_columns]
    cols.append(list(chain.from_iterable(map(range, first, stop))))
    if columns is not None:
        columns.extend(cols)
    frac = {a: Fraction(a, r) for axis_range in ranges for a in axis_range}
    return tuple(zip(*(map(frac.__getitem__, col) for col in cols)))


def _head_sums(w: list, ranges: list, b: int):
    """<w, h> + b for every head h of the product of ranges, in product order."""
    axes = ([x * a for a in axis_range] for x, axis_range in zip(w, ranges))
    return map(sum, itertools.product(*axes, (b,)))


def polytope_sample_cover(
    p: SimplePolytope, resolution: int, m: int, seed: int
):
    """A multiplicity-<=m cover of the lattice sample of P: coordinate slabs
    (layer 1, a partition) plus up to m-1 layers of disjoint max-norm balls.

    The sample is a Sample.from_grid of the scan's numerator columns, and
    every set is a mask over them: a slab is one column's interval mask, a
    ball of radius k / resolution the AND of the intervals [c_j - k, c_j + k]
    over the columns, less the balls already in its layer.  A ball's centre
    is drawn as a point position and its numerators c_j read off the columns.

    Returns (PointCloudCover, eps) with eps one full grid spacing.  A tilted
    facet plane can stay further than half a spacing from every grid plane on
    its polytope side, so facet contact is judged at one grid layer.
    """
    rng = random.Random(seed)
    columns = []
    points = lattice_sample(p, resolution, columns=columns)
    sample = covering.Sample.from_grid(points, columns, resolution)
    if not sample.points:
        raise InputError("empty sample; raise the resolution")
    axis = rng.randrange(p.dim)
    values = sorted(set(columns[axis]))
    nslabs = min(rng.randint(2, 3), len(values))
    cut_positions = sorted(rng.sample(range(1, len(values)), nslabs - 1))
    bounds = [0] + cut_positions + [len(values)]
    sets = {}
    for i in range(nslabs):
        first, last = values[bounds[i]], values[bounds[i + 1] - 1]
        sets[f"slab_{i}"] = PointSet(sample, sample.slab(axis, first, last))

    for layer in range(1, m):
        used = 0
        for b in range(rng.randint(1, 2)):
            # the same draw as rng.choice over the list of points
            center = rng.choice(range(len(points)))
            radius = rng.randint(1, 2)
            ball = sample.full & ~used
            for k, col in enumerate(columns):
                ball &= sample.slab(k, col[center] - radius, col[center] + radius)
            if ball:
                sets[f"ball_{layer}_{b}"] = PointSet(sample, ball)
                used |= ball

    return PointCloudCover(sample.points, sets), Fraction(1, resolution)


def exhaustive_oracle_tiny() -> dict:
    """Enumerate every cover of the 2x2 point grid by up to 3 labeled nonempty
    sets; violations is 0 by pigeonhole (some set holds two points, spanning an
    axis), so what counts is the lebesgue verifier's agreement with enumeration."""
    model = LatticeModel("cube", 2, 1)
    points = list(model.points())
    total = checked = violations = mismatches = 0
    for nsets in (1, 2, 3):
        options = [
            frozenset(c)
            for size in range(1, nsets + 1)
            for c in itertools.combinations(range(nsets), size)
        ]
        for assignment in itertools.product(options, repeat=len(points)):
            sets = {
                f"X{i}": frozenset(
                    p for p, mem in zip(points, assignment) if i in mem
                )
                for i in range(nsets)
            }
            if any(not pts for pts in sets.values()):
                continue
            total += 1
            mult = max(len(mem) for mem in assignment)
            report = covering.lebesgue_witness(LatticeCover(model, sets))
            if mult <= 2:
                checked += 1
                spanning = any(
                    (any(p[axis] == 0 for p in pts) and any(p[axis] == 1 for p in pts))
                    for pts in sets.values()
                    for axis in (0, 1)
                )
                if not spanning:
                    violations += 1
                if (report.verdict == WITNESS_FOUND) != spanning:
                    mismatches += 1
            else:
                if report.verdict != HYPOTHESIS_VIOLATED:
                    mismatches += 1
    return {
        "instances": total,
        "checked_low_multiplicity": checked,
        "violations": violations,
        "verifier_mismatches": mismatches,
    }


@dataclass(frozen=True)
class SuiteConfig:
    verifier: str
    kind: str
    n: int
    r: int
    instances: int
    seed: int
    multiplicity: int = 0
    k: int = 0

    def __post_init__(self):
        if self.instances < 1:
            raise InputError("instances must be positive")
        if self.verifier not in _SUITE:
            raise InputError(f"unknown suite verifier: {self.verifier!r}")


def _validate_coloring(cover: LatticeCover, classes) -> bool:
    mult = covering.multiplicity(cover)
    if len(classes) != mult:
        return False
    union = 0
    for idx, cls in enumerate(classes):
        seen = 0
        for piece in cls:
            if len(piece.cover_sets) != idx + 1:
                return False
            for name in piece.cover_sets:
                if not piece.points <= cover.sets[name]:
                    return False
            # disjoint from every earlier piece of the class
            if piece.points.mask & seen:
                return False
            seen |= piece.points.mask
        union |= seen
    return union == cover.union().mask


def _model(config: SuiteConfig):
    return LatticeModel(config.kind, config.n, config.r)


def _random_cover(config: SuiteConfig, iseed: int):
    m = config.multiplicity or config.n
    return (random_low_multiplicity_cover(_model(config), m, iseed).cover,)


def _sample_cover(config: SuiteConfig, iseed: int):
    """kind is the base shape, r the resolution; each seed tilts its own."""
    p = perturb(construct_standard(config.kind, config.n), Fraction(1, 100), seed=iseed)
    return (p, *polytope_sample_cover(p, config.r, config.multiplicity or 2, iseed))


def _meets_its_faces(payload, cover, k):
    """The component lies in the complement and meets every k-face whose
    coordinates avoid the free axes (a kkm payload has none)."""
    comp, free, model = payload["component"], payload.get("axes", ()), cover.model
    faces = [f for f in model.k_faces(k) if all(c not in free for c, _ in f)]
    return comp <= covering.complement_points(cover) and all(
        any(model.face_contains(face, q) for q in comp) for face in faces
    )


def _spans_its_axis(payload, cover):
    comp, axis = payload["component"], payload["axis"]
    ends = (any(q[axis] == end for q in comp) for end in (0, cover.model.r))
    return comp <= cover.sets[payload["set"]] and all(ends)


def _no_span(payload, cover):
    n = cover.model.n
    return payload.get("multiplicity") == n + 1 and not any(
        covering.spans_pair(cover, name, axis) for name in cover.sets for axis in range(n)
    )


def _essential(payload, p, cover, eps):
    touched = covering.facet_touch_set(p, cover.sets[payload["set"]], eps)
    return (
        set(payload["touched"]) == touched
        and chow.avoidance_certificate(p, chow.ample_from_offsets(p), touched) is None
        and None not in payload["certificates"].values()
    )


# suite verifier: (instance generator, covering.THEOREMS key, expected
# verdict, re-check).  A generator maps the config and the instance seed to
# the witness function's arguments, the re-check takes the report's payload
# and those arguments; palais, with no theorem, checks palais_coloring.
_SUITE = {
    "kkm_lebesgue": (_sample_cover, "kkm-lebesgue", WITNESS_FOUND, _essential),
    "lebesgue": (
        _random_cover, "lebesgue", WITNESS_FOUND,
        lambda payload, cover: covering.spans_pair(cover, payload["set"], payload["axis"]),
    ),
    "bricks_control": (lambda c, i: (shifted_brick_cover(c.n, c.r),),
                       "lebesgue", HYPOTHESIS_VIOLATED, _no_span),
    "palais": (_random_cover, None, "coloring",
               lambda classes, cover: _validate_coloring(cover, classes)),
    "kkm": (lambda c, i: (random_small_set_family(_model(c), c.k, i), c.k),
            "kkm", WITNESS_FOUND, _meets_its_faces),
    "complement": (lambda c, i: (random_small_set_family(_model(c), c.k, i), c.k),
                   "complement", WITNESS_FOUND, _meets_its_faces),
    "axes": (lambda c, i: (dilated_partition_cover(_model(c), c.n, i),),
             "axes", WITNESS_FOUND, _spans_its_axis),
}


def _run_instance(config: SuiteConfig, iseed: int):
    """(verdict, ok) of one seeded instance of the config's suite verifier."""
    generate, theorem, verdict, recheck = _SUITE[config.verifier]
    inputs = generate(config, iseed)
    if theorem is None:
        return verdict, recheck(covering.palais_coloring(*inputs), *inputs)
    report = getattr(covering, covering.THEOREMS[theorem][0])(*inputs)
    return report.verdict, report.verdict == verdict and recheck(report.payload, *inputs)


def run_property_suite(config: SuiteConfig) -> dict:
    """Run the configured verifier over seeded generated instances.

    The report is deterministic given (seed, config) and carries the per
    instance seeds for replay; ok is False as soon as any instance produces a
    counterexample candidate or fails re-validation.
    """
    records = []
    counts = {}
    for i in range(config.instances):
        iseed = config.seed + i
        verdict, ok = _run_instance(config, iseed)
        counts[verdict] = counts.get(verdict, 0) + 1
        records.append({"instance": i, "seed": iseed, "verdict": verdict, "ok": ok})
    failures = [rec["instance"] for rec in records if not rec["ok"]]
    return {
        "config": asdict(config),
        "instances": records,
        "counts": counts,
        "failures": failures,
        "ok": not failures,
    }
