"""Cover generators, brute-force oracles, and the property-suite runner.

All randomness flows through random.Random(seed) (MT19937), so every cover and
every suite report replays exactly from its seed.  Generators measure what
they promise: random covers come back stamped with their measured
multiplicity, never an assumed one.
"""

from __future__ import annotations

import itertools
import math
import random
from collections import deque
from dataclasses import asdict, dataclass
from fractions import Fraction

from . import covering
from .covering import (
    HYPOTHESIS_VIOLATED,
    WITNESS_FOUND,
    LatticeCover,
    LatticeModel,
    PointCloudCover,
)
from .polytope import InputError, SimplePolytope


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

    Requires r divisible by 2n (documented precondition) and r > 2^(n-1) so
    the bricks stay strictly smaller than the cube.
    """
    if n < 1:
        raise InputError("n must be >= 1")
    if r % (2 * n) != 0:
        raise BadResolutionError(f"r={r} must be divisible by 2n={2 * n}")
    if r <= 2 ** (n - 1):
        raise BadResolutionError(f"r={r} too coarse for staggered bricks in n={n}")
    t = max(1, r // (2 ** n))
    sides = [2 ** (n - 1 - j) * t for j in range(n)]
    model = LatticeModel("cube", n, r)

    def containing_bricks(p):
        found = []

        def descend(axis, running, idx):
            if axis < 0:
                found.append(tuple(reversed(idx)))
                return
            q, rem = divmod(p[axis] - running, sides[axis])
            candidates = [q] + ([q - 1] if rem == 0 else [])
            for i in candidates:
                descend(axis - 1, running + i * sides[axis], idx + [i])

        descend(n - 1, 0, [])
        return found

    members = {}
    for p in model.points():
        for idx in containing_bricks(p):
            members.setdefault(idx, set()).add(p)
    sets = {
        "brick_" + "_".join(map(str, idx)): frozenset(pts)
        for idx, pts in sorted(members.items())
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


def _bfs_partition(model: LatticeModel, sources):
    """Multi-source BFS Voronoi cells; ties go to the earlier source."""
    owner = {}
    queue = deque()
    for idx, s in enumerate(sources):
        if s not in owner:
            owner[s] = idx
            queue.append(s)
    while queue:
        p = queue.popleft()
        for nb in model.neighbors(p):
            if nb not in owner:
                owner[nb] = owner[p]
                queue.append(nb)
    cells = [set() for _ in sources]
    for p, idx in owner.items():
        cells[idx].add(p)
    return [frozenset(c) for c in cells]


def _bfs_ball(model: LatticeModel, center, radius: int, allowed=None):
    """Graph ball of the given radius, optionally confined to `allowed`."""
    if allowed is not None and not allowed(center):
        return frozenset()
    seen = {center}
    frontier = [center]
    for _ in range(radius):
        nxt = []
        for p in frontier:
            for nb in model.neighbors(p):
                if nb in seen:
                    continue
                if allowed is not None and not allowed(nb):
                    continue
                seen.add(nb)
                nxt.append(nb)
        frontier = nxt
    return frozenset(seen)


def random_low_multiplicity_cover(
    model: LatticeModel, m: int, seed: int
) -> StampedCover:
    """A deterministic-from-seed full cover with multiplicity at most m.

    Layer 1 is a BFS Voronoi partition (for the cube with m >= 2 the sources
    sit on a random axis-parallel line, which makes every cell contain a full
    slice of the cube); layers 2..m are families of disjoint BFS balls, the
    first ball of every layer anchored at a common point so that the stamped
    multiplicity m is actually attained.
    """
    if m < 1:
        raise InputError("target multiplicity must be >= 1")
    rng = random.Random(seed)
    points = list(model.points())
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
    for i, cell in enumerate(_bfs_partition(model, sources)):
        if cell:
            sets[f"cell_{i}"] = cell

    anchor = rng.choice(points)
    for layer in range(1, m):
        used = set()
        for b in range(rng.randint(1, 3)):
            center = anchor if b == 0 else rng.choice(points)
            radius = rng.randint(1, max(1, model.r // 3))
            ball = _bfs_ball(model, center, radius) - used
            if ball:
                sets[f"ball_{layer}_{b}"] = frozenset(ball)
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
    points = list(model.points())
    radius_cap = max(1, model.r // 4)
    sets = {}
    for layer in range(k):
        blocked = set()
        for b in range(rng.randint(1, 2)):
            facet = rng.choice(model.facets())
            candidates = [
                p
                for p in points
                if not model.facet_contains(facet, p) and p not in blocked
            ]
            if not candidates:
                continue
            center = rng.choice(candidates)
            radius = rng.randint(1, radius_cap)
            ball = _bfs_ball(
                model,
                center,
                radius,
                allowed=lambda q: not model.facet_contains(facet, q)
                and q not in blocked,
            )
            if ball:
                sets[f"set_{layer}_{b}"] = ball
                blocked |= ball
                for p in ball:
                    blocked.update(model.neighbors(p))
    return LatticeCover(model, sets)


def dilated_partition_cover(model: LatticeModel, parts: int, seed: int) -> LatticeCover:
    """A BFS Voronoi partition into `parts` cells, each closed off by adding
    its graph neighbors.  The overlaps mimic a closed cover; the union is the
    whole model."""
    rng = random.Random(seed)
    points = list(model.points())
    sources = rng.sample(points, parts)
    cells = _bfs_partition(model, sources)
    sets = {}
    for i, cell in enumerate(cells):
        grown = set(cell)
        for p in cell:
            grown.update(model.neighbors(p))
        sets[f"part_{i}"] = frozenset(grown)
    return LatticeCover(model, sets)


def lattice_sample(p: SimplePolytope, resolution: int):
    """The rational points of P on the grid (1/resolution) Z^n.

    A grid point a / resolution lies in P iff D_F <u_F, a> + resolution N_F >= 0
    for every facet with offset N_F / D_F, so the scan runs over integer grid
    indices a.  The first n-1 indices range over P's bounding box; each facet
    then bounds the last index to an interval, and the points are emitted in
    lexicographic order of a.  Fractions are built once per grid value.
    """
    if resolution < 1:
        raise InputError("resolution must be >= 1")
    r = resolution
    lo = [min(v.coords[i] for v in p.vertices) for i in range(p.dim)]
    hi = [max(v.coords[i] for v in p.vertices) for i in range(p.dim)]
    ranges = [
        range(math.ceil(l * r), math.floor(h * r) + 1) for l, h in zip(lo, hi)
    ]
    facets = [
        ([c.denominator * x for x in u], r * c.numerator)
        for u, c in zip(p.normals, p.offsets)
    ]
    grid = {a: Fraction(a, r) for axis_range in ranges for a in axis_range}
    last = ranges[-1]
    sample = []
    for head in itertools.product(*ranges[:-1]):
        first, stop = last.start, last.stop
        for w, c in facets:
            # w[-1] * a_last + rest >= 0
            rest = sum(x * a for x, a in zip(w, head)) + c
            if w[-1] > 0:
                first = max(first, -(rest // w[-1]))
            elif w[-1] < 0:
                stop = min(stop, rest // -w[-1] + 1)
            elif rest < 0:
                stop = first
        coords = tuple(grid[a] for a in head)
        for a in range(first, stop):
            sample.append(coords + (grid[a],))
    return tuple(sample)


def polytope_sample_cover(
    p: SimplePolytope, resolution: int, m: int, seed: int
):
    """A multiplicity-<=m cover of the lattice sample of P: coordinate slabs
    (layer 1, a partition) plus up to m-1 layers of disjoint max-norm balls.

    Slabs and balls are cut on the integer grid indices of the sample points,
    where a ball of radius k / resolution has integer radius k.

    Returns (PointCloudCover, eps) with eps one full grid spacing.  A tilted
    facet plane can stay further than half a spacing from every grid plane on
    its polytope side, so facet contact is judged at one grid layer.
    """
    rng = random.Random(seed)
    sample = lattice_sample(p, resolution)
    if not sample:
        raise InputError("empty sample; raise the resolution")
    grid = [
        tuple(x.numerator * (resolution // x.denominator) for x in pt)
        for pt in sample
    ]
    axis = rng.randrange(p.dim)
    values = sorted({g[axis] for g in grid})
    nslabs = min(rng.randint(2, 3), len(values))
    cut_positions = sorted(rng.sample(range(1, len(values)), nslabs - 1))
    bounds = [0] + cut_positions + [len(values)]
    sets = {}
    for i in range(nslabs):
        first, last = values[bounds[i]], values[bounds[i + 1] - 1]
        pts = frozenset(
            pt for pt, g in zip(sample, grid) if first <= g[axis] <= last
        )
        if pts:
            sets[f"slab_{i}"] = pts

    for layer in range(1, m):
        used = set()
        for b in range(rng.randint(1, 2)):
            center = rng.choice(grid)
            radius = rng.randint(1, 2)
            ball = [
                i
                for i, g in enumerate(grid)
                if i not in used
                and all(abs(a - c) <= radius for a, c in zip(g, center))
            ]
            if ball:
                sets[f"ball_{layer}_{b}"] = frozenset(sample[i] for i in ball)
                used.update(ball)

    return PointCloudCover(sample, sets), Fraction(1, resolution)


def exhaustive_oracle_tiny() -> dict:
    """Enumerate every cover of the 2x2 point grid by up to 3 labeled nonempty
    sets; for multiplicity <= 2 confirm a spanning set exists, and check the
    lebesgue verifier agrees with the direct enumeration on every instance."""
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


def _validate_coloring(cover: LatticeCover, classes) -> bool:
    mult = covering.multiplicity(cover)
    if len(classes) != mult:
        return False
    union = set()
    for idx, cls in enumerate(classes):
        for piece in cls:
            if len(piece.cover_sets) != idx + 1:
                return False
            for name in piece.cover_sets:
                if not piece.points <= cover.sets[name]:
                    return False
            union |= piece.points
        for a, b in itertools.combinations(cls, 2):
            if a.points & b.points:
                return False
    return union == cover.union()


def _run_instance(config: SuiteConfig, iseed: int):
    v = config.verifier
    if v == "kkm_lebesgue":
        # polytope verifier: kind picks the base shape, r is the sample
        # resolution, each instance perturbs with its own seed
        from .polytope import construct_standard, perturb

        base = construct_standard(config.kind, config.n)
        p = perturb(base, Fraction(1, 100), seed=iseed)
        cover, eps = polytope_sample_cover(
            p, config.r, config.multiplicity or 2, iseed
        )
        report = covering.kkm_lebesgue_witness(p, cover, eps)
        ok = report.verdict == WITNESS_FOUND
        if ok:
            touched = report.payload["touched"]
            recomputed = covering.facet_touch_set(
                p, cover.sets[report.payload["set"]], eps
            )
            ok = (
                len(touched) >= config.n + 1
                and set(touched) == recomputed
                and all(
                    c is not None
                    for c in report.payload["certificates"].values()
                )
            )
        return report.verdict, ok
    model = LatticeModel(config.kind, config.n, config.r)
    if v == "lebesgue":
        stamped = random_low_multiplicity_cover(
            model, config.multiplicity or config.n, iseed
        )
        cover = stamped.cover
        if stamped.multiplicity != covering.multiplicity(cover):
            return "stamp_mismatch", False
        report = covering.lebesgue_witness(cover)
        ok = report.verdict == WITNESS_FOUND and covering.spans_pair(
            cover, report.payload["set"], report.payload["axis"]
        )
        return report.verdict, ok
    if v == "bricks_control":
        cover = shifted_brick_cover(config.n, config.r)
        no_span = not any(
            covering.spans_pair(cover, name, axis)
            for name in cover.sets
            for axis in range(config.n)
        )
        report = covering.lebesgue_witness(cover)
        ok = (
            report.verdict == HYPOTHESIS_VIOLATED
            and report.payload.get("multiplicity") == config.n + 1
            and no_span
        )
        return report.verdict, ok
    if v == "palais":
        stamped = random_low_multiplicity_cover(
            model, config.multiplicity or config.n, iseed
        )
        classes = covering.palais_coloring(stamped.cover)
        return "coloring", _validate_coloring(stamped.cover, classes)
    if v in ("kkm", "complement"):
        cover = random_small_set_family(model, config.k, iseed)
        witness = covering.kkm_witness if v == "kkm" else covering.complement_witness
        report = witness(cover, config.k)
        ok = report.verdict == WITNESS_FOUND
        if ok:
            comp = {tuple(q) for q in report.payload["component"]}
            faces = model.k_faces(config.k)
            if v == "complement":
                free = frozenset(report.payload["axes"])
                faces = [f for f in faces if f[0] == free]
            ok = comp <= covering.complement_points(cover) and all(
                any(model.face_contains(face, q) for q in comp) for face in faces
            )
        return report.verdict, ok
    if v == "axes":
        cover = dilated_partition_cover(model, config.n, iseed)
        report = covering.axes_witness(cover)
        ok = report.verdict == WITNESS_FOUND
        if ok:
            comp = {tuple(q) for q in report.payload["component"]}
            axis = report.payload["axis"]
            ok = (
                comp <= cover.sets[report.payload["set"]]
                and any(q[axis] == 0 for q in comp)
                and any(q[axis] == model.r for q in comp)
            )
        return report.verdict, ok
    raise InputError(f"unknown suite verifier: {v!r}")


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
