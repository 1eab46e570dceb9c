"""Discrete lattice models of coverings of the cube and the simplex.

Points of the cube model are integer tuples in {0..r}^n with +-1 adjacency in
one coordinate; points of the simplex model are the nonnegative integer
(n+1)-tuples summing to r, adjacent when one unit moves between two
coordinates.  Covering sets are arbitrary point sets; "closed" has no separate
encoding, membership is the whole story.  Connected components under this
adjacency come from one flood fill.  Verifiers search for the witness a
covering theorem promises and report a counterexample candidate verbatim when
none exists; they never assert the continuous statement.

A facet is a coordinate equation (coordinate, value): the cube has (axis, 0)
and (axis, r) for each axis, the simplex (j, 0) for each coordinate j.  A face
is the tuple of the facets that cut it out, as in polytope.faces.  A model
holds at most MAX_MODEL_POINTS points.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache

from . import chow
from .polytope import InputError, SimplePolytope


class BadSampleError(InputError):
    """Point-cloud cover violates the sample structure preconditions."""


class WrongArityError(InputError):
    """axes verifier needs exactly n covering sets."""


WITNESS_FOUND = "witness_found"
HYPOTHESIS_VIOLATED = "hypothesis_violated"
COUNTEREXAMPLE_CANDIDATE = "counterexample_candidate"

MAX_MODEL_POINTS = 10**6


@dataclass(frozen=True)
class LatticeModel:
    kind: str
    n: int
    r: int

    def __post_init__(self):
        if self.kind not in ("cube", "simplex"):
            raise InputError(f"unknown lattice model kind: {self.kind!r}")
        if self.n < 1 or self.r < 1:
            raise InputError("need n >= 1 and r >= 1")
        # (r+1)^n or C(n+r, n) as a running product, stopped once past the
        # cap; the binomial runs over the smaller of n and r
        if self.kind == "cube":
            factors = ((self.r + 1, 1) for _ in range(self.n))
        else:
            lo, hi = sorted((self.n, self.r))
            factors = ((hi + i, i) for i in range(1, lo + 1))
        count = 1
        for num, den in factors:
            count = count * num // den
            if count > MAX_MODEL_POINTS:
                raise InputError(f"{self} has more than {MAX_MODEL_POINTS} points")

    def points(self):
        return _model_points(self)

    def neighbors(self, p):
        if self.kind == "cube":
            for j in range(self.n):
                if p[j] > 0:
                    yield p[:j] + (p[j] - 1,) + p[j + 1:]
                if p[j] < self.r:
                    yield p[:j] + (p[j] + 1,) + p[j + 1:]
        else:
            for i in range(self.n + 1):
                if p[i] == 0:
                    continue
                for j in range(self.n + 1):
                    if i != j:
                        q = list(p)
                        q[i] -= 1
                        q[j] += 1
                        yield tuple(q)

    def facets(self):
        """The facet equations (coordinate, value): (axis, 0) and (axis, r)
        for each cube axis, (j, 0) for each simplex coordinate."""
        if self.kind == "cube":
            return [(axis, val) for axis in range(self.n) for val in (0, self.r)]
        return [(j, 0) for j in range(self.n + 1)]

    def k_faces(self, k: int):
        """The k-faces, each the tuple of the n-k facets that cut it out: the
        (n-k)-subsets of facets() whose equations sit on distinct
        coordinates, enumerated as n-k coordinates and one equation on each."""
        if not 0 <= k <= self.n:
            raise InputError(f"face dimension {k} out of range 0..{self.n}")
        by_coord = [
            list(eqs) for _, eqs in itertools.groupby(self.facets(), key=lambda f: f[0])
        ]
        return [
            face
            for chosen in itertools.combinations(by_coord, self.n - k)
            for face in itertools.product(*chosen)
        ]

    def face_contains(self, face, p) -> bool:
        return all(p[c] == v for c, v in face)


@lru_cache(maxsize=None)
def _model_points(model: LatticeModel):
    if model.kind == "cube":
        return tuple(itertools.product(range(model.r + 1), repeat=model.n))
    pts = []

    def build(prefix, remaining, slots):
        if slots == 1:
            pts.append(prefix + (remaining,))
            return
        for a in range(remaining + 1):
            build(prefix + (a,), remaining - a, slots - 1)

    build((), model.r, model.n + 1)
    return tuple(pts)


@dataclass(frozen=True)
class LatticeCover:
    model: LatticeModel
    sets: dict = field(default_factory=dict)

    def __post_init__(self):
        coerced = {name: frozenset(pts) for name, pts in self.sets.items()}
        object.__setattr__(self, "sets", coerced)
        model_points = frozenset(self.model.points())
        for name, pts in coerced.items():
            bad = [p for p in pts if p not in model_points]
            if bad:
                raise InputError(f"set {name!r} has points outside the model: {bad[:3]}")

    def names(self):
        return list(self.sets)

    def union(self):
        out = set()
        for pts in self.sets.values():
            out |= pts
        return out


@dataclass(frozen=True)
class WitnessReport:
    verdict: str
    payload: dict


@dataclass(frozen=True)
class RefinementPiece:
    """One piece of the Palais refinement: the points covered by exactly the
    named sets."""

    cover_sets: tuple
    points: frozenset


def multiplicity(cover: LatticeCover) -> int:
    counts = {}
    for pts in cover.sets.values():
        for p in pts:
            counts[p] = counts.get(p, 0) + 1
    return max(counts.values(), default=0)


def touches_facet(cover: LatticeCover, set_id, facet) -> bool:
    coord, value = facet
    return any(p[coord] == value for p in cover.sets[set_id])


def spans_pair(cover: LatticeCover, set_id, axis: int) -> bool:
    """True iff the set touches both facets of the given cube axis."""
    if cover.model.kind != "cube":
        raise InputError("spans_pair is a cube-model notion")
    return touches_facet(cover, set_id, (axis, 0)) and touches_facet(
        cover, set_id, (axis, cover.model.r)
    )


def connected_components(points, model: LatticeModel):
    """Components of a point set under the model adjacency, by flood fill.

    Deterministic: a fill starts from each point not yet reached, taken in
    sorted order, so components come out sorted by their smallest point.
    """
    remaining = set(points)
    components = []
    for start in sorted(remaining):
        if start not in remaining:
            continue
        remaining.remove(start)
        comp = [start]
        frontier = [start]
        while frontier:
            for q in model.neighbors(frontier.pop()):
                if q in remaining:
                    remaining.remove(q)
                    comp.append(q)
                    frontier.append(q)
        components.append(frozenset(comp))
    return components


def complement_points(cover: LatticeCover):
    return frozenset(cover.model.points()) - cover.union()


def complement_components(cover: LatticeCover):
    return connected_components(complement_points(cover), cover.model)


def set_components(cover: LatticeCover, set_id):
    return connected_components(cover.sets[set_id], cover.model)


def palais_coloring(cover: LatticeCover):
    """Refine the cover into color classes of pairwise disjoint pieces.

    The points covered by exactly the sets S form one piece placed in color
    class |S|; class i is the i-th entry (1-based) of the returned list.  The
    refinement drops empty pieces, keeps every piece inside each of its
    covering sets, and preserves the union of the cover.
    """
    membership = {}
    for name, pts in cover.sets.items():
        for p in pts:
            membership.setdefault(p, []).append(name)
    pieces = {}
    for p, names in membership.items():
        pieces.setdefault(tuple(sorted(names)), set()).add(p)
    classes = [[] for _ in range(max(map(len, pieces), default=0))]
    for names, pts in sorted(pieces.items()):
        classes[len(names) - 1].append(RefinementPiece(names, frozenset(pts)))
    return classes


def _not_a_cover_report(missing):
    missing = sorted(missing)
    return WitnessReport(
        HYPOTHESIS_VIOLATED,
        {
            "reason": "union_does_not_cover",
            "missing_count": len(missing),
            "missing_sample": [list(p) for p in missing[:16]],
        },
    )


def _echo_cover(cover: LatticeCover):
    return {name: sorted(map(list, pts)) for name, pts in cover.sets.items()}


def lebesgue_witness(cover: LatticeCover) -> WitnessReport:
    """Search a full cover of the cube with multiplicity <= n for a set that
    touches two opposite facets."""
    model = cover.model
    if model.kind != "cube":
        raise InputError("lebesgue_witness runs on the cube model")
    missing = complement_points(cover)
    if missing:
        return _not_a_cover_report(missing)
    mult = multiplicity(cover)
    if mult > model.n:
        return WitnessReport(
            HYPOTHESIS_VIOLATED,
            {"reason": "multiplicity_exceeds_dimension", "multiplicity": mult},
        )
    for name in cover.sets:
        for axis in range(model.n):
            if spans_pair(cover, name, axis):
                return WitnessReport(WITNESS_FOUND, {"set": name, "axis": axis})
    return WitnessReport(COUNTEREXAMPLE_CANDIDATE, {"cover": _echo_cover(cover)})


def kkm_witness(cover: LatticeCover, k: int) -> WitnessReport:
    """Search the complement of a simplex family for a component that meets
    every k-face.

    Preconditions (verified): every set misses some facet; multiplicity <= k.
    """
    model = cover.model
    if model.kind != "simplex":
        raise InputError("kkm_witness runs on the simplex model")
    if not 0 <= k <= model.n:
        raise InputError(f"k must be in 0..{model.n}")
    for name in cover.sets:
        if all(touches_facet(cover, name, f) for f in model.facets()):
            return WitnessReport(
                HYPOTHESIS_VIOLATED,
                {"reason": "set_touches_every_facet", "set": name},
            )
    mult = multiplicity(cover)
    if mult > k:
        return WitnessReport(
            HYPOTHESIS_VIOLATED,
            {"reason": "multiplicity_exceeds_k", "multiplicity": mult, "k": k},
        )
    faces = model.k_faces(k)
    for comp in complement_components(cover):
        if all(any(model.face_contains(face, p) for p in comp) for face in faces):
            return WitnessReport(
                WITNESS_FOUND,
                {"component": sorted(map(list, comp)), "k": k},
            )
    return WitnessReport(COUNTEREXAMPLE_CANDIDATE, {"cover": _echo_cover(cover), "k": k})


def complement_witness(cover: LatticeCover, k: int) -> WitnessReport:
    """Search for a complement component meeting all k-faces of the cube
    parallel to one coordinate k-subspace.

    Preconditions (verified): no set spans an opposite facet pair, and the
    multiplicity is at most k.
    """
    model = cover.model
    if model.kind != "cube":
        raise InputError("complement_witness runs on the cube model")
    if not 0 <= k <= model.n:
        raise InputError(f"k must be in 0..{model.n}")
    for name in cover.sets:
        for axis in range(model.n):
            if spans_pair(cover, name, axis):
                return WitnessReport(
                    HYPOTHESIS_VIOLATED,
                    {"reason": "set_spans_pair", "set": name, "axis": axis},
                )
    mult = multiplicity(cover)
    if mult > k:
        return WitnessReport(
            HYPOTHESIS_VIOLATED,
            {"reason": "multiplicity_exceeds_k", "multiplicity": mult, "k": k},
        )
    components = complement_components(cover)
    all_faces = model.k_faces(k)
    for free in itertools.combinations(range(model.n), k):
        faces = [face for face in all_faces if all(c not in free for c, _ in face)]
        for comp in components:
            if all(any(model.face_contains(face, p) for p in comp) for face in faces):
                return WitnessReport(
                    WITNESS_FOUND,
                    {
                        "component": sorted(map(list, comp)),
                        "axes": sorted(free),
                        "k": k,
                    },
                )
    return WitnessReport(COUNTEREXAMPLE_CANDIDATE, {"cover": _echo_cover(cover), "k": k})


def axes_witness(cover: LatticeCover) -> WitnessReport:
    """For an n-set cover of the cube, find a connected component of the i-th
    set spanning the i-th axis pair.  Set i is paired with axis i by position
    in the cover's set order."""
    model = cover.model
    if model.kind != "cube":
        raise InputError("axes_witness runs on the cube model")
    names = cover.names()
    if len(names) != model.n:
        raise WrongArityError(f"need exactly {model.n} sets, got {len(names)}")
    missing = complement_points(cover)
    if missing:
        return _not_a_cover_report(missing)
    for axis, name in enumerate(names):
        for comp in set_components(cover, name):
            touches_low = any(p[axis] == 0 for p in comp)
            touches_high = any(p[axis] == model.r for p in comp)
            if touches_low and touches_high:
                return WitnessReport(
                    WITNESS_FOUND,
                    {
                        "set": name,
                        "axis": axis,
                        "component": sorted(map(list, comp)),
                    },
                )
    return WitnessReport(COUNTEREXAMPLE_CANDIDATE, {"cover": _echo_cover(cover)})


@dataclass(frozen=True)
class PointCloudCover:
    """Named sets of exact rational points drawn from a finite sample of a
    polytope."""

    sample: tuple
    sets: dict


def sample_spacing(sample) -> Fraction:
    """Smallest positive max-norm distance between two sample points.

    Sweeps the distinct points in sorted order: once the first coordinates
    differ by at least the best distance so far, no later point comes closer.
    """
    pts = sorted(set(sample))
    best = None
    for i, p in enumerate(pts):
        for j in range(i + 1, len(pts)):
            q = pts[j]
            if best is not None and q[0] - p[0] >= best:
                break
            d = max(abs(a - b) for a, b in zip(p, q))
            if best is None or d < best:
                best = d
    if best is None:
        raise InputError("sample needs at least two distinct points")
    return best


def facet_touch_set(p: SimplePolytope, points, eps: Fraction):
    """Facets F with some point at slack <= eps * |u_F|_1.

    Every point is read once as integer numerators a over the common
    denominator L of all coordinates.  With c_F = N_F / D_F and
    eps = e / q the test <u_F, a> / L + c_F <= eps |u_F|_1 becomes
    <u_F, a> D_F q <= L (e |u_F|_1 D_F - N_F q), in integers.
    """
    den = math.lcm(*(x.denominator for pt in points for x in pt))
    ints = [
        [x.numerator * (den // x.denominator) for x in pt] for pt in points
    ]
    eps = Fraction(eps)
    e, q = eps.numerator, eps.denominator
    touched = set()
    for f, (u, c) in enumerate(zip(p.normals, p.offsets)):
        scale = c.denominator * q
        bound = den * (e * sum(abs(x) for x in u) * c.denominator - c.numerator * q)
        if any(sum(w * a for w, a in zip(u, pt)) * scale <= bound for pt in ints):
            touched.add(f)
    return touched


def kkm_lebesgue_witness(
    p: SimplePolytope, cover: PointCloudCover, eps=None
) -> WitnessReport:
    """Search a multiplicity-<=n sample cover of a simple polytope for a set
    touching at least n+1 facets.

    eps defaults to one minimal sample spacing: a tilted facet plane can stay
    further than half a spacing from every grid plane on its polytope side.
    Every set with at most n touched facets gets an inessentiality
    certificate attached to the report:
    a divisor equivalent to the ample class avoiding its touched facets, or
    null when the flux system is inconsistent.
    """
    sample = set(cover.sample)
    for name, pts in cover.sets.items():
        if not set(pts) <= sample:
            raise BadSampleError(f"set {name!r} has points outside the sample")
    union = set()
    for pts in cover.sets.values():
        union |= set(pts)
    if union != sample:
        raise BadSampleError("the sets do not cover the sample")

    # layers[j]: the points in more than j of the sets seen so far; set
    # operations reuse the stored hashes of the points
    layers = []
    for pts in cover.sets.values():
        for j in range(len(layers) - 1, -1, -1):
            common = layers[j].intersection(pts)
            if common and j + 1 == len(layers):
                layers.append(common)
            elif common:
                layers[j + 1] |= common
        if layers:
            layers[0].update(pts)
        elif pts:
            layers.append(set(pts))
    mult = len(layers)
    if mult > p.dim:
        return WitnessReport(
            HYPOTHESIS_VIOLATED,
            {"reason": "multiplicity_exceeds_dimension", "multiplicity": mult},
        )

    if eps is None:
        eps = sample_spacing(cover.sample)
    eps = Fraction(eps)

    touched_by = {
        name: sorted(facet_touch_set(p, pts, eps)) for name, pts in cover.sets.items()
    }
    ample = chow.ample_from_offsets(p)
    certificates = {}
    for name, touched in touched_by.items():
        if len(touched) <= p.dim:
            cert = chow.avoidance_certificate(p, ample, touched)
            certificates[name] = (
                None if cert is None else {"touched": touched, "divisor": cert}
            )

    base = {
        "eps": eps,
        "touched_facets": touched_by,
        "certificates": certificates,
    }
    for name, touched in touched_by.items():
        if len(touched) >= p.dim + 1:
            return WitnessReport(
                WITNESS_FOUND, {"set": name, "touched": touched, **base}
            )
    return WitnessReport(COUNTEREXAMPLE_CANDIDATE, base)
