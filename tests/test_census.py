"""Exhaustive census: every cover of a few tiny lattice models, run through
the lattice verifiers and held to a brute force.

The brute force reads the covers point by point with the tuple code of
tests/lattice_reference.py (flood fill, multiplicity) and plain tuple
tests for facets and faces, never with the mask code.  For every cover the
verifier's verdict and reason must equal the brute force's, a witness must
pass a re-check against the reference components, and the components the
verifiers search (complement components for kkm and complement, each set's
components for axes) must equal the reference flood fill's, in order.

A cover here is a labelling: each point gets one label, label c >= 1 puts
it in set X(c-1) and, where the census allows it, label 0 in no set.  Every
set X0.. is kept even when empty, and the family with every point in no set
is left out.  The pinned tallies are the point reading of the discrete
statements: many legitimate covers (every hypothesis checked) have no
witness.
"""

import itertools
from collections import Counter

import lattice_reference as ref
import pytest

from toricover import covering
from toricover.covering import (
    COUNTEREXAMPLE_CANDIDATE as CANDIDATE,
    HYPOTHESIS_VIOLATED as VIOLATED,
    WITNESS_FOUND as WITNESS,
    LatticeCover,
    LatticeModel,
)


def labellings(model, sets, none_label):
    """(sets as {name: frozenset}, cover) for each labelling of the model's
    points with the labels 1..sets, and 0 ("no set") if none_label."""
    points = model.points()
    first = 0 if none_label else 1
    for labels in itertools.product(range(first, sets + 1), repeat=len(points)):
        if not any(labels):
            continue
        family = {
            f"X{c - 1}": frozenset(p for p, label in zip(points, labels) if label == c)
            for c in range(1, sets + 1)
        }
        yield family, LatticeCover(model, family)


def facets(model):
    if model.kind == "cube":
        return [(j, v) for j in range(model.n) for v in (0, model.r)]
    return [(j, 0) for j in range(model.n + 1)]


def k_faces(model, k):
    """The k-faces as tuples of (coordinate, value) equations on n-k
    distinct coordinates."""
    coords, ends = (model.n, (0, model.r)) if model.kind == "cube" else (model.n + 1, (0,))
    return [
        tuple(zip(chosen, values))
        for chosen in itertools.combinations(range(coords), model.n - k)
        for values in itertools.product(ends, repeat=model.n - k)
    ]


def touches(pts, facet):
    return any(p[facet[0]] == facet[1] for p in pts)


def meets(comp, face):
    return any(all(p[c] == v for c, v in face) for p in comp)


def spans(pts, axis, r):
    return touches(pts, (axis, 0)) and touches(pts, (axis, r))


def complement(model, family):
    return set(model.points()).difference(*family.values())


# -- the brute force: (verdict, reason) and a re-check of a witness payload


def lebesgue(model, family):
    if complement(model, family):
        return VIOLATED, "union_does_not_cover"
    if ref.multiplicity(family) > model.n:
        return VIOLATED, "multiplicity_exceeds_dimension"
    span = any(spans(pts, a, model.r) for pts in family.values() for a in range(model.n))
    return (WITNESS if span else CANDIDATE), None


def lebesgue_recheck(model, family, payload):
    return spans(family[payload["set"]], payload["axis"], model.r)


def axes(model, family):
    if complement(model, family):
        return VIOLATED, "union_does_not_cover"
    for axis, pts in enumerate(family.values()):
        if any(spans(comp, axis, model.r) for comp in ref.connected_components(pts, model)):
            return WITNESS, None
    return CANDIDATE, None


def axes_recheck(model, family, payload):
    name, axis, comp = payload["set"], payload["axis"], frozenset(payload["component"])
    return (
        list(family).index(name) == axis
        and comp in ref.connected_components(family[name], model)
        and spans(comp, axis, model.r)
    )


def families_of(model, k):
    """(free axes, faces) pairs: kkm has one family of every k-face, the
    complement one per k free axes, of the k-faces whose equations avoid
    them."""
    faces = k_faces(model, k)
    if model.kind == "simplex":
        return [((), faces)]
    return [
        (free, [f for f in faces if all(c not in free for c, _ in f)])
        for free in itertools.combinations(range(model.n), k)
    ]


def component_theorem(model, family, k):
    if model.kind == "simplex":
        if any(all(touches(pts, f) for f in facets(model)) for pts in family.values()):
            return VIOLATED, "set_touches_every_facet"
    elif any(spans(pts, a, model.r) for pts in family.values() for a in range(model.n)):
        return VIOLATED, "set_spans_pair"
    if ref.multiplicity(family) > k:
        return VIOLATED, "multiplicity_exceeds_k"
    comps = ref.connected_components(complement(model, family), model)
    found = any(
        all(meets(comp, f) for f in faces) for _, faces in families_of(model, k) for comp in comps
    )
    return (WITNESS if found else CANDIDATE), None


def component_recheck(model, family, k, payload):
    comp = frozenset(payload["component"])
    free = tuple(payload.get("axes", ()))
    faces = dict(families_of(model, k))[free]
    return (
        comp in ref.connected_components(complement(model, family), model)
        and all(meets(comp, f) for f in faces)
    )


def check(report, want, recheck):
    """The report's verdict and reason are the brute force's, and a witness
    passes the re-check."""
    assert (report.verdict, report.payload.get("reason")) == want
    if report.verdict == WITNESS:
        assert recheck(report.payload)
    return report.verdict


def tally(counts):
    return {v: counts[v] for v in (WITNESS, VIOLATED, CANDIDATE) if counts[v]}


# (n, r): verdict tallies over every labelling with n sets
AXES = {
    (2, 1): {WITNESS: 14, CANDIDATE: 2},
    (2, 2): {WITNESS: 394, CANDIDATE: 118},
    (3, 1): {WITNESS: 5733, CANDIDATE: 828},
}


def test_lebesgue_census():
    """Cube n=2, r=1, every labelling with at most 4 colours: a cover of
    multiplicity 1 with four singletons spans no axis."""
    model = LatticeModel("cube", 2, 1)
    counts = Counter()
    for family, cover in labellings(model, 4, none_label=False):
        report = covering.lebesgue_witness(cover)
        counts[check(report, lebesgue(model, family),
                     lambda payload: lebesgue_recheck(model, family, payload))] += 1
    assert tally(counts) == {WITNESS: 232, CANDIDATE: 24}


@pytest.mark.parametrize("n, r", list(AXES), ids=str)
def test_axes_census(n, r):
    model = LatticeModel("cube", n, r)
    counts = Counter()
    for family, cover in labellings(model, n, none_label=False):
        for name, pts in family.items():
            assert list(map(frozenset, covering.set_components(cover, name))) == (
                ref.connected_components(pts, model)
            )
        report = covering.axes_witness(cover)
        counts[check(report, axes(model, family),
                     lambda payload: axes_recheck(model, family, payload))] += 1
    assert tally(counts) == AXES[(n, r)]


# (kind, n, r, sets): per k, the tally over every family in which each point
# lies in no set or in one of the sets
COMPONENT = {
    ("simplex", 2, 2, 3): {
        1: {WITNESS: 294, VIOLATED: 2829, CANDIDATE: 972},
        2: {WITNESS: 1218, VIOLATED: 2829, CANDIDATE: 48},
    },
    ("cube", 2, 1, 2): {
        1: {WITNESS: 16, VIOLATED: 60, CANDIDATE: 4},
        2: {WITNESS: 20, VIOLATED: 60},
    },
    ("cube", 2, 2, 2): {
        1: {WITNESS: 970, VIOLATED: 18456, CANDIDATE: 256},
        2: {WITNESS: 1226, VIOLATED: 18456},
    },
}


@pytest.mark.parametrize("kind, n, r, sets", list(COMPONENT), ids=str)
def test_component_census(kind, n, r, sets):
    """kkm on the simplex, complement on the cube, for k = 1 and 2."""
    model = LatticeModel(kind, n, r)
    witness = covering.kkm_witness if kind == "simplex" else covering.complement_witness
    counts = {k: Counter() for k in COMPONENT[(kind, n, r, sets)]}
    for family, cover in labellings(model, sets, none_label=True):
        assert list(map(frozenset, covering.complement_components(cover))) == (
            ref.connected_components(complement(model, family), model)
        )
        for k, count in counts.items():
            report = witness(cover, k)
            count[check(report, component_theorem(model, family, k),
                        lambda payload: component_recheck(model, family, k, payload))] += 1
    assert {k: tally(c) for k, c in counts.items()} == COMPONENT[(kind, n, r, sets)]
