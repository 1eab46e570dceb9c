"""Symmetry: a verdict does not depend on how the model is placed.

Each seeded cover is mapped by elements of the model's symmetry group (axis
permutations and reflections of the cube, permutations of the simplex's
barycentric coordinates) and verified again.  The verdict kind must not
change, and the witness of the mapped cover, mapped back, must pass its
re-check on the original cover.  It need not be the original's witness.
"""

import itertools
import json
import pathlib

import pytest

from toricover import (
    LatticeCover,
    LatticeModel,
    PointCloudCover,
    avoidance_certificate,
    ample_from_offsets,
    construct_standard,
    covering,
    harness,
    jsonio,
    palais_coloring,
)

INPUTS = pathlib.Path(__file__).resolve().parent / "golden" / "inputs"


def cube_group(n):
    """(permutation, reflections): axis j goes to axis perm[j], reversed
    when flips[j]."""
    return [(perm, flips) for perm in itertools.permutations(range(n))
            for flips in itertools.product((False, True), repeat=n)]


def cube_map(perm, flips, top):
    """The map of the cube [0, top]^n, on lattice points (top = r) or on
    rational points (top = 1)."""
    def g(p):
        q = [None] * len(p)
        for j, x in enumerate(p):
            q[perm[j]] = top - x if flips[j] else x
        return tuple(q)
    return g


def simplex_map(perm):
    """Barycentric coordinate i goes to coordinate perm[i]; lattice points
    carry all n+1 coordinates."""
    def g(p):
        q = [None] * len(p)
        for i, x in enumerate(p):
            q[perm[i]] = x
        return tuple(q)
    return g


def simplex_point_map(perm):
    """The same map on points of construct_standard("simplex", n), whose
    last barycentric coordinate is 1 - sum(x)."""
    g = simplex_map(perm)
    return lambda x: g(x + (1 - sum(x),))[:-1]


def elements(kind, n, r):
    """(map on the lattice points at resolution r, axis permutation or None)
    for each group element."""
    if kind == "cube":
        return [(cube_map(perm, flips, r), perm) for perm, flips in cube_group(n)]
    return [(simplex_map(perm), None) for perm in itertools.permutations(range(n + 1))]


def mapped(cover, g, order=None):
    """The cover with every set mapped by g, its sets in `order` (default:
    the cover's own order)."""
    order = cover.names() if order is None else order
    return LatticeCover(cover.model, {name: frozenset(map(g, cover.sets[name]))
                                      for name in order})


def inverse(model, g):
    return {g(p): p for p in model.points()}


def back(points, inv):
    return frozenset(inv[q] for q in points)


def components(points, model):
    return {frozenset(c) for c in covering.connected_components(points, model)}


def meets_every_face(comp, faces, model):
    return all(any(model.face_contains(face, q) for q in comp) for face in faces)


MODELS = [("cube", 2, 6), ("cube", 3, 4), ("simplex", 2, 6), ("simplex", 3, 4)]
SEEDS = range(3)


def cases(kinds):
    return [pytest.param(kind, n, r, seed, id=f"{kind}-n{n}-r{r}-seed{seed}")
            for kind, n, r in MODELS if kind in kinds for seed in SEEDS]


@pytest.mark.parametrize("kind, n, r, seed", cases(["cube"]))
def test_lebesgue(kind, n, r, seed):
    model = LatticeModel(kind, n, r)
    cover = harness.random_low_multiplicity_cover(model, n, seed).cover
    verdict = covering.lebesgue_witness(cover).verdict
    for g, perm in elements(kind, n, r):
        rep = covering.lebesgue_witness(mapped(cover, g))
        assert rep.verdict == verdict
        if rep.verdict == "witness_found":
            axis = perm.index(rep.payload["axis"])
            assert covering.spans_pair(cover, rep.payload["set"], axis)


@pytest.mark.parametrize("kind, n, r, seed", cases(["cube"]))
def test_axes(kind, n, r, seed):
    """Set i is paired with axis i, so the sets are reordered along with the
    axes: the set of axis j goes to position perm[j]."""
    model = LatticeModel(kind, n, r)
    cover = harness.dilated_partition_cover(model, n, seed)
    names = cover.names()
    verdict = covering.axes_witness(cover).verdict
    for g, perm in elements(kind, n, r):
        order = [names[perm.index(a)] for a in range(n)]
        rep = covering.axes_witness(mapped(cover, g, order))
        assert rep.verdict == verdict
        if rep.verdict == "witness_found":
            name, axis = rep.payload["set"], perm.index(rep.payload["axis"])
            comp = back(rep.payload["component"], inverse(model, g))
            assert names[axis] == name
            assert comp in components(cover.sets[name], model)
            assert {p[axis] for p in comp} >= {0, r}


@pytest.mark.parametrize("kind, n, r, seed", cases(["cube", "simplex"]))
def test_kkm_and_complement(kind, n, r, seed):
    model = LatticeModel(kind, n, r)
    k = 1 + seed % n
    cover = harness.random_small_set_family(model, k, seed)
    witness = covering.kkm_witness if kind == "simplex" else covering.complement_witness
    verdict = witness(cover, k).verdict
    complement = covering.complement_points(cover)
    for g, perm in elements(kind, n, r):
        rep = witness(mapped(cover, g), k)
        assert rep.verdict == verdict
        if rep.verdict == "witness_found":
            comp = back(rep.payload["component"], inverse(model, g))
            assert comp in components(complement, model)
            free = [perm.index(a) for a in rep.payload.get("axes", ())]
            faces = [f for f in model.k_faces(k) if all(c not in free for c, _ in f)]
            assert meets_every_face(comp, faces, model)


@pytest.mark.parametrize("kind, n, r, seed", cases(["cube", "simplex"]))
def test_palais_coloring(kind, n, r, seed):
    """The refinement is canonical, so the mapped cover's classes map back
    to the original's classes exactly."""
    model = LatticeModel(kind, n, r)
    cover = harness.random_low_multiplicity_cover(model, n, seed).cover

    def pieces(classes, inv=None):
        return [{(pc.cover_sets, frozenset(pc.points) if inv is None else back(pc.points, inv))
                 for pc in cls} for cls in classes]

    want = pieces(palais_coloring(cover))
    for g, _ in elements(kind, n, r):
        classes = palais_coloring(mapped(cover, g))
        assert pieces(classes, inverse(model, g)) == want


def point_maps(kind, n):
    if kind == "cube":
        return [cube_map(perm, flips, 1) for perm, flips in cube_group(n)]
    return [simplex_point_map(perm) for perm in itertools.permutations(range(n + 1))]


def check_kkm_lebesgue(kind, n, sample, sets):
    """On the unperturbed standard polytope at eps = 0, every group element
    maps the lattice sample onto itself and permutes the facets."""
    p = construct_standard(kind, n)
    verdict = covering.kkm_lebesgue_witness(p, PointCloudCover(sample, sets), 0).verdict
    ample = ample_from_offsets(p)
    for g in point_maps(kind, n):
        image = PointCloudCover(tuple(map(g, sample)),
                                {name: frozenset(map(g, pts)) for name, pts in sets.items()})
        rep = covering.kkm_lebesgue_witness(p, image, 0)
        assert rep.verdict == verdict
        if rep.verdict == "witness_found":
            touched = covering.facet_touch_set(p, sets[rep.payload["set"]], 0)
            assert avoidance_certificate(p, ample, touched) is None
    return verdict


@pytest.mark.parametrize("kind, n, r", [("cube", 2, 4), ("cube", 3, 3),
                                        ("simplex", 2, 6), ("simplex", 3, 4)])
@pytest.mark.parametrize("seed", SEEDS)
def test_kkm_lebesgue(kind, n, r, seed):
    # multiplicity 2, then n+1, which exceeds the dimension where the
    # balls of the last layer meet
    for m in (2, n + 1):
        cover, _ = harness.polytope_sample_cover(construct_standard(kind, n), r, m, seed)
        sets = {name: frozenset(pts) for name, pts in cover.sets.items()}
        check_kkm_lebesgue(kind, n, cover.sample, sets)


@pytest.mark.parametrize("kind, n, r", [("cube", 2, 2), ("simplex", 2, 3)])
def test_kkm_lebesgue_singletons(kind, n, r):
    """One set per sample point: no point lies on two opposite sides of the
    square or on every side of the triangle, so no set is essential."""
    sample = harness.lattice_sample(construct_standard(kind, n), r)
    sets = {str(i): frozenset([pt]) for i, pt in enumerate(sample)}
    assert check_kkm_lebesgue(kind, n, sample, sets) == "counterexample_candidate"


# one fixed cover for each lattice verdict and reason that the seeded
# covers above do not reach: (theorem, input, k)
FIXED = [
    ("lebesgue", "bricks.json", None),
    ("lebesgue", "not-a-cover.json", None),
    ("axes", "axes-checkerboard.json", None),
    ("axes", "not-a-cover.json", None),
    ("kkm", "kkm-midpoints.json", 1),
    ("kkm", "kkm-stars.json", 1),
    ("complement", "complement-candidate.json", 1),
    ("complement", "bricks.json", 1),
]


@pytest.mark.parametrize("theorem, name, k", FIXED)
def test_fixed_covers(theorem, name, k):
    cover = jsonio.cover_from_json(json.loads((INPUTS / name).read_text()))
    model, names = cover.model, cover.names()
    witness, kind, extra = covering.THEOREMS[theorem]
    witness = getattr(covering, witness)
    args = (k,) if extra == "k" else ()
    want = witness(cover, *args)
    for g, perm in elements(kind, model.n, model.r):
        order = [names[perm.index(a)] for a in range(model.n)] if theorem == "axes" else None
        rep = witness(mapped(cover, g, order), *args)
        assert (rep.verdict, rep.payload.get("reason")) == (want.verdict, want.payload.get("reason"))


def test_groups_have_their_orders():
    assert [len(cube_group(n)) for n in (1, 2, 3)] == [2, 8, 48]
    # every map is a bijection of the model onto itself
    for kind, n, r in (("cube", 2, 3), ("simplex", 3, 2)):
        points = set(LatticeModel(kind, n, r).points())
        assert len(elements(kind, n, r)) == (8 if kind == "cube" else 24)
        for g, _ in elements(kind, n, r):
            assert set(map(g, points)) == points
    q = construct_standard("simplex", 2)
    sample = set(harness.lattice_sample(q, 4))
    for perm in itertools.permutations(range(3)):
        assert set(map(simplex_point_map(perm), sample)) == sample
