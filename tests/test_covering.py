import itertools
import math
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from toricover import (
    BadSampleError,
    LatticeCover,
    LatticeModel,
    PointCloudCover,
    WrongArityError,
    axes_witness,
    complement_components,
    complement_witness,
    construct_standard,
    kkm_lebesgue_witness,
    kkm_witness,
    lebesgue_witness,
    multiplicity,
    palais_coloring,
    perturb,
    set_components,
    shifted_brick_cover,
    spans_pair,
    touches_facet,
)
from toricover import InputError, covering, harness

import lattice_reference as ref


small_coords = st.fractions(
    min_value=Fraction(-2), max_value=Fraction(2), max_denominator=4
)
segment_points = st.sampled_from([(Fraction(i, 4),) for i in range(5)])


def cube_cover(n, r, sets):
    return LatticeCover(LatticeModel("cube", n, r), sets)


def simplex_cover(n, r, sets):
    return LatticeCover(LatticeModel("simplex", n, r), sets)


class TestModel:
    def test_simplex_points_count(self):
        model = LatticeModel("simplex", 2, 4)
        assert len(model.points()) == 15  # compositions of 4 into 3 parts

    def test_adjacency_symmetric(self):
        for model in (LatticeModel("cube", 2, 3), LatticeModel("simplex", 2, 4)):
            grid = model.grid()
            for p in model.points():
                for q in covering.PointSet(grid, grid.expand(1 << grid.bit(p))):
                    assert p in covering.PointSet(grid, grid.expand(1 << grid.bit(q)))

    def test_point_graph_connected(self):
        for model in (LatticeModel("cube", 2, 3), LatticeModel("simplex", 3, 5)):
            comps = covering.connected_components(set(model.points()), model)
            assert len(comps) == 1


class TestModelSizeCap:
    """A model holds at most MAX_MODEL_POINTS points; the count is a running
    product, so a refused size is never enumerated or built as an integer."""

    @pytest.mark.parametrize("kind, n, r", [
        ("cube", 3, 99), ("cube", 19, 1), ("simplex", 3, 179), ("simplex", 1, 999_999),
    ])
    def test_largest_models_accepted(self, kind, n, r):
        assert covering.MAX_MODEL_POINTS == 10**6
        LatticeModel(kind, n, r)

    @pytest.mark.parametrize("kind, n, r", [
        ("cube", 3, 100), ("cube", 20, 1), ("cube", 10**9, 10**9),
        ("simplex", 3, 180), ("simplex", 1, 10**6), ("simplex", 10**9, 1),
        ("simplex", 1, 10**9),
    ])
    def test_larger_models_refused(self, kind, n, r):
        with pytest.raises(InputError, match="has more than 1000000 points"):
            LatticeModel(kind, n, r)


def ref_k_faces(model, k):
    """The earlier face descriptors: simplex faces as the coordinate sets
    that support them, cube faces as (free axes, fixed (axis, value) pairs)."""
    if model.kind == "simplex":
        return [frozenset(c) for c in itertools.combinations(range(model.n + 1), k + 1)]
    faces = []
    for free in itertools.combinations(range(model.n), k):
        rest = [a for a in range(model.n) if a not in free]
        for vals in itertools.product((0, model.r), repeat=len(rest)):
            faces.append((frozenset(free), tuple(zip(rest, vals))))
    return faces


def ref_face_contains(model, face, p) -> bool:
    if model.kind == "simplex":
        return all(p[i] == 0 for i in range(model.n + 1) if i not in face)
    _, fixed = face
    return all(p[axis] == val for axis, val in fixed)


class TestFacesAgainstReference:
    @pytest.mark.parametrize("r", [1, 2, 3])
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    @pytest.mark.parametrize("kind", ["cube", "simplex"])
    def test_same_point_sets(self, kind, n, r):
        model = LatticeModel(kind, n, r)
        points = model.points()

        def cut(faces, contains):
            return Counter(frozenset(p for p in points if contains(f, p)) for f in faces)

        for k in range(n + 1):
            faces = model.k_faces(k)
            ref = ref_k_faces(model, k)
            assert cut(faces, model.face_contains) == cut(
                ref, lambda f, p: ref_face_contains(model, f, p)
            )
            if kind == "cube":
                assert len(faces) == math.comb(n, k) * 2 ** (n - k)
                for free in itertools.combinations(range(n), k):
                    parallel = [f for f in faces if all(c not in free for c, _ in f)]
                    ref_parallel = [f for f in ref if f[0] == frozenset(free)]
                    assert cut(parallel, model.face_contains) == cut(
                        ref_parallel, lambda f, p: ref_face_contains(model, f, p)
                    )
            else:
                assert len(faces) == math.comb(n + 1, k + 1)

    @pytest.mark.parametrize("kind", ["cube", "simplex"])
    def test_on_face_is_face_contains(self, kind):
        """The test on_face makes once per face answers as face_contains does
        for every point, given as the grid's tuple or as a list of ints."""
        model = LatticeModel(kind, 3, 2)
        for k in range(model.n + 1):
            for face in model.k_faces(k):
                on = model.on_face(list(map(list, face)))
                for p in model.points():
                    assert on(p) is on(list(p)) is model.face_contains(face, p)

    def test_facets_are_coordinate_equations(self):
        assert LatticeModel("cube", 2, 3).facets() == [(0, 0), (0, 3), (1, 0), (1, 3)]
        assert LatticeModel("simplex", 2, 3).facets() == [(0, 0), (1, 0), (2, 0)]
        assert LatticeModel("simplex", 2, 3).k_faces(0) == [
            ((0, 0), (1, 0)), ((0, 0), (2, 0)), ((1, 0), (2, 0)),
        ]


def ref_contains(model, p) -> bool:
    """Membership as the models defined it beside their point lists."""
    ncoords = model.n if model.kind == "cube" else model.n + 1
    if len(p) != ncoords:
        return False
    if model.kind == "cube":
        return all(0 <= a <= model.r for a in p)
    return all(a >= 0 for a in p) and sum(p) == model.r


MODELS = [
    LatticeModel("cube", 1, 2),
    LatticeModel("cube", 2, 3),
    LatticeModel("simplex", 1, 2),
    LatticeModel("simplex", 2, 3),
]


class TestMembership:
    """A cover's sets are checked against the model's point list."""

    @pytest.mark.parametrize("model", MODELS, ids=repr)
    def test_integer_points_against_reference(self, model):
        # every integer point of length ncoords-1..ncoords+1 with coordinates
        # in -1..r+1: wrong lengths, negative entries, entries above r, and
        # simplex points of the wrong sum
        ncoords = model.n + (model.kind == "simplex")
        for length in (ncoords - 1, ncoords, ncoords + 1):
            for p in itertools.product(range(-1, model.r + 2), repeat=length):
                if ref_contains(model, p):
                    LatticeCover(model, {"X": [p]})
                else:
                    with pytest.raises(InputError):
                        LatticeCover(model, {"X": [p]})

    @pytest.mark.parametrize("model", MODELS, ids=repr)
    def test_message_lists_bad_points_in_set_order(self, model):
        ncoords = model.n + (model.kind == "simplex")
        pts = frozenset(model.points()[:2]) | {
            (-1,) * ncoords, (model.r + 1,) * ncoords, (0,) * (ncoords + 1),
            (1,) * ncoords, (0,) * (ncoords - 1),
        }
        bad = [p for p in pts if not ref_contains(model, p)]
        with pytest.raises(InputError) as info:
            LatticeCover(model, {"X": pts})
        assert str(info.value) == f"set 'X' has points outside the model: {bad[:3]}"

    @pytest.mark.parametrize("model", MODELS, ids=repr)
    @pytest.mark.parametrize("form", [list, iter], ids=["list", "iterator"])
    def test_message_order_does_not_follow_input_order(self, model, form):
        # the bad points are named in frozenset order whatever order they
        # come in, also from a one-shot iterator
        ncoords = model.n + (model.kind == "simplex")
        outside = {
            (-1,) * ncoords, (model.r + 1,) * ncoords, (0,) * (ncoords + 1),
            (0,) * (ncoords - 1), (-2,) * ncoords,
        }
        given = list(model.points()[:2])
        given[1:1] = [p for p in frozenset(given) | outside if p in outside][::-1]
        bad = [p for p in frozenset(given) if p in outside]
        assert len(bad) >= 4 and [p for p in given if p in outside][:3] != bad[:3]
        with pytest.raises(InputError) as info:
            LatticeCover(model, {"X": form(given)})
        assert str(info.value) == f"set 'X' has points outside the model: {bad[:3]}"

    @pytest.mark.parametrize(
        "model, point",
        [
            (LatticeModel("cube", 2, 4), (1.5, 2)),
            (LatticeModel("simplex", 2, 3), (0.5, 0.5, 2)),
            (LatticeModel("cube", 2, 4), ("a", "b")),
        ],
    )
    def test_non_lattice_points_rejected(self, model, point):
        with pytest.raises(InputError, match="outside the model"):
            LatticeCover(model, {"X": [point]})


class TestCoverGrid:
    """A cover keeps its model's grid, outside its comparison and repr."""

    @pytest.mark.parametrize("model", MODELS, ids=repr)
    def test_grid_is_the_models(self, model):
        cover = LatticeCover(model, {"X": model.points()[:2]})
        assert cover.grid is model.grid()
        assert cover.sets["X"].grid is cover.grid

    def test_equal_models_and_sets_compare_equal(self):
        sets = {"A": [(0, 1), (1, 1)], "B": {(2, 2)}}
        one = LatticeCover(LatticeModel("cube", 2, 2), sets)
        other = LatticeCover(LatticeModel("cube", 2, 2), {"B": [(2, 2)], "A": {(1, 1), (0, 1)}})
        assert one == other
        assert one != LatticeCover(LatticeModel("cube", 2, 2), {"A": [(0, 1)], "B": [(2, 2)]})

    def test_repr_leaves_out_the_grid(self):
        cover = LatticeCover(LatticeModel("cube", 1, 2), {"X": [(0,)]})
        assert repr(cover) == (
            "LatticeCover(model=LatticeModel(kind='cube', n=1, r=2), sets={'X': PointSet([(0,)])})"
        )
        assert "grid" not in repr(cover)


class TestMultiplicity:
    def test_overlapping_intervals(self):
        cov = cube_cover(1, 2, {"X1": {(0,), (1,)}, "X2": {(1,), (2,)}})
        assert multiplicity(cov) == 2

    def test_partition(self):
        cov = cube_cover(1, 3, {"A": {(0,), (1,)}, "B": {(2,), (3,)}})
        assert multiplicity(cov) == 1

    def test_empty_cover(self):
        assert multiplicity(cube_cover(1, 1, {})) == 0

    def test_positive_iff_some_set_nonempty(self):
        assert multiplicity(cube_cover(1, 1, {"X": set()})) == 0
        assert multiplicity(cube_cover(1, 1, {"X": {(0,)}})) == 1

    @pytest.mark.parametrize("n,r", [(1, 4), (2, 8), (3, 12)])
    def test_brick_cover_multiplicity(self, n, r):
        assert multiplicity(shifted_brick_cover(n, r)) == n + 1


class TestTouchAndSpan:
    def test_full_interval_spans(self):
        cov = cube_cover(1, 4, {"X": {(i,) for i in range(5)}})
        assert spans_pair(cov, "X", 0)

    def test_bottom_row(self):
        model = LatticeModel("cube", 2, 3)
        cov = LatticeCover(model, {"X": {p for p in model.points() if p[1] == 0}})
        assert touches_facet(cov, "X", (1, 0))
        assert not touches_facet(cov, "X", (1, 3))
        assert spans_pair(cov, "X", 0)
        assert not spans_pair(cov, "X", 1)

    def test_simplex_missing_facet(self):
        model = LatticeModel("simplex", 2, 4)
        cov = LatticeCover(model, {"X": {p for p in model.points() if p[0] >= 1}})
        assert not touches_facet(cov, "X", (0, 0))
        assert touches_facet(cov, "X", (1, 0))


class TestComponents:
    def test_empty_cover_single_component(self):
        cov = cube_cover(1, 4, {})
        comps = complement_components(cov)
        assert len(comps) == 1
        assert len(comps[0]) == 5

    def test_point_splits_interval(self):
        cov = cube_cover(1, 4, {"X": {(2,)}})
        assert [sorted(c) for c in complement_components(cov)] == [
            [(0,), (1,)],
            [(3,), (4,)],
        ]

    def test_middle_column_splits_square(self):
        model = LatticeModel("cube", 2, 4)
        cov = LatticeCover(model, {"X": {p for p in model.points() if p[0] == 2}})
        comps = complement_components(cov)
        assert len(comps) == 2
        assert {len(c) for c in comps} == {10}

    def test_set_components(self):
        cov = cube_cover(1, 4, {"X": {(0,), (1,), (3,)}})
        assert [sorted(c) for c in set_components(cov, "X")] == [
            [(0,), (1,)],
            [(3,)],
        ]

    @settings(max_examples=40, deadline=None)
    @given(st.data())
    def test_union_find_matches_bfs_oracle(self, data):
        model = data.draw(
            st.sampled_from(
                [LatticeModel("cube", 2, 5), LatticeModel("simplex", 2, 6)]
            )
        )
        points = data.draw(
            st.sets(st.sampled_from(list(model.points())), max_size=20)
        )
        got = covering.connected_components(points, model)

        # oracle: plain flood fill
        remaining = set(points)
        expected = []
        while remaining:
            start = min(remaining)
            comp = {start}
            frontier = [start]
            while frontier:
                p = frontier.pop()
                for q in ref.neighbors(model, p):
                    if q in remaining and q not in comp:
                        comp.add(q)
                        frontier.append(q)
            expected.append(frozenset(comp))
            remaining -= comp
        assert sorted(got, key=min) == sorted(expected, key=min)


def union_find_components(points, model):
    """Reference: components by union-find with path compression, sorted by
    their smallest point (the library's implementation before the flood
    fill)."""
    pts = sorted(points)
    index = {p: i for i, p in enumerate(pts)}
    parent = list(range(len(pts)))

    def find(i):
        root = i
        while parent[root] != root:
            root = parent[root]
        while parent[i] != root:
            parent[i], i = root, parent[i]
        return root

    for p, i in index.items():
        for q in ref.neighbors(model, p):
            j = index.get(q)
            if j is not None:
                ri, rj = find(i), find(j)
                if ri != rj:
                    parent[rj] = ri
    groups = {}
    for p, i in index.items():
        groups.setdefault(find(i), []).append(p)
    return [frozenset(g) for g in sorted(groups.values(), key=min)]


def model_id(model):
    return f"{model.kind}{model.n}-r{model.r}"


FAMILY_MODELS = [
    LatticeModel("cube", 2, 16),
    LatticeModel("cube", 3, 8),
    LatticeModel("simplex", 2, 12),
    LatticeModel("simplex", 3, 8),
]


class TestComponentsAgainstUnionFind:
    """The flood fill equals the union-find reference, component order
    included."""

    @pytest.mark.parametrize("model", FAMILY_MODELS, ids=model_id)
    def test_small_set_family_complements_and_unions(self, model):
        """The complements are mostly connected; the unions split into the
        family's separated balls, which pins the component order."""
        split = 0
        for k in range(1, model.n + 1):
            for seed in range(4):
                cover = harness.random_small_set_family(model, k, seed)
                for points in (covering.complement_points(cover), cover.union()):
                    got = covering.connected_components(points, model)
                    assert got == union_find_components(points, model)
                    split += len(got) > 1
        assert split >= 4

    @pytest.mark.parametrize("model", FAMILY_MODELS, ids=model_id)
    def test_dilated_partition_sets(self, model):
        for seed in range(4):
            cover = harness.dilated_partition_cover(model, model.n + 1, seed)
            for pts in cover.sets.values():
                assert covering.connected_components(
                    pts, model
                ) == union_find_components(pts, model)

    @pytest.mark.parametrize(
        "model", [LatticeModel("cube", 2, 3), LatticeModel("simplex", 2, 3)], ids=model_id
    )
    def test_empty_set_and_single_points(self, model):
        assert covering.connected_components(set(), model) == []
        assert union_find_components(set(), model) == []
        for p in model.points():
            assert covering.connected_components({p}, model) == [frozenset({p})]
            assert union_find_components({p}, model) == [frozenset({p})]


class TestPalais:
    def test_disjoint_cover_single_class(self):
        cov = cube_cover(1, 3, {"A": {(0,), (1,)}, "B": {(2,), (3,)}})
        classes = palais_coloring(cov)
        assert len(classes) == 1
        assert {piece.cover_sets for piece in classes[0]} == {("A",), ("B",)}

    @pytest.mark.parametrize("sets", [{}, {"A": set()}])
    def test_empty_cover_no_classes(self, sets):
        assert palais_coloring(cube_cover(1, 3, sets)) == []

    def test_two_interval_example(self):
        cov = cube_cover(1, 2, {"X1": {(0,), (1,)}, "X2": {(1,), (2,)}})
        classes = palais_coloring(cov)
        color1 = {(p.cover_sets, tuple(sorted(p.points))) for p in classes[0]}
        assert color1 == {(("X1",), ((0,),)), (("X2",), ((2,),))}
        assert [(p.cover_sets, tuple(sorted(p.points))) for p in classes[1]] == [
            (("X1", "X2"), ((1,),))
        ]

    @settings(max_examples=40, deadline=None)
    @given(st.data())
    def test_random_covers_satisfy_guarantees(self, data):
        model = data.draw(
            st.sampled_from(
                [LatticeModel("cube", 2, 4), LatticeModel("simplex", 2, 5)]
            )
        )
        points = list(model.points())
        nsets = data.draw(st.integers(min_value=1, max_value=4))
        sets = {}
        for i in range(nsets):
            pts = data.draw(
                st.sets(st.sampled_from(points), min_size=1, max_size=12)
            )
            sets[f"S{i}"] = frozenset(pts)
        cov = LatticeCover(model, sets)
        classes = palais_coloring(cov)
        assert len(classes) == multiplicity(cov)
        if classes:
            assert classes[-1]  # the top color class is where mult is attained
        union = set()
        for idx, cls in enumerate(classes):
            for piece in cls:
                assert len(piece.cover_sets) == idx + 1
                for name in piece.cover_sets:
                    assert piece.points <= cov.sets[name]
                union |= piece.points
            for i, a in enumerate(cls):
                for b in cls[i + 1:]:
                    assert not (a.points & b.points)
        assert union == cov.union()


class TestLebesgueWitness:
    def test_two_slabs(self):
        model = LatticeModel("cube", 2, 4)
        cov = LatticeCover(
            model,
            {
                "X1": {p for p in model.points() if p[1] <= 2},
                "X2": {p for p in model.points() if p[1] >= 2},
            },
        )
        rep = lebesgue_witness(cov)
        assert rep.verdict == "witness_found"
        assert spans_pair(cov, rep.payload["set"], rep.payload["axis"])

    def test_bricks_flagged(self):
        rep = lebesgue_witness(shifted_brick_cover(2, 8))
        assert rep.verdict == "hypothesis_violated"
        assert rep.payload["multiplicity"] == 3

    def test_one_set_line(self):
        cov = cube_cover(1, 3, {"X": {(i,) for i in range(4)}})
        rep = lebesgue_witness(cov)
        assert rep.verdict == "witness_found"

    def test_union_violation(self):
        cov = cube_cover(1, 3, {"X": {(0,), (1,)}})
        rep = lebesgue_witness(cov)
        assert rep.verdict == "hypothesis_violated"
        assert rep.payload["reason"] == "union_does_not_cover"

    def test_counterexample_surfaced(self):
        # a partition of the segment into two intervals has multiplicity 1 and
        # no spanning set: the discrete model must report it, not hide it
        cov = cube_cover(1, 3, {"A": {(0,), (1,)}, "B": {(2,), (3,)}})
        rep = lebesgue_witness(cov)
        assert rep.verdict == "counterexample_candidate"
        assert rep.payload["cover"] == {"A": [[0], [1]], "B": [[2], [3]]}

    @settings(max_examples=25, deadline=None)
    @given(st.integers(min_value=0, max_value=10_000))
    def test_monotone_under_enlargement(self, seed):
        model = LatticeModel("cube", 2, 8)
        stamped = harness.random_low_multiplicity_cover(model, 2, seed)
        rep = lebesgue_witness(stamped.cover)
        assert rep.verdict == "witness_found"
        name, axis = rep.payload["set"], rep.payload["axis"]
        import random as _random

        rng = _random.Random(seed)
        extra = frozenset(rng.sample(list(model.points()), 5))
        enlarged = dict(stamped.cover.sets)
        enlarged[name] = enlarged[name] | extra
        bigger = LatticeCover(model, enlarged)
        assert multiplicity(bigger) >= stamped.multiplicity
        assert spans_pair(bigger, name, axis)


class TestNotACover:
    @pytest.mark.parametrize("witness", [lebesgue_witness, axes_witness])
    def test_complement_computed_once(self, monkeypatch, witness):
        calls = []
        original = covering.complement_points

        def counting(cover):
            calls.append(cover)
            return original(cover)

        monkeypatch.setattr(covering, "complement_points", counting)
        rep = witness(cube_cover(2, 2, {"A": {(0, 0)}, "B": {(2, 2)}}))
        assert rep.payload["reason"] == "union_does_not_cover"
        assert rep.payload["missing_count"] == 7
        assert len(calls) == 1


class TestKKMWitness:
    def test_single_vertex_region(self):
        model = LatticeModel("simplex", 2, 4)
        cov = LatticeCover(model, {"X1": {(4, 0, 0)}})
        rep = kkm_witness(cov, 1)
        assert rep.verdict == "witness_found"
        comp = {tuple(p) for p in rep.payload["component"]}
        for face in model.k_faces(1):
            assert any(model.face_contains(face, p) for p in comp)

    def test_empty_family_whole_simplex(self):
        model = LatticeModel("simplex", 2, 3)
        rep = kkm_witness(LatticeCover(model, {}), 2)
        assert rep.verdict == "witness_found"
        assert len(rep.payload["component"]) == len(model.points())

    def test_touching_every_facet_violates(self):
        model = LatticeModel("simplex", 2, 4)
        cov = LatticeCover(model, {"X": {(4, 0, 0), (0, 4, 0), (0, 0, 4)}})
        rep = kkm_witness(cov, 1)
        assert rep.verdict == "hypothesis_violated"
        assert rep.payload["reason"] == "set_touches_every_facet"

    @pytest.mark.parametrize("witness, kind", [
        (kkm_witness, "simplex"), (complement_witness, "cube"),
    ])
    def test_model_kind_checked_before_k(self, witness, kind):
        other = "cube" if kind == "simplex" else "simplex"
        cov = LatticeCover(LatticeModel(other, 2, 2), {})
        with pytest.raises(InputError) as info:
            witness(cov, 5)
        assert str(info.value) == f"{witness.__name__} runs on the {kind} model"

    def test_multiplicity_violation(self):
        cov = harness.kkm_standard_cover(2, 9)
        rep = kkm_witness(cov, 2)
        assert rep.verdict == "hypothesis_violated"
        assert rep.payload["multiplicity"] == 3


class TestComplementWitness:
    def test_center_block(self):
        model = LatticeModel("cube", 2, 4)
        cov = LatticeCover(
            model, {"X": {p for p in model.points() if p in {(2, 2), (2, 1)}}}
        )
        rep = complement_witness(cov, 1)
        assert rep.verdict == "witness_found"

    def test_vertical_fin(self):
        # fin from the bottom facet missing the top: complement stays connected
        model = LatticeModel("cube", 2, 4)
        fin = {p for p in model.points() if p[0] == 2 and p[1] <= 3}
        rep = complement_witness(LatticeCover(model, {"X": fin}), 1)
        assert rep.verdict == "witness_found"
        comp = {tuple(p) for p in rep.payload["component"]}
        free = rep.payload["axes"]
        model_faces = [f for f in model.k_faces(1) if all(c not in free for c, _ in f)]
        for face in model_faces:
            assert any(model.face_contains(face, p) for p in comp)

    def test_empty_family(self):
        model = LatticeModel("cube", 3, 2)
        rep = complement_witness(LatticeCover(model, {}), 2)
        assert rep.verdict == "witness_found"

    def test_spanning_set_violates(self):
        model = LatticeModel("cube", 2, 4)
        cov = LatticeCover(model, {"X": {p for p in model.points() if p[1] == 2}})
        rep = complement_witness(cov, 1)
        assert rep.verdict == "hypothesis_violated"
        assert rep.payload["reason"] == "set_spans_pair"


class TestAxesWitness:
    def test_two_half_slabs(self):
        model = LatticeModel("cube", 2, 4)
        cov = LatticeCover(
            model,
            {
                "X1": {p for p in model.points() if p[0] <= 2},
                "X2": {p for p in model.points() if p[0] >= 2},
            },
        )
        rep = axes_witness(cov)
        assert rep.verdict == "witness_found"
        # X1 is paired with axis 0 and does not span it; X2 spans its own axis 1
        assert rep.payload["set"] == "X2"
        assert rep.payload["axis"] == 1

    def test_single_set_line(self):
        cov = cube_cover(1, 3, {"X": {(i,) for i in range(4)}})
        rep = axes_witness(cov)
        assert rep.verdict == "witness_found"
        assert rep.payload["axis"] == 0

    def test_wrong_arity(self):
        cov = cube_cover(2, 2, {"X": {(0, 0)}})
        with pytest.raises(WrongArityError):
            axes_witness(cov)

    @settings(max_examples=25, deadline=None)
    @given(st.integers(min_value=0, max_value=10_000))
    def test_random_fill_always_has_witness(self, seed):
        model = LatticeModel("cube", 2, 16)
        cov = harness.dilated_partition_cover(model, 2, seed)
        rep = axes_witness(cov)
        assert rep.verdict == "witness_found"
        comp = {tuple(p) for p in rep.payload["component"]}
        axis = rep.payload["axis"]
        assert comp <= cov.sets[rep.payload["set"]]
        assert any(p[axis] == 0 for p in comp)
        assert any(p[axis] == model.r for p in comp)


class TestKKMLebesgue:
    def test_segment_single_set(self, segment):
        sample = harness.lattice_sample(segment, 4)
        cov = PointCloudCover(sample, {"all": frozenset(sample)})
        rep = kkm_lebesgue_witness(segment, cov)
        assert rep.verdict == "witness_found"
        assert rep.payload["touched"] == [0, 1]

    def test_vertex_stars_violate_multiplicity(self, d2):
        sample = harness.lattice_sample(d2, 6)

        def bary(pt):
            return pt + (1 - sum(pt),)

        stars = {
            f"star_{i}": frozenset(
                pt for pt in sample if all(bary(pt)[i] >= bary(pt)[j] for j in range(3))
            )
            for i in range(3)
        }
        rep = kkm_lebesgue_witness(d2, PointCloudCover(sample, stars))
        assert rep.verdict == "hypothesis_violated"
        assert rep.payload["multiplicity"] == 3

    def test_perturbed_cube_slabs(self, q3):
        p = perturb(q3, Fraction(1, 100), seed=21)
        cov, eps = harness.polytope_sample_cover(p, 6, 2, seed=21)
        rep = kkm_lebesgue_witness(p, cov, eps)
        assert rep.verdict == "witness_found"
        assert len(rep.payload["touched"]) >= 4
        for cert in rep.payload["certificates"].values():
            assert cert is not None

    @pytest.mark.parametrize("kind, seed", [("cube", 4), ("simplex", 2)])
    def test_default_eps_is_one_spacing(self, kind, seed):
        # on these tilted samples no set comes within half a spacing of n+1
        # facets, but one set does within a full spacing
        p = perturb(construct_standard(kind, 3), Fraction(1, 100), seed=seed)
        cov, eps = harness.polytope_sample_cover(p, 6, 2, seed)
        assert eps == Fraction(1, 6)
        assert kkm_lebesgue_witness(p, cov, eps / 2).verdict == "counterexample_candidate"
        default = kkm_lebesgue_witness(p, cov)
        assert default.verdict == "witness_found"
        assert default.payload == kkm_lebesgue_witness(p, cov, eps).payload

    def test_bad_sample_rejected(self, segment):
        sample = harness.lattice_sample(segment, 2)
        outside = (Fraction(7),)
        with pytest.raises(BadSampleError):
            kkm_lebesgue_witness(
                segment,
                PointCloudCover(sample, {"X": frozenset({outside})}),
            )
        with pytest.raises(BadSampleError):
            kkm_lebesgue_witness(
                segment,
                PointCloudCover(sample, {"X": frozenset({sample[0]})}),
            )


    @pytest.mark.parametrize("eps", [-1, Fraction(-1, 4)])
    def test_negative_eps_rejected(self, segment, eps):
        sample = harness.lattice_sample(segment, 4)
        cov = PointCloudCover(sample, {"all": frozenset(sample)})
        with pytest.raises(InputError, match=r"^eps must be >= 0, got -1"):
            kkm_lebesgue_witness(segment, cov, eps)
        assert kkm_lebesgue_witness(segment, cov, 0).verdict == "witness_found"
        # eps is converted by Fraction before its sign is read
        assert kkm_lebesgue_witness(segment, cov, "1/4").verdict == "witness_found"
        with pytest.raises(InputError, match=r"^eps must be >= 0, got -1/4$"):
            kkm_lebesgue_witness(segment, cov, "-1/4")

    @pytest.mark.parametrize("eps", [None, Fraction(1, 4)])
    def test_empty_sample_rejected(self, segment, eps):
        with pytest.raises(BadSampleError, match="^the sample is empty$"):
            kkm_lebesgue_witness(segment, PointCloudCover((), {}), eps)

    @settings(max_examples=150, deadline=None)
    @given(st.lists(segment_points, min_size=1, max_size=8), st.data())
    def test_multiplicity_matches_point_set_loop(self, sample, data):
        # set points come from the sample or the whole segment grid, so
        # repeats, empty sets, missed and stray points all occur
        pool = st.sampled_from(sample) | segment_points
        sets = data.draw(st.dictionaries(
            st.sampled_from("XYZW"), st.frozensets(pool, max_size=5), max_size=4
        ))
        segment = construct_standard("cube", 1)
        cover = PointCloudCover(tuple(sample), sets)
        want = ref.sample_cover_multiplicity(sample, sets)
        if want is None:
            with pytest.raises(BadSampleError):
                kkm_lebesgue_witness(segment, cover, Fraction(1, 4))
            return
        rep = kkm_lebesgue_witness(segment, cover, Fraction(1, 4))
        if want > segment.dim:
            assert rep.payload == {
                "reason": "multiplicity_exceeds_dimension", "multiplicity": want,
            }
        else:
            assert rep.verdict != "hypothesis_violated"


def five_sets(r=4):
    """Cube n=2 at resolution r in five sets of multiplicity 1: the four
    corner blocks (the rows y <= r/4 and y >= 3r/4, split at x <= r/2) and
    the middle rows between them, as lattice points."""
    model = LatticeModel("cube", 2, r)
    lo, hi = r // 4, r - r // 4
    blocks = {
        "low_left": lambda x, y: y <= lo and x <= r // 2,
        "low_right": lambda x, y: y <= lo and x > r // 2,
        "mid": lambda x, y: lo < y < hi,
        "high_left": lambda x, y: y >= hi and x <= r // 2,
        "high_right": lambda x, y: y >= hi and x > r // 2,
    }
    return LatticeCover(model, {
        name: {p for p in model.points() if inside(*p)} for name, inside in blocks.items()
    })


def as_sample_cover(cover):
    """A cube lattice cover as a sample cover of construct_standard("cube",
    n): point a becomes a / r."""
    r = cover.model.r

    def scaled(points):
        return frozenset(tuple(Fraction(a, r) for a in p) for p in points)

    return PointCloudCover(
        tuple(scaled(cover.model.points())),
        {name: scaled(pts) for name, pts in cover.sets.items()},
    )


class TestEssentialSet:
    """The kkm-lebesgue witness is the first set with no avoidance
    certificate, whatever the number of facets it touches."""

    def test_middle_row_of_five_sets(self):
        # the middle row touches only the two facets x = 0 and x = 1, at most
        # n, but no divisor equivalent to the ample class avoids both
        q2 = construct_standard("cube", 2)
        rep = kkm_lebesgue_witness(q2, as_sample_cover(five_sets()), 0)
        assert rep.verdict == "witness_found"
        assert (rep.payload["set"], rep.payload["touched"]) == ("mid", [0, 1])
        certs = rep.payload["certificates"]
        assert certs["mid"] is None
        assert all(certs[name] is not None for name in certs if name != "mid")

    def test_first_essential_set_in_cover_order(self):
        # the middle row touches two facets and the outer rows all four; both
        # are essential, and the witness is the first in cover order, not the
        # first touching n+1 facets
        q2 = construct_standard("cube", 2)
        sample = tuple((Fraction(i, 2), Fraction(j, 2)) for i in range(3) for j in range(3))
        sets = {
            "middle": frozenset(p for p in sample if p[1] == Fraction(1, 2)),
            "outer": frozenset(p for p in sample if p[1] != Fraction(1, 2)),
        }
        for order in (["middle", "outer"], ["outer", "middle"]):
            cover = PointCloudCover(sample, {name: sets[name] for name in order})
            rep = kkm_lebesgue_witness(q2, cover, 0)
            assert (rep.verdict, rep.payload["set"]) == ("witness_found", order[0])

    @pytest.mark.parametrize("cover", [
        pytest.param(five_sets(4), id="five-sets-r4"),
        pytest.param(five_sets(8), id="five-sets-r8"),
        pytest.param(cube_cover(2, 1, {str(p): {p} for p in itertools.product((0, 1), repeat=2)}),
                     id="singletons"),
    ] + [
        pytest.param(
            harness.random_low_multiplicity_cover(LatticeModel("cube", n, r), m, seed).cover,
            id=f"random-n{n}-r{r}-m{m}-seed{seed}",
        )
        for n, r in ((2, 4), (2, 6), (3, 4)) for m in (n, n + 1) for seed in range(8)
    ])
    def test_both_labs_agree(self, cover):
        """A cube lattice cover read as a sample cover at eps = 0 gets the
        same verdict kind from lebesgue_witness and kkm_lebesgue_witness: on
        the unit cube a set has no certificate exactly when it touches two
        opposite facets."""
        lattice = lebesgue_witness(cover)
        q = construct_standard("cube", cover.model.n)
        sample = kkm_lebesgue_witness(q, as_sample_cover(cover), 0)
        assert sample.verdict == lattice.verdict
        if sample.verdict == "witness_found":
            name = sample.payload["set"]
            assert any(spans_pair(cover, name, axis) for axis in range(cover.model.n))


def brute_force_spacing(sample):
    """Smallest positive max-norm distance over all pairs, or None."""
    dists = [
        max(abs(a - b) for a, b in zip(p, q))
        for i, p in enumerate(sample)
        for q in sample[i + 1:]
    ]
    return min((d for d in dists if d > 0), default=None)


class TestSampleSpacing:
    @settings(max_examples=150, deadline=None)
    @given(
        st.integers(min_value=1, max_value=3).flatmap(
            lambda n: st.lists(
                st.tuples(*[small_coords] * n), min_size=1, max_size=25
            )
        ),
        st.data(),
    )
    def test_matches_all_pairs(self, pts, data):
        # repeat some points so the sweep meets duplicates
        sample = pts + data.draw(st.lists(st.sampled_from(pts), max_size=5))
        want = brute_force_spacing(sample)
        if want is None:
            with pytest.raises(ValueError):
                covering.sample_spacing(sample)
        else:
            assert covering.sample_spacing(sample) == want

    def test_one_dimensional_with_duplicates(self):
        sample = [(Fraction(3),), (Fraction(0),), (Fraction(3),), (Fraction(5, 2),)]
        assert covering.sample_spacing(sample) == Fraction(1, 2)
