"""The mask code of the lattice lab against the tuple code it replaced
(lattice_reference), and the set semantics of PointSet."""

import dataclasses
import functools
import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from toricover import InputError, LatticeCover, LatticeModel, cli, covering, harness
from toricover.covering import PointSet

import lattice_reference as ref


@st.composite
def models(draw, max_n=3, max_r=4):
    kind = draw(st.sampled_from(["cube", "simplex"]))
    n = draw(st.integers(min_value=1, max_value=max_n))
    r = draw(st.integers(min_value=1, max_value=max_r))
    return LatticeModel(kind, n, r)


def point_set(model, mask):
    return PointSet(model.grid(), mask)


def as_frozensets(sets):
    return [(name, frozenset(pts)) for name, pts in sets.items()]


class TestMoveTable:
    @settings(max_examples=60, deadline=None)
    @given(models())
    def test_neighbours_match_reference(self, model):
        grid = model.grid()
        for p in model.points():
            got = point_set(model, grid.expand(1 << grid.bit(p)))
            assert got == frozenset(ref.neighbors(model, p))

    @pytest.mark.parametrize("kind", ["cube", "simplex"])
    def test_cells_are_points_in_order(self, kind):
        model = LatticeModel(kind, 3, 4)
        grid = model.grid()
        bits = [grid.bit(p) for p in model.points()]
        assert bits == sorted(bits) and len(set(bits)) == len(bits)
        assert grid.full == sum(1 << b for b in bits)
        assert list(point_set(model, grid.full)) == list(model.points())

    @pytest.mark.parametrize("kind", ["cube", "simplex"])
    def test_facet_masks(self, kind):
        model = LatticeModel(kind, 2, 3)
        for coord, value in model.facets():
            want = frozenset(p for p in model.points() if p[coord] == value)
            assert point_set(model, model.grid().facets[(coord, value)]) == want


class TestComponents:
    @settings(max_examples=80, deadline=None)
    @given(st.data())
    def test_match_reference(self, data):
        model = data.draw(models(max_r=5))
        points = data.draw(st.sets(st.sampled_from(model.points()), max_size=40))
        got = covering.connected_components(points, model)
        assert got == ref.connected_components(points, model)
        cover = LatticeCover(model, {"X": points})
        assert covering.set_components(cover, "X") == got

    @pytest.mark.parametrize("kind", ["cube", "simplex"])
    @pytest.mark.parametrize("shape", [
        lambda p: sum(p[:3]) % 2 == 0,
        lambda p: p[0] % 3 != 2 and p[1] % 2 == 0 and p[2] % 2 == 0,
        lambda p: p[0] % 2 == 0,
    ], ids=["checkerboard", "dominoes", "slabs"])
    def test_many_small_components(self, kind, shape):
        """Sets made of many isolated cells or small pieces, where the
        components outnumber the cells of each."""
        model = LatticeModel(kind, 3, 8)
        points = {p for p in model.points() if shape(p)}
        assert covering.connected_components(points, model) == ref.connected_components(
            points, model
        )


@st.composite
def covers(draw):
    model = draw(models(max_r=5))
    points = model.points()
    nsets = draw(st.integers(min_value=0, max_value=5))
    names = draw(st.lists(st.text("ABCXYZ", min_size=1, max_size=2), min_size=nsets,
                          max_size=nsets, unique=True))
    return model, {name: draw(st.sets(st.sampled_from(points), max_size=25)) for name in names}


class TestMultiplicityAndPalais:
    @settings(max_examples=80, deadline=None)
    @given(covers())
    def test_match_reference(self, drawn):
        model, sets = drawn
        cover = LatticeCover(model, sets)
        assert covering.multiplicity(cover) == ref.multiplicity(sets)
        got = [
            [(piece.cover_sets, piece.points) for piece in cls]
            for cls in covering.palais_coloring(cover)
        ]
        assert got == ref.palais_coloring(sets)


GENERATOR_MODELS = [
    LatticeModel("cube", 1, 1), LatticeModel("cube", 1, 6), LatticeModel("cube", 2, 8),
    LatticeModel("cube", 3, 6), LatticeModel("simplex", 1, 1), LatticeModel("simplex", 1, 5),
    LatticeModel("simplex", 2, 7), LatticeModel("simplex", 3, 5),
    # random_low_multiplicity_cover's slab cells at their edges, against the
    # reference's BFS: adjacent sources, odd r (midpoints tie) and n = 4
    LatticeModel("cube", 2, 1), LatticeModel("cube", 3, 5), LatticeModel("cube", 4, 3),
]


class TestGeneratorsMatchReference:
    """Same RNG draws, same sets, same name order."""

    @pytest.mark.parametrize("model", GENERATOR_MODELS, ids=repr)
    def test_random_covers(self, model):
        for seed in range(4):
            for m in (1, 2, 3):
                got = harness.random_low_multiplicity_cover(model, m, seed).cover.sets
                assert as_frozensets(got) == list(
                    ref.random_low_multiplicity_cover(model, m, seed).items()
                )
            for k in range(1, model.n + 1):
                got = harness.random_small_set_family(model, k, seed).sets
                assert as_frozensets(got) == list(
                    ref.random_small_set_family(model, k, seed).items()
                )
            parts = min(model.n + 1, len(model.points()))
            got = harness.dilated_partition_cover(model, parts, seed).sets
            assert as_frozensets(got) == list(
                ref.dilated_partition_cover(model, parts, seed).items()
            )

    @pytest.mark.parametrize("n, r", [(1, 4), (1, 8), (2, 8), (2, 16), (3, 12), (3, 24), (4, 16)])
    def test_bricks(self, n, r):
        got = harness.shifted_brick_cover(n, r).sets
        want = ref.shifted_brick_cover(LatticeModel("cube", n, r))
        assert as_frozensets(got) == list(want.items())


class TestPointSet:
    MODEL = LatticeModel("cube", 2, 3)

    def sets(self):
        cover = LatticeCover(self.MODEL, {"A": {(0, 0), (1, 2), (3, 3)}, "B": {(1, 2), (2, 0)}})
        return cover.sets["A"], cover.sets["B"]

    def test_iteration_len_bool_hash(self):
        a, _ = self.sets()
        assert list(a) == [(0, 0), (1, 2), (3, 3)]
        assert len(a) == 3 and a and not point_set(self.MODEL, 0)
        assert hash(a) == hash(frozenset(a))
        assert {a: 1}[frozenset(a)] == 1

    def test_equality_and_order_against_frozensets(self):
        a, b = self.sets()
        fa = frozenset({(0, 0), (1, 2), (3, 3)})
        assert a == fa and fa == a and not (a != fa) and not (fa != a)
        assert a == set(fa) and set(fa) == a
        assert a != frozenset({(0, 0)}) and frozenset({(0, 0)}) != a
        assert a <= fa and fa <= a and a >= fa and fa >= a
        assert frozenset({(0, 0)}) <= a and a >= frozenset({(0, 0)})
        assert frozenset({(0, 0)}) < a and a > {(0, 0)}
        assert not (a <= {(0, 0)}) and not ({(0, 0), (2, 2)} <= a)
        assert not (a < fa) and not (fa < a)
        assert a != b and not (a <= b) and (a & b) <= b

    def test_operations_with_plain_sets(self):
        a, b = self.sets()
        fa, fb = frozenset(a), frozenset(b)
        plain = {(1, 2), (9, 9), "x"}
        for x, fx in ((a, fa), (b, fb)):
            for y in (b, plain, set(fb)):
                fy = frozenset(y)
                assert x & y == fx & fy and y & x == fy & fx
                assert x | y == fx | fy and y | x == fy | fx
                assert x - y == fx - fy and y - x == fy - fx
                assert x ^ y == fx ^ fy and y ^ x == fy ^ fx
                assert x.isdisjoint(y) == fx.isdisjoint(fy)
        assert isinstance(a & b, PointSet) and isinstance(a | plain, frozenset)
        union = set()
        union |= a
        assert union == fa

    @pytest.mark.parametrize("item", [
        [0, 0], (0.0, 0.0), 0.5, 1.5, "ab", "", (0,), (0, 0, 0), (), None, (1, "a"),
        ((0, 0),), (-1, 0), (4, 0), (0, 4), frozenset(),
    ])
    @pytest.mark.parametrize("kind", ["cube", "simplex"])
    def test_non_points_are_not_members(self, kind, item):
        model = LatticeModel(kind, 2, 3)
        full = point_set(model, model.grid().full)
        assert (item in full) is False

    def test_simplex_members(self):
        model = LatticeModel("simplex", 2, 3)
        full = point_set(model, model.grid().full)
        assert all(p in full for p in model.points())
        assert (1, 1, 2) not in full and (1, 1) not in full and (0, 0, 3, 0) not in full


INDEX_MODELS = [
    LatticeModel("cube", 2, 3), LatticeModel("cube", 3, 2), LatticeModel("simplex", 2, 3),
]


def int_strays(model, p):
    """Int tuples near the point p that are not points of the model: past r,
    negative, one coordinate too many and one too few."""
    j = len(p) - 1
    return [p[:j] + (model.r + 1,), p[:j] + (-1,), p + (0,), p[:j]]


def other_strays(p):
    """Items that are no int tuple: p with a non-integral float or Fraction,
    with bools, as floats, as Fractions, as a list, and None."""
    return [
        (p[0] + 0.5,) + p[1:], (p[0] + Fraction(1, 2),) + p[1:], tuple(map(bool, p)),
        tuple(map(float, p)), tuple(map(Fraction, p)), list(p), None,
    ]


class TestPointIndex:
    """Grid.set_of takes the grid's own point tuples by their positions in
    the index, other int tuples after a type pass and every other collection
    point by point; all three answer as bit does."""

    @pytest.mark.parametrize("model", INDEX_MODELS, ids=repr)
    def test_set_of_answers_as_bit(self, model):
        grid = model.grid()
        rng = random.Random(15)
        for trial in range(300):
            pool = [rng.choice(model.points()) for _ in range(6)]
            for p in pool[:2]:
                pool += int_strays(model, p)
                # every other trial mixes in items that are no int tuple
                pool += other_strays(p) if trial % 2 else []
            pts = [rng.choice(pool) for _ in range(rng.randrange(10))]
            bits = [grid.bit(p) for p in pts]
            got, bad = grid.set_of(pts)
            assert got.grid is grid
            assert got.mask == sum(1 << b for b in set(bits) - {None})
            assert bad == [p for p, b in zip(pts, bits) if b is None]
            assert grid.set_of(iter(pts)) == (got, bad)

    @pytest.mark.parametrize("model", INDEX_MODELS, ids=repr)
    def test_own_tuples_fresh_tuples_and_twins(self, model):
        """A set read off a PointSet holds the grid's own tuples; the same
        points as fresh equal tuples, those with a float or bool twin of a
        point put in first, the own tuples with a twin put last, and a list
        holding a list are no such collection.
        set_of, >= and the reflected <= answer as bit does on each."""
        grid = model.grid()
        points = model.points()
        rng = random.Random(31)
        for trial in range(100):
            x = PointSet(grid, rng.getrandbits(grid.full.bit_length()) & grid.full)
            extra = rng.getrandbits(grid.full.bit_length()) & grid.full
            z = PointSet(grid, extra | x.mask if trial % 2 else extra)
            p = rng.choice(points)
            own = set(x)
            fresh = {tuple(list(q)) for q in x}
            twin = tuple(map(float if trial % 3 else bool, p))
            twinned = {twin} | fresh  # twin stays when a fresh tuple equals it
            assert all(q is grid.points[grid.index[q]] for q in own)
            assert not any(q is grid.points[grid.index[q]] for q in fresh)
            for items in (own, fresh, twinned, list(own) + [twin], [[0, 0]], [list(p)] + list(own)):
                bits = [grid.bit(q) for q in items]
                got, bad = grid.set_of(items)
                assert got.grid is grid
                assert got.mask == sum(1 << b for b in set(bits) - {None})
                assert bad == [q for q, b in zip(items, bits) if b is None]
                if isinstance(items, set):
                    want = all(b is not None and z.mask >> b & 1 for b in bits)
                    assert (z >= items) == want and (items <= z) == want
                    assert (z >= frozenset(items)) == want

    @pytest.mark.parametrize("model", INDEX_MODELS, ids=repr)
    def test_comparisons_answer_as_frozensets(self, model):
        grid = model.grid()
        points = model.points()
        model_points = set(points)
        rng = random.Random(15)
        for trial in range(300):
            x = PointSet(grid, rng.getrandbits(grid.full.bit_length()) & grid.full)
            # mostly points of x, some other points and rarely a stray, so
            # that every comparison comes out both ways.  A float, Fraction or
            # bool tuple equal to a point is left out: a frozenset holds it for
            # the point, while a PointSet refuses it as bit does (tested below).
            mine = list(x) or [points[0]]
            y = {rng.choice(mine) for _ in range(rng.randrange(len(mine) + 2))}
            if trial % 3 == 0:
                y.add(rng.choice(points))
            if trial % 5 == 0:
                p = rng.choice(points)
                others = [s for s in other_strays(p)[:3] if s not in model_points]
                strays = int_strays(model, p) + others + [None, "ab"]
                y.add(rng.choice(strays))
            fx = frozenset(x)
            for plain in (y, frozenset(y)):
                fy = frozenset(plain)
                for a, b, fa, fb in ((x, plain, fx, fy), (plain, x, fy, fx)):
                    assert (a <= b) == (fa <= fb)
                    assert (a >= b) == (fa >= fb)
                    assert (a < b) == (fa < fb)
                    assert (a > b) == (fa > fb)
                    assert (a == b) == (fa == fb) and (a != b) == (fa != fb)

    @pytest.mark.parametrize("model", INDEX_MODELS, ids=repr)
    def test_refused_items_stay_refused(self, model):
        """A float, Fraction or bool tuple equal to a point finds it in the index;
        set_of, `in` and >= still refuse it, as bit does, while <= and ==
        go point by point and answer as frozenset(x) does."""
        grid = model.grid()
        for p in model.points():
            x = PointSet(grid, 1 << grid.bit(p))
            items = [tuple(map(float, p)), tuple(map(Fraction, p))]
            if set(p) <= {0, 1}:
                items.append(tuple(map(bool, p)))  # (True, False) == (1, 0)
            for item in items:
                assert grid.points[grid.index.get(item)] == p
                assert grid.bit(item) is None and item not in x
                assert grid.set_of([p, item]) == (x, [item])
                assert not x >= {item} and not {item} <= x
                assert x <= {item} and frozenset({item}) >= x and x == {item}
                assert frozenset(x) == {item}

    def test_equal_models_share_one_grid(self):
        a, b = LatticeModel("simplex", 2, 3), LatticeModel("simplex", 2, 3)
        fresh = LatticeModel("simplex", 2, 3)
        before = (hash(a), repr(a), dataclasses.asdict(a))
        grid = a.grid()
        assert b.grid() is grid and a.grid() is grid
        x, y = PointSet(grid, 0b11), PointSet(b.grid(), 0b110)
        assert type(x & y) is PointSet and (x & y).mask == 0b10
        # asking for the grid changes nothing of the model: it is equal to
        # one that never asked, with the same hash, repr and fields
        assert a == fresh and (hash(a), repr(a), dataclasses.asdict(a)) == before
        assert hash(fresh) == hash(a) and {a: 1}[fresh] == 1
        assert [f.name for f in dataclasses.fields(a)] == ["kind", "n", "r"]


class TestKRange:
    """k is checked once, by LatticeModel.k_faces, before any other
    precondition."""

    @pytest.mark.parametrize("witness, kind", [
        (covering.kkm_witness, "simplex"), (covering.complement_witness, "cube"),
    ])
    @pytest.mark.parametrize("k", [-1, 3])
    def test_out_of_range(self, witness, kind, k):
        cover = LatticeCover(LatticeModel(kind, 2, 4), {})
        with pytest.raises(InputError, match=r"face dimension -?\d+ out of range 0\.\.2"):
            witness(cover, k)

    @pytest.mark.parametrize("theorem, pattern", [("kkm", "kkm"), ("complement", "bricks")])
    def test_cli_exit(self, theorem, pattern, capsys):
        assert cli.main(["generate", "--pattern", pattern, "--n", "2", "--r", "8"]) == 0
        payload = capsys.readouterr().out
        code = cli.main(["verify", "--theorem", theorem, "--k", "9", "--input", payload])
        assert code == 4
        assert "face dimension 9 out of range 0..2" in capsys.readouterr().err


class TestGridCap:
    """An expand shifts the grid's (r+1)^n cells once per move, 2n moves on
    the cube and n(n+1) on the simplex; a model whose cells times moves pass
    MAX_EXPAND_BITS is refused before anything is built."""

    @pytest.mark.parametrize("n, r", [(18, 1), (12, 2), (8, 5), (6, 11)])
    def test_largest_grids_accepted(self, n, r):
        assert covering.MAX_EXPAND_BITS == 2**27
        assert (r + 1) ** n * n * (n + 1) <= covering.MAX_EXPAND_BITS
        grid = LatticeModel("simplex", n, r).grid()
        # one source mask per coordinate, shared by its n moves
        assert len(grid.moves) == n + 1
        assert sum(len(shifts) for _, shifts in grid.moves) == n * (n + 1)
        masks = [grid.full, *grid.facets.values(), *(src for src, _ in grid.moves)]
        assert sum(m.bit_length() for m in masks) <= covering.MAX_EXPAND_BITS
        assert grid.expand(grid.full) == grid.full

    @pytest.mark.parametrize("n, r", [(19, 1), (12, 3), (8, 6), (6, 12), (4, 50), (200, 1)])
    def test_larger_grids_refused(self, n, r):
        with pytest.raises(InputError, match="grid cells times .* moves, more than 134217728"):
            LatticeModel("simplex", n, r)


def test_brick_masks_are_products_of_slabs():
    """Each brick is the AND of one clipped slab per axis."""
    cover = harness.shifted_brick_cover(2, 8)
    grid = cover.model.grid()
    for pts in cover.sets.values():
        lo = [min(p[j] for p in pts) for j in range(2)]
        hi = [max(p[j] for p in pts) for j in range(2)]
        box = grid.slab(0, lo[0], hi[0]) & grid.slab(1, lo[1], hi[1])
        assert pts.mask == box
        assert set(pts) == set(itertools.product(range(lo[0], hi[0] + 1), range(lo[1], hi[1] + 1)))


TEXT_MODELS = [LatticeModel("cube", n, r) for n, r in ((1, 5), (2, 4), (3, 3), (4, 2))] + [
    LatticeModel("simplex", n, r) for n, r in ((1, 5), (2, 4), (3, 3))
]


class TestTextsAndPositions:
    """Grid.texts holds the compact JSON text of each point in point order,
    Grid.positions the positions of a mask's points in grid.points, and the
    texts are built only when something asks for them."""

    @pytest.mark.parametrize("model", TEXT_MODELS, ids=repr)
    def test_texts_are_the_points(self, model):
        grid = model.grid()
        assert len(grid.texts) == len(grid.points)
        for i, p in enumerate(grid.points):
            assert grid.texts[i] == ",".join(map(str, p))

    @pytest.mark.parametrize("model", TEXT_MODELS, ids=repr)
    def test_positions_index_the_points(self, model):
        grid = model.grid()
        rng = random.Random(20)
        masks = [0, grid.full] + [
            rng.getrandbits(grid.full.bit_length()) & grid.full for _ in range(198)
        ]
        for mask in masks:
            want = [i for i, p in enumerate(grid.points) if mask >> grid.bit(p) & 1]
            assert list(grid.positions(mask)) == want
            assert list(grid.points_of(mask)) == [grid.points[i] for i in want]

    @pytest.mark.parametrize("kind", ["cube", "simplex"])
    def test_texts_are_lazy(self, kind, monkeypatch):
        # fresh grids, so that no other test's use of the texts shows here
        monkeypatch.setattr(covering, "_model_grid", functools.lru_cache(covering.Grid))
        model = LatticeModel(kind, 2, 6)
        cover = harness.random_low_multiplicity_cover(model, 2, 7).cover
        if kind == "cube":
            covering.lebesgue_witness(cover)
        covering.palais_coloring(cover)
        assert cover.grid is model.grid()
        assert "texts" not in vars(cover.grid)
        cover.grid.texts
        assert "texts" in vars(cover.grid)
