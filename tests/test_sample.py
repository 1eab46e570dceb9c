"""Sample covers as PointSets over an indexed Sample: the library-built,
hand-built and JSON forms of one cover give the same report, and the sample
path hashes no Fraction."""

import dataclasses
import hashlib
import itertools
import json
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from toricover import (
    BadSampleError,
    InputError,
    PointCloudCover,
    construct_standard,
    from_halfspaces,
    perturb,
)
from toricover import covering, harness, jsonio
from toricover.covering import PointSet, Sample

SHAPES = [("cube", 2), ("cube", 3), ("simplex", 3)]


def sample_cover(kind, n, r, seed):
    p = perturb(construct_standard(kind, n), Fraction(1, 100), seed=seed)
    cover, eps = harness.polytope_sample_cover(p, r, 2, seed)
    return p, cover, eps


class TestEquivalentForms:
    @settings(max_examples=20, deadline=None)
    @given(
        st.sampled_from(SHAPES),
        st.integers(min_value=2, max_value=6),
        st.integers(min_value=0, max_value=10_000),
        st.sampled_from([None, Fraction(1, 2), Fraction(1)]),
    )
    def test_library_hand_built_and_json_covers_agree(self, shape, r, seed, scale):
        p, cover, eps = sample_cover(*shape, r, seed)
        if scale is not None:
            eps = eps * scale
        hand = PointCloudCover(
            cover.sample, {name: frozenset(pts) for name, pts in cover.sets.items()}
        )
        text = json.dumps(jsonio.point_cover_to_json(p, cover, eps))
        p2, loaded, eps2 = jsonio.point_cover_from_json(json.loads(text))
        assert eps2 == eps
        want = jsonio.report_to_json(covering.kkm_lebesgue_witness(p, cover, eps))
        assert jsonio.report_to_json(covering.kkm_lebesgue_witness(p, hand, eps)) == want
        assert jsonio.report_to_json(covering.kkm_lebesgue_witness(p2, loaded, eps2)) == want
        # the hand-built form writes the same JSON as the library-built one
        assert json.dumps(jsonio.point_cover_to_json(p, hand, eps)) == text
        assert {name: set(pts) for name, pts in loaded.sets.items()} == {
            name: set(pts) for name, pts in cover.sets.items()
        }

    def test_library_sets_are_point_sets_over_the_sample(self):
        p, cover, eps = sample_cover("cube", 3, 4, 1)
        sample, sets = cover.indexed()
        assert sample.points is cover.sample
        assert sets is cover.sets
        assert all(type(pts) is PointSet and pts.grid is sample for pts in sets.values())


class TestNoFractionHashes:
    def test_sample_path_hashes_no_fraction(self, monkeypatch):
        p = perturb(construct_standard("cube", 3), Fraction(1, 100), seed=3)
        calls = []
        fraction_hash = Fraction.__hash__

        def counting(self):
            calls.append(self)
            return fraction_hash(self)

        monkeypatch.setattr(Fraction, "__hash__", counting)
        counts = []
        cover, eps = harness.polytope_sample_cover(p, 6, 2, 3)
        counts.append(len(calls))
        covering.kkm_lebesgue_witness(p, cover, eps)
        covering.kkm_lebesgue_witness(p, cover)
        counts.append(len(calls))
        jsonio.point_cover_to_json(p, cover, eps)
        counts.append(len(calls))
        assert counts == [0, 0, 0]
        # the counter counts: a hand-built cover hashes its points
        covering.kkm_lebesgue_witness(
            p, PointCloudCover(cover.sample, {"all": frozenset(cover.sample)}), eps
        )
        assert len(calls) >= len(cover.sample)


class TestSample:
    def test_repeated_points_share_a_bit(self):
        pts = ((Fraction(1),), (Fraction(1, 2),), (Fraction(1),), (Fraction(-1),))
        sample = Sample(pts)
        # a repeat sits at the bit of its first occurrence
        assert sample.points is pts and sample.at == [0, 1, 0, 3]
        assert sample.den == 2 and sample.ints == [(2,), (1,), (2,), (-2,)]
        assert sample.full == 0b1011 and sample.bit((Fraction(1),)) == 0
        pts_23 = PointSet(sample, covering._mask([sample.at[i] for i in (2, 3)]))
        assert pts_23 == {(Fraction(1),), (Fraction(-1),)} and len(pts_23) == 2

    def test_bit_reads_exact_coordinates(self):
        sample = Sample(((Fraction(1, 2), Fraction(0)), (Fraction(1), Fraction(3, 2))))
        assert sample.bit((Fraction(1), Fraction(3, 2))) == 1
        assert sample.bit((1, Fraction(3, 2))) == 1
        # a denominator the sample does not have, a wrong length, not a point
        assert sample.bit((Fraction(1, 3), Fraction(0))) is None
        assert sample.bit((Fraction(1, 2),)) is None
        assert sample.bit(("1/2", 0)) is None
        assert sample.bit(None) is None
        # only a tuple of ints and Fractions is a point: no float, list or string
        assert sample.bit((0.5, 0)) is None and sample.bit((1.0, 1.5)) is None
        assert sample.bit([Fraction(1, 2), 0]) is None
        assert sample.bit("1") is None and sample.bit((Fraction(1), "3/2")) is None
        # a float whose product with the denominator rounds onto a numerator
        tenths = Sample(((Fraction(1, 10),), (Fraction(3, 10),)))
        assert tenths.bit((Fraction(1, 10),)) == 0 and tenths.bit((0.1,)) is None
        assert tenths.set_of([(0.1,), (Fraction(3, 10),)])[1] == [(0.1,)]

    def test_float_cover_is_refused(self, segment):
        sample = (Fraction(1, 10), Fraction(3, 10))
        for stray in (0.1, 0.30000000000000004):
            cover = PointCloudCover(
                tuple((x,) for x in sample), {"X": {(stray,)}, "Y": {(sample[0],), (sample[1],)}}
            )
            with pytest.raises(BadSampleError, match="^set 'X' has points outside the sample$"):
                covering.kkm_lebesgue_witness(segment, cover)

    def test_check_inside_names_the_first_input_position(self, segment):
        sample = Sample(((Fraction(1),), (Fraction(3),), (Fraction(1),), (Fraction(-1),)))
        # facet 0 (x >= 0) comes first, so -1 at position 3 is named before 3
        with pytest.raises(InputError, match=r"^sample\[3\] lies outside the polytope$"):
            sample.check_inside(segment)
        Sample(((Fraction(0),), (Fraction(1),), (Fraction(0),))).check_inside(segment)

    def test_near_masks_match_the_slack_test(self, q2):
        sample = Sample(harness.lattice_sample(q2, 4))
        for eps in (0, Fraction(1, 4), Fraction(1, 8)):
            for f, mask in enumerate(sample.near(q2, eps)):
                u, c = q2.normals[f], q2.offsets[f]
                want = {
                    b for b, x in enumerate(sample.points)
                    if sum(w * a for w, a in zip(u, x)) + c <= eps * sum(map(abs, u))
                }
                assert {b for b in range(len(sample.points)) if mask >> b & 1} == want

    def test_empty_sample(self, segment):
        for sample in (Sample(()), Sample.from_grid((), [], 3)):
            assert sample.full == 0 and sample.near(segment, 1) == [0, 0]
            assert sample.box([(0, 0, 3)]) == sample.box([]) == 0
            sample.check_inside(segment)

    def test_stray_point_raises_where_the_witness_did(self, segment):
        sample = harness.lattice_sample(segment, 2)
        cover = PointCloudCover(sample, {"X": frozenset(sample), "Y": {(Fraction(1, 3),)}})
        with pytest.raises(BadSampleError, match="^set 'Y' has points outside the sample$"):
            cover.indexed()
        with pytest.raises(BadSampleError, match="^set 'Y' has points outside the sample$"):
            jsonio.point_cover_to_json(segment, cover)
        with pytest.raises(BadSampleError, match="^set 'Y' has points outside the sample$"):
            covering.kkm_lebesgue_witness(segment, cover, 1)
        # the eps and empty-sample checks come first
        with pytest.raises(InputError, match="^eps must be >= 0"):
            covering.kkm_lebesgue_witness(segment, cover, -1)
        with pytest.raises(BadSampleError, match="^the sample is empty$"):
            covering.kkm_lebesgue_witness(segment, PointCloudCover((), cover.sets), 1)


def grid_sample(p, r):
    columns = []
    points = harness.lattice_sample(p, r, columns=columns)
    return Sample.from_grid(points, columns, r)


def outcome(f, *args):
    """f(*args), or the message of the InputError it raises."""
    try:
        return f(*args)
    except InputError as exc:
        return str(exc)


class TestGridSample:
    @pytest.mark.parametrize("shape", [("cube", 3), ("simplex", 3), ("cube", 4)])
    @pytest.mark.parametrize("seed", [0, 1])
    def test_agrees_with_the_sample_of_its_points(self, shape, seed):
        base = construct_standard(*shape)
        p = perturb(base, Fraction(1, 100), seed=seed)
        # polytopes that hold all, part and none of the sample
        others = [
            base,
            from_halfspaces(base.normals, [c / 2 for c in base.offsets]),
            p.translate((Fraction(1, 3),) * p.dim),
            p.translate((Fraction(-2),) * p.dim),
        ]
        for r in range(1, 9):
            grid = grid_sample(p, r)
            ref = Sample(harness.lattice_sample(p, r))
            assert grid.points == ref.points
            assert grid.den == r and [tuple(a * Fraction(1, r) for a in g) for g in grid.ints] == [
                tuple(pt) for pt in grid.points
            ]
            assert grid.full == ref.full and grid.at == ref.at
            shifted = [tuple(x + Fraction(1, 2 * r) for x in pt) for pt in ref.points]
            for pt in ref.points + tuple(shifted):
                assert grid.bit(pt) == ref.bit(pt)
            for eps in (0, Fraction(1, 2 * r), Fraction(1, r), 1):
                assert grid.near(p, eps) == ref.near(p, eps)
            for q in [p, *others]:
                assert outcome(grid.check_inside, q) == outcome(ref.check_inside, q)
            assert outcome(covering.sample_spacing, grid) == outcome(covering.sample_spacing, ref)


class TestNearMemo:
    def test_repeated_query_gives_the_same_list(self):
        p, cover, eps = sample_cover("cube", 3, 5, 2)
        sample, _ = cover.indexed()
        first = sample.near(p, eps)
        # an equal eps of another type or object finds the same answer
        assert sample.near(p, Fraction(eps)) is first
        assert sample.near(p, str(eps)) is first
        fresh = Sample(cover.sample)
        assert first == fresh.near(p, eps)

    def test_other_eps_or_polytope_object_recomputes(self):
        p, cover, eps = sample_cover("simplex", 3, 6, 4)
        sample, _ = cover.indexed()
        twin = dataclasses.replace(p)
        assert twin == p and twin is not p
        fresh = Sample(cover.sample)
        first = sample.near(p, eps)
        queries = [(p, eps / 2), (p, 0), (twin, eps), (p, eps), (twin, eps / 2), (p, eps)]
        answers = [first]
        for q, e in queries:
            got = sample.near(q, e)
            assert got == fresh.near(q, e)
            # every query differs from the one before it in eps or object
            assert got is not answers[-1]
            answers.append(got)
        # a different polytope with the same facet count is not served the memo
        moved = p.translate((Fraction(1, 3),) * 3)
        assert sample.near(moved, eps) == fresh.near(moved, eps) != first

    def test_facet_touch_set_reads_the_witness_masks(self, monkeypatch):
        p, cover, eps = sample_cover("cube", 3, 6, 1)
        report = covering.kkm_lebesgue_witness(p, cover, eps)
        assert report.verdict == covering.WITNESS_FOUND
        calls = []
        at_most = Sample._at_most

        def counting(self, u, bound):
            calls.append(u)
            return at_most(self, u, bound)

        monkeypatch.setattr(Sample, "_at_most", counting)
        touched = covering.facet_touch_set(p, cover.sets[report.payload["set"]], eps)
        assert touched == set(report.payload["touched"]) and calls == []


# sha256 of json.dumps(point_cover_to_json) + json.dumps(report_to_json) of
# polytope_sample_cover(p, r, m, seed) on the shape perturbed with seed, taken
# from a scan that looped over heads and facets one at a time: they pin the
# point order and the cover's random draws
PINNED = [
    (("cube", 2), 5, 2, 1, "2e8d0caf4d440ece"),
    (("cube", 3), 4, 2, 2, "ff15c00ce3d25369"),
    (("cube", 3), 7, 3, 3, "b59ec8f8b04c0edd"),
    (("simplex", 3), 6, 2, 4, "e251bef5d3cd7b5d"),
    (("simplex", 2), 8, 3, 5, "52f6097192dc1ddd"),
    (("cube", 4), 3, 2, 6, "239c326f61b25645"),
]


@pytest.mark.parametrize("shape, r, m, seed, digest", PINNED)
def test_pinned_sample_cover_digests(shape, r, m, seed, digest):
    p = perturb(construct_standard(*shape), Fraction(1, 100), seed=seed)
    cover, eps = harness.polytope_sample_cover(p, r, m, seed)
    text = json.dumps(jsonio.point_cover_to_json(p, cover, eps)) + json.dumps(
        jsonio.report_to_json(covering.kkm_lebesgue_witness(p, cover, eps))
    )
    assert hashlib.sha256(text.encode()).hexdigest()[:16] == digest


def reference_sample_cover(p, resolution, m, seed):
    """The sets and eps of polytope_sample_cover, cut point by point on the
    numerators over the lcm of the sample's denominators."""
    rng = random.Random(seed)
    sample = Sample(harness.lattice_sample(p, resolution))
    if not sample.points:
        raise InputError("empty sample; raise the resolution")
    axis = rng.randrange(p.dim)
    values = sorted({g[axis] for g in sample.ints})
    nslabs = min(rng.randint(2, 3), len(values))
    cut_positions = sorted(rng.sample(range(1, len(values)), nslabs - 1))
    bounds = [0] + cut_positions + [len(values)]
    sets = {}
    for i in range(nslabs):
        first, last = values[bounds[i]], values[bounds[i + 1] - 1]
        slab = [j for j, g in enumerate(sample.ints) if first <= g[axis] <= last]
        sets[f"slab_{i}"] = set(slab)
    for layer in range(1, m):
        used = set()
        for b in range(rng.randint(1, 2)):
            center = rng.choice(sample.ints)
            radius = rng.randint(1, 2) * sample.den // resolution
            ball = [
                i
                for i, g in enumerate(sample.ints)
                if i not in used and all(abs(a - c) <= radius for a, c in zip(g, center))
            ]
            if ball:
                sets[f"ball_{layer}_{b}"] = set(ball)
                used.update(ball)
    return sample.points, sets, Fraction(1, resolution)


class TestColumnMasks:
    SHAPES = [("cube", 3), ("simplex", 3), ("cube", 2), ("cube", 4), ("simplex", 2)]

    @pytest.mark.parametrize("seed", range(50))
    def test_slabs_and_balls_match_the_point_by_point_cut(self, seed):
        shape = self.SHAPES[seed % len(self.SHAPES)]
        r = 2 + seed % 7 if shape != ("cube", 4) else 2 + seed % 3
        m = 2 + seed % 3
        p = perturb(construct_standard(*shape), Fraction(1, 100), seed=seed)
        got = outcome(harness.polytope_sample_cover, p, r, m, seed)
        want = outcome(reference_sample_cover, p, r, m, seed)
        if isinstance(want, str):
            assert got == want
            return
        cover, eps = got
        points, sets, want_eps = want
        assert cover.sample == points and eps == want_eps
        assert list(cover.sets) == list(sets)
        assert {name: set(covering._bits_of(pts.mask)) for name, pts in cover.sets.items()} == sets
        for pts in cover.sets.values():
            for e in (0, eps / 2, eps):
                assert covering.facet_touch_set(p, pts, e) == covering.facet_touch_set(
                    p, tuple(pts), e
                )


POLYTOPES = [construct_standard("cube", 1)] + [
    perturb(construct_standard(kind, n), Fraction(1, 100), seed=n)
    for kind, n in (("cube", 2), ("simplex", 2), ("cube", 3), ("simplex", 3))
]
# small numerators, and numerators past 2^8 and 2^16 for fields of several bytes
NUMERATORS = st.one_of(
    st.integers(-4, 4), st.integers(-(2**10), 2**10), st.integers(-(2**20), 2**20)
)


@st.composite
def drawn_samples(draw):
    """A polytope and points in its dimension over a random denominator,
    drawn from a pool so that repeats come up; possibly one point or none."""
    p = draw(st.sampled_from(POLYTOPES))
    den = draw(st.sampled_from([1, 2, 3, 12]))
    pool = draw(st.lists(st.tuples(*[NUMERATORS] * p.dim), min_size=1, max_size=8))
    picks = draw(st.lists(st.sampled_from(pool), max_size=12))
    return p, tuple(tuple(Fraction(a, den) for a in pt) for pt in picks)


def normals(dim):
    """Normals with small and large entries, the zero normal among them."""
    entry = st.one_of(st.integers(-3, 3), st.integers(-(2**12), 2**12))
    return st.one_of(st.just((0,) * dim), st.tuples(*[entry] * dim))


def dot(u, x):
    return sum(w * c for w, c in zip(u, x))


def at_most_reference(sample, u, bound):
    """Point by point: the input positions i with <u, x_i> den <= bound."""
    return sum(1 << i for i, x in enumerate(sample.points) if dot(u, x) * sample.den <= bound)


def box_reference(sample, bounds):
    """Point by point: the first occurrences x with lo <= x[axis] den <= hi
    for every (axis, lo, hi) of bounds."""
    mask = 0
    for i, x in enumerate(sample.points):
        if all(lo <= x[axis] * sample.den <= hi for axis, lo, hi in bounds):
            mask |= 1 << sample.at[i]
    return mask


def inside_reference(sample, p):
    """check_inside's outcome point by point: the first input position
    outside the first facet that has one outside."""
    for u, c in zip(p.normals, p.offsets):
        outside = [i for i, x in enumerate(sample.points) if dot(u, x) + c < 0]
        if outside:
            return f"sample[{outside[0]}] lies outside the polytope"
    return None


def check_masks(sample, p, data):
    """_at_most and box of sample against the references, at bounds below,
    inside and above the sample's range; a box has up to three intervals,
    crossed ones and repeated axes among them."""
    u = data.draw(normals(p.dim))
    dots = [int(dot(u, x) * sample.den) for x in sample.points] or [0]
    bound = data.draw(
        st.one_of(
            st.integers(min(dots) - 3, max(dots) + 3),
            st.sampled_from([min(dots) - 1, min(dots), max(dots) - 1, max(dots)]),
            st.integers(-(2**40), 2**40),
        )
    )
    assert sample._at_most(u, bound) == at_most_reference(sample, u, bound)
    bounds = []
    for _ in range(data.draw(st.integers(0, 3))):
        axis = data.draw(st.integers(0, p.dim - 1))
        lo = data.draw(st.one_of(st.integers(-8, 8), st.integers(-(2**24), 2**24)))
        hi = lo + data.draw(st.one_of(st.integers(-2, 8), st.integers(0, 2**25)))
        bounds.append((axis, lo, hi))
    assert sample.box(bounds) == box_reference(sample, bounds)


class TestPackedFields:
    """The packed-field masks equal a point-by-point integer reference."""

    @settings(max_examples=300, deadline=None)
    @given(drawn_samples(), st.data())
    def test_at_most_and_box(self, drawn, data):
        p, points = drawn
        check_masks(Sample(points), p, data)

    @settings(max_examples=200, deadline=None)
    @given(drawn_samples(), st.fractions(min_value=0, max_value=4, max_denominator=60))
    def test_near_and_check_inside(self, drawn, eps):
        p, points = drawn
        sample = Sample(points)
        assert sample.near(p, eps) == [
            sum(1 << i for i, x in enumerate(points) if dot(u, x) + c <= eps * sum(map(abs, u)))
            for u, c in zip(p.normals, p.offsets)
        ]
        assert outcome(sample.check_inside, p) == inside_reference(sample, p)

    @settings(max_examples=150, deadline=None)
    @given(st.sampled_from(POLYTOPES), st.data())
    def test_grid_sample_against_the_sample_of_its_points(self, p, data):
        # the points a / r with every a a multiple of g: their lcm divides k < r
        g, k = data.draw(st.sampled_from([2, 3])), data.draw(st.integers(1, 4))
        r = g * k
        base = data.draw(
            st.lists(st.tuples(*[st.integers(-2, 2 * k)] * p.dim), unique=True, max_size=10)
        )
        ints = [tuple(g * b for b in t) for t in base]
        points = tuple(tuple(Fraction(a, r) for a in t) for t in ints)
        grid, ref = Sample.from_grid(points, list(zip(*ints)), r), Sample(points)
        assert ref.den != r
        for sample in (grid, ref):
            check_masks(sample, p, data)
        eps = data.draw(st.fractions(min_value=0, max_value=2, max_denominator=2 * r))
        assert grid.near(p, eps) == ref.near(p, eps)
        assert outcome(grid.check_inside, p) == outcome(ref.check_inside, p)
        axis = data.draw(st.integers(0, p.dim - 1))
        lo, hi = sorted(data.draw(st.tuples(st.integers(-r, 3 * r), st.integers(-r, 3 * r))))
        # the same interval of coordinates over den instead of r
        assert grid.box([(axis, lo, hi)]) == ref.box(
            [(axis, -(-lo * ref.den // r), hi * ref.den // r)]
        )


# seeded perturbed Q^3, Q^4 and Delta^3 with a resolution each
KERNEL_CASES = [(("cube", 3), 5, 11), (("cube", 4), 3, 12), (("simplex", 3), 6, 13)]
KERNEL_IDS = ["Q3", "Q4", "D3"]


def kernel_case(shape, r, seed):
    return perturb(construct_standard(*shape), Fraction(1, 100), seed=seed), r


class TestKernels:
    """The sample lab's kernels against point-by-point Fraction references on
    seeded perturbed polytopes."""

    @pytest.mark.parametrize("case", KERNEL_CASES, ids=KERNEL_IDS)
    def test_box_against_the_point_filter(self, case):
        p, r = kernel_case(*case)
        sample = grid_sample(p, r)
        assert sample.points
        for k, col in enumerate(sample.columns):
            lo, hi = min(col), max(col)
            # below, at and inside the column's range, and above it
            ends = sorted({lo - 3, lo - 1, lo, lo + 1, (lo + hi) // 2, hi - 1, hi, hi + 1, hi + 4})
            for a, b in itertools.product(ends, repeat=2):  # a > b: crossed bounds
                assert sample.box([(k, a, b)]) == box_reference(sample, [(k, a, b)]), (k, a, b)
        rng = random.Random(r)
        for _ in range(200):
            bounds = []
            for _ in range(rng.randint(2, 2 * p.dim)):
                k = rng.randrange(p.dim)
                a = rng.randint(min(sample.columns[k]) - 2, max(sample.columns[k]) + 2)
                bounds.append((k, a, a + rng.randint(-1, r)))
            assert sample.box(bounds) == box_reference(sample, bounds), bounds
        assert sample.box([]) == sample.full
        for empty in (Sample(()), Sample.from_grid((), [[] for _ in range(p.dim)], r)):
            assert empty.box([]) == empty.box([(0, -5, 5)]) == 0

    @pytest.mark.parametrize("case", KERNEL_CASES, ids=KERNEL_IDS)
    def test_near_and_check_inside_against_the_slack_formula(self, case):
        p, r = kernel_case(*case)
        # every grid point of P's bounding box widened by one step, so that
        # points outside each facet come up
        lows = [min(v.coords[k] for v in p.vertices) * r for k in range(p.dim)]
        highs = [max(v.coords[k] for v in p.vertices) * r for k in range(p.dim)]
        ints = list(itertools.product(*(
            range(math.floor(lo) - 1, math.ceil(hi) + 2) for lo, hi in zip(lows, highs)
        )))
        points = tuple(tuple(Fraction(a, r) for a in t) for t in ints)
        inside = grid_sample(p, r)
        for sample in (Sample.from_grid(points, list(zip(*ints)), r), inside):
            for eps in (0, Fraction(1, 2 * r), Fraction(1, r), 1):
                assert sample.near(p, eps) == [
                    sum(1 << i for i, x in enumerate(sample.points)
                        if dot(u, x) + c <= eps * sum(map(abs, u)))
                    for u, c in zip(p.normals, p.offsets)
                ], eps
            assert outcome(sample.check_inside, p) == inside_reference(sample, p)
        assert inside_reference(inside, p) is None

    @pytest.mark.parametrize("heads", range(4))
    def test_head_sums_against_the_product(self, heads):
        rng = random.Random(heads)
        for _ in range(30):
            w = [rng.randint(-50, 50) for _ in range(heads)]
            ranges = [range(rng.randint(-6, 3), rng.randint(-6, 8)) for _ in range(heads)]
            b = rng.randint(-100, 100)
            axes = [[x * a for a in axis] for x, axis in zip(w, ranges)]
            want = list(map(sum, itertools.product(*axes, (b,))))
            assert list(harness._head_sums(w, ranges, b)) == want
