import itertools
import math
import random
from collections import Counter
from fractions import Fraction
from math import comb
from operator import mul

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import toricover
from toricover import (
    BadResolutionError,
    BadSampleError,
    BudgetExhaustedError,
    EmptyPolytopeError,
    InputError,
    NotSimpleError,
    UnboundedError,
    WrongArityError,
    ZeroVectorError,
    cli,
    construct_standard,
    cube_facet_id,
    faces,
    from_halfspaces,
    generic_normals_check,
    moment_map_eval,
    jsonio,
    linalg,
    perturb,
    polytope,
    product,
)

import chow_reference

rationals = st.fractions(
    min_value=Fraction(-4), max_value=Fraction(4), max_denominator=8
)


def unit_vector(n, j, sign=1):
    return tuple(sign if i == j else 0 for i in range(n))


def cube_data(n):
    normals, offsets = [], []
    for j in range(n):
        normals.append(unit_vector(n, j))
        offsets.append(0)
        normals.append(unit_vector(n, j, -1))
        offsets.append(1)
    return normals, offsets


class TestFromHalfspaces:
    def test_segment(self):
        p = from_halfspaces([(1,), (-1,)], [0, 1])
        assert sorted(v.coords for v in p.vertices) == [
            (Fraction(0),),
            (Fraction(1),),
        ]

    def test_standard_simplex_data(self):
        # coordinate half-spaces x_i >= 0 plus the slant sum(x) <= 1
        for n in (1, 2, 3, 4):
            normals = [unit_vector(n, j) for j in range(n)]
            normals.append(tuple(-1 for _ in range(n)))
            offsets = [0] * n + [1]
            p = from_halfspaces(normals, offsets)
            assert len(p.vertices) == n + 1
            assert all(len(v.facets) == n for v in p.vertices)

    def test_cube3_brute_force_vertices(self):
        # oracle: the 2^3 sign patterns enumerate the vertices directly
        p = from_halfspaces(*cube_data(3))
        expected = {
            tuple(Fraction(b) for b in bits)
            for bits in itertools.product((0, 1), repeat=3)
        }
        assert {v.coords for v in p.vertices} == expected
        assert all(len(v.facets) == 3 for v in p.vertices)

    def test_normals_primitivized(self):
        p = from_halfspaces([(2,), (-4,)], [0, 2])
        assert p.normals == ((1,), (-1,))
        assert p.offsets == (Fraction(0), Fraction(1, 2))

    def test_not_simple(self):
        # x + y >= 0 passes through the corner of the triangle
        normals = [(1, 0), (0, 1), (1, 1), (-1, -1)]
        offsets = [0, 0, 0, 1]
        with pytest.raises(NotSimpleError):
            from_halfspaces(normals, offsets)

    def test_unbounded(self):
        with pytest.raises(UnboundedError):
            from_halfspaces([(1, 0), (0, 1), (1, 1)], [0, 0, 1])

    def test_empty(self):
        with pytest.raises(EmptyPolytopeError):
            from_halfspaces([(1,), (-1,)], [-2, 1])

    def test_strip_without_vertex_is_unbounded(self):
        # 0 <= x <= 1 in the plane: no vertex, normals of rank 1
        with pytest.raises(UnboundedError):
            from_halfspaces([(1, 0), (-1, 0), (1, 0)], [0, 1, 2])

    def test_unbounded_and_empty_reports_empty(self):
        # {x >= 0, y >= 0, -x - 1 >= 0}: no vertex, normals of full rank
        with pytest.raises(EmptyPolytopeError):
            from_halfspaces([(1, 0), (0, 1), (-1, 0)], [0, 0, -1])

    def test_unbounded_and_not_simple_reports_not_simple(self):
        # {x >= 0, y >= 0, x + y >= 0}: the one vertex lies on all three
        with pytest.raises(NotSimpleError):
            from_halfspaces([(1, 0), (0, 1), (1, 1)], [0, 0, 0])

    def test_rank_only_without_vertices(self, monkeypatch):
        def no_rank(rows):
            raise AssertionError("rank called")

        monkeypatch.setattr(linalg, "rank", no_rank)
        construct_standard("cube", 3)
        with pytest.raises(UnboundedError):
            from_halfspaces([(1, 0), (0, 1), (1, 1)], [0, 0, 1])
        with pytest.raises(AssertionError, match="rank called"):
            from_halfspaces([(1,), (-1,)], [-2, 1])

    def test_zero_normal_rejected(self):
        with pytest.raises(InputError, match="zero vector"):
            from_halfspaces([(1, 0), (0, 0), (-1, -1)], [0, 0, 1])

    def test_redundant_halfspace_rejected(self):
        normals, offsets = cube_data(2)
        normals.append((1, 0))
        offsets.append(5)
        with pytest.raises(ValueError):
            from_halfspaces(normals, offsets)

    def test_hrep_rederivation(self):
        # every input facet is tight at some vertex, with distinct vertex sets
        for p in (
            construct_standard("cube", 3),
            construct_standard("simplex", 3),
            from_halfspaces([(1, 1), (-1, 1), (0, -1)], [0, 0, 1]),
        ):
            tight_sets = []
            for f in p.facet_ids():
                tight = frozenset(
                    v.coords for v in p.vertices if p.slack(f, v.coords) == 0
                )
                assert tight
                tight_sets.append(tight)
            assert len(set(tight_sets)) == len(tight_sets)

    @pytest.mark.parametrize(
        "builder",
        [
            lambda: construct_standard("cube", 3),
            lambda: construct_standard("simplex", 3),
            lambda: perturb(construct_standard("cube", 3), Fraction(1, 64), seed=8),
        ],
    )
    def test_facets_recovered_from_vertices_alone(self, builder):
        # oracle: enumerate hyperplanes through n affinely independent
        # vertices that support the vertex set; those are exactly the facets
        p = builder()
        from toricover import linalg

        coords = [v.coords for v in p.vertices]
        recovered = set()
        for subset in itertools.combinations(coords, p.dim):
            base = subset[0]
            rows = [linalg.vec_sub(q, base) for q in subset[1:]]
            normal = linalg.nullspace_vector(rows, p.dim)
            if normal is None or linalg.rank(rows) != p.dim - 1:
                continue
            offset = -linalg.dot(normal, base)
            signs = {linalg.dot(normal, q) + offset for q in coords}
            if all(s >= 0 for s in signs):
                prim, scale = linalg.primitive_int_vector(normal)
                recovered.add((prim, offset * scale))
            elif all(s <= 0 for s in signs):
                prim, scale = linalg.primitive_int_vector(
                    tuple(-x for x in normal)
                )
                recovered.add((prim, -offset * scale))
        assert recovered == set(zip(p.normals, p.offsets))


def ref_positively_spanning(normals, n):
    """True iff {d : <u,d> >= 0 for all u} = {0}, by the scan from_halfspaces
    ran before it read boundedness off the vertices.

    The cone is pointed once the normals have full rank; a nontrivial pointed
    cone contains an extreme ray tight on n-1 of the constraints, so checking
    the kernel directions of all (n-1)-subsets is exhaustive.
    """
    if linalg.rank(normals) < n:
        return False
    for subset in itertools.combinations(normals, n - 1):
        d = linalg.nullspace_vector(subset, n)
        if d is None:
            continue
        dots = [linalg.dot(u, d) for u in normals]
        if all(s >= 0 for s in dots) or all(s <= 0 for s in dots):
            return False
    return True


def random_system(rng, n):
    """n+1..n+4 half-spaces with nonzero normals and offsets in -2..2."""
    m = rng.randint(n + 1, n + 4)
    normals = []
    while len(normals) < m:
        u = tuple(rng.randint(-2, 2) for _ in range(n))
        if any(u):
            normals.append(u)
    return normals, [rng.randint(-2, 2) for _ in range(m)]


class TestBoundednessAgainstSpanning:
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_seeded_systems(self, n):
        rng = random.Random(n)
        outcomes = Counter()
        for _ in range(300):
            normals, offsets = random_system(rng, n)
            spanning = ref_positively_spanning(normals, n)
            try:
                from_halfspaces(normals, offsets)
                outcome = None
            except InputError as exc:
                outcome = type(exc)
            outcomes[spanning, outcome] += 1
            if outcome is None or outcome is UnboundedError:
                assert spanning == (outcome is None), (normals, offsets)
            elif not spanning:
                assert outcome in (EmptyPolytopeError, NotSimpleError), (normals, offsets)
        # the seeds reach acceptance and both ways of failing the reference
        assert outcomes[True, None] and outcomes[False, UnboundedError]
        assert outcomes[False, NotSimpleError]


class TestConstructStandard:
    def test_square(self):
        p = construct_standard("cube", 2)
        assert p.num_facets == 4
        assert len(p.vertices) == 4

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_simplex_counts(self, n):
        p = construct_standard("simplex", n)
        assert p.num_facets == n + 1
        assert len(p.vertices) == n + 1

    def test_cube3_antiparallel_pairs(self):
        p = construct_standard("cube", 3)
        for j in range(3):
            lo = p.normals[cube_facet_id(j, "-")]
            hi = p.normals[cube_facet_id(j, "+")]
            assert tuple(-x for x in lo) == hi


class TestProduct:
    def test_segment_squared(self, segment, q2):
        sq = product(segment, segment)
        assert len(sq.vertices) == 4
        assert sq.incidence_pattern() == q2.incidence_pattern()

    def test_triple_segment_is_cube(self, segment, q3):
        p = product(product(segment, segment), segment)
        for k in range(4):
            assert len(faces(p, k)) == len(faces(q3, k))

    @pytest.mark.parametrize("kind_a,na,kind_b,nb", [
        ("cube", 1, "simplex", 2),
        ("simplex", 2, "simplex", 2),
        ("cube", 2, "cube", 1),
    ])
    def test_vertex_count_multiplies(self, kind_a, na, kind_b, nb):
        a = construct_standard(kind_a, na)
        b = construct_standard(kind_b, nb)
        assert len(product(a, b).vertices) == len(a.vertices) * len(b.vertices)


class TestFaces:
    def test_square_edges(self, q2):
        assert len(faces(q2, 1)) == 4

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_simplex_face_counts(self, n):
        p = construct_standard("simplex", n)
        for k in range(n + 1):
            assert len(faces(p, k)) == comb(n + 1, n - k)

    def test_cube3_edges_against_vertex_pair_oracle(self, q3):
        # oracle: edges of the cube are the vertex pairs differing in exactly
        # one coordinate; an edge's facet set is the common incidence
        expected = set()
        verts = list(q3.vertices)
        for a, b in itertools.combinations(verts, 2):
            if sum(x != y for x, y in zip(a.coords, b.coords)) == 1:
                expected.add(a.facets & b.facets)
        assert len(expected) == 12
        assert {f.facet_ids for f in faces(q3, 1)} == expected

    def test_extreme_dimensions(self, q3):
        whole = faces(q3, 3)
        assert len(whole) == 1 and whole[0].facet_ids == frozenset()
        assert len(faces(q3, 0)) == len(q3.vertices)


def tight_set_reference(normals, offsets, point):
    """The full slack scan over Fractions: the facets tight at point, or None
    when point is outside some facet."""
    slacks = [sum(map(mul, u, point)) + c for u, c in zip(normals, offsets)]
    if min(slacks) < 0:
        return None
    return frozenset(i for i, s in enumerate(slacks) if s == 0)


# a square pyramid over [0, 2]^2 with apex (1, 1, 1): the apex lies on the
# four side facets, so solving any three of them leaves the fourth tight
PYRAMID = ([(0, 0, 1), (1, 0, -1), (-1, 0, -1), (0, 1, -1), (0, -1, -1)], [0, 0, 2, 0, 2])


def basic_point_systems():
    """Seeded perturbed Q^3, Q^4 and Delta^3, each also with its offsets cut
    to integers so that subsets come out infeasible, and the pyramid."""
    systems = {}
    for name, shape, seed in (("Q3", ("cube", 3), 21), ("Q4", ("cube", 4), 22),
                              ("D3", ("simplex", 3), 23)):
        p = perturb(construct_standard(*shape), Fraction(1, 100), seed=seed)
        systems[name] = (p.normals, p.offsets)
        systems[name + "-cut"] = (p.normals, [c.numerator // c.denominator for c in p.offsets])
    systems["pyramid"] = PYRAMID
    return systems


BASIC_POINT_SYSTEMS = basic_point_systems()


class TestBasicPoint:
    """_basic_point reads slacks only off the rows outside the solved subset;
    its tight set must equal a full slack scan."""

    @pytest.mark.parametrize("system", BASIC_POINT_SYSTEMS)
    def test_tight_set_against_the_full_scan(self, system):
        normals, offsets = BASIC_POINT_SYSTEMS[system]
        rows = [linalg.int_row(list(u) + [c])[0] for u, c in zip(normals, offsets)]
        for subset in itertools.combinations(range(len(rows)), len(normals[0])):
            got = polytope._basic_point(rows, subset)
            x, d = chow_reference.fraction_solve([normals[i] for i in subset],
                                                 [-offsets[i] for i in subset])
            if d == 0:
                assert got is None
                continue
            want = tight_set_reference(normals, offsets, x)
            assert got == (None if want is None else (tuple(x), want)), subset

    def test_non_simple_vertex_keeps_the_row_it_did_not_solve(self):
        normals, offsets = PYRAMID
        vertices = polytope.solve_region_vertices(normals, offsets, require_simple=False)
        assert {v.coords: v.facets for v in vertices} == {
            (0, 0, 0): {0, 1, 3}, (2, 0, 0): {0, 2, 3}, (0, 2, 0): {0, 1, 4},
            (2, 2, 0): {0, 2, 4}, (1, 1, 1): {1, 2, 3, 4},
        }
        for v in vertices:
            assert v.facets == tight_set_reference(normals, offsets, v.coords)
        with pytest.raises(NotSimpleError):
            from_halfspaces(normals, offsets)


class TestGenericNormals:
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_simplex_generic(self, n):
        assert generic_normals_check(construct_standard("simplex", n))

    @pytest.mark.parametrize("n", [2, 3])
    def test_cube_not_generic(self, n):
        assert not generic_normals_check(construct_standard("cube", n))

    def test_perturbed_cube_generic(self, q3):
        assert generic_normals_check(perturb(q3, Fraction(1, 100), seed=1))


class TestPerturb:
    def test_cube3(self, q3):
        p = perturb(q3, Fraction(1, 100), seed=0)
        assert p.num_facets == 6
        assert len(p.vertices) == 8
        assert p.incidence_pattern() == q3.incidence_pattern()
        assert generic_normals_check(p)

    def test_simplex_stays_simplex(self, d3):
        p = perturb(d3, Fraction(1, 50), seed=2)
        assert p.incidence_pattern() == d3.incidence_pattern()
        assert generic_normals_check(p)

    def test_segment_returned_unchanged(self, segment):
        assert perturb(segment, Fraction(1, 10)) is segment

    def test_solves_only_the_vertex_facet_sets(self, monkeypatch):
        q4 = construct_standard("cube", 4)
        solve = linalg.int_cramer
        calls = []

        def counted(rows, rhs):
            calls.append(1)
            return solve(rows, rhs)

        monkeypatch.setattr(linalg, "int_cramer", counted)
        perturb(q4, Fraction(1, 100), seed=0)
        # one attempt: Q^4 has 16 vertices against C(8, 4) = 70 facet subsets
        assert len(calls) == 16


def enumerated_perturb(p, budget, seed, log):
    """perturb by full enumeration, the independent route: each attempt tilts
    over Fractions through primitive_int_vector, builds the candidate with
    from_halfspaces (all n-subsets of facets), then compares the incidence
    pattern and checks genericity.  Appends each attempt's verdict to `log`:
    the name of the error from_halfspaces raised, "rejected" or "accepted"."""
    rng = random.Random(seed)
    pattern = p.incidence_pattern()
    step = Fraction(budget)
    for _ in range(polytope.PERTURB_MAX_RETRIES):
        denom = max(2, math.ceil(1 / step)) * 4
        normals, offsets = [], []
        for u, c in zip(p.normals, p.offsets):
            tilted = [x + Fraction(rng.randint(-4, 4), denom) for x in u]
            prim, scale = linalg.primitive_int_vector(tilted)
            normals.append(prim)
            offsets.append(c * scale)
        step = step / 2
        try:
            candidate = from_halfspaces(normals, offsets)
        except InputError as exc:
            log.append(type(exc).__name__)
            continue
        if candidate.incidence_pattern() == pattern and generic_normals_check(candidate):
            log.append("accepted")
            return candidate
        log.append("rejected")
    raise BudgetExhaustedError(
        f"no valid perturbation within {polytope.PERTURB_MAX_RETRIES} retries"
    )


def outcome(run):
    """The polytope's data, or the type and message of the error raised."""
    try:
        p = run()
    except InputError as exc:
        return type(exc), str(exc)
    return p.dim, p.normals, p.offsets, p.vertices


def reversed_vertices(p):
    return polytope.SimplePolytope(p.dim, p.normals, p.offsets, p.vertices[::-1])


PERTURB_BASES = {
    "Q2": lambda: construct_standard("cube", 2),
    "Q3": lambda: construct_standard("cube", 3),
    "Q4": lambda: construct_standard("cube", 4),
    "D2": lambda: construct_standard("simplex", 2),
    "D3": lambda: construct_standard("simplex", 3),
    "D4": lambda: construct_standard("simplex", 4),
    "D2xQ1": lambda: product(construct_standard("simplex", 2), construct_standard("cube", 1)),
    "P112": lambda: from_halfspaces([(1, 0), (0, 1), (-1, -2)], [0, 0, 2]),
    # a base whose vertex tuple is not in from_halfspaces' order
    "Q3rev": lambda: reversed_vertices(construct_standard("cube", 3)),
}
PERTURB_BUDGETS = [Fraction(1, 100), Fraction(1, 64), Fraction(1, 3), Fraction(1), Fraction(5)]


class TestPerturbAgainstEnumeration:
    """perturb solves only the base's vertex facet sets; on every case it
    must return what full enumeration returns: the same normals, offsets and
    vertex tuple in order, or the same error."""

    @pytest.mark.parametrize("budget", PERTURB_BUDGETS, ids=str)
    @pytest.mark.parametrize("base", PERTURB_BASES)
    def test_same_polytope(self, base, budget):
        p = PERTURB_BASES[base]()
        log = []
        for seed in range(50):
            want = outcome(lambda: enumerated_perturb(p, budget, seed, log))
            assert outcome(lambda: perturb(p, budget, seed=seed)) == want, seed
        if budget >= 1:
            assert len(log) > 50  # rejected tilts and retries are compared too

    @pytest.mark.parametrize("base, seed", [("Q2", 210), ("Q3", 166), ("D2xQ1", 73)])
    def test_tilt_with_a_degenerate_vertex(self, base, seed):
        """An attempt here puts n+1 facets through one point; full
        enumeration refuses it as not simple, and perturb must refuse it."""
        p = PERTURB_BASES[base]()
        log = []
        want = outcome(lambda: enumerated_perturb(p, 1, seed, log))
        assert "NotSimpleError" in log
        assert outcome(lambda: perturb(p, 1, seed=seed)) == want


class TestMomentMap:
    def test_cpn_coordinate_point(self):
        z = [(1, 0)] + [(0, 0)] * 3
        assert moment_map_eval("cpn", z) == (1, 0, 0, 0)

    def test_cpn_barycenter(self):
        z = [(1, 0)] * 4
        assert moment_map_eval("cpn", z) == (Fraction(1, 4),) * 4

    def test_real_sphere_squares_coordinates(self):
        # the direction (1,1,0) normalizes onto the sphere symbolically
        assert moment_map_eval("real_sphere", [1, 1, 0]) == (
            Fraction(1, 2),
            Fraction(1, 2),
            0,
        )
        assert moment_map_eval(
            "real_sphere", [Fraction(3, 5), Fraction(4, 5)]
        ) == (Fraction(9, 25), Fraction(16, 25))

    def test_product_cp1_chart(self):
        # z0 = 1 pins the affine chart; |z|^2/(1+|z|^2) per factor
        one = (1, 0)
        assert moment_map_eval("product_cp1", [(one, (1, 0)), (one, (0, 0))]) == (
            Fraction(1, 2),
            0,
        )

    def test_product_cp1_reaches_the_far_facet(self):
        # the point at infinity of a factor maps to coordinate exactly 1
        assert moment_map_eval("product_cp1", [((0, 0), (1, 0))]) == (1,)

    def test_zero_vector(self):
        with pytest.raises(ZeroVectorError):
            moment_map_eval("cpn", [(0, 0), (0, 0)])
        with pytest.raises(ZeroVectorError):
            moment_map_eval("real_sphere", [0, 0])
        with pytest.raises(ZeroVectorError):
            moment_map_eval("product_cp1", [((0, 0), (0, 0))])

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.tuples(rationals, rationals), min_size=2, max_size=5))
    def test_cpn_lands_in_simplex(self, z):
        if all(re == 0 and im == 0 for re, im in z):
            return
        y = moment_map_eval("cpn", z)
        assert sum(y) == 1
        assert all(c >= 0 for c in y)

    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(st.tuples(rationals, rationals), min_size=2, max_size=5),
        st.data(),
    )
    def test_facet_correspondence(self, z, data):
        # z_j = 0 maps into the facet {y_j = 0}
        j = data.draw(st.integers(min_value=0, max_value=len(z) - 1))
        z = list(z)
        z[j] = (0, 0)
        if all(re == 0 and im == 0 for re, im in z):
            return
        y = moment_map_eval("cpn", z)
        assert y[j] == 0


class TestInputError:
    """One class marks a value the caller passed in as bad."""

    def test_one_class_under_every_name(self):
        assert jsonio.InputError is cli.InputError is toricover.InputError is InputError
        assert issubclass(InputError, ValueError)

    @pytest.mark.parametrize(
        "cls",
        [BadSampleError, WrongArityError, BadResolutionError, NotSimpleError,
         UnboundedError, EmptyPolytopeError, ZeroVectorError, BudgetExhaustedError],
    )
    def test_named_errors_are_input_errors(self, cls):
        assert issubclass(cls, InputError)

    def test_perturb_retries_only_input_errors(self, q2, monkeypatch):
        def broken(rows, subset):
            raise ValueError("bug")

        monkeypatch.setattr(polytope, "_basic_point", broken)
        with pytest.raises(ValueError, match="bug"):
            perturb(q2, Fraction(1, 100), seed=1)

    def test_perturb_retries_a_rejected_tilt(self, q2, monkeypatch):
        solve = polytope._basic_point
        calls = []

        def first_rejected(rows, subset):
            calls.append(1)
            return None if len(calls) == 1 else solve(rows, subset)

        monkeypatch.setattr(polytope, "_basic_point", first_rejected)
        assert generic_normals_check(perturb(q2, Fraction(1, 100), seed=1))
        assert len(calls) >= 2
