import dataclasses
import itertools
import random
import re
from fractions import Fraction
from math import factorial, prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from toricover import (
    Divisor,
    InputError,
    IntersectionQuery,
    ample_from_offsets,
    avoidance_certificate,
    construct_standard,
    cube_facet_id,
    from_halfspaces,
    intersection_number,
    is_principal,
    linearly_equivalent,
    perturb,
    polytope_of_divisor,
    presentation,
    principal_divisor,
    product,
    self_intersection_top,
    volume,
)
from toricover import linalg
from toricover.chow import is_nef_certified
from toricover.polytope import SimplePolytope, generic_normals_check

import chow_reference

small_rationals = st.fractions(
    min_value=Fraction(-3), max_value=Fraction(3), max_denominator=6
)


def axis_class(q, j):
    """On the cube, the class of the lower facet of axis j."""
    return Divisor.on_facet(q, cube_facet_id(j, "-"))


def cube_ring_oracle(axes):
    """Evaluate a monomial of axis classes in Z[c_1..c_n]/(c_i^2 = 0): the
    squarefree full product is 1, anything with a repeat is 0.  Independent of
    the mixed-volume route."""
    return 1 if len(set(axes)) == len(axes) else 0


def polarization_oracle(p, divisors):
    """Top intersection product by mixed volumes, independent of localization.

    Every D_j is shifted by m times the ample class H, doubling m until each
    shifted divisor E_j is nef (fan-certified).  The polarization identity
        E_1 ... E_n = sum over nonempty S of (-1)^(n-|S|) vol(region(sum_S E_j))
    gives products of nef divisors, and D_j = E_j - m H expands
    multilinearly.  Returns the product and the shifted divisors.
    """
    n = p.dim
    h = ample_from_offsets(p)
    m = 1
    while not all(is_nef_certified(p, d + m * h) for d in divisors):
        m *= 2
        assert m <= 2 ** 16, "nef lift found no shift"
    shifted = [d + m * h for d in divisors]
    memo = {}

    def region_volume(d):
        if d.coeffs not in memo:
            memo[d.coeffs] = volume(polytope_of_divisor(p, d))
        return memo[d.coeffs]

    def polarized(args):
        total = Fraction(0)
        for size in range(1, n + 1):
            for subset in itertools.combinations(args, size):
                acc = subset[0]
                for d in subset[1:]:
                    acc = acc + d
                total += (-1) ** (n - size) * region_volume(acc)
        return total

    value = Fraction(0)
    for picks in itertools.product((0, 1), repeat=n):
        args = [shifted[j] if picks[j] else h for j in range(n)]
        value += Fraction(-m) ** (n - sum(picks)) * polarized(args)
    return value, shifted


ORACLE_SHAPES = {
    "Q2": lambda: construct_standard("cube", 2),
    "Q3": lambda: construct_standard("cube", 3),
    "S2": lambda: construct_standard("simplex", 2),
    "S3": lambda: construct_standard("simplex", 3),
    "P112": lambda: from_halfspaces([(1, 0), (0, 1), (-1, -2)], [0, 0, 2]),
    "S2xQ1": lambda: product(
        construct_standard("simplex", 2), construct_standard("cube", 1)
    ),
    "pQ3": lambda: perturb(construct_standard("cube", 3), Fraction(1, 100), seed=3),
    "pS3": lambda: perturb(construct_standard("simplex", 3), Fraction(1, 100), seed=3),
}


class TestPresentation:
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_cube_nonfaces_are_antiparallel_pairs(self, n):
        q = construct_standard("cube", n)
        pres = presentation(q)
        expected = {
            frozenset({cube_facet_id(j, "-"), cube_facet_id(j, "+")})
            for j in range(n)
        }
        assert set(pres.minimal_nonfaces) == expected

    def test_cube_relations_identify_pairs(self, q2):
        pres = presentation(q2)
        # relation i reads sum_F u_F[i] c_F = 0, i.e. c_{F_i^-} = c_{F_i^+}
        assert pres.linear_relations == ((1, -1, 0, 0), (0, 0, 1, -1))

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_simplex_single_full_nonface(self, n):
        p = construct_standard("simplex", n)
        pres = presentation(p)
        assert pres.minimal_nonfaces == (frozenset(range(n + 1)),)

    def test_segment(self, segment):
        pres = presentation(segment)
        assert pres.minimal_nonfaces == (frozenset({0, 1}),)
        assert pres.linear_relations == ((1, -1),)


PRESENTATION_SHAPES = {
    **ORACLE_SHAPES,
    "Q1": lambda: construct_standard("cube", 1),
    "Q5": lambda: construct_standard("cube", 5),
    "Q6": lambda: construct_standard("cube", 6),
    "S3xS3": lambda: product(construct_standard("simplex", 3), construct_standard("simplex", 3)),
    # the square with one corner cut: five edges, five non-adjacent pairs
    "pentagon": lambda: from_halfspaces(
        [(1, 0), (0, 1), (-1, 0), (0, -1), (-1, -1)], [0, 0, 2, 2, 3]),
    # [0, 2]^3 with the corner (2, 2, 2) cut: minimal non-faces of sizes 2 and 3
    "truncated Q3": lambda: from_halfspaces(
        [(1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0), (0, 0, 1), (0, 0, -1), (-1, -1, -1)],
        [0, 2, 0, 2, 0, 2, 5]),
    **{f"p{letter}{n}#{seed}": (lambda kind=kind, n=n, seed=seed: perturb(
        construct_standard(kind, n), Fraction(1, 100), seed=seed))
       for kind, letter in (("cube", "Q"), ("simplex", "S")) for n in range(2, 6)
       for seed in (0, 1, 2)},
}


class TestPresentationAgainstSubsetRoute:
    """The walk over faces with vertex masks against the enumeration of
    every facet subset of size 2..n+1 in tests/chow_reference.py, by exact
    equality of the sorted tuples."""

    @pytest.mark.parametrize("shape", list(PRESENTATION_SHAPES))
    def test_same_minimal_nonfaces(self, shape):
        p = PRESENTATION_SHAPES[shape]()
        got = presentation(p).minimal_nonfaces
        assert type(got) is tuple and all(type(s) is frozenset for s in got)
        assert got == chow_reference.subset_minimal_nonfaces(p)

    def test_shapes_reach_every_size(self):
        sizes = {len(s) for s in presentation(PRESENTATION_SHAPES["truncated Q3"]()).minimal_nonfaces}
        assert sizes == {2, 3}
        assert len(presentation(PRESENTATION_SHAPES["pentagon"]()).minimal_nonfaces) == 5
        assert {len(s) for s in presentation(PRESENTATION_SHAPES["S3xS3"]()).minimal_nonfaces} == {4}


class TestDivisorConstructors:
    def test_from_map_reads_ints_and_fractions(self, q2):
        d = Divisor.from_map(q2, {1: Fraction(1, 3), 3: -2})
        assert d.coeffs == (0, Fraction(1, 3), 0, -2)
        assert all(type(c) is Fraction for c in d.coeffs)
        assert Divisor.on_facet(q2, 2, Fraction(3, 2)).coeffs == (0, 0, Fraction(3, 2), 0)

    @pytest.mark.parametrize("fid", [1.7, 1.0, True, "1e0", "1"], ids=repr)
    def test_from_map_refuses_a_facet_id_that_is_no_int(self, q2, fid):
        message = f"facet id must be an int, got {fid!r}"
        with pytest.raises(InputError, match=f"^{re.escape(message)}$"):
            Divisor.from_map(q2, {fid: 1})
        with pytest.raises(InputError, match=f"^{re.escape(message)}$"):
            Divisor.on_facet(q2, fid)

    @pytest.mark.parametrize("value", [0.1, 1.0, True], ids=repr)
    def test_from_map_refuses_a_value_that_is_not_exact(self, q2, value):
        message = f"facet 1 coefficient must be an int or a Fraction, got {value!r}"
        with pytest.raises(InputError, match=f"^{re.escape(message)}$"):
            Divisor.from_map(q2, {1: value})
        with pytest.raises(InputError, match=f"^{re.escape(message)}$"):
            Divisor.on_facet(q2, 1, value)

    def test_from_map_refuses_a_decimal_string(self, q2):
        with pytest.raises(InputError, match="^facet 0 coefficient must be an integer or"):
            Divisor.from_map(q2, {0: "0.1"})

    @pytest.mark.parametrize("fid", [-1, 4])
    def test_from_map_refuses_an_id_out_of_range(self, q2, fid):
        with pytest.raises(InputError, match=f"^facet id {fid} not in 0..3$"):
            Divisor.from_map(q2, {fid: 1})


class TestPrincipal:
    def test_cube_pair_difference(self, q3):
        for j in range(3):
            d = Divisor.on_facet(q3, cube_facet_id(j, "+")) - Divisor.on_facet(
                q3, cube_facet_id(j, "-")
            )
            v = is_principal(q3, d)
            assert v == tuple(-1 if i == j else 0 for i in range(3))

    def test_zero_divisor(self, d2):
        assert is_principal(d2, Divisor.zero(d2)) == (0, 0)

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_hyperplane_identity(self, n):
        # sum of all facets  ~  twice the lower facets
        q = construct_standard("cube", n)
        total = Divisor(tuple(Fraction(1) for _ in range(2 * n)))
        doubled = Divisor.from_map(
            q, {cube_facet_id(j, "-"): 2 for j in range(n)}
        )
        v = is_principal(q, total - doubled)
        assert v == tuple(Fraction(-1) for _ in range(n))
        assert linearly_equivalent(q, total, doubled)

    def test_not_principal(self, q2):
        assert is_principal(q2, Divisor.on_facet(q2, 0)) is None

    @settings(max_examples=60, deadline=None)
    @given(st.sampled_from(["Q2", "S3", "P112", "pQ3"]), st.data())
    def test_integer_fluxes_match_the_fraction_sum(self, shape, data):
        p = ORACLE_SHAPES[shape]()
        v = tuple(data.draw(wild_rationals) for _ in range(p.dim))
        got = principal_divisor(p, v).coeffs
        assert all(type(c) is Fraction for c in got)
        assert got == chow_reference.fraction_principal_coeffs(p, v)

    def test_flux_reads_ints_and_p_over_q_strings(self, q2):
        assert principal_divisor(q2, ("1/2", 1)) == principal_divisor(q2, (Fraction(1, 2), 1))
        assert principal_divisor(q2, (3, -2)).coeffs == (3, -3, -2, 2)

    @settings(max_examples=30, deadline=None)
    @given(st.tuples(small_rationals, small_rationals))
    def test_flux_divisors_always_principal(self, v):
        q = construct_standard("cube", 2)
        assert is_principal(q, principal_divisor(q, v)) == v


class TestAmpleAndRegions:
    def test_simplex_offsets_positive(self, d3):
        h = ample_from_offsets(d3)
        assert all(c > 0 for c in h.coeffs)

    def test_centered_cube_half_offsets(self):
        normals = [(1, 0), (-1, 0), (0, 1), (0, -1)]
        centered = from_halfspaces(normals, [Fraction(1, 2)] * 4)
        h = ample_from_offsets(centered)
        assert h.coeffs == (Fraction(1, 2),) * 4

    def test_unit_cube_recenters(self, q2):
        assert ample_from_offsets(q2).coeffs == (Fraction(1, 2),) * 4

    def test_offsets_are_those_of_the_translated_polytope(self):
        shapes = [construct_standard(kind, n) for kind in ("cube", "simplex") for n in range(1, 5)]
        shapes += [
            perturb(construct_standard(kind, 3), Fraction(1, 100), seed=seed)
            for kind in ("cube", "simplex")
            for seed in range(20)
        ]
        for p in shapes:
            assert ample_from_offsets(p) == Divisor(p.translate(p.vertex_centroid()).offsets)

    def test_region_of_ample_is_translated_polytope(self, q2):
        h = ample_from_offsets(q2)
        region = polytope_of_divisor(q2, h)
        centered = q2.translate(q2.vertex_centroid())
        assert {v.coords for v in region.vertices} == {
            v.coords for v in centered.vertices
        }
        assert region.incidence_pattern() == q2.incidence_pattern()

    def test_region_of_zero_is_origin(self, q2):
        region = polytope_of_divisor(q2, Divisor.zero(q2))
        assert [v.coords for v in region.vertices] == [(0, 0)]
        assert not region.is_full_dim
        assert volume(region) == 0

    def test_region_upper_facets_unit_cube(self, q2):
        d = Divisor.from_map(q2, {cube_facet_id(j, "+"): 1 for j in range(2)})
        region = polytope_of_divisor(q2, d)
        assert {v.coords for v in region.vertices} == {
            v.coords for v in q2.vertices
        }


class TestVolume:
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_cube(self, n):
        assert volume(construct_standard("cube", n)) == 1

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_simplex(self, n):
        assert volume(construct_standard("simplex", n)) == Fraction(
            1, factorial(n)
        )

    @pytest.mark.parametrize("t", [Fraction(1, 2), 2, Fraction(5, 3)])
    def test_scaled_cube(self, t):
        normals, offsets = [], []
        for j in range(3):
            e = tuple(1 if i == j else 0 for i in range(3))
            normals += [e, tuple(-x for x in e)]
            offsets += [0, t]
        assert volume(from_halfspaces(normals, offsets)) == t ** 3


class TestIntersectionNumbers:
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_simplex_hyperplane_power(self, n):
        p = construct_standard("simplex", n)
        h = Divisor.on_facet(p, 0)
        assert self_intersection_top(p, h) == 1

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_cube_squarefree_top_product(self, n):
        q = construct_standard("cube", n)
        q_classes = tuple(axis_class(q, j) for j in range(n))
        assert intersection_number(IntersectionQuery(q, q_classes)) == 1

    @pytest.mark.parametrize("n", [2, 3])
    def test_cube_repeated_axis_vanishes(self, n):
        q = construct_standard("cube", n)
        divisors = (axis_class(q, 0),) + tuple(
            axis_class(q, j) for j in range(n - 1)
        )
        assert intersection_number(IntersectionQuery(q, divisors)) == 0

    def test_cube_monomials_match_ring_oracle(self, q3):
        for axes in itertools.product(range(3), repeat=3):
            value = intersection_number(
                IntersectionQuery(q3, tuple(axis_class(q3, j) for j in axes))
            )
            assert value == cube_ring_oracle(axes), axes

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_cube_upper_facet_sum_selfint(self, n):
        # H = sum of upper facets has H^n = n!, the ring oracle multinomial
        q = construct_standard("cube", n)
        h = Divisor.from_map(q, {cube_facet_id(j, "+"): 1 for j in range(n)})
        assert self_intersection_top(q, h) == factorial(n)

    def test_zero_divisor(self, q2):
        assert self_intersection_top(q2, Divisor.zero(q2)) == 0

    def test_query_arity_enforced(self, q2):
        with pytest.raises(ValueError):
            IntersectionQuery(q2, (Divisor.zero(q2),) * 3)

    def test_huge_coefficient_is_exact(self, q2):
        # the product is a polynomial in the coefficients, so no size of
        # coefficient is out of reach
        huge = Divisor.on_facet(q2, 0, -(2 ** 20))
        other = Divisor.on_facet(q2, 2)
        assert intersection_number(IntersectionQuery(q2, (huge, other))) == -(2 ** 20)
        assert self_intersection_top(q2, huge) == 0

    @pytest.mark.parametrize("shape", list(ORACLE_SHAPES))
    def test_matches_polarization_oracle(self, shape):
        p = ORACLE_SHAPES[shape]()
        rng = random.Random(shape)
        for _ in range(3):
            divisors = tuple(
                Divisor(tuple(Fraction(rng.randint(-1, 3)) for _ in range(p.num_facets)))
                for _ in range(p.dim)
            )
            want, shifted = polarization_oracle(p, divisors)
            assert intersection_number(IntersectionQuery(p, divisors)) == want
            for e in shifted:
                region = polytope_of_divisor(p, e)
                assert self_intersection_top(p, e) == factorial(p.dim) * volume(region)

    def test_ample_selfint_is_scaled_volume(self, d3):
        h = ample_from_offsets(d3)
        assert self_intersection_top(d3, h) == factorial(3) * volume(
            polytope_of_divisor(d3, h)
        )

    def test_nef_selfint_is_scaled_volume(self, q2):
        # nef but not a recentred ample: stretch one facet of the cube
        d = ample_from_offsets(q2) + Divisor.on_facet(q2, 0, Fraction(3, 2))
        region = polytope_of_divisor(q2, d)
        assert region.incidence_pattern() == q2.incidence_pattern()
        assert self_intersection_top(q2, d) == 2 * volume(region)

    def test_simplex_classes_pairwise_equivalent(self, d3):
        divisors = [Divisor.on_facet(d3, f) for f in d3.facet_ids()]
        for i, a in enumerate(divisors):
            for b in divisors[i + 1:]:
                assert linearly_equivalent(d3, a, b)

    @settings(max_examples=15, deadline=None)
    @given(st.sampled_from(["cube2", "simplex2", "cube3"]), st.data())
    def test_symmetry_and_multilinearity(self, shape, data):
        kind, n = ("cube", 2) if shape == "cube2" else (
            ("simplex", 2) if shape == "simplex2" else ("cube", 3)
        )
        p = construct_standard(kind, n)
        divisors = [
            Divisor(
                tuple(data.draw(small_rationals) for _ in range(p.num_facets))
            )
            for _ in range(n + 1)
        ]
        a, b, rest = divisors[0], divisors[1], tuple(divisors[2:n])
        c = divisors[n]
        ab = intersection_number(IntersectionQuery(p, (a, b) + rest))
        ba = intersection_number(IntersectionQuery(p, (b, a) + rest))
        assert ab == ba
        scale = data.draw(small_rationals)
        combined = intersection_number(
            IntersectionQuery(p, (a + scale * c, b) + rest)
        )
        cb = intersection_number(IntersectionQuery(p, (c, b) + rest))
        assert combined == ab + scale * cb

    @settings(max_examples=15, deadline=None)
    @given(
        st.tuples(small_rationals, small_rationals),
        st.lists(small_rationals, min_size=4, max_size=4),
    )
    def test_principal_invariance(self, v, coeffs):
        q = construct_standard("cube", 2)
        d = Divisor(tuple(coeffs))
        other = Divisor.on_facet(q, 2)
        base = intersection_number(IntersectionQuery(q, (d, other)))
        shifted = intersection_number(
            IntersectionQuery(q, (d + principal_divisor(q, v), other))
        )
        assert shifted == base

    def test_simplex_triple_product_orbifold_friendly(self):
        # perturbed simplex: still simple, rational numbers come out exact
        p = perturb(construct_standard("simplex", 2), Fraction(1, 100), seed=5)
        h = ample_from_offsets(p)
        assert self_intersection_top(p, h) == 2 * volume(polytope_of_divisor(p, h))


REFERENCE_SHAPES = {
    **ORACLE_SHAPES,
    "Q4": lambda: construct_standard("cube", 4),
    "S4": lambda: construct_standard("simplex", 4),
}

# zero, negative and large coefficients with mixed denominators
wild_rationals = st.one_of(
    st.just(Fraction(0)),
    small_rationals,
    st.fractions(min_value=-(10 ** 12), max_value=10 ** 12, max_denominator=10 ** 9),
)


def random_divisors(p, rng):
    return tuple(
        Divisor(tuple(Fraction(rng.randint(-5, 5), rng.randint(1, 7)) for _ in p.facet_ids()))
        for _ in range(p.dim)
    )


class TestIntegerLocalizationAgainstFractionRoute:
    """intersection_number in integers against the Fraction vertex sum of
    tests/chow_reference.py, by exact Fraction equality."""

    @staticmethod
    def check(p, divisors):
        got = intersection_number(IntersectionQuery(p, divisors))
        assert type(got) is Fraction
        assert got == chow_reference.fraction_intersection_number(p, divisors)

    @pytest.mark.parametrize("shape", list(REFERENCE_SHAPES))
    def test_standard_shapes(self, shape):
        p = REFERENCE_SHAPES[shape]()
        rng = random.Random(shape)
        self.check(p, (ample_from_offsets(p),) * p.dim)
        for facets in itertools.combinations_with_replacement(p.facet_ids(), p.dim):
            self.check(p, tuple(Divisor.on_facet(p, f) for f in facets))
        for _ in range(3):
            self.check(p, random_divisors(p, rng))

    @pytest.mark.parametrize("kind, n", [("cube", 3), ("simplex", 3), ("cube", 4)])
    def test_perturbed_over_50_seeds(self, kind, n):
        base = construct_standard(kind, n)
        for seed in range(50):
            p = perturb(base, Fraction(1, 100), seed=seed)
            self.check(p, (ample_from_offsets(p),) * n)
            self.check(p, random_divisors(p, random.Random(seed)))

    @settings(max_examples=40, deadline=None)
    @given(st.sampled_from(["Q2", "S2", "P112", "Q3", "S2xQ1"]), st.data())
    def test_drawn_divisors(self, shape, data):
        p = REFERENCE_SHAPES[shape]()
        divisors = tuple(
            Divisor(tuple(data.draw(wild_rationals) for _ in p.facet_ids()))
            for _ in range(p.dim)
        )
        self.check(p, divisors)

    def test_int_and_zero_divisors(self, q3):
        # plain int coefficients clear with scale 1
        ints = Divisor(tuple(range(-2, 4)))
        self.check(q3, (ints, ints, ints))
        self.check(q3, (ints, Divisor.zero(q3), ints))


def xi_of(p):
    """The xi of p's vertex cones, read back from the first cone: U^T a = d xi."""
    (facets, *_), ((a, d, _), *_), _ = p.vertex_cones
    rows = zip(*(p.normals[f] for f in facets))
    return tuple(Fraction(sum(x * y for x, y in zip(row, a)), d) for row in rows)


class TestVertexConesKeptOnThePolytope:
    """SimplePolytope.vertex_cones is built on the first query and read by
    every later one on the same polytope object."""

    def test_second_query_makes_no_elimination(self, monkeypatch):
        p = construct_standard("cube", 3)
        calls = []
        solve = linalg.int_cramer

        def counted(rows, rhs):
            calls.append(rhs)
            return solve(rows, rhs)

        monkeypatch.setattr(linalg, "int_cramer", counted)
        h = ample_from_offsets(p)
        first = self_intersection_top(p, h)
        assert len(calls) == len(p.vertices)
        calls.clear()
        assert self_intersection_top(p, h) == first == 6
        for facets in [(0, 2, 4), (1, 3, 5), (0, 0, 2)]:
            intersection_number(IntersectionQuery(p, tuple(Divisor.on_facet(p, f) for f in facets)))
        assert calls == []

    def test_cached_value_is_immutable_and_no_field(self, q3):
        copy = construct_standard("cube", 3)
        facet_sets, cones, scale = q3.vertex_cones
        assert q3.vertex_cones is q3.vertex_cones
        assert type(facet_sets) is tuple and all(type(s) is tuple for s in facet_sets)
        assert type(cones) is tuple and all(type(a) is tuple for a, _, _ in cones)
        assert type(scale) is int
        # the cache is not a field: equality, hash, repr and asdict ignore it
        assert q3 == copy and hash(q3) == hash(copy) and repr(q3) == repr(copy)
        assert "vertex_cones" not in dataclasses.asdict(q3)
        assert "vertex_cones" not in repr(q3)

    @pytest.mark.parametrize("shape", list(ORACLE_SHAPES) + ["translated pQ3"])
    def test_repeated_queries_match_the_fraction_route(self, shape):
        if shape == "translated pQ3":
            p = ORACLE_SHAPES["pQ3"]().translate((Fraction(1, 3), Fraction(-2), Fraction(5, 7)))
        else:
            p = ORACLE_SHAPES[shape]()
        rng = random.Random(shape)
        queries = [(ample_from_offsets(p),) * p.dim]
        queries += [random_divisors(p, rng) for _ in range(4)]
        queries += [tuple(Divisor.on_facet(p, f) for f in facets)
                    for facets in itertools.combinations(p.facet_ids(), p.dim)]
        for divisors in queries:
            TestIntegerLocalizationAgainstFractionRoute.check(p, divisors)

    def test_translate_keeps_the_cones(self):
        p = ORACLE_SHAPES["pS3"]()
        moved = p.translate((Fraction(1, 2), Fraction(1, 3), Fraction(-1)))
        assert moved.vertex_cones == p.vertex_cones
        # the multipliers bring every vertex term to the one denominator
        _, cones, scale = moved.vertex_cones
        assert all(k * abs(d) * prod(a) == scale for a, d, k in cones)
        assert scale > 0 and any(k < 0 for _, _, k in cones)

    def test_xi_search_past_t_1(self):
        # the slant edge of the triangle runs along (1, -1), so xi = (1, 1)
        # gives it weight 0 and the search moves on to t = 2; the triangle is
        # ORACLE_SHAPES["S2"], checked against the Fraction route above
        assert xi_of(ORACLE_SHAPES["S2"]()) == (1, 2)
        assert xi_of(construct_standard("cube", 2)) == (1, 1)


@pytest.mark.parametrize(
    "make",
    [
        lambda: construct_standard("cube", 6),
        lambda: construct_standard("simplex", 6),
        lambda: product(construct_standard("simplex", 3), construct_standard("simplex", 3)),
    ],
    ids=["Q6", "S6", "S3xS3"],
)
def test_perturbed_ample_selfint_is_scaled_volume(make):
    """Seeded golden in dimension 6: H^n = n! vol(P) on the perturbed shape."""
    p = perturb(make(), Fraction(1, 100), seed=1)
    h = ample_from_offsets(p)
    assert self_intersection_top(p, h) == factorial(p.dim) * volume(p)


class TestAvoidanceCertificates:
    def test_empty_touched_returns_h(self, q2):
        h = ample_from_offsets(q2)
        assert avoidance_certificate(q2, h, []) == h

    @pytest.mark.parametrize("touched", [[-1], [4], [0, 99]])
    def test_facet_ids_out_of_range(self, q2, touched):
        with pytest.raises(InputError, match="not in 0..3"):
            avoidance_certificate(q2, ample_from_offsets(q2), touched)

    @pytest.mark.parametrize("fid", [True, 1.0, 1.5, "1"], ids=repr)
    def test_facet_ids_that_are_no_ints(self, q2, fid):
        message = f"touched facet id must be an int, got {fid!r}"
        for touched in ([fid], [0, fid]):
            with pytest.raises(InputError, match=f"^{re.escape(message)}$"):
                avoidance_certificate(q2, ample_from_offsets(q2), touched)

    def test_generic_subsets_have_certificates(self, q3):
        p = perturb(q3, Fraction(1, 100), seed=9)
        h = ample_from_offsets(p)
        for size in range(1, 4):
            for touched in itertools.combinations(p.facet_ids(), size):
                cert = avoidance_certificate(p, h, touched)
                assert cert is not None
                assert all(cert.coeffs[f] == 0 for f in touched)

    def test_opposite_pair_obstruction(self, q2):
        # coefficient 1 on both facets of an axis forces v_j = -1 and v_j = 1
        h = Divisor.from_map(q2, {0: 1, 1: 1})
        assert avoidance_certificate(q2, h, [0, 1]) is None

    def test_segment_all_but_lower_facet(self, segment):
        # in dimension 1 missing a single facet already gives a certificate
        h = ample_from_offsets(segment)
        cert = avoidance_certificate(segment, h, [cube_facet_id(0, "+")])
        assert cert is not None and cert.coeffs[1] == 0

    @pytest.mark.parametrize("n", [2, 3])
    def test_cube_one_missed_facet_per_axis(self, n):
        # a set that misses one facet of every antiparallel pair is avoided by
        # the divisor doubled on the missed sides; spanning no pair is exactly
        # what makes the certificate solvable on the cube
        q = construct_standard("cube", n)
        h = ample_from_offsets(q)
        for signs in itertools.product("-+", repeat=n):
            touched = [cube_facet_id(j, s) for j, s in enumerate(signs)]
            cert = avoidance_certificate(q, h, touched)
            assert cert is not None
            assert all(cert.coeffs[f] == 0 for f in touched)

    @pytest.mark.parametrize("n", [2, 3])
    def test_simplex_proper_subsets_inessential(self, n):
        p = construct_standard("simplex", n)
        h = ample_from_offsets(p)
        for size in range(1, n + 1):
            for touched in itertools.combinations(p.facet_ids(), size):
                assert avoidance_certificate(p, h, touched) is not None

    @settings(max_examples=20, deadline=None)
    @given(
        st.fractions(
            min_value=Fraction(1, 4), max_value=Fraction(4), max_denominator=8
        )
    )
    def test_certificate_scales_linearly(self, scale):
        p = perturb(construct_standard("cube", 2), Fraction(1, 64), seed=11)
        h = ample_from_offsets(p)
        touched = [0, 2]
        cert = avoidance_certificate(p, h, touched)
        scaled = avoidance_certificate(p, scale * h, touched)
        assert cert is not None and scaled is not None
        assert scaled.coeffs == tuple(scale * c for c in cert.coeffs)


# the perturbed shapes the sample lab runs on, n = 2..5, and translated copies
PERTURBED_SHAPES = {
    f"p{letter}{n}": (lambda kind=kind, n=n: perturb(
        construct_standard(kind, n), Fraction(1, 100), seed=n))
    for kind, letter in (("cube", "Q"), ("simplex", "S")) for n in range(2, 6)
}
SHAPES_BOTH_ROUTES = {
    **ORACLE_SHAPES,
    **PERTURBED_SHAPES,
    "translated pQ4": lambda: PERTURBED_SHAPES["pQ4"]().translate(
        (Fraction(1, 3), Fraction(-2), Fraction(5, 7), Fraction(0))),
    "translated S3": lambda: construct_standard("simplex", 3).translate(
        (Fraction(-1, 2), Fraction(3), Fraction(1, 9))),
}


class TestKeptNumerators:
    """Divisor.cleared: built on first use, kept on the divisor and read by
    every later query and certificate on it."""

    def test_cleared_is_built_once_and_is_no_field(self):
        d = Divisor((Fraction(1, 2), Fraction(-2, 3), 0, 5))
        twin = Divisor(d.coeffs)
        assert d.cleared is d.cleared
        assert d.cleared == ((3, -4, 0, 30), 6)
        assert d == twin and hash(d) == hash(twin) and repr(d) == repr(twin)
        assert dataclasses.asdict(d) == {"coeffs": d.coeffs}
        assert "cleared" not in repr(d)

    def test_one_divisor_is_cleared_once(self, monkeypatch):
        p = ORACLE_SHAPES["pQ3"]()
        h = ample_from_offsets(p)
        rows = []
        int_row = linalg.int_row

        def counted(row):
            rows.append(row)
            return int_row(row)

        monkeypatch.setattr(linalg, "int_row", counted)
        first = self_intersection_top(p, h)
        for touched in ([0], [1, 2], [0, 2, 4]):
            avoidance_certificate(p, h, touched)
        assert self_intersection_top(p, h) == first
        assert rows == [h.coeffs]

    def test_list_coefficients_are_refused(self, q2):
        listed = Divisor([1, 0, 0, 0])
        refusals = [
            ("divisors[1]", lambda: IntersectionQuery(q2, (Divisor.zero(q2), listed))),
            ("h", lambda: avoidance_certificate(q2, listed, [0])),
            ("d", lambda: is_principal(q2, listed)),
            ("d2", lambda: linearly_equivalent(q2, Divisor.zero(q2), listed)),
        ]
        for name, call in refusals:
            message = f"{name} coefficients must be a tuple, got list"
            with pytest.raises(InputError, match=f"^{re.escape(message)}$"):
                call()

    @pytest.mark.parametrize("shape", list(PERTURBED_SHAPES))
    def test_equal_and_shared_divisors_match_the_fraction_route(self, shape):
        p = PERTURBED_SHAPES[shape]()
        d = random_divisors(p, random.Random(shape))[0]
        # distinct objects with equal coefficients, and one object n times
        twins = tuple(Divisor(tuple(list(d.coeffs))) for _ in range(p.dim))
        want = chow_reference.fraction_intersection_number(p, twins)
        assert intersection_number(IntersectionQuery(p, twins)) == want
        assert self_intersection_top(p, d) == want
        assert self_intersection_top(p, d) == want
        h = ample_from_offsets(p)
        check = TestIntegerLocalizationAgainstFractionRoute.check
        check(p, (h,) * p.dim)
        check(p, (h, d) + twins[2:])
        check(p, (h,) * p.dim)


@st.composite
def normal_matrices(draw):
    """m >= n integer normals in dimension n = 1..5, some repeated, some
    parallel to an earlier one and some zero, so that zero minors occur."""
    n = draw(st.integers(min_value=1, max_value=5))
    m = draw(st.integers(min_value=n, max_value=n + 3))
    entry = st.integers(min_value=-3, max_value=3)
    normals = [tuple(draw(st.lists(entry, min_size=n, max_size=n))) for _ in range(m)]
    for i in range(1, m):
        how = draw(st.sampled_from(["keep", "keep", "keep", "repeat", "parallel"]))
        j = draw(st.integers(min_value=0, max_value=i - 1))
        if how == "repeat":
            normals[i] = normals[j]
        elif how == "parallel":
            k = draw(st.sampled_from([-2, -1, 2, 3]))
            normals[i] = tuple(k * x for x in normals[j])
    return n, tuple(normals)


class TestIntegerRoutesAgainstFractionRoutes:
    """The sweep of minors, the integer ample class and the integer
    certificates against the Fraction routes of tests/chow_reference.py, by
    exact equality, types included."""

    @settings(max_examples=300, deadline=None)
    @given(normal_matrices())
    def test_genericity_on_random_normals(self, drawn):
        n, normals = drawn
        # the check reads only the dimension and the normals
        p = SimplePolytope(n, normals, (), ())
        assert generic_normals_check(p) is chow_reference.subset_generic_normals(p)

    def test_random_normals_reach_both_answers(self):
        square = SimplePolytope(2, ((1, 0), (0, 1), (1, 1)), (), ())
        parallel = SimplePolytope(2, ((1, 0), (0, 1), (-2, 0)), (), ())
        assert generic_normals_check(square) and chow_reference.subset_generic_normals(square)
        assert not generic_normals_check(parallel)
        assert not chow_reference.subset_generic_normals(parallel)

    @pytest.mark.parametrize("shape", list(SHAPES_BOTH_ROUTES))
    def test_genericity_and_ample_class(self, shape):
        p = SHAPES_BOTH_ROUTES[shape]()
        assert generic_normals_check(p) is chow_reference.subset_generic_normals(p)
        centroid = p.vertex_centroid()
        assert centroid == chow_reference.fraction_centroid(p)
        assert all(type(x) is Fraction for x in centroid)
        coeffs = ample_from_offsets(p).coeffs
        assert coeffs == chow_reference.fraction_ample_coeffs(p)
        assert all(type(c) is Fraction for c in coeffs)

    @pytest.mark.parametrize("shape", list(SHAPES_BOTH_ROUTES))
    def test_certificates_on_every_touched_subset(self, shape):
        p = SHAPES_BOTH_ROUTES[shape]()
        rng = random.Random(shape)
        divisors = [ample_from_offsets(p)]
        divisors += [random_divisors(p, rng)[0] for _ in range(2)]
        # integer coefficients, as a caller may build them
        divisors.append(Divisor(tuple(rng.randint(-3, 3) for _ in p.facet_ids())))
        # up to n + 1 facets: inconsistent systems start at n + 1 for a
        # generic polytope and at 2 for the cube's parallel facets; below
        # n facets every system is underdetermined
        sizes = range(min(p.dim + 1, p.num_facets) + 1)
        subsets = [t for k in sizes for t in itertools.combinations(p.facet_ids(), k)]
        if len(subsets) > 200:
            subsets = rng.sample(subsets, 200)
        for h in divisors:
            for touched in subsets:
                got = avoidance_certificate(p, h, touched)
                want = chow_reference.fraction_certificate(p, h.coeffs, touched)
                if want is None:
                    assert got is None
                    continue
                assert got.coeffs == want
                if touched:
                    assert all(type(c) is Fraction for c in got.coeffs)
                    assert all(got.coeffs[f] == 0 for f in touched)

    def test_inconsistent_and_underdetermined_both_occur(self):
        q2 = construct_standard("cube", 2)
        h = Divisor.from_map(q2, {0: 1, 1: 1})
        assert chow_reference.fraction_certificate(q2, h.coeffs, [0, 1]) is None
        assert avoidance_certificate(q2, h, [0, 1]) is None
        # one facet in dimension 2 leaves one component of v free
        assert avoidance_certificate(q2, h, [0]).coeffs == (0, 2, 0, 0)
