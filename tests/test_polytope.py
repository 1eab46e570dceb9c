import itertools
from fractions import Fraction
from math import comb

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
    perturb,
    polytope,
    product,
)

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
        def broken(normals, offsets):
            raise ValueError("bug")

        monkeypatch.setattr(polytope, "from_halfspaces", broken)
        with pytest.raises(ValueError, match="bug"):
            perturb(q2, Fraction(1, 100), seed=1)

    def test_perturb_retries_a_rejected_tilt(self, q2, monkeypatch):
        calls = []

        def first_not_simple(normals, offsets):
            calls.append(1)
            if len(calls) == 1:
                raise NotSimpleError("tilt")
            return from_halfspaces(normals, offsets)

        monkeypatch.setattr(polytope, "from_halfspaces", first_not_simple)
        assert generic_normals_check(perturb(q2, Fraction(1, 100), seed=1))
        assert len(calls) >= 2
