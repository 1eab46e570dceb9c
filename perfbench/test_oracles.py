"""The benchmark's oracles against values derived by hand.

Run with `python3 -m pytest perfbench`.  The oracles never call toricover, so
these tests need nothing but the standard library and pytest.
"""

import itertools
from fractions import Fraction

import pytest

import oracles as o

Q1 = ([(1,), (-1,)], [0, 1])
Q2 = ([(1, 0), (-1, 0), (0, 1), (0, -1)], [0, 1, 0, 1])
D2 = ([(1, 0), (0, 1), (-1, -1)], [0, 0, 1])
D3 = ([(1, 0, 0), (0, 1, 0), (0, 0, 1), (-1, -1, -1)], [0, 0, 0, 1])
P112 = ([(1, 0), (0, 1), (-1, -2)], [0, 0, 2])
# the prism Delta^2 x Delta^1: triangle facets first, then the segment's
PRISM = (
    [(1, 0, 0), (0, 1, 0), (-1, -1, 0), (0, 0, 1), (0, 0, -1)],
    [0, 0, 1, 0, 1],
)


def facet(m, f, c=1):
    return [c if i == f else 0 for i in range(m)]


def test_integer_determinant_and_adjugate():
    assert o.int_det([[2, 1], [1, 3]]) == 5
    assert o.int_det([[0, 1], [1, 0]]) == -1
    assert o.int_det([[1, 2, 3], [4, 5, 6], [7, 8, 10]]) == -3
    assert o.int_det([[1, 2], [2, 4]]) == 0
    assert o.adjugate([[2, 1], [1, 3]]) == [[3, -1], [-1, 2]]


def test_consistency_by_rank():
    assert o.consistent([(1, 0), (-1, 0)], [Fraction(1, 2), Fraction(-1, 2)])
    assert not o.consistent([(1, 0), (-1, 0)], [1, 1])
    assert o.consistent([], [0, 0])


def test_vertices_of_the_square_and_the_weighted_triangle():
    assert sorted(p for _, p in o.vertex_cones(*Q2)) == [(0, 0), (0, 1), (1, 0), (1, 1)]
    cones = dict((p, t) for t, p in o.vertex_cones(*P112))
    assert cones == {(0, 0): (0, 1), (0, 1): (0, 2), (2, 0): (1, 2)}


def test_segment_degree_is_the_coefficient_sum():
    assert o.brion_intersection(*Q1, [[3, 4]]) == 7


def test_square_products():
    distinct = [facet(4, 0), facet(4, 2)]
    repeated = [facet(4, 0), facet(4, 1)]
    assert o.brion_intersection(*Q2, distinct) == 1
    assert o.brion_intersection(*Q2, repeated) == 0
    assert o.cube_closed_form(distinct) == 1
    assert o.cube_closed_form(repeated) == 0


def test_beyond_the_nef_lift_cap():
    huge = [facet(4, 0, -(2 ** 20)), facet(4, 2)]
    assert o.brion_intersection(*Q2, huge) == -(2 ** 20)
    assert o.cube_closed_form(huge) == -(2 ** 20)


def test_simplex_classes_are_the_hyperplane():
    for f, g in itertools.product(range(3), repeat=2):
        assert o.brion_intersection(*D2, [facet(3, f), facet(3, g)]) == 1
    # H = (0, 0, 0, 1) on Delta^3: H^3 = 3! vol = 1
    assert o.brion_intersection(*D3, [facet(4, 3)] * 3) == 1
    assert o.simplex_closed_form([[1, 2, 0], [0, 0, 5]]) == 15


def test_scaled_cube_volume():
    # the square of side 2 is the divisor 2(D_1 + D_3): its square is 2! * 4
    side_two = [0, 2, 0, 2]
    assert o.brion_intersection(*Q2, [side_two, side_two]) == 8


def test_weighted_projective_plane_by_hand():
    # the vertex (0, 1) has normals (1,0), (-1,-2) with |det| = 2, so
    # D_0 . D_2 = 1/2; D_1 ~ 2 D_0 gives D_1^2 = 4 D_0^2 = 2
    for i, j in itertools.product(range(3), repeat=2):
        want = o.P112_TABLE[i][j]
        assert o.brion_intersection(*P112, [facet(3, i), facet(3, j)]) == want
        assert o.p112_closed_form([facet(3, i), facet(3, j)]) == want
    assert o.P112_TABLE[0][2] == Fraction(1, 2)
    assert o.P112_TABLE[1][1] == 2


def test_product_rule_on_the_prism():
    tri_0, seg_lo = facet(5, 0), facet(5, 3)
    def rule(ds):
        return o.product_closed_form(
            2, 3, o.simplex_closed_form,
            lambda qs: o.simplex_closed_form(qs) if qs else 1, ds)
    assert rule([tri_0, tri_0, seg_lo]) == 1
    assert o.brion_intersection(*PRISM, [tri_0, tri_0, seg_lo]) == 1
    assert rule([seg_lo, seg_lo, tri_0]) == 0
    assert o.brion_intersection(*PRISM, [seg_lo, seg_lo, tri_0]) == 0


def test_minimal_nonfaces():
    assert o.minimal_nonfaces(*Q2) == {frozenset({0, 1}), frozenset({2, 3})}
    assert o.minimal_nonfaces(*D2) == {frozenset({0, 1, 2})}


def test_certificates():
    h = [Fraction(1, 2)] * 4
    # facets 1 and 2: v = (1/2, -1/2) gives h + div(v) = (1, 0, 0, 1)
    assert o.check_certificate(Q2[0], h, [1, 2], [1, 0, 0, 1]) is None
    assert o.check_certificate(Q2[0], h, [1, 2], [1, 0, 1, 0]) is not None
    assert o.check_certificate(Q2[0], h, [1, 2], [2, 0, 0, 0]) is not None
    # an antiparallel pair has no certificate, so None is the right answer
    assert o.check_certificate(Q2[0], h, [0, 1], None) is None
    assert o.check_certificate(Q2[0], h, [0, 2], None) is not None


def test_integer_sample_and_touch_sets():
    sample = o.integer_sample(*D2, 2)
    assert sample == {(0, 0), (1, 0), (2, 0), (0, 1), (1, 1), (0, 2)}
    assert o.scaled_points([(Fraction(1, 2), 0)], 2) == {(1, 0)}
    with pytest.raises(ValueError):
        o.scaled_points([(Fraction(1, 3), 0)], 2)
    # (1/2, 1/2) lies on the slant, (1/2, 0) on the facet y >= 0
    assert o.touch_set(*D2, {(1, 1)}, 2, 0) == {2}
    assert o.touch_set(*D2, {(1, 0)}, 2, 0) == {1}
    # slant slack of (0,0) is 1 <= eps * |(-1,-1)|_1 = 2 eps once eps >= 1/2
    assert o.touch_set(*D2, {(0, 0)}, 2, Fraction(1, 2)) == {0, 1, 2}
    assert o.touch_set(*D2, {(0, 0)}, 2, Fraction(1, 3)) == {0, 1}


def test_lattice_models_and_components():
    assert len(o.model_points("cube", 2, 2)) == 9
    assert len(o.model_points("simplex", 2, 2)) == 6
    assert sorted(o.neighbors("cube", 2, 2, (0, 0))) == [(0, 1), (1, 0)]
    assert sorted(o.neighbors("simplex", 2, 1, (1, 0, 0))) == [(0, 0, 1), (0, 1, 0)]
    assert o.is_connected({(0, 0), (0, 1), (1, 1)}, "cube", 2, 2)
    assert not o.is_connected({(0, 0), (1, 1)}, "cube", 2, 2)


def test_lebesgue_check():
    sets = {"L": {(0, 0), (0, 1), (1, 0), (1, 1)}, "R": {(1, 0), (1, 1), (2, 0), (2, 1)}}
    sets = {k: v | {(x, 2) for x, _ in v} for k, v in sets.items()}
    assert o.check_lebesgue(2, 2, sets, "witness_found", {"set": "L", "axis": 1}) is None
    assert o.check_lebesgue(2, 2, sets, "witness_found", {"set": "L", "axis": 0}) is not None
    assert o.check_lebesgue(2, 2, sets, "counterexample_candidate", {}) is not None


def test_kkm_check_on_the_triangle():
    # one small set at a corner; the rest of the triangle is the witness
    sets = {"A": {(2, 0, 0)}}
    comp = sorted(o.model_points("simplex", 2, 2) - {(2, 0, 0)})
    assert o.check_kkm(2, 2, 1, sets, "witness_found", {"component": comp}) is None
    assert o.check_kkm(2, 2, 1, sets, "witness_found", {"component": comp[:1]}) is not None


def test_complement_and_axes_checks():
    sets = {"A": {(0, 0)}}
    comp = sorted(o.model_points("cube", 2, 2) - {(0, 0)})
    assert o.check_complement(2, 2, 1, sets, "witness_found", {"component": comp, "axes": [0]}) is None
    halves = {"X": {p for p in o.model_points("cube", 2, 2) if p[1] <= 1},
              "Y": {p for p in o.model_points("cube", 2, 2) if p[1] >= 1}}
    good = {"set": "X", "axis": 0, "component": sorted(halves["X"])}
    assert o.check_axes(2, 2, ["X", "Y"], halves, "witness_found", good) is None
    assert o.check_axes(2, 2, ["Y", "X"], halves, "witness_found", good) is not None


def test_coloring_check():
    sets = {"A": {(0,), (1,)}, "B": {(1,), (2,)}}
    good = [[(("A",), [(0,)]), (("B",), [(2,)])], [(("A", "B"), [(1,)])]]
    assert o.check_coloring(sets, good) is None
    lost = [[(("A",), [(0,)])], [(("A", "B"), [(1,)])]]
    assert o.check_coloring(sets, lost) is not None
    wrong_class = [[(("A",), [(0,)]), (("B",), [(2,)]), (("A", "B"), [(1,)])]]
    assert o.check_coloring(sets, wrong_class) is not None
