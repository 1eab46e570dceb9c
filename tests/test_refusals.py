"""Refusals: each check that turns a bad argument into a named InputError
(or one of its subclasses), with the class and message it raises, and the
probe that substitutes bad values into every entry point's arguments."""

import contextlib
import io
import json
import pathlib
import re
from fractions import Fraction

import pytest

from toricover import chow, cli, covering, harness, jsonio, polytope
from toricover.covering import LatticeModel, PointSet, RefinementPiece
from toricover.harness import BadResolutionError, SuiteConfig
from toricover.polytope import (
    BudgetExhaustedError,
    InputError,
    UnboundedError,
    construct_standard,
    from_halfspaces,
)

SCHEMAS = pathlib.Path(__file__).resolve().parent.parent / "schemas"


def cube(n, r):
    return LatticeModel("cube", n, r)


def digit_limit_message(digits):
    """Python's own message for an int() past its digit limit; its wording
    differs between Python versions."""
    try:
        int("9" * digits)
    except ValueError as exc:
        return str(exc)
    raise AssertionError(f"{digits} digits are within the limit")


def square_cover():
    """A sample cover of the unit square at r = 2."""
    return harness.polytope_sample_cover(construct_standard("cube", 2), 2, 2, 0)[0]


# (id, call, exception class, message)
REFUSALS = [
    ("model-n0", lambda: cube(0, 2), InputError, "n must be >= 1"),
    # n and r are counts: a float, bool or str is refused, not read as one
    ("model-n-float", lambda: cube(2.0, 3), InputError, "n must be an int, got 2.0"),
    ("model-r-str", lambda: cube(2, "3"), InputError, "r must be an int, got '3'"),
    ("model-r-float-n0", lambda: cube(0, 2.5), InputError, "n must be >= 1"),
    ("spans-pair-simplex",
     lambda: covering.spans_pair(harness.kkm_standard_cover(2, 3), "0", 0),
     InputError, "spans_pair is a cube-model notion"),
    ("components-off-model",
     lambda: covering.connected_components([(9, 9)], cube(2, 2)),
     InputError, "points outside the model: [(9, 9)]"),
    ("axes-simplex", lambda: covering.axes_witness(harness.kkm_standard_cover(2, 3)),
     InputError, "axes_witness runs on the cube model"),
    ("bricks-too-coarse", lambda: harness.shifted_brick_cover(4, 8),
     BadResolutionError, "r=8 too coarse for staggered bricks in n=4"),
    ("multiplicity-0", lambda: harness.random_low_multiplicity_cover(cube(2, 4), 0, 0),
     InputError, "target multiplicity must be >= 1"),
    ("resolution-0", lambda: harness.lattice_sample(construct_standard("cube", 2), 0),
     InputError, "resolution must be >= 1"),
    # x in [1/3, 2/3] holds no point of the integer grid
    ("empty-sample",
     lambda: harness.polytope_sample_cover(
         from_halfspaces([(1,), (-1,)], [Fraction(-1, 3), Fraction(2, 3)]), 1, 2, 0),
     InputError, "empty sample; raise the resolution"),
    ("suite-no-instances",
     lambda: SuiteConfig(verifier="lebesgue", kind="cube", n=2, r=4, instances=0, seed=0),
     InputError, "instances must be >= 1"),
    ("suite-unknown-verifier",
     lambda: harness.run_property_suite(
         SuiteConfig(verifier="sperner", kind="cube", n=2, r=4, instances=1, seed=0)),
     InputError, "unknown suite verifier: 'sperner'"),
    ("halfspaces-lengths", lambda: from_halfspaces([(1,), (-1,)], [0]),
     InputError, "normals and offsets must have the same length"),
    ("halfspaces-normals-none", lambda: from_halfspaces(None, None),
     InputError, "normals must be a sequence of vectors, got None"),
    ("halfspaces-offsets-none", lambda: from_halfspaces([(1, 0)], None),
     InputError, "offsets must be a sequence of numbers, got None"),
    ("halfspaces-none", lambda: from_halfspaces([], []),
     InputError, "at least one half-space is required"),
    ("halfspaces-few-facets", lambda: from_halfspaces([(1, 0), (0, 1)], [0, 0]),
     UnboundedError, "fewer than n+1 facets cannot bound a polytope"),
    # every entry is read by polytope.exact: a float is not read as its
    # binary value, and a bool is no number
    ("halfspaces-offset-float",
     lambda: from_halfspaces([(1, 0), (0, 1), (-1, 0), (0, -1)], [0, 0, 0.1, 1]),
     InputError, "offsets[2] must be an int or a Fraction, got 0.1"),
    ("halfspaces-normal-float",
     lambda: from_halfspaces([(1.5, 0), (0, 1), (-1, 0), (0, -1)], [0, 0, 1, 1]),
     InputError, "normals[0][0] must be an int or a Fraction, got 1.5"),
    ("halfspaces-normal-bool",
     lambda: from_halfspaces([(1, 0), (0, True), (-1, 0), (0, -1)], [0, 0, 1, 1]),
     InputError, "normals[1][1] must be an int or a Fraction, got True"),
    ("slack-point-float", lambda: construct_standard("cube", 2).slack(0, (0.1, 0)),
     InputError, "point[0] must be an int or a Fraction, got 0.1"),
    ("contains-point-bool", lambda: construct_standard("cube", 2).contains((True, 0.5)),
     InputError, "point[0] must be an int or a Fraction, got True"),
    ("contains-point-short", lambda: construct_standard("cube", 2).contains((0,)),
     InputError, "point must have 2 entries, got 1"),
    ("translate-shift-float", lambda: construct_standard("cube", 2).translate((0.1, 0)),
     InputError, "shift[0] must be an int or a Fraction, got 0.1"),
    # a value that is no number, or no sequence where one is due, is refused
    # by name as well, never left to raise TypeError
    ("slack-point-no-sequence", lambda: construct_standard("cube", 2).slack(0, 5),
     InputError, "point must be a sequence of 2 numbers, got 5"),
    ("translate-shift-none", lambda: construct_standard("cube", 2).translate(None),
     InputError, "shift must be a sequence of 2 numbers, got None"),
    ("translate-shift-complex", lambda: construct_standard("cube", 2).translate((1j, 0)),
     InputError, "shift[0] must be an int or a Fraction, got 1j"),
    ("contains-point-list-entry", lambda: construct_standard("cube", 2).contains(([0], 0)),
     InputError, "point[0] must be an int or a Fraction, got [0]"),
    ("halfspaces-normal-none",
     lambda: from_halfspaces([(1, 0), None, (-1, 0), (0, -1)], [0, 0, 1, 1]),
     InputError, "normals[1] must be a sequence of 2 numbers, got None"),
    ("halfspaces-offset-list",
     lambda: from_halfspaces([(1, 0), (0, 1), (-1, 0), (0, -1)], [0, [0], 1, 1]),
     InputError, "offsets[1] must be an int or a Fraction, got [0]"),
    ("perturb-budget-none", lambda: polytope.perturb(construct_standard("cube", 2), None),
     InputError, "budget must be an int or a Fraction, got None"),
    ("principal-v-none-entry",
     lambda: chow.principal_divisor(construct_standard("cube", 2), [None, 1]),
     InputError, "v must be an int or a Fraction, got None"),
    ("divisor-from-map-none",
     lambda: chow.Divisor.from_map(construct_standard("cube", 2), {0: None}),
     InputError, "facet 0 coefficient must be an int or a Fraction, got None"),
    ("divisor-scalar-none", lambda: None * chow.Divisor.zero(construct_standard("cube", 2)),
     InputError, "scalar must be an int or a Fraction, got None"),
    ("principal-v-none",
     lambda: chow.principal_divisor(construct_standard("cube", 2), None),
     InputError, "v must be a sequence of 2 numbers, got None"),
    ("halfspaces-first-normal-none",
     lambda: from_halfspaces([None, (0, 1), (-1, 0), (0, -1)], [0, 0, 1, 1]),
     InputError, "normals[0] must be a sequence of numbers, got None"),
    ("divisor-from-map-no-mapping",
     lambda: chow.Divisor.from_map(construct_standard("cube", 2), None),
     InputError, "mapping must be a mapping of facet ids to numbers, got None"),
    ("sample-none", lambda: covering.Sample(None),
     InputError, "sample must be a sequence of points, got None"),
    ("lattice-cover-set-none", lambda: covering.LatticeCover(cube(2, 1), {"X": None}),
     InputError, "set 'X' must be a sequence of model points, got None"),
    ("lattice-cover-sets-none", lambda: covering.LatticeCover(cube(2, 1), None),
     InputError, "sets must be a mapping of set names to collections of model points,"
     " got None"),
    # an unhashable point is named in the order given
    ("lattice-cover-list-point", lambda: covering.LatticeCover(cube(2, 1), {"X": [[0, 0]]}),
     InputError, "set 'X' has points outside the model: [[0, 0]]"),
    # a lattice point is a tuple of ints: (True, 0) equals (1, 0) but is none
    ("lattice-cover-bool",
     lambda: covering.LatticeCover(cube(2, 1), {"X": [(True, 0)]}),
     InputError, "set 'X' has points outside the model: [(True, 0)]"),
    ("lattice-cover-simplex-bool",
     lambda: covering.LatticeCover(LatticeModel("simplex", 2, 2), {"X": [(True, True, 0)]}),
     InputError, "set 'X' has points outside the model: [(True, True, 0)]"),
    ("sample-bool", lambda: covering.Sample(((0, 1), (True, Fraction(1, 2)))),
     InputError, "sample[1] must be ints and Fractions, one per coordinate of sample[0],"
     " got (True, Fraction(1, 2))"),
    ("sample-float", lambda: covering.Sample(((0.5,),)),
     InputError, "sample[0] must be ints and Fractions, one per coordinate of sample[0],"
     " got (0.5,)"),
    ("sample-ragged", lambda: covering.Sample(((1, 2), (1, 2), (1,))),
     InputError, "sample[2] must be ints and Fractions, one per coordinate of sample[0],"
     " got (1,)"),
    # a point's type is read before its length: a bare number has none
    ("sample-bare-number", lambda: covering.Sample([5]),
     InputError, "sample[0] must be ints and Fractions, one per coordinate of sample[0], got 5"),
    ("sample-bare-number-later", lambda: covering.Sample([(0,), 5]),
     InputError, "sample[1] must be ints and Fractions, one per coordinate of sample[0], got 5"),
    # a face is a sequence of the model's facets, each a pair of ints, and a
    # point one int per coordinate: n on the cube, n + 1 on the simplex
    ("face-contains-face-none", lambda: cube(2, 2).face_contains(None, (0, 0)),
     InputError, "face must be a sequence of facets, got None"),
    ("face-contains-point-none", lambda: cube(2, 2).face_contains(((0, 0),), None),
     InputError, "point must be a sequence of 2 numbers, got None"),
    ("face-contains-facet-none", lambda: cube(2, 2).face_contains([None], (0, 0)),
     InputError, "face[0] must be a sequence of 2 numbers, got None"),
    ("face-contains-facet-bool", lambda: cube(2, 2).face_contains(((True, 0),), (0, 0)),
     InputError, "face[0][0] must be an int, got True"),
    ("face-contains-unknown-facet", lambda: cube(2, 2).face_contains(((0, 5),), (0, 0)),
     InputError, "unknown facet in face: (0, 5)"),
    ("face-contains-point-short", lambda: cube(2, 2).face_contains(((0, 0),), (0,)),
     InputError, "point must have 2 entries, got 1"),
    ("face-contains-point-bool", lambda: cube(2, 2).face_contains(((0, 0),), (0, True)),
     InputError, "point[1] must be an int, got True"),
    ("face-contains-simplex-point-short",
     lambda: LatticeModel("simplex", 2, 2).face_contains(((2, 0),), (0, 0)),
     InputError, "point must have 3 entries, got 2"),
    ("standard-n0", lambda: construct_standard("cube", 0), InputError, "n must be >= 1"),
    ("standard-n-float", lambda: construct_standard("cube", 2.0),
     InputError, "n must be an int, got 2.0"),
    ("standard-kind", lambda: construct_standard("prism", 2),
     InputError, "unknown standard polytope kind: 'prism'"),
    ("cube-facet-sign", lambda: polytope.cube_facet_id(0, "0"),
     InputError, "unknown sign: '0'"),
    # an axis is an int >= 0, and a bool is no int
    ("cube-facet-axis-float", lambda: polytope.cube_facet_id(1.5, "-"),
     InputError, "axis must be an int, got 1.5"),
    ("cube-facet-axis-bool", lambda: polytope.cube_facet_id(True, "-"),
     InputError, "axis must be an int, got True"),
    ("cube-facet-axis-negative", lambda: polytope.cube_facet_id(-1, "+"),
     InputError, "axis must be >= 0"),
    # ids and counts are read with their ranges where they enter
    ("slack-facet-id-high", lambda: construct_standard("cube", 2).slack(4, (0, 0)),
     InputError, "facet id 4 not in 0..3"),
    ("spans-pair-axis-high",
     lambda: covering.spans_pair(covering.LatticeCover(cube(2, 1), {"A": [(0, 0)]}), "A", 2),
     InputError, "axis 2 not in 0..1"),
    ("spans-pair-unknown-set",
     lambda: covering.spans_pair(covering.LatticeCover(cube(2, 1), {"A": [(0, 0)]}), "B", 0),
     InputError, "unknown set: 'B'"),
    ("partition-parts-above-points", lambda: harness.dilated_partition_cover(cube(1, 3), 5, 0),
     InputError, "parts 5 not in 1..4"),
    ("partition-parts-0", lambda: harness.dilated_partition_cover(cube(1, 3), 0, 0),
     InputError, "parts 0 not in 1..4"),
    ("sample-cover-m-0",
     lambda: harness.polytope_sample_cover(construct_standard("cube", 2), 2, 0, 0),
     InputError, "m must be >= 1"),
    ("faces-k-high", lambda: polytope.faces(construct_standard("cube", 2), 3),
     InputError, "face dimension 3 not in 0..2"),
    ("faces-k-negative", lambda: polytope.faces(construct_standard("cube", 2), -1),
     InputError, "face dimension -1 not in 0..2"),
    ("perturb-budget-0", lambda: polytope.perturb(construct_standard("cube", 2), 0),
     InputError, "budget must be positive"),
    # a float is read as its binary value and a bool as 0 or 1, so neither is an eps or budget
    ("perturb-budget-float", lambda: polytope.perturb(construct_standard("cube", 2), 0.01),
     InputError, "budget must be an int or a Fraction, got 0.01"),
    ("kkm-lebesgue-eps-float",
     lambda: covering.kkm_lebesgue_witness(construct_standard("cube", 2), square_cover(), 0.1),
     InputError, "eps must be an int or a Fraction, got 0.1"),
    ("touch-eps-float",
     lambda: covering.facet_touch_set(construct_standard("cube", 2), [(0, 0)], 0.5),
     InputError, "eps must be an int or a Fraction, got 0.5"),
    ("touch-eps-bool",
     lambda: covering.facet_touch_set(construct_standard("cube", 2), [(0, 0)], False),
     InputError, "eps must be an int or a Fraction, got False"),
    ("touch-eps-negative",
     lambda: covering.facet_touch_set(construct_standard("cube", 2), [(0, 0)], -1),
     InputError, "eps must be >= 0, got -1"),
    # a string is read only as "p" or "p/q": no decimals, exponents or zero q
    ("touch-eps-decimal-string",
     lambda: covering.facet_touch_set(construct_standard("cube", 2), [(0, 0)], "0.1"),
     InputError, 'eps must be an integer or "p/q" string, got \'0.1\''),
    ("touch-eps-zero-denominator",
     lambda: covering.facet_touch_set(construct_standard("cube", 2), [(0, 0)], "1/0"),
     InputError, "eps: Fraction(1, 0)"),
    ("perturb-budget-exponent-string",
     lambda: polytope.perturb(construct_standard("cube", 2), "1e-2"),
     InputError, 'budget must be an integer or "p/q" string, got \'1e-2\''),
    ("near-eps-float",
     lambda: covering.Sample(((Fraction(0),),)).near(construct_standard("cube", 1), 0.25),
     InputError, "eps must be an int or a Fraction, got 0.25"),
    ("moment-kind", lambda: polytope.moment_map_eval("cp2", []),
     InputError, "unknown moment map kind: 'cp2'"),
    # a flux vector is read like eps: exactly, or refused naming v
    ("principal-v-float",
     lambda: chow.principal_divisor(construct_standard("cube", 2), (0.5, 1)),
     InputError, "v must be an int or a Fraction, got 0.5"),
    ("principal-v-bool",
     lambda: chow.principal_divisor(construct_standard("cube", 2), (1, True)),
     InputError, "v must be an int or a Fraction, got True"),
    ("principal-v-decimal-string",
     lambda: chow.principal_divisor(construct_standard("cube", 2), ("0.5", 1)),
     InputError, 'v must be an integer or "p/q" string, got \'0.5\''),
    ("principal-v-zero-denominator",
     lambda: chow.principal_divisor(construct_standard("cube", 2), (1, "1/0")),
     InputError, "v: Fraction(1, 0)"),
    # a flux vector has one entry per dimension: a short or long v is not cut or padded
    ("principal-v-short",
     lambda: chow.principal_divisor(construct_standard("cube", 2), (1,)),
     InputError, "v must have one entry per dimension (2), got 1"),
    ("principal-v-long",
     lambda: chow.principal_divisor(construct_standard("cube", 2), (1, 2, 3)),
     InputError, "v must have one entry per dimension (2), got 3"),
    # a divisor is exactly one int or Fraction per facet
    ("certificate-h-short",
     lambda: chow.avoidance_certificate(construct_standard("cube", 2), chow.Divisor((1, 1, 1)), [0]),
     InputError, "h must have one coefficient per facet (4), got 3"),
    ("certificate-h-long",
     lambda: chow.avoidance_certificate(
         construct_standard("cube", 2), chow.Divisor((1,) * 6), [0, 2]),
     InputError, "h must have one coefficient per facet (4), got 6"),
    ("certificate-h-float",
     lambda: chow.avoidance_certificate(
         construct_standard("cube", 2), chow.Divisor((0.5, 1, 1, 1)), [1]),
     InputError, "coeffs must be a non-empty tuple of ints and Fractions, got (0.5, 1, 1, 1)"),
    ("certificate-h-bool",
     lambda: chow.avoidance_certificate(
         construct_standard("cube", 2), chow.Divisor((1, True, 1, 1)), [0]),
     InputError, "coeffs must be a non-empty tuple of ints and Fractions, got (1, True, 1, 1)"),
    ("intersect-divisors-none",
     lambda: chow.IntersectionQuery(construct_standard("cube", 2), None),
     InputError, "divisors must be a sequence of Divisors, got None"),
    ("intersect-divisor-long",
     lambda: chow.IntersectionQuery(
         construct_standard("cube", 2), (chow.Divisor((1,) * 4), chow.Divisor((1,) * 6))),
     InputError, "divisors[1] must have one coefficient per facet (4), got 6"),
    ("intersect-divisor-float",
     lambda: chow.IntersectionQuery(
         construct_standard("cube", 2), (chow.Divisor((1.0, 0, 0, 0)), chow.Divisor((1,) * 4))),
     InputError, "coeffs must be a non-empty tuple of ints and Fractions, got (1.0, 0, 0, 0)"),
    ("principal-d-short",
     lambda: chow.is_principal(construct_standard("cube", 2), chow.Divisor((1, -1))),
     InputError, "d must have one coefficient per facet (4), got 2"),
    ("principal-d-float",
     lambda: chow.is_principal(construct_standard("cube", 2), chow.Divisor((1, -1, 0.5, 0))),
     InputError, "coeffs must be a non-empty tuple of ints and Fractions, got (1, -1, 0.5, 0)"),
    ("equivalent-d1-long",
     lambda: chow.linearly_equivalent(
         construct_standard("cube", 2), chow.Divisor((1, -1, 0, 0, 7)), chow.Divisor((0,) * 4)),
     InputError, "d1 must have one coefficient per facet (4), got 5"),
    # divisor arithmetic pairs coefficients facet by facet and scales exactly
    ("divisor-sub-lengths",
     lambda: chow.Divisor((1, 2)) - chow.Divisor((1, 2, 3)),
     InputError, "divisors must have the same number of coefficients, got 2 and 3"),
    ("divisor-add-lengths",
     lambda: chow.Divisor((1, 2, 3)) + chow.Divisor((1,)),
     InputError, "divisors must have the same number of coefficients, got 3 and 1"),
    ("divisor-scalar-float", lambda: 0.1 * chow.Divisor((1, 2)),
     InputError, "scalar must be an int or a Fraction, got 0.1"),
    ("divisor-scalar-bool", lambda: True * chow.Divisor((1, 2)),
     InputError, "scalar must be an int or a Fraction, got True"),
    # the JSON reader refuses what Fraction itself refuses, as InputError
    ("frac-zero-denominator", lambda: jsonio.frac_from_str("1/0"),
     InputError, "Fraction(1, 0)"),
    ("frac-past-digit-limit", lambda: jsonio.frac_from_str("9" * 5000),
     InputError, digit_limit_message(5000)),
]


@pytest.mark.parametrize("call, exc, message", [r[1:] for r in REFUSALS],
                         ids=[r[0] for r in REFUSALS])
def test_refusal(call, exc, message):
    with pytest.raises(InputError, match=f"^{re.escape(message)}$") as info:
        call()
    assert type(info.value) is exc


# the seeded generators, each with its seed as the one argument left open
SEEDED = {
    "perturb": lambda seed: polytope.perturb(construct_standard("cube", 2), 1, seed=seed),
    "polytope_sample_cover":
        lambda seed: harness.polytope_sample_cover(construct_standard("cube", 2), 3, 2, seed),
    "random_low_multiplicity_cover":
        lambda seed: harness.random_low_multiplicity_cover(cube(2, 4), 2, seed),
    "random_small_set_family": lambda seed: harness.random_small_set_family(cube(2, 4), 2, seed),
    "dilated_partition_cover": lambda seed: harness.dilated_partition_cover(cube(2, 4), 2, seed),
}


@pytest.mark.parametrize("generate", SEEDED.values(), ids=SEEDED)
def test_seed_is_an_int(generate):
    """None would seed from the operating system's entropy and never replay;
    a float, bool or str is no seed either.  An int replays."""
    for seed in (None, 1.5, True, "x"):
        with pytest.raises(InputError, match=f"^seed must be an int, got {re.escape(repr(seed))}$"):
            generate(seed)
    assert repr(generate(7)) == repr(generate(7))


# The probe: every public callable of toricover, and the other entry points
# below, called with canonical arguments, then with each value argument in
# turn replaced by each of BAD_VALUES.  A row is (callable, canonical
# keyword arguments, {value argument: the word its refusal names it by}).
# An argument missing from the labels is a library object, trusted as built
# (the README's "Python API boundary"), or lattice_sample's columns, a list
# the scan writes into.
BAD_VALUES = [None, 1.5, True, "x", [None], ()]


def q2():
    return construct_standard("cube", 2)


def cube_cover():
    return covering.LatticeCover(cube(2, 2), {"A": cube(2, 2).points(), "B": [(0, 0)]})


def simplex_cover():
    return covering.LatticeCover(LatticeModel("simplex", 2, 3), {})


PROBE = {
    "construct_standard": (polytope.construct_standard, lambda: dict(kind="cube", n=2),
                           {"kind": "kind", "n": "n"}),
    "cube_facet_id": (polytope.cube_facet_id, lambda: dict(axis=1, sign="-"),
                      {"axis": "axis", "sign": "sign"}),
    "faces": (polytope.faces, lambda: dict(p=q2(), k=1), {"k": "face dimension"}),
    "from_halfspaces": (
        from_halfspaces, lambda: dict(normals=[(1, 0), (0, 1), (-1, 0), (0, -1)],
                                      offsets=[0, 0, 1, 1]),
        {"normals": "normals", "offsets": "offsets"}),
    "generic_normals_check": (polytope.generic_normals_check, lambda: dict(p=q2()), {}),
    "moment_map_eval": (polytope.moment_map_eval, lambda: dict(kind="cpn", value=[(1, 0), (0, 1)]),
                        {"kind": "kind", "value": "value"}),
    "perturb": (polytope.perturb, lambda: dict(p=q2(), budget=Fraction(1, 100), seed=0),
                {"budget": "budget", "seed": "seed"}),
    "product": (polytope.product, lambda: dict(p=q2(), q=q2()), {}),
    "Divisor": (chow.Divisor, lambda: dict(coeffs=(1, 0, 0, 0)), {"coeffs": "coeffs"}),
    "IntersectionQuery": (
        chow.IntersectionQuery,
        lambda: dict(polytope=q2(), divisors=(chow.Divisor.on_facet(q2(), 0),) * 2),
        {"divisors": "divisors"}),
    "ample_from_offsets": (chow.ample_from_offsets, lambda: dict(p=q2()), {}),
    "avoidance_certificate": (
        chow.avoidance_certificate,
        lambda: dict(p=q2(), h=chow.ample_from_offsets(q2()), touched=[0]),
        {"touched": "touched"}),
    "intersection_number": (
        chow.intersection_number,
        lambda: dict(query=chow.IntersectionQuery(q2(), (chow.Divisor.on_facet(q2(), 0),) * 2)),
        {}),
    "is_principal": (chow.is_principal, lambda: dict(p=q2(), d=chow.Divisor.zero(q2())), {}),
    "linearly_equivalent": (
        chow.linearly_equivalent,
        lambda: dict(p=q2(), d1=chow.Divisor.zero(q2()), d2=chow.Divisor.zero(q2())), {}),
    "polytope_of_divisor": (
        chow.polytope_of_divisor, lambda: dict(p=q2(), d=chow.ample_from_offsets(q2())), {}),
    "presentation": (chow.presentation, lambda: dict(p=q2()), {}),
    "principal_divisor": (chow.principal_divisor, lambda: dict(p=q2(), v=(1, 0)), {"v": "v"}),
    "self_intersection_top": (
        chow.self_intersection_top, lambda: dict(p=q2(), d=chow.ample_from_offsets(q2())), {}),
    "volume": (chow.volume, lambda: dict(obj=q2()), {}),
    "LatticeCover": (covering.LatticeCover, lambda: dict(model=cube(2, 2), sets={"A": [(0, 0)]}),
                     {"sets": "sets"}),
    "LatticeModel": (LatticeModel, lambda: dict(kind="cube", n=2, r=2),
                     {"kind": "kind", "n": "n", "r": "r"}),
    # a point cloud cover's sample and sets are read when it is indexed
    "PointCloudCover": (
        lambda sample, sets: covering.PointCloudCover(sample, sets).indexed(),
        lambda: dict(sample=((Fraction(0),), (Fraction(1),)), sets={"A": [(0,), (1,)]}),
        {"sample": "sample", "sets": "sets"}),
    "axes_witness": (covering.axes_witness, lambda: dict(cover=cube_cover()), {}),
    "complement_components": (covering.complement_components, lambda: dict(cover=cube_cover()),
                              {}),
    "complement_witness": (covering.complement_witness, lambda: dict(cover=cube_cover(), k=1),
                           {"k": "face dimension"}),
    "kkm_lebesgue_witness": (
        covering.kkm_lebesgue_witness, lambda: dict(p=q2(), cover=square_cover(), eps=0),
        {"eps": "eps"}),
    "kkm_witness": (covering.kkm_witness, lambda: dict(cover=simplex_cover(), k=1),
                    {"k": "face dimension"}),
    "lebesgue_witness": (covering.lebesgue_witness, lambda: dict(cover=cube_cover()), {}),
    "multiplicity": (covering.multiplicity, lambda: dict(cover=cube_cover()), {}),
    "palais_coloring": (covering.palais_coloring, lambda: dict(cover=cube_cover()), {}),
    "set_components": (covering.set_components, lambda: dict(cover=cube_cover(), set_id="A"),
                       {"set_id": "set"}),
    "spans_pair": (covering.spans_pair, lambda: dict(cover=cube_cover(), set_id="A", axis=1),
                   {"set_id": "set", "axis": "axis"}),
    "touches_facet": (
        covering.touches_facet, lambda: dict(cover=cube_cover(), set_id="A", facet=(0, 0)),
        {"set_id": "set", "facet": "facet"}),
    "SuiteConfig": (
        SuiteConfig,
        lambda: dict(verifier="lebesgue", kind="cube", n=2, r=4, instances=1, seed=0,
                     multiplicity=0, k=0),
        {name: name for name in
         ("verifier", "kind", "n", "r", "instances", "seed", "multiplicity", "k")}),
    "kkm_standard_cover": (harness.kkm_standard_cover, lambda: dict(n=2, r=3),
                           {"n": "n", "r": "r"}),
    "random_low_multiplicity_cover": (
        harness.random_low_multiplicity_cover, lambda: dict(model=cube(2, 4), m=2, seed=0),
        {"m": "target multiplicity", "seed": "seed"}),
    "run_property_suite": (
        harness.run_property_suite,
        lambda: dict(config=SuiteConfig("lebesgue", "cube", 2, 4, 1, 0)), {}),
    "shifted_brick_cover": (harness.shifted_brick_cover, lambda: dict(n=2, r=4),
                            {"n": "n", "r": "r"}),
    # entry points beyond toricover's own names
    "harness.lattice_sample": (harness.lattice_sample, lambda: dict(p=q2(), resolution=2),
                               {"resolution": "resolution"}),
    "harness.polytope_sample_cover": (
        harness.polytope_sample_cover, lambda: dict(p=q2(), resolution=2, m=2, seed=0),
        {"resolution": "resolution", "m": "m", "seed": "seed"}),
    "harness.random_small_set_family": (
        harness.random_small_set_family, lambda: dict(model=cube(2, 4), k=2, seed=0),
        {"k": "k", "seed": "seed"}),
    "harness.dilated_partition_cover": (
        harness.dilated_partition_cover, lambda: dict(model=cube(2, 4), parts=2, seed=0),
        {"parts": "parts", "seed": "seed"}),
    "covering.facet_touch_set": (
        covering.facet_touch_set, lambda: dict(p=q2(), points=[(0, 0)], eps=0),
        {"points": "points", "eps": "eps"}),
    "LatticeModel.k_faces": (lambda k: cube(2, 2).k_faces(k), lambda: dict(k=1),
                             {"k": "face dimension"}),
    "LatticeModel.face_contains": (lambda face, p: cube(2, 2).face_contains(face, p),
                                   lambda: dict(face=((0, 0),), p=(0, 1)),
                                   {"face": "face", "p": "point"}),
    "LatticeModel.on_face": (lambda face: cube(2, 2).on_face(face), lambda: dict(face=((0, 0),)),
                             {"face": "face"}),
    "Divisor.from_map": (chow.Divisor.from_map, lambda: dict(p=q2(), mapping={0: 1}),
                         {"mapping": "mapping"}),
    "Divisor.on_facet": (chow.Divisor.on_facet, lambda: dict(p=q2(), facet_id=0, value=1),
                         {"facet_id": "facet id", "value": "coefficient"}),
    "SimplePolytope.slack": (lambda facet_id, point: q2().slack(facet_id, point),
                             lambda: dict(facet_id=0, point=(0, 0)),
                             {"facet_id": "facet id", "point": "point"}),
    "SimplePolytope.contains": (lambda point: q2().contains(point), lambda: dict(point=(0, 0)),
                                {"point": "point"}),
    "SimplePolytope.translate": (lambda shift: q2().translate(shift), lambda: dict(shift=(0, 0)),
                                 {"shift": "shift"}),
}

# toricover's classes whose instances the library builds and hands back; their
# constructors store what they are given and are not entry points for values
RECORDS = {"FaceDescriptor", "SimplePolytope", "RingPresentation", "Region", "WitnessReport",
           "StampedCover"}

# the substitutions that are accepted, each for its documented meaning: no
# touched facet, the default eps, no points, and the face cut out by no
# facet, the whole model
ACCEPTED = {("avoidance_certificate", "touched", "()"), ("kkm_lebesgue_witness", "eps", "None"),
            ("covering.facet_touch_set", "points", "()"),
            ("LatticeModel.face_contains", "face", "()"), ("LatticeModel.on_face", "face", "()")}

SUBSTITUTIONS = [(row, arg, bad) for row, (_, _, labels) in PROBE.items()
                 for arg in labels for bad in BAD_VALUES]


def test_probe_names_every_public_callable():
    import toricover

    public = {name for name, obj in vars(toricover).items() if not name.startswith("_")
              and callable(obj) and not (isinstance(obj, type) and issubclass(obj, Exception))}
    assert public == {row for row in PROBE if "." not in row} | RECORDS


@pytest.mark.parametrize("row", PROBE)
def test_probe_canonical_call(row):
    call, canonical, _ = PROBE[row]
    call(**canonical())


@pytest.mark.parametrize("row, arg, bad", SUBSTITUTIONS,
                         ids=[f"{row}-{arg}-{bad!r}" for row, arg, bad in SUBSTITUTIONS])
def test_probe(row, arg, bad):
    """A bad value raises InputError naming its argument, or is a documented
    acceptance; any other exception, or an accepted bad value, fails."""
    call, canonical, labels = PROBE[row]
    args = canonical()
    args[arg] = bad
    if (row, arg, repr(bad)) in ACCEPTED:
        call(**args)
        return
    with pytest.raises(InputError) as info:
        call(**args)
    assert re.search(rf"(^|\W){re.escape(labels[arg])}(\W|$)", str(info.value)), str(info.value)


def test_exact_reads_p_over_q_strings():
    assert polytope.exact("1/4", "eps") == Fraction(1, 4)
    assert polytope.exact("-1/4", "eps") == Fraction(-1, 4)
    assert polytope.exact("7", "eps") == 7
    assert polytope.exact(Fraction(2, 3), "eps") == Fraction(2, 3)


def test_perturb_out_of_retries(monkeypatch):
    q2 = construct_standard("cube", 2)

    def never(rows, subset):
        return None

    monkeypatch.setattr(polytope, "_basic_point", never)
    with pytest.raises(BudgetExhaustedError, match="^no valid perturbation within 32 retries$"):
        polytope.perturb(q2, Fraction(1, 100))


def kkm_lebesgue_schema():
    return json.loads((SCHEMAS / "verify-kkm-lebesgue.json").read_text())


def wrong_dim(data):
    data["polytope"]["dim"] = 3
    return "polytope.dim is 3, the normals have dimension 2"


def index_past_sample(data):
    name = next(iter(data["sets"]))
    data["sets"][name][0] = len(data["sample"])
    return f"sets.{name}[0]: sample index {len(data['sample'])} out of range"


@pytest.mark.parametrize("damage", [wrong_dim, index_past_sample])
def test_cli_refusal(damage):
    data = kkm_lebesgue_schema()
    message = damage(data)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(["verify", "--theorem", "kkm-lebesgue", "--input", json.dumps(data)])
    assert (code, out.getvalue(), err.getvalue()) == (4, "", f"input error: {message}\n")


class TestValidateColoring:
    """harness._validate_coloring accepts the Palais coloring and rejects each
    way of breaking it."""

    @pytest.fixture
    def cover(self):
        return harness.random_low_multiplicity_cover(cube(2, 6), 2, 3).cover

    def test_accepts_palais(self, cover):
        classes = covering.palais_coloring(cover)
        assert len(classes) == 2
        assert harness._validate_coloring(cover, classes)

    def test_wrong_class_count(self, cover):
        classes = covering.palais_coloring(cover)
        assert not harness._validate_coloring(cover, classes[:1])

    def test_piece_in_the_wrong_class(self, cover):
        first, second = covering.palais_coloring(cover)
        assert not harness._validate_coloring(cover, [first + second[:1], second[1:]])

    def test_piece_outside_its_set(self, cover):
        first, second = covering.palais_coloring(cover)
        grid = cover.model.grid()
        piece = RefinementPiece(first[0].cover_sets, PointSet(grid, grid.full))
        assert not harness._validate_coloring(cover, [[piece] + first[1:], second])

    def test_overlapping_pieces(self, cover):
        first, second = covering.palais_coloring(cover)
        assert not harness._validate_coloring(cover, [first + first[:1], second])
