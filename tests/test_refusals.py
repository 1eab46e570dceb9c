"""Refusals: each check that turns a bad argument into a named InputError
(or one of its subclasses), with the class and message it raises."""

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
    ("model-n0", lambda: cube(0, 2), InputError, "need n >= 1 and r >= 1"),
    # n and r are counts: a float, bool or str is refused, not read as one
    ("model-n-float", lambda: cube(2.0, 3), InputError, "n must be an int, got 2.0"),
    ("model-n-bool", lambda: cube(True, 3), InputError, "n must be an int, got True"),
    ("model-r-str", lambda: cube(2, "3"), InputError, "r must be an int, got '3'"),
    ("model-r-float-n0", lambda: cube(0, 2.5), InputError, "r must be an int, got 2.5"),
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
     InputError, "instances must be positive"),
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
    ("avoidance-touched-none",
     lambda: chow.avoidance_certificate(
         construct_standard("cube", 2), chow.Divisor.zero(construct_standard("cube", 2)), None),
     InputError, "touched must be a collection of facet ids, got None"),
    ("sample-none", lambda: covering.Sample(None),
     InputError, "sample must be a sequence of points, got None"),
    ("lattice-cover-set-none", lambda: covering.LatticeCover(cube(2, 1), {"X": None}),
     InputError, "set 'X' must be a collection of model points, got None"),
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
    ("standard-n0", lambda: construct_standard("cube", 0), InputError, "n must be >= 1"),
    ("standard-n-float", lambda: construct_standard("cube", 2.0),
     InputError, "n must be an int, got 2.0"),
    ("standard-n-bool", lambda: construct_standard("simplex", True),
     InputError, "n must be an int, got True"),
    ("standard-kind", lambda: construct_standard("prism", 2),
     InputError, "unknown standard polytope kind: 'prism'"),
    ("cube-facet-sign", lambda: polytope.cube_facet_id(0, "0"),
     InputError, "sign must be '-' or '+'"),
    ("faces-k-high", lambda: polytope.faces(construct_standard("cube", 2), 3),
     InputError, "face dimension 3 out of range 0..2"),
    ("faces-k-negative", lambda: polytope.faces(construct_standard("cube", 2), -1),
     InputError, "face dimension -1 out of range 0..2"),
    ("perturb-budget-0", lambda: polytope.perturb(construct_standard("cube", 2), 0),
     InputError, "budget must be positive"),
    # a float is read as its binary value and a bool as 0 or 1, so neither is an eps or budget
    ("perturb-budget-float", lambda: polytope.perturb(construct_standard("cube", 2), 0.01),
     InputError, "budget must be an int or a Fraction, got 0.01"),
    ("perturb-budget-bool", lambda: polytope.perturb(construct_standard("cube", 2), True),
     InputError, "budget must be an int or a Fraction, got True"),
    ("kkm-lebesgue-eps-float",
     lambda: covering.kkm_lebesgue_witness(construct_standard("cube", 2), square_cover(), 0.1),
     InputError, "eps must be an int or a Fraction, got 0.1"),
    ("kkm-lebesgue-eps-bool",
     lambda: covering.kkm_lebesgue_witness(construct_standard("cube", 2), square_cover(), True),
     InputError, "eps must be an int or a Fraction, got True"),
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
     InputError, "h coefficients must be ints or Fractions, got 0.5"),
    ("certificate-h-bool",
     lambda: chow.avoidance_certificate(
         construct_standard("cube", 2), chow.Divisor((1, True, 1, 1)), [0]),
     InputError, "h coefficients must be ints or Fractions, got True"),
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
     InputError, "divisors[0] coefficients must be ints or Fractions, got 1.0"),
    ("principal-d-short",
     lambda: chow.is_principal(construct_standard("cube", 2), chow.Divisor((1, -1))),
     InputError, "d must have one coefficient per facet (4), got 2"),
    ("principal-d-float",
     lambda: chow.is_principal(construct_standard("cube", 2), chow.Divisor((1, -1, 0.5, 0))),
     InputError, "d coefficients must be ints or Fractions, got 0.5"),
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
