import argparse
import json
import pathlib
from collections.abc import Set as AbstractSet
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from toricover import (
    Divisor,
    InputError,
    LatticeCover,
    LatticeModel,
    cli,
    construct_standard,
    jsonio,
    lebesgue_witness,
    perturb,
)
from toricover import covering, harness
from toricover.covering import PointCloudCover, PointSet

INPUTS = pathlib.Path(__file__).resolve().parent / "golden" / "inputs"
SCHEMAS = pathlib.Path(__file__).resolve().parent.parent / "schemas"


class TestRoundTrips:
    @pytest.mark.parametrize("kind,n", [("cube", 2), ("simplex", 3)])
    def test_polytope(self, kind, n):
        p = construct_standard(kind, n)
        again = jsonio.polytope_from_json(jsonio.polytope_to_json(p))
        assert again.normals == p.normals
        assert again.offsets == p.offsets
        assert again.incidence_pattern() == p.incidence_pattern()

    def test_perturbed_polytope_keeps_rationals(self, q3):
        p = perturb(q3, Fraction(1, 100), seed=13)
        data = json.loads(json.dumps(jsonio.polytope_to_json(p)))
        assert jsonio.polytope_from_json(data).offsets == p.offsets

    def test_divisor(self, q2):
        d = Divisor.from_map(q2, {0: Fraction(1, 3), 3: Fraction(-2)})
        again = jsonio.divisor_from_json(q2, jsonio.divisor_to_json(d))
        assert again == d

    def test_divisor_rejects_unknown_facet(self, q2):
        with pytest.raises(ValueError):
            jsonio.divisor_from_json(q2, {"coeffs": {"9": "1"}})

    def test_cover(self):
        cover = harness.shifted_brick_cover(2, 8)
        again = jsonio.cover_from_json(json.loads(json.dumps(jsonio.cover_to_json(cover))))
        assert again.model == cover.model
        assert again.sets == cover.sets
        assert lebesgue_witness(again).verdict == lebesgue_witness(cover).verdict

    def test_cover_reader_ignores_stamp(self):
        model = LatticeModel("cube", 1, 2)
        stamped = harness.random_low_multiplicity_cover(model, 1, 0)
        data = jsonio.cover_to_json(stamped.cover, multiplicity=stamped.multiplicity)
        assert jsonio.cover_from_json(data).sets == stamped.cover.sets

    @pytest.mark.parametrize("model", [LatticeModel("cube", 2, 4), LatticeModel("simplex", 2, 3)],
                             ids=repr)
    def test_cover_points_outside_the_model(self, model):
        """A JSON set with points outside the model is refused with the
        message LatticeCover gives for the same tuples, bad points in
        frozenset order."""
        ncoords = len(model.points()[0])
        strays = [(-1,) * ncoords, (model.r + 1,) * ncoords, (0,) * (ncoords + 1), (-2,) * ncoords]
        pts = [list(model.points()[0])] + list(map(list, strays))
        with pytest.raises(InputError) as want:
            LatticeCover(model, {"X": list(map(tuple, pts))})
        data = {"model": {"kind": model.kind, "n": model.n, "r": model.r},
                "sets": {"A": [list(model.points()[1])], "X": pts}}
        with pytest.raises(InputError) as got:
            jsonio.cover_from_json(data)
        assert str(got.value) == str(want.value)
        assert str(got.value).startswith("set 'X' has points outside the model: [")

    def test_point_cover(self, q2):
        p = perturb(q2, Fraction(1, 64), seed=2)
        cover, eps = harness.polytope_sample_cover(p, 4, 2, seed=2)
        data = json.loads(json.dumps(jsonio.point_cover_to_json(p, cover, eps)))
        p2, cover2, eps2 = jsonio.point_cover_from_json(data)
        assert p2.normals == p.normals
        assert set(cover2.sample) == set(cover.sample)
        assert cover2.sets == cover.sets
        assert eps2 == eps


def per_coordinate_point_cover(data):
    """point_cover_from_json as it read each coordinate and index by
    itself, building every path on the way: the reference for the reader
    that reads each distinct string once."""
    p = jsonio.polytope_from_json(jsonio._field(data, "polytope"), "polytope")
    sample = []
    for i, pt in enumerate(jsonio._field(data, "sample", kind=list)):
        at = f"sample[{i}]"
        point = tuple(jsonio._frac(x, f"{at}[{j}]")
                      for j, x in enumerate(jsonio._check(pt, list, at)))
        if len(point) != p.dim:
            raise InputError(f"{at} has {len(point)} coordinates, the polytope has {p.dim}")
        sample.append(point)
    sample = covering.Sample(tuple(sample))
    sample.check_inside(p)
    sets = {}
    for name, idxs in jsonio._field(data, "sets", kind=dict).items():
        at = f"sets.{name}"
        idxs = [jsonio._check(x, int, f"{at}[{j}]")
                for j, x in enumerate(jsonio._check(idxs, list, at))]
        for j, i in enumerate(idxs):
            if not 0 <= i < len(sample.points):
                raise InputError(f"{at}[{j}]: sample index {i} out of range")
        sets[name] = {sample.points[i] for i in idxs}
    eps = jsonio._frac(data["eps"], "eps") if "eps" in data else None
    return p.normals, sample.points, sets, eps


def read_point_cover(read, data):
    """What a reader gives for data: its polytope's normals, the sample,
    each set's points and eps, or the message of its InputError."""
    try:
        return read(data)
    except InputError as exc:
        return str(exc)


def memoized_point_cover(data):
    p, cover, eps = jsonio.point_cover_from_json(data)
    return p.normals, cover.sample, {name: set(pts) for name, pts in cover.sets.items()}, eps


# the box [0, 4]^2, in which every drawn coordinate lies
BOX = {"dim": 2, "facets": [{"normal": u, "offset": c} for u, c in
                            [([1, 0], 0), ([0, 1], 0), ([-1, 0], 4), ([0, -1], 4)]]}

# ways to write the rational a / b in JSON: "a/b", doubled, zero-padded,
# "-0" for 0, and a JSON integer when b is 1
SPELLINGS = [
    lambda a, b: f"{a}/{b}" if b > 1 else str(a),
    lambda a, b: f"{2 * a}/{2 * b}",
    lambda a, b: f"00{a}/{b}",
    lambda a, b: a if b == 1 else f"{a}/{b}",
    lambda a, b: "-0" if a == 0 else f"{a}/{b}",
]

# values refused where a rational belongs; 1.0, True, 0.0 and False equal
# the ints 1 and 0 that each drawn sample starts with
REFUSED = [1.0, True, 0.0, False, "1.5", "1/0", None, "1e3", [1], "+1"]


class TestSampleReader:
    """point_cover_from_json reads each distinct coordinate string once and
    gives what reading every coordinate by itself gives: the same sample,
    sets and eps, or the same refusal, naming the same entry first."""

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_same_as_per_coordinate_reader(self, data):
        rationals = st.tuples(st.integers(0, 8), st.sampled_from([1, 2]))
        rows = data.draw(st.lists(st.lists(st.tuples(rationals, st.sampled_from(SPELLINGS)),
                                           min_size=2, max_size=2), min_size=1, max_size=12))
        sample = [[1, 0]] + [[spell(a, b) for (a, b), spell in row] for row in rows]
        sets = data.draw(st.dictionaries(st.sampled_from("ABC"),
                                         st.lists(st.integers(0, len(sample) - 1))))
        payload = {"polytope": BOX, "sample": sample, "sets": sets}
        if data.draw(st.booleans()):
            payload["eps"] = data.draw(st.sampled_from(["1/2", 1, "2/4"]))
        fault = data.draw(st.sampled_from(["none", "value", "row", "index"]))
        if fault == "value":
            i = data.draw(st.integers(1, len(sample) - 1))
            sample[i][data.draw(st.integers(0, 1))] = data.draw(st.sampled_from(REFUSED))
        elif fault == "row":
            i = data.draw(st.integers(0, len(sample) - 1))
            sample[i] = data.draw(st.sampled_from([sample[i][:1], sample[i] * 2, "1/2", None]))
        elif fault == "index" and sets:
            name = data.draw(st.sampled_from(sorted(sets)))
            sets[name] = sets[name] + [data.draw(st.sampled_from([len(sample), -1, True, 0.0]))]
        want = read_point_cover(per_coordinate_point_cover, payload)
        assert read_point_cover(memoized_point_cover, payload) == want

    @pytest.mark.parametrize("value, shown", [
        (1.0, "1.0"), (True, "True"), ("1.5", "'1.5'"), ("1/0", None),
    ])
    def test_refused_value_after_an_equal_accepted_one(self, value, shown):
        """A memo keyed by value would take 1.0 and True for the 1 read
        before them; the reader looks up strings only."""
        payload = {"polytope": BOX, "sample": [["1", 1], ["3/2", "1"], [1, value]],
                   "sets": {"A": [0, 1, 2]}}
        message = (f'sample[2][1]: rationals must be integers or "p/q" strings, got {shown}'
                   if shown else "sample[2][1]: Fraction(1, 0)")
        with pytest.raises(InputError) as info:
            jsonio.point_cover_from_json(payload)
        assert str(info.value) == message
        assert read_point_cover(per_coordinate_point_cover, payload) == message

    def test_repeated_strings_give_equal_rationals(self):
        payload = {"polytope": BOX, "sample": [["2/4", "-0"], ["1/2", "007/2"], [0, "2/4"]],
                   "sets": {"A": [0, 1], "B": [2]}}
        _, sample, _, _ = memoized_point_cover(payload)
        assert sample == ((Fraction(1, 2), 0), (Fraction(1, 2), Fraction(7, 2)),
                          (0, Fraction(1, 2)))


class TestRationals:
    def test_strings_and_integers(self):
        assert jsonio.frac_from_str("3/4") == Fraction(3, 4)
        assert jsonio.frac_from_str("-5") == Fraction(-5)
        assert jsonio.frac_from_str(7) == Fraction(7)
        assert jsonio.frac_to_str(Fraction(6, 4)) == "3/2"

    def test_floats_rejected(self):
        with pytest.raises(ValueError):
            jsonio.frac_from_str(0.5)

    @pytest.mark.parametrize("value", [None, [1], Fraction(1, 2)])
    def test_other_types_rejected(self, value):
        with pytest.raises(InputError, match="rationals must be integers"):
            jsonio.frac_from_str(value)

    def test_report_payload_jsonable(self):
        cover = harness.shifted_brick_cover(1, 4)
        report = lebesgue_witness(cover)
        encoded = jsonio.report_to_json(report)
        json.dumps(encoded)
        assert encoded["verdict"] == report.verdict


def to_jsonable(obj):
    """Recursively convert payload values into JSON-ready structures: the
    generic walk report_to_json replaced, kept as its reference."""
    if isinstance(obj, Fraction):
        return jsonio.frac_to_str(obj)
    if isinstance(obj, Divisor):
        return jsonio.divisor_to_json(obj)
    if isinstance(obj, dict):
        return {str(k): to_jsonable(v) for k, v in obj.items()}
    if isinstance(obj, AbstractSet):
        return sorted(to_jsonable(v) for v in obj)
    if isinstance(obj, (list, tuple)):
        return [to_jsonable(v) for v in obj]
    return obj


def lattice(path):
    return jsonio.cover_from_json(json.loads(path.read_text()))


def singletons(kind, n, r):
    """The cover of a model by its one-point sets."""
    model = LatticeModel(kind, n, r)
    return LatticeCover(model, {f"p{i}": [p] for i, p in enumerate(model.points())})


def whole(kind, n, r):
    """The cover of a model by one set."""
    model = LatticeModel(kind, n, r)
    return LatticeCover(model, {"all": model.points()})


def square_report(sets):
    """kkm_lebesgue_witness with eps 0 on the unperturbed unit square sampled
    at spacing 1/2, the sets given as lists of sample indices."""
    sample = [(Fraction(i, 2), Fraction(j, 2)) for i in range(3) for j in range(3)]
    cover = PointCloudCover(tuple(sample), {k: [sample[i] for i in v] for k, v in sets.items()})
    return covering.kkm_lebesgue_witness(construct_standard("cube", 2), cover, 0)


# the middle row of the square's sample, which touches the two opposite
# facets x = 0 and x = 1 only, so that its certificate is null; and the other
# sample points, one set each
ROW_AND_POINTS = {"row": [1, 4, 7], **{f"p{i}": [i] for i in (0, 2, 3, 5, 6, 8)}}


def schema_point_cover():
    p, cover, eps = jsonio.point_cover_from_json(
        json.loads((SCHEMAS / "verify-kkm-lebesgue.json").read_text())
    )
    return covering.kkm_lebesgue_witness(p, cover, eps)


# (id, report, verdict, reason or None): every verifier, every verdict and
# every hypothesis reason
REPORTS = [
    ("lebesgue-witness", lambda: covering.lebesgue_witness(lattice(SCHEMAS / "verify.json")),
     "witness_found", None),
    ("lebesgue-multiplicity", lambda: covering.lebesgue_witness(lattice(INPUTS / "bricks.json")),
     "hypothesis_violated", "multiplicity_exceeds_dimension"),
    ("lebesgue-not-a-cover",
     lambda: covering.lebesgue_witness(lattice(INPUTS / "not-a-cover.json")),
     "hypothesis_violated", "union_does_not_cover"),
    ("lebesgue-candidate", lambda: covering.lebesgue_witness(singletons("cube", 2, 1)),
     "counterexample_candidate", None),
    ("kkm-witness", lambda: covering.kkm_witness(lattice(INPUTS / "kkm-family.json"), 1),
     "witness_found", None),
    ("kkm-every-facet", lambda: covering.kkm_witness(whole("simplex", 2, 1), 1),
     "hypothesis_violated", "set_touches_every_facet"),
    ("kkm-multiplicity", lambda: covering.kkm_witness(lattice(INPUTS / "kkm-stars.json"), 1),
     "hypothesis_violated", "multiplicity_exceeds_k"),
    ("kkm-candidate", lambda: covering.kkm_witness(lattice(INPUTS / "kkm-midpoints.json"), 1),
     "counterexample_candidate", None),
    ("complement-witness",
     lambda: covering.complement_witness(lattice(INPUTS / "complement-family.json"), 1),
     "witness_found", None),
    ("complement-spans", lambda: covering.complement_witness(lattice(SCHEMAS / "verify.json"), 1),
     "hypothesis_violated", "set_spans_pair"),
    ("complement-multiplicity",
     lambda: covering.complement_witness(
         LatticeCover(LatticeModel("cube", 2, 2), {"a": [(0, 0)], "b": [(0, 0)]}), 1),
     "hypothesis_violated", "multiplicity_exceeds_k"),
    ("complement-candidate",
     lambda: covering.complement_witness(lattice(INPUTS / "complement-candidate.json"), 1),
     "counterexample_candidate", None),
    ("axes-witness", lambda: covering.axes_witness(lattice(INPUTS / "axes-partition.json")),
     "witness_found", None),
    ("axes-not-a-cover", lambda: covering.axes_witness(lattice(INPUTS / "not-a-cover.json")),
     "hypothesis_violated", "union_does_not_cover"),
    ("axes-candidate", lambda: covering.axes_witness(lattice(INPUTS / "axes-checkerboard.json")),
     "counterexample_candidate", None),
    ("kkm-lebesgue-witness", schema_point_cover, "witness_found", None),
    # the row has no certificate, so it is the witness; the nine single
    # points each have one, so no set is
    ("kkm-lebesgue-row", lambda: square_report(ROW_AND_POINTS), "witness_found", None),
    ("kkm-lebesgue-candidate", lambda: square_report({f"p{i}": [i] for i in range(9)}),
     "counterexample_candidate", None),
    ("kkm-lebesgue-multiplicity", lambda: square_report({k: range(9) for k in "abc"}),
     "hypothesis_violated", "multiplicity_exceeds_dimension"),
]


class TestReportToJson:
    """report_to_json converts only what JSON cannot hold, and gives what the
    generic walk gives."""

    @pytest.mark.parametrize("make, verdict, reason", [r[1:] for r in REPORTS],
                             ids=[r[0] for r in REPORTS])
    def test_equals_generic_walk(self, make, verdict, reason):
        report = make()
        assert (report.verdict, report.payload.get("reason")) == (verdict, reason)
        encoded = jsonio.report_to_json(report)
        assert encoded == {"verdict": verdict, "payload": to_jsonable(report.payload)}
        assert json.loads(json.dumps(encoded)) == encoded

    def test_null_certificate(self):
        report = square_report(ROW_AND_POINTS)
        certificates = jsonio.report_to_json(report)["payload"]["certificates"]
        assert certificates["row"] is None
        assert certificates["p0"]["divisor"] == jsonio.divisor_to_json(
            report.payload["certificates"]["p0"]["divisor"]
        )

    def test_report_left_unchanged(self):
        report = schema_point_cover()
        eps = report.payload["eps"]
        jsonio.report_to_json(report)
        assert report.payload["eps"] is eps
        assert all(
            cert is None or isinstance(cert["divisor"], Divisor)
            for cert in report.payload["certificates"].values()
        )


INTS = st.one_of(st.integers(), st.integers(-(2**200), 2**200))
KEYS = st.one_of(
    st.text(), st.sampled_from(['"', "\n", "\\", "é", "\u2028", "\ud800", "a\nb\"c"]),
    st.integers(-5, 5), st.booleans(), st.none(), st.floats(),
)
SCALARS = st.one_of(st.none(), st.booleans(), INTS, st.floats(), st.text())
# [[]], ragged rows, and bools among ints (json writes them true/false)
ROWS = st.lists(st.lists(INTS, max_size=4), max_size=5)
BOOL_ROWS = st.lists(st.lists(st.one_of(INTS, st.booleans()), max_size=3), max_size=3)
VALUES = st.recursive(
    st.one_of(SCALARS, ROWS, BOOL_ROWS, st.lists(st.one_of(INTS, st.booleans()))),
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.lists(inner, max_size=4).map(tuple),
        st.dictionaries(KEYS, inner, max_size=4),
        st.lists(st.lists(INTS, min_size=1, max_size=3).map(tuple), min_size=1, max_size=3),
    ),
    max_leaves=30,
)


class Text(str):
    pass


# quotes, backslashes, control characters, non-ASCII and lone surrogates
STRINGS = st.text(
    st.one_of(
        st.sampled_from('"\\\n\t\x00\x1f\x7f/\u2028\ud800\udfff'),
        st.characters(blacklist_categories=()),
    ),
    max_size=8,
)


class TestDumps:
    """jsonio.dumps is json.dumps(..., indent=2), byte for byte."""

    @settings(max_examples=400, deadline=None)
    @given(VALUES)
    def test_equals_json_dumps(self, value):
        assert jsonio.dumps(value) == json.dumps(value, indent=2)

    @pytest.mark.parametrize(
        "value",
        [[[]], [[1], []], [[1, 2], [3]], [1, True, 2], [True], [[1, True]], [[False]], {"a": {}}, {1: [2]},
         [float("nan"), float("inf"), -0.0], {"k": [[-1, 2**100]]}, ((1, 2), [3])],
    )
    def test_edge_cases(self, value):
        assert jsonio.dumps(value) == json.dumps(value, indent=2)

    @settings(max_examples=60, deadline=None)
    @given(
        st.sampled_from(["cube", "simplex"]), st.integers(1, 3), st.integers(1, 4),
        st.integers(min_value=0), st.booleans(),
    )
    def test_point_sets(self, kind, n, r, bits, empty):
        grid = LatticeModel(kind, n, r).grid()
        points = PointSet(grid, 0 if empty else bits & grid.full)
        plain = list(map(list, points))
        assert jsonio.dumps(points) == json.dumps(plain, indent=2)
        assert jsonio.dumps({"sets": ["a"], "points": points}) == json.dumps(
            {"sets": ["a"], "points": plain}, indent=2
        )
        assert jsonio.dumps([points, points]) == json.dumps([plain, plain], indent=2)

    def test_cover_to_json_stays_plain(self):
        data = jsonio.cover_to_json(harness.shifted_brick_cover(2, 8), multiplicity=3)
        assert jsonio.dumps(data) == json.dumps(data, indent=2)

    @settings(max_examples=200, deadline=None)
    @given(st.lists(STRINGS, max_size=6), st.booleans())
    def test_lists_of_strings(self, strings, subclass):
        assert jsonio.dumps(strings) == json.dumps(strings, indent=2)
        assert jsonio.dumps(tuple(strings)) == json.dumps(strings, indent=2)
        if subclass:
            # a str subclass is no str for the joined path, and json writes it as one
            mixed = [Text(x) for x in strings] + strings
            assert jsonio.dumps(mixed) == json.dumps(mixed, indent=2)

    @pytest.mark.parametrize("make", [
        lambda: harness.shifted_brick_cover(3, 12),
        lambda: harness.random_low_multiplicity_cover(LatticeModel("simplex", 3, 6), 2, 5).cover,
    ], ids=["bricks", "random-simplex"])
    def test_color_payloads(self, make):
        cover = make()
        source = jsonio.dumps(jsonio.cover_to_json(cover))
        data, _, _ = cli._cmd_color(argparse.Namespace(input=source))
        plain = {
            "classes": [
                [{"sets": piece["sets"], "points": list(map(list, piece["points"]))}
                 for piece in cls]
                for cls in data["classes"]
            ]
        }
        assert any(type(piece["points"]) is PointSet for cls in data["classes"] for piece in cls)
        assert jsonio.dumps(data) == json.dumps(plain, indent=2)

    def test_point_set_five_levels_deep(self):
        points = PointSet(LatticeModel("cube", 2, 3).grid(), 0b1011000110)
        plain = list(map(list, points))
        nest = lambda x: [{"a": [[{"b": x}]]}]
        assert jsonio.dumps(nest(points)) == json.dumps(nest(plain), indent=2)
