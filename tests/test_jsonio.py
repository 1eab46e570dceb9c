import json
from fractions import Fraction

import pytest

from toricover import (
    Divisor,
    InputError,
    LatticeCover,
    LatticeModel,
    construct_standard,
    jsonio,
    lebesgue_witness,
    perturb,
)
from toricover import harness


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

    def test_point_cover(self, q2):
        p = perturb(q2, Fraction(1, 64), seed=2)
        cover, eps = harness.polytope_sample_cover(p, 4, 2, seed=2)
        data = json.loads(json.dumps(jsonio.point_cover_to_json(p, cover, eps)))
        p2, cover2, eps2 = jsonio.point_cover_from_json(data)
        assert p2.normals == p.normals
        assert set(cover2.sample) == set(cover.sample)
        assert cover2.sets == cover.sets
        assert eps2 == eps


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
