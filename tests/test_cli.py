import contextlib
import io
import json
import pathlib
import re
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from toricover import acceptance, chow, cli, construct_standard, harness, jsonio, perturb

SCHEMAS = pathlib.Path(__file__).resolve().parent.parent / "schemas"


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    out = json.loads(captured.out) if captured.out.strip() else None
    return code, out, captured.err


CUBE2 = json.dumps(
    {
        "dim": 2,
        "facets": [
            {"normal": [1, 0], "offset": "0"},
            {"normal": [-1, 0], "offset": "1"},
            {"normal": [0, 1], "offset": "0"},
            {"normal": [0, -1], "offset": "1"},
        ],
    }
)

SLAB_COVER = json.dumps(
    {
        "model": {"kind": "cube", "n": 2, "r": 2},
        "sets": {
            "X1": [[0, 0], [0, 1], [0, 2], [1, 0], [1, 1], [1, 2]],
            "X2": [[1, 0], [1, 1], [1, 2], [2, 0], [2, 1], [2, 2]],
        },
    }
)


class TestRing:
    def test_cube(self, capsys):
        code, out, err = run(capsys, "ring", "--input", CUBE2)
        assert code == 0
        assert out["minimal_nonfaces"] == [[0, 1], [2, 3]]
        assert out["linear_relations"] == [[1, -1, 0, 0], [0, 0, 1, -1]]


class TestIntersect:
    def test_cube_full_product_is_one(self, capsys):
        payload = json.dumps(
            {
                "polytope": json.loads(CUBE2),
                "divisors": [{"coeffs": {"0": "1"}}, {"coeffs": {"2": "1"}}],
            }
        )
        code, out, err = run(capsys, "intersect", "--input", payload)
        assert code == 0
        assert out == {"value": "1"}

    def test_repeated_axis_is_zero(self, capsys):
        payload = json.dumps(
            {
                "polytope": json.loads(CUBE2),
                "divisors": [{"coeffs": {"0": "1"}}, {"coeffs": {"1": "1"}}],
            }
        )
        code, out, err = run(capsys, "intersect", "--input", payload)
        assert code == 0
        assert out == {"value": "0"}

    def test_huge_coefficient_exits_zero(self, capsys):
        payload = json.dumps(
            {
                "polytope": json.loads(CUBE2),
                "divisors": [
                    {"coeffs": {"0": "-1048576"}},
                    {"coeffs": {"2": "1"}},
                ],
            }
        )
        code, out, err = run(capsys, "intersect", "--input", payload)
        assert code == 0
        assert out == {"value": "-1048576"}

    def test_inline_json_array_is_parsed(self, capsys):
        # an array is inline JSON, not a file name; it is not an intersection
        # payload, so the result is an input error naming the expected type
        code, out, err = run(capsys, "intersect", "--input", "[1]")
        assert code == 4
        assert out is None
        assert err.startswith("input error:")
        assert "input must be a JSON object, got array" in err


class TestPrincipal:
    def test_pair_difference(self, capsys):
        payload = json.dumps(
            {
                "polytope": json.loads(CUBE2),
                "divisor": {"coeffs": {"1": "1", "0": "-1"}},
            }
        )
        code, out, err = run(capsys, "principal", "--input", payload)
        assert code == 0
        assert out == {"principal": True, "vector": ["-1", "0"]}

    def test_single_facet_not_principal(self, capsys):
        payload = json.dumps(
            {"polytope": json.loads(CUBE2), "divisor": {"coeffs": {"0": "1"}}}
        )
        code, out, err = run(capsys, "principal", "--input", payload)
        assert code == 0
        assert out == {"principal": False}


class TestAvoid:
    def test_certificate_exists(self, capsys):
        payload = json.dumps(
            {
                "polytope": json.loads(CUBE2),
                "divisor": {
                    "coeffs": {"0": "1/2", "1": "1/2", "2": "1/2", "3": "1/2"}
                },
                "touched": [1, 2],
            }
        )
        code, out, err = run(capsys, "avoid", "--input", payload)
        assert code == 0
        assert out["exists"] is True
        assert out["divisor"]["coeffs"]["1"] == "0"
        assert out["divisor"]["coeffs"]["2"] == "0"

    def test_pair_obstruction(self, capsys):
        payload = json.dumps(
            {
                "polytope": json.loads(CUBE2),
                "divisor": {"coeffs": {"0": "1", "1": "1"}},
                "touched": [0, 1],
            }
        )
        code, out, err = run(capsys, "avoid", "--input", payload)
        assert code == 0
        assert out == {"exists": False}

    def test_emitted_divisor_feeds_principal(self, capsys):
        # the certificate differs from the input by a principal divisor, so
        # feeding the difference back through `principal` must succeed
        base = {"0": "1/2", "1": "1/2", "2": "1/2", "3": "1/2"}
        payload = json.dumps(
            {"polytope": json.loads(CUBE2), "divisor": {"coeffs": base},
             "touched": [1, 2]}
        )
        code, out, err = run(capsys, "avoid", "--input", payload)
        assert code == 0
        cert = out["divisor"]["coeffs"]
        from fractions import Fraction

        diff = {
            k: str(Fraction(cert[k]) - Fraction(base[k])) for k in base
        }
        payload2 = json.dumps(
            {"polytope": json.loads(CUBE2), "divisor": {"coeffs": diff}}
        )
        code2, out2, err2 = run(capsys, "principal", "--input", payload2)
        assert code2 == 0
        assert out2["principal"] is True


class TestVerify:
    def test_lebesgue_witness_exit_zero(self, capsys):
        code, out, err = run(
            capsys, "verify", "--theorem", "lebesgue", "--input", SLAB_COVER
        )
        assert code == 0
        assert out["verdict"] == "witness_found"

    def test_bricks_exit_two(self, capsys, tmp_path):
        code, out, err = run(
            capsys, "generate", "--pattern", "bricks", "--n", "2", "--r", "8"
        )
        assert code == 0
        path = tmp_path / "bricks.json"
        path.write_text(json.dumps(out))
        code, out, err = run(
            capsys, "verify", "--theorem", "lebesgue", "--input", str(path)
        )
        assert code == 2
        assert out["verdict"] == "hypothesis_violated"

    def test_partition_counterexample_exit_three(self, capsys):
        payload = json.dumps(
            {
                "model": {"kind": "cube", "n": 1, "r": 3},
                "sets": {"A": [[0], [1]], "B": [[2], [3]]},
            }
        )
        code, out, err = run(
            capsys, "verify", "--theorem", "lebesgue", "--input", payload
        )
        assert code == 3
        assert out["verdict"] == "counterexample_candidate"

    def test_malformed_json_exit_four(self, capsys):
        code, out, err = run(
            capsys, "verify", "--theorem", "lebesgue", "--input", "{bad json"
        )
        assert code == 4
        assert "line" in err

    def test_kkm_requires_k(self, capsys):
        payload = json.dumps(
            {"model": {"kind": "simplex", "n": 2, "r": 4}, "sets": {}}
        )
        code, out, err = run(capsys, "verify", "--theorem", "kkm", "--input", payload)
        assert code == 4

    def test_kkm_with_k(self, capsys):
        payload = json.dumps(
            {
                "model": {"kind": "simplex", "n": 2, "r": 4},
                "sets": {"X": [[4, 0, 0]]},
            }
        )
        code, out, err = run(
            capsys, "verify", "--theorem", "kkm", "--k", "1", "--input", payload
        )
        assert code == 0
        assert out["verdict"] == "witness_found"

    def test_axes(self, capsys):
        code, out, err = run(
            capsys, "verify", "--theorem", "axes", "--input", SLAB_COVER
        )
        assert code == 0

    def test_kkm_lebesgue_roundtrip(self, capsys):
        from fractions import Fraction

        from toricover import construct_standard, jsonio, perturb
        from toricover import harness as h

        p = perturb(construct_standard("cube", 3), Fraction(1, 100), seed=4)
        cover, eps = h.polytope_sample_cover(p, 6, 2, seed=4)
        payload = json.dumps(jsonio.point_cover_to_json(p, cover, eps))
        code, out, err = run(
            capsys, "verify", "--theorem", "kkm-lebesgue", "--input", payload
        )
        assert code == 0
        assert out["verdict"] == "witness_found"


class TestColor:
    def test_two_intervals(self, capsys):
        payload = json.dumps(
            {
                "model": {"kind": "cube", "n": 1, "r": 2},
                "sets": {"X1": [[0], [1]], "X2": [[1], [2]]},
            }
        )
        code, out, err = run(capsys, "color", "--input", payload)
        assert code == 0
        assert len(out["classes"]) == 2
        assert out["classes"][1] == [{"sets": ["X1", "X2"], "points": [[1]]}]


class TestGenerate:
    def test_random_roundtrips_into_verify(self, capsys):
        code, out, err = run(
            capsys, "generate", "--pattern", "random", "--n", "2", "--r", "8",
            "--m", "2", "--seed", "9",
        )
        assert code == 0
        assert out["multiplicity"] in (1, 2)
        code2, out2, err2 = run(
            capsys, "verify", "--theorem", "lebesgue", "--input", json.dumps(out)
        )
        assert code2 == 0

    def test_kkm_pattern(self, capsys):
        code, out, err = run(
            capsys, "generate", "--pattern", "kkm", "--n", "2", "--r", "9"
        )
        assert code == 0
        assert len(out["sets"]) == 3

    def test_bad_resolution_exit_four(self, capsys):
        code, out, err = run(
            capsys, "generate", "--pattern", "bricks", "--n", "2", "--r", "7"
        )
        assert code == 4


class TestMoment:
    def test_cpn(self, capsys):
        code, out, err = run(
            capsys, "moment", "--kind", "cpn",
            "--input", '{"input": [["1","0"],["1","0"],["0","0"]]}',
        )
        assert code == 0
        assert out == {"point": ["1/2", "1/2", "0"]}

    def test_real_sphere(self, capsys):
        code, out, err = run(
            capsys, "moment", "--kind", "real_sphere",
            "--input", '{"input": ["3/5", "4/5"]}',
        )
        assert code == 0
        assert out == {"point": ["9/25", "16/25"]}

    def test_zero_vector_exit_four(self, capsys):
        code, out, err = run(
            capsys, "moment", "--kind", "cpn", "--input", '{"input": [["0","0"]]}'
        )
        assert code == 4


class TestSelftest:
    def test_quick_selftest_passes(self, capsys, tmp_path):
        out_path = tmp_path / "report.json"
        code, out, err = run(
            capsys, "selftest", "--quick", "--output", str(out_path)
        )
        assert code == 0
        assert out["ok"] is True
        assert len(out["criteria"]) == 10
        assert json.loads(out_path.read_text())["ok"] is True

    def test_quick_report_and_timings(self, capsys):
        code, out, err = run(capsys, "selftest", "--quick")
        assert code == 0
        assert [(c["name"], c["ok"], c["detail"]) for c in out["criteria"]] == [
            ("ring_golden", True, "n=1..4 exact"),
            ("volume_link", True, "n=1..4 exact"),
            ("principal_identity", True, "n=1..4 exact"),
            ("flux_certificates", True, "8 seeded polytopes"),
            ("palais_suite", True, "20 covers per config"),
            ("lebesgue_suite", True, "20 covers per config"),
            ("kkm_suite", True, "20 families per (n,k)"),
            ("axes_suite", True, "20 covers per config"),
            ("kkm_lebesgue_suite", True, "8 covers per shape"),
            ("oracle", True, "2241 covers, 1136 checked"),
        ]
        lines = err.strip().splitlines()
        assert len(lines) == 11
        for line, c in zip(lines, out["criteria"]):
            assert re.fullmatch(rf"PASS +\d+\.\d\ds  {c['name']}: .*", line), line
        assert re.fullmatch(r"selftest: all criteria passed in \d+\.\d\ds", lines[-1])


class TestTopLevelType:
    """Every payload is a JSON object; any other top-level type is reported
    as such, not as an indexing error from deep inside a loader."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["ring"],
            ["intersect"],
            ["principal"],
            ["avoid"],
            ["verify", "--theorem", "lebesgue"],
            ["verify", "--theorem", "kkm-lebesgue"],
            ["color"],
            ["moment", "--kind", "cpn"],
        ],
        ids=lambda argv: "-".join(a.lstrip("-") for a in argv),
    )
    def test_array_input(self, capsys, argv):
        code, out, err = run(capsys, *argv, "--input", "[1]")
        assert code == 4
        assert out is None
        assert err.strip() == "input error: input must be a JSON object, got array"

    @pytest.mark.parametrize(
        "text, kind",
        [('"cube"', "string"), ("3", "number"), ("true", "boolean"), ("null", "null")],
    )
    def test_other_types_from_stdin(self, capsys, monkeypatch, text, kind):
        monkeypatch.setattr("sys.stdin", io.StringIO(text))
        code, out, err = run(capsys, "ring", "--input", "-")
        assert code == 4
        assert err.strip() == f"input error: input must be a JSON object, got {kind}"


def kkm_lebesgue_payload():
    p = perturb(construct_standard("cube", 2), Fraction(1, 100), seed=1)
    cover, eps = harness.polytope_sample_cover(p, 4, 2, seed=1)
    return json.loads(json.dumps(jsonio.point_cover_to_json(p, cover, eps)))


def with_field(data, path, value):
    """A copy of data with the member at path (keys and indices) replaced."""
    data = json.loads(json.dumps(data))
    target = data
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = value
    return data


def expect_input_error(capsys, argv, payload, message):
    code, out, err = run(capsys, *argv, "--input", json.dumps(payload))
    assert code == 4
    assert out is None
    assert err.strip() == f"input error: {message}"


class TestIntegerFields:
    """Integer fields take JSON integers only: a float or a boolean is an
    input error naming the field, never truncated to a nearby integer."""

    def test_normal(self, capsys):
        segment = {
            "dim": 1,
            "facets": [{"normal": [1.9], "offset": "0"}, {"normal": [-1], "offset": "1"}],
        }
        expect_input_error(capsys, ["ring"], segment,
                           "facets[0].normal[0] must be an integer, got number")

    def test_dim(self, capsys):
        expect_input_error(capsys, ["ring"], with_field(json.loads(CUBE2), ["dim"], 2.0),
                           "dim must be an integer, got number")

    def test_lattice_point(self, capsys):
        cover = {
            "model": {"kind": "cube", "n": 1, "r": 3},
            "sets": {"A": [[0], [1]], "B": [[0.5], [2.7], [3]]},
        }
        expect_input_error(capsys, ["verify", "--theorem", "lebesgue"], cover,
                           "sets.B[0][0] must be an integer, got number")

    def test_n(self, capsys):
        cover = with_field(json.loads(SLAB_COVER), ["model", "n"], 1.6)
        expect_input_error(capsys, ["color"], cover, "model.n must be an integer, got number")

    def test_r(self, capsys):
        cover = with_field(json.loads(SLAB_COVER), ["model", "r"], True)
        expect_input_error(capsys, ["color"], cover, "model.r must be an integer, got boolean")

    def test_sample_index(self, capsys):
        data = kkm_lebesgue_payload()
        name = next(iter(data["sets"]))
        data["sets"][name][0] = 0.0
        expect_input_error(capsys, ["verify", "--theorem", "kkm-lebesgue"], data,
                           f"sets.{name}[0] must be an integer, got number")

    def test_touched_facet(self, capsys):
        payload = {
            "polytope": json.loads(CUBE2),
            "divisor": {"coeffs": {"0": "1"}},
            "touched": [1, 2.0],
        }
        expect_input_error(capsys, ["avoid"], payload,
                           "touched[1] must be an integer, got number")


class TestRationalFields:
    def test_zero_denominator_names_the_offset(self, capsys):
        cube = with_field(json.loads(CUBE2), ["facets", 1, "offset"], "1/0")
        code, out, err = run(capsys, "ring", "--input", json.dumps(cube))
        assert code == 4
        assert err.startswith("input error: facets[1].offset: ")


class TestInnerFieldTypes:
    """A wrong JSON type below the top level names the field's path and the
    expected type."""

    def test_polytope_not_an_object(self, capsys):
        expect_input_error(capsys, ["intersect"], {"polytope": [1], "divisors": []},
                           "polytope must be an object, got array")

    def test_sample_not_an_array(self, capsys):
        data = with_field(kkm_lebesgue_payload(), ["sample"], 5)
        expect_input_error(capsys, ["verify", "--theorem", "kkm-lebesgue"], data,
                           "sample must be an array, got number")

    def test_cover_without_model(self, capsys):
        expect_input_error(capsys, ["verify", "--theorem", "lebesgue"], {"sets": {}},
                           "missing required field 'model'")

    def test_nested_missing_field(self, capsys):
        payload = {"polytope": {"dim": 2, "facets": [{"normal": [1, 0]}]}, "divisors": []}
        expect_input_error(capsys, ["intersect"], payload,
                           "missing required field 'polytope.facets[0].offset'")

    def test_divisor_coefficient_names_its_path(self, capsys):
        payload = {
            "polytope": json.loads(CUBE2),
            "divisors": [{"coeffs": {"0": "1"}}, {"coeffs": {"2": 0.5}}],
        }
        code, out, err = run(capsys, "intersect", "--input", json.dumps(payload))
        assert code == 4
        assert err.startswith("input error: divisors[1].coeffs.2: ")


def schema(name):
    return json.loads((SCHEMAS / name).read_text())


def expect_field_error(capsys, argv, field):
    """Exit 4, nothing on stdout, one stderr line that names the field."""
    code, out, err = run(capsys, *argv)
    assert code == 4
    assert out is None
    lines = err.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("input error: ")
    assert field in lines[0]
    return lines[0]


class TestMomentFields:
    """moment reads `input` through the path-naming checks of jsonio."""

    def test_zero_denominator(self, capsys):
        line = expect_field_error(
            capsys, ["moment", "--kind", "real_sphere", "--input", '{"input": ["1/0", "1"]}'],
            "input[0]",
        )
        assert line == "input error: input[0]: Fraction(1, 0)"

    def test_short_pair(self, capsys):
        line = expect_field_error(
            capsys, ["moment", "--kind", "cpn", "--input", '{"input": [["1"]]}'], "input[0]"
        )
        assert line == "input error: input[0] must have 2 entries, got 1"

    def test_not_an_array(self, capsys):
        line = expect_field_error(
            capsys, ["moment", "--kind", "cpn", "--input", '{"input": 5}'], "input"
        )
        assert line == "input error: input must be an array, got number"

    def test_string_is_not_an_array(self, capsys):
        expect_field_error(
            capsys, ["moment", "--kind", "real_sphere", "--input", '{"input": "1"}'], "input"
        )

    def test_product_entry(self, capsys):
        line = expect_field_error(
            capsys,
            ["moment", "--kind", "product_cp1", "--input", '{"input": [[["1", "0"], ["0", "1/0"]]]}'],
            "input[0][1][1]",
        )
        assert line == "input error: input[0][1][1]: Fraction(1, 0)"

    def test_product_cp1(self, capsys):
        code, out, err = run(
            capsys, "moment", "--kind", "product_cp1",
            "--input", '{"input": [[["1", "0"], ["1", "0"]], [["1", "0"], ["0", "0"]]]}',
        )
        assert code == 0
        assert out == {"point": ["1/2", "0"]}


class TestEpsOption:
    @pytest.mark.parametrize("eps", ["1/0", "x"])
    def test_bad_eps_names_the_option(self, capsys, eps):
        expect_field_error(
            capsys,
            ["verify", "--theorem", "kkm-lebesgue", f"--eps={eps}",
             "--input", str(SCHEMAS / "verify-kkm-lebesgue.json")],
            "--eps: ",
        )

    def test_good_eps(self, capsys):
        code, out, err = run(
            capsys, "verify", "--theorem", "kkm-lebesgue", "--eps", "1/4",
            "--input", str(SCHEMAS / "verify-kkm-lebesgue.json"),
        )
        assert code == 0
        assert out["payload"]["eps"] == "1/4"


class TestDivisorKeys:
    """Facet-id keys are canonical decimal strings: int() would read "1_0"
    as facet 10 and " 1" as facet 1."""

    @pytest.mark.parametrize("key", ["1_0", " 1", "x", "01", "+1", "-0", ""])
    def test_non_canonical_key(self, capsys, key):
        payload = with_field(schema("principal.json"), ["divisor", "coeffs"], {key: "1"})
        line = expect_field_error(
            capsys, ["principal", "--input", json.dumps(payload)], f"divisor.coeffs.{key}:"
        )
        assert line.endswith(f"a facet id is a decimal integer, got {key!r}")

    def test_out_of_range_keys_keep_their_message(self, capsys):
        for key in ("-1", "4"):
            payload = with_field(schema("principal.json"), ["divisor", "coeffs"], {key: "1"})
            code, out, err = run(capsys, "principal", "--input", json.dumps(payload))
            assert code == 4
            assert err.strip() == f"input error: facet id {key} not in 0..3"

    def test_canonical_keys(self, capsys):
        payload = with_field(schema("principal.json"), ["divisor", "coeffs"],
                             {"0": "-1", "1": "1", "2": "0"})
        code, out, err = run(capsys, "principal", "--input", json.dumps(payload))
        assert code == 0
        assert out == {"principal": True, "vector": ["-1", "0"]}


class TestBoundaryValueErrors:
    """Python refuses some values at the JSON boundary with a plain
    ValueError; the boundary turns those into input errors itself."""

    def test_integer_past_the_digit_limit(self, capsys):
        segment = '{"dim": 1, "facets": [{"normal": [' + "1" * 5000 + '], "offset": "0"}]}'
        code, out, err = run(capsys, "ring", "--input", segment)
        assert code == 4
        assert err.startswith("input error: Exceeds the limit (4300 digits)")

    def test_result_past_the_digit_limit(self, capsys):
        big = "9" * 4000
        payload = with_field(schema("intersect.json"), ["divisors"],
                             [{"coeffs": {"0": big}}, {"coeffs": {"2": big}}])
        code, out, err = run(capsys, "intersect", "--input", json.dumps(payload))
        assert code == 4
        assert out is None
        assert err.startswith("input error: Exceeds the limit (4300 digits)")

    def test_facet_id_past_the_digit_limit(self, capsys):
        key = "1" + "0" * 5000
        payload = with_field(schema("principal.json"), ["divisor", "coeffs"], {key: "1"})
        expect_field_error(capsys, ["principal", "--input", json.dumps(payload)],
                           f"divisor.coeffs.{key}: Exceeds the limit")

    def test_bad_utf8(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_bytes(b'{"a": "\xff"}')
        code, out, err = run(capsys, "ring", "--input", str(path))
        assert code == 4
        assert err.startswith("input error: 'utf-8' codec can't decode byte 0xff")


class TestAvoidFacetIds:
    @pytest.mark.parametrize("touched, bad", [([-1], -1), ([99], 99), ([1, 4], 4)])
    def test_out_of_range(self, capsys, touched, bad):
        payload = with_field(schema("avoid.json"), ["touched"], touched)
        line = expect_field_error(capsys, ["avoid", "--input", json.dumps(payload)], "touched")
        assert line == f"input error: touched facet id {bad} not in 0..3"


class TestSamplePoints:
    """kkm-lebesgue sample points have dim coordinates and lie in the
    polytope; facet contact zips a point with each normal and would cut a
    short or long point silently."""

    @pytest.mark.parametrize(
        "point, message",
        [
            (["0"], "sample[0] has 1 coordinates, the polytope has 2"),
            (["0", "0", "0"], "sample[0] has 3 coordinates, the polytope has 2"),
            (["100", "100"], "sample[0] lies outside the polytope"),
        ],
    )
    def test_bad_point(self, capsys, point, message):
        payload = with_field(schema("verify-kkm-lebesgue.json"), ["sample", 0], point)
        line = expect_field_error(
            capsys, ["verify", "--theorem", "kkm-lebesgue", "--input", json.dumps(payload)],
            "sample[0]",
        )
        assert line == f"input error: {message}"

    def test_boundary_point_is_inside(self, capsys):
        data = kkm_lebesgue_payload()
        p = jsonio.polytope_from_json(data["polytope"])
        data["sample"][0] = [jsonio.frac_to_str(x) for x in p.vertices[0].coords]
        code, out, err = run(capsys, "verify", "--theorem", "kkm-lebesgue",
                             "--input", json.dumps(data))
        assert code != 4, err
        assert out is not None


# Arbitrary JSON values.  Integers stay small: a large model.r or --n is
# legitimate input whose lattice (r+1)^n the CLI enumerates.
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 5)
    | st.floats(allow_nan=False, allow_infinity=False) | st.text(max_size=4)
    | st.sampled_from(["1/0", "-1/2", "7", " 1", "1_0", "cube", "simplex"]),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=2), inner, max_size=3),
    max_leaves=5,
)

PAYLOAD_COMMANDS = [
    (["ring"], "ring.json"),
    (["intersect"], "intersect.json"),
    (["principal"], "principal.json"),
    (["avoid"], "avoid.json"),
    (["verify", "--theorem", "lebesgue"], "verify.json"),
    (["verify", "--theorem", "kkm", "--k", "1"], "verify.json"),
    (["verify", "--theorem", "complement", "--k", "1"], "verify.json"),
    (["verify", "--theorem", "axes"], "verify.json"),
    (["verify", "--theorem", "kkm-lebesgue"], "verify-kkm-lebesgue.json"),
    (["color"], "color.json"),
    (["moment", "--kind", "cpn"], "moment.json"),
    (["moment", "--kind", "product_cp1"], "moment.json"),
    (["moment", "--kind", "real_sphere"], "moment.json"),
]

OPTION_COMMANDS = [
    (["verify", "--theorem", "kkm", "--input", str(SCHEMAS / "verify.json")], {"--k": "1"}),
    (["verify", "--theorem", "complement", "--input", str(SCHEMAS / "verify.json")], {"--k": "1"}),
    (["verify", "--theorem", "kkm-lebesgue", "--input", str(SCHEMAS / "verify-kkm-lebesgue.json")],
     {"--eps": "1/4"}),
] + [
    (["generate", "--pattern", pattern], {"--n": "2", "--r": "8", "--m": "2"})
    for pattern in ("bricks", "kkm", "random")
]


def member_paths(value, path=()):
    """The path of value itself and of every member below it."""
    yield path
    if isinstance(value, (dict, list)):
        for key, member in (value.items() if isinstance(value, dict) else enumerate(value)):
            yield from member_paths(member, path + (key,))


def outcome(argv):
    """(exit code, stdout, stderr) of cli.main; an exception propagates."""
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
    except SystemExit as exc:  # argparse refuses the option value
        code = exc.code
    return code, out.getvalue(), err.getvalue()


def small_or_not_an_integer(text):
    try:
        return abs(int(text)) <= 5
    except ValueError:
        return True


def check_outcome(argv):
    code, out, err = outcome(argv)
    assert code in (0, 2, 3, 4), (argv, err)
    if code == 4:
        assert out == ""
        assert len(err.splitlines()) == 1, err


class TestFuzz:
    """Any one field or option replaced by an arbitrary JSON value ends in
    exit 0, 2, 3 or 4, never in a traceback."""

    @pytest.mark.parametrize("argv, name", PAYLOAD_COMMANDS,
                             ids=lambda x: "-".join(a.lstrip("-") for a in x)
                             if isinstance(x, list) else x)
    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_payload_field(self, argv, name, data):
        payload = schema(name)
        path = data.draw(st.sampled_from(list(member_paths(payload))), label="path")
        value = data.draw(JSON_VALUES, label="value")
        payload = with_field(payload, path, value) if path else value
        check_outcome(argv + ["--input", json.dumps(payload)])

    @pytest.mark.parametrize("argv, options", OPTION_COMMANDS,
                             ids=lambda x: "-".join(a.lstrip("-") for a in x[:3])
                             if isinstance(x, list) else "")
    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_option(self, argv, options, data):
        option = data.draw(st.sampled_from(sorted(options)), label="option")
        value = data.draw(JSON_VALUES, label="value")
        text = value if isinstance(value, str) else json.dumps(value)
        # argparse reads strings such as "1_0" as integers too; keep generate
        # sizes as small as the integers of JSON_VALUES
        assume(argv[0] != "generate" or small_or_not_an_integer(text))
        options = {**options, option: text}
        check_outcome(argv + [f"{k}={v}" for k, v in options.items()])


class TestLibraryBugsPropagate:
    """Only InputError means bad input; any other exception from inside the
    library leaves cli.main as it is, never as `input error`."""

    @pytest.mark.parametrize("exc", [KeyError, TypeError, ValueError])
    def test_selftest_criterion(self, capsys, monkeypatch, exc):
        def broken():
            raise exc("missing")

        monkeypatch.setattr(acceptance, "ALL_CRITERIA", (broken,))
        with pytest.raises(exc, match="missing"):
            cli.main(["selftest"])
        assert "input error" not in capsys.readouterr().err

    @pytest.mark.parametrize("exc", [KeyError, TypeError, ValueError])
    def test_presentation(self, capsys, monkeypatch, exc):
        def broken(p):
            raise exc("missing")

        monkeypatch.setattr(chow, "presentation", broken)
        with pytest.raises(exc, match="missing"):
            cli.main(["ring", "--input", CUBE2])
        assert "input error" not in capsys.readouterr().err
