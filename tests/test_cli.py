import contextlib
import gc
import io
import json
import os
import pathlib
import re
import subprocess
import sys
import time
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from toricover import (
    LatticeModel, acceptance, chow, cli, construct_standard, harness, jsonio, perturb,
)

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

    @pytest.mark.parametrize("theorem, extra, option", [
        ("lebesgue", ["--k", "2"], "--k"),
        ("axes", ["--k", "1"], "--k"),
        ("kkm-lebesgue", ["--k", "1"], "--k"),
        ("lebesgue", ["--eps", "1/2"], "--eps"),
        ("axes", ["--eps", "1/2"], "--eps"),
        ("kkm", ["--k", "1", "--eps", "1/2"], "--eps"),
        ("complement", ["--k", "1", "--eps", "1/2"], "--eps"),
    ], ids=["lebesgue-k", "axes-k", "kkm-lebesgue-k", "lebesgue-eps", "axes-eps", "kkm-eps",
            "complement-eps"])
    def test_option_of_another_theorem_exits_four(self, capsys, theorem, extra, option):
        payload = {
            "kkm": pathlib.Path(__file__).parent / "golden" / "inputs" / "kkm-family.json",
            "kkm-lebesgue": SCHEMAS / "verify-kkm-lebesgue.json",
        }.get(theorem, SCHEMAS / "verify.json")
        code, out, err = run(capsys, "verify", "--theorem", theorem, *extra,
                             "--input", str(payload))
        assert (code, out) == (4, None)
        assert err == f"input error: {option} does not apply to the {theorem} theorem\n"

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

    @pytest.mark.parametrize("argv", [
        ["generate", "--pattern", "random", "--n", "10", "--r", "8"],
        ["generate", "--pattern", "random", "--n", "1_0", "--r", "8"],
        ["generate", "--pattern", "bricks", "--n", "1000000000", "--r", "2000000000"],
        ["generate", "--pattern", "kkm", "--n", "3", "--r", "1000"],
        ["verify", "--theorem", "lebesgue", "--input",
         json.dumps({"model": {"kind": "cube", "n": 2, "r": 10**9}, "sets": {}})],
        ["color", "--input",
         json.dumps({"model": {"kind": "simplex", "n": 2, "r": 10**9}, "sets": {}})],
    ])
    def test_oversized_model_exits_four_at_once(self, capsys, argv):
        t0 = time.perf_counter()
        code, out, err = run(capsys, *argv)
        assert time.perf_counter() - t0 < 0.5
        assert code == 4
        assert out is None
        assert err.startswith("input error: LatticeModel(")
        assert err.strip().endswith("has more than 1000000 points")

    def test_huge_m_exits_four_at_once(self, capsys):
        t0 = time.perf_counter()
        line = expect_field_error(
            capsys,
            ["generate", "--pattern", "random", "--n", "1", "--r", "2", "--m", "1000000000"],
            "m=1000000000",
        )
        assert time.perf_counter() - t0 < 0.5
        assert line.endswith("times max(m, 3 model points) is more than 20000000")

    def test_bad_resolution_exit_four(self, capsys):
        code, out, err = run(
            capsys, "generate", "--pattern", "bricks", "--n", "2", "--r", "7"
        )
        assert code == 4

    @pytest.mark.parametrize("pattern, option", [
        ("bricks", "--m"), ("bricks", "--seed"), ("kkm", "--m"), ("kkm", "--seed"),
    ])
    def test_random_only_option_exits_four(self, capsys, pattern, option):
        code, out, err = run(
            capsys, "generate", "--pattern", pattern, "--n", "2", "--r", "8", option, "2"
        )
        assert (code, out) == (4, None)
        assert err == f"input error: {option} does not apply to the {pattern} pattern\n"

    def test_random_defaults(self, capsys):
        base = ["generate", "--pattern", "random", "--n", "2", "--r", "4"]
        assert run(capsys, *base) == run(capsys, *base, "--m", "2", "--seed", "0")

    def test_zero_m_exits_four(self, capsys):
        code, out, err = run(
            capsys, "generate", "--pattern", "random", "--n", "2", "--r", "4", "--m", "0"
        )
        assert (code, out, err) == (4, None, "input error: target multiplicity must be >= 1\n")


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
    @pytest.fixture(scope="class")
    def full_run(self, tmp_path_factory):
        """One full selftest run with --output, shared by the tests below."""
        out_path = tmp_path_factory.mktemp("selftest") / "report.json"
        code, out, err = outcome(["selftest", "--output", str(out_path)])
        return code, out, err, out_path.read_text()

    def test_full_selftest_passes(self, full_run):
        code, out, err, written = full_run
        assert code == 0
        assert written == out
        report = json.loads(out)
        assert report["ok"] is True
        assert len(report["criteria"]) == 10

    def test_full_report_and_timings(self, full_run):
        code, out, err, written = full_run
        out = json.loads(out)
        assert [(c["name"], c["ok"], c["detail"]) for c in out["criteria"]] == [
            ("ring_golden", True, "n=1..4 exact"),
            ("volume_link", True, "n=1..4 exact"),
            ("principal_identity", True, "n=1..4 exact"),
            ("flux_certificates", True, "50 seeded polytopes"),
            ("palais_suite", True, "200 covers per config"),
            ("lebesgue_suite", True, "200 covers per config"),
            ("kkm_suite", True, "100 families per (n,k)"),
            ("axes_suite", True, "100 covers per config"),
            ("kkm_lebesgue_suite", True, "50 covers per shape"),
            ("oracle", True, "256 covers, 24 candidates"),
        ]
        lines = err.strip().splitlines()
        assert len(lines) == 11
        for line, c in zip(lines, out["criteria"]):
            assert re.fullmatch(rf"PASS +\d+\.\d\ds  {c['name']}: .*", line), line
        assert re.fullmatch(r"selftest: all criteria passed in \d+\.\d\ds", lines[-1])

    def test_quick_is_not_an_option(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["selftest", "--quick"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --quick" in capsys.readouterr().err


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

    def test_lattice_point_boolean(self, capsys):
        cover = {"model": {"kind": "cube", "n": 1, "r": 1}, "sets": {"A": [[0], [1], [True]]}}
        expect_input_error(capsys, ["verify", "--theorem", "lebesgue"], cover,
                           "sets.A[2][0] must be an integer, got boolean")

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

    @pytest.mark.parametrize(
        "offset",
        ["0.5e1", "1e3", "0.5", "+1", " 1", "1 ", "1_0", "1/-2", "1/2/3", "\u0661", "", True],
    )
    def test_only_integers_and_p_over_q(self, capsys, offset):
        cube = with_field(json.loads(CUBE2), ["facets", 1, "offset"], offset)
        line = expect_field_error(capsys, ["ring", "--input", json.dumps(cube)],
                                  "facets[1].offset: ")
        assert line.endswith(f'rationals must be integers or "p/q" strings, got {offset!r}')

    def test_huge_exponent_is_refused_at_once(self, capsys):
        cube = with_field(json.loads(CUBE2), ["facets", 1, "offset"], "1e100000000")
        start = time.perf_counter()
        expect_field_error(capsys, ["ring", "--input", json.dumps(cube)], "facets[1].offset: ")
        assert time.perf_counter() - start < 0.5

    @pytest.mark.parametrize("offset", ["-3/4", "007/2", "-0", "2"])
    def test_p_over_q_accepted(self, capsys, offset):
        cube = with_field(json.loads(CUBE2), ["facets", 0, "offset"], offset)
        code, out, err = run(capsys, "ring", "--input", json.dumps(cube))
        assert code == 0

    def test_moment_entry(self, capsys):
        expect_field_error(
            capsys, ["moment", "--kind", "real_sphere", "--input", '{"input": ["1", "0.5"]}'],
            "input[1]: ",
        )


class TestOutputBytes:
    """Stdout is json.dumps(payload, indent=2) plus a newline, and the
    --output file holds the same bytes."""

    SCHEMA_CASES = {
        "ring": ["ring", "--input", "ring.json"],
        "intersect": ["intersect", "--input", "intersect.json"],
        "principal": ["principal", "--input", "principal.json"],
        "avoid": ["avoid", "--input", "avoid.json"],
        "verify": ["verify", "--theorem", "lebesgue", "--input", "verify.json"],
        "verify-kkm-lebesgue": [
            "verify", "--theorem", "kkm-lebesgue", "--input", "verify-kkm-lebesgue.json",
        ],
        "color": ["color", "--input", "color.json"],
        "moment": ["moment", "--kind", "cpn", "--input", "moment.json"],
        "generate": ["generate", "--pattern", "bricks", "--n", "1", "--r", "4"],
        "selftest": ["selftest"],
    }

    @classmethod
    def argv(cls, name):
        return [str(SCHEMAS / a) if a.endswith(".json") else a for a in cls.SCHEMA_CASES[name]]

    def emit(self, capsys, tmp_path, argv):
        target = tmp_path / "out.json"
        assert cli.main([*argv, "--output", str(target)]) in (0, 2, 3)
        out = capsys.readouterr().out
        assert out == json.dumps(json.loads(out), indent=2) + "\n"
        assert target.read_text() == out
        return out

    @pytest.mark.parametrize("name", sorted(SCHEMA_CASES))
    def test_schema_payloads(self, capsys, tmp_path, name):
        self.emit(capsys, tmp_path, self.argv(name))

    @pytest.mark.parametrize(
        "pattern", [["bricks"], ["random", "--m", "3"]], ids=["bricks", "random"]
    )
    def test_large_cover_and_its_coloring(self, capsys, tmp_path, pattern):
        cover = self.emit(
            capsys, tmp_path, ["generate", "--pattern", *pattern, "--n", "3", "--r", "24"]
        )
        source = tmp_path / "cover.json"
        source.write_text(cover)
        self.emit(capsys, tmp_path, ["color", "--input", str(source)])


def stamped_cover(kind, n, r, m, seed):
    """The random cover generate makes, with the multiplicity it stamps."""
    stamped = harness.random_low_multiplicity_cover(LatticeModel(kind, n, r), m, seed)
    return stamped.cover, {"multiplicity": stamped.multiplicity}


class TestGenerateLayout:
    """generate writes the cover's PointSets, and its stdout is the text of
    jsonio.cover_to_json's plain lists."""

    @pytest.mark.parametrize("argv, make", [
        (["--pattern", "bricks", "--n", "3", "--r", "12"],
         lambda: (harness.shifted_brick_cover(3, 12), {})),
        (["--pattern", "kkm", "--n", "3", "--r", "6"],
         lambda: (harness.kkm_standard_cover(3, 6), {})),
        (["--pattern", "random", "--n", "3", "--r", "8", "--m", "3", "--seed", "4"],
         lambda: stamped_cover("cube", 3, 8, 3, 4)),
        (["--pattern", "random", "--kind", "simplex", "--n", "3", "--r", "6", "--seed", "9"],
         lambda: stamped_cover("simplex", 3, 6, 2, 9)),
    ], ids=["bricks", "kkm", "random-cube", "random-simplex"])
    def test_stdout_is_cover_to_json(self, capsys, argv, make):
        cover, extra = make()
        assert cli.main(["generate", *argv]) == 0
        want = json.dumps(jsonio.cover_to_json(cover, **extra), indent=2) + "\n"
        assert capsys.readouterr().out == want


class TestOutputPath:
    @pytest.mark.parametrize("name", sorted(TestOutputBytes.SCHEMA_CASES))
    def test_unwritable_output_is_an_input_error(self, capsys, tmp_path, name):
        """Every command exits 4 with nothing on stdout and one error line on
        stderr, after selftest's criterion lines, and creates no file."""
        target = tmp_path / "missing" / "x.json"
        code = cli.main([*TestOutputBytes.argv(name), "--output", str(target)])
        captured = capsys.readouterr()
        assert code == 4
        assert captured.out == ""
        *progress, line = captured.err.strip().splitlines()
        assert len(progress) == (len(acceptance.ALL_CRITERIA) if name == "selftest" else 0)
        assert all(re.match(r"PASS +\d+\.\d\ds  ", p) for p in progress), progress
        assert line.startswith(f"input error: cannot write output {str(target)!r}: ")
        assert list(tmp_path.iterdir()) == []

    def test_output_file_holds_stdout(self, capsys, tmp_path):
        target = tmp_path / "x.json"
        assert cli.main(["ring", "--input", str(SCHEMAS / "ring.json"), "--output", str(target)]) == 0
        assert capsys.readouterr().out == target.read_text()


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

    def test_lattice_point_not_an_array(self, capsys):
        cover = {"model": {"kind": "cube", "n": 1, "r": 1}, "sets": {"A": [[0], 1]}}
        expect_input_error(capsys, ["color"], cover, "sets.A[1] must be an array, got number")

    def test_cover_without_model(self, capsys):
        expect_input_error(capsys, ["verify", "--theorem", "lebesgue"], {"sets": {}},
                           "missing required field 'model'")

    def test_nested_missing_field(self, capsys):
        payload = {"polytope": {"dim": 2, "facets": [{"normal": [1, 0]}]}, "divisors": []}
        expect_input_error(capsys, ["intersect"], payload,
                           "missing required field 'polytope.facets[0].offset'")

    @pytest.mark.parametrize(
        "argv, wrap, field",
        [
            (["ring"], lambda p: p, "facets[1].normal"),
            (["intersect"], lambda p: {"polytope": p, "divisors": []},
             "polytope.facets[1].normal"),
            (["verify", "--theorem", "kkm-lebesgue"],
             lambda p: {**kkm_lebesgue_payload(), "polytope": p}, "polytope.facets[1].normal"),
        ],
    )
    def test_normal_of_another_length_names_its_field(self, capsys, argv, wrap, field):
        cube = with_field(json.loads(CUBE2), ["facets", 1, "normal"], [0, 1, 0])
        expect_input_error(capsys, argv, wrap(cube),
                           f"{field} has 3 entries, the first normal has 2")

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


def sample_cover_edge(data, edge):
    """The kkm-lebesgue payload data with one edge of the cover check or the
    layering: a repeated sample point that no set lists or that one set lists
    alone, or an empty set."""
    if edge in ("repeat", "repeat_alone"):
        data["sample"].append(data["sample"][0])
    if edge == "repeat_alone":
        data["sets"]["repeat"] = [len(data["sample"]) - 1]
    if edge == "empty_set":
        data["sets"]["empty"] = []
    return data


class TestSampleCoverEdges:
    @pytest.mark.parametrize("edge, code, verdict", [
        ("repeat", 0, "witness_found"),
        ("repeat_alone", 2, "hypothesis_violated"),
        ("empty_set", 0, "witness_found"),
    ])
    def test_verdict(self, capsys, edge, code, verdict):
        data = sample_cover_edge(schema("verify-kkm-lebesgue.json"), edge)
        got, out, err = run(capsys, "verify", "--theorem", "kkm-lebesgue",
                            "--input", json.dumps(data))
        assert (got, out["verdict"]) == (code, verdict)
        if edge == "repeat_alone":
            assert out["payload"] == {
                "reason": "multiplicity_exceeds_dimension", "multiplicity": 3,
            }

    def test_empty_sample_without_eps(self, capsys):
        # the golden case kkm-lebesgue-empty-sample pins it with eps
        data = schema("verify-kkm-lebesgue.json")
        data.update(sample=[], sets={})
        del data["eps"]
        code, out, err = run(capsys, "verify", "--theorem", "kkm-lebesgue",
                             "--input", json.dumps(data))
        assert (code, out) == (4, None)
        assert err == "error: BadSampleError: the sample is empty\n"

    def test_no_sets(self, capsys):
        data = schema("verify-kkm-lebesgue.json")
        data["sets"] = {}
        code, out, err = run(capsys, "verify", "--theorem", "kkm-lebesgue",
                             "--input", json.dumps(data))
        assert (code, out) == (4, None)
        assert err == "error: BadSampleError: the sets do not cover the sample\n"


class TestEpsOption:
    @pytest.mark.parametrize("eps", ["1/0", "x", "0.25", "1e-2"])
    def test_bad_eps_names_the_option(self, capsys, eps):
        expect_field_error(
            capsys,
            ["verify", "--theorem", "kkm-lebesgue", f"--eps={eps}",
             "--input", str(SCHEMAS / "verify-kkm-lebesgue.json")],
            "--eps: ",
        )

    def test_negative_eps_field(self, capsys):
        # the golden case kkm-lebesgue-eps-negative pins --eps -1
        payload = with_field(schema("verify-kkm-lebesgue.json"), ["eps"], "-1/4")
        line = expect_field_error(
            capsys, ["verify", "--theorem", "kkm-lebesgue", "--input", json.dumps(payload)],
            "eps",
        )
        assert line == "input error: eps must be >= 0, got -1/4"

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
    (["generate", "--pattern", pattern], {"--n": "2", "--r": "8"}) for pattern in ("bricks", "kkm")
] + [
    (["generate", "--pattern", "random"], {"--n": "2", "--r": "8", "--m": "2"}),
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


class TestCollectorState:
    """main pauses the cyclic collector while the subcommand runs and leaves
    it as the caller had it, whether the subcommand succeeds, exits 4 or
    lets a library bug propagate."""

    @pytest.mark.parametrize("enabled", [True, False], ids=["enabled", "disabled"])
    @pytest.mark.parametrize("ending", ["success", "input-error", "library-bug"])
    def test_state_after_main(self, capsys, monkeypatch, enabled, ending):
        seen = []

        def presentation(p, real=chow.presentation):
            seen.append(gc.isenabled())
            if ending == "library-bug":
                raise KeyError("missing")
            return real(p)

        monkeypatch.setattr(chow, "presentation", presentation)
        payload = "[]" if ending == "input-error" else CUBE2
        before = gc.isenabled()
        (gc.enable if enabled else gc.disable)()
        try:
            if ending == "library-bug":
                with pytest.raises(KeyError, match="missing"):
                    cli.main(["ring", "--input", payload])
            else:
                assert cli.main(["ring", "--input", payload]) == (
                    cli.EXIT_INPUT_ERROR if ending == "input-error" else cli.EXIT_OK)
            assert gc.isenabled() is enabled
        finally:
            (gc.enable if before else gc.disable)()
        assert seen == ([] if ending == "input-error" else [False])

    def test_parser_exit_keeps_the_state(self, capsys):
        """argparse's own exit comes before the pause."""
        assert gc.isenabled()
        with pytest.raises(SystemExit):
            cli.main(["ring"])
        assert gc.isenabled()


@pytest.mark.parametrize(
    "argv, code, summary",
    [
        (["generate", "--pattern", "random", "--n", "2", "--r", "4"], 0,
         "random cover: 5 sets, measured multiplicity 2"),
        (["verify", "--theorem", "axes", "--input",
          "tests/golden/inputs/axes-checkerboard.json"], 3,
         "verdict: counterexample_candidate"),
    ],
    ids=["generate", "verify"],
)
def test_closed_stdout_ends_quietly(argv, code, summary):
    """A reader that is gone before the JSON is written (as with `| head`)
    leaves the exit code and stderr of the subcommand as they are."""
    root = pathlib.Path(__file__).resolve().parent.parent
    read, write = os.pipe()
    os.close(read)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "toricover.cli", *argv],
            cwd=root, env=dict(os.environ, PYTHONPATH=str(root / "src")),
            stdout=write, stderr=subprocess.PIPE, text=True, timeout=120,
        )
    finally:
        os.close(write)
    assert (proc.returncode, proc.stderr) == (code, summary + "\n")

