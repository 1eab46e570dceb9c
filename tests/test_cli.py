import io
import json

import pytest

from toricover import cli


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
