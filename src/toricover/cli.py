"""Command-line front end.  JSON in, JSON out, stable exit codes.

Exit codes: 0 success or witness found; 2 hypothesis violated; 3
counterexample candidate (or selftest failure); 4 input rejected by an
InputError.  Any other exception is a library bug and ends in a traceback.
JSON goes to stdout, a short human summary to stderr.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import acceptance, chow, covering, harness, jsonio
from .covering import (
    COUNTEREXAMPLE_CANDIDATE,
    HYPOTHESIS_VIOLATED,
    WITNESS_FOUND,
    LatticeModel,
)
from .jsonio import JSON_TYPES, InputError, _field, _frac, _ints
from .polytope import moment_map_eval

EXIT_OK = 0
EXIT_HYPOTHESIS_VIOLATED = 2
EXIT_COUNTEREXAMPLE = 3
EXIT_INPUT_ERROR = 4

_VERDICT_EXIT = {
    WITNESS_FOUND: EXIT_OK,
    HYPOTHESIS_VIOLATED: EXIT_HYPOTHESIS_VIOLATED,
    COUNTEREXAMPLE_CANDIDATE: EXIT_COUNTEREXAMPLE,
}


def _load_json(spec: str) -> dict:
    """Accept a file path, inline JSON (starts with '{' or '['), or '-' for
    stdin.  Every payload is a JSON object; any other top-level type is an
    input error that names what was expected."""
    try:
        if spec == "-":
            data = json.load(sys.stdin)
        elif spec.lstrip().startswith(("{", "[")):
            data = json.loads(spec)
        else:
            with open(spec) as fh:
                data = json.load(fh)
    except json.JSONDecodeError as exc:
        raise InputError(f"malformed JSON near line {exc.lineno}, column {exc.colno}: {exc.msg}")
    except OSError as exc:
        raise InputError(f"cannot read input {spec!r}: {exc}")
    except ValueError as exc:  # bad UTF-8, a NUL in the path, an over-long integer
        raise InputError(str(exc)) from None
    if not isinstance(data, dict):
        raise InputError(f"input must be a JSON object, got {JSON_TYPES[type(data)]}")
    return data


def _emit(data: dict, summary: str, out_path=None) -> None:
    text = json.dumps(data, indent=2)
    print(text)
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(text + "\n")
    print(summary, file=sys.stderr)


def _cmd_ring(args) -> int:
    p = jsonio.polytope_from_json(_load_json(args.input))
    pres = chow.presentation(p)
    _emit(jsonio.presentation_to_json(pres),
          f"ring: {p.num_facets} generators, {len(pres.minimal_nonfaces)} minimal non-faces",
          args.output)
    return EXIT_OK


def _cmd_intersect(args) -> int:
    data = _load_json(args.input)
    p = jsonio.polytope_from_json(_field(data, "polytope"), "polytope")
    divisors = tuple(
        jsonio.divisor_from_json(p, d, f"divisors[{i}]")
        for i, d in enumerate(_field(data, "divisors", kind=list))
    )
    value = chow.intersection_number(chow.IntersectionQuery(p, divisors))
    _emit({"value": jsonio.frac_to_str(value)}, f"intersection number = {value}", args.output)
    return EXIT_OK


def _cmd_principal(args) -> int:
    data = _load_json(args.input)
    p = jsonio.polytope_from_json(_field(data, "polytope"), "polytope")
    d = jsonio.divisor_from_json(p, _field(data, "divisor"), "divisor")
    v = chow.is_principal(p, d)
    if v is None:
        _emit({"principal": False}, "not principal", args.output)
    else:
        _emit(
            {"principal": True, "vector": [jsonio.frac_to_str(x) for x in v]},
            f"principal with v = {tuple(map(str, v))}", args.output,
        )
    return EXIT_OK


def _cmd_avoid(args) -> int:
    data = _load_json(args.input)
    p = jsonio.polytope_from_json(_field(data, "polytope"), "polytope")
    d = jsonio.divisor_from_json(p, _field(data, "divisor"), "divisor")
    touched = _ints(_field(data, "touched"), "touched")
    cert = chow.avoidance_certificate(p, d, touched)
    if cert is None:
        _emit({"exists": False}, "no avoidance certificate", args.output)
    else:
        _emit({"exists": True, "divisor": jsonio.divisor_to_json(cert)},
              f"certificate avoids facets {sorted(touched)}", args.output)
    return EXIT_OK


def _cmd_verify(args) -> int:
    data = _load_json(args.input)
    if args.theorem == "kkm-lebesgue":
        p, cover, eps = jsonio.point_cover_from_json(data)
        if args.eps is not None:
            eps = _frac(args.eps, "--eps")
        report = covering.kkm_lebesgue_witness(p, cover, eps)
    else:
        cover = jsonio.cover_from_json(data)
        if args.theorem == "lebesgue":
            report = covering.lebesgue_witness(cover)
        elif args.theorem in ("kkm", "complement"):
            if args.k is None:
                raise InputError(f"--k is required for the {args.theorem} theorem")
            witness = covering.kkm_witness if args.theorem == "kkm" else covering.complement_witness
            report = witness(cover, args.k)
        else:
            report = covering.axes_witness(cover)
    _emit(jsonio.report_to_json(report), f"verdict: {report.verdict}", args.output)
    return _VERDICT_EXIT[report.verdict]


def _cmd_color(args) -> int:
    cover = jsonio.cover_from_json(_load_json(args.input))
    classes = covering.palais_coloring(cover)
    data = {
        "classes": [
            [
                {"sets": list(piece.cover_sets), "points": sorted(map(list, piece.points))}
                for piece in cls
            ]
            for cls in classes
        ]
    }
    _emit(data, f"{len(classes)} color classes", args.output)
    return EXIT_OK


def _cmd_generate(args) -> int:
    if args.pattern == "bricks":
        cover = harness.shifted_brick_cover(args.n, args.r)
        data = jsonio.cover_to_json(cover)
        summary = f"bricks: {len(cover.sets)} bricks on n={args.n} r={args.r}"
    elif args.pattern == "kkm":
        cover = harness.kkm_standard_cover(args.n, args.r)
        data = jsonio.cover_to_json(cover)
        summary = f"kkm stars: {len(cover.sets)} sets"
    else:
        model = LatticeModel(args.kind, args.n, args.r)
        stamped = harness.random_low_multiplicity_cover(model, args.m, args.seed)
        data = jsonio.cover_to_json(stamped.cover, multiplicity=stamped.multiplicity)
        summary = (
            f"random cover: {len(stamped.cover.sets)} sets, "
            f"measured multiplicity {stamped.multiplicity}"
        )
    _emit(data, summary, args.output)
    return EXIT_OK


def _cmd_moment(args) -> int:
    value = jsonio.moment_input_from_json(_load_json(args.input), args.kind)
    point = moment_map_eval(args.kind, value)
    _emit({"point": [jsonio.frac_to_str(x) for x in point]},
          f"moment image: {tuple(map(str, point))}", args.output)
    return EXIT_OK


def _cmd_selftest(args) -> int:
    results = acceptance.run_all(quick=args.quick)
    data = {
        "criteria": [
            {"name": r.name, "ok": r.ok, "detail": r.detail} for r in results
        ],
        "ok": all(r.ok for r in results),
    }
    for r in results:
        print(f"{'PASS' if r.ok else 'FAIL'}  {r.seconds:6.2f}s  {r.name}: {r.detail}",
              file=sys.stderr)
    total = sum(r.seconds for r in results)
    _emit(data, "selftest: " + ("all criteria passed" if data["ok"] else "FAILURES")
          + f" in {total:.2f}s", args.output)
    return EXIT_OK if data["ok"] else EXIT_COUNTEREXAMPLE


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="toricover",
        description="Exact polytope divisor arithmetic and covering-theorem verifiers.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, fn, needs_input=True, **kwargs):
        p = sub.add_parser(name, **kwargs)
        if needs_input:
            p.add_argument("--input", "-i", required=True,
                           help="path, inline JSON, or '-' for stdin")
        p.add_argument("--output", "-o", help="also write the JSON result here")
        p.set_defaults(fn=fn)
        return p

    add("ring", _cmd_ring, help="cohomology ring presentation of a polytope")
    add("intersect", _cmd_intersect, help="top intersection number of n divisors")
    add("principal", _cmd_principal, help="test a divisor for linear equivalence to zero")
    add("avoid", _cmd_avoid, help="divisor avoiding a facet set, if one exists")

    p_verify = add("verify", _cmd_verify, help="run a covering-theorem verifier")
    p_verify.add_argument(
        "--theorem", required=True,
        choices=["lebesgue", "kkm", "axes", "complement", "kkm-lebesgue"],
    )
    p_verify.add_argument("--k", type=int, help="face dimension for kkm/complement")
    p_verify.add_argument(
        "--eps",
        help="touch tolerance p/q for kkm-lebesgue; overrides the payload's "
        "eps, and without either it is one minimal sample spacing",
    )

    add("color", _cmd_color, help="Palais coloring of a lattice cover")

    p_gen = add("generate", _cmd_generate, needs_input=False,
                help="emit a structured or random cover")
    p_gen.add_argument("--pattern", required=True, choices=["bricks", "kkm", "random"])
    p_gen.add_argument("--n", type=int, required=True)
    p_gen.add_argument("--r", type=int, required=True)
    p_gen.add_argument("--kind", default="cube", choices=["cube", "simplex"])
    p_gen.add_argument("--m", type=int, default=2, help="target multiplicity (random)")
    p_gen.add_argument("--seed", type=int, default=0)

    p_moment = add("moment", _cmd_moment, help="evaluate a moment map exactly")
    p_moment.add_argument(
        "--kind", required=True, choices=["cpn", "product_cp1", "real_sphere"]
    )

    p_self = add("selftest", _cmd_selftest, needs_input=False,
                 help="run the full acceptance matrix")
    p_self.add_argument("--quick", action="store_true",
                        help="smaller suites (smoke run, not the real gate)")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except InputError as exc:
        label = "input error" if type(exc) is InputError else f"error: {type(exc).__name__}"
        print(f"{label}: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR


if __name__ == "__main__":
    sys.exit(main())
