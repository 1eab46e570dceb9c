"""Command-line front end.  JSON in, JSON out, stable exit codes.

Exit codes: 0 success or witness found; 2 hypothesis violated; 3
counterexample candidate (or selftest failure); 4 input rejected by an
InputError.  Any other exception is a library bug and ends in a traceback.
Each command returns its JSON payload, a short human summary and its exit
code; `main` alone writes them, the JSON to stdout and the summary to
stderr.  Stdout is exactly `json.dumps(payload, indent=2)` plus a newline
(written by `jsonio.dumps`), and an `--output` file holds the same bytes.

`main` pauses Python's cyclic garbage collector while one subcommand runs
and writes its output, and restores the caller's setting on every exit.
The payloads are acyclic, so reference counting frees them, yet loading a
megabyte cover allocates tens of thousands of lists and tuples, and every
700 container allocations would start a collector pass that finds nothing.
"""

from __future__ import annotations

import argparse
import functools
import gc
import json
import os
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
    """Write the output file first, so that a path that cannot be written is
    an input error before stdout, which becomes the null device if closed."""
    text = jsonio.dumps(data)
    if out_path:
        try:
            with open(out_path, "w") as fh:
                fh.write(text + "\n")
        except OSError as exc:
            raise InputError(f"cannot write output {out_path!r}: {exc}") from None
    try:
        print(text, flush=True)
    except BrokenPipeError:
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    print(summary, file=sys.stderr)


def _cmd_ring(args):
    p = jsonio.polytope_from_json(_load_json(args.input))
    pres = chow.presentation(p)
    return (jsonio.presentation_to_json(pres),
            f"ring: {p.num_facets} generators, {len(pres.minimal_nonfaces)} minimal non-faces",
            EXIT_OK)


def _cmd_intersect(args):
    data = _load_json(args.input)
    p = jsonio.polytope_from_json(_field(data, "polytope"), "polytope")
    divisors = tuple(
        jsonio.divisor_from_json(p, d, f"divisors[{i}]")
        for i, d in enumerate(_field(data, "divisors", kind=list))
    )
    value = chow.intersection_number(chow.IntersectionQuery(p, divisors))
    return {"value": jsonio.frac_to_str(value)}, f"intersection number = {value}", EXIT_OK


def _cmd_principal(args):
    data = _load_json(args.input)
    p = jsonio.polytope_from_json(_field(data, "polytope"), "polytope")
    d = jsonio.divisor_from_json(p, _field(data, "divisor"), "divisor")
    v = chow.is_principal(p, d)
    if v is None:
        return {"principal": False}, "not principal", EXIT_OK
    return ({"principal": True, "vector": [jsonio.frac_to_str(x) for x in v]},
            f"principal with v = {tuple(map(str, v))}", EXIT_OK)


def _cmd_avoid(args):
    data = _load_json(args.input)
    p = jsonio.polytope_from_json(_field(data, "polytope"), "polytope")
    d = jsonio.divisor_from_json(p, _field(data, "divisor"), "divisor")
    touched = _ints(_field(data, "touched"), "touched")
    cert = chow.avoidance_certificate(p, d, touched)
    if cert is None:
        return {"exists": False}, "no avoidance certificate", EXIT_OK
    return ({"exists": True, "divisor": jsonio.divisor_to_json(cert)},
            f"certificate avoids facets {sorted(touched)}", EXIT_OK)


def _cmd_verify(args):
    witness, kind, extra = covering.THEOREMS[args.theorem]
    for option in ("k", "eps"):
        if getattr(args, option) is not None and extra != option:
            raise InputError(f"--{option} does not apply to the {args.theorem} theorem")
    data = _load_json(args.input)
    if kind is None:
        p, cover, eps = jsonio.point_cover_from_json(data)
        inputs = [p, cover, eps if args.eps is None else _frac(args.eps, "--eps")]
    else:
        inputs = [jsonio.cover_from_json(data)]
    if extra == "k":
        if args.k is None:
            raise InputError(f"--k is required for the {args.theorem} theorem")
        inputs.append(args.k)
    report = getattr(covering, witness)(*inputs)
    return jsonio.report_to_json(report), f"verdict: {report.verdict}", _VERDICT_EXIT[report.verdict]


def _cmd_color(args):
    cover = jsonio.cover_from_json(_load_json(args.input))
    classes = covering.palais_coloring(cover)
    data = {
        "classes": [
            [
                {"sets": list(piece.cover_sets), "points": piece.points}
                for piece in cls
            ]
            for cls in classes
        ]
    }
    return data, f"{len(classes)} color classes", EXIT_OK


def _cmd_generate(args):
    fixed = {"bricks": "cube", "kkm": "simplex"}.get(args.pattern)
    if args.kind is not None and fixed not in (None, args.kind):
        raise InputError(
            f"--kind {args.kind} does not apply: the {args.pattern} pattern covers the {fixed}"
        )
    for name in ("m", "seed"):
        if fixed and getattr(args, name) is not None:
            raise InputError(f"--{name} does not apply to the {args.pattern} pattern")
    if args.pattern == "bricks":
        cover = harness.shifted_brick_cover(args.n, args.r)
        data = jsonio.cover_payload(cover)
        summary = f"bricks: {len(cover.sets)} bricks on n={args.n} r={args.r}"
    elif args.pattern == "kkm":
        cover = harness.kkm_standard_cover(args.n, args.r)
        data = jsonio.cover_payload(cover)
        summary = f"kkm stars: {len(cover.sets)} sets"
    else:
        model = LatticeModel(args.kind or "cube", args.n, args.r)
        m = 2 if args.m is None else args.m
        stamped = harness.random_low_multiplicity_cover(model, m, args.seed or 0)
        data = jsonio.cover_payload(stamped.cover, multiplicity=stamped.multiplicity)
        summary = (
            f"random cover: {len(stamped.cover.sets)} sets, "
            f"measured multiplicity {stamped.multiplicity}"
        )
    return data, summary, EXIT_OK


def _cmd_moment(args):
    value = jsonio.moment_input_from_json(_load_json(args.input), args.kind)
    point = moment_map_eval(args.kind, value)
    return ({"point": [jsonio.frac_to_str(x) for x in point]},
            f"moment image: {tuple(map(str, point))}", EXIT_OK)


def _cmd_selftest(args):
    results = acceptance.run_all()
    ok = all(r.ok for r in results)
    for r in results:
        print(f"{'PASS' if r.ok else 'FAIL'}  {r.seconds:6.2f}s  {r.name}: {r.detail}",
              file=sys.stderr)
    data = {"criteria": [{"name": r.name, "ok": r.ok, "detail": r.detail} for r in results],
            "ok": ok}
    summary = ("selftest: " + ("all criteria passed" if ok else "FAILURES")
               + f" in {sum(r.seconds for r in results):.2f}s")
    return data, summary, EXIT_OK if ok else EXIT_COUNTEREXAMPLE


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
    p_verify.add_argument("--theorem", required=True, choices=list(covering.THEOREMS))
    takes_k = [name for name, (_, _, extra) in covering.THEOREMS.items() if extra == "k"]
    p_verify.add_argument("--k", type=int, help="face dimension for " + "/".join(takes_k))
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
    p_gen.add_argument("--kind", choices=["cube", "simplex"],
                       help="lattice model: random takes either (default cube), "
                       "bricks only cube, kkm only simplex")
    p_gen.add_argument("--m", type=int, help="target multiplicity (random only, default 2)")
    p_gen.add_argument("--seed", type=int, help="random seed (random only, default 0)")

    p_moment = add("moment", _cmd_moment, help="evaluate a moment map exactly")
    p_moment.add_argument(
        "--kind", required=True, choices=["cpn", "product_cp1", "real_sphere"]
    )

    add("selftest", _cmd_selftest, needs_input=False,
        help="run the full acceptance matrix")
    return parser


# one parser per process, built on first use: parse_args leaves it as it
# was and returns a fresh Namespace each call
_parser = functools.cache(build_parser)


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    enabled = gc.isenabled()
    gc.disable()
    try:
        payload, summary, code = args.fn(args)
        _emit(payload, summary, args.output)
    except InputError as exc:
        label = "input error" if type(exc) is InputError else f"error: {type(exc).__name__}"
        print(f"{label}: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR
    finally:
        if enabled:
            gc.enable()
    return code


if __name__ == "__main__":
    sys.exit(main())
