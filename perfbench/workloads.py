"""The benchmark's four workloads.

A workload is built from its seed (the set-up), warms up, and then hands out
rounds of items.  An item is one closed-loop operation: `run` calls the
program through the public functions of its modules and returns what came
out, and `check` compares that with the independent oracles, returning None
or a reason.  Every round of a workload has the same make-up, so the share of
failed items is the same in every run whatever its length or seed.

Functions are always looked up on their module at call time
(`chow.intersection_number`, never a bound name), so that the traced run's
wrappers see every call.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import os
import random
import sys
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

from toricover import chow, cli, covering, harness, jsonio, polytope

import oracles

WITNESS_FOUND = "witness_found"
TILT = Fraction(1, 100)
HUGE = -(2 ** 20)
"""A coefficient far beyond the nef lift's reach (chow.NEF_LIFT_CAP = 2^16)."""


@dataclass
class Item:
    label: str
    run: Callable
    check: Callable
    expected_error: type | None = None
    """An exception the program raises on this item every time, counted as a
    failed item without making the run incorrect."""


def _data(p):
    """A polytope as plain oracle data: integer normals, rational offsets."""
    return [tuple(u) for u in p.normals], [Fraction(c) for c in p.offsets]


def _facet(m, f, c=1):
    return [Fraction(c) if i == f else Fraction(0) for i in range(m)]


def _round_rng(seed, rnd):
    return random.Random(seed * 1_000_003 + rnd)


def _seeded_round(seed, rnd, make, configs):
    """One item per config, each with a fresh instance seed, in an order
    shuffled per round so that similar items land in different timing
    groups."""
    rng = _round_rng(seed, rnd)
    items = [make(c, rng.randrange(2 ** 31)) for c in configs]
    rng.shuffle(items)
    return items


def _perturb_check(base, p):
    """perturb keeps the incidence pattern and makes every normal n-subset
    independent."""
    got = {frozenset(t) for t, _ in oracles.vertex_cones(*_data(p))}
    if got != {frozenset(t) for t, _ in oracles.vertex_cones(*_data(base))}:
        return "perturbation changed the incidence pattern"
    normals = _data(p)[0]
    if any(oracles.int_det(s) == 0 for s in itertools.combinations(normals, p.dim)):
        return "perturbed normals are not generic"
    return None


# -------------------------------------------------------------- divisor_ring

def _closed_form(kind):
    simplex = oracles.simplex_closed_form
    return {
        "cube": oracles.cube_closed_form,
        "simplex": simplex,
        "prism": lambda ds: oracles.product_closed_form(
            2, 3, simplex, lambda qs: simplex(qs) if qs else 1, ds
        ),
        "p112": oracles.p112_closed_form,
    }.get(kind)


class DivisorRing:
    """Intersection numbers, ring presentations and avoidance certificates on
    Q^n and Delta^n (n = 2..4), the prism Delta^2 x Q^1, the non-Delzant
    triangle P(1,1,2) and seeded perturbed Q^3 and Delta^3.

    The fixed items are sized so that the median item is one of the ten Q^2
    products and the 90th percentile one of the six Delta^4 products, whose
    inputs do not depend on the seed.  Each round adds seeded items: random
    divisors on five shapes, and two fresh perturbations each of Q^3 and
    Delta^3 with their presentations, certificates and (for Delta^3) a top
    product."""

    FIXED = {
        "Q2": list(itertools.combinations_with_replacement(range(4), 2)),
        "S2": list(itertools.combinations_with_replacement(range(3), 2)),
        "P112": list(itertools.combinations_with_replacement(range(3), 2)),
        "S3": [(0, 1, 2), (3, 3, 3), (0, 1, 3), (0, 0, 1), (1, 2, 3)],
        "S2xQ1": [(0, 1, 3), (3, 4, 0), (0, 0, 3)],
        "Q3": [(0, 2, 4), (0, 1, 2), (1, 3, 5), (0, 3, 4), (0, 0, 2), (1, 2, 5)],
        "S4": [(0, 1, 2, 3), (1, 2, 3, 4), (0, 0, 1, 2), (4, 4, 4, 4), (0, 1, 1, 4), (2, 3, 4, 4)],
        "Q4": [(0, 2, 4, 6)],
    }
    RANDOM = ("S2", "P112", "S3", "S2xQ1", "Q3")

    def __init__(self, seed, root):
        self.seed = seed
        cs = polytope.construct_standard
        shapes = {}
        for n in (2, 3, 4):
            shapes[f"Q{n}"] = (cs("cube", n), "cube")
            shapes[f"S{n}"] = (cs("simplex", n), "simplex")
        shapes["S2xQ1"] = (polytope.product(shapes["S2"][0], cs("cube", 1)), "prism")
        shapes["P112"] = (
            polytope.from_halfspaces([(1, 0), (0, 1), (-1, -2)], [0, 0, 2]),
            "p112",
        )
        self.shapes = shapes

        items = []
        for key, monomials in self.FIXED.items():
            p, kind = shapes[key]
            for mono in monomials:
                divs = [_facet(p.num_facets, f) for f in mono]
                items.append(self._intersect(key, p, kind, divs))
        for key, mono in (("Q2", (0, 2)), ("S2", (0, 1)), ("P112", (0, 2))):
            p, kind = shapes[key]
            divs = [_facet(p.num_facets, mono[0], HUGE), _facet(p.num_facets, mono[1])]
            items.append(self._intersect(key, p, kind, divs, chow.NefLiftFailedError))
        rng = random.Random(seed)
        for key, (p, _) in shapes.items():
            items.append(self._ring(key, p, rng))
        self.items = items

    def round_items(self, rnd):
        """The fixed items plus this round's seeded ones (perturbing here is
        input generation and stays outside the timed items), shuffled so that
        similar items land in different timing groups."""
        rng = _round_rng(self.seed, rnd)
        items = list(self.items)
        for key in self.RANDOM:
            p, kind = self.shapes[key]
            divs = [
                [Fraction(rng.randint(-1, 3)) for _ in range(p.num_facets)]
                for _ in range(p.dim)
            ]
            items.append(self._intersect(key, p, kind, divs))
        for _ in range(2):
            s = rng.randrange(2 ** 16)
            pq = polytope.perturb(self.shapes["Q3"][0], TILT, seed=s)
            ps = polytope.perturb(self.shapes["S3"][0], TILT, seed=s)
            items.append(self._ring(f"pQ3#{s}", pq, rng))
            items.append(self._ring(f"pS3#{s}", ps, rng))
            divs = [_facet(4, f) for f in range(3)]
            items.append(self._intersect(f"pS3#{s}", ps, None, divs))
        rng.shuffle(items)
        return items

    @staticmethod
    def _intersect(key, p, kind, divs, expected_error=None):
        divisors = tuple(chow.Divisor(tuple(d)) for d in divs)
        want = {}

        def expected():
            if "value" not in want:
                value = oracles.brion_intersection(*_data(p), divs)
                closed = _closed_form(kind)
                if closed is not None and closed(divs) != value:
                    raise AssertionError(f"oracles disagree on {key} {divs}")
                want["value"] = value
            return want["value"]

        def run():
            return chow.intersection_number(chow.IntersectionQuery(p, divisors))

        def check(out):
            return None if out == expected() else f"got {out}, want {expected()}"

        coeffs = [[str(c) for c in d] for d in divs]
        return Item(f"intersect {key} {coeffs}", run, check, expected_error)

    @staticmethod
    def _ring(key, p, rng):
        """The presentation of one shape plus avoidance certificates of its
        ample class for two random touched facet sets (and, on cubes, one
        antiparallel pair, which has none)."""
        h = chow.ample_from_offsets(p)
        touched_sets = [
            sorted(rng.sample(range(p.num_facets), rng.randint(1, p.dim))) for _ in range(2)
        ]
        if key.startswith("Q"):
            touched_sets.append([0, 1])
        normals = _data(p)[0]

        def run():
            certs = [chow.avoidance_certificate(p, h, t) for t in touched_sets]
            return chow.presentation(p), certs

        def check(out):
            pres, certs = out
            bad = oracles.check_presentation(*_data(p), pres)
            for touched, cert in zip(touched_sets, certs):
                coeffs = None if cert is None else cert.coeffs
                bad = bad or oracles.check_certificate(normals, h.coeffs, touched, coeffs)
            return bad

        return Item(f"ring {key} avoiding {touched_sets}", run, check)

    def warm_up(self):
        q2 = self.shapes["Q2"][0]
        chow.presentation(q2)
        h = chow.ample_from_offsets(q2)
        chow.avoidance_certificate(q2, h, [0])
        chow.intersection_number(
            chow.IntersectionQuery(q2, (chow.Divisor.on_facet(q2, 0), chow.Divisor.on_facet(q2, 2)))
        )


# ------------------------------------------------------------- lattice_suite

class LatticeSuite:
    """Seeded instances of the lebesgue, palais, kkm, complement, axes and
    bricks-control suites, from the acceptance sizes up to cube n=3, r=24 and
    n=4, r=10.  Each item is generate -> verify -> re-validate."""

    CONFIGS = (
        ("lebesgue", "cube", 2, 16, 2),
        ("lebesgue", "cube", 3, 12, 3),
        ("lebesgue", "cube", 3, 24, 3),
        ("lebesgue", "cube", 4, 10, 4),
        ("palais", "cube", 2, 16, 2),
        ("palais", "cube", 3, 12, 3),
        ("palais", "cube", 3, 24, 3),
        ("palais", "cube", 4, 10, 3),
        ("kkm", "simplex", 2, 12, 1),
        ("kkm", "simplex", 2, 12, 2),
        ("kkm", "simplex", 3, 12, 1),
        ("kkm", "simplex", 3, 12, 2),
        ("kkm", "simplex", 3, 12, 3),
        ("kkm", "simplex", 3, 24, 2),
        ("kkm", "simplex", 4, 10, 3),
        ("complement", "cube", 2, 16, 1),
        ("complement", "cube", 3, 12, 2),
        ("complement", "cube", 3, 18, 2),
        ("complement", "cube", 4, 8, 3),
        ("axes", "cube", 2, 16, 0),
        ("axes", "cube", 3, 12, 0),
        ("axes", "cube", 3, 18, 0),
        ("axes", "cube", 4, 8, 0),
        ("bricks", "cube", 2, 16, 0),
        ("bricks", "cube", 3, 12, 0),
        ("bricks", "cube", 3, 24, 0),
    )
    """(suite, model kind, n, r, multiplicity target or k).  The complement
    and axes verifiers, whose cost varies most from instance to instance,
    stop at cube n=3, r=18 and n=4, r=8, so that the slowest tenth of the
    items is made of the steadier lebesgue, palais and bricks instances."""

    def __init__(self, seed, root):
        self.seed = seed
        self.models = {
            (kind, n, r): covering.LatticeModel(kind, n, r) for _, kind, n, r, _ in self.CONFIGS
        }

    def warm_up(self):
        for model in self.models.values():
            model.points()

    def round_items(self, rnd):
        return _seeded_round(self.seed, rnd, self._item, self.CONFIGS)

    def _item(self, config, iseed):
        suite, kind, n, r, m = config
        model = self.models[(kind, n, r)]
        label = f"{suite} {kind} n={n} r={r} m/k={m} instance seed {iseed}"
        run, check = getattr(self, "_" + suite)(model, n, r, m, iseed)
        return Item(label, run, check)

    @staticmethod
    def _lebesgue(model, n, r, m, iseed):
        def run():
            stamped = harness.random_low_multiplicity_cover(model, m, iseed)
            cover = stamped.cover
            report = covering.lebesgue_witness(cover)
            ok = stamped.multiplicity == covering.multiplicity(cover)
            if report.verdict == WITNESS_FOUND:
                ok = ok and covering.spans_pair(cover, report.payload["set"], report.payload["axis"])
            return stamped, report, ok

        def check(out):
            stamped, report, ok = out
            sets = stamped.cover.sets
            if oracles.multiplicity(sets) != stamped.multiplicity or stamped.multiplicity > m:
                return f"stamped multiplicity {stamped.multiplicity} is wrong"
            if not ok:
                return "program re-validation failed"
            return oracles.check_lebesgue(n, r, sets, report.verdict, report.payload)

        return run, check

    @staticmethod
    def _palais(model, n, r, m, iseed):
        def run():
            cover = harness.random_low_multiplicity_cover(model, m, iseed).cover
            classes = covering.palais_coloring(cover)
            return cover, classes, len(classes) == covering.multiplicity(cover)

        def check(out):
            cover, classes, ok = out
            if not ok:
                return "program re-validation failed"
            pieces = [[(pc.cover_sets, pc.points) for pc in cls] for cls in classes]
            return oracles.check_coloring(cover.sets, pieces)

        return run, check

    @staticmethod
    def _family(witness, model, n, r, k, iseed):
        def run():
            cover = harness.random_small_set_family(model, k, iseed)
            report = witness(cover, k)
            ok = True
            if report.verdict == WITNESS_FOUND:
                comp = {tuple(q) for q in report.payload["component"]}
                ok = comp <= covering.complement_points(cover)
            return cover, report, ok

        return run

    def _kkm(self, model, n, r, k, iseed):
        def check(out):
            cover, report, ok = out
            if not ok:
                return "program re-validation failed"
            return oracles.check_kkm(n, r, k, cover.sets, report.verdict, report.payload)

        return self._family(covering.kkm_witness, model, n, r, k, iseed), check

    def _complement(self, model, n, r, k, iseed):
        def check(out):
            cover, report, ok = out
            if not ok:
                return "program re-validation failed"
            return oracles.check_complement(n, r, k, cover.sets, report.verdict, report.payload)

        return self._family(covering.complement_witness, model, n, r, k, iseed), check

    @staticmethod
    def _axes(model, n, r, m, iseed):
        def run():
            cover = harness.dilated_partition_cover(model, n, iseed)
            report = covering.axes_witness(cover)
            ok = True
            if report.verdict == WITNESS_FOUND:
                comp = {tuple(q) for q in report.payload["component"]}
                ok = comp <= cover.sets[report.payload["set"]]
            return cover, report, ok

        def check(out):
            cover, report, ok = out
            if not ok:
                return "program re-validation failed"
            return oracles.check_axes(n, r, cover.names(), cover.sets, report.verdict, report.payload)

        return run, check

    @staticmethod
    def _bricks(model, n, r, m, iseed):
        def run():
            cover = harness.shifted_brick_cover(n, r)
            report = covering.lebesgue_witness(cover)
            ok = not any(
                covering.spans_pair(cover, name, axis) for name in cover.sets for axis in range(n)
            )
            return cover, report, ok

        def check(out):
            cover, report, ok = out
            if not ok:
                return "program re-validation failed"
            return oracles.check_bricks_control(n, r, cover.sets, report.verdict, report.payload)

        return run, check


# -------------------------------------------------------------- sample_cover

def _kkm_lebesgue_payload(payload):
    """The report payload with certificates reduced to coefficient lists."""
    certs = {
        name: None if entry is None else list(entry["divisor"].coeffs)
        for name, entry in payload.get("certificates", {}).items()
    }
    return {**payload, "certificates": certs}


class SampleCover:
    """perturb -> polytope_sample_cover (which takes the lattice sample) ->
    kkm_lebesgue_witness with certificates, on perturbed Q^3 and Delta^3 at
    r = 6..8 and perturbed Q^4 at r = 3."""

    CONFIGS = (
        ("cube", 3, 6),
        ("cube", 3, 6),
        ("cube", 3, 7),
        ("cube", 3, 8),
        ("cube", 3, 8),
        ("simplex", 3, 6),
        ("simplex", 3, 7),
        ("simplex", 3, 8),
        ("cube", 4, 3),
    )
    """Cube n=3 at r=6 and r=8 come twice, so that the median and the 90th
    percentile fall among several items of one kind rather than between
    two kinds."""

    def __init__(self, seed, root):
        self.seed = seed
        self.bases = {
            (kind, n): polytope.construct_standard(kind, n) for kind, n, _ in self.CONFIGS
        }

    def warm_up(self):
        p = polytope.perturb(self.bases[("simplex", 3)], TILT, seed=self.seed)
        harness.polytope_sample_cover(p, 2, 2, self.seed)

    def round_items(self, rnd):
        return _seeded_round(self.seed, rnd, self._item, self.CONFIGS)

    def _item(self, config, iseed):
        kind, n, r = config
        base = self.bases[(kind, n)]

        def run():
            p = polytope.perturb(base, TILT, seed=iseed)
            cover, eps = harness.polytope_sample_cover(p, r, 2, iseed)
            report = covering.kkm_lebesgue_witness(p, cover, eps)
            ok = True
            if report.verdict == WITNESS_FOUND:
                name = report.payload["set"]
                ok = set(report.payload["touched"]) == covering.facet_touch_set(
                    p, cover.sets[name], eps
                )
            return p, cover, eps, report, ok

        def check(out):
            p, cover, eps, report, ok = out
            if not ok:
                return "program re-validation failed"
            bad = _perturb_check(base, p)
            if bad:
                return bad
            if eps != Fraction(1, r):
                return f"sample cover eps {eps}, expected one grid spacing"
            return oracles.check_kkm_lebesgue(
                *_data(p), r, cover.sample, cover.sets, eps,
                report.verdict, _kkm_lebesgue_payload(report.payload),
            )

        return Item(f"kkm-lebesgue {kind} n={n} r={r} instance seed {iseed}", run, check)


# ------------------------------------------------------------- cli_roundtrip

def _polytope_from_json(data):
    return (
        [tuple(int(x) for x in f["normal"]) for f in data["facets"]],
        [Fraction(f["offset"]) for f in data["facets"]],
    )


def _divisor_from_json(m, data):
    coeffs = [Fraction(0)] * m
    for k, v in data["coeffs"].items():
        coeffs[int(k)] = Fraction(v)
    return coeffs


def _cover_from_json(data):
    model = data["model"]
    sets = {name: {tuple(p) for p in pts} for name, pts in data["sets"].items()}
    return model["kind"], model["n"], model["r"], sets


EXIT = {"witness_found": 0, "hypothesis_violated": 2, "counterexample_candidate": 3}


class CliRoundtrip:
    """In-process toricover.cli.main on every subcommand but selftest, stdin
    and stdout captured: the schemas/*.json payloads, generated covers piped
    from generate into verify and color (bricks and random covers up to n=3,
    r=24), and serialized sample covers carrying their eps."""

    def __init__(self, seed, root):
        self.seed = seed
        self.count = None
        """Set by the traced run to a counter callable(name, amount)."""
        schemas = {}
        for name in ("ring", "intersect", "principal", "avoid", "verify",
                     "verify-kkm-lebesgue", "color", "moment"):
            with open(os.path.join(root, "schemas", name + ".json")) as fh:
                schemas[name] = fh.read()
        self.pipe = {}
        items = []
        add = items.append

        add(self._ring(schemas["ring"]))
        add(self._intersect(schemas["intersect"]))
        add(self._principal(schemas["principal"]))
        add(self._avoid(schemas["avoid"]))
        add(self._verify("lebesgue", schemas["verify"]))
        add(self._verify("kkm-lebesgue", schemas["verify-kkm-lebesgue"]))
        add(self._color(schemas["color"]))
        add(self._moment("cpn", schemas["moment"]))
        add(self._moment("product_cp1", json.dumps(
            {"input": [[["1", "1/2"], ["2", "0"]], [["0", "0"], ["3", "-1"]]]})))
        add(self._moment("real_sphere", json.dumps({"input": ["1", "-2/3", "5"]})))

        # seed-independent generated covers, piped generate -> verify / color
        bricks3 = Pipe("bricks n=3 r=24")
        add(self._generate(bricks3, ["--pattern", "bricks", "--n", "3", "--r", "24"]))
        add(self._verify("lebesgue", bricks3, control=True))
        add(self._color(bricks3))
        bricks2 = Pipe("bricks n=2 r=16")
        add(self._generate(bricks2, ["--pattern", "bricks", "--n", "2", "--r", "16"]))
        add(self._verify("lebesgue", bricks2, control=True))
        stars = Pipe("kkm stars n=3 r=12")
        add(self._generate(stars, ["--pattern", "kkm", "--n", "3", "--r", "12"]))
        add(self._verify("kkm", stars, ["--k", "3"]))
        self.items = items

    def round_items(self, rnd):
        """The fixed calls plus this round's seeded payloads (generating and
        serializing them here is input generation, outside the timed
        calls)."""
        rng = _round_rng(self.seed, rnd)
        self.pipe.clear()
        items = list(self.items)
        add = items.append

        # perturbed shapes for the divisor subcommands
        for kind in ("cube", "simplex"):
            s = rng.randrange(2 ** 16)
            p = polytope.perturb(polytope.construct_standard(kind, 3), TILT, seed=s)
            pj = jsonio.polytope_to_json(p)
            add(self._ring(json.dumps(pj)))
            if kind == "simplex":
                d = [jsonio.divisor_to_json(chow.Divisor.on_facet(p, f)) for f in range(3)]
                add(self._intersect(json.dumps({"polytope": pj, "divisors": d})))
            h = jsonio.divisor_to_json(chow.ample_from_offsets(p))
            touched = sorted(rng.sample(range(p.num_facets), 3))
            add(self._avoid(json.dumps({"polytope": pj, "divisor": h, "touched": touched})))
            flux = [rng.randint(-3, 3) for _ in range(3)]
            principal = {str(f): str(sum(a * b for a, b in zip(u, flux)))
                         for f, u in enumerate(p.normals)}
            add(self._principal(json.dumps({"polytope": pj, "divisor": {"coeffs": principal}})))

        # random covers, piped generate -> verify / color
        random3 = Pipe("random cube n=3 r=24")
        add(self._generate(random3, ["--pattern", "random", "--n", "3", "--r", "24",
                                     "--m", "3", "--seed", str(rng.randrange(2 ** 16))]))
        add(self._verify("lebesgue", random3))
        add(self._color(random3))
        random_simplex = Pipe("random simplex n=3 r=12")
        add(self._generate(random_simplex, ["--pattern", "random", "--kind", "simplex",
                                            "--n", "3", "--r", "12", "--m", "2",
                                            "--seed", str(rng.randrange(2 ** 16))]))
        add(self._color(random_simplex))

        # families and a partition
        for kind, n, r, k in (("simplex", 3, 12, 2), ("cube", 3, 12, 2)):
            model = covering.LatticeModel(kind, n, r)
            fam = harness.random_small_set_family(model, k, rng.randrange(2 ** 31))
            theorem = "kkm" if kind == "simplex" else "complement"
            add(self._verify(theorem, json.dumps(jsonio.cover_to_json(fam)), ["--k", str(k)]))
        part = harness.dilated_partition_cover(covering.LatticeModel("cube", 3, 12), 3,
                                               rng.randrange(2 ** 31))
        add(self._verify("axes", json.dumps(jsonio.cover_to_json(part))))

        # sample covers with their eps
        for kind, r in (("cube", 8), ("simplex", 8), ("cube", 6)):
            s = rng.randrange(2 ** 16)
            p = polytope.perturb(polytope.construct_standard(kind, 3), TILT, seed=s)
            cover, eps = harness.polytope_sample_cover(p, r, 2, s)
            add(self._verify("kkm-lebesgue", json.dumps(jsonio.point_cover_to_json(p, cover, eps))))
        return items

    # -- running

    def _call(self, argv, stdin_text):
        out, err = io.StringIO(), io.StringIO()
        saved = sys.stdin
        sys.stdin = io.StringIO(stdin_text)
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli.main(argv)
        finally:
            sys.stdin = saved
        text = out.getvalue()
        if self.count is not None:
            self.count("cli.bytes_in", len(stdin_text.encode()))
            self.count("cli.bytes_out", len(text.encode()))
        return code, text

    def _item(self, argv, source, check, pipe_to=None):
        """source is the stdin text, or the Pipe an earlier generate filled."""

        def run():
            text = self.pipe[source] if isinstance(source, Pipe) else source
            code, out = self._call(argv, text)
            if pipe_to is not None:
                self.pipe[pipe_to] = out
            return code, out, text

        def checked(result):
            code, out, text = result
            return check(code, json.loads(out), json.loads(text) if text else None)

        where = f" <{source.name}>" if isinstance(source, Pipe) else ""
        return Item(f"cli {' '.join(argv)}{where}", run, checked)

    # -- subcommands

    def _ring(self, text):
        def check(code, out, inp):
            normals, offsets = _polytope_from_json(inp)
            if code != 0:
                return f"exit {code}"
            pres = _Pres(
                [int(g[2:]) for g in out["generators"]],
                out["linear_relations"],
                [frozenset(s) for s in out["minimal_nonfaces"]],
            )
            return oracles.check_presentation(normals, offsets, pres)

        return self._item(["ring", "--input", "-"], text, check)

    def _intersect(self, text):
        def check(code, out, inp):
            normals, offsets = _polytope_from_json(inp["polytope"])
            divs = [_divisor_from_json(len(normals), d) for d in inp["divisors"]]
            want = oracles.brion_intersection(normals, offsets, divs)
            if code != 0 or Fraction(out["value"]) != want:
                return f"exit {code}, value {out.get('value')}, want {want}"
            return None

        return self._item(["intersect", "--input", "-"], text, check)

    def _principal(self, text):
        def check(code, out, inp):
            normals, _ = _polytope_from_json(inp["polytope"])
            d = _divisor_from_json(len(normals), inp["divisor"])
            if code != 0:
                return f"exit {code}"
            if not out["principal"]:
                return "solvable flux reported not principal" if oracles.consistent(normals, d) else None
            v = [Fraction(x) for x in out["vector"]]
            if any(sum(a * b for a, b in zip(u, v)) != c for u, c in zip(normals, d)):
                return "flux vector does not reproduce the divisor"
            return None

        return self._item(["principal", "--input", "-"], text, check)

    def _avoid(self, text):
        def check(code, out, inp):
            normals, _ = _polytope_from_json(inp["polytope"])
            h = _divisor_from_json(len(normals), inp["divisor"])
            cert = _divisor_from_json(len(normals), out["divisor"]) if out["exists"] else None
            if code != 0:
                return f"exit {code}"
            return oracles.check_certificate(normals, h, inp["touched"], cert)

        return self._item(["avoid", "--input", "-"], text, check)

    def _verify(self, theorem, source, extra=(), control=False):
        """control marks the brick cover, where hypothesis_violated is right."""
        argv = ["verify", "--theorem", theorem, "--input", "-", *extra]

        def check(code, out, inp):
            verdict, payload = out["verdict"], out["payload"]
            if code != EXIT[verdict]:
                return f"exit {code} for verdict {verdict}"
            if theorem == "kkm-lebesgue":
                normals, offsets = _polytope_from_json(inp["polytope"])
                sample = [tuple(Fraction(x) for x in pt) for pt in inp["sample"]]
                sets = {name: [sample[i] for i in idx] for name, idx in inp["sets"].items()}
                r = oracles.lcm_denominators(x for pt in sample for x in pt)
                if verdict == WITNESS_FOUND:
                    payload = dict(payload, certificates={
                        name: None if e is None else _divisor_from_json(len(normals), e["divisor"])
                        for name, e in payload["certificates"].items()
                    })
                return oracles.check_kkm_lebesgue(
                    normals, offsets, r, sample, sets, Fraction(inp["eps"]), verdict, payload)
            kind, n, r, sets = _cover_from_json(inp)
            if control:
                return oracles.check_bricks_control(n, r, sets, verdict, payload)
            if theorem == "lebesgue":
                return oracles.check_lebesgue(n, r, sets, verdict, payload)
            k = int(extra[1]) if extra else 0
            if theorem == "kkm":
                return oracles.check_kkm(n, r, k, sets, verdict, payload)
            if theorem == "complement":
                return oracles.check_complement(n, r, k, sets, verdict, payload)
            return oracles.check_axes(n, r, list(inp["sets"]), sets, verdict, payload)

        return self._item(argv, source, check)

    def _color(self, source):
        def check(code, out, inp):
            _, _, _, sets = _cover_from_json(inp)
            if code != 0:
                return f"exit {code}"
            classes = [[(p["sets"], p["points"]) for p in cls] for cls in out["classes"]]
            return oracles.check_coloring(sets, classes)

        return self._item(["color", "--input", "-"], source, check)

    def _generate(self, pipe, args):
        argv = ["generate"] + args
        opts = dict(zip(args[::2], args[1::2]))

        def check(code, out, _):
            kind, n, r, sets = _cover_from_json(out)
            if code != 0:
                return f"exit {code}"
            if opts["--pattern"] == "bricks":
                return oracles.check_bricks_control(
                    n, r, sets, "hypothesis_violated", {"multiplicity": n + 1})
            points = oracles.model_points(kind, n, r)
            if opts["--pattern"] == "kkm":
                want = {f"star_{i}": {p for p in points if p[i] == max(p)} for i in range(n + 1)}
                return None if sets == want else "kkm stars differ from the closed form"
            mult = oracles.multiplicity(sets)
            if oracles.union(sets) != points or mult != out["multiplicity"] or mult > int(opts["--m"]):
                return f"random cover is not a cover of stamped multiplicity {mult}"
            return None

        return self._item(argv, "", check, pipe_to=pipe)

    def _moment(self, kind, text):
        def check(code, out, inp):
            if code != 0:
                return f"exit {code}"
            raw = inp["input"]
            if kind == "cpn":
                w = [Fraction(a) ** 2 + Fraction(b) ** 2 for a, b in raw]
                want = [x / sum(w) for x in w]
            elif kind == "product_cp1":
                want = []
                for z0, z1 in raw:
                    w0 = sum(Fraction(x) ** 2 for x in z0)
                    w1 = sum(Fraction(x) ** 2 for x in z1)
                    want.append(w1 / (w0 + w1))
            else:
                sq = [Fraction(x) ** 2 for x in raw]
                want = [x / sum(sq) for x in sq]
            return None if [Fraction(x) for x in out["point"]] == want else "moment point differs"

        return self._item(["moment", "--kind", kind, "--input", "-"], text, check)

    def warm_up(self):
        self._call(["ring", "--input", "-"], _SQUARE)



@dataclass(frozen=True)
class Pipe:
    """Names the stdout of a generate item that later items read as stdin."""

    name: str


@dataclass
class _Pres:
    generators: list
    linear_relations: list
    minimal_nonfaces: list


_SQUARE = json.dumps({"dim": 2, "facets": [
    {"normal": [1, 0], "offset": "0"}, {"normal": [-1, 0], "offset": "1"},
    {"normal": [0, 1], "offset": "0"}, {"normal": [0, -1], "offset": "1"}]})


WORKLOADS = {
    "divisor_ring": DivisorRing,
    "lattice_suite": LatticeSuite,
    "sample_cover": SampleCover,
    "cli_roundtrip": CliRoundtrip,
}
