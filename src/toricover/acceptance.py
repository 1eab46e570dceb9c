"""The acceptance matrix: every exit criterion of the library as a runnable
check.  tests/test_acceptance.py runs each criterion; `run_all` runs them all
for the CLI selftest and times each one.

Each criterion returns a CriterionResult; ok=False anywhere means the build
fails.  The seeded criteria are lists of harness.SuiteConfig, all run by
harness.run_property_suite; a failing one names the seed of its first failing
instance, which replays it.
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass, field, replace
from fractions import Fraction

from . import chow, covering, harness
from .chow import Divisor, IntersectionQuery
from .covering import COUNTEREXAMPLE_CANDIDATE, WITNESS_FOUND, LatticeCover, LatticeModel
from .harness import SuiteConfig
from .polytope import construct_standard, cube_facet_id, generic_normals_check, perturb


@dataclass(frozen=True)
class CriterionResult:
    name: str
    ok: bool
    detail: str
    seconds: float = field(default=0.0, compare=False)


def _cube_axis_class(p, axis):
    """The divisor of the lower facet of an axis: the axis class c_{axis}."""
    return Divisor.on_facet(p, cube_facet_id(axis, "-"))


def ring_golden() -> CriterionResult:
    """presentation(Q^n) carries the relations of Z[c_1..c_n]/(c_i^2 = 0):
    antiparallel pairs are identified by principal divisors and are exactly
    the minimal non-faces; the squarefree top product is 1 and any product
    with a repeated axis is 0.  Exact, n = 1..4."""
    for n in range(1, 5):
        q = construct_standard("cube", n)
        pres = chow.presentation(q)
        expected_nonfaces = {
            frozenset({cube_facet_id(j, "-"), cube_facet_id(j, "+")})
            for j in range(n)
        }
        if set(pres.minimal_nonfaces) != expected_nonfaces:
            return CriterionResult("ring_golden", False, f"nonfaces wrong at n={n}")
        for j in range(n):
            pair = Divisor.on_facet(q, cube_facet_id(j, "+")) - Divisor.on_facet(
                q, cube_facet_id(j, "-")
            )
            v = chow.is_principal(q, pair)
            if v is None:
                return CriterionResult(
                    "ring_golden", False, f"pair {j} not principal at n={n}"
                )
        full = IntersectionQuery(q, tuple(_cube_axis_class(q, j) for j in range(n)))
        if chow.intersection_number(full) != 1:
            return CriterionResult("ring_golden", False, f"top product != 1 at n={n}")
        if n >= 2:
            repeated = IntersectionQuery(
                q,
                (_cube_axis_class(q, 0),)
                + tuple(_cube_axis_class(q, j) for j in range(n - 1)),
            )
            if chow.intersection_number(repeated) != 0:
                return CriterionResult(
                    "ring_golden", False, f"repeated axis != 0 at n={n}"
                )
    return CriterionResult("ring_golden", True, "n=1..4 exact")


def volume_link() -> CriterionResult:
    """self_intersection_top of the ample divisor equals n! * volume, which is
    n! for Q^n and 1 for the simplex, n = 1..4.

    The two sides are computed apart: the product by localization at the
    vertices, the volume by triangulation, so the criterion checks one against
    the other."""
    fact = 1
    for n in range(1, 5):
        fact *= n
        for kind, expected_vol in (("cube", Fraction(1)), ("simplex", Fraction(1, fact))):
            p = construct_standard(kind, n)
            vol = chow.volume(p)
            if vol != expected_vol:
                return CriterionResult(
                    "volume_link", False, f"vol({kind},{n}) = {vol}"
                )
            top = chow.self_intersection_top(p, chow.ample_from_offsets(p))
            if top != fact * vol:
                return CriterionResult(
                    "volume_link", False, f"selfint({kind},{n}) = {top}"
                )
    return CriterionResult("volume_link", True, "n=1..4 exact")


def principal_identity() -> CriterionResult:
    """sum_j (F_j^- + F_j^+) is linearly equivalent to sum_j 2 F_j^- on Q^n."""
    for n in range(1, 5):
        q = construct_standard("cube", n)
        all_facets = Divisor(tuple(Fraction(1) for _ in range(q.num_facets)))
        doubled = Divisor.from_map(
            q, {cube_facet_id(j, "-"): Fraction(2) for j in range(n)}
        )
        if not chow.linearly_equivalent(q, all_facets, doubled):
            return CriterionResult("principal_identity", False, f"n={n}")
    return CriterionResult("principal_identity", True, "n=1..4 exact")


def flux_certificates(instances: int = 50) -> CriterionResult:
    """On seeded perturbed cubes and simplices (n = 2, 3) with generic
    normals, an avoidance certificate exists for every facet subset of size
    at most n."""
    shapes = [("cube", 2), ("cube", 3), ("simplex", 2), ("simplex", 3)]
    for seed in range(instances):
        kind, n = shapes[seed % len(shapes)]
        base = construct_standard(kind, n)
        p = perturb(base, Fraction(1, 64), seed=seed)
        if not generic_normals_check(p):
            return CriterionResult("flux_certificates", False, f"seed {seed} not generic")
        h = chow.ample_from_offsets(p)
        for size in range(n + 1):
            for touched in itertools.combinations(p.facet_ids(), size):
                cert = chow.avoidance_certificate(p, h, touched)
                if cert is None or any(cert.coeffs[f] != 0 for f in touched):
                    return CriterionResult(
                        "flux_certificates", False, f"seed {seed} subset {touched}"
                    )
    return CriterionResult("flux_certificates", True, f"{instances} seeded polytopes")


def _suites(name: str, configs, detail: str) -> CriterionResult:
    """Run each config through harness.run_property_suite; a failure names
    the config and the seed of its first failing instance for replay."""
    for c in configs:
        report = harness.run_property_suite(c)
        if not report["ok"]:
            where = f"{c.verifier} {c.kind} n={c.n} r={c.r}" + (f" k={c.k}" if c.k else "")
            seed = c.seed + report["failures"][0]
            return CriterionResult(name, False, f"{where} fails at seed {seed}")
    return CriterionResult(name, True, detail)


def palais_suite(instances: int = 200) -> CriterionResult:
    """Colorings of seeded random covers satisfy refinement, within-color
    disjointness, and union preservation for (n,r) in {(2,16),(3,12)} and
    multiplicity targets 2 and 3 (alternating with the seed)."""
    configs = [
        SuiteConfig(verifier="palais", kind="cube", n=n, r=r, instances=1,
                    seed=1000 * n + i, multiplicity=2 + i % 2)
        for n, r in ((2, 16), (3, 12))
        for i in range(instances)
    ]
    return _suites("palais_suite", configs, f"{instances} covers per config")


def lebesgue_suite(instances: int = 200) -> CriterionResult:
    """Seeded full covers with multiplicity <= n always yield a spanning
    witness; the shifted-brick control is flagged hypothesis_violated with
    multiplicity n+1."""
    configs = []
    for n, r in ((2, 16), (3, 12)):
        configs += [
            SuiteConfig(verifier="lebesgue", kind="cube", n=n, r=r,
                        instances=instances, seed=2000 * n, multiplicity=n),
            SuiteConfig(verifier="bricks_control", kind="cube", n=n, r=r,
                        instances=1, seed=0),
        ]
    return _suites("lebesgue_suite", configs, f"{instances} covers per config")


def kkm_suite(instances: int = 100) -> CriterionResult:
    """Seeded facet-missing families on the simplex with multiplicity <= k
    always leave a complement component meeting every k-face (n = 2, 3,
    r = 12, k = 1..n)."""
    configs = [
        SuiteConfig(verifier="kkm", kind="simplex", n=n, r=12, instances=instances,
                    seed=3000 * n + 100 * k, k=k)
        for n in (2, 3)
        for k in range(1, n + 1)
    ]
    return _suites("kkm_suite", configs, f"{instances} families per (n,k)")


def axes_suite(instances: int = 100) -> CriterionResult:
    """Seeded n-set full covers of the cube always contain a component of the
    i-th set spanning the i-th axis pair (n = 2, 3)."""
    configs = [
        SuiteConfig(verifier="axes", kind="cube", n=n, r=r, instances=instances,
                    seed=4000 * n)
        for n, r in ((2, 16), (3, 12))
    ]
    return _suites("axes_suite", configs, f"{instances} covers per config")


def kkm_lebesgue_suite(instances: int = 50) -> CriterionResult:
    """On seeded sample covers of perturbed Q^3 and the perturbed simplex, an
    essential set, one whose touched facets admit no avoidance certificate,
    is always found, and every set with at most n touched facets carries an
    inessentiality certificate."""
    configs = [
        SuiteConfig(verifier="kkm_lebesgue", kind=kind, n=3, r=6, instances=instances,
                    seed=seed, multiplicity=2)
        for kind, seed in (("cube", 5000), ("simplex", 6000))
    ]
    return _suites("kkm_lebesgue_suite", configs, f"{instances} covers per shape")


def oracle() -> CriterionResult:
    """The Lebesgue slice of the census in tests/test_census.py: every
    labelling of the 4 points of {0,1}^2 by sets X0..X3, empty sets kept.
    Each is a cover of multiplicity 1, and lebesgue_witness must find a
    witness exactly when some set holds both ends of an axis; the 24
    labellings by four singletons hold none.  A failure names its labelling,
    the set index of each point in model.points() order."""
    model = LatticeModel("cube", 2, 1)
    points = model.points()
    candidates = 0
    for labels in itertools.product(range(4), repeat=len(points)):
        sets = {f"X{c}": [p for p, x in zip(points, labels) if x == c] for c in range(4)}
        spanning = any(len({p[a] for p in pts}) == 2 for pts in sets.values() for a in (0, 1))
        verdict = covering.lebesgue_witness(LatticeCover(model, sets)).verdict
        if verdict != (WITNESS_FOUND if spanning else COUNTEREXAMPLE_CANDIDATE):
            return CriterionResult("oracle", False, f"labelling {labels} reads {verdict}")
        candidates += not spanning
    return CriterionResult("oracle", True, f"{4 ** len(points)} covers, {candidates} candidates")


ALL_CRITERIA = (
    ring_golden,
    volume_link,
    principal_identity,
    flux_certificates,
    palais_suite,
    lebesgue_suite,
    kkm_suite,
    axes_suite,
    kkm_lebesgue_suite,
    oracle,
)


def run_all():
    """Run every acceptance criterion at full size, each result carrying its
    seconds."""
    results = []
    for fn in ALL_CRITERIA:
        t0 = time.perf_counter()
        results.append(replace(fn(), seconds=time.perf_counter() - t0))
    return results
