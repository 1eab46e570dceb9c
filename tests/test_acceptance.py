"""The acceptance gate: every criterion at full scale, one pass/fail line
each.  Run with -s to see the lines as they complete."""

import itertools
from fractions import Fraction

import pytest

from toricover import acceptance, chow, covering, harness
from toricover.covering import WitnessReport

CRITERIA = {fn.__name__: fn for fn in acceptance.ALL_CRITERIA}


def _check(name):
    result = CRITERIA[name]()
    print(f"{'PASS' if result.ok else 'FAIL'}  {result.name}: {result.detail}")
    assert result.ok, f"{result.name}: {result.detail}"


def test_ring_golden():
    """Q^n presentation reduces to Z[c_1..c_n]/(c_i^2=0), n = 1..4, exact."""
    _check("ring_golden")


def test_volume_link():
    """self_intersection_top(ample) = n! * volume for Q^n and the simplex."""
    _check("volume_link")


def test_principal_identity():
    """sum(F_j^- + F_j^+) ~ 2 sum(F_j^-) on Q^n, exact."""
    _check("principal_identity")


def test_flux_certificates():
    """50 seeded perturbed generic polytopes: certificates for all subsets
    of size <= n, zero failures."""
    _check("flux_certificates")


def test_palais_suite():
    """200 seeded covers per config: refinement, disjointness, union kept."""
    _check("palais_suite")


def test_lebesgue_suite():
    """200 seeded full covers per config all yield spanning witnesses; the
    brick control is flagged with multiplicity n+1."""
    _check("lebesgue_suite")


def test_kkm_suite():
    """100 seeded facet-missing families per (n, k): complement component
    meeting every k-face found in every instance."""
    _check("kkm_suite")


def test_axes_suite():
    """100 seeded n-set covers per config: a component of some X_i spans its
    own axis pair in every instance."""
    _check("axes_suite")


def test_kkm_lebesgue_suite():
    """50 seeded sample covers per shape: witness with >= n+1 touched facets
    and certificates for every small set."""
    _check("kkm_lebesgue_suite")


def test_oracle():
    """The census's {0,1}^2 Lebesgue slice: the verifier agrees with the
    point brute force on all 256 labellings."""
    _check("oracle")


@pytest.mark.parametrize(
    "name, verifier, seed, where",
    [
        ("palais_suite", "palais", 3003, "palais cube n=3 r=12"),
        ("lebesgue_suite", "lebesgue", 4002, "lebesgue cube n=2 r=16"),
        ("kkm_suite", "kkm", 9201, "kkm simplex n=3 r=12 k=2"),
        ("axes_suite", "axes", 8004, "axes cube n=2 r=16"),
        ("kkm_lebesgue_suite", "kkm_lebesgue", 6001, "kkm_lebesgue simplex n=3 r=6"),
    ],
)
def test_failure_names_its_seed(monkeypatch, name, verifier, seed, where):
    """A verifier failing on one seed fails its criterion, and the detail
    names that instance seed for replay."""
    original = harness._run_instance

    def fail_once(config, iseed):
        if config.verifier == verifier and iseed == seed:
            return "counterexample_candidate", False
        return original(config, iseed)

    monkeypatch.setattr(harness, "_run_instance", fail_once)
    result = CRITERIA[name](5)
    assert not result.ok
    assert result.detail == f"{where} fails at seed {seed}"


@pytest.mark.parametrize(
    "name, module, function, call, value, detail",
    [
        ("ring_golden", chow, "is_principal", 3, None, "pair 1 not principal at n=2"),
        ("volume_link", chow, "volume", 4, Fraction(7), "vol(simplex,2) = 7"),
        ("principal_identity", chow, "linearly_equivalent", 3, False, "n=3"),
        ("flux_certificates", chow, "avoidance_certificate", 2, None, "seed 0 subset (0,)"),
        # call 28 is labelling (0, 1, 2, 3), four singletons; call 1 is (0, 0, 0, 0)
        ("oracle", covering, "lebesgue_witness", 28, WitnessReport("witness_found", {}),
         "labelling (0, 1, 2, 3) reads witness_found"),
        ("oracle", covering, "lebesgue_witness", 1,
         WitnessReport("counterexample_candidate", {}),
         "labelling (0, 0, 0, 0) reads counterexample_candidate"),
    ],
    ids=["ring_golden", "volume_link", "principal_identity", "flux_certificates",
         "oracle-false-witness", "oracle-missed-witness"],
)
def test_failure_names_its_instance(monkeypatch, name, module, function, call, value, detail):
    """A library call that answers wrongly once fails its criterion, and the
    detail names the instance it failed on."""
    original = getattr(module, function)
    calls = itertools.count(1)

    def wrong_once(*args):
        return value if next(calls) == call else original(*args)

    monkeypatch.setattr(module, function, wrong_once)
    result = CRITERIA[name]()
    assert (result.ok, result.detail) == (False, detail)
