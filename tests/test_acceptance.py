"""The acceptance gate: every criterion at full scale, one pass/fail line
each.  Run with -s to see the lines as they complete."""

import pytest

from toricover import acceptance, harness

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
    """Exhaustive tiny enumeration: zero violations, verifier agrees."""
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
