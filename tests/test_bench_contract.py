"""The benchmark names library functions and errors by string; deleting one
would break its traced runs, so every name it relies on is pinned here."""

import importlib
import importlib.util
import inspect
import math
import os

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load_tracing():
    path = os.path.join(ROOT, "perfbench", "tracing.py")
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


TRACED = [
    (module, name)
    for module, names in load_tracing().TRACED.items()
    for name in names
]


@pytest.mark.parametrize("module, name", TRACED, ids=lambda x: x)
def test_traced_name_resolves(module, name):
    assert callable(getattr(importlib.import_module(f"toricover.{module}"), name))


def test_nef_lift_error_still_importable():
    from toricover import chow

    assert issubclass(chow.NefLiftFailedError, Exception)


def test_vertex_enumerator_has_the_shape_the_tracer_reads():
    """Tracer._count reads the normals of solve_region_vertices from its
    first positional argument and the vertex count from len(result)."""
    from toricover import construct_standard, polytope

    params = inspect.signature(polytope.solve_region_vertices).parameters
    assert next(iter(params)) == "normals"
    q = construct_standard("cube", 2)
    assert isinstance(polytope.solve_region_vertices(q.normals, q.offsets, require_simple=True), list)
    tracer = load_tracing().Tracer()
    tracer.install()
    try:
        construct_standard("cube", 3)
    finally:
        tracer.uninstall()
    assert tracer.counts["polytope.solve_region_vertices.subsets"] == math.comb(6, 3)
    assert tracer.counts["polytope.solve_region_vertices.vertices"] == 8


def test_lattice_sample_has_the_shape_the_tracer_reads():
    """Tracer._count reads the polytope and resolution of lattice_sample from
    its first two positional arguments and the kept-point count from
    len(result); polytope_sample_cover must pass them so, or the counters
    would silently read 0."""
    from fractions import Fraction

    from toricover import construct_standard, harness, perturb

    tracing = load_tracing()
    params = list(inspect.signature(harness.lattice_sample).parameters)
    assert params[:2] == ["p", "resolution"]
    p = perturb(construct_standard("cube", 3), Fraction(1, 100), seed=3)
    points = harness.lattice_sample(p, 5)
    assert type(points) is tuple and len(points) > 0
    tracer = tracing.Tracer()
    tracer.install()
    try:
        cover, _ = harness.polytope_sample_cover(p, 5, 2, 3)
    finally:
        tracer.uninstall()
    assert cover.sample == points
    assert tracer.counts["harness.lattice_sample.points_scanned"] == tracing._scanned(p, 5)
    assert tracer.counts["harness.lattice_sample.points_kept"] == len(cover.sample)
    assert 0 < len(cover.sample) < tracing._scanned(p, 5)


def test_component_input_has_the_length_the_tracer_reads():
    """Tracer._count adds len(args[0]) of each connected_components call to
    covering.connected_components.points; the verifiers pass a cover's
    sets and complements there, which must keep a length."""
    from toricover import covering, harness

    params = inspect.signature(covering.connected_components).parameters
    assert next(iter(params)) == "points"
    cover = harness.random_small_set_family(covering.LatticeModel("cube", 2, 8), 2, 0)
    tracer = load_tracing().Tracer()
    tracer.install()
    try:
        for name in cover.sets:
            covering.set_components(cover, name)
        covering.complement_components(cover)
    finally:
        tracer.uninstall()
    want = sum(map(len, cover.sets.values())) + len(covering.complement_points(cover))
    assert want > 0
    assert tracer.counts["covering.connected_components.points"] == want


def _first_witness(theorem):
    """The first witness_found report of a verifier on the generated
    instances that lattice_suite feeds it, cube or simplex n=3, r=12."""
    from toricover import covering, harness

    for iseed in range(50):
        if theorem == "axes":
            cover = harness.dilated_partition_cover(covering.LatticeModel("cube", 3, 12), 3, iseed)
            report = covering.axes_witness(cover)
        else:
            kind, witness = {
                "kkm": ("simplex", covering.kkm_witness),
                "complement": ("cube", covering.complement_witness),
            }[theorem]
            cover = harness.random_small_set_family(covering.LatticeModel(kind, 3, 12), 2, iseed)
            report = witness(cover, 2)
        if report.verdict == covering.WITNESS_FOUND:
            return report
    raise AssertionError(f"no {theorem} witness in 50 seeds")


@pytest.mark.parametrize("theorem", ["kkm", "complement", "axes"])
def test_witness_component_has_the_shape_the_workloads_read(theorem):
    """lattice_suite and its oracles take the length of a witness component
    and read its points as tuples of ints, in sorted order; report_to_json
    writes it as the list of its points as lists."""
    from toricover import jsonio

    report = _first_witness(theorem)
    comp = report.payload["component"]
    points = list(comp)
    assert len(comp) == len(points) > 0
    assert all(type(p) is tuple and {type(x) for x in p} == {int} for p in points)
    assert points == sorted(set(points))
    assert jsonio.report_to_json(report)["payload"]["component"] == [list(p) for p in comp]


def test_sample_cover_has_the_shape_the_workloads_read():
    """sample_cover re-checks cover.sets[name] with facet_touch_set and hands
    cover.sample and the sets to its oracle; cli_roundtrip passes
    point_cover_to_json's result to json.dumps."""
    import json
    from fractions import Fraction

    from toricover import covering, harness, jsonio, polytope

    p = polytope.perturb(polytope.construct_standard("cube", 3), Fraction(1, 100), seed=3)
    cover, eps = harness.polytope_sample_cover(p, 4, 2, 3)
    assert type(cover.sample) is tuple and cover.sample
    assert all(type(pt) is tuple and {type(x) for x in pt} == {Fraction} for pt in cover.sample)
    for name, pts in cover.sets.items():
        points = list(pts)
        assert len(points) == len(pts) > 0
        assert all(type(pt) is tuple and {type(x) for x in pt} == {Fraction} for pt in points)
        touched = covering.facet_touch_set(p, pts, eps)
        assert isinstance(touched, set) and all(type(f) is int for f in touched)
    json.dumps(jsonio.point_cover_to_json(p, cover, eps))
