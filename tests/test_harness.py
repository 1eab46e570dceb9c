import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from toricover import (
    BadResolutionError,
    InputError,
    LatticeModel,
    SuiteConfig,
    kkm_standard_cover,
    multiplicity,
    run_property_suite,
    shifted_brick_cover,
    spans_pair,
    touches_facet,
)
from toricover import covering, harness

import lattice_reference as ref


class TestShiftedBricks:
    def test_intervals(self):
        cover = shifted_brick_cover(1, 4)
        assert multiplicity(cover) == 2
        # closed intervals meet only at shared endpoints
        for name, pts in cover.sets.items():
            xs = sorted(x for (x,) in pts)
            assert xs == list(range(xs[0], xs[-1] + 1))

    @pytest.mark.parametrize("n,r,mult", [(1, 4, 2), (2, 8, 3), (3, 12, 4)])
    def test_multiplicity_exact(self, n, r, mult):
        cover = shifted_brick_cover(n, r)
        assert multiplicity(cover) == mult

    @pytest.mark.parametrize("n,r", [(2, 8), (2, 16), (3, 12)])
    def test_no_brick_spans(self, n, r):
        cover = shifted_brick_cover(n, r)
        assert not any(
            spans_pair(cover, name, axis)
            for name in cover.sets
            for axis in range(n)
        )

    def test_cover_is_full(self):
        cover = shifted_brick_cover(2, 8)
        assert cover.union() == set(cover.model.points())

    def test_bad_resolution(self):
        with pytest.raises(BadResolutionError):
            shifted_brick_cover(2, 6)
        with pytest.raises(BadResolutionError):
            shifted_brick_cover(3, 4)


class TestKKMStandard:
    def test_two_half_segments(self):
        cover = kkm_standard_cover(1, 4)
        assert multiplicity(cover) == 2
        assert cover.sets["star_0"] & cover.sets["star_1"] == {(2, 2)}

    def test_barycenter_attains(self):
        cover = kkm_standard_cover(2, 9)
        assert multiplicity(cover) == 3
        assert all((3, 3, 3) in pts for pts in cover.sets.values())

    @pytest.mark.parametrize("n,r", [(1, 4), (2, 9), (3, 12)])
    def test_each_star_misses_exactly_its_facet(self, n, r):
        cover = kkm_standard_cover(n, r)
        for i in range(n + 1):
            name = f"star_{i}"
            missed = [
                f
                for f in cover.model.facets()
                if not touches_facet(cover, name, f)
            ]
            assert missed == [(i, 0)]


class TestRandomLowMultiplicity:
    def test_partition_when_m_is_one(self):
        model = LatticeModel("cube", 2, 8)
        stamped = harness.random_low_multiplicity_cover(model, 1, 3)
        assert stamped.multiplicity == 1
        assert stamped.cover.union() == set(model.points())

    @pytest.mark.parametrize("seed", range(6))
    def test_measured_multiplicity_within_target(self, seed):
        model = LatticeModel("cube", 2, 16)
        stamped = harness.random_low_multiplicity_cover(model, 2, seed)
        assert stamped.multiplicity == multiplicity(stamped.cover)
        assert 1 <= stamped.multiplicity <= 2
        assert stamped.cover.union() == set(model.points())

    def test_m_times_points_capped(self, monkeypatch):
        model = LatticeModel("cube", 1, 2)
        with pytest.raises(InputError) as info:
            harness.random_low_multiplicity_cover(model, 10**9, 0)
        assert str(info.value) == (
            "target multiplicity m=1000000000 times max(m, 3 model points)"
            " is more than 20000000"
        )
        monkeypatch.setattr(harness, "MAX_LAYERED_POINTS", 25)
        assert harness.random_low_multiplicity_cover(model, 5, 0).multiplicity <= 5
        with pytest.raises(InputError, match=r"m=6 times max\(m, 3 model points\)"):
            harness.random_low_multiplicity_cover(model, 6, 0)
        monkeypatch.setattr(harness, "MAX_LAYERED_POINTS", 12)
        assert harness.random_low_multiplicity_cover(model, 3, 0).multiplicity <= 3
        with pytest.raises(InputError, match="m=4 times"):
            harness.random_low_multiplicity_cover(model, 4, 0)

    def test_cap_admits_n_plus_one_on_every_accepted_model(self):
        # the largest cube of each dimension and the largest simplex grids
        # (tests/test_masks.py::TestGridCap) with m = n+1, the most any
        # suite asks for
        assert harness.MAX_LAYERED_POINTS == 20 * 10**6
        models = [("simplex", 18, 1), ("simplex", 12, 2), ("simplex", 8, 5),
                  ("simplex", 6, 11), ("simplex", 3, 179)]
        for n in range(1, 20):
            r = 1
            while (r + 2) ** n <= 10**6:
                r += 1
            models.append(("cube", n, r))
        for kind, n, r in models:
            LatticeModel(kind, n, r)
            points = (r + 1) ** n if kind == "cube" else math.comb(n + r, n)
            assert (n + 1) * max(n + 1, points) <= harness.MAX_LAYERED_POINTS

    @pytest.mark.parametrize("n, r", [(4, 24), (5, 12)])
    def test_resolution_scan_rows_accepted(self, n, r):
        # scripts/resolution_scan.py asks for multiplicity n on cube n, r
        model = LatticeModel("cube", n, r)
        stamped = harness.random_low_multiplicity_cover(model, n, 0)
        assert 1 <= stamped.multiplicity <= n

    def test_deterministic_from_seed(self):
        model = LatticeModel("simplex", 2, 9)
        a = harness.random_low_multiplicity_cover(model, 2, 42)
        b = harness.random_low_multiplicity_cover(model, 2, 42)
        assert a.cover.sets == b.cover.sets
        assert a.multiplicity == b.multiplicity


class TestRandomSmallSetFamily:
    @pytest.mark.parametrize("seed", range(5))
    def test_each_set_misses_a_facet(self, seed):
        model = LatticeModel("simplex", 2, 12)
        cover = harness.random_small_set_family(model, 2, seed)
        assert multiplicity(cover) <= 2
        for name in cover.sets:
            assert any(
                not touches_facet(cover, name, f) for f in model.facets()
            )

    @pytest.mark.parametrize("seed", range(5))
    def test_cube_family_never_spans(self, seed):
        model = LatticeModel("cube", 2, 16)
        cover = harness.random_small_set_family(model, 2, seed)
        assert not any(
            spans_pair(cover, name, axis)
            for name in cover.sets
            for axis in range(2)
        )


class TestBFSAgainstReference:
    @settings(max_examples=80, deadline=None)
    @given(st.data())
    def test_cells_and_balls(self, data):
        """Cells, balls of every radius (None: unbounded) and balls from
        several sources confined to an `allowed` mask, against the tuple BFS."""
        kind = data.draw(st.sampled_from(["cube", "simplex"]))
        n = data.draw(st.integers(min_value=1, max_value=3))
        r = data.draw(st.integers(min_value=1, max_value=4))
        model = LatticeModel(kind, n, r)
        points = list(model.points())
        sources = data.draw(st.lists(st.sampled_from(points), min_size=1, max_size=6))
        grid = model.grid()

        def point_sets(masks):
            return [covering.PointSet(grid, m) for m in masks]

        def owned(owner, count):
            return [frozenset(p for p, i in owner.items() if i == idx) for idx in range(count)]

        bits = [grid.bit(s) for s in sources]
        assert point_sets(grid.bfs(bits)) == ref.bfs_partition(model, sources)

        center = data.draw(st.sampled_from(points))
        radius = data.draw(st.one_of(st.none(), st.integers(min_value=0, max_value=r)))
        coord, value = data.draw(st.sampled_from(model.facets()))
        blocked = set(data.draw(st.lists(st.sampled_from(points), max_size=4)))

        def allowed(q):
            return q[coord] != value and q not in blocked

        allowed_mask = grid.full & ~grid.facets[(coord, value)]
        allowed_mask &= ~covering.LatticeCover(model, {"B": blocked}).sets["B"].mask
        assert point_sets(grid.bfs([grid.bit(center)], radius)) == [
            frozenset(ref.bfs(model, [center], radius))
        ]
        assert point_sets(grid.bfs([grid.bit(center)], radius, allowed=allowed_mask)) == [
            frozenset(ref.bfs(model, [center], radius, allowed))
        ]
        assert point_sets(grid.bfs(bits, radius, allowed=allowed_mask)) == owned(
            ref.bfs(model, sources, radius, allowed), len(sources)
        )


class TestDilatedPartition:
    def test_union_and_arity(self):
        model = LatticeModel("cube", 3, 6)
        cover = harness.dilated_partition_cover(model, 3, 0)
        assert len(cover.sets) == 3
        assert cover.union() == set(model.points())


class TestOracle:
    def test_zero_violations_and_frozen_count(self):
        report = harness.exhaustive_oracle_tiny()
        # 1 + (3^4 - 2) + (7^4 - 3*81 + 3) labeled covers, by inclusion-exclusion
        assert report["instances"] == 2241
        assert report["violations"] == 0
        assert report["verifier_mismatches"] == 0


class TestPropertySuite:
    def test_deterministic_report(self):
        config = SuiteConfig(
            verifier="lebesgue", kind="cube", n=2, r=8, instances=5, seed=17,
            multiplicity=2,
        )
        assert run_property_suite(config) == run_property_suite(config)

    def test_lebesgue_mini_suite(self):
        config = SuiteConfig(
            verifier="lebesgue", kind="cube", n=2, r=8, instances=10, seed=0,
            multiplicity=2,
        )
        report = run_property_suite(config)
        assert report["ok"]
        assert report["counts"] == {"witness_found": 10}
        assert [rec["seed"] for rec in report["instances"]] == list(range(10))

    def test_bricks_control_suite(self):
        config = SuiteConfig(
            verifier="bricks_control", kind="cube", n=2, r=8, instances=1, seed=0
        )
        report = run_property_suite(config)
        assert report["ok"]
        assert report["counts"] == {"hypothesis_violated": 1}

    def test_kkm_mini_suite(self):
        config = SuiteConfig(
            verifier="kkm", kind="simplex", n=2, r=12, instances=10, seed=5, k=2
        )
        report = run_property_suite(config)
        assert report["ok"]

    @pytest.mark.parametrize("n, k", [(2, 1), (2, 2), (3, 1), (3, 2), (3, 3)])
    def test_complement_mini_suite(self, n, k):
        config = SuiteConfig(
            verifier="complement", kind="cube", n=n, r=8, instances=10, seed=0, k=k
        )
        report = run_property_suite(config)
        assert report["ok"]
        assert report["counts"] == {"witness_found": 10}

    def test_palais_mini_suite(self):
        config = SuiteConfig(
            verifier="palais", kind="cube", n=2, r=8, instances=10, seed=1,
            multiplicity=3,
        )
        report = run_property_suite(config)
        assert report["ok"]

    def test_kkm_lebesgue_mini_suite(self):
        config = SuiteConfig(
            verifier="kkm_lebesgue", kind="simplex", n=3, r=6, instances=5,
            seed=2, multiplicity=2,
        )
        report = run_property_suite(config)
        assert report["ok"]
        assert report["counts"] == {"witness_found": 5}
