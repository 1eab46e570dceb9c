"""Differential tests of the integer exact core.

linalg runs fraction-free (Bareiss) elimination on integer rows, and the
lattice sample, the facet-touch test and vertex solving work on cleared
integer data.  Each is compared here with a plain Fraction route kept only as
a reference oracle: Gaussian elimination over Fraction, a containment scan of
the bounding box, the Fraction slack formula and Fraction vertex solving.
"""

import itertools
import math
import operator
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from toricover import construct_standard, covering, harness, linalg, perturb
from toricover.chow import Divisor, polytope_of_divisor
from toricover.polytope import (
    NotSimpleError,
    Vertex,
    from_halfspaces,
    product,
    solve_region_vertices,
)

# ------------------------------------------------- Fraction reference oracle


def ref_row_echelon(aug, ncols):
    """In-place reduced row echelon form over Fraction; the pivot columns."""
    pivots = []
    row = 0
    for col in range(ncols):
        pivot = next((r for r in range(row, len(aug)) if aug[r][col] != 0), None)
        if pivot is None:
            continue
        aug[row], aug[pivot] = aug[pivot], aug[row]
        inv = Fraction(1) / aug[row][col]
        aug[row] = [x * inv for x in aug[row]]
        for r in range(len(aug)):
            if r != row and aug[r][col] != 0:
                factor = aug[r][col]
                aug[r] = [x - factor * y for x, y in zip(aug[r], aug[row])]
        pivots.append(col)
        row += 1
        if row == len(aug):
            break
    return pivots


def ref_det(rows):
    a = [[Fraction(x) for x in row] for row in rows]
    n = len(a)
    sign = 1
    result = Fraction(1)
    for col in range(n):
        pivot = next((r for r in range(col, n) if a[r][col] != 0), None)
        if pivot is None:
            return Fraction(0)
        if pivot != col:
            a[col], a[pivot] = a[pivot], a[col]
            sign = -sign
        result *= a[col][col]
        for r in range(col + 1, n):
            factor = a[r][col] / a[col][col]
            for c in range(col, n):
                a[r][c] -= factor * a[col][c]
    return sign * result


def ref_rank(rows):
    if not rows:
        return 0
    a = [[Fraction(x) for x in row] for row in rows]
    return len(ref_row_echelon(a, len(a[0])))


def ref_solve(rows, rhs):
    if not rows:
        return ()
    n = len(rows[0])
    aug = [[Fraction(x) for x in row] + [Fraction(b)] for row, b in zip(rows, rhs)]
    pivots = ref_row_echelon(aug, n)
    if any(aug[r][n] != 0 for r in range(len(pivots), len(aug))):
        return None
    x = [Fraction(0)] * n
    for r, col in enumerate(pivots):
        x[col] = aug[r][n]
    return tuple(x)


def ref_solve_unique(rows, rhs):
    n = len(rows)
    aug = [[Fraction(x) for x in row] + [Fraction(b)] for row, b in zip(rows, rhs)]
    if len(ref_row_echelon(aug, n)) < n:
        return None
    return tuple(row[n] for row in aug)


def ref_nullspace_vector(rows, n):
    if not rows:
        return tuple([Fraction(1)] + [Fraction(0)] * (n - 1)) if n else None
    a = [[Fraction(x) for x in row] for row in rows]
    pivots = ref_row_echelon(a, n)
    if len(pivots) == n:
        return None
    free = next(c for c in range(n) if c not in pivots)
    x = [Fraction(0)] * n
    x[free] = Fraction(1)
    for r, col in enumerate(pivots):
        x[col] = -a[r][free]
    return tuple(x)


def ref_region_vertices(normals, offsets, require_simple):
    """Fraction vertex solving: every n-subset solved, slacks in Fraction."""
    n = len(normals[0])
    m = len(normals)
    seen = {}
    for subset in itertools.combinations(range(m), n):
        point = ref_solve_unique(
            [normals[i] for i in subset], [-offsets[i] for i in subset]
        )
        if point is None or point in seen:
            continue
        slacks = [
            sum(Fraction(a) * x for a, x in zip(normals[i], point)) + offsets[i]
            for i in range(m)
        ]
        if any(s < 0 for s in slacks):
            continue
        tight = frozenset(i for i in range(m) if slacks[i] == 0)
        if require_simple and len(tight) > n:
            raise NotSimpleError(point)
        seen[point] = Vertex(point, tight)
    return list(seen.values())


def ref_touch_set(p, points, eps):
    return {
        f
        for f in p.facet_ids()
        if any(p.slack(f, pt) <= eps * sum(map(abs, p.normals[f])) for pt in points)
    }


# ------------------------------------------------------------ strategies

ints = st.integers(min_value=-4, max_value=4)
rationals = st.fractions(min_value=-4, max_value=4, max_denominator=5)
entries = st.one_of(ints, rationals)


@st.composite
def matrices(draw, square=False, entry=entries):
    """Integer or rational matrices, often singular or rank deficient: some
    rows are replaced by combinations of earlier rows or by zero rows."""
    n = draw(st.integers(min_value=1, max_value=4))
    m = n if square else draw(st.integers(min_value=1, max_value=5))
    rows = [draw(st.lists(entry, min_size=n, max_size=n)) for _ in range(m)]
    for i in range(1, m):
        how = draw(st.sampled_from(["keep", "keep", "combine", "zero"]))
        if how == "combine":
            a, b = draw(ints), draw(ints)
            j = draw(st.integers(min_value=0, max_value=i - 1))
            rows[i] = [a * x + b * y for x, y in zip(rows[j], rows[i - 1])]
        elif how == "zero":
            rows[i] = [0] * n
    return rows


def all_fractions(values):
    return all(type(v) is Fraction for v in values)


# ------------------------------------------------------------------- linalg


class TestLinalgAgainstFractionElimination:
    @settings(max_examples=150, deadline=None)
    @given(matrices(square=True))
    def test_det(self, rows):
        got = linalg.det(rows)
        assert type(got) is Fraction
        assert got == ref_det(rows)

    @settings(max_examples=150, deadline=None)
    @given(matrices())
    def test_rank(self, rows):
        assert linalg.rank(rows) == ref_rank(rows)

    @settings(max_examples=150, deadline=None)
    @given(matrices(), st.data())
    def test_solve(self, rows, data):
        n = len(rows[0])
        if data.draw(st.booleans()):
            # a consistent right-hand side: rows times a known point
            x = data.draw(st.lists(entries, min_size=n, max_size=n))
            rhs = [sum(Fraction(a) * b for a, b in zip(row, x)) for row in rows]
        else:
            rhs = data.draw(st.lists(entries, min_size=len(rows), max_size=len(rows)))
        got = linalg.solve(rows, rhs)
        assert got == ref_solve(rows, rhs)
        if got is not None:
            assert all_fractions(got)

    @settings(max_examples=150, deadline=None)
    @given(matrices(square=True), st.data())
    def test_solve_unique(self, rows, data):
        rhs = data.draw(st.lists(entries, min_size=len(rows), max_size=len(rows)))
        got = linalg.solve_unique(rows, rhs)
        assert got == ref_solve_unique(rows, rhs)
        if got is not None:
            assert all_fractions(got)

    @settings(max_examples=150, deadline=None)
    @given(matrices())
    def test_nullspace_vector(self, rows):
        n = len(rows[0])
        got = linalg.nullspace_vector(rows, n)
        assert got == ref_nullspace_vector(rows, n)
        if got is not None:
            assert all_fractions(got)

    def test_empty_systems(self):
        assert linalg.rank([]) == 0
        assert linalg.solve([], []) == ()
        assert linalg.det([]) == 1
        assert linalg.nullspace_vector([], 3) == (1, 0, 0)


class TestIntegerEntryPoints:
    @settings(max_examples=150, deadline=None)
    @given(matrices(square=True, entry=ints))
    def test_int_det(self, rows):
        got = linalg.int_det(rows)
        assert type(got) is int
        assert got == ref_det(rows)

    @settings(max_examples=150, deadline=None)
    @given(matrices(square=True, entry=ints), st.data())
    def test_int_solve_unique(self, rows, data):
        rhs = data.draw(st.lists(ints, min_size=len(rows), max_size=len(rows)))
        got = linalg.int_solve_unique(rows, rhs)
        want = ref_solve_unique(rows, rhs)
        if want is None:
            assert got is None
            return
        x, d = got
        assert d > 0 and math.gcd(d, *x) == 1
        assert tuple(Fraction(v, d) for v in x) == want

    @settings(max_examples=150, deadline=None)
    @given(matrices(square=True, entry=ints), st.data())
    def test_int_cramer(self, rows, data):
        rhs = data.draw(st.lists(ints, min_size=len(rows), max_size=len(rows)))
        got = linalg.int_cramer(rows, rhs)
        want = ref_solve_unique(rows, rhs)
        if want is None:
            assert got is None
            return
        x, det = got
        assert type(det) is int and all(type(v) is int for v in x)
        assert det == ref_det(rows)
        # Cramer's rule: x_i is det(rows) with column i replaced by rhs
        for i, v in enumerate(x):
            assert v == ref_det([row[:i] + [b] + row[i + 1:] for row, b in zip(rows, rhs)])
        assert tuple(Fraction(v, det) for v in x) == want


class TestIntSolve:
    """int_solve is the integer core of solve: on integer systems its x / d
    is solve's answer, and both are the reference's solution with free
    components 0."""

    @staticmethod
    def check(rows, rhs):
        got = linalg.int_solve(rows, rhs)
        want = ref_solve(rows, rhs)
        assert linalg.solve(rows, rhs) == want
        if want is None:
            assert got is None
            return None
        x, d = got
        assert type(x) is tuple and type(d) is int and d != 0
        assert all(type(v) is int for v in x)
        assert tuple(Fraction(v, d) for v in x) == want
        # rows . x = d * rhs, in integers
        assert [sum(map(operator.mul, row, x)) for row in rows] == [d * b for b in rhs]
        return got

    @settings(max_examples=200, deadline=None)
    @given(matrices(entry=ints), st.data())
    def test_against_solve(self, rows, data):
        n = len(rows[0])
        if data.draw(st.booleans()):
            x = data.draw(st.lists(ints, min_size=n, max_size=n))
            rhs = [sum(map(operator.mul, row, x)) for row in rows]
        else:
            rhs = data.draw(st.lists(ints, min_size=len(rows), max_size=len(rows)))
        self.check(rows, rhs)

    def test_rank_deficient_sets_free_components_to_zero(self):
        # x + 2y - z = 3 twice over: y and z are free
        x, d = self.check([[1, 2, -1], [2, 4, -2]], [3, 6])
        assert Fraction(x[0], d) == 3 and x[1:] == (0, 0)

    def test_over_determined_consistent(self):
        # three lines through (1, 2)
        x, d = self.check([[1, 0], [0, 1], [3, -1]], [1, 2, 1])
        assert (Fraction(x[0], d), Fraction(x[1], d)) == (1, 2)

    def test_over_determined_inconsistent(self):
        assert self.check([[1, 0], [0, 1], [1, 1]], [1, 2, 4]) is None

    def test_parallel_rows_inconsistent(self):
        assert self.check([[2, 4], [1, 2]], [2, 3]) is None

    def test_zero_rows(self):
        assert self.check([[0, 0], [0, 0]], [0, 0]) == ((0, 0), 1)
        assert self.check([[0, 0]], [5]) is None

    def test_no_rows(self):
        assert linalg.int_solve([], []) == ((), 1)
        assert linalg.solve([], []) == ()

    def test_rows_are_not_changed(self):
        rows, rhs = [[2, 1], [1, 3]], [1, 2]
        linalg.int_solve(rows, rhs)
        assert (rows, rhs) == ([[2, 1], [1, 3]], [1, 2])


# ------------------------------------------------------ polytope routes

SHAPES = [("cube", 3), ("simplex", 3), ("cube", 4)]


def perturbed(kind, n, seed):
    return perturb(construct_standard(kind, n), Fraction(1, 100), seed=seed)


class TestRegionVertices:
    @pytest.mark.parametrize("kind, n", SHAPES)
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_perturbed_polytope(self, kind, n, seed):
        p = perturbed(kind, n, seed)
        got = solve_region_vertices(p.normals, p.offsets, require_simple=True)
        assert got == ref_region_vertices(p.normals, p.offsets, True)
        assert got == list(p.vertices)
        assert all(all_fractions(v.coords) for v in got)

    @pytest.mark.parametrize("kind, n", SHAPES)
    @settings(max_examples=20, deadline=None)
    @given(st.data())
    def test_divisor_regions(self, kind, n, data):
        # offsets from arbitrary divisors: empty, degenerate and non-simple
        # regions all occur, so require_simple is off
        p = perturbed(kind, n, data.draw(st.integers(min_value=1, max_value=3)))
        offsets = data.draw(
            st.lists(rationals, min_size=p.num_facets, max_size=p.num_facets)
        )
        got = solve_region_vertices(p.normals, offsets, require_simple=False)
        assert got == ref_region_vertices(p.normals, offsets, False)

    def test_non_simple_is_rejected_alike(self):
        # the square pyramid: its apex lies on four facets
        normals = [(0, 0, 1), (1, 0, -1), (-1, 0, -1), (0, 1, -1), (0, -1, -1)]
        offsets = [Fraction(0)] + [Fraction(1)] * 4
        with pytest.raises(NotSimpleError):
            ref_region_vertices(normals, offsets, True)
        with pytest.raises(NotSimpleError):
            solve_region_vertices(normals, offsets, require_simple=True)
        with pytest.raises(NotSimpleError):
            from_halfspaces(normals, offsets)

    def test_polytope_of_divisor_region(self, q3):
        d = Divisor(tuple(Fraction(c, 3) for c in (1, 2, -1, 4, 0, 5)))
        region = polytope_of_divisor(q3, d)
        want = ref_region_vertices(q3.normals, d.coeffs, False)
        assert list(region.vertices) == sorted(want, key=lambda v: v.coords)


def scan_sample(p, r):
    """Every grid point of the bounding box that p.contains, in order."""
    lo = [min(v.coords[i] for v in p.vertices) for i in range(p.dim)]
    hi = [max(v.coords[i] for v in p.vertices) for i in range(p.dim)]
    ranges = [range(math.ceil(a * r), math.floor(b * r) + 1) for a, b in zip(lo, hi)]
    return tuple(
        pt
        for pt in (
            tuple(Fraction(a, r) for a in idx) for idx in itertools.product(*ranges)
        )
        if p.contains(pt)
    )


class TestLatticeSample:
    @pytest.mark.parametrize("kind, n, r", [("cube", 3, 7), ("simplex", 3, 8), ("cube", 4, 3)])
    @pytest.mark.parametrize("seed", [1, 5])
    def test_perturbed_against_scan(self, kind, n, r, seed):
        p = perturbed(kind, n, seed)
        got = harness.lattice_sample(p, r)
        assert got == scan_sample(p, r)
        assert all(all_fractions(pt) for pt in got)

    @settings(max_examples=40, deadline=None)
    @given(
        st.sampled_from([("cube", 1), ("cube", 2), ("simplex", 2), ("simplex", 3)]),
        st.integers(min_value=1, max_value=9),
        st.lists(rationals, min_size=3, max_size=3),
    )
    def test_translated_against_scan(self, shape, r, shift):
        # rational offsets with assorted denominators
        p = construct_standard(*shape).translate(tuple(shift[: shape[1]]))
        assert harness.lattice_sample(p, r) == scan_sample(p, r)

    @pytest.mark.parametrize("r", [1, 2, 3, 5])
    @pytest.mark.parametrize(
        "shape",
        ["cube 1", "cube 2", "cube 3", "simplex 1", "simplex 2", "simplex 3", "prism", "q3"],
    )
    def test_columns_against_points_and_scan(self, shape, r):
        # unperturbed shapes have normals whose last entry is 0
        if shape == "prism":
            p = product(construct_standard("simplex", 2), construct_standard("cube", 1))
        elif shape == "q3":
            p = perturbed("cube", 3, 2)
        else:
            p = construct_standard(shape.split()[0], int(shape.split()[1]))
        points, columns = sample_columns(p, r)
        assert points == scan_sample(p, r) and points
        assert len(columns) == p.dim
        assert all(len(col) == len(points) and all_ints(col) for col in columns)
        assert all(
            Fraction(col[i], r) == points[i][k]
            for k, col in enumerate(columns)
            for i in range(len(points))
        )

    def test_empty_samples_have_n_empty_columns(self):
        # every head of the box is cut empty: x, y >= 1/3 and x + y <= 5/3 at r = 1
        cut = construct_standard("simplex", 2).translate((Fraction(-1, 3), Fraction(-1, 3)))
        # the box holds no grid value on the first axis
        thin = from_halfspaces(
            [(1, 0), (-1, 0), (0, 1), (0, -1)],
            [Fraction(-1, 3), Fraction(2, 3), 0, 1],
        )
        for p in (cut, thin):
            assert scan_sample(p, 1) == ()
            assert sample_columns(p, 1) == ((), [[], []])


def sample_columns(p, r):
    columns = []
    points = harness.lattice_sample(p, r, columns=columns)
    return points, columns


def all_ints(values):
    return all(type(v) is int for v in values)


class TestFacetTouchSet:
    @settings(max_examples=60, deadline=None)
    @given(
        st.sampled_from(SHAPES),
        st.integers(min_value=1, max_value=3),
        st.fractions(min_value=0, max_value=1, max_denominator=12),
        st.data(),
    )
    def test_against_fraction_slack(self, shape, seed, eps, data):
        p = perturbed(*shape, seed)
        sample = harness.lattice_sample(p, 4)
        points = data.draw(st.lists(st.sampled_from(sample), max_size=12))
        # off-grid points too, with denominators other than the grid's
        points += data.draw(
            st.lists(
                st.tuples(*[st.fractions(min_value=0, max_value=1, max_denominator=7)] * p.dim),
                max_size=4,
            )
        )
        got = covering.facet_touch_set(p, points, eps)
        assert got == ref_touch_set(p, points, eps)

    def test_integer_eps_and_empty_points(self, q2):
        assert covering.facet_touch_set(q2, [], Fraction(1)) == set()
        pts = [(Fraction(1, 2), Fraction(1, 2))]
        assert covering.facet_touch_set(q2, pts, 1) == ref_touch_set(q2, pts, 1)
