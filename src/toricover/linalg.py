"""Exact linear algebra over the rationals, computed in integers.

Matrices are lists of row vectors whose entries are ints or
fractions.Fraction.  Each row is first scaled by the lcm of its denominators,
which keeps its row space and, with the right-hand side scaled along, the
solutions of its equation.  One fraction-free elimination (Bareiss 1968, run
Gauss-Jordan style) then works on those integer rows: every intermediate entry
is a minor of the scaled matrix, so each division is exact.  A Fraction is
built only for the values a public function returns.

int_row clears one row; int_det, int_cramer and int_solve take integer rows
and return integers, for callers that keep their own denominators.
int_cramer serves polytope's vertex solving, one call per facet subset, and
chow's localization, which reads each vertex cone's edge weights and
determinant off one call.  int_solve serves chow's flux solves: is_principal
and the avoidance certificates read one particular solution off it.
polytope's genericity test needs no elimination: it sweeps all maximal
minors by Laplace expansion.  int_det serves det and the tests.

solve is int_solve over rows cleared one by one, with Fractions built for
the result.  No library route calls the Fraction solve, solve_unique or
nullspace_vector: they stay because the benchmark's tracer and the tests
name them.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm


def dot(u, v) -> Fraction:
    return sum((Fraction(a) * Fraction(b) for a, b in zip(u, v)), Fraction(0))


def vec_sub(u, v):
    return tuple(Fraction(a) - Fraction(b) for a, b in zip(u, v))


def int_row(row):
    """(ints, s): the row times s, the lcm of its entries' denominators."""
    s = lcm(*(x.denominator for x in row))
    return [x.numerator * (s // x.denominator) for x in row], s


def _eliminate(a, ncols, *, reduce=True):
    """Fraction-free elimination of the integer rows `a`, in place.

    Pivots are taken column by column over the first ncols columns.  Returns
    (pivots, d, sign): the pivot columns, the last pivot value d and the
    parity of the row swaps.  With reduce, every other row is cleared in each
    pivot column, every pivot entry ends equal to d, and a[r][c] / d is the
    reduced row echelon form.  Without it only the rows below are cleared,
    which is all a determinant needs: for a square nonsingular matrix
    sign * d is its determinant.
    """
    nrows = len(a)
    pivots = []
    d = 1
    sign = 1
    row = 0
    for col in range(ncols):
        if row == nrows:
            break
        pivot = next((r for r in range(row, nrows) if a[r][col]), None)
        if pivot is None:
            continue
        if pivot != row:
            a[row], a[pivot] = a[pivot], a[row]
            sign = -sign
        prow = a[row]
        p = prow[col]
        for r in range(0 if reduce else row + 1, nrows):
            if r != row:
                f = a[r][col]
                a[r] = [(p * x - f * y) // d for x, y in zip(a[r], prow)]
        d = p
        pivots.append(col)
        row += 1
    return pivots, d, sign


def int_det(rows) -> int:
    """Determinant of a square integer matrix."""
    a = [list(row) for row in rows]
    pivots, d, sign = _eliminate(a, len(a), reduce=False)
    return sign * d if len(pivots) == len(a) else 0


def int_cramer(rows, rhs):
    """(x, det) for a square nonsingular integer system, or None if singular.

    det is the determinant of rows and x the integer vector with
    rows . x = det * rhs (Cramer's rule: x_i is the determinant of rows with
    column i replaced by rhs), both read off one elimination.
    """
    n = len(rows)
    aug = [list(row) + [b] for row, b in zip(rows, rhs)]
    pivots, d, sign = _eliminate(aug, n)
    if len(pivots) < n:
        return None
    if sign < 0:
        return [-row[n] for row in aug], -d
    return [row[n] for row in aug], d


def det(rows) -> Fraction:
    """Determinant of a square rational matrix."""
    a = []
    scale = 1
    for row in rows:
        ints, s = int_row(row)
        a.append(ints)
        scale *= s
    return Fraction(int_det(a), scale)


def rank(rows) -> int:
    if not rows:
        return 0
    a = [int_row(row)[0] for row in rows]
    return len(_eliminate(a, len(a[0]), reduce=False)[0])


def int_solve(rows, rhs):
    """(x, d) with rows . (x / d) = rhs for an integer system, or None if it
    is inconsistent.

    The system may be over- or under-determined: x / d is the solution whose
    free components are 0, read off one reduced elimination.  x is an
    integer tuple and d the last pivot, nonzero but of either sign (1 when
    no row has a pivot).  With no rows the solution is () over 1.
    """
    if not rows:
        return (), 1
    n = len(rows[0])
    aug = [list(row) + [b] for row, b in zip(rows, rhs)]
    pivots, d, _ = _eliminate(aug, n)
    if any(row[n] for row in aug[len(pivots):]):
        return None
    x = [0] * n
    for row, col in zip(aug, pivots):
        x[col] = row[n]
    return tuple(x), d


def solve(rows, rhs):
    """One rational solution of rows . x = rhs, or None if inconsistent.

    The system may be over- or under-determined; free variables are set to 0.
    Each row is cleared along with its right-hand side, and int_solve solves
    the cleared system.
    """
    aug = [int_row(list(row) + [b])[0] for row, b in zip(rows, rhs)]
    solved = int_solve([row[:-1] for row in aug], [row[-1] for row in aug])
    if solved is None:
        return None
    x, d = solved
    return tuple(Fraction(v, d) for v in x)


def solve_unique(rows, rhs):
    """Solution of a square nonsingular system, or None if singular."""
    return solve(rows, rhs) if rank(rows) == len(rows) else None


def nullspace_vector(rows, n):
    """A nonzero rational vector orthogonal to every row, or None.

    The kernel vector has 1 at the first non-pivot column and 0 at every
    other non-pivot column, so a one-dimensional kernel gets its spanning
    vector.
    """
    if not rows:
        return (Fraction(1),) + (Fraction(0),) * (n - 1) if n else None
    a = [int_row(row)[0] for row in rows]
    pivots, d, _ = _eliminate(a, n)
    if len(pivots) == n:
        return None
    free = next(c for c in range(n) if c not in pivots)
    x = [Fraction(0)] * n
    x[free] = Fraction(1)
    for r, col in enumerate(pivots):
        x[col] = Fraction(-a[r][free], d)
    return tuple(x)


def primitive_int_vector(vec):
    """Scale a rational vector to a primitive integer vector (gcd of entries 1).

    The sign of the input is preserved.  Raises ValueError on the zero vector.
    """
    ints, denom = int_row([Fraction(x) for x in vec])
    g = gcd(*ints)
    if g == 0:
        raise ValueError("zero vector has no primitive form")
    return tuple(v // g for v in ints), Fraction(denom, g)
