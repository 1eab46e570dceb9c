"""Exact linear algebra over the rationals.

Everything here works on lists/tuples of fractions.Fraction (plain ints are
accepted and coerced).  Matrices are lists of row vectors.  Sizes stay tiny
(n <= 4, up to ~12 rows), so plain fraction Gaussian elimination is plenty.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd


def _frac_rows(rows):
    return [[Fraction(x) for x in row] for row in rows]


def dot(u, v) -> Fraction:
    return sum((Fraction(a) * Fraction(b) for a, b in zip(u, v)), Fraction(0))


def vec_sub(u, v):
    return tuple(Fraction(a) - Fraction(b) for a, b in zip(u, v))


def vec_scale(c, u):
    c = Fraction(c)
    return tuple(c * Fraction(x) for x in u)


def det(rows) -> Fraction:
    """Determinant of a square rational matrix (fraction Gaussian elimination)."""
    a = _frac_rows(rows)
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
        inv = Fraction(1) / a[col][col]
        for r in range(col + 1, n):
            if a[r][col] != 0:
                factor = a[r][col] * inv
                for c in range(col, n):
                    a[r][c] -= factor * a[col][c]
    return sign * result


def _row_echelon(aug, ncols):
    """In-place row echelon form; returns the list of pivot column indices."""
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


def rank(rows) -> int:
    if not rows:
        return 0
    a = _frac_rows(rows)
    return len(_row_echelon(a, len(a[0])))


def solve(rows, rhs):
    """One rational solution of rows . x = rhs, or None if inconsistent.

    The system may be over- or under-determined; free variables are set to 0.
    """
    if not rows:
        return ()
    n = len(rows[0])
    aug = [[Fraction(x) for x in row] + [Fraction(b)] for row, b in zip(rows, rhs)]
    pivots = _row_echelon(aug, n)
    for r in range(len(pivots), len(aug)):
        if aug[r][n] != 0:
            return None
    x = [Fraction(0)] * n
    for r, col in enumerate(pivots):
        x[col] = aug[r][n]
    return tuple(x)


def solve_unique(rows, rhs):
    """Solution of a square nonsingular system, or None if singular."""
    n = len(rows)
    aug = [[Fraction(x) for x in row] + [Fraction(b)] for row, b in zip(rows, rhs)]
    if len(_row_echelon(aug, n)) < n:
        return None
    return tuple(row[n] for row in aug)


def nullspace_vector(rows, n):
    """A nonzero rational vector orthogonal to every row, or None.

    Returns a spanning vector of the kernel when the kernel is exactly one
    dimensional (the case needed for extreme-ray enumeration); for larger
    kernels an arbitrary nonzero kernel vector is returned.
    """
    if not rows:
        return tuple([Fraction(1)] + [Fraction(0)] * (n - 1)) if n else None
    a = _frac_rows(rows)
    pivots = _row_echelon(a, n)
    if len(pivots) == n:
        return None
    free = next(c for c in range(n) if c not in pivots)
    x = [Fraction(0)] * n
    x[free] = Fraction(1)
    for r, col in enumerate(pivots):
        x[col] = -a[r][free]
    return tuple(x)


def primitive_int_vector(vec):
    """Scale a rational vector to a primitive integer vector (gcd of entries 1).

    The sign of the input is preserved.  Raises ValueError on the zero vector.
    """
    fracs = [Fraction(x) for x in vec]
    if all(f == 0 for f in fracs):
        raise ValueError("zero vector has no primitive form")
    denom = 1
    for f in fracs:
        denom = denom * f.denominator // gcd(denom, f.denominator)
    ints = [int(f * denom) for f in fracs]
    g = 0
    for v in ints:
        g = gcd(g, abs(v))
    return tuple(v // g for v in ints), Fraction(denom, g)
