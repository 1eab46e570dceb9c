"""The Fraction localization, kept as a reference oracle for the integer
route in toricover.chow.intersection_number, and the Fraction flux sum, kept
as one for the integer toricover.chow.principal_divisor.

Every vertex term is built over Fraction from a plain Gaussian elimination
written here, not from toricover.linalg: the edge weights w_v solve
U_v^T w = xi, and the term is
    prod_j <w_v, D_j|_v> / (|det U_v| prod_i w_{v,i}).
The sum does not depend on xi as long as no weight vanishes, so this route
searches xi = (1, t, t^2, ...) from t = 2 rather than the library's t = 1.
"""

import itertools
import math
from fractions import Fraction
from operator import mul


def fraction_solve(rows, rhs):
    """(x, det) with rows . x = rhs for a square matrix, by Gaussian
    elimination over Fraction; (None, 0) if it is singular."""
    n = len(rows)
    a = [[Fraction(v) for v in row] + [Fraction(b)] for row, b in zip(rows, rhs)]
    det = Fraction(1)
    for col in range(n):
        pivot = next((r for r in range(col, n) if a[r][col]), None)
        if pivot is None:
            return None, Fraction(0)
        if pivot != col:
            a[col], a[pivot] = a[pivot], a[col]
            det = -det
        det *= a[col][col]
        inv = 1 / a[col][col]
        a[col] = [v * inv for v in a[col]]
        for r in range(n):
            if r != col and a[r][col]:
                f = a[r][col]
                a[r] = [x - f * y for x, y in zip(a[r], a[col])]
    return [row[n] for row in a], det


def fraction_intersection_number(p, divisors) -> Fraction:
    """D_1 ... D_n on the simple polytope p by the Fraction vertex sum."""
    n = p.dim
    cones = []
    for v in p.vertices:
        facets = sorted(v.facets)
        cones.append((facets, list(zip(*(p.normals[f] for f in facets)))))
    for t in itertools.count(2):
        xi = [Fraction(t) ** k for k in range(n)]
        solved = [fraction_solve(transposed, xi) for _, transposed in cones]
        if all(all(w) for w, _ in solved):
            break
    total = Fraction(0)
    for (facets, _), (w, det) in zip(cones, solved):
        num = Fraction(1)
        for d in divisors:
            num *= sum(wi * Fraction(d.coeffs[f]) for wi, f in zip(w, facets))
        total += num / (abs(det) * math.prod(w))
    return total


def fraction_principal_coeffs(p, v) -> tuple:
    """The fluxes <u_F, v> of v, each summed into a Fraction(0)."""
    return tuple(sum(map(mul, u, v), Fraction(0)) for u in p.normals)
