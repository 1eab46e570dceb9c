"""Fraction routes kept as reference oracles for the integer routes of
toricover: the localization for chow.intersection_number, the flux sum for
chow.principal_divisor, the centroid and ample class for
chow.ample_from_offsets, the certificate for chow.avoidance_certificate
and one determinant per normal subset for polytope.generic_normals_check.
Every elimination here is a plain Gaussian elimination over Fraction
written in this file, not toricover.linalg.  The minimal non-faces of
chow.presentation have a second route here too: every facet subset of size
2..n+1 tested against the set of faces.

In the localization the edge weights w_v solve U_v^T w = xi, and the
vertex term is
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


def subset_generic_normals(p) -> bool:
    """Every n-subset of p's normals independent, by one Fraction elimination
    per subset: the route toricover.polytope.generic_normals_check replaced
    by its sweep of minors."""
    zeros = [0] * p.dim
    return all(fraction_solve(list(s), zeros)[1]
               for s in itertools.combinations(p.normals, p.dim))


def fraction_centroid(p) -> tuple:
    """The vertex centroid, each coordinate summed into a Fraction(0)."""
    count = len(p.vertices)
    return tuple(sum(col, Fraction(0)) / count for col in zip(*(v.coords for v in p.vertices)))


def fraction_ample_coeffs(p) -> tuple:
    """c_F + <u_F, centroid>, with the centroid and the products in Fraction."""
    centroid = fraction_centroid(p)
    return tuple(sum(map(mul, u, centroid), c) for u, c in zip(p.normals, p.offsets))


def fraction_rref_solve(rows, rhs):
    """The solution of rows . x = rhs with free components 0, by reduced
    row echelon form over Fraction; None if the system is inconsistent."""
    n = len(rows[0])
    a = [[Fraction(v) for v in row] + [Fraction(b)] for row, b in zip(rows, rhs)]
    pivots = []
    for col in range(n):
        r0 = len(pivots)
        pivot = next((r for r in range(r0, len(a)) if a[r][col]), None)
        if pivot is None:
            continue
        a[r0], a[pivot] = a[pivot], a[r0]
        inv = 1 / a[r0][col]
        a[r0] = [v * inv for v in a[r0]]
        for r in range(len(a)):
            if r != r0 and a[r][col]:
                f = a[r][col]
                a[r] = [x - f * y for x, y in zip(a[r], a[r0])]
        pivots.append(col)
    if any(row[n] for row in a[len(pivots):]):
        return None
    x = [Fraction(0)] * n
    for row, col in zip(a, pivots):
        x[col] = row[n]
    return tuple(x)


def fraction_certificate(p, h_coeffs, touched):
    """H + div(v) with <u_F, v> = -H_F on the touched facets, free
    components of v 0, all in Fraction; H itself for no touched facet and
    None if the system is inconsistent."""
    touched = sorted(touched)
    if not touched:
        return tuple(h_coeffs)
    v = fraction_rref_solve([p.normals[f] for f in touched], [-h_coeffs[f] for f in touched])
    if v is None:
        return None
    return tuple(a + b for a, b in zip(h_coeffs, fraction_principal_coeffs(p, v)))


def subset_minimal_nonfaces(p) -> tuple:
    """The minimal non-faces of p, sorted as chow.presentation sorts them:
    the faces are every subset of every vertex's facet set, and each facet
    subset of size 2..n+1 is a minimal non-face iff it is no face and every
    subset one smaller is.  The route chow.presentation replaced by its
    walk over the faces with vertex masks."""
    faces = set()
    for v in p.vertices:
        facets = sorted(v.facets)
        for size in range(len(facets) + 1):
            faces.update(map(frozenset, itertools.combinations(facets, size)))
    nonfaces = []
    for size in range(2, p.dim + 2):
        for combo in itertools.combinations(p.facet_ids(), size):
            s = frozenset(combo)
            if s not in faces and all(s - {f} in faces for f in s):
                nonfaces.append(s)
    return tuple(sorted(nonfaces, key=sorted))
