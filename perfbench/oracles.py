"""Independent oracles for the benchmark's correctness checks.

Nothing here calls toricover.  Polytopes are read as plain data (integer
normals and rational offsets, facet F being <u_F, x> + c_F >= 0), lattice
covers as dicts of point sets, and every expected answer is computed by a
route of its own:

* top intersection numbers by the Brion-Lawrence vertex sum, plus closed
  forms for cubes, simplices, products and the weighted plane P(1,1,2);
* lattice samples, facet-touch sets and avoidance certificates in integer
  arithmetic;
* witness components by breadth-first search, and Palais colorings by
  direct membership counts.

Each check returns None when the output is right and a short reason when it
is not.
"""

from __future__ import annotations

import functools
import itertools
import math
from collections import Counter, deque
from fractions import Fraction


# ---------------------------------------------------------------- integers

def int_det(rows):
    """Determinant of a square integer matrix (Bareiss, fraction-free)."""
    a = [list(r) for r in rows]
    n = len(a)
    if n == 0:
        return 1
    sign, prev = 1, 1
    for k in range(n - 1):
        if a[k][k] == 0:
            swap = next((i for i in range(k + 1, n) if a[i][k] != 0), None)
            if swap is None:
                return 0
            a[k], a[swap] = a[swap], a[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
        prev = a[k][k]
    return sign * a[n - 1][n - 1]


def adjugate(rows):
    """Adjugate of a square integer matrix, so that U adj(U) = det(U) I."""
    n = len(rows)
    if n == 1:
        return [[1]]
    adj = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            minor = [
                [rows[r][c] for c in range(n) if c != j] for r in range(n) if r != i
            ]
            adj[j][i] = (-1) ** (i + j) * int_det(minor)
    return adj


def int_rank(rows, ncols):
    """Rank of an integer matrix by fraction-free row reduction."""
    a = [list(r) for r in rows]
    rank = 0
    for col in range(ncols):
        piv = next((i for i in range(rank, len(a)) if a[i][col] != 0), None)
        if piv is None:
            continue
        a[rank], a[piv] = a[piv], a[rank]
        p = a[rank]
        for i in range(len(a)):
            if i != rank and a[i][col] != 0:
                f = a[i][col]
                row = [x * p[col] - f * y for x, y in zip(a[i], p)]
                g = math.gcd(*row)
                a[i] = [x // g for x in row] if g > 1 else row
        rank += 1
    return rank


def lcm_denominators(values):
    out = 1
    for v in values:
        out = math.lcm(out, Fraction(v).denominator)
    return out


def consistent(rows, rhs):
    """Whether rows . v = rhs has a rational solution (rows integer, rhs
    rational), decided by comparing integer ranks."""
    if not rows:
        return all(b == 0 for b in rhs)
    scale = lcm_denominators(rhs)
    aug = [list(r) + [int(Fraction(b) * scale)] for r, b in zip(rows, rhs)]
    n = len(rows[0])
    return int_rank([r[:n] for r in aug], n) == int_rank(aug, n + 1)


# ---------------------------------------------------------------- polytopes

def vertex_cones(normals, offsets):
    """The vertices of a simple polytope as (facet tuple, point) pairs.

    Every n-subset of facets with independent normals is solved through the
    adjugate; a feasible solution is a vertex.  A vertex reached from two
    subsets would make the polytope non-simple, which the oracle refuses.
    """
    return _vertex_cones(tuple(map(tuple, normals)), tuple(map(Fraction, offsets)))


@functools.lru_cache(maxsize=256)
def _vertex_cones(normals, offsets):
    n = len(normals[0])
    m = len(normals)
    seen = {}
    for tight in itertools.combinations(range(m), n):
        u = [normals[f] for f in tight]
        det = int_det(u)
        if det == 0:
            continue
        adj = adjugate(u)
        rhs = [-Fraction(offsets[f]) for f in tight]
        point = tuple(
            sum(adj[i][j] * rhs[j] for j in range(n)) / det for i in range(n)
        )
        if all(
            sum(a * x for a, x in zip(normals[f], point)) + offsets[f] >= 0
            for f in range(m)
        ):
            if point in seen:
                raise ValueError(f"oracle: vertex {point} is not simple")
            seen[point] = tight
    return tuple((tight, point) for point, tight in seen.items())


def brion_intersection(normals, offsets, divisors):
    """Top intersection number D_1 ... D_n by the Brion-Lawrence vertex sum.

    For a vertex v with tight facets T, let U hold their normals as rows and
    w = xi^T adj(U).  Then x_v(D) solves <u_F, x> = -d_F on T and the edge
    directions are the columns of U^-1, which turns the vertex sum into
        sum_v prod_j <w, d_j|T> / (|det U| prod_i w_i).
    xi runs through (1, k, k^2, ...) until no w_i vanishes.
    """
    n = len(normals[0])
    cones = []
    for tight, _ in vertex_cones(normals, offsets):
        u = [normals[f] for f in tight]
        cones.append((tight, adjugate(u), abs(int_det(u))))
    for k in itertools.count(2):
        xi = [k ** i for i in range(n)]
        weights = [
            [sum(xi[r] * adj[r][c] for r in range(n)) for c in range(n)]
            for _, adj, _ in cones
        ]
        if all(all(w) for w in weights):
            break
    total = Fraction(0)
    for (tight, _, det), w in zip(cones, weights):
        num = 1
        for d in divisors:
            num *= sum(wi * Fraction(d[f]) for wi, f in zip(w, tight))
        if num:
            total += num / (det * math.prod(w))
    return total


def cube_closed_form(divisors):
    """Q^n: facets 2j and 2j+1 both carry the axis class c_j, and c_j^2 = 0,
    so the product is the permanent of the axis-weight matrix."""
    n = len(divisors)
    w = [[d[2 * j] + d[2 * j + 1] for j in range(n)] for d in divisors]
    return sum(
        math.prod(Fraction(w[i][perm[i]]) for i in range(n))
        for perm in itertools.permutations(range(n))
    )


def simplex_closed_form(divisors):
    """Delta^n: every facet class is the hyperplane class H and H^n = 1."""
    return math.prod(Fraction(sum(d)) for d in divisors)


P112_TABLE = ((Fraction(1, 2), 1, Fraction(1, 2)), (1, 2, 1), (Fraction(1, 2), 1, Fraction(1, 2)))
"""D_i . D_j on P(1,1,2) with normals (1,0), (0,1), (-1,-2): the weights are
q = (1, 2, 1) and D_i . D_j = q_i q_j / (q_0 q_1 q_2)."""


def p112_closed_form(divisors):
    a, b = divisors
    return sum(
        Fraction(a[i]) * b[j] * P112_TABLE[i][j] for i in range(3) for j in range(3)
    )


def product_closed_form(dim_p, facets_p, inter_p, inter_q, divisors):
    """P x Q with the facets of P first: choose which dim_p of the divisors
    meet on P and let the others meet on Q."""
    n = len(divisors)
    total = Fraction(0)
    for on_p in itertools.combinations(range(n), dim_p):
        rest = [j for j in range(n) if j not in on_p]
        total += inter_p([divisors[j][:facets_p] for j in on_p]) * inter_q(
            [divisors[j][facets_p:] for j in rest]
        )
    return total


def minimal_nonfaces(normals, offsets):
    """Facet sets missing from every vertex whose proper subsets all meet."""
    incidences = [frozenset(t) for t, _ in vertex_cones(normals, offsets)]
    n = len(normals[0])

    def is_face(s):
        return any(s <= inc for inc in incidences)

    out = set()
    for size in range(2, n + 2):
        for combo in itertools.combinations(range(len(normals)), size):
            s = frozenset(combo)
            if not is_face(s) and all(is_face(s - {f}) for f in s):
                out.add(s)
    return out


def check_presentation(normals, offsets, pres):
    m, n = len(normals), len(normals[0])
    if tuple(pres.generators) != tuple(range(m)):
        return "generators are not the facet ids"
    want = tuple(tuple(u[i] for u in normals) for i in range(n))
    if tuple(map(tuple, pres.linear_relations)) != want:
        return "linear relations differ from the transposed normals"
    if set(map(frozenset, pres.minimal_nonfaces)) != minimal_nonfaces(normals, offsets):
        return "minimal non-faces differ"
    return None


# ------------------------------------------------------- integer certificates

def check_certificate(normals, h, touched, cert):
    """An avoidance certificate vanishes on the touched facets and differs
    from h by a principal divisor.  None is right only when no such divisor
    exists, i.e. when <u_F, v> = -h_F on the touched facets is inconsistent."""
    touched = sorted(touched)
    if cert is None:
        rows = [normals[f] for f in touched]
        if consistent(rows, [-Fraction(h[f]) for f in touched]):
            return f"no certificate reported for solvable touched set {touched}"
        return None
    if any(cert[f] != 0 for f in touched):
        return f"certificate is nonzero on touched set {touched}"
    if not consistent(list(normals), [Fraction(a) - Fraction(b) for a, b in zip(cert, h)]):
        return "certificate is not linearly equivalent to h"
    return None


# ---------------------------------------------------------- sample covers

BOX_LIMIT = 10 ** 7


def integer_sample(normals, offsets, r):
    """The points a in Z^n with a / r in P, by integer half-space tests."""
    n = len(normals[0])
    pts = [p for _, p in vertex_cones(normals, offsets)]
    box = [
        range(math.ceil(min(p[i] for p in pts) * r), math.floor(max(p[i] for p in pts) * r) + 1)
        for i in range(n)
    ]
    if math.prod(len(b) for b in box) > BOX_LIMIT:
        raise ValueError(f"grid 1/{r} is too fine to enumerate")
    rows = []
    for u, c in zip(normals, offsets):
        c = Fraction(c)
        rows.append(([x * c.denominator for x in u], c.numerator * r))
    return {
        a
        for a in itertools.product(*box)
        if all(sum(x * y for x, y in zip(uu, a)) + cc >= 0 for uu, cc in rows)
    }


def scaled_points(points, r):
    """Rational points with denominators dividing r, as integer tuples."""
    out = set()
    for pt in points:
        scaled = tuple(Fraction(x) * r for x in pt)
        if any(s.denominator != 1 for s in scaled):
            raise ValueError(f"point {pt} is off the 1/{r} grid")
        out.add(tuple(int(s) for s in scaled))
    return out


def touch_set(normals, offsets, int_points, r, eps):
    """Facets F with some point a / r at slack <= eps * |u_F|_1, decided in
    integers after clearing the denominators of the offset, the grid and eps."""
    eps = Fraction(eps)
    touched = set()
    for f, (u, c) in enumerate(zip(normals, offsets)):
        c = Fraction(c)
        lhs_scale = c.denominator * eps.denominator
        const = c.numerator * r * eps.denominator
        bound = eps.numerator * sum(abs(x) for x in u) * r * c.denominator
        if any(
            sum(x * y for x, y in zip(u, a)) * lhs_scale + const <= bound
            for a in int_points
        ):
            touched.add(f)
    return touched


# ---------------------------------------------------------- lattice models

@functools.lru_cache(maxsize=None)
def model_points(kind, n, r):
    if kind == "cube":
        return frozenset(itertools.product(range(r + 1), repeat=n))
    return frozenset(
        p
        for p in itertools.product(range(r + 1), repeat=n + 1)
        if sum(p) == r
    )


def neighbors(kind, n, r, p):
    out = []
    if kind == "cube":
        for j in range(n):
            for step in (-1, 1):
                if 0 <= p[j] + step <= r:
                    out.append(p[:j] + (p[j] + step,) + p[j + 1:])
        return out
    for i, j in itertools.permutations(range(n + 1), 2):
        if p[i] > 0:
            q = list(p)
            q[i] -= 1
            q[j] += 1
            out.append(tuple(q))
    return out


def is_connected(points, kind, n, r):
    points = set(points)
    if not points:
        return False
    start = next(iter(points))
    seen = {start}
    queue = deque([start])
    while queue:
        p = queue.popleft()
        for q in neighbors(kind, n, r, p):
            if q in points and q not in seen:
                seen.add(q)
                queue.append(q)
    return len(seen) == len(points)


def multiplicity(sets):
    counts = Counter(p for pts in sets.values() for p in pts)
    return max(counts.values(), default=0)


def union(sets):
    out = set()
    for pts in sets.values():
        out |= set(pts)
    return out


def spans_axis(pts, axis, r):
    return any(p[axis] == 0 for p in pts) and any(p[axis] == r for p in pts)


def cube_faces_parallel(n, r, free):
    """The k-faces of {0..r}^n spanned by the axes in `free`, as dicts of
    fixed coordinates."""
    rest = [a for a in range(n) if a not in free]
    return [dict(zip(rest, vals)) for vals in itertools.product((0, r), repeat=len(rest))]


def meets_cube_face(pts, fixed):
    return any(all(p[a] == v for a, v in fixed.items()) for p in pts)


def meets_simplex_face(pts, support):
    return any(all(x == 0 for i, x in enumerate(p) if i not in support) for p in pts)


def check_component(comp, allowed, kind, n, r):
    comp = set(map(tuple, comp))
    if not comp <= allowed:
        return "component leaves its set"
    if not is_connected(comp, kind, n, r):
        return "component is not connected"
    return None


def check_lebesgue(n, r, sets, verdict, payload):
    """Full cover of {0..r}^n with multiplicity <= n: some set spans an axis."""
    full = union(sets) == model_points("cube", n, r)
    mult = multiplicity(sets)
    if not full or mult > n:
        if verdict != "hypothesis_violated":
            return f"hypotheses fail (cover={full}, multiplicity={mult}) but verdict {verdict}"
        if not full:
            return None if payload.get("reason") == "union_does_not_cover" else "wrong reason"
        return None if payload.get("multiplicity") == mult else "wrong multiplicity reported"
    if verdict != "witness_found":
        return f"theorem promises a witness, verdict {verdict}"
    if not spans_axis(sets[payload["set"]], payload["axis"], r):
        return "reported set does not span the reported axis"
    return None


def check_bricks_control(n, r, sets, verdict, payload):
    """The staggered bricks cover the cube n+1 deep and no brick spans an axis."""
    if union(sets) != model_points("cube", n, r):
        return "bricks do not cover the cube"
    if any(spans_axis(pts, a, r) for pts in sets.values() for a in range(n)):
        return "a brick spans an axis"
    mult = multiplicity(sets)
    if mult != n + 1:
        return f"brick multiplicity {mult}, expected {n + 1}"
    if verdict != "hypothesis_violated" or payload.get("multiplicity") != mult:
        return f"bricks control verdict {verdict} {payload}"
    return None


def check_kkm(n, r, k, sets, verdict, payload):
    """Simplex family, every set missing a facet, multiplicity <= k: some
    complement component meets every k-face."""
    coords = range(n + 1)
    if any(pts and all(any(p[i] == 0 for p in pts) for i in coords) for pts in sets.values()):
        return None if verdict == "hypothesis_violated" else "a set touches every facet"
    if multiplicity(sets) > k:
        return None if verdict == "hypothesis_violated" else "multiplicity exceeds k"
    if verdict != "witness_found":
        return f"theorem promises a witness, verdict {verdict}"
    complement = model_points("simplex", n, r) - union(sets)
    bad = check_component(payload["component"], complement, "simplex", n, r)
    if bad:
        return bad
    comp = list(map(tuple, payload["component"]))
    for support in itertools.combinations(coords, k + 1):
        if not meets_simplex_face(comp, set(support)):
            return f"component misses the face on {support}"
    return None


def check_complement(n, r, k, sets, verdict, payload):
    """Cube family, no set spanning an axis, multiplicity <= k: some
    complement component meets all k-faces parallel to a coordinate k-plane."""
    if any(spans_axis(pts, a, r) for pts in sets.values() for a in range(n)):
        return None if verdict == "hypothesis_violated" else "a set spans an axis"
    if multiplicity(sets) > k:
        return None if verdict == "hypothesis_violated" else "multiplicity exceeds k"
    if verdict != "witness_found":
        return f"theorem promises a witness, verdict {verdict}"
    complement = model_points("cube", n, r) - union(sets)
    bad = check_component(payload["component"], complement, "cube", n, r)
    if bad:
        return bad
    comp = list(map(tuple, payload["component"]))
    for fixed in cube_faces_parallel(n, r, set(payload["axes"])):
        if not meets_cube_face(comp, fixed):
            return f"component misses the face {fixed}"
    return None


def check_axes(n, r, names, sets, verdict, payload):
    """n-set full cover of the cube: a component of set i spans axis i."""
    if union(sets) != model_points("cube", n, r):
        return None if verdict == "hypothesis_violated" else "not a cover"
    if verdict != "witness_found":
        return f"theorem promises a witness, verdict {verdict}"
    axis = payload["axis"]
    if names[axis] != payload["set"]:
        return "set and axis are not paired by position"
    bad = check_component(payload["component"], set(sets[payload["set"]]), "cube", n, r)
    if bad:
        return bad
    if not spans_axis(list(map(tuple, payload["component"])), axis, r):
        return "component does not span its axis"
    return None


def check_coloring(sets, classes):
    """classes[i] lists (set names, points) pieces covered by exactly those
    i+1 sets: pieces refine the cover, are disjoint within a class, and
    together give back the union."""
    if len(classes) != multiplicity(sets):
        return "number of classes differs from the multiplicity"
    membership = {}
    for name, pts in sets.items():
        for p in pts:
            membership.setdefault(p, set()).add(name)
    seen = set()
    for i, cls in enumerate(classes):
        used = set()
        for names, pts in cls:
            if len(names) != i + 1:
                return f"piece of {len(names)} sets in class {i + 1}"
            pts = set(map(tuple, pts))
            if used & pts:
                return f"class {i + 1} is not disjoint"
            used |= pts
            if any(membership.get(p) != set(names) for p in pts):
                return "piece is not covered by exactly its sets"
        seen |= used
    if seen != set(membership):
        return "pieces do not give back the union"
    return None


# -------------------------------------------------------------- kkm-lebesgue

def check_kkm_lebesgue(normals, offsets, r, sample, sets, eps, verdict, payload):
    """Sample cover of a simple polytope with multiplicity <= n: some set
    touches n+1 facets at tolerance eps; every set touching at most n facets
    carries a certificate that passes check_certificate.  The sample must be
    the whole lattice sample of P on the grid (1/r) Z^n; payload certificates
    map set names to None or to divisor coefficient lists."""
    n = len(normals[0])
    got = scaled_points(sample, r)
    if got != integer_sample(normals, offsets, r) or len(got) != len(sample):
        return "sample differs from the integer lattice sample"
    int_sets = {name: scaled_points(pts, r) for name, pts in sets.items()}
    if union(int_sets) != got:
        return "sets do not cover the sample"
    if multiplicity(int_sets) > n:
        return None if verdict == "hypothesis_violated" else "multiplicity exceeds n"
    if verdict != "witness_found":
        return f"theorem promises a witness, verdict {verdict}"
    if Fraction(payload["eps"]) != Fraction(eps):
        return "report eps differs from the requested eps"
    touched = {name: touch_set(normals, offsets, pts, r, eps) for name, pts in int_sets.items()}
    for name, want in touched.items():
        if set(payload["touched_facets"][name]) != want:
            return f"touched facets of {name} differ"
    if len(touched[payload["set"]]) < n + 1:
        return "witness set touches at most n facets"
    certs = payload["certificates"]
    for name, want in touched.items():
        if len(want) > n:
            continue
        if name not in certs:
            return f"set {name} carries no certificate entry"
        # the offsets divisor differs from the ample class by a principal one
        bad = check_certificate(normals, offsets, want, certs[name])
        if bad:
            return f"{name}: {bad}"
    return None
