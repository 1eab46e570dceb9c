"""Simple polytopes from half-space data, exact over the rationals.

A polytope is stored as P = {x : <normal_F, x> + offset_F >= 0} with primitive
integer inward normals and rational offsets.  Vertices are always derived from
the half-spaces by exhaustive n-subset solving; this is exact and fast enough
at desk scale (n <= 4, a dozen facets).  The solving, the slack signs, the
spanning test and the genericity test all run in integers on the cleared
half-space data (linalg's int_* functions); Fraction is only the type of the
stored offsets and vertex coordinates.

Facet ids are the integer positions 0..m-1 in the facet list; that ordering is
the one serialized to JSON and referenced by divisor coefficient maps.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass
from fractions import Fraction

from . import linalg


class InputError(ValueError):
    """A value the caller passed in is rejected; the message names it.

    Raised where the bad value is found, so that any other exception is a bug
    of the library.  The subclasses name particular refusals.
    """


class NotSimpleError(InputError):
    """Some vertex lies on more than dim-many facets."""


class UnboundedError(InputError):
    """The facet normals do not positively span the ambient space."""


class EmptyPolytopeError(InputError):
    """The half-space system has no feasible point."""


class BudgetExhaustedError(InputError):
    """perturb() ran out of retries without finding a good perturbation."""


@dataclass(frozen=True)
class Vertex:
    coords: tuple
    facets: frozenset


@dataclass(frozen=True)
class FaceDescriptor:
    """A face of a simple polytope, named by the facets containing it."""

    facet_ids: frozenset
    dim: int


@dataclass(frozen=True)
class SimplePolytope:
    dim: int
    normals: tuple      # tuple of primitive integer vectors (inward)
    offsets: tuple      # tuple of Fraction
    vertices: tuple     # tuple of Vertex

    @property
    def num_facets(self) -> int:
        return len(self.normals)

    def facet_ids(self):
        return range(len(self.normals))

    def slack(self, facet_id: int, point) -> Fraction:
        return linalg.dot(self.normals[facet_id], point) + self.offsets[facet_id]

    def contains(self, point) -> bool:
        return all(self.slack(f, point) >= 0 for f in self.facet_ids())

    def incidence_pattern(self):
        """The combinatorial type: set of vertex incidence sets."""
        return frozenset(v.facets for v in self.vertices)

    def translate(self, shift) -> "SimplePolytope":
        """The polytope P - shift (so that `shift` maps to the origin)."""
        offsets = tuple(
            c + linalg.dot(u, shift) for u, c in zip(self.normals, self.offsets)
        )
        vertices = tuple(
            Vertex(linalg.vec_sub(v.coords, shift), v.facets) for v in self.vertices
        )
        return SimplePolytope(self.dim, self.normals, offsets, vertices)

    def vertex_centroid(self):
        """Average of the vertices: always a strictly interior point."""
        n = len(self.vertices)
        acc = [Fraction(0)] * self.dim
        for v in self.vertices:
            for i, x in enumerate(v.coords):
                acc[i] += x
        return tuple(x / n for x in acc)


def _primitivize(normal, offset):
    prim, scale = linalg.primitive_int_vector(normal)
    return prim, Fraction(offset) * scale


def _positively_spanning(normals, n) -> bool:
    """True iff {d : <u,d> >= 0 for all u} = {0} (the recession cone is trivial).

    The cone is pointed once the normals have full rank; a nontrivial pointed
    cone contains an extreme ray tight on n-1 of the constraints, so checking
    the kernel directions of all (n-1)-subsets is exhaustive.  The normals are
    integer vectors, so the kernel directions and sign tests stay in integers.
    """
    if linalg.rank(normals) < n:
        return False
    for subset in itertools.combinations(normals, n - 1):
        d = linalg.int_nullspace_vector(subset, n)
        if d is None:
            continue
        dots = [sum(a * b for a, b in zip(u, d)) for u in normals]
        if all(s >= 0 for s in dots) or all(s <= 0 for s in dots):
            return False
    return True


def solve_region_vertices(normals, offsets, *, require_simple):
    """Basic feasible points of {x : <u_F,x> + c_F >= 0} with their tight sets.

    Each half-space is scaled once to integer data (u_F, c_F) * s_F, which
    leaves it unchanged.  Every n-subset of facets is then solved in integers
    as x = X / d, and the m slacks are read off the integers
    <u_F, X> + c_F d, which have the signs of the true slacks; a Fraction is
    built only for the coordinates of a new vertex.

    Returns a list of Vertex.  With require_simple, raises NotSimpleError as
    soon as a feasible basic point is tight on more than n facets.
    """
    n = len(normals[0])
    m = len(normals)
    rows = [linalg.int_row(list(u) + [c])[0] for u, c in zip(normals, offsets)]
    seen = {}
    for subset in itertools.combinations(rows, n):
        sol = linalg.int_solve_unique(
            [row[:n] for row in subset], [-row[n] for row in subset]
        )
        if sol is None or sol in seen:
            continue
        x, d = sol
        slacks = [sum(a * b for a, b in zip(row, x)) + row[n] * d for row in rows]
        if any(s < 0 for s in slacks):
            continue
        tight = frozenset(i for i in range(m) if slacks[i] == 0)
        point = tuple(Fraction(v, d) for v in x)
        if require_simple and len(tight) > n:
            raise NotSimpleError(
                f"vertex {point} lies on {len(tight)} facets (expected {n})"
            )
        seen[sol] = Vertex(point, tight)
    return list(seen.values())


def from_halfspaces(normals, offsets) -> SimplePolytope:
    """Build a simple polytope from {x : <normal_i, x> + offset_i >= 0}.

    Normals are primitivized (offsets rescaled along) so each stored normal
    has integer entries with gcd 1.  Every input half-space must define an
    actual facet; a redundant inequality is rejected because it would break
    the round trip between the H-representation and the vertex set.
    """
    if len(normals) != len(offsets):
        raise InputError("normals and offsets must have the same length")
    if not normals:
        raise InputError("at least one half-space is required")
    n = len(normals[0])
    if n < 1:
        raise InputError("ambient dimension must be >= 1")
    if any(len(u) != n for u in normals):
        raise InputError("all normals must have the same length")
    if len(normals) < n + 1:
        raise UnboundedError("fewer than n+1 facets cannot bound a polytope")
    if not all(any(u) for u in normals):
        raise InputError("zero vector has no primitive form")

    prim = [_primitivize(u, c) for u, c in zip(normals, offsets)]
    unormals = tuple(p[0] for p in prim)
    uoffsets = tuple(p[1] for p in prim)

    if not _positively_spanning(unormals, n):
        raise UnboundedError("facet normals do not positively span the space")

    vertices = solve_region_vertices(unormals, uoffsets, require_simple=True)
    if not vertices:
        raise EmptyPolytopeError("no feasible vertex: the system is empty")

    covered = set()
    for v in vertices:
        covered |= v.facets
    missing = [i for i in range(len(unormals)) if i not in covered]
    if missing:
        raise InputError(
            f"half-spaces {missing} carry no vertex; inputs must all be facets"
        )
    return SimplePolytope(n, unormals, uoffsets, tuple(vertices))


def construct_standard(kind: str, n: int) -> SimplePolytope:
    """The unit cube {0 <= x_j <= 1} or the standard simplex {x >= 0, sum <= 1}.

    Facet order (the facet ids) is documented and stable:
      cube:    facet 2j is x_{j+1} >= 0 (the lower facet of axis j),
               facet 2j+1 is 1 - x_{j+1} >= 0 (the upper facet), j = 0..n-1;
      simplex: facet j is x_{j+1} >= 0 for j = 0..n-1, facet n is the slant
               1 - sum(x) >= 0.
    """
    if n < 1:
        raise InputError("n must be >= 1")
    if kind == "cube":
        normals = []
        offsets = []
        for j in range(n):
            e = tuple(1 if i == j else 0 for i in range(n))
            normals.append(e)
            offsets.append(Fraction(0))
            normals.append(tuple(-x for x in e))
            offsets.append(Fraction(1))
        return from_halfspaces(normals, offsets)
    if kind == "simplex":
        normals = [tuple(1 if i == j else 0 for i in range(n)) for j in range(n)]
        offsets = [Fraction(0)] * n
        normals.append(tuple(-1 for _ in range(n)))
        offsets.append(Fraction(1))
        return from_halfspaces(normals, offsets)
    raise InputError(f"unknown standard polytope kind: {kind!r}")


def cube_facet_id(axis: int, sign: str) -> int:
    """Facet id of the cube facet on `axis` (0-based): '-' lower, '+' upper."""
    if sign not in ("-", "+"):
        raise InputError("sign must be '-' or '+'")
    return 2 * axis + (0 if sign == "-" else 1)


def product(p: SimplePolytope, q: SimplePolytope) -> SimplePolytope:
    """Cartesian product; facets of p come first, then facets of q."""
    n = p.dim + q.dim
    zeros_q = tuple(0 for _ in range(q.dim))
    zeros_p = tuple(0 for _ in range(p.dim))
    normals = tuple(u + zeros_q for u in p.normals) + tuple(
        zeros_p + u for u in q.normals
    )
    offsets = p.offsets + q.offsets
    shift = p.num_facets
    vertices = tuple(
        Vertex(
            vp.coords + vq.coords,
            frozenset(vp.facets) | frozenset(f + shift for f in vq.facets),
        )
        for vp in p.vertices
        for vq in q.vertices
    )
    return SimplePolytope(n, normals, offsets, vertices)


def faces(p: SimplePolytope, k: int):
    """All k-faces, each as the (n-k)-set of facets whose intersection it is.

    In a simple polytope a facet subset S cuts out a nonempty face iff S is
    contained in the incidence set of some vertex, and then the face has
    dimension exactly n - |S|.
    """
    if not 0 <= k <= p.dim:
        raise InputError(f"face dimension {k} out of range 0..{p.dim}")
    size = p.dim - k
    found = set()
    for v in p.vertices:
        for combo in itertools.combinations(sorted(v.facets), size):
            found.add(frozenset(combo))
    return [FaceDescriptor(s, k) for s in sorted(found, key=sorted)]


def generic_normals_check(p: SimplePolytope) -> bool:
    """True iff every n-subset of facet normals is linearly independent."""
    for subset in itertools.combinations(p.normals, p.dim):
        if linalg.int_det(subset) == 0:
            return False
    return True


PERTURB_MAX_RETRIES = 32


def perturb(p: SimplePolytope, budget, *, seed: int = 0) -> SimplePolytope:
    """Tilt facet normals by rationals of magnitude <= budget until the result
    is simple, has generic normals, and keeps the input's incidence lattice.

    Each retry halves the tilt size; after PERTURB_MAX_RETRIES failed attempts
    a BudgetExhaustedError is raised.  In dimension 1 every normal subset is
    already independent, so the input is returned unchanged.

    After tilting, each (normal, offset) pair is rescaled to a primitive
    integer normal; the offset is scaled by the same factor, which leaves the
    half-space unchanged.
    """
    budget = Fraction(budget)
    if budget <= 0:
        raise InputError("budget must be positive")
    if p.dim == 1:
        return p
    rng = random.Random(seed)
    pattern = p.incidence_pattern()
    step = budget
    for _ in range(PERTURB_MAX_RETRIES):
        denom = max(2, math.ceil(Fraction(1) / step)) * 4
        new_normals = []
        new_offsets = []
        for u, c in zip(p.normals, p.offsets):
            delta = [Fraction(rng.randint(-4, 4), denom) for _ in range(p.dim)]
            tilted = tuple(Fraction(x) + d for x, d in zip(u, delta))
            prim, scale = linalg.primitive_int_vector(tilted)
            new_normals.append(prim)
            new_offsets.append(c * scale)
        try:
            candidate = from_halfspaces(new_normals, new_offsets)
        except InputError:
            step = step / 2
            continue
        if candidate.incidence_pattern() == pattern and generic_normals_check(
            candidate
        ):
            return candidate
        step = step / 2
    raise BudgetExhaustedError(
        f"no valid perturbation within {PERTURB_MAX_RETRIES} retries"
    )


class ZeroVectorError(InputError):
    """Moment map evaluated on an all-zero input."""


def _norm_sq(pair) -> Fraction:
    re, im = pair
    return Fraction(re) ** 2 + Fraction(im) ** 2


def moment_map_eval(kind: str, value):
    """Evaluate a standard moment map on exact rational input.

    kind = 'cpn':  value is a list of n+1 complex numbers given as (re, im)
        rational pairs, not all zero; the result is the barycentric point
        y_i = |z_i|^2 / sum |z_j|^2 of the n-simplex.
    kind = 'product_cp1':  value is a list of n projective pairs (z0, z1) of
        complex numbers, one per line factor, neither pair all zero;
        coordinate i of the result is |z1|^2 / (|z0|^2 + |z1|^2), a point of
        the closed cube [0,1]^n.  In the affine chart z0 = 1 this is the
        familiar |z|^2 / (1 + |z|^2).
    kind = 'real_sphere':  value is a nonzero rational vector x; the result is
        x_i^2 / sum x_j^2, i.e. the squares of the coordinates after symbolic
        normalization onto the unit sphere.
    """
    if kind == "cpn":
        weights = [_norm_sq(z) for z in value]
        total = sum(weights)
        if total == 0:
            raise ZeroVectorError("cpn moment map needs a nonzero vector")
        return tuple(w / total for w in weights)
    if kind == "product_cp1":
        out = []
        for z0, z1 in value:
            w0, w1 = _norm_sq(z0), _norm_sq(z1)
            if w0 + w1 == 0:
                raise ZeroVectorError("each line factor needs a nonzero pair")
            out.append(w1 / (w0 + w1))
        return tuple(out)
    if kind == "real_sphere":
        squares = [Fraction(x) ** 2 for x in value]
        total = sum(squares)
        if total == 0:
            raise ZeroVectorError("real sphere moment map needs a nonzero vector")
        return tuple(s / total for s in squares)
    raise InputError(f"unknown moment map kind: {kind!r}")
