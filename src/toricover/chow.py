"""Divisor classes and intersection theory of the toric variety of a simple
polytope.

A divisor is a rational coefficient per facet.  Linear equivalence is the flux
relation: D ~ 0 iff coeff_F = <u_F, v> for a single constant vector v.  Top
intersection numbers are computed by localization at the vertices of P (the
Brion-Lawrence vertex sum): each vertex contributes a closed rational term
built from its facet normals, so the product is a polynomial in the
coefficients with no shift, search over multiples or cap.  The sum is taken
in integers: the normals are primitive integer vectors, so one fraction-free
elimination per vertex cone gives its edge weights as an integer vector a_v
over the cone's determinant d_v.  A term has degree n in the weights above
the bar and below it, so d_v cancels and the term reads
prod_j <a_v, D_j|_v> / (|d_v| prod_i a_{v,i}).  Those eliminations and the
terms' common denominator depend only on the polytope, so they run once per
polytope and are kept on it (SimplePolytope.vertex_cones), and a query is
one integer sum over the vertices with one Fraction at the end.  Each
divisor is cleared to integer numerators once and keeps them
(Divisor.cleared), so H^n and the certificates that share one H clear it
once.  Simple non-Delzant polytopes come out with rational (orbifold)
intersection numbers automatically; no extra bookkeeping is done for them.

The ring presentation runs on vertex masks: facet F carries the bitmask of
the vertices on it, a facet set is a face iff the AND of its masks is
nonzero, and one walk over the faces in increasing facet order reads off
the minimal non-faces.

The other constructions run in integers too, with one Fraction built per
returned coefficient.  A principal divisor clears v once, so each flux is
one integer dot product over v's scale.  The ample class reads the vertex
centroid as one integer vector over one denominator
(SimplePolytope.cleared_centroid).  The flux solves, is_principal and the
avoidance certificates, read the divisor's cleared numerators and take
their vector from linalg.int_solve, an integer solution over one pivot.  A
divisor handed to IntersectionQuery, avoidance_certificate, is_principal or
linearly_equivalent must be exactly a tuple of one int or Fraction per
facet, and InputError names it otherwise.
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Mapping
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from operator import add, mul, sub

from . import linalg
from .polytope import (
    InputError,
    NotSimpleError,
    SimplePolytope,
    exact,
    exact_int,
    sequence,
    solve_region_vertices,
)


class NefLiftFailedError(Exception):
    """No longer raised: vertex localization has no cap to exceed.

    Kept so that callers which name it as an expected error still import.
    """


@dataclass(frozen=True)
class Divisor:
    """Facet-indexed rational coefficients; position i belongs to facet id i."""

    coeffs: tuple

    @classmethod
    def from_map(cls, p: SimplePolytope, mapping) -> "Divisor":
        """The divisor with mapping[F] on facet F and 0 elsewhere.  A facet
        id is read by polytope.exact_int and a value by polytope.exact, so a
        float, a bool or a string id and a float or bool value raise
        InputError, as does an id outside 0..m-1."""
        if not isinstance(mapping, Mapping):
            raise InputError(f"mapping must be a mapping of facet ids to numbers, got {mapping!r}")
        coeffs = [Fraction(0)] * p.num_facets
        for fid, value in mapping.items():
            fid = exact_int(fid, "facet id")
            if not 0 <= fid < p.num_facets:
                raise InputError(f"facet id {fid} not in 0..{p.num_facets - 1}")
            coeffs[fid] = exact(value, f"facet {fid} coefficient")
        return cls(tuple(coeffs))

    @classmethod
    def zero(cls, p: SimplePolytope) -> "Divisor":
        return cls(tuple(Fraction(0) for _ in range(p.num_facets)))

    @classmethod
    def on_facet(cls, p: SimplePolytope, facet_id: int, value=1) -> "Divisor":
        return cls.from_map(p, {facet_id: value})

    @cached_property
    def cleared(self):
        """(c, s): the coefficients as the integer tuple c over their lcm
        denominator s, from one linalg.int_row call, kept on the divisor.
        It is not a field, so ==, hash, repr and asdict ignore it.  It is
        sound because coeffs is a tuple, which the checked entry points
        (_check_divisor) insist on."""
        c, s = linalg.int_row(self.coeffs)
        return tuple(c), s

    def __add__(self, other: "Divisor") -> "Divisor":
        return Divisor(tuple(map(add, self.coeffs, _same_length(self, other))))

    def __sub__(self, other: "Divisor") -> "Divisor":
        return Divisor(tuple(map(sub, self.coeffs, _same_length(self, other))))

    def __rmul__(self, scalar) -> "Divisor":
        c = exact(scalar, "scalar")
        return Divisor(tuple(c * a for a in self.coeffs))


def _same_length(d: Divisor, other: Divisor) -> tuple:
    """other's coefficients, refusing a length other than d's: zip would cut
    the longer divisor to the shorter one."""
    if len(other.coeffs) != len(d.coeffs):
        raise InputError(
            f"divisors must have the same number of coefficients, got {len(d.coeffs)}"
            f" and {len(other.coeffs)}"
        )
    return other.coeffs


@dataclass(frozen=True)
class RingPresentation:
    """Generators c_F, the n linear relations sum_F u_F[i] c_F = 0, and the
    minimal non-faces (facet sets with empty intersection)."""

    generators: tuple
    linear_relations: tuple
    minimal_nonfaces: tuple


@dataclass(frozen=True)
class IntersectionQuery:
    polytope: SimplePolytope
    divisors: tuple

    def __post_init__(self):
        if len(sequence(self.divisors, "divisors", "Divisors")) != self.polytope.dim:
            raise InputError(
                f"need exactly {self.polytope.dim} divisors, got {len(self.divisors)}"
            )
        for i, d in enumerate(self.divisors):
            _check_divisor(self.polytope, d, "divisors", i)


def _check_divisor(p: SimplePolytope, d: Divisor, name: str, index=None) -> None:
    """Refuse a divisor that is not exactly a tuple of one int or Fraction
    per facet of p, naming it name, or name[index] when an index is given:
    a bool or float is no exact coefficient, a short or long divisor would
    be cut to the facets silently, and coefficients that can change under
    the divisor would leave Divisor.cleared stale.  The accepted case is
    one type test, one length test and one type pass, with the message
    built only on refusal."""
    coeffs = d.coeffs
    if type(coeffs) is tuple and len(coeffs) == len(p.normals):
        for c in coeffs:
            if type(c) is not Fraction and type(c) is not int:
                break
        else:
            return
    if index is not None:
        name = f"{name}[{index}]"
    if type(coeffs) is not tuple:
        raise InputError(f"{name} coefficients must be a tuple, got {type(coeffs).__name__}")
    if len(coeffs) != len(p.normals):
        raise InputError(
            f"{name} must have one coefficient per facet ({len(p.normals)}), got {len(coeffs)}"
        )
    bad = next(c for c in coeffs if type(c) is not Fraction and type(c) is not int)
    raise InputError(f"{name} coefficients must be ints or Fractions, got {bad!r}")


@dataclass(frozen=True)
class Region:
    """The offsets-polytope {x : <u_F, x> + coeff_F >= 0} of a divisor.

    Always bounded here because the normals are those of an existing polytope.
    May be empty or lower dimensional; both report volume 0.
    """

    dim: int
    normals: tuple
    offsets: tuple
    vertices: tuple

    @property
    def is_empty(self) -> bool:
        return not self.vertices

    def affine_rank(self) -> int:
        if not self.vertices:
            return -1
        base = self.vertices[0].coords
        rows = [linalg.vec_sub(v.coords, base) for v in self.vertices[1:]]
        return linalg.rank(rows) if rows else 0

    @property
    def is_full_dim(self) -> bool:
        return self.affine_rank() == self.dim

    @property
    def is_simple(self) -> bool:
        return all(len(v.facets) == self.dim for v in self.vertices)

    def incidence_pattern(self):
        return frozenset(v.facets for v in self.vertices)


def presentation(p: SimplePolytope) -> RingPresentation:
    """Linear relations from the normals plus the minimal non-faces.

    Facet F carries masks[F], the bitmask of the vertices on it, and a
    facet set is a face iff the AND of its masks is nonzero.  A depth-first
    walk visits every nonempty face once, as its sorted facet tuple,
    carrying its AND.  A face S plus a facet g > max S whose AND is 0 is a
    non-face; it is minimal iff each of its other subsets S - f + g still
    has a nonzero AND, since dropping g leaves the face S.  The walk
    extends only faces, and a face of a simple polytope has at most n
    facets, so no non-face found has more than n+1 elements, and no larger
    one is minimal: it contains an (n+1)-subset that is already a non-face.
    """
    relations = tuple(
        tuple(u[i] for u in p.normals) for i in range(p.dim)
    )
    m = p.num_facets
    masks = [0] * m
    for i, v in enumerate(p.vertices):
        for f in v.facets:
            masks[f] |= 1 << i

    nonfaces = []

    def walk(face, meet):
        deeper = len(face) < p.dim
        for g in range(face[-1] + 1, m):
            mask = masks[g]
            if meet & mask:
                if deeper:
                    walk(face + (g,), meet & mask)
            elif all(_meet(masks, face, f) & mask for f in face):
                nonfaces.append(frozenset(face + (g,)))

    for f in range(m):
        if masks[f]:
            walk((f,), masks[f])
    return RingPresentation(
        generators=tuple(range(m)),
        linear_relations=relations,
        minimal_nonfaces=tuple(sorted(nonfaces, key=sorted)),
    )


def _meet(masks, face, skip) -> int:
    """The AND of the masks of face's facets other than skip (all ones for
    none)."""
    meet = -1
    for f in face:
        if f != skip:
            meet &= masks[f]
    return meet


def principal_divisor(p: SimplePolytope, v) -> Divisor:
    """The divisor of fluxes <u_F, v> of the constant vector field v.

    v must have one entry per dimension, and each entry is read by
    polytope.exact, so a float, a bool or a malformed string raises
    InputError naming v.  v is cleared once to x / s with x integer, and
    each flux is <u_F, x> / s.
    """
    if len(sequence(v, "v", f"{p.dim} numbers")) != p.dim:
        raise InputError(f"v must have one entry per dimension ({p.dim}), got {len(v)}")
    x, s = linalg.int_row([exact(e, "v") for e in v])
    return Divisor(tuple(Fraction(sum(map(mul, u, x)), s) for u in p.normals))


def is_principal(p: SimplePolytope, d: Divisor):
    """A vector v with <u_F, v> = coeff_F for every facet, or None.  A d
    that is not one int or Fraction per facet raises InputError naming d.
    With d = c / s (Divisor.cleared), linalg.int_solve gives s v = x / e."""
    _check_divisor(p, d, "d")
    c, s = d.cleared
    solved = linalg.int_solve(p.normals, c)
    return None if solved is None else tuple(Fraction(v, s * solved[1]) for v in solved[0])


def linearly_equivalent(p: SimplePolytope, d1: Divisor, d2: Divisor) -> bool:
    """Whether d1 - d2 is principal; d1 and d2 are checked as is_principal
    checks d, since their difference would be cut to the shorter one."""
    _check_divisor(p, d1, "d1")
    _check_divisor(p, d2, "d2")
    return is_principal(p, d1 - d2) is not None


def ample_from_offsets(p: SimplePolytope) -> Divisor:
    """The ample divisor whose coefficients are the facet offsets of P after
    recentering at the vertex centroid (a strictly interior point, so all
    coefficients come out positive): c_F + <u_F, centroid>, the offsets of
    P.translate(centroid) without moving the vertices.  The centroid is
    read in integers, as S / q (SimplePolytope.cleared_centroid), so each
    coefficient is c_F + <u_F, S> / q, computed as (n q + d <u_F, S>) / (d q)
    from c_F = n / d: one Fraction per coefficient."""
    total, q = p.cleared_centroid()
    return Divisor(tuple(Fraction(c.numerator * q + c.denominator * sum(map(mul, u, total)),
                                  c.denominator * q)
                         for u, c in zip(p.normals, p.offsets)))


def polytope_of_divisor(p: SimplePolytope, d: Divisor) -> Region:
    vertices = solve_region_vertices(p.normals, d.coeffs, require_simple=False)
    vertices.sort(key=lambda v: v.coords)
    return Region(p.dim, p.normals, tuple(d.coeffs), tuple(vertices))


def _face_simplices(dim: int, vertices):
    """Triangulate a simple polytope given by vertices with facet incidences.

    Every face is coned from its lexicographically smallest vertex over the
    triangulations of the subfaces avoiding that vertex.  Returns tuples of
    n+1 coordinate tuples.
    """
    memo = {}

    def face_verts(s):
        return [v for v in vertices if s <= v.facets]

    def tri(s, d):
        if s in memo:
            return memo[s]
        vs = face_verts(s)
        if d == 0:
            memo[s] = [(vs[0].coords,)]
            return memo[s]
        base = min(vs, key=lambda v: v.coords)
        subfaces = set()
        for v in vs:
            for f in v.facets - s:
                subfaces.add(s | {f})
        simplices = []
        for s2 in subfaces:
            if s2 <= base.facets:
                continue
            for simplex in tri(s2, d - 1):
                simplices.append(simplex + (base.coords,))
        memo[s] = simplices
        return simplices

    return tri(frozenset(), dim)


def volume(obj) -> Fraction:
    """Exact Euclidean volume by vertex-simplex triangulation.

    Accepts a SimplePolytope or a Region.  Empty and lower-dimensional regions
    have volume 0.  A full-dimensional region whose vertex lies on more than n
    facets is rejected: volumes are taken of P and of the fan-certified
    (hence simple) regions of nef divisors, and silently triangulating a
    non-simple region would need face-lattice machinery this library does not
    carry.
    """
    if isinstance(obj, SimplePolytope):
        dim, vertices = obj.dim, obj.vertices
    else:
        if obj.is_empty or not obj.is_full_dim:
            return Fraction(0)
        if not obj.is_simple:
            raise NotSimpleError("volume of a non-simple region is unsupported")
        dim, vertices = obj.dim, obj.vertices
    total = Fraction(0)
    for simplex in _face_simplices(dim, vertices):
        base = simplex[-1]
        rows = [linalg.vec_sub(pt, base) for pt in simplex[:-1]]
        total += abs(linalg.det(rows))
    return total / math.factorial(dim)


def is_nef_certified(p: SimplePolytope, d: Divisor) -> bool:
    """Nef test: the offsets-polytope of d has exactly P's incidence pattern."""
    region = polytope_of_divisor(p, d)
    return region.incidence_pattern() == p.incidence_pattern()


def intersection_number(query: IntersectionQuery) -> Fraction:
    """Top intersection product D_1 ... D_n by localization at the vertices.

    At a vertex v let U_v hold the normals of its n facets as rows, e_{v,i} the
    columns of U_v^-1 (the edge directions) and x_v(D) the solution of
    <u_F, x> = -d_F on those facets.  Then
        D_1 ... D_n = sum_v prod_j <xi, x_v(D_j)> / (|det U_v| prod_i -<xi, e_{v,i}>)
    for any xi with no zero edge weight <xi, e_{v,i}>.  Since
    x_v(D) = -sum_i d_{F_i} e_{v,i}, each term reduces to
        prod_j <w_v, D_j|_v> / (|det U_v| prod_i w_{v,i}),
    where the weights w_v = (<xi, e_{v,i}>)_i solve U_v^T w = xi.  xi is the
    first (1, t, t^2, ...) with t = 1, 2, ... at which no weight vanishes; each
    weight is a nonzero polynomial of degree < n in t, so the search is finite.

    The sum is taken in integers.  U_v and xi are integer, so one
    int_cramer call gives w_v = a_v / d_v with a_v integer and d_v = det U_v.
    The term is homogeneous of degree n over degree n in w, so d_v cancels
    from the weights and the term is
        prod_j <a_v, D_j|_v> / (|d_v| prod_i a_{v,i}).
    Its denominator depends only on the polytope, as do the int_cramer
    calls and the xi search: they run once per polytope, in
    SimplePolytope.vertex_cones, which also keeps the lcm L of the
    denominators and each vertex's multiplier k_v = L / (|d_v| prod_i a_{v,i}).
    Each divisor carries its integer numerators c_j = s_j D_j
    (Divisor.cleared), so a query is the integer sum
        sum_v k_v prod_j <a_v, c_j|_v>
    over the one denominator L prod_j s_j, a single Fraction.
    """
    facet_sets, cones, scale = query.polytope.vertex_cones
    cleared = [d.cleared for d in query.divisors]
    total = 0
    for facets, (a, _, k) in zip(facet_sets, cones):
        term = 1
        for c, _ in cleared:
            term *= sum(map(mul, a, [c[f] for f in facets]))
        total += k * term
    return Fraction(total, scale * math.prod(s for _, s in cleared))


def self_intersection_top(p: SimplePolytope, d: Divisor) -> Fraction:
    """The n-fold product D^n; equals n! vol(region(D)) for nef D."""
    return intersection_number(IntersectionQuery(p, tuple([d] * p.dim)))


def avoidance_certificate(p: SimplePolytope, h: Divisor, touched):
    """A divisor H' ~ H with zero coefficient on every touched facet, or None.

    H' = H + div(v) where v solves <u_F, v> = -coeff_F(H) for F touched; when
    the system is underdetermined the free components of v are set to zero.
    A touched id that is not an int (a bool, a float, a string) or lies
    outside 0..m-1 raises InputError, and so does an h that is not a tuple
    of one int or Fraction per facet.

    The solve runs in integers.  H carries its numerators c = s H
    (Divisor.cleared), so the certificates of one H clear it once, and s v
    solves <u_F, s v> = -c_F, and linalg.int_solve gives s v = x / d.  Each
    coefficient of H' is then (c_F d + <u_F, x>) / (s d).
    """
    _check_divisor(p, h, "h")
    if not isinstance(touched, Iterable):
        raise InputError(f"touched must be a collection of facet ids, got {touched!r}")
    touched = sorted([exact_int(f, "touched facet id") for f in touched])
    if not touched:
        return h
    for f in (touched[0], touched[-1]):
        if not 0 <= f < p.num_facets:
            raise InputError(f"touched facet id {f} not in 0..{p.num_facets - 1}")
    c, s = h.cleared
    solved = linalg.int_solve([p.normals[f] for f in touched], [-c[f] for f in touched])
    if solved is None:
        return None
    x, d = solved
    sd = s * d
    return Divisor(tuple(Fraction(cf * d + sum(map(mul, u, x)), sd)
                         for u, cf in zip(p.normals, c)))

