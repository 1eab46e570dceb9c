"""Simple polytopes from half-space data, exact over the rationals.

A polytope is stored as P = {x : <normal_F, x> + offset_F >= 0} with primitive
integer inward normals and rational offsets.  from_halfspaces solves every
n-subset of facets for the vertices and reads boundedness off them: every
edge of a bounded simple polytope has two vertices.  perturb keeps its
input's combinatorial type and solves only the input's vertex facet sets.
A vertex is one linalg.int_cramer solve on the cleared half-space data, its
slack signs are read in integers on the rows outside the solved subset (the
subset's rows are tight by construction), and the genericity test sweeps
every maximal minor of the integer normals by Laplace expansion; Fraction is
only the type of the stored offsets and vertex coordinates.  The vertex centroid
is read off one integer sum of the cleared vertices (cleared_centroid),
which chow's ample class reads too.

Facet ids are the integer positions 0..m-1 in the facet list; that ordering is
the one serialized to JSON and referenced by divisor coefficient maps.

The Python API reads every value once, where it enters, through one reader
per kind of value, and a bad value raises InputError naming it: exact (a
rational), exact_vector (a fixed number of them), exact_int (a count, size,
dimension, axis, id or seed, with optional inclusive bounds), sequence (a
collection), mapping, and choice (one of a table's kinds or keys).  An
argument that is one of the library's own objects (SimplePolytope,
LatticeModel, LatticeCover, PointCloudCover, Divisor, PointSet, Sample,
IntersectionQuery, SuiteConfig) is trusted as built, with no type check.
"""

from __future__ import annotations

import itertools
import math
import random
import re
from collections import Counter
from collections.abc import Iterable, Mapping, Sized
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from operator import mul

from . import linalg


class InputError(ValueError):
    """A value the caller passed in is rejected; the message names it.

    Raised where the bad value is found, so that any other exception is a bug
    of the library.  The subclasses name particular refusals.
    """


class NotSimpleError(InputError):
    """Some vertex lies on more than dim-many facets."""


class UnboundedError(InputError):
    """The facet normals do not positively span the ambient space.

    Read off the vertex enumeration: some edge has only one vertex, or there
    is no vertex and the normals have rank below the dimension."""


class EmptyPolytopeError(InputError):
    """The half-space system has no feasible point."""


class BudgetExhaustedError(InputError):
    """perturb() ran out of retries without finding a good perturbation."""


RATIONAL = re.compile(r"-?[0-9]+(/[0-9]+)?")  # "p" or "p/q", ASCII digits


def exact(value, name: str) -> Fraction:
    """value as a Fraction, refusing a float or bool named name: a float is
    read as its binary value (0.1 as 3602879701896397/36028797018963968),
    and a bool is no number.  A string must be RATIONAL with q nonzero;
    Fraction alone would read "0.1" and take seconds over "1e2000000"."""
    if isinstance(value, (float, bool)):
        raise InputError(f"{name} must be an int or a Fraction, got {value!r}")
    if isinstance(value, str) and not RATIONAL.fullmatch(value):
        raise InputError(f'{name} must be an integer or "p/q" string, got {value!r}')
    try:
        return Fraction(value)
    except TypeError:  # None, a list, a complex: no rational number
        raise InputError(f"{name} must be an int or a Fraction, got {value!r}") from None
    except (ValueError, ZeroDivisionError) as exc:  # q = 0, or more digits than int() reads
        raise InputError(f"{name}: {exc}") from None


def sequence(values, name: str, what: str):
    """values as a sized collection, a one-shot iterable read into a list,
    refusing a str or a value that is not iterable as no sequence of what."""
    if isinstance(values, str) or not isinstance(values, Iterable):
        raise InputError(f"{name} must be a sequence of {what}, got {values!r}")
    return values if isinstance(values, Sized) else list(values)


def mapping(values, name: str, what: str):
    """values, refusing anything but a mapping as no mapping of what."""
    if not isinstance(values, Mapping):
        raise InputError(f"{name} must be a mapping of {what}, got {values!r}")
    return values


def exact_vector(values, n: int, name: str, read=exact) -> tuple:
    """values as n entries, each read by read (exact: a Fraction) and named
    name[j]."""
    values = sequence(values, name, f"{n} numbers")
    if len(values) != n:
        raise InputError(f"{name} must have {n} entries, got {len(values)}")
    return tuple(read(x, f"{name}[{j}]") for j, x in enumerate(values))


def exact_int(value, name: str, lo=None, hi=None) -> int:
    """value, refusing anything but an int named name (a bool is no number),
    and an int below lo or above hi where those inclusive bounds are given."""
    # an int within its bounds, the common case, passes one exact type test
    if type(value) is int and (lo is None or lo <= value) and (hi is None or value <= hi):
        return value
    if isinstance(value, bool) or not isinstance(value, int):
        raise InputError(f"{name} must be an int, got {value!r}")
    if (lo is not None and value < lo) or (hi is not None and value > hi):
        raise InputError(f"{name} {value} not in {lo}..{hi}" if hi is not None
                         else f"{name} must be >= {lo}")
    return value


def choice(value, options, name: str):
    """value, refusing anything that is not one of options (a tuple of
    kinds, or the keys of a dict) as an unknown name; an unhashable value is
    no key."""
    try:
        if value in options:
            return value
    except TypeError:
        pass
    raise InputError(f"unknown {name}: {value!r}")


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
        facet_id = exact_int(facet_id, "facet id", 0, len(self.normals) - 1)
        point = exact_vector(point, self.dim, "point")
        return linalg.dot(self.normals[facet_id], point) + self.offsets[facet_id]

    def contains(self, point) -> bool:
        point = exact_vector(point, self.dim, "point")
        return all(linalg.dot(u, point) + c >= 0 for u, c in zip(self.normals, self.offsets))

    def incidence_pattern(self):
        """The combinatorial type: set of vertex incidence sets."""
        return frozenset(v.facets for v in self.vertices)

    @cached_property
    def vertex_cones(self):
        """(facet_sets, cones, scale): the data of the vertex localization,
        built once per polytope and kept on it (chow.intersection_number
        reads it).

        facet_sets[i] is the sorted tuple of vertex i's facet ids.  With U
        the matrix of those facets' normals as rows, cones[i] is (a, d, k):
        the integer a with U^T a = d xi and d = det U^T, from one int_cramer
        call, so the edge weights of the cone are a / d.  xi is the first
        (1, t, t^2, ...) with t = 1, 2, ... at which no weight of any cone
        vanishes; each weight is a nonzero polynomial of degree < n in t, so
        the search is finite.  The vertex term's denominator |d| prod(a) is
        brought to the common one: scale is the lcm of their absolute values
        and k = scale // (|d| prod(a)), sign included.  The value depends
        only on the normals and the facet sets, is not a field, and leaves
        ==, hash and repr alone.
        """
        facet_sets = tuple(tuple(sorted(v.facets)) for v in self.vertices)
        transposed = [list(zip(*(self.normals[f] for f in facets))) for facets in facet_sets]
        for t in itertools.count(1):
            xi = [t ** k for k in range(self.dim)]
            cones = [linalg.int_cramer(u, xi) for u in transposed]
            if all(all(a) for a, _ in cones):
                break
        dens = [abs(d) * math.prod(a) for a, d in cones]
        scale = math.lcm(*dens)
        return (facet_sets,
                tuple((tuple(a), d, scale // den) for (a, d), den in zip(cones, dens)),
                scale)

    def translate(self, shift) -> "SimplePolytope":
        """The polytope P - shift (so that `shift` maps to the origin)."""
        shift = exact_vector(shift, self.dim, "shift")
        offsets = tuple(
            c + linalg.dot(u, shift) for u, c in zip(self.normals, self.offsets)
        )
        vertices = tuple(
            Vertex(linalg.vec_sub(v.coords, shift), v.facets) for v in self.vertices
        )
        return SimplePolytope(self.dim, self.normals, offsets, vertices)

    def vertex_centroid(self):
        """Average of the vertices: always a strictly interior point."""
        total, q = self.cleared_centroid()
        return tuple(Fraction(x, q) for x in total)

    def cleared_centroid(self):
        """(total, q): the vertex centroid as the integer vector total over
        q.  Each vertex is cleared by linalg.int_row, the sum is taken over
        the lcm d of their scales, and q is d times the number of vertices."""
        rows = [linalg.int_row(v.coords) for v in self.vertices]
        d = math.lcm(*(s for _, s in rows))
        total = [0] * self.dim
        for x, s in rows:
            f = d // s
            total = [t + f * a for t, a in zip(total, x)]
        return total, d * len(rows)


def _bounded(vertices) -> bool:
    """True iff the simple polyhedron with these vertices is bounded.

    An edge set is a vertex's tight set less one facet; the points tight on
    it form an edge.  In a simple polyhedron a bounded edge has exactly two
    vertices, its endpoints.  A pointed polyhedron that is unbounded has an
    edge that is a ray from one vertex (the simplex method's ray
    certificate; Avis and Fukuda 1992 walk the same graph), so some edge set
    is tight at only one vertex.
    """
    edges = Counter(v.facets - {f} for v in vertices for f in v.facets)
    return all(count == 2 for count in edges.values())


def _basic_point(rows, subset):
    """(point, tight): the Fraction point x / d, d > 0, where the facets of
    `subset` are tight and the facets whose slack times d, <u_F, x> + c_F d,
    is 0, on the rows (u_F, c_F) * s_F; None if singular or infeasible.
    The rows of subset are tight by construction, so only the others are
    read."""
    n = len(rows[0]) - 1
    sol = linalg.int_cramer([rows[i][:n] for i in subset], [-rows[i][n] for i in subset])
    if sol is None:
        return None
    x, d = sol
    if d < 0:
        x, d = [-v for v in x], -d
    xd = (*x, d)
    tight = list(subset)
    for i, row in enumerate(rows):
        if i not in subset:
            slack = sum(map(mul, row, xd))
            if slack < 0:
                return None
            if not slack:
                tight.append(i)
    return tuple(Fraction(v, d) for v in x), frozenset(tight)


def solve_region_vertices(normals, offsets, *, require_simple):
    """Basic feasible points of {x : <u_F,x> + c_F >= 0} with their tight sets.

    Each half-space is scaled once to integer data (u_F, c_F) * s_F, which
    leaves it unchanged, and every n-subset of facets is solved on those
    rows by _basic_point.  A vertex reached from several is keyed by its tight
    set, which hashes in C where a Fraction point hashes in Python: distinct
    points have distinct tight sets, since each is the one solution of the
    nonsingular subset it came from, and that subset lies in its tight set.

    Returns a list of Vertex.  With require_simple, raises NotSimpleError as
    soon as a feasible basic point is tight on more than n facets.
    """
    n = len(normals[0])
    rows = [linalg.int_row(list(u) + [c])[0] for u, c in zip(normals, offsets)]
    seen = {}
    for subset in itertools.combinations(range(len(rows)), n):
        found = _basic_point(rows, subset)
        if found is None or found[1] in seen:
            continue
        point, tight = found
        if require_simple and len(tight) > n:
            raise NotSimpleError(
                f"vertex {point} lies on {len(tight)} facets (expected {n})"
            )
        seen[tight] = Vertex(point, tight)
    return list(seen.values())


def from_halfspaces(normals, offsets) -> SimplePolytope:
    """Build a simple polytope from {x : <normal_i, x> + offset_i >= 0}.

    Normals are primitivized (offsets rescaled along) so each stored normal
    has integer entries with gcd 1.  Every input half-space must define an
    actual facet; a redundant inequality is rejected because it would break
    the round trip between the H-representation and the vertex set.  Each
    entry is read by exact, named normals[i][j] or offsets[i].
    """
    normals = list(sequence(normals, "normals", "vectors"))
    if len(normals) != len(offsets := sequence(offsets, "offsets", "numbers")):
        raise InputError("normals and offsets must have the same length")
    if not normals:
        raise InputError("at least one half-space is required")
    n = len(sequence(normals[0], "normals[0]", "numbers"))
    if n < 1:
        raise InputError("ambient dimension must be >= 1")
    normals = [exact_vector(u, n, f"normals[{i}]") for i, u in enumerate(normals)]
    offsets = [exact(c, f"offsets[{i}]") for i, c in enumerate(offsets)]
    if len(normals) < n + 1:
        raise UnboundedError("fewer than n+1 facets cannot bound a polytope")
    if not all(any(u) for u in normals):
        raise InputError("zero vector has no primitive form")

    prim = [linalg.primitive_int_vector(u) for u in normals]
    unormals = tuple(u for u, _ in prim)
    uoffsets = tuple(c * scale for (_, scale), c in zip(prim, offsets))

    vertices = solve_region_vertices(unormals, uoffsets, require_simple=True)
    if not vertices and linalg.rank(unormals) == n:
        raise EmptyPolytopeError("no feasible vertex: the system is empty")
    if not vertices or not _bounded(vertices):
        raise UnboundedError("facet normals do not positively span the space")

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
    n = exact_int(n, "n", 1)
    units = [tuple(1 if i == j else 0 for i in range(n)) for j in range(n)]
    if choice(kind, ("cube", "simplex"), "standard polytope kind") == "cube":
        normals = [u for e in units for u in (e, tuple(-x for x in e))]
        return from_halfspaces(normals, [0, 1] * n)
    return from_halfspaces(units + [(-1,) * n], [0] * n + [1])


def cube_facet_id(axis: int, sign: str) -> int:
    """Facet id of the cube facet on `axis` (0-based): '-' lower, '+' upper."""
    return 2 * exact_int(axis, "axis", 0) + (0 if choice(sign, ("-", "+"), "sign") == "-" else 1)


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
    size = p.dim - exact_int(k, "face dimension", 0, p.dim)
    found = set()
    for v in p.vertices:
        for combo in itertools.combinations(sorted(v.facets), size):
            found.add(frozenset(combo))
    return [FaceDescriptor(s, k) for s in sorted(found, key=sorted)]


def generic_normals_check(p: SimplePolytope) -> bool:
    """True iff every n-subset of facet normals is linearly independent.

    All maximal minors come out of one sweep.  Level k maps every k-subset
    S of facets (a sorted tuple) to the minor of S's normals on the first k
    columns.  A level-(k+1) minor is the Laplace expansion along its last
    column, column k counting from 0: the row of the last facet of S
    carries sign +, the signs alternate towards the first, and each row's
    entry multiplies the level-k minor of S without that facet.  The minors
    of all n-subsets share their smaller minors, so each is computed once,
    in integers and without division; only two levels are alive at a time.
    """
    normals = p.normals
    ids = range(len(normals))
    minors = {(f,): u[0] for f, u in zip(ids, normals)}
    for k in range(1, p.dim):
        column = [u[k] for u in normals]
        level = {}
        for s in itertools.combinations(ids, k + 1):
            # combinations(s, k) drops the last facet of s first, then the
            # one before it, and so on: the order of reversed(s)
            total = 0
            negate = False
            for f, rest in zip(reversed(s), itertools.combinations(s, k)):
                c = column[f]
                if c:
                    if negate:
                        total -= c * minors[rest]
                    else:
                        total += c * minors[rest]
                negate = not negate
            level[s] = total
        minors = level
    return all(minors.values())


PERTURB_MAX_RETRIES = 32


def perturb(p: SimplePolytope, budget, *, seed: int = 0) -> SimplePolytope:
    """Tilt facet normals by rationals of magnitude <= budget until the result
    is simple, has generic normals, and keeps the input's incidence lattice.

    Each retry halves the tilt size; after PERTURB_MAX_RETRIES failed attempts
    a BudgetExhaustedError is raised.  In dimension 1 every normal subset is
    already independent, so the input is returned unchanged.

    A tilt of normal u is the primitive w / g, w = u * denom + k with k drawn
    from -4..4 and g = gcd(w); its offset is scaled by denom / g along.

    An attempt solves only the input's vertex facet sets S and passes iff each
    gives a point feasible and tight on exactly S.  These are then all the
    vertices: each one's n edges (n-1 facets of S each) end at the point of the
    input's neighbour sharing them, and a polytope's graph is connected
    (Balinski 1961).  So no edge is a ray, the result is bounded, and every
    facet carries a vertex.  Vertices are ordered by sorted facet tuple, as
    from_halfspaces orders them.
    """
    budget = exact(budget, "budget")
    if budget <= 0:
        raise InputError("budget must be positive")
    rng = random.Random(exact_int(seed, "seed"))
    if p.dim == 1:
        return p
    facet_sets = sorted((v.facets for v in p.vertices), key=sorted)
    step = budget
    for _ in range(PERTURB_MAX_RETRIES):
        denom = max(2, math.ceil(1 / step)) * 4
        normals, offsets = [], []
        for u, c in zip(p.normals, p.offsets):
            w = [x * denom + rng.randrange(-4, 5) for x in u]
            g = math.gcd(*w)
            normals.append(tuple(x // g for x in w))
            offsets.append(c * Fraction(denom, g))
        rows = [linalg.int_row(list(u) + [c])[0] for u, c in zip(normals, offsets)]
        vertices = []
        for s in facet_sets:
            found = _basic_point(rows, sorted(s))
            if found is None or found[1] != s:
                break
            vertices.append(Vertex(found[0], s))
        else:
            candidate = SimplePolytope(p.dim, tuple(normals), tuple(offsets), tuple(vertices))
            if generic_normals_check(candidate):
                return candidate
        step = step / 2
    raise BudgetExhaustedError(
        f"no valid perturbation within {PERTURB_MAX_RETRIES} retries"
    )


class ZeroVectorError(InputError):
    """Moment map evaluated on an all-zero input."""


def _norm_sq(z, name: str) -> Fraction:
    """|z|^2 of the complex number z given as its (re, im) pair."""
    re, im = exact_vector(z, 2, name)
    return re * re + im * im


def _normalised(weights, message: str) -> tuple:
    """The weights divided by their sum, refusing a zero sum with message."""
    total = sum(weights)
    if total == 0:
        raise ZeroVectorError(message)
    return tuple(w / total for w in weights)


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
    kind = choice(kind, ("cpn", "product_cp1", "real_sphere"), "moment map kind")
    value = sequence(value, "value", "numbers")
    if kind == "cpn":
        return _normalised([_norm_sq(z, f"value[{i}]") for i, z in enumerate(value)],
                           "cpn moment map needs a nonzero value")
    if kind == "product_cp1":
        message = "each line factor of value needs a nonzero pair"
        return tuple(_normalised(exact_vector(z, 2, f"value[{i}]", _norm_sq), message)[1]
                     for i, z in enumerate(value))
    squares = [x * x for x in exact_vector(value, len(value), "value")]
    return _normalised(squares, "real sphere moment map needs a nonzero value")
