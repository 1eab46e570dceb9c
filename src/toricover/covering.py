"""Discrete lattice models of coverings of the cube and the simplex.

Points of the cube model are integer tuples in {0..r}^n with +-1 adjacency in
one coordinate; points of the simplex model are the nonnegative integer
(n+1)-tuples summing to r, adjacent when one unit moves between two
coordinates.  Covering sets are arbitrary point sets; "closed" has no separate
encoding, membership is the whole story.  Verifiers search for the witness a
covering theorem promises and report a counterexample candidate verbatim when
none exists; they never assert the continuous statement.  A theorem is added
to THEOREMS, the one list of the theorems, which the CLI, the property-suite
runner and the verifiers' model-kind refusals read.  Each lattice search
is one _first over (payload fields, piece, facet masks) candidates.

A facet is a coordinate equation (coordinate, value): the cube has (axis, 0)
and (axis, r) for each axis, the simplex (j, 0) for each coordinate j.  A face
is the tuple of the facets that cut it out, as in polytope.faces.

Point sets are bitmasks over a model's Grid, built on first use and shared by
equal models, or over a sample's Sample.  Bit i of a Grid is the mixed-radix
index sum_j p_j (r+1)^(n-1-j) of the first n coordinates, so the simplex sits
in (r+1)^n and in both models bit order is the lexicographic point order.
Adjacency is a table of moves (shift, source mask): each cell of the source
mask has the neighbour `shift` bits away, so the neighbours of a whole set
come from a few shifts and ANDs.  Each facet is one mask and a face is the AND
of its facets.  A cover's sets are PointSets over the grid it keeps as
LatticeCover.grid: immutable sets of point tuples, iterated in bit order,
whose operations with sets over the same grid are int operations on the masks.
A mask is read through tuples over the grid's cells, built on first use,
that hold the point and the position at each cell (None at a simplex cell
that is no point): a dense mask, with at least 1/16 of the bits up to its
highest set, by selector bytes, its binary digits steering itertools.compress
over the tuple, and a sparse one by its gaps, the runs of zeros between its
set bits, each set bit indexing the tuple.  A witness component is reported
as its PointSet.  A plain collection of points meets the masks through the
grid's index, a dict from the model's points to their positions in the
point list, built on first use; the position is the cell on the cube, and
Grid.cells maps one to the other on the simplex.
Grid.set_of looks each item up once: when every item is the tuple the grid
holds at its position, as in a set read off a PointSet, the positions give
the mask with no type pass, and any other collection passes a type check
first.  So a PointSet compared with a set or frozenset costs one lookup of
the other side, while & | - with one still go point by point.  The grid
also holds each point's compact JSON text, built on first use, from which
jsonio writes a PointSet.  Unions and complements are ORs and AND-NOTs, and
Grid.bfs, the grid's one search, grows the generators' cells and balls and
each component of a set.  A model holds at most MAX_MODEL_POINTS points, and
its grid's cells times its moves, the bits one expand shifts, are at most
MAX_EXPAND_BITS.

A Sample's masks (facet contact, slabs) come from packed fields: each
numerator column, less its minimum, is one int holding a field of B bytes
per point, built once per column and B.  A test <u, a> <= bound over all
points is a weighted sum of those ints plus one constant per field, read
off the fields' top bits; B is the fewest bytes with 8B at least one more
than the bit length of <u, a - lo>'s span over the sample's bounding box,
so no field borrows from its neighbour.  A lattice scan hands
Sample.from_grid its numerator columns as they are, and the numerator
tuples are read off the columns.  Sample.near keeps its last
answer, so a witness and its re-check read facet contact once.
"""

from __future__ import annotations

import contextlib
import heapq
import itertools
import math
from collections.abc import Set
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property, lru_cache
from operator import add, and_, mul, rshift, sub

from . import chow
from .polytope import (
    InputError,
    SimplePolytope,
    choice,
    exact,
    exact_int,
    exact_vector,
    mapping,
    sequence,
)


class BadSampleError(InputError):
    """Point-cloud cover violates the sample structure preconditions."""


class WrongArityError(InputError):
    """axes verifier needs exactly n covering sets."""


WITNESS_FOUND = "witness_found"
HYPOTHESIS_VIOLATED = "hypothesis_violated"
COUNTEREXAMPLE_CANDIDATE = "counterexample_candidate"

MAX_MODEL_POINTS = 10**6
MAX_EXPAND_BITS = 2**27


@dataclass(frozen=True)
class LatticeModel:
    kind: str
    n: int
    r: int

    def __post_init__(self):
        choice(self.kind, ("cube", "simplex"), "lattice model kind")
        exact_int(self.n, "n", 1)
        exact_int(self.r, "r", 1)
        # (r+1)^n or C(n+r, n) as a running product, stopped once past the
        # cap; the binomial runs over the smaller of n and r
        if self.kind == "cube":
            factors = ((self.r + 1, 1) for _ in range(self.n))
        else:
            lo, hi = sorted((self.n, self.r))
            factors = ((hi + i, i) for i in range(1, lo + 1))
        count = 1
        for num, den in factors:
            count = count * num // den
            if count > MAX_MODEL_POINTS:
                raise InputError(f"{self} has more than {MAX_MODEL_POINTS} points")
        # an expand shifts the grid's (r+1)^n cells once per move: 2n moves
        # on the cube, n(n+1) on the simplex
        moves = 2 * self.n if self.kind == "cube" else self.n * (self.n + 1)
        work = moves
        for _ in range(self.n):
            work *= self.r + 1
            if work > MAX_EXPAND_BITS:
                raise InputError(
                    f"{self} has (r+1)^n grid cells times {moves} moves,"
                    f" more than {MAX_EXPAND_BITS}"
                )

    def points(self):
        return _model_points(self)

    def grid(self) -> Grid:
        """The model's Grid, built on first use and shared by equal models."""
        return _model_grid(self)

    def facets(self):
        """The facet equations (coordinate, value): (axis, 0) and (axis, r)
        for each cube axis, (j, 0) for each simplex coordinate."""
        if self.kind == "cube":
            return [(axis, val) for axis in range(self.n) for val in (0, self.r)]
        return [(j, 0) for j in range(self.n + 1)]

    def k_faces(self, k: int):
        """The k-faces, each the tuple of the n-k facets that cut it out: the
        (n-k)-subsets of facets() whose equations sit on distinct
        coordinates, enumerated as n-k coordinates and one equation on each."""
        k = exact_int(k, "face dimension", 0, self.n)
        by_coord = [
            list(eqs) for _, eqs in itertools.groupby(self.facets(), key=lambda f: f[0])
        ]
        return [
            face
            for chosen in itertools.combinations(by_coord, self.n - k)
            for face in itertools.product(*chosen)
        ]

    def face_contains(self, face, p) -> bool:
        """Whether the point p lies on face; both are read as on_face reads
        them."""
        return self.on_face(face)(p)

    def on_face(self, face):
        """The test of whether a point lies on face, which is read here,
        once: a sequence of facets of the model, each a pair of ints, the
        empty face being the whole model.  The test reads its point p as one
        int per coordinate; a tuple of ints of the right length, as the
        grid's own points are, passes with one type check."""
        facets = self.facets()
        face = [
            choice(exact_vector(f, 2, f"face[{j}]", exact_int), facets, "facet in face")
            for j, f in enumerate(sequence(face, "face", "facets"))
        ]
        coords, values = tuple(c for c, _ in face), tuple(v for _, v in face)
        width = self.n if self.kind == "cube" else self.n + 1

        def test(p) -> bool:
            if type(p) is not tuple or len(p) != width or not set(map(type, p)) <= {int}:
                p = exact_vector(p, width, "point", exact_int)
            return tuple(map(p.__getitem__, coords)) == values

        return test


@lru_cache(maxsize=None)
def _model_points(model: LatticeModel):
    if model.kind == "cube":
        return tuple(itertools.product(range(model.r + 1), repeat=model.n))
    # built by recursion, not by filtering the (r+1)^n cube cells: 0.5 against
    # 260 ms on n=10, r=3 (2 shared cores, Python 3.11.7)
    pts = []

    def build(prefix, remaining, slots):
        if slots == 1:
            pts.append(prefix + (remaining,))
            return
        for a in range(remaining + 1):
            build(prefix + (a,), remaining - a, slots - 1)

    build((), model.r, model.n + 1)
    return tuple(pts)


@lru_cache(maxsize=None)
def _model_grid(model: LatticeModel):
    return Grid(model)


_BYTE_OF_DIGIT = bytes.maketrans(b"01", b"\0\1")
_DIGIT_OF_BYTE = bytes.maketrans(b"\0\1", b"01")
# "1" for a byte whose top bit is clear, "0" for one whose top bit is set
_DIGIT_OF_TOP_BYTE = b"1" * 128 + b"0" * 128


def _digits(mask: int) -> str:
    """The binary digits of mask, lowest bit first."""
    return bin(mask)[:1:-1]


def _mask(bits) -> int:
    """The int with exactly the given bits set, built from one byte per
    cell up to the highest bit, of which the span the bits cover is read."""
    if not bits:
        return 0
    low = min(bits)
    cells = bytearray(max(bits) + 1)
    for b in bits:
        cells[b] = 1
    return int(cells[low:][::-1].translate(_DIGIT_OF_BYTE), 2) << low


def _tops_clear(fields: int, count: int, size: int) -> int:
    """The mask of the fields, count of them of size bytes each, whose top
    bit is clear."""
    tops = fields.to_bytes(count * size, "little")[size - 1::size]
    return int(tops.translate(_DIGIT_OF_TOP_BYTE)[::-1], 2)


def _repunit(period: int, count: int) -> int:
    """Bit 0 of each of count blocks of period bits, built by doubling."""
    out, block, width, shift = 0, 1, period, 0
    while count:
        if count & 1:
            out |= block << shift
            shift += width
        block |= block << width
        width *= 2
        count >>= 1
    return out


class Grid:
    """A model's points as the bits of one int, its adjacency as a move
    table and its facets as masks; see the module docstring."""

    def __init__(self, model: LatticeModel):
        n, r = model.n, model.r
        side = r + 1
        self.model = model
        self.points = model.points()
        self.strides = tuple(side ** (n - 1 - j) for j in range(n))
        cells = side ** n
        self._repunits = [_repunit(side * s, cells // (side * s)) for s in self.strides]
        if model.kind == "cube":
            # the points are the cells, in order
            self.full = (1 << cells) - 1
            facets = {(j, v): self.slab(j, v, v) for j, v in model.facets()}
            moves = []
            for j, s in enumerate(self.strides):
                moves.append((self.full ^ facets[(j, r)], (s,)))
                moves.append((self.full ^ facets[(j, 0)], (-s,)))
        else:
            # the cell of each point, in point order
            self.cells = tuple(sum(map(mul, p, self.strides)) for p in self.points)
            self.full = _mask(self.cells)
            facets = {(j, 0): self.slab(j, 0, 0) for j in range(n)}
            facets[(n, 0)] = _mask([b for b, p in zip(self.cells, self.points) if p[n] == 0])
            # moving a unit from coordinate i to j shifts by stride_j - stride_i
            ext = self.strides + (0,)
            moves = []
            for i in range(n + 1):
                shifts = tuple(ext[j] - ext[i] for j in range(n + 1) if j != i)
                moves.append((self.full ^ facets[(i, 0)], shifts))
        self.facets = facets
        self.moves = moves

    def slab(self, axis: int, lo: int, hi: int) -> int:
        """The cells with lo <= p[axis] <= hi, for an axis below n: an
        interval of the axis's digit times the axis's repunit."""
        s = self.strides[axis]
        unit = ((1 << ((hi - lo + 1) * s)) - 1) << (lo * s)
        return unit * self._repunits[axis] & self.full

    def face(self, face) -> int:
        out = self.full
        for f in face:
            out &= self.facets[f]
        return out

    def expand(self, mask: int) -> int:
        """The cells one move away from a cell of mask."""
        out = 0
        for src, shifts in self.moves:
            m = mask & src
            if m:
                for shift in shifts:
                    out |= m << shift if shift > 0 else m >> -shift
        return out

    def bfs(self, sources, radius=None, allowed=None):
        """Layered multi-source BFS from the bits `sources`: the mask of the
        cells each source reaches first.  In each layer the sources claim cells
        in source order, so ties go to the earlier source.  The search stops
        after `radius` layers (None: no bound) and enters only the cells of the
        mask `allowed` (None: every cell)."""
        free = self.full if allowed is None else allowed
        cells = []
        for s in sources:
            cell = free & (1 << s)
            free ^= cell
            cells.append(cell)
        frontier = list(cells)
        while radius != 0 and any(frontier):
            for idx, front in enumerate(frontier):
                if front:
                    front = self.expand(front) & free
                    free ^= front
                    cells[idx] |= front
                    frontier[idx] = front
            if radius is not None:
                radius -= 1
        return cells

    def bit(self, p):
        """The cell of point p, or None when p is not a point of the model:
        a tuple of ints, where a bool is no int, as in set_of."""
        if type(p) is not tuple or not set(map(type, p)) <= {int}:
            return None
        i = sum(map(mul, p, self.strides))
        if self.model.kind == "cube":
            # the point of cube cell i is self.points[i]
            return i if 0 <= i < len(self.points) and self.points[i] == p else None
        ok = len(p) == self.model.n + 1 and min(p) >= 0 and sum(p) == self.model.r
        return i if ok else None

    @cached_property
    def index(self) -> dict:
        """The position in self.points of each point of the model, built on
        first use."""
        return dict(zip(self.points, range(len(self.points))))

    def cells_at(self, positions: list) -> list:
        """The cell of the point at each position in self.points, and None
        for None: on the cube the position is the cell, on the simplex
        self.cells maps one to the other."""
        if self.model.kind == "cube":
            return positions
        cells = self.cells
        return [None if i is None else cells[i] for i in positions]

    @cached_property
    def texts(self) -> tuple:
        """The compact JSON text of each point ("3,0,17"), in point order,
        built on first use.  The cube's points are the product of the digit
        strings, so their texts are too: 2.5 against 25 ms for the 15,625
        points of cube n=6, r=4 (2 shared cores, Python 3.11.7)."""
        if self.model.kind == "cube":
            digits = list(map(str, range(self.model.r + 1)))
            return tuple(map(",".join, itertools.product(digits, repeat=self.model.n)))
        return tuple(",".join(map(str, p)) for p in self.points)

    def set_of(self, pts):
        """The PointSet of the points of the model among pts and the list of
        the other items, in the order of pts.  Each item is looked up in the
        index once.  When every item is the very tuple self.points holds at
        its position, as when pts were read off a PointSet, the positions
        give the mask at once: such a tuple holds ints by construction.
        Otherwise a type pass decides: tuples of ints keep the positions
        found, and any other item, an unhashable one included, sends the
        whole collection through bit, point by point.  The type pass
        matters: the index finds (1, 0) for (1.0, 0) or (True, 0), which bit
        refuses."""
        pts = list(pts)
        try:
            found = list(map(self.index.get, pts))
        except TypeError:  # an unhashable item
            found = None
        points = self.points
        # the first item settles most collections of other tuples at once
        if found and found[0] is not None and points[found[0]] is pts[0] and (
            None not in found and all([points[i] is p for i, p in zip(found, pts)])
        ):
            return PointSet(self, _mask(self.cells_at(found))), []
        exact = found is not None and set(map(type, pts)) <= {tuple} and set(
            map(type, itertools.chain.from_iterable(pts))
        ) <= {int}
        return _point_set(self, pts, self.cells_at(found) if exact else list(map(self.bit, pts)))

    @cached_property
    def _point_at(self) -> tuple:
        """The point at each cell, None at a cell that is no point: on the
        cube self.points itself, on the simplex built on first use."""
        if self.model.kind == "cube":
            return self.points
        return _per_cell(self.cells, self.points)

    @cached_property
    def _position_at(self) -> tuple:
        """The position in self.points of the point at each cell, None at a
        cell that is no point, built on first use."""
        positions = range(len(self.points))
        if self.model.kind == "cube":
            return tuple(positions)
        return _per_cell(self.cells, positions)

    def positions(self, mask: int):
        """The positions in self.points of the points of mask, in order;
        on the cube a point's position is its cell."""
        return _at_bits(self._position_at, mask, self.model.kind == "cube")

    def points_of(self, mask: int):
        """The points of the cells of mask, in cell (= sorted) order."""
        return _at_bits(self._point_at, mask)


def _per_cell(cells: tuple, values) -> tuple:
    """A tuple over the cells up to the last of cells, an increasing tuple,
    holding values[i] at cells[i] and None at every other cell."""
    out = [None] * (cells[-1] + 1)
    for cell, value in zip(cells, values):
        out[cell] = value
    return tuple(out)


def _point_set(grid, pts: list, bits: list):
    """The PointSet of the bits that are not None, bits[i] being the bit of
    pts[i] or None, and the list of the items whose bit is None, in order."""
    if None not in bits:
        return PointSet(grid, _mask(bits)), []
    bad = [p for p, b in zip(pts, bits) if b is None]
    return PointSet(grid, _mask([b for b in bits if b is not None])), bad


def _ones(digits: str, offset: int):
    """offset plus the position of each 1 in digits, in order: the running
    sum of the gaps between the 1s, plus one per 1."""
    gaps = digits.split("1")
    gaps.pop()
    steps = map(add, map(len, gaps), itertools.repeat(1))
    positions = itertools.accumulate(steps, initial=offset - 1)
    next(positions)
    return positions


def _bits_of(mask: int):
    """The set bits of mask, lowest first."""
    if not mask:
        return iter(())
    low = (mask & -mask).bit_length() - 1
    return _ones(_digits(mask >> low), low)


def _dense(count: int, length: int) -> bool:
    """Whether count set bits are at least 1/16 of a mask's length bits,
    the density from which _at_bits reads the mask by selector bytes.
    scripts/mask_scale.py prints the crossover: between
    densities 0.046 and 0.066 on cube n=3 r=18, and between 0.051 and 0.098
    on simplex n=3 r=24 (2 shared cores, Python 3.11.7)."""
    return 16 * count >= length


def _at_bits(by_bit: tuple, mask: int, identity: bool = False):
    """The entries of by_bit at the set bits of mask, lowest first: a dense
    mask by selector bytes, a sparse one by its gaps, whose set bits are the
    entries themselves when identity says that by_bit[i] is i.  The bits
    are counted from the lowest set one on, where the gaps are read from:
    int.bit_count costs per word of the whole int, and a sparse mask high in
    a big grid is mostly zero words below its lowest set bit."""
    if not mask:
        return iter(())
    low = (mask & -mask).bit_length() - 1
    rest = mask >> low
    if _dense(rest.bit_count(), mask.bit_length()):
        return _by_selectors(by_bit, mask)
    bits = _ones(_digits(rest), low)
    return bits if identity else map(by_bit.__getitem__, bits)


def _by_selectors(by_bit: tuple, mask: int):
    """The entries of by_bit at the set bits of mask, by itertools.compress
    over by_bit with mask's binary digits as selector bytes: C work per bit
    up to the highest set bit, with no Python step per entry."""
    return itertools.compress(by_bit, _digits(mask).encode().translate(_BYTE_OF_DIGIT))


class PointSet(Set):
    """An immutable set of points held as a mask over `grid`, a model's Grid
    or a Sample.  Iteration yields the points in bit order: sorted on a Grid,
    first occurrence on a Sample.  Comparisons and & | - with a PointSet over
    the same grid are int operations.  >= and > with a set or frozenset of
    points of the grid (and set <= and < PointSet, which Python reflects to
    them) convert the set once through grid.set_of, which takes a set read
    off a PointSet of the grid by its tuples' positions alone, and compare
    masks.  Other
    comparisons, and & | - ^ with anything but a peer, go point by point
    (collections.abc.Set), and & | - ^ return frozensets."""

    __slots__ = ("grid", "mask")

    def __init__(self, grid: Grid, mask: int):
        self.grid = grid
        self.mask = mask

    def __contains__(self, p):
        i = self.grid.bit(p)
        return i is not None and self.mask >> i & 1 == 1

    def __iter__(self):
        return self.grid.points_of(self.mask)

    def __len__(self):
        return self.mask.bit_count()

    def __repr__(self):
        return f"PointSet({list(self)})"

    __hash__ = Set._hash

    @classmethod
    def _from_iterable(cls, it):
        return frozenset(it)

    def _peer(self, other) -> bool:
        return isinstance(other, PointSet) and other.grid is self.grid

    def __le__(self, other):
        if self._peer(other):
            return self.mask & other.mask == self.mask
        return super().__le__(other)

    def __ge__(self, other):
        if self._peer(other):
            return self.mask & other.mask == other.mask
        # lattice_suite's items compare a set of a component's own point
        # tuples with a PointSet as `comp <= pts`, which Python reflects to
        # here; set_of then reads the tuples' positions without a type pass
        if isinstance(other, (set, frozenset)):
            pts, bad = self.grid.set_of(other)
            return not bad and self.mask & pts.mask == pts.mask
        return super().__ge__(other)

    def __and__(self, other):
        if self._peer(other):
            return PointSet(self.grid, self.mask & other.mask)
        return super().__and__(other)

    def __or__(self, other):
        if self._peer(other):
            return PointSet(self.grid, self.mask | other.mask)
        return super().__or__(other)

    def __sub__(self, other):
        if self._peer(other):
            return PointSet(self.grid, self.mask & ~other.mask)
        return super().__sub__(other)


@dataclass(frozen=True)
class LatticeCover:
    """Named PointSets over the model's grid, which the cover keeps as
    `grid`; other collections of model points are converted on entry."""

    model: LatticeModel
    sets: dict = field(default_factory=dict)
    grid: Grid = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        grid = self.model.grid()
        object.__setattr__(self, "grid", grid)
        coerced = {}
        sets = mapping(self.sets, "sets", "set names to collections of model points")
        for name, pts in sets.items():
            if not (isinstance(pts, PointSet) and pts.grid is grid):
                items = sequence(pts, f"set {name!r}", "model points")
                pts, bad = grid.set_of(items)
                if bad:
                    # named in the order of the frozenset of the set's points,
                    # or as given when one of them is unhashable
                    with contextlib.suppress(TypeError):
                        bad = grid.set_of(frozenset(items))[1]
                    raise InputError(f"set {name!r} has points outside the model: {bad[:3]}")
            coerced[name] = pts
        object.__setattr__(self, "sets", coerced)

    def names(self):
        return list(self.sets)

    def union(self) -> PointSet:
        out = 0
        for pts in self.sets.values():
            out |= pts.mask
        return PointSet(self.grid, out)


@dataclass(frozen=True)
class WitnessReport:
    verdict: str
    payload: dict


@dataclass(frozen=True)
class RefinementPiece:
    """One piece of the Palais refinement: the points covered by exactly the
    named sets."""

    cover_sets: tuple
    points: PointSet


def _layers(masks):
    """layers[j]: the bits set in more than j of the int masks."""
    layers = []
    for m in masks:
        for j in range(len(layers) - 1, -1, -1):
            common = layers[j] & m
            if common and j + 1 == len(layers):
                layers.append(common)
            elif common:
                layers[j + 1] |= common
        if layers:
            layers[0] |= m
        elif m:
            layers.append(m)
    return layers


def multiplicity(cover: LatticeCover) -> int:
    return len(_layers(pts.mask for pts in cover.sets.values()))


def touches_facet(cover: LatticeCover, set_id, facet) -> bool:
    facets = cover.grid.facets
    mask = cover.sets[choice(set_id, cover.sets, "set")].mask
    return mask & facets[choice(facet, facets, "facet")] != 0


def spans_pair(cover: LatticeCover, set_id, axis: int) -> bool:
    """True iff the set touches both facets of the given cube axis."""
    if cover.model.kind != "cube":
        raise InputError("spans_pair is a cube-model notion")
    mask, facets = cover.sets[choice(set_id, cover.sets, "set")].mask, cover.grid.facets
    axis = exact_int(axis, "axis", 0, cover.model.n - 1)
    return mask & facets[(axis, 0)] != 0 and mask & facets[(axis, cover.model.r)] != 0


def connected_components(points, model: LatticeModel):
    """Components of a point set under the model adjacency, as PointSets,
    sorted by their smallest point.

    The cells with no neighbour in the set come out of one expand; every
    other component is Grid.bfs from its lowest cell, within the cells left.
    """
    grid = model.grid()
    if not (isinstance(points, PointSet) and points.grid is grid):
        points, bad = grid.set_of(points)
        if bad:
            raise InputError(f"points outside the model: {bad[:3]}")
    single = points.mask & ~grid.expand(points.mask)
    rest = points.mask ^ single
    grown = []
    while rest:
        seed = (rest & -rest).bit_length()
        comp = grid.bfs([seed - 1], allowed=rest)[0]
        rest ^= comp
        grown.append((seed, comp))
    singles = ((b + 1, 1 << b) for b in _bits_of(single))
    return [PointSet(grid, comp) for _, comp in heapq.merge(grown, singles)]


def complement_points(cover: LatticeCover) -> PointSet:
    grid = cover.grid
    return PointSet(grid, grid.full ^ cover.union().mask)


def complement_components(cover: LatticeCover):
    return connected_components(complement_points(cover), cover.model)


def set_components(cover: LatticeCover, set_id):
    return connected_components(cover.sets[choice(set_id, cover.sets, "set")], cover.model)


def palais_coloring(cover: LatticeCover):
    """Refine the cover into color classes of pairwise disjoint pieces.

    The points covered by exactly the sets S form one piece placed in color
    class |S|; class i is the i-th entry (1-based) of the returned list.  The
    refinement drops empty pieces, keeps every piece inside each of its
    covering sets, and preserves the union of the cover.

    A cell in one set is in that set's piece; the cells in two or more sets
    are grouped by the sets that hold them.  The piece of S is then the AND
    of the sets in S with the cells in exactly |S| sets.
    """
    grid = cover.grid
    layers = _layers(pts.mask for pts in cover.sets.values())
    # exact[j]: the cells in exactly j + 1 sets
    exact = [a & ~b for a, b in zip(layers, layers[1:] + [0])]
    single = exact[0] if exact else 0
    multi = layers[1] if len(layers) > 1 else 0
    signatures = {(name,) for name, pts in cover.sets.items() if pts.mask & single}
    membership = {}
    for name, pts in cover.sets.items():
        for b in _bits_of(pts.mask & multi):
            membership.setdefault(b, []).append(name)
    signatures.update(map(tuple, membership.values()))
    classes = [[] for _ in exact]
    for names in sorted(map(sorted, signatures)):
        mask = exact[len(names) - 1]
        for name in names:
            mask &= cover.sets[name].mask
        classes[len(names) - 1].append(RefinementPiece(tuple(names), PointSet(grid, mask)))
    return classes


# theorem: (the name of its witness function here, looked up when it runs;
# the model kind of its cover, None for a sample cover of a polytope; its
# one argument after the cover, "k", "eps" or None), in `verify` order
THEOREMS = {
    "lebesgue": ("lebesgue_witness", "cube", None),
    "kkm": ("kkm_witness", "simplex", "k"),
    "axes": ("axes_witness", "cube", None),
    "complement": ("complement_witness", "cube", "k"),
    "kkm-lebesgue": ("kkm_lebesgue_witness", None, "eps"),
}


def _model_of(cover: LatticeCover, theorem: str) -> LatticeModel:
    """The cover's model, refused unless it is of the theorem's kind."""
    witness, kind, _ = THEOREMS[theorem]
    if cover.model.kind != kind:
        raise InputError(f"{witness} runs on the {kind} model")
    return cover.model


def _not_a_cover_report(missing: PointSet):
    return WitnessReport(
        HYPOTHESIS_VIOLATED,
        {
            "reason": "union_does_not_cover",
            "missing_count": len(missing),
            "missing_sample": list(map(list, itertools.islice(missing, 16))),
        },
    )


def _echo_cover(cover: LatticeCover):
    return {name: list(map(list, pts)) for name, pts in cover.sets.items()}


def _first(candidates):
    """The fields of the first (fields, piece, masks) candidate whose piece,
    an int mask, meets every int of masks, or None."""
    for fields, piece, masks in candidates:
        if all(piece & m for m in masks):
            return fields
    return None


def _excess(mult: int, bound: int, name: str):
    """The hypothesis_violated report of a multiplicity above bound, the
    "dimension" or "k" (name), or None."""
    if mult > bound:
        payload = {"reason": f"multiplicity_exceeds_{name}", "multiplicity": mult}
        return WitnessReport(HYPOTHESIS_VIOLATED, payload | ({"k": bound} if name == "k" else {}))
    return None


def _spanning(cover: LatticeCover):
    """The first {"set", "axis"} whose set touches both facets of the cube
    axis, in set then axis order, or None."""
    facets = cover.grid.facets
    return _first(
        ({"set": name, "axis": axis}, pts.mask, (facets[(axis, 0)], facets[(axis, cover.model.r)]))
        for name, pts in cover.sets.items()
        for axis in range(cover.model.n)
    )


def _component_witness(cover: LatticeCover, k: int, families) -> WitnessReport:
    """Report a multiplicity above k, else search the complement components
    for one that meets every face of a family.  families yields (fields,
    faces) pairs in search order; the fields go into the witness payload."""
    if excess := _excess(multiplicity(cover), k, "k"):
        return excess
    grid = cover.grid
    components = complement_components(cover)
    if found := _first(
        ({"component": comp, **fields, "k": k}, comp.mask, masks)
        for fields, faces in families
        for masks in ([grid.face(face) for face in faces],)
        for comp in components
    ):
        return WitnessReport(WITNESS_FOUND, found)
    return WitnessReport(COUNTEREXAMPLE_CANDIDATE, {"cover": _echo_cover(cover), "k": k})


def lebesgue_witness(cover: LatticeCover) -> WitnessReport:
    """Search a full cover of the cube with multiplicity <= n for a set that
    touches two opposite facets."""
    model = _model_of(cover, "lebesgue")
    missing = complement_points(cover)
    if missing:
        return _not_a_cover_report(missing)
    if excess := _excess(multiplicity(cover), model.n, "dimension"):
        return excess
    if span := _spanning(cover):
        return WitnessReport(WITNESS_FOUND, span)
    return WitnessReport(COUNTEREXAMPLE_CANDIDATE, {"cover": _echo_cover(cover)})


def kkm_witness(cover: LatticeCover, k: int) -> WitnessReport:
    """Search the complement of a simplex family for a component that meets
    every k-face.

    Preconditions (verified): every set misses some facet; multiplicity <= k.
    """
    model = _model_of(cover, "kkm")
    faces = model.k_faces(k)
    facets = cover.grid.facets.values()
    if every := _first(({"reason": "set_touches_every_facet", "set": name}, pts.mask, facets)
                       for name, pts in cover.sets.items()):
        return WitnessReport(HYPOTHESIS_VIOLATED, every)
    return _component_witness(cover, k, [({}, faces)])


def complement_witness(cover: LatticeCover, k: int) -> WitnessReport:
    """Search for a complement component meeting all k-faces of the cube
    parallel to one coordinate k-subspace.

    Preconditions (verified): no set spans an opposite facet pair, and the
    multiplicity is at most k.
    """
    model = _model_of(cover, "complement")
    faces = model.k_faces(k)
    if span := _spanning(cover):
        return WitnessReport(HYPOTHESIS_VIOLATED, {"reason": "set_spans_pair", **span})
    families = (
        ({"axes": list(free)}, [f for f in faces if all(c not in free for c, _ in f)])
        for free in itertools.combinations(range(model.n), k)
    )
    return _component_witness(cover, k, families)


def axes_witness(cover: LatticeCover) -> WitnessReport:
    """For an n-set cover of the cube, find a connected component of the i-th
    set spanning the i-th axis pair.  Set i is paired with axis i by position
    in the cover's set order."""
    model = _model_of(cover, "axes")
    names = cover.names()
    if len(names) != model.n:
        raise WrongArityError(f"need exactly {model.n} sets, got {len(names)}")
    missing = complement_points(cover)
    if missing:
        return _not_a_cover_report(missing)
    facets = cover.grid.facets
    if found := _first(
        ({"set": name, "axis": axis, "component": comp}, comp.mask,
         (facets[(axis, 0)], facets[(axis, model.r)]))
        for axis, name in enumerate(names)
        for comp in set_components(cover, name)
    ):
        return WitnessReport(WITNESS_FOUND, found)
    return WitnessReport(COUNTEREXAMPLE_CANDIDATE, {"cover": _echo_cover(cover)})


class Sample:
    """A point sample as the index space of PointSets: input point i is bit
    at[i], the position of its first occurrence.  ints holds the points'
    numerators over a common denominator L (den) of all coordinates, and the
    facet and box masks are computed on its columns.

    Sample(points) reads exact points as given, hand-built or from JSON,
    repeats allowed, takes L as the lcm of their denominators and clears
    them column by column.  Sample.from_grid(points, columns, r) takes a
    grid scan's distinct points a / r together with the numerator columns
    of their index tuples a, and L is r; its index, the dict from ints to
    bits that bit reads, is built on first use.  The lcm of such a sample
    can be a proper divisor of r, so the two constructors can give one
    sample different den and ints, but every mask, bit and spacing they
    give is the same.

    A mask is read off packed fields, one field per input position: column k
    less its minimum lo_k, packed into fields of B bytes, is one int, built
    on first use per column and B.  <u, a> <= bound is then decided for all
    points at once by sum_k u_k column_k plus (2^(8B-1) - 1 - b) in every
    field, b the bound less <u, lo>, and a field's top bit is clear exactly
    where the test holds.  Over the sample's bounding box <u, a - lo> spans
    at most s = sum_k |u_k| (max_k - lo_k), and a bound inside that range
    puts every field in 0..2^(8B) - 1, so no field borrows from its
    neighbour, once 8B >= s.bit_length() + 1; a bound outside it gives no
    point or every point at once.  A box, the points within an interval on
    each of several columns, is several such tests read off one field
    layout: each interval is at most two tests of one column (a_k <= hi and
    -a_k <= -lo), every test's sum is taken in fields of the one size that
    the widest column tested needs, the sums are ORed, and the top bits are
    read once, clear exactly where every test holds.  The facet bounds of
    near and check_inside are computed from numerators and denominators, in
    integers.  near keeps its last answer, so a second facet-contact query
    on the same polytope object and eps reads it."""

    _near = None  # near's last (polytope, eps, masks)

    def __init__(self, points: tuple, name: str = "sample"):
        points = tuple(sequence(points, name, "points"))
        for i, pt in enumerate(points):
            # the type first: a bare number has no length (points[0] is read
            # at i = 0, before any other point's length is compared with it)
            if (not isinstance(pt, (tuple, list)) or not pt or len(pt) != len(points[0])
                    or not set(map(type, pt)) <= {int, Fraction}):
                raise InputError(f"{name}[{i}] must be ints and Fractions, one per coordinate"
                                 f" of {name}[0], got {pt!r}")
        self.points = points
        self.den = math.lcm(*(x.denominator for pt in points for x in pt))
        self.columns = [[x.numerator * (self.den // x.denominator) for x in col]
                        for col in zip(*points)]
        self._index = {}  # built here, as at needs it
        self.at = [self._index.setdefault(a, i) for i, a in enumerate(self.ints)]
        self.full = _mask(list(self._index.values()))
        self._packs = {}

    @classmethod
    def from_grid(cls, points: tuple, columns: list, r: int) -> Sample:
        """The sample of the distinct points a / r, given with the columns
        of their index tuples a: columns[k][i] is a_k of points[i]."""
        sample = cls.__new__(cls)
        sample.points, sample.den, sample.columns = points, r, columns
        sample.at = list(range(len(points)))
        sample.full = (1 << len(points)) - 1
        sample._packs = {}
        return sample

    @cached_property
    def ints(self) -> list:
        """The numerator tuples: ints[i][k] is columns[k][i]."""
        return list(zip(*self.columns))

    @cached_property
    def _index(self) -> dict:
        """from_grid's numerator tuples to their bits."""
        return dict(zip(self.ints, self.at))

    @cached_property
    def _box(self) -> tuple:
        """The numerators' bounding box as (lows, spans): column k runs over
        lows[k] .. lows[k] + spans[k]."""
        lows = list(map(min, self.columns))
        return lows, [hi - lo for lo, hi in zip(lows, map(max, self.columns))]

    def bit(self, p):
        """The bit of point p, or None when p is not a sample point.  A point
        is a tuple of ints and Fractions: a float is never read, since its
        product with den can round onto a numerator."""
        if type(p) is not tuple or not set(map(type, p)) <= {int, Fraction}:
            return None
        return self._index.get(tuple(x * self.den for x in p))

    def set_of(self, pts):
        """The PointSet of the sample points among pts and the list of the
        other items, in the order of pts."""
        pts = list(pts)
        return _point_set(self, pts, list(map(self.bit, pts)))

    def points_of(self, mask: int):
        return _at_bits(self.points, mask)

    def box(self, bounds) -> int:
        """The mask of the points whose numerators a have lo <= a[axis] <= hi
        for every (axis, lo, hi) of bounds, from one packed read (see the
        class docstring)."""
        if not self.points:
            return 0
        lows, spans = self._box
        tests = []  # (k, w, b): w (a_k - lows[k]) <= b, with w = +-1
        for k, lo, hi in bounds:
            lo, hi = lo - lows[k], hi - lows[k]
            if hi < max(lo, 0) or lo > spans[k]:
                return 0
            if hi < spans[k]:
                tests.append((k, 1, hi))
            if lo > 0:
                tests.append((k, -1, -lo))
        if not tests:
            return self.full
        size = (max(spans[k] for k, _, _ in tests).bit_length() + 8) // 8
        repunit, packed = self._fields(size)
        top = (1 << (8 * size - 1)) - 1
        fails = 0
        for k, w, b in tests:
            if k not in packed:
                packed[k] = self._pack(k, size)
            if w > 0:
                fails |= (top - b) * repunit + packed[k]
            else:
                fails |= (top - b) * repunit - packed[k]
        return _tops_clear(fails, len(self.points), size) & self.full

    def _fields(self, size: int) -> tuple:
        """The repunit of len(points) fields of size bytes, and the dict of
        the columns packed into such fields so far, by column."""
        if size not in self._packs:
            self._packs[size] = (_repunit(8 * size, len(self.points)), {})
        return self._packs[size]

    @cached_property
    def _planes(self) -> list:
        """Per column k, the byte planes of its values less lows[k], low byte
        first: plane j holds byte j of every point's value, one byte per
        point, and the last plane holds the rest."""
        lows, spans = self._box
        planes = []
        for col, lo, span in zip(self.columns, lows, spans):
            values, bytes_of = map(sub, col, itertools.repeat(lo)), []
            for _ in range((span.bit_length() - 1) // 8):
                values = list(values)
                bytes_of.append(bytes(map(and_, values, itertools.repeat(255))))
                values = map(rshift, values, itertools.repeat(8))
            bytes_of.append(bytes(values))
            planes.append(bytes_of)
        return planes

    def _pack(self, k: int, size: int) -> int:
        """Column k less its minimum as one int of size-byte fields, field i
        holding point i, laid out from the column's byte planes."""
        cells = bytearray(len(self.points) * size)
        for j, plane in enumerate(self._planes[k]):
            cells[j::size] = plane
        return int.from_bytes(cells, "little")

    def _at_most(self, u, bound: int) -> int:
        """The mask of the input positions i whose numerators a have
        <u, a> <= bound, a repeat at its own position, from the packed
        fields (see the class docstring)."""
        if not self.points:
            return 0
        lows, spans = self._box
        terms = [(w, k) for k, w in enumerate(u) if w]
        b = bound - sum(w * lows[k] for w, k in terms)
        least = sum(w * spans[k] for w, k in terms if w < 0)
        most = sum(w * spans[k] for w, k in terms if w > 0)
        if b < least:
            return 0
        if b >= most:
            return (1 << len(self.points)) - 1
        size = ((most - least).bit_length() + 8) // 8
        repunit, packed = self._fields(size)
        total = ((1 << (8 * size - 1)) - 1 - b) * repunit
        for w, k in terms:
            if k not in packed:
                packed[k] = self._pack(k, size)
            total += w * packed[k]
        return _tops_clear(total, len(self.points), size)

    def near(self, p: SimplePolytope, eps) -> list:
        """Per facet F of P, the mask of the points at slack <= eps |u_F|_1:
        <u_F, x> + c_F <= t holds iff <u_F, a> <= floor(L (t - c_F)).  The
        last answer is kept and given again, as the same list, for the same
        polytope object and an equal eps."""
        eps = exact(eps, "eps")
        if self._near and self._near[0] is p and self._near[1] == eps:
            return self._near[2]
        # L (eps |u|_1 - c) with eps = e / q and c = n / d, over q d
        e, q = eps.numerator, eps.denominator
        masks = [
            self._at_most(u, self.den * (e * sum(map(abs, u)) * c.denominator - c.numerator * q)
                          // (q * c.denominator))
            for u, c in zip(p.normals, p.offsets)
        ]
        self._near = (p, eps, masks)
        return masks

    def check_inside(self, p: SimplePolytope) -> None:
        """Raise InputError naming sample[i], the first point outside P, facet
        by facet: <u_F, x> + c_F < 0 holds iff <u_F, a> <= ceil(-L c_F) - 1."""
        for u, c in zip(p.normals, p.offsets):
            mask = self._at_most(u, -(self.den * c.numerator // c.denominator) - 1)
            if mask:
                i = (mask & -mask).bit_length() - 1
                raise InputError(f"sample[{i}] lies outside the polytope")


@dataclass(frozen=True)
class PointCloudCover:
    """Named sets of exact rational points drawn from a finite sample of a
    polytope: PointSets over its Sample, or any collections of points."""

    sample: tuple
    sets: dict

    def indexed(self):
        """The Sample and the sets as PointSets over it, converted if need be;
        the sample and the sets are read here, by Sample and sequence."""
        given = mapping(self.sets, "sets", "set names to collections of sample points")
        grids = {pts.grid if isinstance(pts, PointSet) else None for pts in given.values()}
        sample = grids.pop() if len(grids) == 1 else None
        if isinstance(sample, Sample) and sample.points is self.sample:
            return sample, given
        sample = Sample(self.sample)
        sets = {}
        for name, pts in given.items():
            sets[name], bad = sample.set_of(sequence(pts, f"set {name!r}", "sample points"))
            if bad:
                raise BadSampleError(f"set {name!r} has points outside the sample")
        return sample, sets


def sample_spacing(sample) -> Fraction:
    """Smallest positive max-norm distance between two sample points.

    Sweeps the numerators in sorted order: once the first coordinates differ
    by at least the best distance so far, no later point comes closer, and
    a distance of 1 / den, the least two distinct points can have, ends it.
    """
    sample = sample if isinstance(sample, Sample) else Sample(sample)
    pts = sorted(sample._index)
    best = None
    for i, p in enumerate(pts):
        for j in range(i + 1, len(pts)):
            q = pts[j]
            if best is not None and q[0] - p[0] >= best:
                break
            d = max(abs(a - b) for a, b in zip(p, q))
            if d == 1:
                return Fraction(1, sample.den)
            if best is None or d < best:
                best = d
    if best is None:
        raise InputError("sample needs at least two distinct points")
    return Fraction(best, sample.den)


def _eps(eps) -> Fraction:
    """eps as a Fraction, refusing a float, a bool or a negative value."""
    eps = exact(eps, "eps")
    if eps < 0:
        raise InputError(f"eps must be >= 0, got {eps}")
    return eps


def facet_touch_set(p: SimplePolytope, points, eps: Fraction):
    """Facets F with some point at slack <= eps * |u_F|_1 (Sample.near).  A
    PointSet over a Sample meets that sample's masks; other points are read
    into a Sample of their own."""
    eps = _eps(eps)
    if isinstance(points, PointSet) and isinstance(points.grid, Sample):
        sample, mask = points.grid, points.mask
    else:
        sample = Sample(points, "points")
        mask = sample.full
    return {f for f, near in enumerate(sample.near(p, eps)) if near & mask}


def kkm_lebesgue_witness(
    p: SimplePolytope, cover: PointCloudCover, eps=None
) -> WitnessReport:
    """Search a multiplicity-<=n sample cover of a simple polytope for an
    essential set: one whose touched facets admit no avoidance certificate,
    a divisor equivalent to the ample class H that avoids them.  A cover of
    inessential sets would give H^n = 0 < n! vol(P), so the witness is the
    first such set in cover order; on the cube, a set touching two opposite
    facets is one however few facets it touches.

    eps defaults to one minimal sample spacing: a tilted facet plane can stay
    further than half a spacing from every grid plane on its polytope side.
    Every set with at most n touched facets gets its certificate, or null,
    in the report; one touching more is solved only until the witness.
    """
    eps = None if eps is None else _eps(eps)
    if not cover.sample:
        raise BadSampleError("the sample is empty")
    sample, sets = cover.indexed()
    layers = _layers(pts.mask for pts in sets.values())
    if not layers or layers[0] != sample.full:
        raise BadSampleError("the sets do not cover the sample")
    if excess := _excess(len(layers), p.dim, "dimension"):
        return excess

    if eps is None:
        eps = sample_spacing(sample)
    near = sample.near(p, eps)
    touched_by = {
        name: [f for f, mask in enumerate(near) if mask & pts.mask] for name, pts in sets.items()
    }
    ample = chow.ample_from_offsets(p)
    certs = {name: chow.avoidance_certificate(p, ample, touched)
             for name, touched in touched_by.items() if len(touched) <= p.dim}
    base = {
        "eps": eps,
        "touched_facets": touched_by,
        "certificates": {
            name: None if cert is None else {"touched": touched_by[name], "divisor": cert}
            for name, cert in certs.items()
        },
    }
    for name, touched in touched_by.items():
        cert = certs[name] if name in certs else chow.avoidance_certificate(p, ample, touched)
        if cert is None:
            return WitnessReport(WITNESS_FOUND, {"set": name, "touched": touched, **base})
    return WitnessReport(COUNTEREXAMPLE_CANDIDATE, base)
