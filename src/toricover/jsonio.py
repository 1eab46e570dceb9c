"""JSON formats for every CLI surface.

Rationals travel as strings "p/q" (plain integers allowed), never as floats.
Facet ids are the positions in the polytope's facet list; JSON object keys
are their canonical decimal strings.  Stable facet ordering is the input
ordering.

The loaders check every field they read: a missing field, a value of the
wrong JSON type, or a float or boolean where an integer belongs raises
InputError (polytope's one input-error class) with the field's path, such as
`facets[0].normal[1]`.  Sample points must have the polytope's dimension and
lie in it.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction
from operator import mul

from .chow import Divisor, RingPresentation
from .covering import LatticeCover, LatticeModel, PointCloudCover, WitnessReport
from .polytope import InputError, SimplePolytope, from_halfspaces

JSON_TYPES = {
    dict: "object", list: "array", str: "string", int: "number", float: "number",
    bool: "boolean", type(None): "null",
}

def frac_from_str(s) -> Fraction:
    if isinstance(s, bool) or isinstance(s, float):
        raise InputError(f"rationals must be strings or integers, got {s!r}")
    return Fraction(s)


def frac_to_str(x: Fraction) -> str:
    try:
        return str(Fraction(x))
    except ValueError as exc:  # more digits than Python writes by default
        raise InputError(str(exc)) from None


def _at(path: str, key) -> str:
    """The path of a member: `a.b` for a key, `a[0]` for an index.  A key
    with unprintable characters is quoted, so a message stays one line."""
    if isinstance(key, int):
        return f"{path}[{key}]"
    if not key.isprintable():
        key = repr(key)
    return f"{path}.{key}" if path else key


def _field(data: dict, name: str, path: str = "", kind=None):
    """data[name], checked to be of the given kind if one is given."""
    if name not in data:
        raise InputError(f"missing required field {_at(path, name)!r}")
    return data[name] if kind is None else _check(data[name], kind, _at(path, name))


def _check(value, kind, path: str):
    """value if it is a JSON object (kind dict), array (list) or integer
    (int); a float or a boolean is not an integer and is never truncated."""
    if not (type(value) is int if kind is int else isinstance(value, kind)):
        expected = "integer" if kind is int else JSON_TYPES[kind]
        got = JSON_TYPES.get(type(value), type(value).__name__)
        raise InputError(f"{path or 'input'} must be an {expected}, got {got}")
    return value


def _ints(value, path: str) -> tuple:
    """An array of integers."""
    return tuple(_check(x, int, _at(path, i)) for i, x in enumerate(_check(value, list, path)))


def _points(value, path: str) -> list:
    """An array of arrays of integers, as tuples.  Lattice covers hold many
    points, so the path of each point is built only to name a bad one."""
    _check(value, list, path)
    if not all(isinstance(p, list) and all(type(x) is int for x in p) for p in value):
        for i, p in enumerate(value):
            _ints(p, _at(path, i))
    return [tuple(p) for p in value]


def _frac(value, path: str) -> Fraction:
    try:
        return frac_from_str(value)
    except (TypeError, ValueError, ZeroDivisionError) as exc:
        raise InputError(f"{path}: {exc}") from None


def _pair(value, path: str, read) -> tuple:
    """An array of exactly two entries, each read by read(entry, path)."""
    if len(_check(value, list, path)) != 2:
        raise InputError(f"{path} must have 2 entries, got {len(value)}")
    return tuple(read(x, _at(path, i)) for i, x in enumerate(value))


def _complex(value, path: str) -> tuple:
    """A complex number as its [re, im] pair of rationals."""
    return _pair(value, path, _frac)


def polytope_to_json(p: SimplePolytope) -> dict:
    return {
        "dim": p.dim,
        "facets": [
            {"normal": list(u), "offset": frac_to_str(c)}
            for u, c in zip(p.normals, p.offsets)
        ],
    }


def polytope_from_json(data: dict, path: str = "") -> SimplePolytope:
    """The polytope of a JSON object; errors name fields under path."""
    _check(data, dict, path)
    normals, offsets = [], []
    for i, f in enumerate(_field(data, "facets", path, list)):
        at = _at(_at(path, "facets"), i)
        _check(f, dict, at)
        normals.append(_ints(_field(f, "normal", at), _at(at, "normal")))
        offsets.append(_frac(_field(f, "offset", at), _at(at, "offset")))
    p = from_halfspaces(normals, offsets)
    dim = _field(data, "dim", path, int)
    if p.dim != dim:
        raise InputError(f"{_at(path, 'dim')} is {dim}, the normals have dimension {p.dim}")
    return p


def divisor_to_json(d: Divisor) -> dict:
    return {"coeffs": {str(i): frac_to_str(c) for i, c in enumerate(d.coeffs)}}


def divisor_from_json(p: SimplePolytope, data: dict, path: str = "") -> Divisor:
    coeffs = _field(_check(data, dict, path), "coeffs", path, dict)
    at = _at(path, "coeffs")
    return Divisor.from_map(
        p, {_facet_id(k, _at(at, k)): _frac(v, _at(at, k)) for k, v in coeffs.items()}
    )


def _facet_id(key: str, path: str) -> int:
    """A facet id from an object key, which must be its decimal string."""
    if not re.fullmatch(r"0|-?[1-9][0-9]*", key):
        raise InputError(f"{path}: a facet id is a decimal integer, got {key!r}")
    try:
        return int(key)
    except ValueError as exc:  # more digits than Python reads by default
        raise InputError(f"{path}: {exc}") from None


def presentation_to_json(pres: RingPresentation) -> dict:
    return {
        "generators": [f"c_{i}" for i in pres.generators],
        "linear_relations": [[int(x) for x in row] for row in pres.linear_relations],
        "minimal_nonfaces": [sorted(s) for s in pres.minimal_nonfaces],
    }


def cover_to_json(cover: LatticeCover, **extra) -> dict:
    model = cover.model
    data = {
        "model": {"kind": model.kind, "n": model.n, "r": model.r},
        "sets": {
            name: sorted(list(p) for p in pts) for name, pts in cover.sets.items()
        },
    }
    data.update(extra)
    return data


def cover_from_json(data: dict) -> LatticeCover:
    m = _field(data, "model", kind=dict)
    model = LatticeModel(
        _field(m, "kind", "model"), _field(m, "n", "model", int), _field(m, "r", "model", int)
    )
    sets = {
        name: frozenset(_points(pts, _at("sets", name)))
        for name, pts in _field(data, "sets", kind=dict).items()
    }
    return LatticeCover(model, sets)


def point_cover_to_json(p: SimplePolytope, cover: PointCloudCover, eps=None) -> dict:
    index = {pt: i for i, pt in enumerate(cover.sample)}
    data = {
        "polytope": polytope_to_json(p),
        "sample": [[frac_to_str(x) for x in pt] for pt in cover.sample],
        "sets": {
            name: sorted(index[pt] for pt in pts)
            for name, pts in cover.sets.items()
        },
    }
    if eps is not None:
        data["eps"] = frac_to_str(eps)
    return data


def point_cover_from_json(data: dict):
    """Returns (polytope, PointCloudCover, eps or None)."""
    p = polytope_from_json(_field(data, "polytope"), "polytope")
    sample = []
    for i, pt in enumerate(_field(data, "sample", kind=list)):
        at = _at("sample", i)
        point = tuple(_frac(x, _at(at, j)) for j, x in enumerate(_check(pt, list, at)))
        if len(point) != p.dim:
            raise InputError(f"{at} has {len(point)} coordinates, the polytope has {p.dim}")
        sample.append(point)
    sample = tuple(sample)
    _check_inside(p, sample)
    sets = {}
    for name, idxs in _field(data, "sets", kind=dict).items():
        at = _at("sets", name)
        for j, i in enumerate(_ints(idxs, at)):
            if not 0 <= i < len(sample):
                raise InputError(f"{_at(at, j)}: sample index {i} out of range")
        sets[name] = frozenset(sample[i] for i in idxs)
    eps = _frac(data["eps"], "eps") if "eps" in data else None
    return p, PointCloudCover(sample, sets), eps


def _check_inside(p: SimplePolytope, sample) -> None:
    """Every sample point lies in P, tested in integers: with the points'
    numerators a over their common denominator L and c_F = N_F / D_F,
    <u_F, a> / L + c_F >= 0 becomes <u_F, a> D_F >= -N_F L."""
    den = math.lcm(*(x.denominator for pt in sample for x in pt))
    ints = [[x.numerator * (den // x.denominator) for x in pt] for pt in sample]
    for u, c in zip(p.normals, p.offsets):
        bound = -c.numerator * den
        for i, a in enumerate(ints):
            if sum(map(mul, u, a)) * c.denominator < bound:
                raise InputError(f"{_at('sample', i)} lies outside the polytope")


def moment_input_from_json(data: dict, kind: str) -> list:
    """The `input` of a moment-map payload: rationals for real_sphere,
    [re, im] pairs for cpn, pairs of those for product_cp1."""
    read = {
        "real_sphere": _frac,
        "cpn": _complex,
        "product_cp1": lambda z, path: _pair(z, path, _complex),
    }[kind]
    return [read(x, _at("input", i)) for i, x in enumerate(_field(data, "input", kind=list))]


def to_jsonable(obj):
    """Recursively convert payload values into JSON-ready structures."""
    if isinstance(obj, Fraction):
        return frac_to_str(obj)
    if isinstance(obj, Divisor):
        return divisor_to_json(obj)
    if isinstance(obj, dict):
        return {str(k): to_jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (frozenset, set)):
        return sorted(to_jsonable(v) for v in obj)
    if isinstance(obj, (list, tuple)):
        return [to_jsonable(v) for v in obj]
    return obj


def report_to_json(report: WitnessReport) -> dict:
    return {"verdict": report.verdict, "payload": to_jsonable(report.payload)}
