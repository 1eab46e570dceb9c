"""JSON formats for every CLI surface.

Rationals travel as JSON integers or strings "p/q" (an optional minus sign
and ASCII digits), never as floats, decimals or exponents.
Facet ids are the positions in the polytope's facet list; JSON object keys
are their canonical decimal strings.  Stable facet ordering is the input
ordering.

The loaders check every field they read: a missing field, a value of the
wrong JSON type, or a float or boolean where an integer belongs raises
InputError (polytope's one input-error class) with the field's path, such as
`facets[0].normal[1]`.  Sample points must have the polytope's dimension and
lie in it; a sample's rationals are read once per distinct string.

`dumps` writes what the CLI prints: exactly `json.dumps(data, indent=2)`,
without json's pure-Python indenting encoder.  A `PointSet` over a model's
grid is written from the grid's point texts, other arrays of integer rows
by json's C encoder, and arrays of integers or of strings in one join.
"""

from __future__ import annotations

import json
import re
from fractions import Fraction
from itertools import chain
from json.encoder import encode_basestring_ascii

from .chow import Divisor, RingPresentation
from .covering import Grid, LatticeCover, LatticeModel, PointCloudCover, PointSet, WitnessReport
from .covering import Sample, _bits_of, _echo_cover, _mask, _point_set
from .polytope import RATIONAL, InputError, SimplePolytope, from_halfspaces

JSON_TYPES = {
    dict: "object", list: "array", str: "string", int: "number", float: "number",
    bool: "boolean", type(None): "null",
}


def frac_from_str(s) -> Fraction:
    """A rational from a JSON integer or a "p/q" string of ASCII digits with
    an optional minus sign; floats, decimals and exponents are refused, and
    so are q = 0 and more digits than int() reads, all as InputError."""
    if type(s) is not int and not (isinstance(s, str) and RATIONAL.fullmatch(s)):
        raise InputError(f'rationals must be integers or "p/q" strings, got {s!r}')
    try:
        return Fraction(s)
    except (ValueError, ZeroDivisionError) as exc:
        raise InputError(str(exc)) from None


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
    """An array of integers, checked in one type pass; the path of an entry
    is built only to name a bad one."""
    if not set(map(type, _check(value, list, path))) <= {int}:
        for i, x in enumerate(value):
            _check(x, int, _at(path, i))
    return tuple(value)


def _points(value, path: str) -> list:
    """An array of arrays of integers, as tuples.  Lattice covers hold many
    points, so one type pass over the rows and one over their entries check
    them all; the path of each point is built only to name a bad one."""
    _check(value, list, path)
    row_types = set(map(type, value))
    if not row_types <= {list} or not set(map(type, chain.from_iterable(value))) <= {int}:
        for i, p in enumerate(value):
            _ints(p, _at(path, i))
    return list(map(tuple, value))


def _frac(value, path: str) -> Fraction:
    try:
        return frac_from_str(value)
    except InputError as exc:
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
    """The polytope of a JSON object; errors name fields under path, and
    every facet normal must have the first one's length."""
    _check(data, dict, path)
    normals, offsets = [], []
    for i, f in enumerate(_field(data, "facets", path, list)):
        at = _at(_at(path, "facets"), i)
        _check(f, dict, at)
        normals.append(_ints(_field(f, "normal", at), _at(at, "normal")))
        if len(normals[i]) != len(normals[0]):
            raise InputError(f"{_at(at, 'normal')} has {len(normals[i])} entries,"
                             f" the first normal has {len(normals[0])}")
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


def cover_payload(cover: LatticeCover, **extra) -> dict:
    """The layout of a cover's JSON with its sets as the cover's PointSets,
    which dumps writes as cover_to_json's lists."""
    m = cover.model
    return {"model": {"kind": m.kind, "n": m.n, "r": m.r}, "sets": cover.sets, **extra}


def cover_to_json(cover: LatticeCover, **extra) -> dict:
    """The cover as plain JSON values: each set a list of point lists."""
    data = cover_payload(cover, **extra)
    data["sets"] = _echo_cover(cover)
    return data


def cover_from_json(data: dict) -> LatticeCover:
    """The cover of a JSON object.  Each set's checked points are looked up
    in the model's grid once; a set with a point outside the model goes to
    LatticeCover as it is, which names the bad points."""
    m = _field(data, "model", kind=dict)
    model = LatticeModel(
        _field(m, "kind", "model"), _field(m, "n", "model", int), _field(m, "r", "model", int)
    )
    grid = model.grid()
    sets = {}
    for name, pts in _field(data, "sets", kind=dict).items():
        pts = _points(pts, _at("sets", name))
        found, bad = _point_set(grid, pts, grid.cells_at(list(map(grid.index.get, pts))))
        sets[name] = pts if bad else found
    return LatticeCover(model, sets)


def point_cover_to_json(p: SimplePolytope, cover: PointCloudCover, eps=None) -> dict:
    sample, sets = cover.indexed()
    data = {
        "polytope": polytope_to_json(p),
        "sample": [[frac_to_str(x) for x in pt] for pt in sample.points],
        "sets": {name: list(_bits_of(pts.mask)) for name, pts in sets.items()},
    }
    if eps is not None:
        data["eps"] = frac_to_str(eps)
    return data


def _sample_points(rows: list, dim: int) -> tuple:
    """The points of a sample array, each an array of dim rationals.  A
    sample repeats few coordinate values, so each distinct string is read
    once; only a str is looked up, since 1, 1.0 and True are equal keys.
    A refused value or shape is named by the per-coordinate pass, which
    builds the paths and meets the values in the same order."""
    known = {}

    def read(x):
        if type(x) is not str:
            return frac_from_str(x)
        value = known.get(x)
        if value is None:
            value = known[x] = frac_from_str(x)
        return value

    if set(map(type, rows)) <= {list} and all(len(pt) == dim for pt in rows):
        try:
            return tuple(tuple(map(read, pt)) for pt in rows)
        except InputError:
            pass
    sample = []
    for i, pt in enumerate(rows):
        at = _at("sample", i)
        point = tuple(_frac(x, _at(at, j)) for j, x in enumerate(_check(pt, list, at)))
        if len(point) != dim:
            raise InputError(f"{at} has {len(point)} coordinates, the polytope has {dim}")
        sample.append(point)
    return tuple(sample)


def point_cover_from_json(data: dict):
    """Returns (polytope, PointCloudCover, eps or None); see Sample for repeats."""
    p = polytope_from_json(_field(data, "polytope"), "polytope")
    sample = Sample(_sample_points(_field(data, "sample", kind=list), p.dim))
    sample.check_inside(p)
    size = len(sample.points)
    sets = {}
    for name, idxs in _field(data, "sets", kind=dict).items():
        at = _at("sets", name)
        idxs = _ints(idxs, at)
        if idxs and not (0 <= min(idxs) and max(idxs) < size):
            j, i = next((j, i) for j, i in enumerate(idxs) if not 0 <= i < size)
            raise InputError(f"{_at(at, j)}: sample index {i} out of range")
        sets[name] = PointSet(sample, _mask([sample.at[i] for i in idxs]))
    eps = _frac(data["eps"], "eps") if "eps" in data else None
    return p, PointCloudCover(sample.points, sets), eps


def moment_input_from_json(data: dict, kind: str) -> list:
    """The `input` of a moment-map payload: rationals for real_sphere,
    [re, im] pairs for cpn, pairs of those for product_cp1."""
    read = {
        "real_sphere": _frac,
        "cpn": _complex,
        "product_cp1": lambda z, path: _pair(z, path, _complex),
    }[kind]
    return [read(x, _at("input", i)) for i, x in enumerate(_field(data, "input", kind=list))]


def report_to_json(report: WitnessReport) -> dict:
    """The verdict and payload as JSON values.  Two payloads hold values
    JSON cannot: a lattice witness's component PointSet, written as the
    list of its points as lists, and a kkm-lebesgue payload's eps Fraction
    and certificate Divisors."""
    payload = report.payload
    if "component" in payload:
        payload = {**payload, "component": list(map(list, payload["component"]))}
    if "eps" in payload:
        payload = {
            **payload,
            "eps": frac_to_str(payload["eps"]),
            "certificates": {
                name: cert and {**cert, "divisor": divisor_to_json(cert["divisor"])}
                for name, cert in payload["certificates"].items()
            },
        }
    return {"verdict": report.verdict, "payload": payload}


def dumps(data) -> str:
    """json.dumps(data, indent=2), byte for byte, for any value json.dumps
    accepts, and with a PointSet written as the array of its points: from
    its grid's point texts when it is a non-empty set over a model's Grid.
    Other arrays of integer rows go through json's C encoder."""
    out = []
    _write(data, "\n", out)
    return "".join(out)


# the text of each entry of an array whose entries are all of one such type
_ENTRY_TEXT = {int: int.__repr__, str: encode_basestring_ascii}


def _write(value, nl: str, out: list) -> None:
    """Append the indented text of value to out; nl is the newline and
    indent that the value's own line starts with."""
    t = type(value)
    if t is PointSet and not (value.mask and isinstance(value.grid, Grid)):
        value, t = list(value), list
    inner = nl + "  "
    if t is PointSet:
        grid = value.grid
        body = ";".join(map(grid.texts.__getitem__, grid.positions(value.mask)))
        _write_rows(body, ";", nl, out)
    elif t is str:
        out.append(encode_basestring_ascii(value))
    elif t is dict and value and all(type(k) is str for k in value):
        sep = "{" + inner
        for k, v in value.items():
            out.append(sep + encode_basestring_ascii(k) + ": ")
            _write(v, inner, out)
            sep = "," + inner
        out.append(nl + "}")
    elif (t is list or t is tuple) and value:
        types = set(map(type, value))
        entry = _ENTRY_TEXT.get(next(iter(types))) if len(types) == 1 else None
        if entry:
            out += "[", inner, ("," + inner).join(map(entry, value)), nl, "]"
        elif types <= {list, tuple} and all(value) and set(
            map(type, chain.from_iterable(value))
        ) == {int}:
            _write_rows(json.dumps(value, separators=(",", ":"))[2:-2], "],[", nl, out)
        else:
            sep = "[" + inner
            for v in value:
                out.append(sep)
                _write(v, inner, out)
                sep = "," + inner
            out.append(nl + "]")
    else:
        # a scalar, an empty container, non-str keys: json's own layout with
        # the indent shifted, exact because JSON text holds no raw newline
        out.append(json.dumps(value, indent=2).replace("\n", nl))


def _write_rows(body: str, sep: str, nl: str, out: list) -> None:
    """Append the indented text of a non-empty array of non-empty integer
    rows, given without its outer brackets as the entries of each row
    joined by ',' and the rows joined by sep.  Integer text holds no ',',
    ';', '[' or ']', so two replaces indent it: the commas, then sep as the
    first replace left it."""
    inner = nl + "  "
    row = inner + "  "
    body = body.replace(",", "," + row)
    body = body.replace(sep.replace(",", "," + row), inner + "]," + inner + "[" + row)
    out += "[", inner, "[", row, body, inner, "]", nl, "]"
