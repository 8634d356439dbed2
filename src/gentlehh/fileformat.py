"""Reading and writing the triangulation file format.

A triangulation file is a UTF-8 JSON document

    {"name": "...", "triangles": [[side, side, side], ...]}

where each side is ``{"label": str, "kind": "arc"|"boundary",
"from": str, "to": str}`` and the three sides of a triangle are listed in
counter-clockwise order.  Extra top-level keys (fixture expectations,
notes) are ignored by the parser.
"""

import json
from json.encoder import encode_basestring_ascii

from .surface import ARC, BOUNDARY, Side, Triangle, TriangulationInput


class FormatError(ValueError):
    """The document is not a well-formed triangulation file."""


def _is_text(value) -> bool:
    """A non-empty string of valid Unicode: a JSON escape can decode to a
    lone surrogate (U+D800..U+DFFF), which no valid text holds."""
    return isinstance(value, str) and value != "" and (
        value.isascii() or not any("\ud800" <= c <= "\udfff" for c in value))


def parse_triangulation(doc) -> TriangulationInput:
    """Build a :class:`TriangulationInput` from a decoded JSON document."""
    if not isinstance(doc, dict):
        raise FormatError("top level must be a JSON object")
    name = doc.get("name")
    if not _is_text(name):
        raise FormatError("missing or empty 'name', or not valid Unicode")
    raw_triangles = doc.get("triangles")
    if not isinstance(raw_triangles, list) or not raw_triangles:
        raise FormatError("'triangles' must be a non-empty list")

    triangles = []
    for t_idx, raw_tri in enumerate(raw_triangles):
        if not isinstance(raw_tri, list) or len(raw_tri) != 3:
            raise FormatError("triangle %d must be a list of three sides" % t_idx)
        sides = []
        for s_idx, raw_side in enumerate(raw_tri):
            if not isinstance(raw_side, dict):
                raise FormatError(
                    "triangle %d side %d must be an object" % (t_idx, s_idx))
            try:
                label = raw_side["label"]
                kind = raw_side["kind"]
                src = raw_side["from"]
                dst = raw_side["to"]
            except KeyError as exc:
                raise FormatError(
                    "triangle %d side %d: missing key %s" % (t_idx, s_idx, exc))
            if kind not in (ARC, BOUNDARY):
                raise FormatError(
                    "triangle %d side %d: kind must be 'arc' or 'boundary', "
                    "got %r" % (t_idx, s_idx, kind))
            for value in (label, src, dst):
                if not _is_text(value):
                    raise FormatError(
                        "triangle %d side %d: labels and vertex names must be "
                        "non-empty strings of valid Unicode" % (t_idx, s_idx))
            # positional calls: keywords double the cost of each side
            sides.append(Side(label, kind, src, dst))
        triangles.append(Triangle((sides[0], sides[1], sides[2])))
    return TriangulationInput(name=name, triangles=tuple(triangles))


def loads(text: str) -> TriangulationInput:
    # ValueError: JSONDecodeError, or an integer past the interpreter's digit limit
    try:
        doc = json.loads(text)
    except (ValueError, RecursionError) as exc:
        raise FormatError("invalid JSON: %s" % exc)
    return parse_triangulation(doc)


def load_file(path) -> TriangulationInput:
    with open(path, encoding="utf-8") as handle:
        return loads(handle.read())


def as_document(data: TriangulationInput) -> dict:
    """Serialize back to the file format (inverse of parse_triangulation)."""
    return {
        "name": data.name,
        "triangles": [
            [
                {"label": s.label, "kind": s.kind, "from": s.src, "to": s.dst}
                for s in tri.sides
            ]
            for tri in data.triangles
        ],
    }


def indented_json(value, indent="") -> str:
    """``json.dumps(value, indent=2)`` for the documents this package
    writes (dicts with string keys, lists, tuples and scalars).  The
    standard encoder serves ``indent`` from mutually recursive closures
    that form a reference cycle on every call, so only the cyclic garbage
    collector could free them; this writer leaves none."""
    inner = indent + "  "
    if isinstance(value, dict) and value:
        return "{\n%s\n%s}" % (",\n".join(
            "%s%s: %s" % (inner, encode_basestring_ascii(key), indented_json(item, inner))
            for key, item in value.items()), indent)
    if isinstance(value, (list, tuple)) and value:
        return "[\n%s\n%s]" % (",\n".join(
            inner + indented_json(item, inner) for item in value), indent)
    # an int's JSON text is its repr and a string's is what json.dumps
    # escapes it to; json.dumps itself costs a one-shot encoder
    if type(value) is int:
        return repr(value)
    return encode_basestring_ascii(value) if type(value) is str else json.dumps(value)


def dumps(data: TriangulationInput) -> str:
    return indented_json(as_document(data)) + "\n"


def dump_file(data: TriangulationInput, path):
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(dumps(data))
