"""Loading graph specifications from structured-text (JSON) files.

Format::

    {
      "k": 2,
      "vertices": ["v1", "v2"],
      "edges": [{"id": "e1", "color": 1, "range": "v1", "source": "v2"}],
      "squares": [{"first": ["e1", "f1"], "second": ["f2", "e2"]}]
    }

This module maps the document to a ``KGraphSpec`` and checks only its
shape; the ``KGraph`` constructor checks the values, types included.
"""

import dataclasses
import json

from . import rings
from .errors import ParseError
from .kgraph import Edge, KGraph, KGraphSpec, Square


def _list(value, what):
    """value as a tuple, if it is a JSON list."""
    if type(value) is not list:
        raise ParseError(f"{what} must be a list, not {type(value).__name__}")
    return tuple(value)


def _entries(data):
    """(name, value, keys) for the document, each edge and each square, in
    the order spec_from_dict reads them: each must be a JSON object with
    those keys."""
    yield "the graph document", data, ("k", "vertices")
    for i, e in enumerate(data.get("edges", [])):
        yield f"edge {i}", e, ("id", "color", "range", "source")
    for i, sq in enumerate(data.get("squares", [])):
        yield f"square {i}", sq, ("first", "second")


def spec_from_dict(data):
    """Map a parsed graph document to a specification.

    Only the document's shape is checked here: the document, each edge and
    each square must be a JSON object with every key, and each container a
    JSON list (it becomes a tuple).  The values go through unchanged; the
    ``KGraph`` constructor checks their types, the same checks a
    specification built in Python goes through."""
    try:
        return KGraphSpec(
            k=data["k"],
            vertices=_list(data["vertices"], "vertices"),
            edges=tuple(Edge(e["id"], e["color"], e["range"], e["source"])
                        for e in _list(data.get("edges", []), "edges")),
            squares=tuple(Square(_list(sq["first"], "square side"),
                                 _list(sq["second"], "square side"))
                          for sq in _list(data.get("squares", []), "squares")),
        )
    except (KeyError, TypeError):  # an entry is not an object or lacks a key
        for what, value, keys in _entries(data):
            if type(value) is not dict:
                raise ParseError(f"{what} must be an object, not {type(value).__name__}") from None
            missing = [key for key in keys if key not in value]
            if missing:
                raise ParseError(f"key {missing[0]!r} is missing in {what}") from None
        raise


def load_graph(path):
    """Read, parse, and validate a graph file.

    The file is read as bytes and decoded as UTF-8 once, which costs less
    than a text-mode read's incremental decoder; a leading byte-order mark
    is cut first, as RFC 8259 allows (utf-8-sig would cost several decodes).
    Text mode's newline translation is kept: only a text that holds a
    carriage return has its CR LF and lone CR line ends turned into LF, so
    the line and column of a JSON error are those a text-mode read gives."""
    with open(path, "rb") as fh:
        raw = fh.read()
    try:
        text = raw.removeprefix(b"\xef\xbb\xbf").decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ParseError(f"invalid graph file {path}: not UTF-8 text") from exc
    if "\r" in text:
        text = text.replace("\r\n", "\n").replace("\r", "\n")
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(
            f"invalid graph file {path}: {exc.msg}", line=exc.lineno, column=exc.colno
        ) from exc
    except RecursionError:
        raise ParseError(f"invalid graph file {path}: nested too deeply") from None
    except ValueError:  # an integer longer than int() converts: a second reading names it
        try:
            data = json.loads(text, parse_int=rings.integer)
        except ParseError as exc:
            raise ParseError(f"invalid graph file {path}: {exc}") from None
    return KGraph.validate(spec_from_dict(data))


def graph_to_dict(g):
    """The graph document of g, the inverse of spec_from_dict (edges sorted by id)."""
    spec = g.spec
    return {
        "k": spec.k,
        "vertices": list(spec.vertices),
        "edges": [dataclasses.asdict(e) for e in spec.edges],
        "squares": [{"first": list(sq.first), "second": list(sq.second)} for sq in spec.squares],
    }
