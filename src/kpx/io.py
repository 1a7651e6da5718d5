"""Loading graph specifications from structured-text (JSON) files.

Format::

    {
      "k": 2,
      "vertices": ["v1", "v2"],
      "edges": [{"id": "e1", "color": 1, "range": "v1", "source": "v2"}],
      "squares": [{"first": ["e1", "f1"], "second": ["f2", "e2"]}]
    }
"""

import json

from .errors import ParseError
from .kgraph import Edge, KGraph, KGraphSpec, Square


def _typed(value, kind, what):
    """value itself, if its JSON type is kind; no float or bool is an int."""
    if not isinstance(value, kind) or isinstance(value, bool):
        raise ParseError(f"{what} must be {kind.__name__}, not {type(value).__name__}")
    return value


def _pair(value, what):
    if len(_typed(value, list, what)) != 2:
        raise ParseError(f"{what} must list two edge ids, not {len(value)}")
    return tuple(_typed(eid, str, what) for eid in value)


def spec_from_dict(data):
    """Build a specification from a parsed graph document, which must use
    JSON integers for k and colors and JSON strings for every id."""
    try:
        k = _typed(data["k"], int, "k")
        vertices = tuple(
            _typed(v, str, "vertex id") for v in _typed(data["vertices"], list, "vertices")
        )
        edges = tuple(
            Edge(
                id=_typed(e["id"], str, "edge id"),
                color=_typed(e["color"], int, "edge color"),
                range=_typed(e["range"], str, "edge range"),
                source=_typed(e["source"], str, "edge source"),
            )
            for e in _typed(data.get("edges", []), list, "edges")
        )
        squares = tuple(
            Square(
                first=_pair(sq["first"], "square side first"),
                second=_pair(sq["second"], "square side second"),
            )
            for sq in _typed(data.get("squares", []), list, "squares")
        )
    except (KeyError, TypeError) as exc:
        raise ParseError(f"malformed graph document: {exc}") from exc
    return KGraphSpec(k=k, vertices=vertices, edges=edges, squares=squares)


def load_graph(path):
    """Read, parse, and validate a graph file."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            text = fh.read()
        except UnicodeDecodeError as exc:
            raise ParseError(f"invalid graph file {path}: not UTF-8 text") from exc
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(
            f"invalid graph file {path}: {exc.msg}", line=exc.lineno, column=exc.colno
        ) from exc
    return KGraph.validate(spec_from_dict(data))


def graph_to_dict(g):
    return {
        "k": g.k,
        "vertices": list(g.vertices),
        "edges": [
            {
                "id": e.id,
                "color": e.color,
                "range": e.range,
                "source": e.source,
            }
            for e in (g.edge(eid) for eid in g.edge_ids())
        ],
        "squares": [
            {"first": list(sq.first), "second": list(sq.second)} for sq in g.squares
        ],
    }
