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


def spec_from_dict(data):
    try:
        k = int(data["k"])
        vertices = tuple(str(v) for v in data["vertices"])
        edges = tuple(
            Edge(
                id=str(e["id"]),
                color=int(e["color"]),
                range=str(e["range"]),
                source=str(e["source"]),
            )
            for e in data.get("edges", [])
        )
        squares = tuple(
            Square(
                first=(str(sq["first"][0]), str(sq["first"][1])),
                second=(str(sq["second"][0]), str(sq["second"][1])),
            )
            for sq in data.get("squares", [])
        )
    except (KeyError, TypeError, ValueError, IndexError, OverflowError) as exc:
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
