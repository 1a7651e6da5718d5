"""Structural analysis: aperiodicity, cofinality, and simplicity verdicts.

Verdicts are three-valued; on acyclic graphs every question below is
decided exactly, while on cyclic graphs the procedures are sound searches
that may return "unknown".
"""

from dataclasses import dataclass

from . import boundary, groupoid
from .rings import QQ


@dataclass(frozen=True)
class AperiodicityVerdict:
    status: str  # "aperiodic" | "periodic" | "unknown"
    vertex: str | None = None
    m: tuple | None = None
    n: tuple | None = None
    witness: tuple | None = None  # (mu, nu, alpha) with mu*alpha*y = nu*alpha*y
    note: str = ""


@dataclass(frozen=True)
class CofinalityVerdict:
    status: str  # "cofinal" | "not_cofinal" | "unknown"
    vertex: str | None = None
    path: object | None = None  # a boundary path unreachable from vertex
    note: str = ""


@dataclass(frozen=True)
class SimplicityReport:
    predicates: dict
    aperiodicity: AperiodicityVerdict
    cofinality: CofinalityVerdict
    ring_is_field: bool
    basically_simple: str  # "yes" | "no" | "unknown"
    simple: str
    dimension: int | None = None


# ----------------------------------------------------------------------
# aperiodicity


def _tangled(g):
    """The vertices that reach a vertex receiving two edges of one colour."""
    return g.reaching([w for w in g.vertices
                       if any(len(g.out_edges(w, c)) > 1 for c in range(1, g.k + 1))])


def _staircase(g, v):
    """Walk from v along the first edge each vertex receives, lowest colour
    first: in a deterministic region, the unique maximal path from v.

    Returns (edges, None) at a dead end, or (prefix, cycle) on the first
    vertex repeat.
    """
    seen = {v: 0}
    edges = []
    while out := g.out_edges(v):
        edges.append(out[0])
        v = g.edge(out[0]).source
        if v in seen:
            return edges[:seen[v]], edges[seen[v]:]
        seen[v] = len(edges)
    return edges, None


def _lassos(g, tangled):
    """Yield (v, mu, alpha), in vertex order, for each vertex v that reaches
    a cycle, is not tangled, and whose staircase mu.alpha closes the cycle
    alpha."""
    peeled = set(g.peel_order())  # the vertices that reach no cycle
    for v in g.vertices:
        if v in peeled or v in tangled:
            continue
        prefix, cycle = _staircase(g, v)
        if cycle is not None:
            yield v, g.path(prefix) if prefix else g.vertex(v), g.path(cycle)


def check_aperiodic(g):
    """Decide whether every vertex ranges an aperiodic boundary path.

    Acyclic graphs are aperiodic outright.  On cyclic graphs, a vertex that
    is not tangled carries a single boundary path, its staircase; if that
    path closes a cycle, all of v's boundary is periodic and a kernel
    witness in the style of the one-sided shift argument is produced.  The
    tangled vertices, those that reach a vertex receiving two edges of one
    colour, are one backward walk; those that reach a cycle stay unresolved.
    """
    if g.is_acyclic():
        return AperiodicityVerdict(status="aperiodic", note="acyclic graph")
    tangled = _tangled(g)
    for v, mu, alpha in _lassos(g, tangled):
        nu = g.compose(mu, alpha)
        return AperiodicityVerdict(
            status="periodic",
            vertex=v,
            m=mu.degree,
            n=nu.degree,
            witness=(mu, nu, alpha),
            note="deterministic region closes a cycle",
        )
    unresolved = tangled - set(g.peel_order())
    if unresolved:
        return AperiodicityVerdict(
            status="unknown",
            note=f"cyclic non-deterministic region at {sorted(unresolved)}",
        )
    return AperiodicityVerdict(status="aperiodic", note="all regions resolve")


# ----------------------------------------------------------------------
# cofinality


def check_cofinal(g):
    """Decide whether every vertex can reach every boundary path.

    A boundary path x meets reachable(v) exactly when that set holds its
    tail vertex x.head.source (the source of a finite x, the cycle base of a
    lasso), since every vertex x visits reaches it.  On acyclic graphs the
    tails are the sinks (vertices that receive no edge).  A sink reaches
    only itself and every vertex reaches some sink, so the graph is cofinal
    iff it has exactly one sink.  Otherwise the witness is the first vertex,
    in vertex order, that misses a sink, with the first sink it misses (a
    boundary path that sorts before the longer ones); the first sink in
    vertex order misses the others, so the search stops there at the latest.
    On cyclic graphs, strong connectivity certifies cofinality, in two walks:
    the first vertex reaches every vertex and every vertex reaches it.
    Otherwise a lasso witness is searched among the staircases of the
    untangled vertices (see check_aperiodic); failing both, unknown.
    """
    if g.is_acyclic():
        sinks = g.sinks()
        if len(sinks) <= 1:
            return CofinalityVerdict(status="cofinal", note="every vertex reaches every sink")
        for v in g.vertices:
            reach = g.reachable(v)
            for w in sinks:
                if w not in reach:
                    return CofinalityVerdict(status="not_cofinal", vertex=v,
                                             path=boundary.finite(g.vertex(w)))
    v0 = g.vertices[0]
    if len(g.reachable(v0)) == len(g.reaching([v0])) == len(g.vertices):
        return CofinalityVerdict(status="cofinal", note="all-pairs reachability")
    for _, head, cycle in _lassos(g, _tangled(g)):
        x = boundary.lasso(head, cycle)
        reaching = g.reaching([x.head.source])
        for v in g.vertices:
            if v not in reaching:
                return CofinalityVerdict(status="not_cofinal", vertex=v, path=x)
    return CofinalityVerdict(
        status="unknown", note="reachability incomplete and no witness found"
    )


# ----------------------------------------------------------------------
# the headline report


# the three-valued answer carried by each verdict status
_ANSWER = {
    "aperiodic": "yes",
    "periodic": "no",
    "cofinal": "yes",
    "not_cofinal": "no",
    "unknown": "unknown",
}


def _meet(a, b):
    if "no" in (a, b):
        return "no"
    if "unknown" in (a, b):
        return "unknown"
    return "yes"


def report(g, ring=QQ):
    aper = check_aperiodic(g)
    cof = check_cofinal(g)
    basic = _meet(_ANSWER[aper.status], _ANSWER[cof.status])
    # by the paper's simplicity theorem KP_R(Lambda) is simple only when R
    # is a field, so over any other ring the answer is "no" even where
    # basic simplicity is unknown
    simple = basic if ring.is_field else "no"
    dim = None
    if g.is_acyclic() and ring.is_field:
        dim = groupoid.dim_over_field(g, ring)
    return SimplicityReport(
        predicates=g.predicates(),
        aperiodicity=aper,
        cofinality=cof,
        ring_is_field=ring.is_field,
        basically_simple=basic,
        simple=simple,
        dimension=dim,
    )
