"""Structural analysis: aperiodicity, cofinality, and simplicity verdicts.

Cofinality is decided exactly on every finite graph.  Aperiodicity is
decided exactly on acyclic graphs; on cyclic graphs its search may return
"unknown", the one source of an unknown verdict.
"""

from dataclasses import dataclass, fields

from . import groupoid, rings
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
    status: str  # "cofinal" | "not_cofinal"
    vertex: str | None = None
    within: tuple | None = None  # vertices that vertex misses, which a boundary path never leaves


@dataclass(frozen=True)
class SimplicityReport:
    predicates: dict
    aperiodicity: AperiodicityVerdict
    cofinality: CofinalityVerdict
    ring_is_field: bool
    basically_simple: str  # "yes" | "no" | "unknown"
    simple: str
    dimension: int | None = None

    def __repr__(self):
        # the generated repr, but with the dimension, the last field, written
        # by rings.text, as repr() refuses an int past the digit limit
        head = ", ".join(f"{f.name}={getattr(self, f.name)!r}" for f in fields(self)[:-1])
        return f"SimplicityReport({head}, dimension={rings.text(self.dimension)})"


# ----------------------------------------------------------------------
# aperiodicity


def _tangled(g):
    """The vertices that reach a vertex receiving two edges of one colour."""
    return g.reaching([w for w in g.vertices
                       if any(len(g.out_edges(w, c)) > 1 for c in range(1, g.k + 1))])


def _lassos(g, done):
    """Yield (v, mu, alpha), in vertex order, for each vertex v not in done
    (at first the tangled and peeled ones) whose staircase mu.alpha, the
    first edge each vertex receives, lowest colour first, closes the cycle
    alpha.  Each vertex walked joins done; a walk that reaches done ends as
    the walk of that vertex did, so it yields nothing."""
    for start in g.vertices:
        at, edges, v = {}, [], start  # at: vertex -> the edges walked before it
        while v not in done:
            at[v] = len(edges)
            done.add(v)
            edges.append(g.out_edges(v)[0])
            v = g.edge(edges[-1]).source
        if v in at:
            cut = at[v]
            yield start, g.path(edges[:cut]) if cut else g.vertex(start), g.path(edges[cut:])


def check_aperiodic(g):
    """Decide whether every vertex ranges an aperiodic boundary path.

    Acyclic graphs are aperiodic outright.  On cyclic graphs, the first
    lasso of _lassos, the staircase of a vertex that is not tangled, gives
    the periodic verdict (v, m, n), with a kernel witness in the style of
    the one-sided shift argument.  Nothing checks that the lasso is a
    boundary path, and an untangled vertex can carry other boundary paths
    (the staircase may skip a colour that an exhaustive set forces, and off
    local convexity v may receive two colours from two loops), so the
    certificate is not proved to hold at v.  The tangled vertices, those
    that reach a vertex receiving two edges of one colour, are one backward
    walk; those that reach a cycle stay unresolved.

    On a cyclic graph the answer is never "aperiodic": say no vertex that
    reaches a cycle is tangled, take a cycle w_0 ... w_n = w_0 (g_i from
    w_{i+1} into w_i) and c the lowest colour w_0 receives.  If w_{i+1}
    receives a colour-c edge h, w_i does too (g_i, or the square of g_i.h),
    and no lower one (it would pass back to w_0), so each w_i receives one
    colour-c edge h_i, and that square (or h_{i+1} if g_i = h_i) runs from
    s(h_i) to s(h_{i+1}).  So the staircase sends cycle vertices to cycle
    vertices, and the first walk to meet one closes a lasso.
    """
    if g.is_acyclic():
        return AperiodicityVerdict(status="aperiodic", note="acyclic graph")
    tangled, peeled = _tangled(g), set(g.peel_order())
    for v, mu, alpha in _lassos(g, tangled | peeled):
        nu = g.compose(mu, alpha)
        return AperiodicityVerdict(
            status="periodic",
            vertex=v,
            m=mu.degree,
            n=nu.degree,
            witness=(mu, nu, alpha),
            note="deterministic region closes a cycle",
        )
    return AperiodicityVerdict(
        status="unknown",
        note=f"cyclic non-deterministic region at {sorted(tangled - peeled)}",
    )


# ----------------------------------------------------------------------
# cofinality


def check_cofinal(g):
    """Decide whether every vertex reaches every boundary path.

    For H closed under sources, every boundary path at v meets H iff v is in
    T*(H) (KGraph.t_star): boundary paths meet every finite exhaustive set
    (Farthing-Muhly-Yeend 2005), and v's boundary is compact (compare
    Lewin-Sims 2010).  Each reachable(w) holds a terminal component, so the
    graph is cofinal iff it has exactly one, C, and T*(C) is every vertex.
    Otherwise the verdict names w in the first terminal component and the
    vertices, in vertex order, of a second one or those outside T*(C): w
    reaches none, and some boundary path never leaves them.
    """
    terminal = g.terminal_components()
    if len(terminal) > 1:
        return CofinalityVerdict(status="not_cofinal", vertex=terminal[0][0], within=terminal[1])
    joined = g.t_star(set(*terminal))  # empty for the graph with no vertex
    if within := tuple(v for v in g.vertices if v not in joined):
        return CofinalityVerdict(status="not_cofinal", vertex=terminal[0][0], within=within)
    return CofinalityVerdict(status="cofinal")


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
