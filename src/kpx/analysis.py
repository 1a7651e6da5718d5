"""Structural analysis: aperiodicity, cofinality, and simplicity verdicts.

Verdicts are three-valued; on acyclic graphs every question below is
decided exactly, while on cyclic graphs the procedures are sound searches
that may return "unknown".
"""

from dataclasses import dataclass, fields

from . import boundary, groupoid, rings
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

    Acyclic graphs are aperiodic outright.  On cyclic graphs, a vertex that
    is not tangled carries a single boundary path, its staircase; if that
    path closes a cycle, all of v's boundary is periodic and a kernel
    witness in the style of the one-sided shift argument is produced from
    the first lasso.  The tangled vertices, those that reach a vertex
    receiving two edges of one colour, are one backward walk; those that
    reach a cycle stay unresolved.

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
    tangled = _tangled(g)
    for v, mu, alpha in _lassos(g, tangled | set(g.peel_order())):
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
        note=f"cyclic non-deterministic region at {sorted(tangled - set(g.peel_order()))}",
    )


# ----------------------------------------------------------------------
# cofinality


def check_cofinal(g):
    """Decide whether every vertex can reach every boundary path.

    A boundary path x meets reachable(v) exactly when that set holds its
    tail vertex x.head.source (the source of a finite x, a vertex on the
    cycle of a lasso), since every vertex x visits reaches it.  On acyclic
    graphs the tails are the sinks (vertices that receive no edge), and one
    pass along peel_order records the sinks each vertex reaches; the
    witness is the first vertex, in vertex order, that misses a sink, with
    the first sink it misses (a boundary path that sorts before the longer
    ones).  On cyclic graphs, strong connectivity certifies cofinality, in
    two walks: the first vertex reaches every vertex and every vertex
    reaches it.  Otherwise a lasso mu.alpha of _lassos is a witness when
    some vertex misses reaching([alpha.range]).  If every vertex reaches
    the first tail t, every vertex reaches each vertex of reachable(t), so
    no lasso met from there is a witness, and reachable(t) joins done.  A
    later lasso closes a cycle outside reachable(t), which t misses, so it
    is a witness.  The search thus makes at most two reaching walks and one
    reachable walk; failing a witness, unknown.
    """
    if g.is_acyclic():
        sinks = g.sinks()
        reach = {w: 1 << i for i, w in enumerate(sinks)}  # vertex -> bit i per sinks[i] reached
        for u in g.peel_order():  # after every vertex u reaches; a sink receives no edge
            for eid in g.out_edges(u):
                reach[u] = reach.get(u, 0) | reach[g.edge(eid).source]
        for v in g.vertices:
            if missed := ~reach[v] & (1 << len(sinks)) - 1:
                w = sinks[(missed & -missed).bit_length() - 1]
                return CofinalityVerdict(status="not_cofinal", vertex=v,
                                         path=boundary.finite(g.vertex(w)))
        return CofinalityVerdict(status="cofinal", note="every vertex reaches every sink")
    v0 = g.vertices[0]
    if len(g.reachable(v0)) == len(g.reaching([v0])) == len(g.vertices):
        return CofinalityVerdict(status="cofinal", note="all-pairs reachability")
    done = _tangled(g) | set(g.peel_order())
    for _, mu, alpha in _lassos(g, done):
        reaching = g.reaching([alpha.range])
        for v in g.vertices:
            if v not in reaching:
                return CofinalityVerdict(status="not_cofinal", vertex=v,
                                         path=boundary.lasso(mu, alpha))
        done.update(g.reachable(alpha.range))
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
