"""Boundary paths of a finite rank-k graph.

A boundary path is a (possibly infinite) path that meets every finite
exhaustive set based at every vertex it visits.  On acyclic graphs all
boundary paths are finite, and a finite path is one iff its source vertex
receives no edge (is a sink), so they are enumerated exactly: the paths
grow from each sink (``KGraph.paths_to``), and no other path is built.  On
cyclic graphs we support eventually-periodic witnesses ("lassos"): a finite
head followed by a repeated cycle.
"""

from dataclasses import dataclass

from . import degrees
from .errors import DegreeOutOfRange, NotAcyclic, NotComposable
from .kgraph import Path


@dataclass(frozen=True)
class BoundaryPath:
    """A finite boundary path (cycle is None) or a lasso head*cycle^infinity.

    Build through :func:`finite` or :func:`lasso`, which canonicalize.
    """

    head: Path
    cycle: Path | None = None

    @property
    def graph(self):
        return self.head.graph

    @property
    def range(self):
        return self.head.range

    @property
    def is_finite(self):
        return self.cycle is None

    @property
    def source(self):
        if not self.is_finite:
            raise DegreeOutOfRange("an infinite path has no source vertex")
        return self.head.source

    @property
    def degree(self):
        if self.is_finite:
            return self.head.degree
        cd = self.cycle.degree
        return tuple(
            degrees.INF if cd[i] else h for i, h in enumerate(self.head.degree)
        )

    def label(self):
        if self.is_finite:
            return self.head.label()
        return f"{self.head.label()}({self.cycle.label()})^oo"

    def __repr__(self):
        return f"BoundaryPath({self.label()})"

    def sort_key(self):
        return (0 if self.is_finite else 1, self.head.sort_key(),
                self.cycle.sort_key() if self.cycle else ())


def finite(path):
    return BoundaryPath(head=path, cycle=None)


def lasso(head, cycle):
    """An eventually periodic path head*cycle^infinity, canonicalized so the
    cycle is primitive and the head is as short as possible."""
    g = head.graph
    if cycle.is_vertex():
        raise DegreeOutOfRange("lasso cycle must be non-trivial")
    if cycle.range != cycle.source:
        raise NotComposable(f"{cycle!r} is not a cycle")
    if head.source != cycle.range:
        raise NotComposable(f"{head!r} does not compose with {cycle!r}")
    cycle = _primitive_root(cycle)
    # absorb: head*a*(c2*a)^oo == head*(a*c2)^oo
    changed = True
    while changed and not head.is_vertex():
        changed = False
        for i in range(1, g.k + 1):
            ei = degrees.unit(g.k, i)
            if not (head.degree[i - 1] and cycle.degree[i - 1]):
                continue
            h2, a = g.factor(head, degrees.sub(head.degree, ei))
            c2, a2 = g.factor(cycle, degrees.sub(cycle.degree, ei))
            if a == a2:
                head, cycle = h2, g.compose(a, c2)
                changed = True
                break
    return BoundaryPath(head=head, cycle=cycle)


def _primitive_root(cycle):
    """The shortest cycle p with cycle a positive power of p.  q falls, so
    the first p with p^q = cycle has the largest q, and p is primitive: were
    p = s^j with j >= 2, then cycle = s^(jq) with jq <= max d(cycle) dividing
    d(cycle), and the earlier iteration at jq would have returned s."""
    g = cycle.graph
    d = cycle.degree
    n = max(d)
    for q in range(n, 1, -1):
        if any(c % q for c in d):
            continue
        base = tuple(c // q for c in d)
        p, _ = g.factor(cycle, base)
        if p.source != p.range:
            continue
        power = p
        for _ in range(q - 1):
            power = g.compose(power, p)
        if power == cycle:
            return p
    return cycle


# ----------------------------------------------------------------------
# path operations


def _pump(x, n):
    """(head, cycle) of x, the head of a lasso grown by its cycle until its
    degree is >= n; n must be <= d(x)."""
    head, cycle = x.head, x.cycle
    if not degrees.le(n, x.degree):
        raise DegreeOutOfRange(f"{n} exceeds the degree of {x!r}")
    while not degrees.le(n, head.degree):
        head = x.graph.compose(head, cycle)
    return head, cycle


def prefix(x, n):
    """The finite initial segment x(0, n) for finite n <= d(x)."""
    head, _ = _pump(x, n)
    return x.graph.factor(head, n)[0]


def shift(x, n):
    """The shifted path sigma^n x for finite n <= d(x)."""
    head, cycle = _pump(x, n)
    tail = x.graph.factor(head, n)[1]
    return finite(tail) if cycle is None else lasso(tail, cycle)


def prepend(lam, x):
    """The path lam*x; requires s(lam) = r(x)."""
    g = lam.graph
    if lam.source != x.range:
        raise NotComposable(f"{lam!r} does not compose with {x!r}")
    if x.is_finite:
        return finite(g.compose(lam, x.head))
    return lasso(g.compose(lam, x.head), x.cycle)


def has_path_prefix(x, lam):
    """True iff lam is the initial segment of x of degree d(lam)."""
    if x.range != lam.range:
        return False
    if not degrees.le(lam.degree, x.degree):
        return False
    return prefix(x, lam.degree) == lam


# ----------------------------------------------------------------------
# boundary enumeration (acyclic graphs)


def is_boundary_finite(lam):
    """Decide whether a finite path is a boundary path: on an acyclic graph
    it is one iff its source vertex receives no edge.

    Let w = s(lam).  If w receives an edge, E = w Lambda minus {w} is finite
    (the graph is acyclic) and exhaustive, and holds no prefix of the
    trivial tail w, so lam fails the definition at n = d(lam).  If w
    receives no edge and some finite exhaustive E at lam(n) missed the
    tail t = lam(n, d(lam)), then Ext(t; E) would be exhaustive at w
    (Raeburn-Sims-Yeend, J. Funct. Anal. 2004, Appendix C), so it would
    contain w: some member of E prefixes t, a contradiction.
    """
    g = lam.graph
    if not g.is_acyclic():
        raise NotAcyclic("finite boundary membership requires an acyclic graph")
    return not g.out_edges(lam.source)


def enumerate_boundary(g):
    """All boundary paths of an acyclic graph, sorted: the union of the
    orbits.  A finite boundary path sorts like its path."""
    return sorted((x for orbit in orbits(g) for x in orbit), key=BoundaryPath.sort_key)


def orbits(g):
    """Shift-orbits of the boundary of an acyclic graph, one per sink w in
    sorted order, each sorted: x ~ y iff some shifts agree.

    The full shift of a finite boundary path is its source vertex, so the
    orbits are the source classes, and the orbit of w is every path with
    source w (is_boundary_finite).  paths_to grows exactly these from w, in
    normal form, each once.
    """
    if not g.is_acyclic():  # paths_to checks too, but a cyclic graph may have no sink
        raise NotAcyclic("the path category of a cyclic graph is infinite")
    return [[finite(lam) for lam in g.paths_to(w)] for w in g.sinks()]


# ----------------------------------------------------------------------
# the boundary-path representation


def apply_ghost(mu, x):
    """The partial inverse generator: defined when mu prefixes x."""
    if has_path_prefix(x, mu):
        return shift(x, mu.degree)
    return None


def apply_path(lam, x):
    """The creation generator: defined when s(lam) = r(x)."""
    if lam.source != x.range:
        return None
    return prepend(lam, x)


def boundary_rep(a, vec):
    """Apply a span-form element to a free vector over boundary paths."""
    out = {}
    for (lam, mu), coeff in a.items():
        for x, c in vec.items():
            y = apply_ghost(mu, x)
            if y is None:
                continue
            z = prepend(lam, y)  # y is a path at s(mu) = s(lam)
            new = out.get(z, None)
            new = coeff * c if new is None else new + coeff * c
            if new == a.ring.zero:
                out.pop(z, None)
            else:
                out[z] = new
    return out
