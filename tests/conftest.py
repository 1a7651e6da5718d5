"""Shared fixtures and independent brute-force oracles.

The oracles here deliberately avoid the library's clever code paths: they
work from raw definitions (enumerate all paths, check all cases) so the
fast implementations can be gated against them.
"""

import collections
import contextlib
import dataclasses
import functools
import itertools
import random
import signal

import pytest

from kpx import boundary as bnd
from kpx import groupoid as gpd
from kpx import presets
from kpx.analysis import AperiodicityVerdict
from kpx.algebra import GhostSym, PathSym, SpanForm, generator, kp4_defect, multiply
from kpx.errors import DegreeOutOfRange, NotAcyclic, NotComposable
from kpx.degrees import diff, join, le, sub
from kpx.kgraph import Edge, KGraph, KGraphSpec, Square, omega_graph


@pytest.fixture(scope="session")
def lambda2():
    return presets.lambda2()


@pytest.fixture(scope="session")
def loop():
    return presets.single_loop()


@pytest.fixture(scope="session")
def omega13():
    return omega_graph((3,))


@pytest.fixture(scope="session")
def omega211():
    return omega_graph((1, 1))


@pytest.fixture(scope="session")
def omega3111():
    return omega_graph((1, 1, 1))


@pytest.fixture(scope="session")
def cloops():
    return presets.commuting_loops(3)


@pytest.fixture(scope="session")
def point():
    return presets.single_vertex(2)


@pytest.fixture(scope="session")
def twodots():
    return presets.two_isolated_vertices()


ACYCLIC_BUILDERS = {
    "lambda2": presets.lambda2,
    "omega13": lambda: omega_graph((3,)),
    "omega211": lambda: omega_graph((1, 1)),
    "point": lambda: presets.single_vertex(2),
    "twodots": presets.two_isolated_vertices,
    "omega3111": lambda: omega_graph((1, 1, 1)),
}
ACYCLIC_NAMES = list(ACYCLIC_BUILDERS)


@pytest.fixture(scope="session", params=ACYCLIC_NAMES)
def acyclic_graph(request):
    return ACYCLIC_BUILDERS[request.param]()


def downset_graph(generators):
    """The sub-k-graph of the lattice N^k spanned by the points below some
    generator: a vertex per point, a colour-i edge from p to p + e_i when
    both are points, and every unit square the set holds.  Each box between
    two points lies in the set, so this is always a valid acyclic k-graph;
    it is locally convex only when the set is a box."""
    k = len(generators[0])
    points = sorted({p for top in generators for p in below(top)})
    inside = set(points)

    def name(p):
        return ",".join(str(c) for c in p)

    def step(p, i):
        return tuple(c + (j == i) for j, c in enumerate(p))

    def eid(p, i):
        return f"{name(p)}>{name(step(p, i))}"

    edges = [
        Edge(id=eid(p, i), color=i + 1, range=name(p), source=name(step(p, i)))
        for p in points
        for i in range(k)
        if step(p, i) in inside
    ]
    squares = [
        Square(first=(eid(p, i), eid(step(p, i), j)),
               second=(eid(p, j), eid(step(p, j), i)))
        for p in points
        for i in range(k)
        for j in range(i + 1, k)
        if step(step(p, i), j) in inside
    ]
    spec = KGraphSpec(k=k, vertices=tuple(name(p) for p in points),
                      edges=tuple(edges), squares=tuple(squares))
    return KGraph.validate(spec)


# generators of down-set graphs small enough for boundary_oracle (at most
# 12 paths at any vertex); none of them is locally convex
DOWNSET_GENERATORS = {
    "ds20_01": ((2, 0), (0, 1)),
    "ds31_12": ((3, 1), (1, 2)),
    "ds100_011": ((1, 0, 0), (0, 1, 1)),
}


@pytest.fixture(scope="session", params=sorted(DOWNSET_GENERATORS))
def downset(request):
    return downset_graph(DOWNSET_GENERATORS[request.param])


def two_squares_graph():
    """A 2-graph where e and f have two minimal common extensions: e.f1 =
    f.e1 and e.f2 = f.e2.  Every other graph here has at most one, so this
    is the one whose products split a term in two."""
    spec = KGraphSpec(
        k=2,
        vertices=("v", "u1", "u2", "w1", "w2"),
        edges=(
            Edge("e", 1, "v", "u1"),
            Edge("f", 2, "v", "u2"),
            Edge("e1", 1, "u2", "w1"),
            Edge("e2", 1, "u2", "w2"),
            Edge("f1", 2, "u1", "w1"),
            Edge("f2", 2, "u1", "w2"),
        ),
        squares=(
            Square(first=("e", "f1"), second=("f", "e1")),
            Square(first=("e", "f2"), second=("f", "e2")),
        ),
    )
    return KGraph.validate(spec)


def rank3_loops_graph():
    """One vertex with a color-1 loop e, two color-2 loops f1, f2 and a
    color-3 loop g, where any two loops of different colors commute: a
    cyclic rank-3 graph."""
    edges = (Edge("e", 1, "v", "v"), Edge("f1", 2, "v", "v"),
             Edge("f2", 2, "v", "v"), Edge("g", 3, "v", "v"))
    squares = tuple(Square(first=(a.id, b.id), second=(b.id, a.id))
                    for a in edges for b in edges if a.color < b.color)
    return KGraph.validate(KGraphSpec(k=3, vertices=("v",), edges=edges, squares=squares))


# every graph the oracle gates run on: the acyclic fixtures, the down-set
# graphs and a graph with two minimal common extensions, all acyclic, and
# three cyclic graphs
ACYCLIC_ORACLE_GRAPHS = {
    **ACYCLIC_BUILDERS,
    **{name: (lambda gens=gens: downset_graph(gens))
       for name, gens in DOWNSET_GENERATORS.items()},
    "twosquares": two_squares_graph,
}
ORACLE_GRAPHS = {
    **ACYCLIC_ORACLE_GRAPHS,
    "loop": presets.single_loop,
    "cloops": lambda: presets.commuting_loops(3),
    "cloops3": rank3_loops_graph,
}


def one_graph(vertices, arrows):
    """The 1-graph on vertices with an edge e<i> from range a to source b
    for the i-th pair (a, b) of arrows: a reaches b."""
    edges = tuple(Edge(f"e{i}", 1, a, b) for i, (a, b) in enumerate(arrows))
    return KGraph(KGraphSpec(k=1, vertices=tuple(vertices), edges=edges, squares=()))


def random_one_graph(seed):
    """A seeded random 1-graph on 1 to 7 vertices listed in random order,
    with up to 9 edges, parallel edges and loops allowed.  Odd seeds give
    acyclic graphs (every edge runs from a lower to a higher name); even
    seeds may have cycles."""
    rng = random.Random(seed)
    names = [f"v{i}" for i in range(rng.randint(1, 7))]
    arrows = []
    for _ in range(rng.randint(0, 9)):
        a, b = rng.choice(names), rng.choice(names)
        if seed % 2:
            if a == b:
                continue
            a, b = min(a, b), max(a, b)
        arrows.append((a, b))
    rng.shuffle(names)
    return one_graph(names, arrows)


def product_graph(a, b):
    """The rank-2 product of the 1-graphs a and b: a vertex u*w per pair, a
    colour-1 edge e*w for each edge e of a and vertex w of b, a colour-2
    edge u*f for each vertex u of a and edge f of b, and a square for each
    pair (e, f).  Edge ids of a and b must differ from their vertex ids."""
    def e1(e, w):
        return Edge(f"{e.id}*{w}", 1, f"{e.range}*{w}", f"{e.source}*{w}")

    def e2(u, f):
        return Edge(f"{u}*{f.id}", 2, f"{u}*{f.range}", f"{u}*{f.source}")

    ea, eb = a.spec.edges, b.spec.edges
    vertices = tuple(f"{u}*{w}" for u in a.vertices for w in b.vertices)
    edges = [e1(e, w) for e in ea for w in b.vertices] + [e2(u, f) for f in eb for u in a.vertices]
    squares = [Square(first=(e1(e, f.range).id, e2(e.source, f).id),
                      second=(e2(e.range, f).id, e1(e, f.source).id))
               for e in ea for f in eb]
    return KGraph(KGraphSpec(k=2, vertices=vertices, edges=tuple(edges), squares=tuple(squares)))


def two_loops_joined():
    """Two vertices a and b with colour-1 loops e at a and g at b, and f of
    colour 2 from b into a, with e.f = f.g."""
    return KGraph(KGraphSpec(2, ("a", "b"), (Edge("e", 1, "a", "a"), Edge("g", 1, "b", "b"),
                                             Edge("f", 2, "a", "b")),
                             (Square(("e", "f"), ("f", "g")),)))


def random_two_graph(seed):
    """A seeded random 2-graph that need not be a product.  A 2-coloured
    skeleton on 2 to 4 vertices with 1 to 6 edges (e<i> of colour 1, f<i>
    of colour 2, loops and parallel edges allowed) is drawn again until
    each (u, w) block, the bicoloured paths from range u to source w, holds
    as many colour-(1, 2) words as colour-(2, 1) words; a random bijection
    per block gives the squares.  For k = 2 any such choice is a 2-graph
    (Kumjian-Pask, NYJM 2000)."""
    rng = random.Random(seed)
    while True:
        names = [f"v{i}" for i in range(rng.randint(2, 4))]
        edges = []
        for i in range(rng.randint(1, 6)):
            c = rng.randint(1, 2)
            edges.append(Edge(f"{'ef'[c - 1]}{i}", c, rng.choice(names), rng.choice(names)))
        blocks = {}  # (u, w) -> ([(1, 2) words], [(2, 1) words])
        for a in edges:
            for b in edges:
                if a.source == b.range and a.color != b.color:
                    words = blocks.setdefault((a.range, b.source), ([], []))
                    words[a.color - 1].append((a.id, b.id))
        if all(len(lo) == len(hi) for lo, hi in blocks.values()):
            break
    squares = []
    for lo, hi in blocks.values():
        rng.shuffle(hi)
        squares += [Square(first, second) for first, second in zip(lo, hi)]
    return KGraph(KGraphSpec(2, tuple(names), tuple(edges), tuple(squares)))


# the seeds below 40 whose draw is acyclic, for the oracles that enumerate the
# groupoid or every path; no acyclic draw below 600 has a square, so the
# products below are the acyclic family with squares
RANDOM_ACYCLIC_SEEDS = [s for s in range(40) if random_two_graph(s).is_acyclic()]


def random_acyclic_factors(seed):
    """Two acyclic random_one_graphs (odd seeds), each drawn again until it
    has an edge."""
    rng = random.Random(f"product {seed}")
    factors = []
    while len(factors) < 2:
        g = random_one_graph(2 * rng.randrange(100) + 1)
        if g.spec.edges:
            factors.append(g)
    return factors


def random_acyclic_product(seed):
    """A seeded acyclic 2-graph with squares: the product of the two
    random_acyclic_factors, so that every pair of their edges spans a
    commuting square."""
    return product_graph(*random_acyclic_factors(seed))


RANDOM_PRODUCT_SEEDS = range(6)

# rank-2 products of seeded random 1-graphs with cycles (even seeds), the
# shape of the cyclic-queries benchmark graphs
PRODUCT_GRAPHS = {
    f"product{seed}": lambda seed=seed: product_graph(random_one_graph(seed),
                                                      random_one_graph(seed + 100))
    for seed in range(2, 12, 2)
}


# two disjoint loops, and a chain that runs into a loop with a sink s off
# its first vertex
CYCLE_GRAPHS = {
    "twoloops": lambda: one_graph("ab", [("a", "a"), ("b", "b")]),
    "chain_to_loop": lambda: one_graph("abcds", [("a", "b"), ("b", "c"), ("c", "d"),
                                                 ("d", "d"), ("a", "s")]),
}


class Hung(BaseException):
    """A guarded call ran out of time.  Not an Exception, so no catch-all in
    the code under test (such as the CLI's internal-error handler) can turn a
    hang into an ordinary failure."""


@contextlib.contextmanager
def within(seconds, what):
    """Raise Hung if the body runs longer than seconds (SIGALRM, main thread)."""
    def too_slow(signum, frame):
        raise Hung(f"{what} did not finish within {seconds} s")

    old = signal.signal(signal.SIGALRM, too_slow)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, old)


# ---------------------------------------------------------------- oracles


def paths_oracle(g, v, n):
    """Every path with range v and degree <= n, sorted: a search that
    appends one edge at a time through compose, so it shares no code with
    the library's enumerator.  The degree bound keeps it finite on cyclic
    graphs."""
    found = set()
    queue = [g.vertex(v)]
    while queue:
        lam = queue.pop()
        if lam in found or not le(lam.degree, n):
            continue
        found.add(lam)
        for eid in g.out_edges(lam.source):
            queue.append(g.compose(lam, g.path([eid])))
    return sorted(found, key=lambda p: p.sort_key())


def compose_oracle(g, lam, mu):
    """The normal-form word of lam*mu from the definition: concatenate the
    two words, then find by brute force every word that rewriting one
    adjacent bicoloured pair by a square, either side to the other, reaches.
    By unique factorization that class holds exactly one colour-sorted
    word, which is returned.  It reads only the raw squares and edge
    colours, so it shares no code with the library's rewriting."""
    assert lam.source == mu.range, (lam, mu)
    swap, colour = _rewrites(g)
    start = lam.edges + mu.edges
    seen, stack = {start}, [start]
    while stack:
        w = stack.pop()
        for i in range(len(w) - 1):
            other = swap.get(w[i:i + 2])
            if other is not None and (nxt := w[:i] + other + w[i + 2:]) not in seen:
                seen.add(nxt)
                stack.append(nxt)
    (word,) = [w for w in seen if all(colour[a] <= colour[b] for a, b in zip(w, w[1:]))]
    return word


@functools.cache
def _rewrites(g):
    """The square rewrites of g, each side to the other, and the edge colours."""
    swap = {}
    for sq in g.squares:
        swap[sq.first], swap[sq.second] = sq.second, sq.first
    return swap, {e.id: e.color for e in g.spec.edges}


def coverage_oracle(spec):
    """The first composable bicoloured edge pair (a, b) of spec, in spec
    order of a and then of b, that no square side lists, as a pair of ids;
    None if every such pair is listed.  Brute force over all pairs of
    edges, so it shares no code with the constructor's count."""
    sides = {side for sq in spec.squares for side in (sq.first, sq.second)}
    for a in spec.edges:
        for b in spec.edges:
            if a.source == b.range and a.color != b.color and (a.id, b.id) not in sides:
                return (a.id, b.id)
    return None


def reach_oracle(g):
    """Reachability from the definition: after[v] is the set of vertices v
    reaches through at least one edge, a fixpoint over the raw edge list,
    and v reaches a cycle iff some vertex of {v} | after[v] is in its own
    set.  Returns (after, the set of vertices that reach a cycle)."""
    after = {v: set() for v in g.vertices}
    for e in g.spec.edges:
        after[e.range].add(e.source)
    changed = True
    while changed:
        changed = False
        for v in g.vertices:
            more = set().union(*(after[w] for w in after[v]))
            if not more <= after[v]:
                after[v] |= more
                changed = True
    cyclic = {v for v in g.vertices if any(w in after[w] for w in after[v] | {v})}
    return after, cyclic


def aperiodicity_oracle(g):
    """check_aperiodic from reach_oracle and the raw edge list.  A vertex
    is deterministic iff no vertex of {v} | after[v] receives two edges of
    one colour; its staircase follows the first edge by (colour, id) that
    each vertex receives.  A lasso is the staircase of a deterministic
    vertex that reaches a cycle, when it closes one; the first lasso in
    vertex order makes the graph periodic."""
    after, cyclic = reach_oracle(g)
    reach = {v: after[v] | {v} for v in g.vertices}
    edges = sorted(g.spec.edges, key=lambda e: (e.color, e.id))
    received = collections.Counter((e.range, e.color) for e in edges)
    branching = {v for (v, _), n in received.items() if n > 1}
    first = {}
    for e in edges:
        first.setdefault(e.range, e)

    def lasso(start):
        word, seen, v = [], {start: 0}, start
        while v in first:
            word.append(first[v].id)
            v = first[v].source
            if v in seen:
                prefix, cycle = word[:seen[v]], word[seen[v]:]
                return g.path(prefix) if prefix else g.vertex(start), g.path(cycle)
            seen[v] = len(word)
        return None

    lassos = []
    for v in g.vertices:
        if v in cyclic and not reach[v] & branching and (found := lasso(v)):
            lassos.append((v, found))
    if not cyclic:
        return AperiodicityVerdict(status="aperiodic", note="acyclic graph")
    if lassos:
        v, (mu, alpha) = lassos[0]
        nu = g.compose(mu, alpha)
        return AperiodicityVerdict(status="periodic", vertex=v, m=mu.degree, n=nu.degree,
                                   witness=(mu, nu, alpha),
                                   note="deterministic region closes a cycle")
    if unresolved := sorted(v for v in cyclic if reach[v] & branching):
        return AperiodicityVerdict(status="unknown",
                                   note=f"cyclic non-deterministic region at {unresolved}")
    return AperiodicityVerdict(status="aperiodic", note="all regions resolve")


# ----------------------------------------------------------------------
# cofinality references, which share no code with kpx.analysis
#
# Lemma.  For a vertex set H closed under sources (s(lam) in H whenever
# r(lam) is), let T*(H) be the least set that holds H and each vertex v at
# which the edges whose source lies in the set form a non-empty exhaustive
# set.  Every boundary path at v meets H iff v is in T*(H).  A boundary path
# meets each finite exhaustive set at each vertex it visits
# (Farthing-Muhly-Yeend 2005), which gives the "if" by induction on the stage
# at which v joins; for the "only if", v's boundary is compact, so finitely
# many cylinders Z(lam_j) with s(lam_j) in H cover it, and induction on the
# join of their degrees, through Ext (Raeburn-Sims-Yeend 2004), gives the
# stages.  Every reachable set is closed under sources, so a graph is
# cofinal iff T*(reachable(w)) is every vertex for every vertex w.


def received_edges(g, v, sources):
    """The one-edge paths at v whose source lies in sources."""
    return [g.path([e.id]) for e in g.spec.edges if e.range == v and e.source in sources]


def t_star_oracle(g, H):
    """T*(H) by brute force: each round tests every vertex outside the set
    and adds those at which the edges from the set form a non-empty
    exhaustive set, until a round adds none.  witness_oracle tests
    exhaustiveness, as exhaustive_oracle enumerates every path at a vertex
    and so holds only on acyclic graphs."""
    joined = set(H)
    while more := {v for v in g.vertices if v not in joined
                   and (E := received_edges(g, v, joined)) and witness_oracle(g, v, E) is None}:
        joined |= more
    return joined


def cofinal_oracle(g):
    """Cofinality by the lemma: T*(reachable(w)) is every vertex, for every
    vertex w, with reachability from reach_oracle."""
    after, _ = reach_oracle(g)
    return all(t_star_oracle(g, after[w] | {w}) == set(g.vertices) for w in g.vertices)


def refutes_cofinality(g, w, within):
    """Whether (w, within) certifies that g is not cofinal: within is a
    non-empty vertex set that w does not reach, and at each of its vertices
    the edges from outside it form no non-empty exhaustive set.  Then the
    rest of the graph holds reachable(w) and is closed under T*'s rule, so
    it holds T*(reachable(w)), and by the lemma each vertex of within
    carries a boundary path that w misses."""
    after, _ = reach_oracle(g)
    K = set(within)
    outside = set(g.vertices) - K
    return bool(K) and not K & (after[w] | {w}) and all(
        not (E := received_edges(g, v, outside)) or witness_oracle(g, v, E) is not None
        for v in K)


def one_graph_cofinal(g):
    """The 1-graph rule: a finite 1-graph is cofinal iff every vertex
    reaches every vertex that receives no edge and every vertex on a cycle.

    The boundary paths of a row-finite 1-graph are its infinite paths and
    its finite paths whose source receives no edge.  If every vertex reaches
    each such source and each vertex on a cycle, it meets every boundary
    path: a finite one ends at such a source, and an infinite one visits
    some vertex infinitely often, which lies on a cycle.  Conversely, a
    vertex that misses a vertex s receiving no edge misses the boundary path
    s, and one that misses a vertex c on a cycle misses the infinite path
    round that cycle from c, as each vertex of that path reaches c."""
    after, _ = reach_oracle(g)
    tails = {v for v in g.vertices if not after[v] or v in after[v]}
    return all(tails <= after[v] | {v} for v in g.vertices)


def product_cofinal(a, b):
    """The factor rule: product_graph(a, b) of two 1-graphs is cofinal iff
    a and b are.

    The product is locally convex: an edge e*w and an edge u*f at u*w give
    the edge s(e)*f at s(e*w).  So its boundary paths are the paths x with
    no edge of colour i at x(n) whenever n <= d(x) and n_i = d(x)_i
    (Raeburn-Sims-Yeend 2003), which are the pairs of boundary paths of the
    factors, and a vertex u*w reaches a vertex of the pair (x, y) iff u
    reaches a vertex of x and w one of y.  Every vertex of a finite graph
    carries a boundary path, so a failing pair in one factor gives one in
    the product, whatever the vertex and path taken in the other."""
    return one_graph_cofinal(a) and one_graph_cofinal(b)


def sourceless_shape(shape):
    """The two-vertex 1-graph number shape (0..15) in which both vertices
    receive an edge: e0 from a source into a, e1 from a source into b and
    one more edge e2, the four sources and ends read off shape's four
    bits.  So the graph is cyclic and every vertex receives an edge."""
    bits = ["ab"[(shape >> i) & 1] for i in range(4)]
    return one_graph("ab", [("a", bits[0]), ("b", bits[1]), (bits[2], bits[3])])


def reduce_oracle(ring, weighted_words):
    """Generator words to span form by a stack machine of rewrites, which
    shares no code with the library's product rule: adjacent path symbols
    compose (or annihilate), adjacent ghost symbols compose contravariantly,
    and a ghost followed by a path symbol expands through minimal common
    extensions."""
    out = SpanForm(ring)
    stack = [(coeff, list(word)) for coeff, word in weighted_words]
    while stack:
        coeff, word = stack.pop()
        if coeff == ring.zero:
            continue
        if not word:
            raise NotComposable("empty generator word")
        g = word[0].path.graph
        # ghosts of vertices are plain vertex idempotents
        word = [
            PathSym(f.path) if isinstance(f, GhostSym) and f.path.is_vertex() else f
            for f in word
        ]
        rewritten = False
        for i in range(len(word) - 1):
            a, b = word[i], word[i + 1]
            if isinstance(a, PathSym) and isinstance(b, PathSym):
                if a.path.source != b.path.range:
                    rewritten = True  # orthogonal: the whole word is zero
                    word = None
                    break
                word[i : i + 2] = [PathSym(g.compose(a.path, b.path))]
                stack.append((coeff, word))
                rewritten = True
                break
            if isinstance(a, GhostSym) and isinstance(b, GhostSym):
                if b.path.source != a.path.range:
                    rewritten = True
                    word = None
                    break
                word[i : i + 2] = [GhostSym(g.compose(b.path, a.path))]
                stack.append((coeff, word))
                rewritten = True
                break
            if isinstance(a, GhostSym) and isinstance(b, PathSym):
                pairs = mce_pairs_oracle(g, a.path, b.path)
                for rho, tau in pairs:
                    expansion = []
                    if not rho.is_vertex():
                        expansion.append(PathSym(rho))
                    if not tau.is_vertex():
                        expansion.append(GhostSym(tau))
                    if not expansion:
                        expansion = [PathSym(g.vertex(a.path.source))]
                    stack.append((coeff, word[:i] + expansion + word[i + 2 :]))
                rewritten = True
                word = None
                break
        if rewritten:
            continue
        # now: zero or more path symbols followed by ghost symbols;
        # after fusion the word is one of s_lam, g_mu, or s_lam g_mu
        if word is None:
            continue
        paths = [f for f in word if isinstance(f, PathSym)]
        ghosts = [f for f in word if isinstance(f, GhostSym)]
        assert len(paths) <= 1 and len(ghosts) <= 1
        if paths and ghosts:
            lam, mu = paths[0].path, ghosts[0].path
            if lam.source != mu.source:
                continue  # orthogonal vertex idempotents in the middle
        elif paths:
            lam = paths[0].path
            mu = g.vertex(lam.source)
        else:
            mu = ghosts[0].path
            lam = g.vertex(mu.source)
        out._add_term((lam, mu), coeff)
    return out


def multiply_oracle(a, b):
    """The product of two span forms by a double loop over every pair of
    terms, whatever their ranges: s_lam s_mu^* . s_rho s_tau^* is the sum of
    s_(lam m) s_(tau r)^* over the common extensions mu m = rho r that
    mce_oracle finds, with m and r read off by composing."""
    out = SpanForm(a.ring)
    for (lam, mu), r in a._terms.items():
        g = lam.graph
        for (rho, tau), s in b._terms.items():
            for p in mce_oracle(g, mu, rho):
                out._add_term((g.compose(lam, _tail(g, p, mu)),
                               g.compose(tau, _tail(g, p, rho))), r * s)
    return out


@functools.cache
def _tail(g, p, head):
    """The one path q with head.q = p."""
    gap = sub(p.degree, head.degree)
    (q,) = [q for q in paths_oracle(g, head.source, gap)
            if q.degree == gap and g.compose(head, q) == p]
    return q


@functools.cache
def mce_oracle(g, lam, mu):
    """Minimal common extensions straight from the definition: the paths of
    degree d(lam) v d(mu) that extend both lam and mu, where the paths that
    extend p are p composed with each path of the remaining degree that
    paths_oracle finds.  Cached, as boundary_oracle asks it again and again;
    the key holds the graph itself, as paths of two graphs can be equal."""
    if lam.range != mu.range:
        return frozenset()
    d = join(lam.degree, mu.degree)

    def extensions(p):
        gap = sub(d, p.degree)
        return {g.compose(p, rho) for rho in paths_oracle(g, p.source, gap)
                if rho.degree == gap}

    return frozenset(extensions(lam) & extensions(mu))


def mce_pairs_oracle(g, lam, mu):
    """The pairs (rho, tau) with lam*rho = mu*tau = p for each p that
    mce_oracle finds, each tail read off by _tail: what
    minimal_common_extensions returns, with no move table or walk."""
    return frozenset((_tail(g, p, lam), _tail(g, p, mu)) for p in mce_oracle(g, lam, mu))


def exhaustive_oracle(g, v, paths):
    """Definition of exhaustive: every path from v has a common extension
    with some member.  Returns the first path that has none, or None.
    Exact on acyclic graphs (finite path set)."""
    for lam in sorted(g.paths_at(v), key=lambda p: p.sort_key()):
        if not any(mce_oracle(g, lam, mu) for mu in paths):
            return lam
    return None


def exhaustive_oracle_bool(g, v, paths):
    return exhaustive_oracle(g, v, paths) is None


def witness_oracle(g, v, E):
    """The exhaustiveness search without move tables: a breadth-first
    search over (vertex, obligation set) states whose successor along each
    edge a, in out_edges order, is Ext(a; S), the tails past a of the
    minimal common extensions that mce_oracle finds for a and each
    obligation.  Returns the lexicographically first of the shortest
    witnesses, or None.  Unlike exhaustive_oracle it is exact on cyclic
    graphs too."""
    start = (v, frozenset(E))
    parent = {start: None}  # state -> (previous state, edge id)
    queue = collections.deque([start])
    while queue:
        state = queue.popleft()
        w, S = state
        if not S:
            word = []
            while parent[state] is not None:
                state, eid = parent[state]
                word.append(eid)
            return g.path(word[::-1]) if word else g.vertex(v)
        if any(p.is_vertex() for p in S):
            continue
        for eid in g.out_edges(w):
            a = g.path([eid])
            nxt = (a.source, frozenset(rho for mu in S for rho, _ in mce_pairs_oracle(g, a, mu)))
            if nxt not in parent:
                parent[nxt] = (state, eid)
                queue.append(nxt)
    return None


def boundary_oracle(g, lam):
    """A finite path is a boundary path iff for every exhaustive finite set E
    at any of its vertices lam(n), some member of E is picked up by the tail.
    Exact on acyclic graphs; sweeps every finite set of paths at the vertex."""
    for n_idx in below(lam.degree):
        v = g.vertex_at(lam, n_idx)
        tail = g.segment(lam, n_idx, lam.degree)
        pool = sorted(g.paths_at(v), key=lambda p: p.sort_key())
        for size in range(1, len(pool) + 1):
            for combo in itertools.combinations(pool, size):
                if not exhaustive_oracle_bool(g, v, combo):
                    continue
                if not any(g.has_prefix(tail, mu) for mu in combo if le(mu.degree, tail.degree)):
                    return False
        # only minimal exhaustive sets matter; one full sweep per vertex
    return True


def below(n):
    """All degrees m with 0 <= m <= n, in lexicographic order."""
    return itertools.product(*(range(c + 1) for c in n))


def eval_span_on_boundary(g, a, basis=None):
    """Matrix of the boundary-path representation of a span-form element,
    as a dict mapping basis path -> image vector."""
    if basis is None:
        basis = bnd.enumerate_boundary(g)
    return {x: bnd.boundary_rep(a, {x: a.ring.one}) for x in basis}


def random_span(g, ring, rng, npaths=None, nterms=3):
    """Random span-form element with source-matched pairs."""
    if npaths is None:
        npaths = list(g.all_paths())
    by_source = {}
    for p in npaths:
        by_source.setdefault(p.source, []).append(p)
    a = SpanForm(ring)
    for _ in range(nterms):
        lam = rng.choice(npaths)
        mu = rng.choice(by_source[lam.source])
        c = ring.from_int(rng.randint(-3, 3))
        if c != ring.zero:
            a = a + SpanForm(ring, {(lam, mu): c})
    return a


def random_cell(g, rng, npaths=None, max_avoid=2):
    if npaths is None:
        npaths = list(g.all_paths())
    by_source = {}
    for p in npaths:
        by_source.setdefault(p.source, []).append(p)
    for _ in range(200):
        lam = rng.choice(npaths)
        mu = rng.choice(by_source[lam.source])
        exts = [p for p in g.paths_at(lam.source) if not p.is_vertex()]
        navoid = rng.randint(0, min(max_avoid, len(exts)))
        avoid = rng.sample(exts, navoid) if navoid else []
        cell = gpd.make_cell(lam, mu, avoid)
        if cell is not None:
            return cell
    raise RuntimeError("could not build a nonempty cell")


def periodicity_kernel(ring, verdict):
    """The non-zero element that a periodic verdict's witness (mu, nu, alpha)
    gives, annihilated by the boundary representation:
    s_{mu alpha} s_{mu alpha}^* - s_{nu alpha} s_{mu alpha}^*."""
    mu, nu, alpha = verdict.witness
    g = mu.graph
    mu_alpha = g.compose(mu, alpha)
    nu_alpha = g.compose(nu, alpha)
    return generator(ring, mu_alpha, mu_alpha) - generator(ring, nu_alpha, mu_alpha)


# ----------------------------------------------------------------------
# the matrix units of a corner of the core: a second zero test for
# degree-zero elements, independent of the cell model behind is_zero


def pi_closure(g, E):
    """The least finite path set containing E that is closed under taking
    minimal common extensions of degree- and source-matched pairs."""
    F = set(E)
    changed = True
    while changed:
        changed = False
        items = sorted(F, key=lambda p: p.sort_key())
        matched = [
            (lam, mu)
            for lam in items
            for mu in items
            if lam.degree == mu.degree and lam.source == mu.source
        ]
        for lam, mu in matched:
            for rho, tau in matched:
                for alpha, beta in mce_pairs_oracle(g, mu, rho):
                    for new in (g.compose(lam, alpha), g.compose(tau, beta)):
                        if new not in F:
                            F.add(new)
                            changed = True
    return frozenset(F)


def t_set(g, lam, pi):
    """Non-trivial extension directions of lam inside the closed set pi."""
    out = set()
    for p in pi:
        if p.degree != lam.degree and g.has_prefix(p, lam):
            nu = g.factor(p, lam.degree)[1]
            if not nu.is_vertex():
                out.add(nu)
    return frozenset(out)


def theta(ring, g, lam, mu, pi):
    """The matrix-unit element for an eligible pair in the closed set pi:
    s_lam (prod over nu in T(lam) of (s_w - s_nu s_nu^*)) s_mu^*."""
    if lam not in pi or mu not in pi:
        raise ValueError(f"({lam!r}, {mu!r}) not inside the closed set")
    if lam.degree != mu.degree or lam.source != mu.source:
        raise ValueError(f"({lam!r}, {mu!r}) is not degree- and source-matched")
    w = g.vertex(lam.source)
    middle = kp4_defect(ring, g, lam.source, t_set(g, lam, pi))
    return multiply(multiply(generator(ring, lam, w), middle), generator(ring, w, mu))


def expand_core_in_theta(a):
    """Express a degree-zero element as a combination of matrix units.

    Returns (pi, coefficients) where coefficients maps eligible pairs to
    ring values such that a = sum coefficients[(lam, mu)] * theta(lam, mu).
    pi is the closure of the index paths, so it holds every index.
    """
    g = a.graph()
    ring = a.ring
    for (lam, mu) in a._terms:
        if lam.degree != mu.degree:
            raise ValueError(f"term ({lam!r}, {mu!r}) has non-zero degree")
    pi = pi_closure(g, {p for key in a._terms for p in key})
    coeffs = {}
    for (lam, mu), r in a._terms.items():
        extensions = [g.vertex(lam.source)] + sorted(
            t_set(g, lam, pi), key=lambda p: p.sort_key()
        )
        for nu in extensions:
            lnu = g.compose(lam, nu)
            mnu = g.compose(mu, nu)
            if lnu not in pi:
                continue
            assert mnu in pi, "closure must contain the paired extension"
            key = (lnu, mnu)
            new = coeffs.get(key, ring.zero) + r
            if new == ring.zero:
                coeffs.pop(key, None)
            else:
                coeffs[key] = new
    return pi, coeffs


def core_is_zero(a):
    """Exact zero test for degree-zero elements via the matrix-unit basis.

    A matrix unit vanishes exactly when its extension set is exhaustive at
    the common source; the remaining units are linearly independent.
    """
    if a.is_structurally_zero():
        return True
    g = a.graph()
    pi, coeffs = expand_core_in_theta(a)
    return all(g.is_exhaustive(lam.source, t_set(g, lam, pi)) for lam, _ in coeffs)


# ----------------------------------------------------------------------
# the pointwise groupoid model of an acyclic graph, and the transport of
# cell functions back to span form


@dataclasses.dataclass(frozen=True)
class GroupoidElement:
    """A boundary-path groupoid element (x, m, y): some shifts of x and y
    agree with degree offset m."""

    x: bnd.BoundaryPath
    m: tuple
    y: bnd.BoundaryPath

    def sort_key(self):
        return (self.x.sort_key(), self.m, self.y.sort_key())


def make_element(x, m, y):
    """Validate and build a groupoid element from finite boundary paths.

    (x, m, y) is one iff s(x) = s(y) and m = d(x) - d(y): equal finite tails
    shift(x, p) = shift(y, q) have equal degrees, so d(x) - p = d(y) - q with
    m = p - q; conversely p = d(x), q = d(y) both leave the tail s(x) = s(y)."""
    if x.source != y.source or m != diff(x.degree, y.degree):
        raise DegreeOutOfRange(f"({x!r}, {m}, {y!r}) is not a groupoid element")
    return GroupoidElement(x=x, m=m, y=y)


def groupoid_points(g):
    """All groupoid elements of an acyclic graph, sorted: (x, p - q, y) for
    every pair of shifts with shift(x, p) = shift(y, q)."""
    if not g.is_acyclic():
        raise NotAcyclic("pointwise enumeration requires an acyclic graph")
    paths = bnd.enumerate_boundary(g)
    out = []
    for x in paths:
        for y in paths:
            if x.source != y.source:
                continue
            offsets = {
                diff(p, q)
                for p in below(x.degree)
                for q in below(y.degree)
                if bnd.shift(x, p) == bnd.shift(y, q)
            }
            out += [GroupoidElement(x=x, m=m, y=y) for m in offsets]
    return sorted(out, key=GroupoidElement.sort_key)


def element_in_cell(el, cell):
    g = cell.graph
    if el.m != cell.shift_degree:
        return False
    if not bnd.has_path_prefix(el.x, cell.lam):
        return False
    if not bnd.has_path_prefix(el.y, cell.mu):
        return False
    if bnd.shift(el.x, cell.lam.degree) != bnd.shift(el.y, cell.mu.degree):
        return False
    return not any(bnd.has_path_prefix(el.x, g.compose(cell.lam, nu)) for nu in cell.avoid)


def eval_function(f, el):
    return sum((c for c, cell in f.terms if element_in_cell(el, cell)), f.ring.zero)


def cell_points(cell, points):
    return {a for a in points if element_in_cell(a, cell)}


def func_points(f, points):
    return {a: v for a in points if (v := eval_function(f, a)) != f.ring.zero}


def func_equal(f1, f2):
    """Whether two cell functions agree: their refined difference is empty."""
    minus = [(-c, cell) for c, cell in f2.terms]
    return gpd.func_from_terms(f1.ring, [*f1.terms, *minus]).is_zero()


def pi_t_inv(f):
    """The algebra element of a cell function:
    1[Z(lam*mu\\G)] = s_lam (prod_nu (s_w - s_nu s_nu^*)) s_mu^*."""
    out = SpanForm(f.ring)
    for coeff, cell in f.terms:
        g, w = cell.graph, cell.lam.source
        middle = kp4_defect(f.ring, g, w, cell.avoid)
        piece = multiply(multiply(generator(f.ring, cell.lam, g.vertex(w)), middle),
                         generator(f.ring, g.vertex(w), cell.mu))
        out = out + piece.scale(coeff)
    return out


def convolve(f1, f2):
    """Convolution of cell functions, transported through the algebra."""
    return gpd.pi_t(multiply(pi_t_inv(f1), pi_t_inv(f2)))


def convolve_oracle(f1, f2, points):
    """Pointwise convolution over an explicit list of groupoid elements:
    (f1 * f2)(a) = sum over b with same range of f1(b) f2(b^-1 a)."""
    ring = f1.ring
    out = {}
    for a in points:
        total = ring.zero
        for b in points:
            if b.x != a.x:
                continue
            # b^-1 a = (y_b, m_a - m_b, y_a) when legal
            inv = GroupoidElement(b.y, diff(a.m, b.m), a.y)
            total = total + eval_function(f1, b) * eval_function(f2, inv)
        if total != ring.zero:
            out[a] = total
    return out
