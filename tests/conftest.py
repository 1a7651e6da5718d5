"""Shared fixtures and independent brute-force oracles.

The oracles here deliberately avoid the library's clever code paths: they
work from raw definitions (enumerate all paths, check all cases) so the
fast implementations can be gated against them.
"""

import itertools
import random

import pytest

from kpx import boundary as bnd
from kpx import presets
from kpx.algebra import GhostSym, PathSym, SpanForm
from kpx.errors import NotComposable
from kpx.degrees import join, le, sub, zero
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
    points = sorted({p for top in generators for p in _degree_box(top)})
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


# every graph the oracle gates run on: the acyclic fixtures, the down-set
# graphs, a graph with two minimal common extensions, and two cyclic graphs
ORACLE_GRAPHS = {
    **ACYCLIC_BUILDERS,
    **{name: (lambda gens=gens: downset_graph(gens))
       for name, gens in DOWNSET_GENERATORS.items()},
    "twosquares": two_squares_graph,
    "loop": presets.single_loop,
    "cloops": lambda: presets.commuting_loops(3),
}


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
                pairs = g.minimal_common_extensions(a.path, b.path)
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


def mce_oracle(g, lam, mu):
    """Minimal common extensions straight from the definition: search every
    path of degree d(lam) v d(mu) from r(lam) and test both prefixes."""
    if lam.range != mu.range:
        return set()
    d = join(lam.degree, mu.degree)
    out = set()
    for tau in g.paths_from(lam.range, d):
        if g.has_prefix(tau, lam) and g.has_prefix(tau, mu):
            out.add(tau)
    return out


def exhaustive_oracle(g, v, paths):
    """Definition of exhaustive: every path from v has a common extension
    with some member.  Exact on acyclic graphs (finite path set)."""
    for lam in sorted(g.paths_at(v), key=lambda p: p.sort_key()):
        if not any(g.minimal_common_extensions(lam, mu) for mu in paths):
            return lam
    return None


def exhaustive_oracle_bool(g, v, paths):
    return all(
        any(g.minimal_common_extensions(lam, mu) for mu in paths)
        for lam in g.paths_at(v)
    )


def boundary_oracle(g, lam):
    """A finite path is a boundary path iff for every exhaustive finite set E
    at any of its vertices lam(n), some member of E is picked up by the tail.
    Exact on acyclic graphs; sweeps every finite set of paths at the vertex."""
    for n_idx in _degree_box(lam.degree):
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


def _degree_box(d):
    return itertools.product(*(range(n + 1) for n in d))


def groupoid_points(g):
    from kpx.groupoid import enumerate_groupoid

    return enumerate_groupoid(g)


def convolve_oracle(f1, f2, points):
    """Pointwise convolution over an explicit list of groupoid elements:
    (f1 * f2)(a) = sum over b with same range of f1(b) f2(b^-1 a)."""
    from kpx.groupoid import GroupoidElement, eval_function

    ring = f1.ring
    out = {}
    for a in points:
        total = ring.zero
        for b in points:
            if b.x != a.x:
                continue
            # b^-1 a = (y_b, m_a - m_b, y_a) when legal
            inv = GroupoidElement(b.y, sub_z(a.m, b.m), a.y)
            total = total + eval_function(f1, b) * eval_function(f2, inv)
        if total != ring.zero:
            out[a] = total
    return out


def sub_z(m, n):
    return tuple(a - b for a, b in zip(m, n))


def eval_span_on_boundary(g, a, basis=None):
    """Matrix of the boundary-path representation of a span-form element,
    as a dict mapping basis path -> image vector."""
    if basis is None:
        basis = bnd.enumerate_boundary(g)
    return {x: bnd.boundary_rep(a, {x: a.ring.one}) for x in basis}


def random_span(g, ring, rng, npaths=None, nterms=3, maxdeg=None):
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
    from kpx.groupoid import make_cell

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
        cell = make_cell(lam, mu, avoid)
        if cell is not None:
            return cell
    raise RuntimeError("could not build a nonempty cell")


def cell_points(cell, points):
    from kpx.groupoid import element_in_cell

    return {a for a in points if element_in_cell(a, cell)}


def func_points(g, f, points):
    from kpx.groupoid import eval_function

    return {a: v for a in points if (v := eval_function(f, a)) != f.ring.zero}
