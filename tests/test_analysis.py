"""Aperiodicity, cofinality, faithfulness, and the simplicity report."""

import collections

import pytest

from kpx import analysis as ana
from kpx import boundary as bnd
from kpx import groupoid as gpd
from kpx import presets
from kpx.algebra import is_zero
from kpx.degrees import zero
from kpx.kgraph import Edge, KGraph, KGraphSpec, Path, Square, omega_graph
from kpx.rings import QQ, ZZ, IntegersMod

from conftest import (
    ACYCLIC_ORACLE_GRAPHS,
    CYCLE_GRAPHS,
    ORACLE_GRAPHS,
    RANDOM_PRODUCT_SEEDS,
    aperiodicity_oracle,
    below,
    boundary_oracle,
    cofinal_oracle,
    groupoid_points,
    one_graph,
    periodicity_kernel,
    product_cofinal,
    product_graph,
    random_acyclic_factors,
    random_one_graph,
    random_two_graph,
    reach_oracle,
    refutes_cofinality,
    sourceless_shape,
    two_loops_joined,
    witness_oracle,
)


def test_acyclic_graphs_are_aperiodic(acyclic_graph):
    v = ana.check_aperiodic(acyclic_graph)
    assert v.status == "aperiodic"


def test_loop_is_periodic(loop):
    v = ana.check_aperiodic(loop)
    assert v.status == "periodic"
    assert v.vertex == "v"
    assert {v.m, v.n} == {(0,), (1,)}
    mu, nu, alpha = v.witness
    assert mu.is_vertex() and alpha.label() == "e" and nu == alpha


def test_periodicity_kernel_nonzero_with_zero_rep(loop):
    v = ana.check_aperiodic(loop)
    a = periodicity_kernel(QQ, v)
    assert not is_zero(a)
    # the kernel element annihilates the single boundary path of the loop
    x = bnd.lasso(loop.vertex("v"), loop.parse_path("e"))
    assert bnd.boundary_rep(a, {x: QQ.one}) == {}


def test_commuting_loops_unknown(cloops):
    # cyclic and non-deterministic: the search honestly reports unknown
    assert ana.check_aperiodic(cloops).status == "unknown"


def test_cofinality(lambda2, omega13, loop, twodots, cloops):
    assert ana.check_cofinal(lambda2).status == "not_cofinal"
    assert ana.check_cofinal(omega13).status == "cofinal"
    assert ana.check_cofinal(loop).status == "cofinal"
    assert ana.check_cofinal(cloops).status == "cofinal"
    v = ana.check_cofinal(twodots)
    assert v.status == "not_cofinal" and refutes_cofinality(twodots, v.vertex, v.within)


def test_the_graph_with_no_vertex_is_cofinal():
    # no terminal component and no boundary path: cofinal by default
    g = KGraph(KGraphSpec(1, (), (), ()))
    assert g.terminal_components() == ()
    assert ana.check_cofinal(g).status == "cofinal"
    assert cofinal_oracle(g)


def test_cofinality_counterexample_fields(lambda2):
    v = ana.check_cofinal(lambda2)
    # the sinks v4 and v5 are lambda2's terminal components; the finite
    # boundary path v5 is unreachable from v4
    assert (v.vertex, v.within) == ("v4", ("v5",))
    reach = lambda2.reachable(v.vertex)
    x = bnd.finite(lambda2.vertex(v.within[0]))
    visited = {bnd.prefix(x, n).source for n in below(x.degree)}
    assert not (visited & reach)


def test_cofinality_cyclic_counterexample():
    # two disjoint loops, two terminal components: the loop at b is a
    # boundary path that a cannot reach
    spec = KGraphSpec(
        k=1,
        vertices=("a", "b"),
        edges=(Edge("p", 1, "a", "a"), Edge("q", 1, "b", "b")),
        squares=(),
    )
    g = KGraph.validate(spec)
    v = ana.check_cofinal(g)
    assert (v.status, v.vertex, v.within) == ("not_cofinal", "a", ("b",))
    assert refutes_cofinality(g, v.vertex, v.within)


def _first_two_sinks(g):
    """The acyclic witness rule from the raw edge list: the first vertex, in
    vertex order, that receives no edge, with the second; None if there
    are fewer than two."""
    sinks = [v for v in g.vertices if all(e.range != v for e in g.spec.edges)]
    return (sinks[0], (sinks[1],)) if len(sinks) > 1 else None


@pytest.mark.parametrize("vertices, arrows, want", [
    # a chain that forks into two sinks listed last
    ("abcst", [("a", "b"), ("b", "c"), ("c", "s"), ("c", "t")], ("s", "t")),
    # the sinks listed last against their sorted order
    ("abts", [("a", "b"), ("b", "t"), ("b", "s")], ("t", "s")),
    # a vertex before the sinks misses one: the witness is still the sinks
    ("abcst", [("a", "b"), ("a", "c"), ("b", "s"), ("c", "t")], ("s", "t")),
    # three sinks
    ("axyz", [("a", "x"), ("a", "y"), ("a", "z")], ("x", "y")),
])
def test_acyclic_cofinality_witness_on_many_sinks(vertices, arrows, want):
    g = one_graph(vertices, arrows)
    assert _first_two_sinks(g) == (want[0], want[1:])
    v = ana.check_cofinal(g)
    assert (v.status, v.vertex, v.within) == ("not_cofinal", want[0], want[1:])
    assert refutes_cofinality(g, v.vertex, v.within)


def test_acyclic_cofinality_on_random_graphs():
    # odd seeds give acyclic graphs, whose terminal components are their
    # sinks: cofinal iff one sink, and the witness is the first two sinks
    for seed in range(1, 100, 2):
        g = random_one_graph(seed)
        want = _first_two_sinks(g)
        v = ana.check_cofinal(g)
        got = None if v.status == "cofinal" else (v.vertex, v.within)
        assert got == want, seed
        assert (want is None) == (len(g.sinks()) == 1), seed


def _later_staircases():
    """Two 2-graphs where a later staircase runs into a walked vertex.  In
    the first, v's staircase e ends at the sink s although v reaches the
    colour-2 loop l, and u's staircase h runs into v.  In the second, the
    product of a loop at a with an edge from b to a and a loop at x, the
    staircase of a*x closes a loop that every vertex reaches, and that of
    b*x runs into a*x, which b*x does not reach back."""
    edges = [Edge("e", 1, "v", "s"), Edge("f", 2, "v", "y"), Edge("l", 2, "y", "y"),
             Edge("h", 1, "u", "v"), Edge("f2", 2, "u", "z"), Edge("h2", 1, "z", "y"),
             Edge("m", 2, "z", "z")]
    squares = [Square(first=("h", "f"), second=("f2", "h2")),
               Square(first=("h2", "l"), second=("m", "h2"))]
    yield "dead_end", KGraph(KGraphSpec(k=2, vertices=("v", "u", "s", "y", "z"),
                                        edges=tuple(edges), squares=tuple(squares)))
    yield "covered_tail", product_graph(one_graph("ab", [("a", "a"), ("b", "a")]),
                                        one_graph("x", [("x", "x")]))


def _reference_graphs():
    """(name, graph, whether it is cofinal) for the oracle and cycle graphs,
    two 2-graphs whose later staircases run into walked vertices, 300
    random 1-graphs, 40 products of two random 1-graphs (both, one or
    neither cyclic) and commuting_loops(1..4).  The products take the factor
    rule, the rest the brute-force T*."""
    for name, build in {**ORACLE_GRAPHS, **CYCLE_GRAPHS}.items():
        g = build()
        yield name, g, cofinal_oracle(g)
    for name, g in _later_staircases():
        yield name, g, cofinal_oracle(g)
    for seed in range(300):
        g = random_one_graph(seed)
        yield f"random{seed}", g, cofinal_oracle(g)
    for seed in range(40):
        a, b = random_one_graph(seed), random_one_graph(seed + 300)
        yield f"product{seed}", product_graph(a, b), product_cofinal(a, b)
    for n in range(1, 5):
        g = presets.commuting_loops(n)
        yield f"cloops{n}", g, cofinal_oracle(g)


def assert_cofinality(g, cofinal, name):
    """check_cofinal's status is the reference's, and a not_cofinal
    certificate holds by the definitions."""
    got = ana.check_cofinal(g)
    assert got.status == ("cofinal" if cofinal else "not_cofinal"), name
    assert cofinal or refutes_cofinality(g, got.vertex, got.within), name
    return got


def test_verdicts_against_reference():
    # aperiodicity in every field, the witness paths and the note included
    statuses = set()
    for name, g, cofinal in _reference_graphs():
        got = ana.check_aperiodic(g), assert_cofinality(g, cofinal, name)
        assert got[0] == aperiodicity_oracle(g), name
        statuses |= {v.status for v in got}
    assert statuses == {"aperiodic", "periodic", "cofinal", "not_cofinal", "unknown"}


def test_cyclic_two_graphs_are_never_found_aperiodic():
    # the lemma in check_aperiodic's docstring: when no vertex that reaches
    # a cycle reaches a vertex receiving two edges of one colour, some
    # staircase closes a lasso, so a cyclic graph is periodic or unknown,
    # and periodic in that case; gated on seeded non-product 2-graphs
    seen = collections.Counter()
    for seed in range(600):
        g = random_two_graph(seed)
        after, cyclic = reach_oracle(g)
        if not cyclic:
            continue
        received = collections.Counter((e.range, e.color) for e in g.spec.edges)
        branching = {v for (v, _), n in received.items() if n > 1}
        resolved = not any(after[v] & branching or v in branching for v in cyclic)
        got = ana.check_aperiodic(g)
        assert got.status in (("periodic",) if resolved else ("periodic", "unknown")), seed
        assert got == aperiodicity_oracle(g), seed
        assert_cofinality(g, cofinal_oracle(g), seed)
        seen[resolved, got.status] += 1
    assert set(seen) == {(True, "periodic"), (False, "periodic"), (False, "unknown")}


# the oracle graphs with a boundary path that some vertex cannot reach
NOT_COFINAL = {"ds100_011", "ds20_01", "ds31_12", "lambda2", "twodots", "twosquares"}


@pytest.mark.parametrize("name", sorted(ACYCLIC_ORACLE_GRAPHS))
def test_cofinal_matches_boundary_sweep(name):
    # v reaches a boundary path x iff v Lambda x(n) is non-empty for some n;
    # the sweep finds the first (v, x) that fails, x in boundary sort order
    g = ACYCLIC_ORACLE_GRAPHS[name]()
    boundary = sorted((lam for lam in g.all_paths() if boundary_oracle(g, lam)),
                      key=Path.sort_key)

    def reaches(v, lam):
        seen = {g.vertex_at(lam, n) for n in below(lam.degree)}
        return any(p.source in seen for p in g.paths_at(v))

    want = next(((v, lam.label()) for v in g.vertices for lam in boundary
                 if not reaches(v, lam)), None)
    got = ana.check_cofinal(g)
    assert (want is not None) == (name in NOT_COFINAL) == (got.status == "not_cofinal")
    if want is None:
        assert (got.vertex, got.within) == (None, None)
    else:
        # the certificate's set is a second sink, a finite boundary path
        # that the vertex misses
        (sink,) = got.within
        assert boundary_oracle(g, g.vertex(sink)) and not reaches(got.vertex, g.vertex(sink))
    if name == "lambda2":
        assert want == ("v2", "v5")


def test_cofinal_when_an_exhaustive_edge_leads_into_the_terminal_loop():
    # {f} is exhaustive at a, as e^n.f = f.g^n, so every boundary path at a
    # runs through f into b, which every vertex reaches; a's colour-1 loop
    # alone is no boundary path
    g = two_loops_joined()
    assert g.is_exhaustive("a", [g.parse_path("f")])
    assert witness_oracle(g, "a", [g.parse_path("f")]) is None
    assert g.terminal_components() == (("b",),)
    assert ana.check_cofinal(g).status == "cofinal"
    assert cofinal_oracle(g)


def test_not_cofinal_with_two_terminal_loops():
    # v receives h (colour 1) from u1 and k (colour 2) from u2, with a
    # colour-1 loop at u1 and a colour-2 loop at u2: two terminal components
    g = KGraph(KGraphSpec(2, ("v", "u1", "u2"),
                          (Edge("h", 1, "v", "u1"), Edge("k", 2, "v", "u2"),
                           Edge("a", 1, "u1", "u1"), Edge("b", 2, "u2", "u2")), ()))
    got = assert_cofinality(g, cofinal_oracle(g), "two loops")
    assert (got.vertex, got.within) == ("u1", ("u2",))


def test_cofinal_where_a_lasso_is_no_boundary_path():
    # random_two_graph(576): {f0} is exhaustive at v0, as e3^n.f0 = f0.e1^n,
    # so the lasso v0(e3)^oo is no boundary path; every boundary path at v0
    # enters v1, which every vertex reaches
    g = random_two_graph(576)
    assert witness_oracle(g, "v0", [g.parse_path("f0")]) is None
    assert g.is_exhaustive("v0", [g.parse_path("f0")])
    assert_cofinality(g, True, 576)
    assert cofinal_oracle(g)


@pytest.mark.parametrize("seeds", [(34,), (50,), (34, 34), (34, 50), (34, 59),
                                   (50, 34), (50, 50), (50, 59)])
def test_cofinal_on_one_terminal_cycle(seeds):
    # each of random_one_graph(34) and (50) has one terminal cycle that every
    # vertex reaches; so do their products, and (59) is cofinal too
    graphs = [random_one_graph(seed) for seed in seeds]
    g = product_graph(*graphs) if len(graphs) == 2 else graphs[0]
    assert len(g.terminal_components()) == 1
    want = product_cofinal(*graphs) if len(graphs) == 2 else cofinal_oracle(g)
    assert want
    assert_cofinality(g, want, seeds)


def test_a_vertex_searched_too_early_is_searched_again():
    # u receives two edges, from x and y, which each receive one from the
    # loop t; times a loop w, u*w also receives its colour-2 loop, so it
    # never joins by count.  Its colour-1 edges are exhaustive only once
    # both x*w and y*w have joined, and its first search comes before that
    a = one_graph("uxyt", [("u", "x"), ("u", "y"), ("x", "t"), ("y", "t"), ("t", "t")])
    b = one_graph("w", [("w", "w")])
    g = product_graph(a, b)
    assert not g.is_exhaustive("u*w", [g.parse_path("e1*w")])
    assert g.is_exhaustive("u*w", [g.parse_path("e0*w"), g.parse_path("e1*w")])
    assert product_cofinal(a, b) and cofinal_oracle(g)
    assert_cofinality(g, True, "late search")


def test_cofinality_decides_every_random_two_graph():
    # every seed, acyclic or not, against the brute-force T*
    statuses = collections.Counter()
    for seed in range(600):
        g = random_two_graph(seed)
        statuses[assert_cofinality(g, cofinal_oracle(g), seed).status] += 1
    assert set(statuses) == {"cofinal", "not_cofinal"}


def test_cofinality_on_random_one_graph_products():
    # every ninth pair of the 120 x 60 random_one_graph products, against
    # the factor rule
    for i in range(120):
        for j in range(60):
            if (60 * i + j) % 9 == 0:
                a, b = random_one_graph(i), random_one_graph(j)
                assert_cofinality(product_graph(a, b), product_cofinal(a, b), (i, j))


def test_cofinality_on_sourceless_products():
    # the 256 products of the 16 two-vertex 1-graphs in which every vertex
    # receives an edge, against the factor rule and the brute-force T*
    statuses = collections.Counter()
    for x in range(16):
        for y in range(16):
            a, b = sourceless_shape(x), sourceless_shape(y)
            g = product_graph(a, b)
            assert cofinal_oracle(g) == product_cofinal(a, b), (x, y)
            statuses[assert_cofinality(g, product_cofinal(a, b), (x, y)).status] += 1
    assert statuses == {"cofinal": 100, "not_cofinal": 156}


@pytest.mark.parametrize("seed", RANDOM_PRODUCT_SEEDS)
def test_cofinality_on_random_acyclic_products(seed):
    a, b = random_acyclic_factors(seed)
    g = product_graph(a, b)
    assert_cofinality(g, product_cofinal(a, b), seed)
    assert product_cofinal(a, b) == (len(g.sinks()) == 1)


def test_effective_minimal_match_direct_checks(acyclic_graph):
    g = acyclic_graph
    # effective: every groupoid element with equal legs has offset zero
    direct_effective = all(
        el.m == zero(g.k) for el in groupoid_points(g) if el.x == el.y
    )
    assert direct_effective
    assert ana.check_aperiodic(g).status == "aperiodic"
    # minimal: the boundary is a single shift orbit
    direct_minimal = len(bnd.orbits(g)) <= 1
    assert ana.check_cofinal(g).status == ("cofinal" if direct_minimal else "not_cofinal")


def test_faithfulness(lambda2, loop):
    # the boundary representation is faithful exactly on aperiodic graphs;
    # a periodic witness gives a non-zero element in its kernel
    assert ana.check_aperiodic(lambda2).status == "aperiodic"
    v = ana.check_aperiodic(loop)
    assert v.status == "periodic"
    assert not is_zero(periodicity_kernel(QQ, v))


def test_report_lambda2(lambda2):
    r = ana.report(lambda2, QQ)
    assert r.basically_simple == "no"
    assert r.simple == "no"
    assert r.dimension == 20


def test_report_omega13(omega13):
    r = ana.report(omega13, QQ)
    assert r.basically_simple == "yes" and r.simple == "yes"
    assert r.dimension == 16
    rz = ana.report(omega13, ZZ)
    assert rz.basically_simple == "yes" and rz.simple == "no"
    rp = ana.report(omega13, IntegersMod(5))
    assert rp.simple == "yes"


@pytest.mark.parametrize(
    "build, dim", [(presets.lambda2, 20), (lambda: omega_graph((2, 2)), 81)],
    ids=["lambda2", "omega22"],
)
def test_report_never_calls_all_paths(build, dim, monkeypatch):
    # the boundary grows from the sinks and dim counts, so no boundary work
    # builds the whole path list, starting from a fresh graph
    g = build()

    def refuse(self):
        raise AssertionError("all_paths called")

    monkeypatch.setattr(KGraph, "all_paths", refuse)
    assert ana.report(g, QQ).dimension == dim
    assert gpd.dim_over_field(build(), QQ) == dim
    orbits = bnd.orbits(build())
    assert sum(len(o) ** 2 for o in orbits) == dim
    # the two graphs' paths are distinct objects: compare by value
    assert [x.sort_key() for x in bnd.enumerate_boundary(build())] == sorted(
        x.sort_key() for o in orbits for x in o)


def test_report_loop(loop):
    r = ana.report(loop, QQ)
    assert r.basically_simple == "no" and r.simple == "no"
    assert r.aperiodicity.status == "periodic"
    assert r.cofinality.status == "cofinal"


def test_report_unknown_exit_state(cloops):
    r = ana.report(cloops, QQ)
    assert r.basically_simple == "unknown"
    assert r.simple == "unknown"


def test_report_never_simple_over_a_non_field(cloops):
    # KP_R is simple only over a field, even where basic simplicity is unknown
    for ring in (ZZ, IntegersMod(6)):
        r = ana.report(cloops, ring)
        assert r.basically_simple == "unknown"
        assert r.simple == "no"
