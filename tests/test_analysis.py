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
    below,
    boundary_oracle,
    groupoid_points,
    one_graph,
    periodicity_kernel,
    product_graph,
    random_one_graph,
    random_two_graph,
    reach_oracle,
    verdict_oracle,
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
    assert v.status == "not_cofinal" and v.path is not None


def test_cofinality_counterexample_fields(lambda2):
    v = ana.check_cofinal(lambda2)
    # the witness boundary path is unreachable from the named vertex
    reach = lambda2.reachable(v.vertex)
    x = v.path
    visited = {bnd.prefix(x, n).source for n in below(x.degree)}
    assert not (visited & reach)


def test_cofinality_cyclic_counterexample():
    # two disjoint loops: the loop at a is a boundary path that b cannot reach
    spec = KGraphSpec(
        k=1,
        vertices=("a", "b"),
        edges=(Edge("p", 1, "a", "a"), Edge("q", 1, "b", "b")),
        squares=(),
    )
    v = ana.check_cofinal(KGraph.validate(spec))
    assert v.status == "not_cofinal"
    assert v.vertex == "b" and v.path.label() == "a(p)^oo"


def _first_missed_sink(g):
    """The acyclic witness rule by brute force: the first vertex, in vertex
    order, that cannot reach some sink, with the first sink (sorted) it
    misses; None if there is no such vertex."""
    after, _ = reach_oracle(g)
    sinks = sorted(v for v in g.vertices if not after[v])
    return next(((v, w) for v in g.vertices for w in sinks
                 if w not in after[v] | {v}), None)


@pytest.mark.parametrize("vertices, arrows, want", [
    # a chain that forks into two sinks listed last: every vertex before
    # the sinks reaches both, so the first sink is the witness
    ("abcst", [("a", "b"), ("b", "c"), ("c", "s"), ("c", "t")], ("s", "t")),
    # the sinks listed last against their sorted order
    ("abts", [("a", "b"), ("b", "t"), ("b", "s")], ("t", "s")),
    # a vertex before the sinks misses one
    ("abcst", [("a", "b"), ("a", "c"), ("b", "s"), ("c", "t")], ("b", "t")),
    # three sinks, the first vertex reaching all of them
    ("axyz", [("a", "x"), ("a", "y"), ("a", "z")], ("x", "y")),
])
def test_acyclic_cofinality_witness_on_many_sinks(vertices, arrows, want):
    g = one_graph(vertices, arrows)
    assert _first_missed_sink(g) == want
    v = ana.check_cofinal(g)
    assert (v.status, v.vertex, v.path.label()) == ("not_cofinal", *want)


def test_acyclic_cofinality_on_random_graphs():
    # odd seeds give acyclic graphs: cofinal iff one sink, and the witness
    # follows the brute-force rule
    for seed in range(1, 100, 2):
        g = random_one_graph(seed)
        want = _first_missed_sink(g)
        v = ana.check_cofinal(g)
        got = None if v.status == "cofinal" else (v.vertex, v.path.label())
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
    """The oracle and cycle graphs, two 2-graphs whose later staircases run
    into walked vertices, 300 random 1-graphs, 40 products of two random
    1-graphs (both, one or neither cyclic) and commuting_loops(1..4)."""
    for name, build in {**ORACLE_GRAPHS, **CYCLE_GRAPHS}.items():
        yield name, build()
    yield from _later_staircases()
    for seed in range(300):
        yield f"random{seed}", random_one_graph(seed)
    for seed in range(40):
        yield f"product{seed}", product_graph(random_one_graph(seed),
                                              random_one_graph(seed + 300))
    for n in range(1, 5):
        yield f"cloops{n}", presets.commuting_loops(n)


def test_verdicts_against_reference():
    # every field, the witness paths and the note included
    statuses = set()
    for name, g in _reference_graphs():
        got = ana.check_aperiodic(g), ana.check_cofinal(g)
        assert got == verdict_oracle(g), name
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
        assert (got, ana.check_cofinal(g)) == verdict_oracle(g), seed
        seen[resolved, got.status] += 1
    assert set(seen) == {(True, "periodic"), (False, "periodic"), (False, "unknown")}


# the oracle graphs with a boundary path that some vertex cannot reach
NOT_COFINAL = {"ds100_011", "ds20_01", "ds31_12", "lambda2", "twodots", "twosquares"}


@pytest.mark.parametrize("name", sorted(ACYCLIC_ORACLE_GRAPHS))
def test_cofinal_matches_boundary_sweep(name):
    # v reaches a boundary path x iff v Lambda x(n) is non-empty for some n;
    # the witness is the first (v, x) that fails, x in boundary sort order
    g = ACYCLIC_ORACLE_GRAPHS[name]()
    boundary = sorted((lam for lam in g.all_paths() if boundary_oracle(g, lam)),
                      key=Path.sort_key)

    def reaches(v, lam):
        seen = {g.vertex_at(lam, n) for n in below(lam.degree)}
        return any(p.source in seen for p in g.paths_at(v))

    want = next(((v, lam.label()) for v in g.vertices for lam in boundary
                 if not reaches(v, lam)), None)
    got = ana.check_cofinal(g)
    assert (want is not None) == (name in NOT_COFINAL)
    if want is None:
        assert (got.status, got.vertex, got.path) == ("cofinal", None, None)
    else:
        assert (got.status, got.vertex, got.path.label()) == ("not_cofinal", *want)
    if name == "lambda2":
        assert want == ("v2", "v5")


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
