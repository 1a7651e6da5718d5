"""Boundary paths: enumeration, canonical lassos, shift orbits, generators."""

import functools
import itertools
import math

import pytest

from kpx import boundary as bnd
from kpx import errors, presets
from kpx.degrees import INF
from kpx.groupoid import dim_over_field
from kpx.kgraph import Path, omega_graph
from kpx.rings import QQ

from conftest import ACYCLIC_ORACLE_GRAPHS, CYCLE_GRAPHS, boundary_oracle, paths_oracle

# lattice segments, named by rank and corner, the first three among the
# acyclic oracle graphs; the sweep of boundary_oracle takes seconds on
# (1,1,1,1), so that segment and (2,1,1,1) are gated by the counts alone
SEGMENTS = {"omega13": (3,), "omega211": (1, 1), "omega3111": (1, 1, 1), "omega14": (4,),
            "omega222": (2, 2), "omega41101": (1, 1, 0, 1), "omega41111": (1, 1, 1, 1),
            "omega42111": (2, 1, 1, 1)}
SWEPT = {**ACYCLIC_ORACLE_GRAPHS,
         **{name: (lambda m=SEGMENTS[name]: omega_graph(m))
            for name in ("omega14", "omega222", "omega41101")}}
COUNTED = {**SWEPT,
           **{name: (lambda m=SEGMENTS[name]: omega_graph(m))
              for name in ("omega41111", "omega42111")}}


@functools.cache
def every_path(name):
    """The graph and all its paths, sorted, from the compose-based search."""
    g = COUNTED[name]()
    top = (len(g.vertices),) * g.k  # more edges than any path has
    return g, sorted((p for v in g.vertices for p in paths_oracle(g, v, top)),
                     key=Path.sort_key)


@functools.cache
def swept_boundary(name):
    """The graph and the paths boundary_oracle accepts, sorted."""
    g, paths = every_path(name)
    return g, [p for p in paths if boundary_oracle(g, p)]


def source_classes(paths):
    classes = {}
    for p in paths:
        classes.setdefault(p.source, []).append(p)
    return [classes[w] for w in sorted(classes)]


def test_lambda2_boundary_frozen(lambda2):
    labels = {x.label() for x in bnd.enumerate_boundary(lambda2)}
    assert labels == {"v4", "v5", "e2", "e3", "f1", "e1.f1"}


def test_boundary_copy_is_private():
    g = presets.lambda2()
    first = bnd.enumerate_boundary(g)
    want = list(first)
    first.pop()
    first.append(first[0])
    assert bnd.enumerate_boundary(g) == want
    assert [x for x in bnd.enumerate_boundary(g) if x.range == "v1"] == \
        [x for x in want if x.range == "v1"]


def test_boundary_matches_definition_oracle(acyclic_graph):
    g = acyclic_graph
    want = {p for p in g.all_paths() if boundary_oracle(g, p)}
    got = {x.head for x in bnd.enumerate_boundary(g)}
    assert got == want


def test_boundary_matches_definition_oracle_downsets(downset):
    g = downset
    assert not g.is_locally_convex()
    assert max(len(g.paths_at(v)) for v in g.vertices) <= 12
    want = {p for p in g.all_paths() if boundary_oracle(g, p)}
    got = {x.head for x in bnd.enumerate_boundary(g)}
    assert got == want


@pytest.mark.parametrize("name", sorted(SWEPT))
def test_boundary_is_what_the_definition_accepts(name):
    g, want = swept_boundary(name)
    assert bnd.enumerate_boundary(g) == [bnd.finite(p) for p in want]


@pytest.mark.parametrize("name", sorted(SWEPT))
def test_finite_membership_is_what_the_definition_accepts(name):
    g, paths = every_path(name)
    assert [p for p in paths if bnd.is_boundary_finite(p)] == swept_boundary(name)[1]


@pytest.mark.parametrize("name", sorted(SWEPT))
def test_orbits_are_the_source_classes(name):
    g, want = swept_boundary(name)
    assert bnd.orbits(g) == [[bnd.finite(p) for p in c] for c in source_classes(want)]
    assert [c[0].source for c in source_classes(want)] == g.sinks()


@pytest.mark.parametrize("name", sorted(COUNTED))
def test_paths_to_and_its_count(name):
    # the count keeps its rows with the graph, so a fresh graph also counts
    # the vertices in the other order
    g, paths = every_path(name)
    fresh = COUNTED[name]()
    for w in g.vertices:
        want = [p for p in paths if p.source == w]
        assert g.paths_to(w) == want, w
        assert g.count_paths_to(w) == len(want), w
    assert [fresh.count_paths_to(w) for w in reversed(g.vertices)] == \
        [len(g.paths_to(w)) for w in reversed(g.vertices)]


@pytest.mark.parametrize("name", sorted(COUNTED))
def test_dim_is_sum_of_squared_source_classes(name):
    g, paths = every_path(name)
    classes = source_classes(p for p in paths if not g.out_edges(p.source))
    if name in SWEPT:
        assert classes == source_classes(swept_boundary(name)[1])
    dim = dim_over_field(g, QQ)
    assert dim == sum(len(c) ** 2 for c in classes)
    if name in SEGMENTS:
        assert dim == math.prod(m + 1 for m in SEGMENTS[name]) ** 2


def test_cyclic_graphs_have_no_finite_path_sets(loop, cloops):
    for g in (loop, cloops):  # neither has a sink
        for run in (bnd.orbits, bnd.enumerate_boundary, lambda g: g.paths_to("v"),
                    lambda g: g.count_paths_to("v")):
            with pytest.raises(errors.NotAcyclic, match="^the path category of a cyclic"):
                run(g)
    with pytest.raises(errors.UnknownId):
        presets.lambda2().paths_to("zz")


def test_finite_membership_needs_acyclic(loop):
    with pytest.raises(errors.NotAcyclic):
        bnd.is_boundary_finite(loop.parse_path("e"))
    with pytest.raises(errors.NotAcyclic):
        bnd.is_boundary_finite(loop.vertex("v"))


def test_every_vertex_has_boundary_path(acyclic_graph):
    g = acyclic_graph
    ranges = {x.range for x in bnd.enumerate_boundary(g)}
    for v in g.vertices:
        assert v in ranges, v


def test_cyclic_vertices_have_lassos(loop, cloops):
    x = bnd.lasso(loop.vertex("v"), loop.parse_path("e"))
    assert x.range == "v"
    y = bnd.lasso(cloops.vertex("v"), cloops.parse_path("e.f1"))
    assert y.range == "v" and y.degree == (INF, INF)


def test_omega13_boundary(omega13):
    xs = bnd.enumerate_boundary(omega13)
    assert len(xs) == 4
    # exactly the paths ending at the terminal vertex
    assert all(x.head.source == "3" for x in xs)


def test_orbits_lambda2(lambda2):
    orbs = bnd.orbits(lambda2)
    sizes = sorted(len(o) for o in orbs)
    assert sizes == [2, 4]
    as_labels = {frozenset(x.label() for x in o) for o in orbs}
    assert frozenset({"v4", "e2", "f1", "e1.f1"}) in as_labels
    assert frozenset({"v5", "e3"}) in as_labels


def test_prefix_shift_roundtrip(lambda2):
    x = bnd.finite(lambda2.parse_path("e1.f1"))
    assert bnd.prefix(x, (1, 0)).label() == "e1"
    assert bnd.shift(x, (1, 0)).label() == "f1"
    assert bnd.prefix(x, (1, 1)).source == "v4"
    p = lambda2.parse_path("e1")
    assert bnd.prepend(p, bnd.shift(x, (1, 0))) == x


def test_lasso_canonical_form(loop):
    v = loop.vertex("v")
    e = loop.parse_path("e")
    ee = loop.parse_path("e.e")
    # cycle reduces to its primitive root, head absorbs into the cycle
    assert bnd.lasso(v, ee) == bnd.lasso(v, e)
    assert bnd.lasso(e, e) == bnd.lasso(v, e)
    assert bnd.lasso(ee, ee) == bnd.lasso(v, e)
    x = bnd.lasso(v, e)
    assert x.degree == (INF,)
    assert bnd.shift(x, (3,)) == x


@pytest.mark.parametrize("graph, top", [
    (presets.single_loop, (12,)), (lambda: presets.commuting_loops(2), (4, 4)),
    (lambda: presets.commuting_loops(3), (3, 3)),
    (CYCLE_GRAPHS["twoloops"], (8,)), (CYCLE_GRAPHS["chain_to_loop"], (8,))],
    ids=["single_loop", "commuting_loops2", "commuting_loops3", "twoloops", "chain_to_loop"])
def test_primitive_root_by_brute_force(graph, top):
    # p^q = c for some q >= 1, and p is no power s^j (j >= 2) of any cycle s
    g = graph()

    def power(s, j):
        return functools.reduce(g.compose, [s] * j)

    for v in g.vertices:
        cycles = [c for c in g.paths_upto(v, top) if c.source == v and not c.is_vertex()]
        for c in cycles:
            p = bnd._primitive_root(c)
            assert p.source == p.range == v
            q = max(c.degree) // max(p.degree)
            assert power(p, q) == c
            assert not any(power(s, j) == p
                           for s in cycles for j in range(2, max(p.degree) + 1)
                           if all(x * j == y for x, y in zip(s.degree, p.degree)))


def test_lasso_shift_prefix(cloops):
    v = cloops.vertex("v")
    e = cloops.parse_path("e")
    f1 = cloops.parse_path("f1")
    x = bnd.lasso(f1, e)
    assert bnd.prefix(x, (2, 1)).label() == "e.e.f1"
    assert bnd.shift(x, (0, 1)) == bnd.lasso(v, e)
    assert bnd.has_path_prefix(x, cloops.parse_path("e.e.f1"))
    assert not bnd.has_path_prefix(x, cloops.parse_path("f2"))


def test_path_operations_refuse_what_does_not_compose(lambda2, loop):
    v, e = loop.vertex("v"), loop.parse_path("e")
    with pytest.raises(errors.DegreeOutOfRange, match="^lasso cycle must be non-trivial$"):
        bnd.lasso(e, v)
    e1 = lambda2.parse_path("e1")
    with pytest.raises(errors.NotComposable, match=r"^Path\(e1\) is not a cycle$"):
        bnd.lasso(lambda2.vertex("v1"), e1)
    loops = CYCLE_GRAPHS["twoloops"]()
    with pytest.raises(errors.NotComposable,
                       match=r"^Path\(a\) does not compose with Path\(e1\)$"):
        bnd.lasso(loops.vertex("a"), loops.parse_path("e1"))
    with pytest.raises(errors.NotComposable,
                       match=r"^Path\(e1\) does not compose with BoundaryPath\(v1\)$"):
        bnd.prepend(e1, bnd.finite(lambda2.vertex("v1")))
    x = bnd.finite(lambda2.parse_path("e1.f1"))
    with pytest.raises(errors.DegreeOutOfRange,
                       match=r"^\(2, 0\) exceeds the degree of BoundaryPath\(e1.f1\)$"):
        bnd.prefix(x, (2, 0))


def test_infinite_path_has_no_source(loop):
    x = bnd.lasso(loop.vertex("v"), loop.parse_path("e"))
    with pytest.raises(errors.DegreeOutOfRange):
        x.source


def test_generators_on_boundary(lambda2):
    x = bnd.finite(lambda2.parse_path("e1.f1"))
    e1 = lambda2.parse_path("e1")
    e3 = lambda2.parse_path("e3")
    assert bnd.apply_ghost(e1, x).label() == "f1"
    assert bnd.apply_ghost(e3, x) is None
    y = bnd.finite(lambda2.parse_path("f1"))
    assert bnd.apply_path(e1, y) == x
    assert bnd.apply_path(e3, y) is None


def test_boundary_rep_is_linear(lambda2):
    from kpx.algebra import generator
    from kpx.rings import QQ

    e1 = lambda2.parse_path("e1")
    s_e1 = generator(QQ, e1, lambda2.vertex("v2"))
    x = bnd.finite(lambda2.parse_path("f1"))
    y = bnd.finite(lambda2.parse_path("e2"))
    vec = {x: QQ.from_int(2), y: QQ.from_int(5)}
    out = bnd.boundary_rep(s_e1, vec)
    assert out == {bnd.finite(lambda2.parse_path("e1.f1")): QQ.from_int(2)}


def test_boundary_rep_drops_a_term_that_cancels_mod_n(lambda2):
    # p_v1 and s_e1 s_e1^* both fix e1.f1, so over Z/2 their sum sends it to
    # 2 e1.f1 = 0, which is no term: a residue is compared with the ring's
    # zero, as it equals no int
    from kpx.elements import parse_element
    from kpx.rings import IntegersMod

    z2 = IntegersMod(2)
    a = parse_element(lambda2, z2, "s(v1) + s(e1)*g(e1)")
    x = bnd.finite(lambda2.parse_path("e1.f1"))
    assert bnd.boundary_rep(a, {x: z2.one}) == {}
    assert bnd.boundary_rep(parse_element(lambda2, z2, "s(v1)"), {x: z2.one}) == {x: z2.one}
