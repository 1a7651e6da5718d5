"""Skeleton validation, path arithmetic, common extensions, exhaustivity."""

import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kpx import boundary as bnd
from kpx import errors, presets
from kpx.degrees import below, join, le, sub, zero
from kpx.kgraph import Edge, KGraph, KGraphSpec, Square, omega_graph

from conftest import (
    ORACLE_GRAPHS,
    exhaustive_oracle,
    exhaustive_oracle_bool,
    mce_oracle,
    paths_oracle,
)


# ------------------------------------------------------------- validation


def test_lambda2_validates(lambda2):
    assert lambda2.spec.k == 2
    assert len(lambda2.spec.edges) == 5


def test_missing_endpoint():
    spec = KGraphSpec(
        k=1,
        vertices=("v",),
        edges=(Edge("e", 1, "v", "w"),),
        squares=(),
    )
    with pytest.raises(errors.MissingEndpoint):
        KGraph.validate(spec)


def test_duplicate_edge_id():
    spec = KGraphSpec(
        k=1,
        vertices=("v",),
        edges=(Edge("e", 1, "v", "v"), Edge("e", 1, "v", "v")),
        squares=(),
    )
    with pytest.raises(errors.InvalidSpec):
        KGraph.validate(spec)


def test_bad_color():
    spec = KGraphSpec(
        k=2,
        vertices=("v",),
        edges=(Edge("e", 3, "v", "v"),),
        squares=(),
    )
    with pytest.raises(errors.InvalidSpec):
        KGraph.validate(spec)


def test_square_endpoint_mismatch():
    # square whose two sides do not share endpoints
    spec = KGraphSpec(
        k=2,
        vertices=("u", "v"),
        edges=(
            Edge("e", 1, "u", "v"),
            Edge("f", 2, "v", "u"),
            Edge("f2", 2, "u", "v"),
            Edge("e2", 1, "v", "v"),
        ),
        squares=(Square(("e", "f"), ("f2", "e2")),),
    )
    with pytest.raises(errors.BadSquare):
        KGraph.validate(spec)


def test_removing_square_breaks_bijectivity(lambda2):
    spec = lambda2.spec
    broken = KGraphSpec(spec.k, spec.vertices, spec.edges, ())
    with pytest.raises(errors.NotBijective):
        KGraph.validate(broken)


def test_duplicate_square_side(lambda2):
    spec = lambda2.spec
    doubled = KGraphSpec(spec.k, spec.vertices, spec.edges, spec.squares * 2)
    with pytest.raises(errors.NotBijective):
        KGraph.validate(doubled)


def test_cube_consistency_accepts_lattices(omega3111):
    # a rank-3 lattice segment has genuinely tricolored words; validation
    # already ran in the fixture, so just re-run it explicitly
    KGraph.validate(omega3111.spec)


def test_cube_inconsistent_rejected():
    # one vertex, one loop per color in rank 3; choose squares so that the
    # two normalizations of the tricolored word disagree.
    edges = tuple(
        Edge(eid, c, "v", "v")
        for c, ids in ((1, "a1 a2"), (2, "b1 b2"), (3, "c1 c2"))
        for eid in ids.split()
    )

    def build(squares):
        return KGraphSpec(3, ("v",), edges, tuple(squares))

    # pair colors (1,2): a_i b_j factorizations
    ab = [Square(("a1", "b1"), ("b2", "a2")), Square(("a2", "b2"), ("b1", "a1")),
          Square(("a1", "b2"), ("b1", "a2")), Square(("a2", "b1"), ("b2", "a1"))]
    ac = [Square(("a1", "c1"), ("c2", "a2")), Square(("a2", "c2"), ("c1", "a1")),
          Square(("a1", "c2"), ("c1", "a2")), Square(("a2", "c1"), ("c2", "a1"))]
    # consistent choice: everything swaps with index flip
    bc_good = [Square(("b1", "c1"), ("c2", "b2")), Square(("b2", "c2"), ("c1", "b1")),
               Square(("b1", "c2"), ("c1", "b2")), Square(("b2", "c1"), ("c2", "b1"))]
    # inconsistent choice on the (2,3) face (frozen from a search over all
    # 24 bijective pairings; 16 of them break the cube condition)
    bc_bad = [Square(("b1", "c1"), ("c1", "b1")), Square(("b2", "c2"), ("c1", "b2")),
              Square(("b1", "c2"), ("c2", "b2")), Square(("b2", "c1"), ("c2", "b1"))]

    KGraph.validate(build(ab + ac + bc_good))  # sanity: consistent variant passes
    with pytest.raises(errors.CubeInconsistent):
        KGraph.validate(build(ab + ac + bc_bad))


# --------------------------------------------------------- path arithmetic


def test_parse_and_label(lambda2):
    p = lambda2.parse_path("e1.f1")
    assert p.degree == (1, 1)
    assert p.range == "v1" and p.source == "v4"
    assert p.label() == "e1.f1"


def test_normal_form_is_color_major(lambda2):
    # f2.e2 and e1.f1 are the two sides of the one square: same path
    assert lambda2.parse_path("f2.e2") == lambda2.parse_path("e1.f1")


def test_compose_not_composable(lambda2):
    e1 = lambda2.parse_path("e1")
    e3 = lambda2.parse_path("e3")
    with pytest.raises(errors.NotComposable):
        lambda2.compose(e1, e3)


def test_factor_out_of_range(lambda2):
    p = lambda2.parse_path("e1")
    with pytest.raises(errors.DegreeOutOfRange):
        lambda2.factor(p, (0, 1))


def _check_factor_roundtrip(g, paths):
    for p in paths:
        for m in itertools.product(*(range(n + 1) for n in p.degree)):
            head, tail = g.factor(p, m)
            assert head.degree == m
            assert g.compose(head, tail) == p
            assert g.segment(p, m, p.degree) == tail
            # both halves come out in normal form
            for half in (head, tail):
                assert half.is_vertex() or half == g.path(half.edges)


def test_factor_compose_roundtrip_all(acyclic_graph):
    _check_factor_roundtrip(acyclic_graph, acyclic_graph.all_paths())


def test_factor_compose_roundtrip_cyclic(cloops, loop):
    for g in (cloops, loop):
        for v in g.vertices:
            _check_factor_roundtrip(g, g.paths_upto(v, (2,) * g.k))


def test_vertex_at_matches_factor(lambda2):
    p = lambda2.parse_path("e1.f1")
    assert lambda2.vertex_at(p, (0, 0)) == "v1"
    assert lambda2.vertex_at(p, (1, 1)) == "v4"
    assert lambda2.vertex_at(p, (1, 0)) == "v2"
    assert lambda2.vertex_at(p, (0, 1)) == "v3"


def test_unique_factorization_property(acyclic_graph):
    # paths of equal degree from the same vertex with equal labels coincide,
    # and the set of paths of each degree has no duplicates
    g = acyclic_graph
    seen = {}
    for p in g.all_paths():
        key = (p.range, p.degree, p.edges)
        assert key not in seen
        seen[key] = p


def test_paths_from_lambda2(lambda2):
    assert {p.label() for p in lambda2.paths_from("v1", (1, 1))} == {"e1.f1"}
    assert {p.label() for p in lambda2.paths_from("v1", (1, 0))} == {"e1", "e3"}
    assert lambda2.paths_from("v5", (0, 1)) == []


def test_paths_from_matches_all_paths(acyclic_graph):
    # paths_oracle grows paths by compose, so it is independent of the
    # enumerator behind paths_from and all_paths
    g = acyclic_graph
    for v in g.vertices:
        everything = paths_oracle(g, v, (len(g.vertices),) * g.k)
        assert [p for p in g.all_paths() if p.range == v] == everything
        for n in below(g.max_path_degree()):
            want = [p for p in everything if p.degree == n]
            assert g.paths_from(v, n) == want, (v, n)



@pytest.mark.parametrize("name", sorted(ORACLE_GRAPHS))
def test_enumerators_match_oracle(name):
    # The box reaches one level past the longest path in every colour of an
    # acyclic graph (no path has as many edges as the graph has vertices),
    # and a few levels into a cyclic one.
    g = ORACLE_GRAPHS[name]()
    if g.is_acyclic():
        whole = {v: paths_oracle(g, v, (len(g.vertices),) * g.k) for v in g.vertices}
        top = zero(g.k)
        for p in itertools.chain(*whole.values()):
            top = join(top, p.degree)
        box = tuple(c + 1 for c in top)
        assert g.all_paths() == sorted(itertools.chain(*whole.values()),
                                       key=lambda p: p.sort_key())
    else:
        box = (3, 2)[:g.k]
    for v in g.vertices:
        pool = [(p, p.degree) for p in paths_oracle(g, v, box)]
        for n in below(box):
            upto = [(p, d) for p, d in pool if le(d, n)]
            assert g.paths_from(v, n) == [p for p, d in upto if d == n], (v, n)
            assert g.paths_upto(v, n) == [p for p, _ in upto], (v, n)
            # no colour-i edge at s(lam) wherever d(lam)_i < n_i
            assert g.paths_leq(v, n) == [
                p for p, d in upto
                if not any(d[i] < n[i] and g.out_edges(p.source, i + 1)
                           for i in range(g.k))
            ], (v, n)


def test_paths_from_counts_commuting_loops(cloops):
    # one color-1 loop and three color-2 loops: a path of degree (a, b) is
    # e^a followed by any word of length b in f1, f2, f3
    for a in range(3):
        for b in range(4):
            assert len(cloops.paths_from("v", (a, b))) == 3**b


def test_paths_from_rejects_bad_degrees(lambda2, loop):
    with pytest.raises(errors.DegreeOutOfRange):
        loop.paths_from("v", (-1,))
    with pytest.raises(errors.DegreeOutOfRange):
        lambda2.paths_from("v1", (1, -1))
    with pytest.raises(errors.DegreeOutOfRange):
        lambda2.paths_from("v1", (0, 0, 1))
    # the box enumerators validate the bound the same way
    with pytest.raises(errors.DegreeOutOfRange):
        lambda2.paths_upto("v1", (1, -1))
    with pytest.raises(errors.DegreeOutOfRange):
        lambda2.paths_leq("v1", (1, -1))
    with pytest.raises(errors.DegreeOutOfRange):
        loop.paths_leq("v", (-1,))


def test_omega_path_counts(omega13, omega211):
    # lattice-segment graphs have exactly one path of each legal shape
    assert len(omega13.all_paths()) == 4 + 3 + 2 + 1
    assert len(omega211.all_paths()) == 9


def test_all_paths_copy_is_private():
    g = presets.lambda2()
    want = list(g.all_paths())
    want_v1 = g.paths_at("v1")
    g.all_paths().clear()
    g.paths_at("v1").clear()
    assert g.all_paths() == want
    assert g.paths_at("v1") == want_v1
    assert len(bnd.enumerate_boundary(g)) == 6


def test_all_paths_raises_on_cyclic(loop):
    with pytest.raises(errors.NotAcyclic):
        loop.all_paths()


def test_is_acyclic(lambda2, loop, cloops, omega13):
    assert lambda2.is_acyclic() and omega13.is_acyclic()
    assert not loop.is_acyclic() and not cloops.is_acyclic()


def test_predicates(lambda2, omega13, point):
    assert lambda2.has_sources() is True
    assert lambda2.is_locally_convex() is False
    assert omega13.is_locally_convex() is True
    assert point.has_sources() is True


# ------------------------------------------------- minimal common extensions


def test_mce_lambda2_frozen(lambda2):
    e1 = lambda2.parse_path("e1")
    f2 = lambda2.parse_path("f2")
    e3 = lambda2.parse_path("e3")
    pairs = lambda2.minimal_common_extensions(e1, f2)
    assert pairs == {(lambda2.parse_path("f1"), lambda2.parse_path("e2"))}
    assert lambda2.mce(e1, f2) == [lambda2.parse_path("e1.f1")]
    assert lambda2.mce(e3, f2) == []
    assert lambda2.ext(e1, [f2]) == {lambda2.parse_path("f1")}


def test_mce_against_oracle(acyclic_graph):
    g = acyclic_graph
    paths = g.all_paths()
    for _ in range(2):  # the second pass answers from the graph's memo
        for lam in paths:
            for mu in paths:
                assert set(g.mce(lam, mu)) == mce_oracle(g, lam, mu)
                for rho, tau in g.minimal_common_extensions(lam, mu):
                    assert g.compose(lam, rho) == g.compose(mu, tau)


def _two_loop_square_graph(flip):
    """One vertex, loops e1, e2 (color 1) and f1, f2 (color 2), with the
    squares e_i f_j = f_j e_i, or e_i f_j = f_j e_(3-i) when flip is set."""
    edges = tuple(Edge(f"{c}{i}", color, "v", "v")
                  for c, color in (("e", 1), ("f", 2)) for i in (1, 2))
    squares = tuple(
        Square(first=(f"e{i}", f"f{j}"), second=(f"f{j}", f"e{3 - i if flip else i}"))
        for i in (1, 2) for j in (1, 2)
    )
    return KGraph.validate(KGraphSpec(k=2, vertices=("v",), edges=edges, squares=squares))


def test_mce_memo_is_per_graph():
    # paths of A and B compare equal (the graph is not part of a path's
    # identity), so a cache shared between graphs would answer B from A
    a, b = _two_loop_square_graph(False), _two_loop_square_graph(True)
    for g, tau in ((a, "e1"), (b, "e2"), (a, "e1"), (b, "e2")):
        e1, f1 = g.parse_path("e1"), g.parse_path("f1")
        assert g.minimal_common_extensions(e1, f1) == {(f1, g.parse_path(tau))}
        paths = g.paths_upto("v", (1, 1))
        for lam in paths:
            for mu in paths:
                assert set(g.mce(lam, mu)) == mce_oracle(g, lam, mu)


def test_mce_symmetry_and_degree(lambda2, omega211):
    for g in (lambda2, omega211):
        for lam in g.all_paths():
            for mu in g.all_paths():
                taus = g.mce(lam, mu)
                assert taus == g.mce(mu, lam)
                for tau in taus:
                    assert tau.degree == join(lam.degree, mu.degree)
                    assert g.has_prefix(tau, lam) and g.has_prefix(tau, mu)


def test_finitely_aligned_commuting_loops(cloops):
    # |mce| <= 1 for all pairs up to degree (2,2) (single square per pair)
    pool = [p for p in cloops.paths_upto("v", (2, 2))]
    for lam in pool:
        for mu in pool:
            assert len(cloops.mce(lam, mu)) <= 1


def test_prefix_cancellation_property(lambda2):
    # mce(a.g', mu) nonempty  iff  some rho in Ext(a;{mu}) has mce(g', rho)
    g = lambda2
    paths = [p for p in g.all_paths() if not p.is_vertex()]
    for p in paths:
        a, rest = g.factor(p, tuple(min(1, x) if i == _first_color(p) else 0
                                    for i, x in enumerate(p.degree)))
        for mu in g.all_paths():
            if mu.range != p.range:
                continue
            lhs = bool(g.mce(p, mu))
            rhs = any(bool(g.mce(rest, rho)) for rho in g.ext(a, [mu]))
            assert lhs == rhs


def _first_color(p):
    return next(i for i, x in enumerate(p.degree) if x > 0)


# ---------------------------------------------------------- exhaustivity


def test_exhaustive_frozen_lambda2(lambda2):
    g = lambda2
    e1, e3, f2 = (g.parse_path(s) for s in ("e1", "e3", "f2"))
    assert g.is_exhaustive("v1", [e1, e3]) is True
    assert g.is_exhaustive("v1", [f2]) is False
    w = g.exhaustiveness_witness("v1", [f2])
    assert w is not None and not g.mce(w, f2)
    assert g.is_exhaustive("v1", []) is False
    assert g.is_exhaustive("v4", []) is False  # source vertex, empty set


def test_exhaustive_against_oracle(acyclic_graph):
    g = acyclic_graph
    rng = random.Random(7)
    for v in g.spec.vertices:
        pool = sorted(g.paths_at(v), key=lambda p: p.sort_key())
        subsets = []
        for size in range(0, min(3, len(pool)) + 1):
            subsets.extend(itertools.combinations(pool, size))
        if len(subsets) > 200:
            subsets = rng.sample(subsets, 200)
        for combo in subsets:
            want = exhaustive_oracle_bool(g, v, combo)
            assert g.is_exhaustive(v, list(combo)) is want
            w = g.exhaustiveness_witness(v, list(combo))
            if want:
                assert w is None
            else:
                assert w is not None
                assert not any(g.mce(w, mu) for mu in combo)
                # a shortest witness, as long as the oracle's first one
                assert len(w.edges) == len(exhaustive_oracle(g, v, combo).edges)


def test_exhaustive_cyclic(cloops, loop):
    e = cloops.parse_path("e")
    f1 = cloops.parse_path("f1")
    fs = [cloops.parse_path(s) for s in ("f1", "f2", "f3")]
    assert cloops.is_exhaustive("v", [e]) is True
    assert cloops.is_exhaustive("v", [f1]) is False
    assert cloops.is_exhaustive("v", fs) is True
    w = cloops.exhaustiveness_witness("v", [f1])
    assert w is not None and not cloops.mce(w, f1)
    # the lexicographically first of the shortest witnesses, in out_edges order
    squares = [cloops.parse_path(s) for s in ("f1.f1", "f2.f2", "f3.f3")]
    assert cloops.exhaustiveness_witness("v", squares).label() == "f1.f2"
    assert loop.is_exhaustive("v", [loop.parse_path("e")]) is True


def test_finite_exhaustive_sets(lambda2):
    sets = lambda2.finite_exhaustive_sets("v1", max_size=2, max_degree=(1, 1))
    labels = {frozenset(p.label() for p in E) for E in sets}
    assert frozenset({"e1", "e3"}) in labels
    assert frozenset({"f2"}) not in labels
    for E in sets:
        assert exhaustive_oracle_bool(lambda2, "v1", E)


# ------------------------------------------------------ property tests


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2), st.integers(0, 2), st.integers(0, 2))
def test_omega_factor_property(a, b, c):
    g = omega_graph((2, 2, 2))
    paths = g.paths_from("0,0,0", (2, 2, 2))
    assert len(paths) == 1
    p = paths[0]
    head, tail = g.factor(p, (a, b, c))
    assert head.source == f"{a},{b},{c}" == tail.range
    assert g.compose(head, tail) == p


@settings(max_examples=50, deadline=None)
@given(st.data())
def test_segment_composition_property(data):
    g = presets.lambda2()
    paths = [p for p in g.all_paths() if p.degree == (1, 1)]
    p = data.draw(st.sampled_from(paths))
    m = data.draw(st.tuples(st.integers(0, 1), st.integers(0, 1)))
    n = tuple(max(m[i], data.draw(st.integers(0, 1))) for i in range(2))
    left = g.segment(p, zero(2), m)
    mid = g.segment(p, m, n)
    right = g.segment(p, n, p.degree)
    assert g.compose(g.compose(left, mid), right) == p
