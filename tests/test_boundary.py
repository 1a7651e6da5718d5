"""Boundary paths: enumeration, canonical lassos, shift orbits, generators."""

import itertools

import pytest

from kpx import boundary as bnd
from kpx import errors, presets
from kpx.degrees import INF

from conftest import boundary_oracle


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
    assert bnd.boundary_at(g, "v1") == [x for x in want if x.range == "v1"]


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


def test_finite_membership_needs_acyclic(loop):
    with pytest.raises(errors.NotAcyclic):
        bnd.is_boundary_finite(loop.parse_path("e"))
    with pytest.raises(errors.NotAcyclic):
        bnd.is_boundary_finite(loop.vertex("v"))


def test_every_vertex_has_boundary_path(acyclic_graph):
    g = acyclic_graph
    for v in g.vertices:
        assert bnd.boundary_at(g, v), v


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
    assert bnd.vertex_at(x, (1, 1)) == "v4"
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


def test_lasso_shift_prefix(cloops):
    v = cloops.vertex("v")
    e = cloops.parse_path("e")
    f1 = cloops.parse_path("f1")
    x = bnd.lasso(f1, e)
    assert bnd.prefix(x, (2, 1)).label() == "e.e.f1"
    assert bnd.shift(x, (0, 1)) == bnd.lasso(v, e)
    assert bnd.has_path_prefix(x, cloops.parse_path("e.e.f1"))
    assert not bnd.has_path_prefix(x, cloops.parse_path("f2"))


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
