"""Acceptance gate: twelve exact criteria, one pass/fail line each.

Run with -s (or look at captured stdout) to see the per-criterion lines.
All comparisons are exact; no tolerances anywhere.
"""

import random

from kpx import analysis as ana
from kpx import boundary as bnd
from kpx import groupoid as gpd
from kpx import presets
from kpx.algebra import (
    SpanForm,
    generator,
    grade,
    is_zero,
    kp4_defect,
    multiply,
    vertex_unit,
)
from kpx.degrees import zero as zero_degree
from kpx.errors import NotBijective
from kpx.kgraph import KGraph, KGraphSpec, omega_graph
from kpx.rings import QQ, ZZ

from conftest import (
    boundary_oracle,
    cell_points,
    convolve,
    core_is_zero,
    func_equal,
    groupoid_points,
    pi_closure,
    pi_t_inv,
    random_cell,
    random_span,
    t_set,
    theta,
)


def _report(num, name, ok):
    print(f"criterion {num:2d} ({name}): {'PASS' if ok else 'FAIL'}")
    assert ok, f"criterion {num} ({name}) failed"


def test_criterion_01_validation(lambda2):
    ok = True
    ok &= lambda2.k == 2
    ok &= lambda2.has_sources() is True
    ok &= lambda2.is_locally_convex() is False
    spec = lambda2.spec
    try:
        KGraph.validate(KGraphSpec(spec.k, spec.vertices, spec.edges, ()))
        ok = False
    except NotBijective:
        pass
    _report(1, "skeleton validation", ok)


def test_criterion_02_finite_alignment(lambda2, cloops):
    ok = True
    pool = cloops.paths_upto("v", (2, 2))
    for lam in pool:
        for mu in pool:
            ok &= len(cloops.mce(lam, mu)) in (0, 1)
    e1, e3, f2 = (lambda2.parse_path(s) for s in ("e1", "e3", "f2"))
    f1, e2 = lambda2.parse_path("f1"), lambda2.parse_path("e2")
    ok &= lambda2.minimal_common_extensions(e1, f2) == {(f1, e2)}
    ok &= lambda2.minimal_common_extensions(e3, f2) == frozenset()
    _report(2, "minimal common extensions", ok)


ACYCLIC_BUILDERS = (
    presets.lambda2,
    lambda: omega_graph((3,)),
    lambda: omega_graph((1, 1)),
    lambda: presets.single_vertex(2),
    presets.two_isolated_vertices,
)


def test_criterion_03_boundary(lambda2, omega13):
    ok = True
    xs = bnd.enumerate_boundary(lambda2)
    ok &= len(xs) == 6
    ok &= sorted(len(o) for o in bnd.orbits(lambda2)) == [2, 4]
    ok &= len(bnd.enumerate_boundary(omega13)) == 4
    # definition-level check (sweep over finite exhaustive sets) and
    # vertex coverage on every acyclic fixture
    for build in ACYCLIC_BUILDERS:
        g = build()
        want = {p for p in g.all_paths() if boundary_oracle(g, p)}
        ok &= {x.head for x in bnd.enumerate_boundary(g)} == want
        ranges = {x.range for x in bnd.enumerate_boundary(g)}
        ok &= all(v in ranges for v in g.vertices)
    _report(3, "boundary enumeration", ok)


def test_criterion_04_kp_laws(lambda2, omega211):
    ok = True
    for g in (lambda2, omega211):
        basis = bnd.enumerate_boundary(g)
        vecs = [{x: QQ.one} for x in basis]

        def act(a, vec):
            return bnd.boundary_rep(a, vec)

        # KP1: orthogonal idempotents resolving the identity
        for v in g.vertices:
            pv = vertex_unit(QQ, g, v)
            for w in g.vertices:
                pw = vertex_unit(QQ, g, w)
                want = pv if v == w else SpanForm(QQ)
                for vec in vecs:
                    ok &= act(multiply(pv, pw), vec) == act(want, vec)
        for vec in vecs:
            total = {}
            for v in g.vertices:
                for x, c in act(vertex_unit(QQ, g, v), vec).items():
                    total[x] = total.get(x, QQ.zero) + c
            ok &= total == vec
        # KP2 + KP3 on every generator pair
        for p in g.all_paths():
            if p.is_vertex():
                continue
            src = g.vertex(p.source)
            slam = generator(QQ, p, src)
            glam = SpanForm(QQ, {(src, p): QQ.one})
            for vec in vecs:
                # s_{r(p)} s_p = s_p = s_p s_{s(p)}
                ok &= act(multiply(vertex_unit(QQ, g, p.range), slam), vec) == act(slam, vec)
                ok &= act(multiply(slam, vertex_unit(QQ, g, p.source)), vec) == act(slam, vec)
                # ghost-then-path is the source idempotent
                ok &= act(multiply(glam, slam), vec) == act(vertex_unit(QQ, g, p.source), vec)
            # KP3 against any other path of the same degree
            for q in g.all_paths():
                if q.degree != p.degree or q == p:
                    continue
                gq = SpanForm(QQ, {(g.vertex(q.source), q): QQ.one})
                for vec in vecs:
                    ok &= act(multiply(gq, slam), vec) == {}
        # KP4: every finite exhaustive set annihilates through its defect
        for v in g.vertices:
            for E in g.finite_exhaustive_sets(v, max_size=3, max_degree=(2,) * g.k):
                defect = kp4_defect(QQ, g, v, list(E))
                for vec in vecs:
                    ok &= act(defect, vec) == {}
    _report(4, "Kumjian-Pask relations", ok)


def test_criterion_05_matrix_units(lambda2):
    g = lambda2
    ok = True
    E = {g.parse_path("e1"), g.parse_path("f2")}
    ok &= {p.label() for p in pi_closure(g, E)} == {"e1", "f2", "e1.f1"}
    pi = pi_closure(g, set(g.all_paths()))
    eligible = [
        (lam, mu)
        for lam in pi
        for mu in pi
        if lam.degree == mu.degree and lam.source == mu.source
    ]
    for lam, mu in eligible:
        for rho, tau in eligible:
            lhs = multiply(theta(QQ, g, lam, mu, pi), theta(QQ, g, rho, tau, pi))
            want = theta(QQ, g, lam, tau, pi) if mu == rho else SpanForm(QQ)
            ok &= is_zero(lhs - want)
    for lam in pi:
        ok &= is_zero(theta(QQ, g, lam, lam, pi)) == g.is_exhaustive(
            lam.source, t_set(g, lam, pi)
        )
    _report(5, "matrix-unit calculus", ok)


def test_criterion_06_transport(lambda2, omega211):
    ok = True
    rng = random.Random(101)
    for g in (lambda2, omega211):
        for _ in range(200):
            a = random_span(g, QQ, rng, nterms=2)
            b = random_span(g, QQ, rng, nterms=2)
            ok &= func_equal(gpd.pi_t(multiply(a, b)), convolve(gpd.pi_t(a), gpd.pi_t(b)))
            ok &= gpd.pi_t(a).is_zero() == is_zero(a)
            ok &= is_zero(a - pi_t_inv(gpd.pi_t(a)))
    _report(6, "algebra-groupoid transport", ok)


def test_criterion_07_zero_oracles(lambda2, omega211):
    ok = True
    rng = random.Random(103)
    n = 0
    for g in (lambda2, omega211):
        basis = bnd.enumerate_boundary(g)
        while n < (250 if g is lambda2 else 500):
            a = random_span(g, QQ, rng)
            n += 1
            via_groupoid = all(gpd.pi_t(part).is_zero() for part in grade(a).values())
            zero_parts = True
            for key, part in grade(a).items():
                if key == zero_degree(g.k):
                    zero_parts &= core_is_zero(part)
                else:
                    zero_parts &= gpd.pi_t(part).is_zero()
            via_rep = all(
                not bnd.boundary_rep(a, {x: QQ.one}) for x in basis
            )
            ok &= via_groupoid == zero_parts == via_rep
    _report(7, "three-oracle zero test", ok)


def test_criterion_08_faithfulness(lambda2, omega13, loop):
    ok = True
    rng = random.Random(107)
    for g in (lambda2, omega13):  # aperiodic test graphs
        basis = bnd.enumerate_boundary(g)
        for _ in range(100):
            a = random_span(g, QQ, rng)
            if is_zero(a):
                continue
            ok &= any(bnd.boundary_rep(a, {x: QQ.one}) for x in basis)
    e = loop.parse_path("e")
    ee = loop.parse_path("e.e")
    a = generator(QQ, e, e) - generator(QQ, ee, e)
    ok &= not is_zero(a)
    x = bnd.lasso(loop.vertex("v"), e)
    ok &= bnd.boundary_rep(a, {x: QQ.one}) == {}
    v = ana.check_aperiodic(loop)
    ok &= v.status == "periodic" and v.vertex == "v"
    ok &= {v.m, v.n} == {(0,), (1,)}
    _report(8, "faithfulness and periodicity", ok)


def test_criterion_09_dimensions(lambda2, omega13, omega211):
    ok = True
    ok &= gpd.dim_over_field(omega13, QQ) == 16
    ok &= gpd.dim_over_field(omega211, QQ) == 16
    ok &= gpd.dim_over_field(lambda2, QQ) == 20
    for g, want in ((omega13, 16), (omega211, 16), (lambda2, 20)):
        ok &= sum(len(o) ** 2 for o in bnd.orbits(g)) == want
    _report(9, "dimension counts", ok)


def test_criterion_10_simplicity(lambda2, omega13, loop):
    ok = True
    r = ana.report(lambda2, QQ)
    ok &= r.basically_simple == "no"
    ok &= r.aperiodicity.status == "aperiodic"
    ok &= r.cofinality.status == "not_cofinal"
    r = ana.report(omega13, QQ)
    ok &= r.basically_simple == "yes" and r.simple == "yes"
    r = ana.report(omega13, ZZ)
    ok &= r.basically_simple == "yes" and r.simple == "no"
    r = ana.report(loop, QQ)
    ok &= r.basically_simple == "no"
    ok &= r.aperiodicity.status == "periodic"
    ok &= r.cofinality.status == "cofinal"
    _report(10, "simplicity reports", ok)


def test_criterion_11_groupoid_equivalences():
    ok = True
    for build in ACYCLIC_BUILDERS:
        g = build()
        # effective <=> aperiodic: diagonal elements have zero offset
        direct_effective = all(
            el.m == zero_degree(g.k) for el in groupoid_points(g) if el.x == el.y
        )
        ok &= ana.check_aperiodic(g).status == ("aperiodic" if direct_effective else "periodic")
        # minimal <=> cofinal: the boundary has a single shift orbit
        direct_minimal = len(bnd.orbits(g)) <= 1
        ok &= ana.check_cofinal(g).status == ("cofinal" if direct_minimal else "not_cofinal")
    _report(11, "effectiveness/minimality equivalences", ok)


def test_criterion_12_cell_calculus(lambda2, omega211):
    ok = True
    rng = random.Random(109)
    for g in (lambda2, omega211):
        pts = groupoid_points(g)
        for _ in range(500):
            c1 = random_cell(g, rng)
            c2 = random_cell(g, rng)
            pieces = gpd.cell_intersect(c1, c2)
            union = set()
            disjoint = True
            for p in pieces:
                s = cell_points(p, pts)
                disjoint &= not (union & s)
                union |= s
            ok &= disjoint
            ok &= union == cell_points(c1, pts) & cell_points(c2, pts)
            exts = [p for p in g.paths_at(c1.lam.source) if not p.is_vertex()]
            if exts:
                gamma = rng.choice(exts)
                avoiding, through = gpd.cell_split(c1, gamma)
                left = cell_points(avoiding, pts) if avoiding else set()
                right = cell_points(through, pts) if through else set()
                ok &= left | right == cell_points(c1, pts)
                ok &= not (left & right)
    _report(12, "cell-calculus soundness", ok)
