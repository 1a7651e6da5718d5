"""Span forms: generator words, multiplication, grading, matrix units, zero tests."""

import random
import signal

import pytest

from kpx import algebra as alg
from kpx import boundary as bnd
from kpx import errors, presets
from kpx.algebra import (
    GhostSym,
    PathSym,
    SpanForm,
    core_is_zero,
    equals,
    expand_core_in_theta,
    generator,
    grade,
    is_zero,
    kp4_defect,
    multiply,
    pi_closure,
    reduce,
    t_set,
    theta,
    vertex_unit,
)
from kpx.elements import parse_element
from kpx.rings import QQ, ZZ, IntegersMod

from conftest import ORACLE_GRAPHS, eval_span_on_boundary, random_span, reduce_oracle


def P(g, s):
    return g.parse_path(s)


# ------------------------------------------------------- generator words


def test_reduce_path_composition(lambda2):
    word = [PathSym(P(lambda2, "e1")), PathSym(P(lambda2, "f1"))]
    a = reduce(QQ, [(QQ.one, word)])
    assert a == generator(QQ, P(lambda2, "e1.f1"), lambda2.vertex("v4"))


def test_reduce_orthogonal_paths(lambda2):
    word = [PathSym(P(lambda2, "e1")), PathSym(P(lambda2, "e3"))]
    assert reduce(QQ, [(QQ.one, word)]).is_structurally_zero()


def test_reduce_ghost_then_path(lambda2):
    # g(e1) s(f2) = s(f1) g(e2) through the unique square
    a = reduce(QQ, [(QQ.one, [GhostSym(P(lambda2, "e1")), PathSym(P(lambda2, "f2"))])])
    assert a == SpanForm(QQ, {(P(lambda2, "f1"), P(lambda2, "e2")): QQ.one})


def test_reduce_ghost_path_annihilates(lambda2):
    a = reduce(QQ, [(QQ.one, [GhostSym(P(lambda2, "e3")), PathSym(P(lambda2, "f2"))])])
    assert a.is_structurally_zero()


def test_reduce_ghost_recovers_identity_on_range(lambda2):
    # g(e1) s(e1) = s_(v2)
    a = reduce(QQ, [(QQ.one, [GhostSym(P(lambda2, "e1")), PathSym(P(lambda2, "e1"))])])
    assert a == vertex_unit(QQ, lambda2, "v2")


def test_parse_square_relation_is_zero(lambda2):
    a = parse_element(lambda2, QQ, "s(e1.f1) - s(f2.e2)")
    assert a.is_structurally_zero()


def random_words(g, ring, rng, pool):
    """One to three weighted words of one to five factors.  Most factors are
    drawn to fit the vertex the word has reached, so that many words survive
    the product; the rest come from the whole pool."""
    by_range, by_source = {}, {}
    for p in pool:
        by_range.setdefault(p.range, []).append(p)
        by_source.setdefault(p.source, []).append(p)
    words = []
    for _ in range(rng.randint(1, 3)):
        word, at = [], None
        for _ in range(rng.randint(1, 5)):
            ghost = rng.random() < 0.5
            fits = (by_source if ghost else by_range).get(at)
            p = rng.choice(fits if fits and rng.random() < 0.8 else pool)
            word.append(GhostSym(p) if ghost else PathSym(p))
            at = p.range if ghost else p.source
        words.append((ring.from_int(rng.randint(-3, 3)), word))
    return words


@pytest.mark.parametrize("ring", [QQ, ZZ, IntegersMod(6)], ids=["QQ", "ZZ", "Z6"])
@pytest.mark.parametrize("name", sorted(ORACLE_GRAPHS))
def test_reduce_matches_oracle(name, ring):
    # the product fold and the rewriting oracle give the same terms, not
    # only the same element of the algebra
    g = ORACLE_GRAPHS[name]()
    if g.is_acyclic():
        pool = g.all_paths()
    else:
        pool = [p for v in g.vertices for p in g.paths_upto(v, (3, 1)[:g.k])]
    rng = random.Random(f"reduce {name} {ring}")
    nonzero = 0
    for _ in range(40):
        words = random_words(g, ring, rng, pool)
        a = reduce(ring, words)
        assert a._terms == reduce_oracle(ring, words)._terms, words
        nonzero += not a.is_structurally_zero()
    assert nonzero >= 10
    # every ghost-path pair: the step where a term splits in two
    for mu in pool:
        for nu in pool:
            if mu.range == nu.range:
                words = [(ring.one, [GhostSym(mu), PathSym(nu)])]
                assert reduce(ring, words)._terms == reduce_oracle(ring, words)._terms
    assert reduce(ring, [(ring.zero, [])])._terms == {}
    assert reduce_oracle(ring, [(ring.zero, [])])._terms == {}
    for engine in (reduce, reduce_oracle):
        with pytest.raises(errors.NotComposable):
            engine(ring, [(ring.one, [])])


def test_reduce_vertex_then_deep_path():
    # the product s(f1)*s(f2^12) takes the minimal common extensions of the
    # vertex s(f1) and f2^12: the only one is f2^12 itself, so none of the
    # 4^12 paths of that degree may be listed
    def too_slow(signum, frame):
        raise TimeoutError("reduce did not shortcut the vertex")

    g = presets.commuting_loops(4)
    old = signal.signal(signal.SIGALRM, too_slow)
    signal.alarm(10)
    try:
        a = parse_element(g, QQ, "s(f1)*s(" + ".".join(["f2"] * 12) + ")")
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, old)
    assert a == generator(QQ, g.path(["f1"] + ["f2"] * 12), g.vertex("v"))


# --------------------------------------------------------- ring structure


def test_multiply_matches_boundary_action(lambda2):
    # the boundary representation is multiplicative: rep(ab) = rep(a)rep(b)
    rng = random.Random(11)
    basis = bnd.enumerate_boundary(lambda2)
    for _ in range(40):
        a = random_span(lambda2, QQ, rng)
        b = random_span(lambda2, QQ, rng)
        ab = multiply(a, b)
        for x in basis:
            vec = {x: QQ.one}
            via_b = bnd.boundary_rep(a, bnd.boundary_rep(b, vec))
            direct = bnd.boundary_rep(ab, vec)
            assert via_b == direct


def test_multiply_associative_random(lambda2, omega211):
    rng = random.Random(5)
    for g in (lambda2, omega211):
        for _ in range(25):
            a, b, c = (random_span(g, QQ, rng) for _ in range(3))
            lhs = multiply(multiply(a, b), c)
            rhs = multiply(a, multiply(b, c))
            assert is_zero(lhs - rhs)


def test_vertex_units_are_orthogonal_idempotents(lambda2):
    for v in lambda2.vertices:
        pv = vertex_unit(QQ, lambda2, v)
        assert multiply(pv, pv) == pv
        for w in lambda2.vertices:
            if w != v:
                assert multiply(pv, vertex_unit(QQ, lambda2, w)).is_structurally_zero()


def test_grade(lambda2):
    a = parse_element(lambda2, QQ, "s(e1) + s(v1) + 3*s(e1.f1)*g(e2)")
    parts = grade(a)
    assert set(parts) == {(1, 0), (0, 0), (0, 1)}
    assert parts[(1, 0)] == generator(QQ, P(lambda2, "e1"), lambda2.vertex("v2"))
    assert parts[(0, 0)] == vertex_unit(QQ, lambda2, "v1")


def test_grading_multiplicative(lambda2):
    rng = random.Random(3)
    for _ in range(30):
        a = random_span(lambda2, QQ, rng, nterms=2)
        b = random_span(lambda2, QQ, rng, nterms=2)
        parts = grade(multiply(a, b))
        for da, pa in grade(a).items():
            for db, pb in grade(b).items():
                prod = multiply(pa, pb)
                if prod.is_structurally_zero():
                    continue
                key = tuple(x + y for x, y in zip(da, db))
                assert key in parts


# -------------------------------------------------- matrix-unit calculus


def test_pi_closure_frozen(lambda2):
    E = {P(lambda2, "e1"), P(lambda2, "f2")}
    pi = pi_closure(lambda2, E)
    assert {p.label() for p in pi} == {"e1", "f2", "e1.f1"}


def test_t_set(lambda2):
    pi = pi_closure(lambda2, {P(lambda2, "e1"), P(lambda2, "f2")})
    assert {p.label() for p in t_set(lambda2, P(lambda2, "e1"), pi)} == {"f1"}
    assert {p.label() for p in t_set(lambda2, P(lambda2, "f2"), pi)} == {"e2"}
    assert t_set(lambda2, P(lambda2, "e1.f1"), pi) == frozenset()


def test_theta_frozen(lambda2):
    pi = pi_closure(lambda2, {P(lambda2, "e1"), P(lambda2, "f2")})
    e1 = P(lambda2, "e1")
    th = theta(QQ, lambda2, e1, e1, pi)
    e1f1 = P(lambda2, "e1.f1")
    assert th == SpanForm(QQ, {(e1, e1): QQ.one, (e1f1, e1f1): -QQ.one})


def test_theta_matrix_unit_law(lambda2):
    g = lambda2
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
            assert is_zero(lhs - want)


def test_theta_zero_iff_t_exhaustive(lambda2):
    g = lambda2
    pi = pi_closure(g, set(g.all_paths()))
    for lam in pi:
        th = theta(QQ, g, lam, lam, pi)
        want_zero = g.is_exhaustive(lam.source, t_set(g, lam, pi))
        assert is_zero(th) is want_zero


def test_theta_requires_eligible_pair(lambda2):
    pi = pi_closure(lambda2, {P(lambda2, "e1")})
    with pytest.raises(errors.PairNotEligible):
        theta(QQ, lambda2, P(lambda2, "e1"), P(lambda2, "f2"), pi)


def test_expand_core_roundtrip(lambda2):
    rng = random.Random(17)
    zero_deg = [p for p in lambda2.all_paths()]
    for _ in range(30):
        a = random_span(lambda2, QQ, rng)
        part = grade(a).get((0, 0))
        if part is None:
            continue
        pi, coeffs = expand_core_in_theta(part)
        back = SpanForm(QQ)
        for (lam, mu), c in coeffs.items():
            back = back + theta(QQ, lambda2, lam, mu, pi).scale(c)
        assert is_zero(part - back)


def test_expand_core_rejects_mixed_degree(lambda2):
    a = parse_element(lambda2, QQ, "s(e1)")
    with pytest.raises(errors.NotCore):
        expand_core_in_theta(a)


def test_kp4_defect(lambda2):
    g = lambda2
    e1, e3, f2 = (P(g, s) for s in ("e1", "e3", "f2"))
    assert is_zero(kp4_defect(QQ, g, "v1", [e1, e3]))
    assert not is_zero(kp4_defect(QQ, g, "v1", [f2]))
    assert not is_zero(kp4_defect(QQ, g, "v1", [e1]))


# ------------------------------------------------------------ zero tests


def check_core_oracle(a):
    """The groupoid zero test and the matrix-unit zero test agree on the
    degree-zero part of a."""
    for key, part in grade(a).items():
        if not any(key):
            assert is_zero(part) == core_is_zero(part), "zero-test oracles disagree on the core"


def test_is_zero_cross_checks(lambda2):
    rng = random.Random(23)
    for _ in range(60):
        a = random_span(lambda2, QQ, rng)
        check_core_oracle(a)
        assert is_zero(a) in (True, False)


def test_zero_iff_boundary_rep_zero_acyclic(acyclic_graph):
    g = acyclic_graph
    rng = random.Random(31)
    basis = bnd.enumerate_boundary(g)
    for _ in range(40):
        a = random_span(g, QQ, rng)
        rep = eval_span_on_boundary(g, a, basis)
        rep_zero = all(not v for v in rep.values())
        check_core_oracle(a)
        assert is_zero(a) is rep_zero


def test_equals(lambda2):
    a = parse_element(lambda2, QQ, "s(v2)")
    b = parse_element(lambda2, QQ, "g(e1)*s(e1)")
    assert equals(a, b)
    assert not equals(a, parse_element(lambda2, QQ, "s(v1)"))


def test_zero_over_modular_ring(lambda2):
    z2 = IntegersMod(2)
    a = parse_element(lambda2, z2, "s(v1) + s(v1)")
    assert a.is_structurally_zero()
    b = parse_element(lambda2, z2, "s(v1) + s(v2)")
    check_core_oracle(b)
    assert not is_zero(b)


def test_kp_relations_as_endomorphisms(lambda2, omega211):
    # KP1-KP4 checked pointwise on the full boundary basis
    for g in (lambda2, omega211):
        basis = bnd.enumerate_boundary(g)
        vecs = [{x: QQ.one} for x in basis]

        def act(a, vec):
            return bnd.boundary_rep(a, vec)

        # KP1: vertex units are orthogonal idempotents summing to identity
        for vec in vecs:
            total = {}
            for v in g.vertices:
                for x, c in act(vertex_unit(QQ, g, v), vec).items():
                    total[x] = total.get(x, QQ.zero) + c
            assert total == vec
        # KP2/KP3: s and ghost compose contravariantly; g(lam) s(lam) = s(source)
        for p in g.all_paths():
            if p.is_vertex():
                continue
            slam = generator(QQ, p, g.vertex(p.source))
            glam = SpanForm(QQ, {(g.vertex(p.source), p): QQ.one})
            for vec in vecs:
                assert act(glam, act(slam, vec)) == act(
                    vertex_unit(QQ, g, p.source), vec
                )
        # KP4: for every finite exhaustive set the defect annihilates everything
        for v in g.vertices:
            for E in g.finite_exhaustive_sets(v, max_size=3, max_degree=(2,) * g.k):
                defect = kp4_defect(QQ, g, v, list(E))
                for vec in vecs:
                    assert act(defect, vec) == {}
