"""Span forms: generator words, multiplication, grading, matrix units, zero tests."""

import random
from fractions import Fraction

import pytest

from kpx import boundary as bnd
from kpx import errors, presets
from kpx.degrees import diff
from kpx.algebra import (
    GhostSym,
    PathSym,
    SpanForm,
    equals,
    generator,
    grade,
    is_zero,
    kp4_defect,
    multiply,
    reduce,
    vertex_unit,
)
from kpx.elements import parse_element
from kpx.kgraph import KGraph
from kpx.rings import QQ, ZZ, IntegersMod, ModInt

from conftest import (
    ORACLE_GRAPHS,
    PRODUCT_GRAPHS,
    RANDOM_ACYCLIC_SEEDS,
    RANDOM_PRODUCT_SEEDS,
    core_is_zero,
    eval_span_on_boundary,
    expand_core_in_theta,
    multiply_oracle,
    pi_closure,
    random_acyclic_product,
    random_span,
    random_two_graph,
    reduce_oracle,
    t_set,
    theta,
    within,
)


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


def oracle_pool(g):
    """Every path of an acyclic graph; on a cyclic one, the paths up to a
    small degree."""
    if g.is_acyclic():
        return g.all_paths()
    return [p for v in g.vertices for p in g.paths_upto(v, (3, 1, 1)[:g.k])]


@pytest.mark.parametrize("ring", [QQ, ZZ, IntegersMod(6)], ids=["QQ", "ZZ", "Z6"])
@pytest.mark.parametrize("name", sorted(ORACLE_GRAPHS))
def test_reduce_matches_oracle(name, ring):
    # the product fold and the rewriting oracle give the same terms, not
    # only the same element of the algebra
    g = ORACLE_GRAPHS[name]()
    pool = oracle_pool(g)
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


# denominators each ring inverts: over QQ the spans mix int and Fraction values
DENOMINATORS = {"Q": (1, 2, 3), "Z": (1,), "Z/6": (1, 5)}


@pytest.mark.parametrize("ring", [QQ, ZZ, IntegersMod(6)], ids=["QQ", "ZZ", "Z6"])
@pytest.mark.parametrize("name", sorted(ORACLE_GRAPHS))
def test_multiply_matches_oracle(name, ring):
    # multiply pairs a term of a only with the terms of b whose first leg has
    # the same range; the oracle pairs every term with every term
    g = ORACLE_GRAPHS[name]()
    pool = oracle_pool(g)
    by_source = {}
    for p in pool:
        by_source.setdefault(p.source, []).append(p)
    rng = random.Random(f"multiply {name} {ring}")

    def span():
        out = SpanForm(ring)
        for _ in range(4):
            lam = rng.choice(pool)
            mu = rng.choice(by_source[lam.source])
            c = ring.from_fraction(rng.randint(-3, 3), rng.choice(DENOMINATORS[ring.name]))
            out = out + SpanForm(ring, {(lam, mu): c})
        return out

    ranges, crossed, nonzero = set(), 0, 0
    for _ in range(30):
        a, b = span(), span()
        ab = multiply(a, b)
        assert ab._terms == multiply_oracle(a, b)._terms, (a, b)
        nonzero += not ab.is_structurally_zero()
        for (lam, mu), r in a._terms.items():
            for (rho, tau), s in b._terms.items():
                ranges.add(rho.range)
                if mu.range != rho.range:
                    # the pairs the range index skips contribute nothing
                    crossed += 1
                    assert g.minimal_common_extensions(mu, rho) == frozenset()
                    one = multiply(SpanForm(ring, {(lam, mu): r}), SpanForm(ring, {(rho, tau): s}))
                    assert one.is_structurally_zero()
    assert nonzero >= 10
    if len(g.vertices) > 1:
        assert len(ranges) > 1 and crossed > 0


def products_match_oracles(ring, graphs, family):
    """Both engines of the one product rule against both oracles on the
    seeded graphs; the number of non-zero products."""
    nonzero = 0
    for seed, g in graphs:
        pool = oracle_pool(g)
        rng = random.Random(f"{family} {seed} {ring}")
        for _ in range(8):
            words = random_words(g, ring, rng, pool)
            assert reduce(ring, words)._terms == reduce_oracle(ring, words)._terms, (seed, words)
            a, b = (random_span(g, ring, rng, pool, nterms=4) for _ in range(2))
            ab = multiply(a, b)
            assert ab._terms == multiply_oracle(a, b)._terms, (seed, a, b)
            nonzero += not ab.is_structurally_zero()
    return nonzero


@pytest.mark.parametrize("ring", [QQ, ZZ, IntegersMod(6)], ids=["QQ", "ZZ", "Z6"])
def test_products_match_oracles_on_random_two_graphs(ring):
    # the acyclic graphs of the seeded family
    graphs = [(seed, random_two_graph(seed)) for seed in RANDOM_ACYCLIC_SEEDS]
    assert products_match_oracles(ring, graphs, "products") >= 4 * len(graphs)


@pytest.mark.parametrize("ring", [QQ, ZZ, IntegersMod(6)], ids=["QQ", "ZZ", "Z6"])
def test_products_match_oracles_on_random_products(ring):
    # the acyclic family with squares, where words meet commuting squares
    graphs = [(seed, random_acyclic_product(seed)) for seed in RANDOM_PRODUCT_SEEDS]
    assert all(g.squares and g.is_acyclic() for _, g in graphs)
    assert products_match_oracles(ring, graphs, "product graphs") >= 3 * len(graphs)


@pytest.mark.parametrize("ring", [QQ, ZZ, IntegersMod(6)], ids=["QQ", "ZZ", "Z6"])
def test_products_match_oracles_on_cyclic_products(ring):
    # the cyclic products of 1-graphs, the shape of the cyclic benchmark
    # graphs, on their paths up to degree (3, 1)
    graphs = [(name, build()) for name, build in sorted(PRODUCT_GRAPHS.items())]
    assert not any(g.is_acyclic() for _, g in graphs)
    assert products_match_oracles(ring, graphs, "cyclic products") >= 2 * len(graphs)


def test_multiply_answers_from_the_graph_memos(lambda2, monkeypatch):
    # a product whose pairs the graph has met is read from its MCE and
    # compose memos, a memoised empty MCE included, with no call into either
    g = lambda2
    a = parse_element(g, QQ, "s(e1)*g(e1) + s(f2)*g(f2) + 2*s(v1)")
    b = parse_element(g, QQ, "s(e3) + s(e1.f1)*g(f1) - s(f2)")
    want = multiply(a, b)
    assert g._mce[(P(g, "e1"), P(g, "e3"))] == frozenset()

    def refuse(*args):
        raise AssertionError(f"a memo hit called in: {args}")

    monkeypatch.setattr(KGraph, "minimal_common_extensions", refuse)
    monkeypatch.setattr(KGraph, "compose", refuse)
    assert multiply(a, b) == want
    assert repr(want) == ("SpanForm(2*s(e3)g(v5) + -3*s(f2)g(v3) + -1*s(e1.f1)g(e2)"
                          " + 4*s(e1.f1)g(f1))")


def termwise(ring, *pairs):
    """The form with the given (key, ring value) pairs summed, built through
    the checking constructor."""
    terms = {}
    for key, c in pairs:
        terms[key] = terms.get(key, ring.zero) + c
    return SpanForm(ring, terms)


@pytest.mark.parametrize("ring", [QQ, ZZ, IntegersMod(6)], ids=["QQ", "ZZ", "Z6"])
@pytest.mark.parametrize("name", sorted(ORACLE_GRAPHS))
def test_derived_forms_are_new_and_termwise(name, ring):
    # every derived form is a new form equal to the one the constructor builds
    # from the same terms, and its operands are left as they were: the one
    # accumulator must never write into an operand
    g = ORACLE_GRAPHS[name]()
    pool = oracle_pool(g)
    rng = random.Random(f"derived {name} {ring}")
    two = ring.from_int(2)

    def span():  # over QQ, the values of a and b mix int and Fraction
        one_over = ring.from_fraction(1, rng.choice(DENOMINATORS[ring.name]))
        return random_span(g, ring, rng, pool, nterms=4).scale(one_over)

    for _ in range(20):
        a, b = span(), span()
        before = (dict(a._terms), dict(b._terms))
        ta, tb = list(a._terms.items()), list(b._terms.items())
        parts = grade(a)
        derived = {
            "a + b": (a + b, termwise(ring, *ta, *tb)),
            "a - b": (a - b, termwise(ring, *ta, *((k, -c) for k, c in tb))),
            "-a": (-a, termwise(ring, *((k, -c) for k, c in ta))),
            "a + 0": (a + SpanForm(ring), termwise(ring, *ta)),
            "2a": (a.scale(two), termwise(ring, *((k, two * c) for k, c in ta))),
            "ab": (multiply(a, b), multiply_oracle(a, b)),
            **{f"grade {key}": (part, termwise(ring, *((k, c) for k, c in ta
                                                         if diff(k[0].degree, k[1].degree) == key)))
               for key, part in parts.items()},
        }
        assert (dict(a._terms), dict(b._terms)) == before
        for what, (got, want) in derived.items():
            assert got == want, what
            assert got is not a and got is not b, what
        assert len({id(part) for part in parts.values()}) == len(parts)
        assert termwise(ring, *((k, c) for part in parts.values() for k, c in part._terms.items())) == a


@pytest.mark.parametrize("ring", [QQ, ZZ, IntegersMod(6)], ids=["QQ", "ZZ", "Z6"])
def test_derived_operations_check_nothing(lambda2, ring, monkeypatch):
    # _add_term checks the values that come from outside; every derived form
    # is summed from values already checked, so none of them reaches it
    a = parse_element(lambda2, ring, "s(e1)*g(e1) + 2*s(f2.e2)*g(f1) + s(v1)")
    b = parse_element(lambda2, ring, "3*s(v1) - s(e1.f1)*g(f1) + s(e1)")
    checked = []
    add_term = SpanForm._add_term
    monkeypatch.setattr(SpanForm, "_add_term",
                        lambda self, key, coeff: checked.append(key) or add_term(self, key, coeff))
    derived = [a + b, a - b, -a, a.scale(ring.from_int(5)), multiply(a, b), *grade(a).values()]
    is_zero(a), equals(a, b)
    assert checked == []
    assert all(not f.is_structurally_zero() for f in derived)
    # reduce checks each word's coefficient, once, and none of its factors
    e1, f1 = P(lambda2, "e1"), P(lambda2, "f1")
    del checked[:]
    reduce(ring, [(ring.one, [PathSym(e1), PathSym(f1), GhostSym(f1)]),
                  (ring.from_int(2), [GhostSym(e1), PathSym(e1), GhostSym(e1)])])
    assert len(checked) == 2


@pytest.mark.parametrize("ring", [QQ, ZZ, IntegersMod(6)], ids=["QQ", "ZZ", "Z6"])
def test_reduce_checks_each_word_coefficient(lambda2, ring):
    # a word's coefficient comes from the caller, so the ring checks it as
    # SpanForm does, for a word of one factor and of several
    e1, ef, v2 = P(lambda2, "e1"), P(lambda2, "e1.f1"), lambda2.vertex("v2")
    for word, key in (([PathSym(e1)], (e1, v2)),
                      ([PathSym(e1), PathSym(P(lambda2, "f1"))], (ef, lambda2.vertex("v4")))):
        got = reduce(ring, [(7, word)])._terms
        assert got == {key: ring.value(7)} and type(got[key]) is type(ring.one)
        for bad in (1.5, True, Fraction(1, 2) if ring is not QQ else 1.0):
            with pytest.raises(errors.CoefficientNotInRing):
                reduce(ring, [(bad, word)])


def test_reduce_vertex_then_deep_path():
    # the product s(f1)*s(f2^12) takes the minimal common extensions of the
    # vertex s(f1) and f2^12: the only one is f2^12 itself, so none of the
    # 4^12 paths of that degree may be listed
    g = presets.commuting_loops(4)
    with within(10, "reduce"):
        a = parse_element(g, QQ, "s(f1)*s(" + ".".join(["f2"] * 12) + ")")
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


def test_span_form_normalises_coefficients(lambda2):
    # a caller's int is turned into a ring value once, and stored as such
    z6 = IntegersMod(6)
    v = lambda2.vertex("v1")
    a = SpanForm(z6, {(v, v): 7})
    b = SpanForm(z6, {(v, v): ModInt(6, 1)})
    assert a == b
    assert str(a.coefficient(v, v)) == str(b.coefficient(v, v)) == "1"
    assert SpanForm(z6, {(v, v): 6}).is_structurally_zero()


def test_span_form_pairs_share_a_source(lambda2):
    e1, e2 = P(lambda2, "e1"), P(lambda2, "e2")
    with pytest.raises(errors.NotComposable, match=r"^pair \(Path\(e1\), Path\(e2\)\) has"):
        SpanForm(QQ, {(e1, e2): 1})


@pytest.mark.parametrize("ring", [QQ, ZZ, IntegersMod(6)], ids=["QQ", "ZZ", "Z6"])
def test_scaling_by_zero_gives_the_zero_form(lambda2, ring):
    a = parse_element(lambda2, ring, "s(e1)*g(e1) + 2*s(f2.e2)*g(f1) + s(v1)")
    assert len(a) == 3 and a.scale(ring.zero) == SpanForm(ring)
    assert a.scale(ring.zero).is_structurally_zero() and a.scale(ring.one) == a
    assert (a - a).is_structurally_zero() and (a + -a) == SpanForm(ring)


def test_zero_divisors_leave_no_terms(lambda2):
    # over Z/6, 2 * 3 = 0: a product or scale with a zero coefficient keeps
    # no term
    z6 = IntegersMod(6)
    v = lambda2.vertex("v1")
    two, three = SpanForm(z6, {(v, v): 2}), SpanForm(z6, {(v, v): 3})
    assert two.scale(3).is_structurally_zero() and two.scale(z6.from_int(3)) == SpanForm(z6)
    assert multiply(two, three).is_structurally_zero() and multiply(three, two)._terms == {}
    assert (two - two).is_structurally_zero() and (three + three)._terms == {}
    assert len(two + three) == 1 and (two + three).coefficient(v, v) == z6.from_int(5)


def test_generator_and_span_form_reprs(lambda2):
    e1 = P(lambda2, "e1.f1")
    assert repr(PathSym(e1)) == "s(e1.f1)" and repr(GhostSym(e1)) == "g(e1.f1)"
    a = parse_element(lambda2, QQ, "s(e1) - 1/2*s(f2.e2)*g(f1)")
    assert repr(a) == "SpanForm(1*s(e1)g(v2) + -1/2*s(e1.f1)g(f1))"
    assert a.graph() is lambda2
    assert repr(SpanForm(QQ)) == "SpanForm(0)" and SpanForm(QQ).graph() is None


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
    with pytest.raises(ValueError):
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
    with pytest.raises(ValueError, match="non-zero degree"):
        expand_core_in_theta(a)


def test_kp4_defect(lambda2):
    g = lambda2
    e1, e3, f2 = (P(g, s) for s in ("e1", "e3", "f2"))
    assert is_zero(kp4_defect(QQ, g, "v1", [e1, e3]))
    assert not is_zero(kp4_defect(QQ, g, "v1", [f2]))
    assert not is_zero(kp4_defect(QQ, g, "v1", [e1]))
    # a one-shot iterable gives the same element as a list
    assert kp4_defect(QQ, g, "v1", iter([e1, e3])) == kp4_defect(QQ, g, "v1", [e1, e3])
    with pytest.raises(errors.RangeMismatch, match=r"^Path\(e2\) is not a path at 'v1'$"):
        kp4_defect(QQ, g, "v1", [e1, P(g, "e2")])


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
