"""Coefficient rings and the element/cell text grammar."""

import itertools
import math
import operator
import re
import sys
from fractions import Fraction
from math import isqrt

import pytest
from hypothesis import given
from hypothesis import strategies as st

from kpx import degrees, errors, rings
from kpx.algebra import SpanForm, equals, multiply
from kpx.elements import parse_cell, parse_element
from kpx.rings import QQ, ZZ, IntegersMod, ModInt, Ring, _is_prime, parse_ring


def test_integers():
    assert ZZ.from_int(3) + ZZ.from_int(-3) == ZZ.zero
    assert ZZ.from_fraction(6, 3) == 2
    with pytest.raises(errors.CoefficientNotInRing):
        ZZ.from_fraction(2, 3)
    assert not ZZ.is_field


def test_rationals():
    assert QQ.from_fraction(2, 3) == Fraction(2, 3)
    assert QQ.is_field
    with pytest.raises(errors.CoefficientNotInRing):
        QQ.from_fraction(1, 0)


def test_rationals_are_int_when_integral():
    # an integral rational is a plain int, anything else stays a Fraction
    assert type(QQ.from_int(3)) is int
    assert type(QQ.zero) is int and QQ.zero == 0
    assert type(QQ.one) is int and QQ.one == 1
    assert QQ.from_fraction(4, 2) == 2 and type(QQ.from_fraction(4, 2)) is int
    assert type(QQ.from_fraction(-6, -3)) is int
    q = QQ.from_fraction(2, 3)
    assert q == Fraction(2, 3) and type(q) is Fraction
    assert QQ.from_fraction(4, -6) == Fraction(-2, 3)


def test_rational_span_forms_ignore_the_value_type(lambda2):
    # int and Fraction compare and hash alike, so spans of either are equal
    v = lambda2.vertex("v1")
    assert SpanForm(QQ, {(v, v): Fraction(4, 2)}) == SpanForm(QQ, {(v, v): 2})
    assert SpanForm(QQ, {(v, v): Fraction(1, 2)}) != SpanForm(QQ, {(v, v): 1})
    a = parse_element(lambda2, QQ, "1/2*s(v1) + 1/2*s(v1)")
    assert len(a) == 1 and a.coefficient(v, v) == 1


def test_integers_mod():
    z6 = IntegersMod(6)
    assert z6.from_int(4) + z6.from_int(4) == z6.from_int(2)
    assert not z6.is_field
    assert IntegersMod(7).is_field
    assert z6.from_fraction(1, 5) * z6.from_int(5) == z6.one
    with pytest.raises(errors.CoefficientNotInRing):
        z6.from_fraction(1, 2)
    with pytest.raises(errors.CoefficientNotInRing):
        IntegersMod(1)
    # a modulus is an int: not a float, a string, a Fraction or a bool
    for n in (6.0, "6", Fraction(6), True):
        with pytest.raises(errors.CoefficientNotInRing, match="^modulus must be an int, got "):
            IntegersMod(n)


@given(st.integers(2, 40), st.integers(-50, 50), st.integers(-50, 50))
def test_modint_ring_laws(n, a, b):
    r = IntegersMod(n)
    x, y = r.from_int(a), r.from_int(b)
    assert x + y == y + x
    assert x * y == y * x
    assert x + (-x) == r.zero
    assert x * r.one == x
    assert (x + y) * x == x * x + y * x


def test_modint_arithmetic_with_ints_and_other_moduli():
    x = ModInt(6, 5)
    assert x - 2 == ModInt(6, 3) and x - ModInt(6, 5) == ModInt(6, 0)
    assert 2 + x == ModInt(6, 1) and 2 * x == ModInt(6, 4)
    # a residue equals only a residue of its own modulus, so that equal
    # values hash alike: 5 mod 6 is not the int 11, nor 5 mod 7
    assert x == ModInt(6, 11) and x != 11 and x != 5 and x != ModInt(7, 5)
    assert len({x, ModInt(6, 5), ModInt(6, 11 % 6), ModInt(7, 5)}) == 2
    for op in (lambda a, b: a + b, lambda a, b: a * b, lambda a, b: a - b):
        with pytest.raises(errors.CoefficientNotInRing, match="^mixed moduli in arithmetic$"):
            op(x, ModInt(7, 1))
        with pytest.raises(TypeError):
            op(x, 0.5)


def test_modint_values_are_canonical():
    # a ModInt holds the least residue of its value, however it was built, so
    # it compares, hashes and prints as one value of its class
    x = ModInt(6, 7)
    assert x == ModInt(6, 1) and x != 1 and x != 7 and x.value == 1
    assert hash(x) == hash(ModInt(6, 1)) and len({x, ModInt(6, 1), ModInt(6, -5)}) == 1
    assert rings.text(x) == "1" and repr(x) == "1"
    assert ModInt(6, -1).value == 5 and ModInt(6, 6).value == 0


def test_integer_measures_only_literals_too_long_to_convert():
    # int()'s value; digits past the interpreter's limit are a ParseError
    # that counts them, and any other bad literal stays int()'s ValueError
    assert rings.integer(" -12 ") == -12 and rings.integer("+7") == 7
    for literal, count in (("1" * 5000, 5000), (" -" + "9" * 4301 + "\n", 4301)):
        with pytest.raises(errors.ParseError, match=f"^integer of {count} digits is too long$"):
            rings.integer(literal)
    for literal in ("--5", "- 5", "x", "", "1" * 5000 + "x"):
        with pytest.raises(ValueError):
            rings.integer(literal)


def test_a_ring_must_define_its_constructors():
    with pytest.raises(NotImplementedError):
        Ring()

    class Ints(Ring):
        def from_int(self, n):
            return n

    with pytest.raises(NotImplementedError):
        Ints().from_fraction(1, 2)


def test_degree_arithmetic_refuses_what_it_cannot_form():
    assert degrees.unit(3, 2) == (0, 1, 0) and degrees.sub((2, 1), (1, 1)) == (1, 0)
    for i in (0, 4):
        with pytest.raises(errors.DegreeOutOfRange, match=f"^color {i} out of range 1..3$"):
            degrees.unit(3, i)
    with pytest.raises(errors.DegreeOutOfRange, match=r"^cannot subtract \(0, 2\) from \(1, 1\)$"):
        degrees.sub((1, 1), (0, 2))


def test_degree_helpers_match_their_definitions():
    # componentwise, over every pair of degrees of ranks 1 to 3 with entries
    # in {0, 1, 3, inf}: diff may go negative, sub refuses unless n <= m, le
    # holds iff it holds at each entry, join takes each entry's maximum; inf
    # - inf is nan, which equals nothing, so entries compare by their text
    for k in (1, 2, 3):
        pool = list(itertools.product((0, 1, 3, math.inf), repeat=k))
        for m, n in itertools.product(pool, repeat=2):
            below = all(m[i] <= n[i] for i in range(k))
            assert degrees.le(m, n) is below
            assert str(degrees.diff(m, n)) == str(tuple(m[i] - n[i] for i in range(k)))
            assert degrees.join(m, n) == tuple(max(m[i], n[i]) for i in range(k))
            if all(n[i] <= m[i] for i in range(k)):
                assert str(degrees.sub(m, n)) == str(tuple(m[i] - n[i] for i in range(k)))
            else:
                with pytest.raises(errors.DegreeOutOfRange):
                    degrees.sub(m, n)
    assert degrees.diff((1, 0, 2), (3, 0, 1)) == (-2, 0, 1)
    assert degrees.le((1, 2), (1, 2)) and not degrees.le((1, 3), (2, 2))


def test_text_writes_every_digit_at_below_and_past_the_limit():
    # str() writes an int up to the digit limit and Decimal one past it: the
    # same digits either way, with a sign, and for each part of a Fraction
    limit = sys.get_int_max_str_digits() or 4300
    for d in (limit - 1, limit, limit + 1):
        nines, power = 10**d - 1, 10**d
        assert rings.text(nines) == "9" * d and rings.text(-nines) == "-" + "9" * d
        assert rings.text(-power) == "-1" + "0" * d and rings.text(power + 7) == "1" + "0" * (d - 1) + "7"
        assert rings.text(Fraction(-nines, power + 1)) == f"-{'9' * d}/1{'0' * (d - 1)}1"
        assert rings.text(Fraction(1, nines)) == f"1/{'9' * d}"
        assert rings.text(Fraction(power)) == "1" + "0" * d
    assert [rings.text(c) for c in (0, -1, Fraction(1, 1), Fraction(4, -6), ModInt(6, 7))] == [
        "0", "-1", "1", "-2/3", "1"]


def test_is_prime_matches_trial_division():
    # the reference is a sieve of Eratosthenes: each composite is crossed out
    # by trial division's smallest witness, a prime p <= isqrt(n)
    prime = [n >= 2 for n in range(10 ** 5)]
    for p in range(2, isqrt(10 ** 5 - 1) + 1):
        if prime[p]:
            prime[p * p :: p] = [False] * len(range(p * p, 10 ** 5, p))
    assert all(_is_prime(n) == prime[n] for n in range(10 ** 5))
    assert _is_prime(1000000000000000003)


def test_modulus_bound():
    # Miller-Rabin to the prime bases up to 41 is exact only below this
    # composite, which every one of those bases passes as a strong probable prime
    bound = 3317044064679887385961981
    assert _is_prime(bound) and pow(43, bound - 1, bound) != 1  # yet composite
    assert IntegersMod(bound - 1).n == bound - 1
    with pytest.raises(errors.CoefficientNotInRing):
        IntegersMod(bound)
    with pytest.raises(errors.CoefficientNotInRing):
        parse_ring(f"zmod:{bound}")


def test_parse_ring():
    assert parse_ring("q") is QQ
    assert parse_ring("z") is ZZ
    assert parse_ring("zmod:5").n == 5
    # rings compare by value: two parses of zmod:6 are one ring
    assert parse_ring("zmod:6") == parse_ring("zmod:6") == IntegersMod(6)
    assert hash(parse_ring("zmod:6")) == hash(IntegersMod(6))
    assert parse_ring("zmod:6") != parse_ring("zmod:7") and ZZ != QQ != IntegersMod(6)
    with pytest.raises(errors.KpxError):
        parse_ring("gf:8")


@pytest.mark.parametrize("ring", [QQ, ZZ, IntegersMod(6)], ids=["QQ", "ZZ", "Z6"])
@pytest.mark.parametrize(
    "value", [0.5, 2.0, True, False, Fraction(1, 2), Fraction(4, 2)],
    ids=["float", "integral-float", "bool", "bool-false", "half", "fraction-two"])
def test_span_form_rejects_values_outside_the_ring(lambda2, ring, value):
    # only ints and the ring's own values go in, as a term or as a scale
    # factor: a float, a bool, or a Fraction over a ring without fractions
    # is CoefficientNotInRing
    v = lambda2.vertex("v1")
    one = SpanForm(ring, {(v, v): 1})
    if ring is QQ and isinstance(value, Fraction):
        assert SpanForm(ring, {(v, v): value}).coefficient(v, v) == value
        assert one.scale(value).coefficient(v, v) == value
        return
    with pytest.raises(errors.CoefficientNotInRing):
        SpanForm(ring, {(v, v): value})
    with pytest.raises(errors.CoefficientNotInRing):
        one.scale(value)


def test_span_form_takes_residues_of_its_modulus_only(lambda2):
    # Z/7's 3 is no value of Z/6: the constructor and scale, on an empty form
    # and on a non-empty one, refuse it in words that name both moduli
    v, z6 = lambda2.vertex("v1"), IntegersMod(6)
    message = r"^3 mod 7 is not a value of Z/6$"
    with pytest.raises(errors.CoefficientNotInRing, match=message):
        SpanForm(z6, {(v, v): ModInt(7, 3)})
    for form in (SpanForm(z6), SpanForm(z6, {(v, v): 1})):
        with pytest.raises(errors.CoefficientNotInRing, match=message):
            form.scale(ModInt(7, 3))
    assert SpanForm(z6, {(v, v): ModInt(6, 3)}).scale(ModInt(6, 2)).is_structurally_zero()
    # a ModInt of modulus 6 comes in reduced, whatever value it was built with
    assert SpanForm(z6, {(v, v): ModInt(6, 7)}) == SpanForm(z6, {(v, v): 1})
    assert SpanForm(z6, {(v, v): ModInt(6, 6)}).is_structurally_zero()
    assert SpanForm(z6, {(v, v): 1}).scale(ModInt(6, -1)) == SpanForm(z6, {(v, v): 5})


def test_forms_over_two_rings_do_not_combine(lambda2):
    # a sum, difference or product of forms over different rings would hold
    # values of neither, such as 3/2 in a form over Z
    z, q = parse_element(lambda2, ZZ, "s(v1)"), parse_element(lambda2, QQ, "1/2*s(v1)")
    z6 = parse_element(lambda2, IntegersMod(6), "s(v1)")
    # each refusal names its operation: equals refuses as a - b does
    words = ((operator.add, "plus"), (operator.sub, "minus"), (multiply, "times"), (equals, "minus"))
    for a, b in ((z, q), (q, z), (q, z6), (z6, q), (z, z6)):
        for combine, word in words:
            message = f"^a form over {re.escape(str(a.ring))} {word} one over {re.escape(str(b.ring))}$"
            with pytest.raises(errors.CoefficientNotInRing, match=message):
                combine(a, b)
    assert z != parse_element(lambda2, QQ, "s(v1)")
    # two parses of one ring are one ring, so their forms combine and compare
    a = parse_element(lambda2, parse_ring("zmod:6"), "2*s(e1) + s(v1)")
    b = parse_element(lambda2, parse_ring("zmod:6"), "2*s(e1) + s(v1)")
    assert a.ring is not b.ring and a == b and equals(a, b)
    assert (a - b).is_structurally_zero() and a + b == a.scale(2) and multiply(a, b) == multiply(a, a)


# ------------------------------------------------------------- grammar


def test_parse_element_basic(lambda2):
    a = parse_element(lambda2, QQ, "s(e1)*g(e1) - s(e1.f1)*g(e1.f1)")
    assert len(a) == 2
    e1 = lambda2.parse_path("e1")
    assert a.coefficient(e1, e1) == 1


def test_parse_element_coefficients(lambda2):
    a = parse_element(lambda2, QQ, "-2/3*s(v1) + 4*s(v2)")
    assert a.coefficient(lambda2.vertex("v1"), lambda2.vertex("v1")) == Fraction(-2, 3)
    assert a.coefficient(lambda2.vertex("v2"), lambda2.vertex("v2")) == 4


def test_parse_element_rejects_fraction_over_z(lambda2):
    with pytest.raises(errors.CoefficientNotInRing):
        parse_element(lambda2, ZZ, "2/3*s(v1)")


def test_parse_element_reduces(lambda2):
    # the two square sides name the same path; difference collapses to zero
    a = parse_element(lambda2, QQ, "s(e1.f1) - s(f2.e2)")
    assert a.is_structurally_zero()
    # a ghost meeting a fresh path rewrites through the square
    b = parse_element(lambda2, QQ, "g(e1)*s(f2)")
    f1 = lambda2.parse_path("f1")
    e2 = lambda2.parse_path("e2")
    assert b.coefficient(f1, e2) == 1 and len(b) == 1


def test_parse_element_errors(lambda2):
    with pytest.raises(errors.ParseError):
        parse_element(lambda2, QQ, "s(e1) +")
    with pytest.raises(errors.ParseError):
        parse_element(lambda2, QQ, "t(e1)")
    with pytest.raises(errors.ParseError):
        parse_element(lambda2, QQ, "s(zz)")


def test_parse_cell(lambda2):
    c = parse_cell(lambda2, "v1*v1\\f2")
    assert c is not None
    assert c.lam.label() == "v1" and c.mu.label() == "v1"
    assert {nu.label() for nu in c.avoid} == {"f2"}
    plain = parse_cell(lambda2, "e1*e1")
    assert plain.avoid == frozenset()
    # {f1} is exhaustive at the base source, so the cell is empty
    assert parse_cell(lambda2, "e1*e1\\f1") is None


def test_parse_cell_omega_ids(omega211):
    # edge ids contain commas; avoid lists are ';'-separated
    paths = omega211.all_paths()
    edges = [p for p in paths if sum(p.degree) == 1 and p.range == "0,0"]
    text = f"{edges[0].label()}*{edges[0].label()}"
    c = parse_cell(omega211, text)
    assert c.lam == edges[0]
