"""Exact arithmetic in the Kumjian-Pask algebra of a finite rank-k graph.

Elements are kept in span form: finite R-linear combinations of products
s_lam * s_mu^* indexed by path pairs with a common source.  One kernel
writes the product rule, s_mu^* s_nu = sum of s_alpha s_beta^* over the
minimal common extensions (alpha, beta) of mu and nu: :func:`multiply`
calls it once, and :func:`reduce` folds each generator word through it
over a plain term dict, one step per factor.
"""

from dataclasses import dataclass

from . import degrees, groupoid
from .errors import CoefficientNotInRing, NotComposable
from .rings import text


@dataclass(frozen=True)
class PathSym:
    """The generator s_lam."""

    path: object

    def __repr__(self):
        return f"s({self.path.label()})"


@dataclass(frozen=True)
class GhostSym:
    """The generator s_mu^* (for a vertex this coincides with s_v)."""

    path: object

    def __repr__(self):
        return f"g({self.path.label()})"


class SpanForm:
    """An algebra element sum r_i * s_lam_i * s_mu_i^* with s(lam) = s(mu)."""

    def __init__(self, ring, terms=None):
        self.ring = ring
        self._terms = {}
        if terms:
            for key, coeff in terms.items():
                self._add_term(key, coeff)

    def _add_term(self, key, coeff):
        lam, mu = key
        if lam.source != mu.source:
            raise NotComposable(f"pair ({lam!r}, {mu!r}) has mismatched sources")
        self._add(((key, self.ring.value(coeff)),))

    def _add(self, pairs):
        """The accumulator of sums: add each (key, ring value) pair, drop the
        zero terms and return self.  Unlike _add_term it checks nothing."""
        terms, zero = self._terms, self.ring.zero
        for key, coeff in pairs:
            cur = terms.get(key)
            new = coeff if cur is None else cur + coeff
            if new == zero:
                terms.pop(key, None)
            else:
                terms[key] = new
        return self

    def items(self):
        return sorted(
            self._terms.items(),
            key=lambda kv: (kv[0][0].sort_key(), kv[0][1].sort_key()),
        )

    def coefficient(self, lam, mu):
        return self._terms.get((lam, mu), self.ring.zero)

    def is_structurally_zero(self):
        return not self._terms

    def __len__(self):
        return len(self._terms)

    def __add__(self, other):
        _same_ring(self, other, "plus")
        return SpanForm(self.ring)._add(self._terms.items())._add(other._terms.items())

    def __neg__(self):
        return SpanForm(self.ring)._add((k, -c) for k, c in self._terms.items())

    def __sub__(self, other):
        _same_ring(self, other, "minus")
        return SpanForm(self.ring)._add(self._terms.items())._add(
            (k, -c) for k, c in other._terms.items())

    def scale(self, coeff):
        coeff = self.ring.value(coeff)
        return SpanForm(self.ring)._add((k, coeff * c) for k, c in self._terms.items())

    def __eq__(self, other):
        return (
            isinstance(other, SpanForm)
            and self.ring == other.ring
            and self._terms == other._terms
        )

    def __repr__(self):
        if not self._terms:
            return "SpanForm(0)"
        bits = [
            f"{text(c)}*s({l.label()})g({m.label()})" for (l, m), c in self.items()
        ]
        return "SpanForm(" + " + ".join(bits) + ")"

    def graph(self):
        for lam, _ in self._terms:
            return lam.graph
        return None


def _same_ring(a, b, op):
    """Forms over different rings do not combine: their sum or product would
    hold values of neither, such as 3/2 in a form over Z."""
    # identity first: Ring.__eq__ made a one-term sum 1.25 us, not 1.0 us
    if a.ring is not b.ring and a.ring != b.ring:
        raise CoefficientNotInRing(f"a form over {a.ring} {op} one over {b.ring}")


def generator(ring, lam, mu):
    """The element s_lam * s_mu^*."""
    return SpanForm(ring, {(lam, mu): ring.one})


def vertex_unit(ring, g, v):
    p = g.vertex(v)
    return SpanForm(ring, {(p, p): ring.one})


def reduce(ring, weighted_words):
    """Multiply out a linear combination of generator words into span form.

    Each word is a non-empty list of PathSym/GhostSym factors.  A factor is
    the one-term span form s_lam = s_lam s_s(lam)^* or s_mu^* = s_s(mu) s_mu^*,
    and a word is folded left to right over a term dict, one step of the
    product kernel of :func:`multiply` per factor.
    """
    out, one, zero = SpanForm(ring), ring.one, ring.zero
    for coeff, word in weighted_words:
        if coeff == zero:
            continue
        if not word:
            raise NotComposable("empty generator word")
        terms = None
        for f in word:
            p = f.path
            v = p.graph.vertex(p.source)
            rho, tau = (p, v) if isinstance(f, PathSym) else (v, p)
            if terms is None:
                terms = SpanForm(ring, {(rho, tau): coeff})._terms  # the caller's value
            else:
                terms = _products(terms, {rho.range: ((rho, tau, one),)}, {}, zero)
            if not terms:
                break
        out._add(terms.items())
    return out


def multiply(a, b):
    """The product of two span forms via minimal common extensions."""
    _same_ring(a, b, "times")
    # mu and rho have no common extension unless r(mu) = r(rho)
    by_range = {}
    for (rho, tau), s in b._terms.items():
        by_range.setdefault(rho.range, []).append((rho, tau, s))
    out = SpanForm(a.ring)
    _products(a._terms, by_range, out._terms, a.ring.zero)
    return out


def _products(terms, by_range, out, zero):
    """The product rule, written once: add r*s * (lam m, tau n) to the term dict out for
    each term r * (lam, mu), each (rho, tau, s) in by_range[r(mu)] and each minimal
    common extension mu m = rho n, dropping a term whose sum is zero; return out."""
    for (lam, mu), r in terms.items():
        g = lam.graph
        # the graph's memos read inline, calling in only on a miss: a memoised
        # empty MCE set is a hit (`is None`), and a memoised path is never false
        mce, composed = g._mce, g._composed
        for rho, tau, s in by_range.get(mu.range, ()):
            exts = mce.get((mu, rho))
            if exts is None:
                exts = g.minimal_common_extensions(mu, rho)
            for m1, r1 in exts:
                # lam.m1 and tau.r1 both end at s(m1) = s(r1)
                left = composed.get((lam, m1)) or g.compose(lam, m1)
                right = composed.get((tau, r1)) or g.compose(tau, r1)
                key, rs = (left, right), r * s
                cur = out.get(key)
                new = rs if cur is None else cur + rs
                if new == zero:
                    out.pop(key, None)
                else:
                    out[key] = new
    return out


def grade(a):
    """Split into homogeneous parts keyed by d(lam) - d(mu) in Z^k."""
    parts = {}
    for (lam, mu), coeff in a._terms.items():
        key = degrees.diff(lam.degree, mu.degree)
        # the keys of a are distinct and its values non-zero
        parts.setdefault(key, SpanForm(a.ring))._terms[lam, mu] = coeff
    return parts


def kp4_defect(ring, g, v, E):
    """The element prod_{lam in E} (s_v - s_lam s_lam^*); zero iff E is exhaustive
    at v (over any ring with 1 != 0).  A step is acc - acc s_lam s_lam^*: acc s_v
    = acc, as each term s_nu s_mu^* of acc has r(mu) = v."""
    acc = vertex_unit(ring, g, v)
    for lam in sorted(g.at(v, E), key=lambda p: p.sort_key()):
        acc = acc - multiply(acc, generator(ring, lam, lam))
    return acc


# ----------------------------------------------------------------------
# zero and equality tests


def is_zero(a):
    """Exact zero test: push each homogeneous part to the groupoid model."""
    return all(groupoid.pi_t(part).is_zero() for part in grade(a).values())


def equals(a, b):
    return is_zero(a - b)
