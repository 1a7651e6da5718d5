"""Exact arithmetic in the Kumjian-Pask algebra of a finite rank-k graph.

Elements are kept in span form: finite R-linear combinations of products
s_lam * s_mu^* indexed by path pairs with a common source.  One product
rule, s_mu^* s_nu = sum of s_alpha s_beta^* over the minimal common
extensions (alpha, beta) of mu and nu, multiplies span forms
(:func:`multiply`); a word in the generators is multiplied out factor by
factor with that same rule (:func:`reduce`).
"""

from dataclasses import dataclass

from . import degrees
from .errors import (
    IndexEscapesPi,
    NotComposable,
    NotCore,
    PairNotEligible,
    RangeMismatch,
)


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
        self._accumulate(key, coeff)

    def _accumulate(self, key, coeff):
        """Add coeff to the term at key, whose pair is known to share a source."""
        cur = self._terms.get(key, self.ring.zero)
        new = cur + coeff
        if new == self.ring.zero:
            self._terms.pop(key, None)
        else:
            self._terms[key] = new

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
        out = SpanForm(self.ring, self._terms)
        for key, coeff in other._terms.items():
            out._accumulate(key, coeff)
        return out

    def __neg__(self):
        return SpanForm(self.ring, {k: -c for k, c in self._terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def scale(self, coeff):
        if coeff == self.ring.zero:
            return SpanForm(self.ring)
        return SpanForm(self.ring, {k: coeff * c for k, c in self._terms.items()})

    def __eq__(self, other):
        return (
            isinstance(other, SpanForm)
            and self.ring is other.ring
            and self._terms == other._terms
        )

    def __repr__(self):
        if not self._terms:
            return "SpanForm(0)"
        bits = [
            f"{c}*s({l.label()})g({m.label()})" for (l, m), c in self.items()
        ]
        return "SpanForm(" + " + ".join(bits) + ")"

    def index_paths(self):
        out = set()
        for lam, mu in self._terms:
            out.add(lam)
            out.add(mu)
        return out

    def graph(self):
        for lam, _ in self._terms:
            return lam.graph
        return None


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
    and a word is the left-to-right product of its factors under the one
    product rule of :func:`multiply`.
    """
    out = SpanForm(ring)
    for coeff, word in weighted_words:
        if coeff == ring.zero:
            continue
        if not word:
            raise NotComposable("empty generator word")
        product = None
        for f in word:
            p = f.path
            v = p.graph.vertex(p.source)
            key = (p, v) if isinstance(f, PathSym) else (v, p)
            if product is None:
                product = SpanForm(ring, {key: coeff})
            else:
                product = multiply(product, SpanForm(ring, {key: ring.one}))
            if not product._terms:
                break
        for key, c in product._terms.items():
            out._accumulate(key, c)
    return out


def multiply(a, b):
    """The product of two span forms via minimal common extensions."""
    ring = a.ring
    out = SpanForm(ring)
    for (lam, mu), r in a._terms.items():
        g = lam.graph
        for (rho, tau), s in b._terms.items():
            for m1, r1 in g.minimal_common_extensions(mu, rho):
                # lam.m1 and tau.r1 both end at s(m1) = s(r1)
                out._accumulate((g.compose(lam, m1), g.compose(tau, r1)), r * s)
    return out


def grade(a):
    """Split into homogeneous parts keyed by d(lam) - d(mu) in Z^k."""
    parts = {}
    for (lam, mu), coeff in a._terms.items():
        key = degrees.diff(lam.degree, mu.degree)
        parts.setdefault(key, SpanForm(a.ring))._accumulate((lam, mu), coeff)
    return parts


# ----------------------------------------------------------------------
# the finite matrix-unit decomposition of a corner of the core


def pi_closure(g, E):
    """The least finite path set containing E that is closed under taking
    minimal common extensions of degree- and source-matched pairs."""
    F = set(E)
    changed = True
    while changed:
        changed = False
        items = sorted(F, key=lambda p: p.sort_key())
        matched = [
            (lam, mu)
            for lam in items
            for mu in items
            if lam.degree == mu.degree and lam.source == mu.source
        ]
        for lam, mu in matched:
            for rho, tau in matched:
                for alpha, beta in g.minimal_common_extensions(mu, rho):
                    for new in (g.compose(lam, alpha), g.compose(tau, beta)):
                        if new not in F:
                            F.add(new)
                            changed = True
    return frozenset(F)


def t_set(g, lam, pi):
    """Non-trivial extension directions of lam inside the closed set pi."""
    out = set()
    for p in pi:
        if p.degree != lam.degree and g.has_prefix(p, lam):
            nu = g.factor(p, lam.degree)[1]
            if not nu.is_vertex():
                out.add(nu)
    return frozenset(out)


def _range_projection_complement(ring, g, v, nus):
    """The span form of prod_nu (s_v - s_nu s_nu^*) at vertex v."""
    acc = vertex_unit(ring, g, v)
    for nu in sorted(nus, key=lambda p: p.sort_key()):
        acc = multiply(acc, vertex_unit(ring, g, v) - generator(ring, nu, nu))
    return acc


def theta(ring, g, lam, mu, pi):
    """The matrix-unit element for an eligible pair in the closed set pi."""
    if lam not in pi or mu not in pi:
        raise PairNotEligible(f"({lam!r}, {mu!r}) not inside the closed set")
    if lam.degree != mu.degree or lam.source != mu.source:
        raise PairNotEligible(f"({lam!r}, {mu!r}) is not degree- and source-matched")
    middle = _range_projection_complement(ring, g, lam.source, t_set(g, lam, pi))
    return multiply(multiply(generator(ring, lam, g.vertex(lam.source)), middle),
                    generator(ring, g.vertex(mu.source), mu))


def expand_core_in_theta(a, pi=None):
    """Express a degree-zero element as a combination of matrix units.

    Returns (pi, coefficients) where coefficients maps eligible pairs to
    ring values such that a = sum coefficients[(lam, mu)] * theta(lam, mu).
    """
    g = a.graph()
    ring = a.ring
    for (lam, mu) in a._terms:
        if lam.degree != mu.degree:
            raise NotCore(f"term ({lam!r}, {mu!r}) has non-zero degree")
    if pi is None:
        pi = pi_closure(g, a.index_paths()) if not a.is_structurally_zero() else frozenset()
    coeffs = {}
    for (lam, mu), r in a._terms.items():
        if lam not in pi or mu not in pi:
            raise IndexEscapesPi(f"index of ({lam!r}, {mu!r}) escapes the closed set")
        extensions = [g.vertex(lam.source)] + sorted(
            t_set(g, lam, pi), key=lambda p: p.sort_key()
        )
        for nu in extensions:
            lnu = g.compose(lam, nu)
            mnu = g.compose(mu, nu)
            if lnu not in pi:
                continue
            assert mnu in pi, "closure must contain the paired extension"
            key = (lnu, mnu)
            cur = coeffs.get(key, ring.zero)
            new = cur + r
            if new == ring.zero:
                coeffs.pop(key, None)
            else:
                coeffs[key] = new
    return pi, coeffs


def core_is_zero(a):
    """Exact zero test for degree-zero elements via the matrix-unit basis.

    A matrix unit vanishes exactly when its extension set is exhaustive at
    the common source; the remaining units are linearly independent.
    """
    if a.is_structurally_zero():
        return True
    g = a.graph()
    pi, coeffs = expand_core_in_theta(a)
    for (lam, mu), c in coeffs.items():
        if c == a.ring.zero:
            continue
        if not g.is_exhaustive(lam.source, t_set(g, lam, pi)):
            return False
    return True


def kp4_defect(ring, g, v, E):
    """The element prod_{lam in E} (s_v - s_lam s_lam^*); zero iff E is
    exhaustive at v (over any ring with 1 != 0)."""
    for lam in E:
        if lam.range != v:
            raise RangeMismatch(f"{lam!r} is not a path at {v!r}")
    return _range_projection_complement(ring, g, v, E)


# ----------------------------------------------------------------------
# zero and equality tests


def is_zero(a):
    """Exact zero test: push each homogeneous part to the groupoid model."""
    from . import groupoid

    return all(groupoid.func_is_zero(groupoid.pi_t(part)) for part in grade(a).values())


def equals(a, b):
    return is_zero(a - b)
