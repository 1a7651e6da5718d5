"""Exact arithmetic in the Kumjian-Pask algebra of a finite rank-k graph.

Elements are kept in span form: finite R-linear combinations of products
s_lam * s_mu^* indexed by path pairs with a common source.  Words in the
generators are reduced to span form with the defining relations; products
of span forms are computed with the minimal-common-extension rule.
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
            for key, coeff in terms.items() if isinstance(terms, dict) else terms:
                self._add_term(key, coeff)

    def _add_term(self, key, coeff):
        lam, mu = key
        if lam.source != mu.source:
            raise NotComposable(f"pair ({lam!r}, {mu!r}) has mismatched sources")
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
            out._add_term(key, coeff)
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
    """Rewrite a linear combination of generator words into span form.

    Each word is a non-empty list of PathSym/GhostSym factors.  The rules:
    adjacent path symbols compose (or annihilate), adjacent ghost symbols
    compose contravariantly, and a ghost followed by a path symbol expands
    through minimal common extensions.
    """
    out = SpanForm(ring)
    stack = [(coeff, list(word)) for coeff, word in weighted_words]
    while stack:
        coeff, word = stack.pop()
        if coeff == ring.zero:
            continue
        if not word:
            raise NotComposable("empty generator word")
        g = word[0].path.graph
        # ghosts of vertices are plain vertex idempotents
        word = [
            PathSym(f.path) if isinstance(f, GhostSym) and f.path.is_vertex() else f
            for f in word
        ]
        rewritten = False
        for i in range(len(word) - 1):
            a, b = word[i], word[i + 1]
            if isinstance(a, PathSym) and isinstance(b, PathSym):
                if a.path.source != b.path.range:
                    rewritten = True  # orthogonal: the whole word is zero
                    word = None
                    break
                word[i : i + 2] = [PathSym(g.compose(a.path, b.path))]
                stack.append((coeff, word))
                rewritten = True
                break
            if isinstance(a, GhostSym) and isinstance(b, GhostSym):
                if b.path.source != a.path.range:
                    rewritten = True
                    word = None
                    break
                word[i : i + 2] = [GhostSym(g.compose(b.path, a.path))]
                stack.append((coeff, word))
                rewritten = True
                break
            if isinstance(a, GhostSym) and isinstance(b, PathSym):
                pairs = g.minimal_common_extensions(a.path, b.path)
                for rho, tau in pairs:
                    expansion = []
                    if not rho.is_vertex():
                        expansion.append(PathSym(rho))
                    if not tau.is_vertex():
                        expansion.append(GhostSym(tau))
                    if not expansion:
                        expansion = [PathSym(g.vertex(a.path.source))]
                    stack.append((coeff, word[:i] + expansion + word[i + 2 :]))
                rewritten = True
                word = None
                break
        if rewritten:
            continue
        # now: zero or more path symbols followed by ghost symbols;
        # after fusion the word is one of s_lam, g_mu, or s_lam g_mu
        if word is None:
            continue
        paths = [f for f in word if isinstance(f, PathSym)]
        ghosts = [f for f in word if isinstance(f, GhostSym)]
        assert len(paths) <= 1 and len(ghosts) <= 1
        if paths and ghosts:
            lam, mu = paths[0].path, ghosts[0].path
            if lam.source != mu.source:
                continue  # orthogonal vertex idempotents in the middle
        elif paths:
            lam = paths[0].path
            mu = g.vertex(lam.source)
        else:
            mu = ghosts[0].path
            lam = g.vertex(mu.source)
        out._add_term((lam, mu), coeff)
    return out


def multiply(a, b):
    """The product of two span forms via minimal common extensions."""
    ring = a.ring
    out = SpanForm(ring)
    for (lam, mu), r in a._terms.items():
        g = lam.graph
        for (rho, tau), s in b._terms.items():
            for m1, r1 in g.minimal_common_extensions(mu, rho):
                out._add_term((g.compose(lam, m1), g.compose(tau, r1)), r * s)
    return out


def grade(a):
    """Split into homogeneous parts keyed by d(lam) - d(mu) in Z^k."""
    parts = {}
    for (lam, mu), coeff in a._terms.items():
        key = degrees.diff(lam.degree, mu.degree)
        parts.setdefault(key, SpanForm(a.ring))._add_term((lam, mu), coeff)
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
