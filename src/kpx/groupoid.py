"""The boundary-path groupoid model as an exact cell calculus.

Compact open subsets of the groupoid are finite disjoint unions of cells
Z(lam * mu \\ G): pairs of boundary paths through lam and mu with matching
tails, minus those extending lam by a member of G.  Functions into a ring
are finite combinations of cell indicators kept in refined (disjoint)
form, which makes the zero test exact; pi_t carries a span-form element
into this model.  One routine cuts a cell by another into intersection
and difference; refinement runs it only within a bucket of cells sharing
shift degree, r(lam) and r(mu), as cells of two are disjoint.  The graph
memoizes each cut of two unequal cells (KGraph._cuts), so a session that
refines the same cells again repeats no search.
"""

from dataclasses import dataclass

from . import degrees
from .errors import DegreeOutOfRange, NotAcyclic, NotField, RangeMismatch
from .kgraph import Path
from .rings import ZZ, text

_NO_AVOID = frozenset()


@dataclass(frozen=True, slots=True)
class Cell:
    """The compact open bisection Z(lam * mu \\ G); always non-empty and
    canonical: build through make_cell."""

    lam: Path
    mu: Path
    avoid: frozenset

    @property
    def graph(self):
        return self.lam.graph

    @property
    def shift_degree(self):
        return degrees.diff(self.lam.degree, self.mu.degree)

    def label(self):
        core = f"{self.lam.label()}*{self.mu.label()}"
        if self.avoid:
            core += "\\" + ";".join(
                nu.label() for nu in sorted(self.avoid, key=Path.sort_key)
            )
        return core

    def __repr__(self):
        return f"Cell({self.label()})"

    def sort_key(self):
        return (
            self.lam.sort_key(),
            self.mu.sort_key(),
            tuple(nu.sort_key() for nu in sorted(self.avoid, key=Path.sort_key)),
        )


def make_cell(lam, mu, avoid=()):
    """Canonicalize a cell; returns None when the set is empty.  Every avoid
    path is checked to lie at s(lam) before the vertex shortcut, and the
    exhaustiveness search gets the canonical set, in which no member
    extends another."""
    g = lam.graph
    if lam.source != mu.source:
        raise RangeMismatch(f"cell base ({lam!r}, {mu!r}) has mismatched sources")
    avoid = g.at(lam.source, avoid)
    if avoid and g.vertex(lam.source) in avoid:
        return None  # subtracting the whole cylinder
    # drop members that extend other members: their cylinders are nested
    canonical = [
        nu
        for nu in avoid
        if not any(o != nu and g.has_prefix(nu, o) for o in avoid)
    ]
    # every cell that avoids nothing shares one empty set, not a new one of
    # some 200 bytes each, since the cut memo keeps cells alive
    canonical = frozenset(canonical) if canonical else _NO_AVOID
    if canonical and g.is_exhaustive(lam.source, canonical):  # the empty set exhausts nothing
        return None
    return Cell(lam=lam, mu=mu, avoid=canonical)


def cell_split(cell, gamma):
    """Partition a cell along an extension direction gamma.

    Returns (avoiding, through): the part missing gamma and the part through
    it, either of which may be None.  make_cell checks r(gamma) before a
    trivial direction is refused.
    """
    g = cell.graph
    avoiding = make_cell(cell.lam, cell.mu, cell.avoid | {gamma})
    if gamma.is_vertex():
        raise DegreeOutOfRange("cannot split along a trivial direction")
    through = make_cell(g.compose(cell.lam, gamma), g.compose(cell.mu, gamma),
                        g.ext(gamma, cell.avoid))
    return avoiding, through


def _common_directions(c1, c2):
    """Pairs (gamma, gamma') steering both bases to a common extension."""
    g = c1.graph
    common = (g.minimal_common_extensions(c1.lam, c2.lam)
              & g.minimal_common_extensions(c1.mu, c2.mu))
    return sorted(common, key=lambda p: (p[0].sort_key(), p[1].sort_key()))


def _cut(c1, c2):
    """(c1 & c2, c1 - c2) as sequences of disjoint cells.  The part of c1 through
    a common direction (gamma, gamma') lies in c2 but for its pieces through
    ext(gamma', c2.avoid), peeled off into the difference (ext(gamma, c1.avoid)
    is already excluded).  A common direction forces equal shift degrees
    (lam1.gamma = lam2.gamma', mu1.gamma = mu2.gamma'), so any pair works.

    Equal cells answer ([c1], []) at once, which is what the loop yields:
    MCE(lam, lam) = {(s(lam), s(lam))} and likewise for mu, so the one common
    direction is the vertex pair and cur = c1; ext(s(lam); G) = G, and each
    nu in G is skipped, as has_prefix(nu, nu) holds for nu in cur.avoid = G
    (no nu is a vertex, or make_cell would have emptied the cell).  That
    answer comes first, as it needs no hash.  Any other pair is looked up in
    the graph's memo, which stores each answer as two tuples, so no caller
    can change it."""
    if c1 == c2:
        return [c1], []
    g = c1.graph
    key = (c1, c2)
    hit = g._cuts.get(key)
    if hit is not None:
        return hit
    inter, diff = [], []
    rem = c1
    for gamma, gamma2 in _common_directions(c1, c2):
        if rem is None:
            break
        if gamma.is_vertex():
            cur, rem = rem, None
        else:
            rem, cur = cell_split(rem, gamma)
        for nu in sorted(g.ext(gamma2, c2.avoid), key=Path.sort_key):
            if cur is None:
                break
            if nu.is_vertex():
                # the trivial direction covers the whole remaining part
                diff.append(cur)
                cur = None
            elif not any(g.has_prefix(nu, o) for o in cur.avoid):
                cur, through = cell_split(cur, nu)
                if through is not None:
                    diff.append(through)
        if cur is not None:
            inter.append(cur)
    if rem is not None:
        diff.append(rem)
    out = g._cuts[key] = tuple(inter), tuple(diff)
    return out


def cell_intersect(c1, c2):
    """The intersection of two cells as a new list of disjoint cells."""
    return list(_cut(c1, c2)[0])


def cell_subtract(c1, c2):
    """The difference c1 minus c2 as a new list of disjoint cells."""
    return list(_cut(c1, c2)[1])


def disjointify(cells):
    """The common refinement: disjoint cells with the same union, splitting
    every overlap into its own cell.  Over ZZ with every coefficient 1
    nothing cancels, so this is the support of the sum of the indicators."""
    return [cell for _, cell in func_from_terms(ZZ, [(1, c) for c in cells]).terms]


# ----------------------------------------------------------------------
# locally constant functions


@dataclass(frozen=True)
class SteinbergFunction:
    """A function with finite range: coefficients on pairwise disjoint cells."""

    ring: object
    terms: tuple  # of (coefficient, Cell), sorted by cell

    def is_zero(self):
        return not self.terms

    def label(self):
        if not self.terms:
            return "0"
        return " + ".join(f"{text(c)}*1[{cell.label()}]" for c, cell in self.terms)

    def __repr__(self):
        return f"SteinbergFunction({self.label()})"


def func_from_terms(ring, weighted_cells):
    """Canonicalize a combination of cell indicators into disjoint form.  Cells
    differing in shift degree, r(lam) or r(mu) are disjoint, so each such
    bucket is refined on its own.  No coefficient is checked (Ring.value):
    pi_t and disjointify pass ring values only, and is_zero would pay twice."""
    buckets = {}  # (shift degree, r(lam), r(mu)) -> disjoint (coeff, cell) pairs
    for coeff, cell in weighted_cells:
        if cell is None or coeff == ring.zero:
            continue
        key = (cell.shift_degree, cell.lam.range, cell.mu.range)
        entries, rem = [], [cell]
        for s, a in buckets.get(key, ()):
            inter, diff = _cut(a, cell)
            if s + coeff != ring.zero:
                entries += [(s + coeff, piece) for piece in inter]
            entries += [(s, piece) for piece in diff]
            rem = [q for p in rem for q in _cut(p, a)[1]]
        buckets[key] = entries + [(coeff, piece) for piece in rem]
    entries = [t for bucket in buckets.values() for t in bucket]
    entries.sort(key=lambda t: t[1].sort_key())
    return SteinbergFunction(ring=ring, terms=tuple(entries))


# ----------------------------------------------------------------------
# transport from span form to the groupoid model


def pi_t(a):
    """The span form as a function: each s_lam s_mu^* becomes 1[Z(lam*mu)]."""
    terms = []
    for (lam, mu), coeff in a.items():
        terms.append((coeff, make_cell(lam, mu)))
    return func_from_terms(a.ring, terms)


def dim_over_field(g, ring):
    """The dimension of KP_R(Lambda) over a field R for an acyclic graph: the
    number of groupoid elements, i.e. the sum of squared orbit sizes.

    The orbit of a sink w holds one boundary path per path with source w
    (boundary.orbits), so its size is count_paths_to(w), an exact count
    that builds no path."""
    if not ring.is_field:
        raise NotField(f"{ring!r} is not a field")
    if not g.is_acyclic():
        raise NotAcyclic("dimension is finite only for acyclic graphs")
    return sum(g.count_paths_to(w) ** 2 for w in g.sinks())
