"""The boundary-path groupoid model as an exact cell calculus.

Compact open subsets of the groupoid are finite disjoint unions of cells
Z(lam * mu \\ G): pairs of boundary paths through lam and mu with matching
tails, minus those extending lam by a member of G.  Functions into a ring
are finite combinations of cell indicators kept in refined (disjoint)
form, which makes the zero test exact; multiplication of algebra elements
transports through this model.
"""

from dataclasses import dataclass

from . import algebra, boundary, degrees
from .errors import (
    DegreeOutOfRange,
    NotAcyclic,
    NotField,
    RangeMismatch,
)
from .kgraph import Path
from .rings import ZZ


@dataclass(frozen=True)
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
    """Canonicalize a cell; returns None when the set is empty."""
    g = lam.graph
    if lam.source != mu.source:
        raise RangeMismatch(f"cell base ({lam!r}, {mu!r}) has mismatched sources")
    kept = []
    for nu in avoid:
        if nu.range != lam.source:
            raise RangeMismatch(f"{nu!r} is not a path at {lam.source!r}")
        if nu.is_vertex():
            return None  # subtracting the whole cylinder
        kept.append(nu)
    # drop members that extend other members: their cylinders are nested
    canonical = [
        nu
        for nu in kept
        if not any(o != nu and g.has_prefix(nu, o) for o in kept)
    ]
    canonical = frozenset(canonical)
    if g.is_exhaustive(lam.source, canonical):
        return None
    return Cell(lam=lam, mu=mu, avoid=canonical)


def cell_split(cell, gamma):
    """Partition a cell along an extension direction gamma.

    Returns (avoiding, through): the part missing gamma and the part through
    it, either of which may be None.
    """
    g = cell.graph
    if gamma.range != cell.lam.source:
        raise RangeMismatch(f"{gamma!r} is not a path at {cell.lam.source!r}")
    if gamma.is_vertex():
        raise DegreeOutOfRange("cannot split along a trivial direction")
    avoiding = make_cell(cell.lam, cell.mu, cell.avoid | {gamma})
    through = make_cell(
        g.compose(cell.lam, gamma),
        g.compose(cell.mu, gamma),
        g.ext(gamma, cell.avoid),
    )
    return avoiding, through


def _common_directions(c1, c2):
    """Pairs (gamma, gamma') steering both bases to a common extension."""
    g = c1.graph
    first = g.minimal_common_extensions(c1.lam, c2.lam)
    second = g.minimal_common_extensions(c1.mu, c2.mu)
    return sorted(first & second, key=lambda p: (p[0].sort_key(), p[1].sort_key()))


def cell_intersect(c1, c2):
    """The intersection of two cells as a list of disjoint cells."""
    if c1.shift_degree != c2.shift_degree:
        return []
    g = c1.graph
    out = []
    for gamma, gamma2 in _common_directions(c1, c2):
        piece = make_cell(
            g.compose(c1.lam, gamma),
            g.compose(c2.mu, gamma2),
            g.ext(gamma, c1.avoid) | g.ext(gamma2, c2.avoid),
        )
        if piece is not None:
            out.append(piece)
    return out


def _subtract_same_base(cell, extra_avoid):
    """Pieces of the cell hitting some direction in extra_avoid.

    The complement Z(base \\ avoid+extra_avoid) is discarded by the caller.
    """
    pieces = []
    cur = cell
    for nu in sorted(extra_avoid, key=Path.sort_key):
        if cur is None:
            break
        if nu.is_vertex():
            # the trivial direction covers the whole remaining cell
            pieces.append(cur)
            cur = None
            break
        if any(cur.graph.has_prefix(nu, o) for o in cur.avoid):
            continue  # already excluded
        avoiding, through = cell_split(cur, nu)
        if through is not None:
            pieces.append(through)
        cur = avoiding
    return pieces


def cell_subtract(c1, c2):
    """The difference c1 minus c2 as a list of disjoint cells."""
    if c1.shift_degree != c2.shift_degree:
        return [c1]
    g = c1.graph
    out = []
    rem = c1
    for gamma, gamma2 in _common_directions(c1, c2):
        if rem is None:
            break
        inter_avoid = g.ext(gamma, c1.avoid) | g.ext(gamma2, c2.avoid)
        if gamma.is_vertex():
            through, rem = rem, None
        else:
            rem, through = cell_split(rem, gamma)
        if through is not None:
            out.extend(_subtract_same_base(through, inter_avoid))
    if rem is not None:
        out.append(rem)
    return out


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
        return " + ".join(f"{c}*1[{cell.label()}]" for c, cell in self.terms)

    def __repr__(self):
        return f"SteinbergFunction({self.label()})"


def func_from_terms(ring, weighted_cells):
    """Canonicalize a combination of cell indicators into disjoint form."""
    entries = []  # disjoint (coeff, cell) pairs
    for coeff, cell in weighted_cells:
        if cell is None or coeff == ring.zero:
            continue
        new_entries = []
        rem = [cell]
        for s, a in entries:
            for piece in cell_intersect(a, cell):
                total = s + coeff
                if total != ring.zero:
                    new_entries.append((total, piece))
            for piece in cell_subtract(a, cell):
                new_entries.append((s, piece))
            rem = [q for p in rem for q in cell_subtract(p, a)]
        for piece in rem:
            new_entries.append((coeff, piece))
        entries = new_entries
    entries.sort(key=lambda t: t[1].sort_key())
    return SteinbergFunction(ring=ring, terms=tuple(entries))


def func_is_zero(f):
    return f.is_zero()


def func_add(f, g):
    return func_from_terms(f.ring, list(f.terms) + list(g.terms))


def func_neg(f):
    return SteinbergFunction(ring=f.ring, terms=tuple((-c, cell) for c, cell in f.terms))


def func_sub(f, g):
    return func_add(f, func_neg(g))


def func_equal(f, g):
    return func_is_zero(func_sub(f, g))


# ----------------------------------------------------------------------
# transport between the algebra and the groupoid model


def pi_t(a):
    """The span form as a function: each s_lam s_mu^* becomes 1[Z(lam*mu)]."""
    terms = []
    for (lam, mu), coeff in a.items():
        terms.append((coeff, make_cell(lam, mu)))
    return func_from_terms(a.ring, terms)


def pi_t_inv(f):
    """The algebra element of a cell function:
    1[Z(lam*mu\\G)] = s_lam (prod_nu (s_w - s_nu s_nu^*)) s_mu^*."""
    out = None
    ring = f.ring
    for coeff, cell in f.terms:
        g = cell.graph
        w = cell.lam.source
        middle = algebra._range_projection_complement(ring, g, w, cell.avoid)
        piece = algebra.multiply(
            algebra.multiply(algebra.generator(ring, cell.lam, g.vertex(w)), middle),
            algebra.generator(ring, g.vertex(w), cell.mu),
        ).scale(coeff)
        out = piece if out is None else out + piece
    return out if out is not None else algebra.SpanForm(ring)


def convolve(f, g):
    """Convolution of cell functions, transported through the algebra."""
    return pi_t(algebra.multiply(pi_t_inv(f), pi_t_inv(g)))


# ----------------------------------------------------------------------
# pointwise model on acyclic graphs


@dataclass(frozen=True)
class GroupoidElement:
    """A boundary-path groupoid element (x, m, y): some shifts of x and y
    agree with degree offset m."""

    x: boundary.BoundaryPath
    m: tuple
    y: boundary.BoundaryPath

    def label(self):
        return f"({self.x.label()}, {self.m}, {self.y.label()})"

    def __repr__(self):
        return f"GroupoidElement{self.label()}"

    def sort_key(self):
        return (self.x.sort_key(), self.m, self.y.sort_key())


def make_element(x, m, y):
    """Validate and build a groupoid element from finite boundary paths.

    (x, m, y) is one iff s(x) = s(y) and m = d(x) - d(y): equal finite tails
    shift(x, p) = shift(y, q) have equal degrees, so d(x) - p = d(y) - q with
    m = p - q; conversely p = d(x), q = d(y) both leave the tail s(x) = s(y)."""
    if x.source != y.source or m != degrees.diff(x.degree, y.degree):
        raise DegreeOutOfRange(f"({x!r}, {m}, {y!r}) is not a groupoid element")
    return GroupoidElement(x=x, m=m, y=y)


def enumerate_groupoid(g):
    """All groupoid elements of an acyclic graph, sorted."""
    if not g.is_acyclic():
        raise NotAcyclic("pointwise enumeration requires an acyclic graph")
    paths = boundary.enumerate_boundary(g)
    out = []
    for x in paths:
        for y in paths:
            if x.source != y.source:
                continue
            offsets = set()
            for p in degrees.below(x.degree):
                for q in degrees.below(y.degree):
                    if boundary.shift(x, p) == boundary.shift(y, q):
                        offsets.add(degrees.diff(p, q))
            for m in sorted(offsets):
                out.append(GroupoidElement(x=x, m=m, y=y))
    return sorted(out, key=GroupoidElement.sort_key)


def element_in_cell(el, cell):
    g = cell.graph
    if el.m != cell.shift_degree:
        return False
    if not boundary.has_path_prefix(el.x, cell.lam):
        return False
    if not boundary.has_path_prefix(el.y, cell.mu):
        return False
    if boundary.shift(el.x, cell.lam.degree) != boundary.shift(el.y, cell.mu.degree):
        return False
    for nu in cell.avoid:
        if boundary.has_path_prefix(el.x, g.compose(cell.lam, nu)):
            return False
    return True


def eval_function(f, el):
    total = f.ring.zero
    for coeff, cell in f.terms:
        if element_in_cell(el, cell):
            total = total + coeff
    return total


def dim_over_field(g, ring):
    """The dimension of the algebra over a field for an acyclic graph: the
    number of groupoid elements, i.e. the sum of squared orbit sizes."""
    if not ring.is_field:
        raise NotField(f"{ring!r} is not a field")
    if not g.is_acyclic():
        raise NotAcyclic("dimension is finite only for acyclic graphs")
    return sum(len(orbit) ** 2 for orbit in boundary.orbits(g))
