"""Finite higher-rank graphs presented by colored skeletons with squares.

A rank-k graph is presented by a k-colored digraph together with a complete
collection of commuting squares pairing each bicolored edge path with its
factorization in the opposite color order.  Paths are stored in a normal
form where edge colors appear in non-decreasing order; the squares are the
rewriting rules that transport any edge word into that normal form.  Path
sets (exact degree, degree box, relative boundary, all paths) all come from
one enumerator that grows normal-form words one color at a time.
"""

import collections
import itertools
from dataclasses import dataclass, field

from . import degrees
from .errors import (
    BadSquare,
    CubeInconsistent,
    DegreeOutOfRange,
    InvalidSpec,
    MissingEndpoint,
    NotAcyclic,
    NotBijective,
    NotComposable,
    RangeMismatch,
    UnknownId,
)


@dataclass(frozen=True)
class Edge:
    id: str
    color: int
    range: str
    source: str


@dataclass(frozen=True)
class Square:
    """A commuting square: the path first[0]*first[1] equals second[0]*second[1].

    ``first`` lists the lower color first; ``second`` lists the higher color
    first.  Both sides are composable two-edge words for the same morphism.
    """

    first: tuple
    second: tuple


@dataclass(frozen=True)
class KGraphSpec:
    k: int
    vertices: tuple
    edges: tuple
    squares: tuple


@dataclass(frozen=True, slots=True)
class Path:
    """A morphism in normal form: a range vertex plus a color-sorted edge word."""

    graph: "KGraph" = field(compare=False, repr=False)
    range: str
    edges: tuple

    @property
    def source(self):
        if not self.edges:
            return self.range
        return self.graph.edge(self.edges[-1]).source

    @property
    def degree(self):
        d = [0] * self.graph.k
        for eid in self.edges:
            d[self.graph.edge(eid).color - 1] += 1
        return tuple(d)

    def is_vertex(self):
        return not self.edges

    def label(self):
        return self.range if not self.edges else ".".join(self.edges)

    def __repr__(self):
        return f"Path({self.label()})"

    def sort_key(self):
        return (len(self.edges), self.edges, self.range)


class KGraph:
    """A validated finite rank-k graph."""

    def __init__(self, spec):
        self.k = spec.k
        self.vertices = tuple(spec.vertices)
        self._edges = {e.id: e for e in spec.edges}
        self.squares = tuple(spec.squares)
        # swap tables between the two orientations of a bicolored word
        self._to_colormajor = {}    # (hi, lo) word -> (lo, hi) word
        self._from_colormajor = {}  # (lo, hi) word -> (hi, lo) word
        for sq in self.squares:
            self._from_colormajor[sq.first] = sq.second
            self._to_colormajor[sq.second] = sq.first
        self._out = {}  # (vertex, color) -> sorted edge ids with that range
        for v in self.vertices:
            for c in range(1, self.k + 1):
                self._out[(v, c)] = []
        for eid in sorted(self._edges):
            e = self._edges[eid]
            self._out[(e.range, e.color)].append(eid)
        # derived caches, which live as long as the graph
        self._all_paths_cache = None
        self._acyclic = None
        self._mce = {}  # (lam, mu) -> minimal_common_extensions(lam, mu)
        self._boundary = None  # filled by boundary.enumerate_boundary

    @property
    def spec(self):
        """The specification this graph was built from."""
        return KGraphSpec(
            self.k,
            self.vertices,
            tuple(self._edges[eid] for eid in sorted(self._edges)),
            self.squares,
        )

    # ------------------------------------------------------------------
    # construction and validation

    @classmethod
    def validate(cls, spec):
        """Check a specification and return the graph, raising diagnostics."""
        if spec.k < 1:
            raise InvalidSpec(f"rank must be >= 1, got {spec.k}")
        vset = set()
        for v in spec.vertices:
            if v in vset:
                raise InvalidSpec(f"duplicate vertex id {v!r}")
            vset.add(v)
        eids = {}
        for e in spec.edges:
            if e.id in eids or e.id in vset:
                raise InvalidSpec(f"duplicate id {e.id!r}")
            if "." in e.id:  # path labels join edge ids with '.'
                raise InvalidSpec(f"edge id {e.id!r} contains '.'")
            if not 1 <= e.color <= spec.k:
                raise InvalidSpec(f"edge {e.id!r} has color {e.color} outside 1..{spec.k}")
            if e.range not in vset:
                raise MissingEndpoint(f"edge {e.id!r} has unknown range {e.range!r}")
            if e.source not in vset:
                raise MissingEndpoint(f"edge {e.id!r} has unknown source {e.source!r}")
            eids[e.id] = e

        def check_pair(pair, increasing, sq):
            a, b = pair
            if a not in eids or b not in eids:
                raise BadSquare(f"square {sq} refers to unknown edge")
            ea, eb = eids[a], eids[b]
            if ea.source != eb.range:
                raise BadSquare(f"square side {pair} is not composable")
            if increasing and not ea.color < eb.color:
                raise BadSquare(f"square side {pair} must list the lower color first")
            if not increasing and not ea.color > eb.color:
                raise BadSquare(f"square side {pair} must list the higher color first")
            return ea, eb

        seen_first = {}
        seen_second = {}
        for sq in spec.squares:
            e, f = check_pair(sq.first, True, sq)
            f2, e2 = check_pair(sq.second, False, sq)
            if {e.color, f.color} != {f2.color, e2.color}:
                raise BadSquare(f"square {sq} mixes color pairs")
            if e.range != f2.range or f.source != e2.source:
                raise BadSquare(f"square {sq} endpoints do not match")
            if sq.first in seen_first:
                raise NotBijective(f"edge pair {sq.first} appears in two squares")
            if sq.second in seen_second:
                raise NotBijective(f"edge pair {sq.second} appears in two squares")
            seen_first[sq.first] = sq
            seen_second[sq.second] = sq

        # every composable bicolored pair must occur on exactly one square side
        for a, b in itertools.product(eids.values(), repeat=2):
            if a.color == b.color or a.source != b.range:
                continue
            pair = (a.id, b.id)
            table = seen_first if a.color < b.color else seen_second
            if pair not in table:
                raise NotBijective(f"edge pair {pair} is not covered by any square")

        graph = cls(spec)
        if spec.k >= 3:
            graph._check_cubes()
        return graph

    def _check_cubes(self):
        """Tricolored words must normalize identically along both swap orders."""
        for x in self._edges.values():
            for y in self._edges.values():
                if y.range != x.source or y.color >= x.color:
                    continue
                for z in self._edges.values():
                    if z.range != y.source or z.color >= y.color:
                        continue
                    w = [x.id, y.id, z.id]
                    a = self._normalize_word(w)
                    b = self._normalize_word(
                        [x.id, *self._to_colormajor[(y.id, z.id)]]
                    )
                    if a != b:
                        raise CubeInconsistent(
                            f"word {w} normalizes to both {a} and {b}"
                        )

    # ------------------------------------------------------------------
    # basic accessors

    def edge(self, eid):
        try:
            return self._edges[eid]
        except KeyError:
            raise UnknownId(f"unknown edge id {eid!r}") from None

    def edge_ids(self):
        return sorted(self._edges)

    def out_edges(self, v, color=None):
        if color is not None:
            return list(self._out[(v, color)])
        out = []
        for c in range(1, self.k + 1):
            out.extend(self._out[(v, c)])
        return out

    def vertex(self, v):
        if v not in self.vertices:
            raise UnknownId(f"unknown vertex id {v!r}")
        return Path(self, v, ())

    def path(self, edge_ids):
        """Build a path from a composable edge word and normalize it."""
        ids = list(edge_ids)
        if not ids:
            raise UnknownId("empty edge word; use vertex() for vertex paths")
        edges = [self.edge(eid) for eid in ids]
        for a, b in zip(edges, edges[1:]):
            if a.source != b.range:
                raise NotComposable(f"edges {a.id} and {b.id} do not compose")
        word = self._normalize_word(ids)
        return Path(self, edges[0].range, tuple(word))

    def parse_path(self, text):
        """Parse a path literal: a vertex id or dot-joined edge ids."""
        if text in self.vertices:
            return self.vertex(text)
        return self.path(text.split("."))

    # ------------------------------------------------------------------
    # normal form machinery

    def _sort_word(self, word, keys):
        """Bubble-sort an edge word into key order through the squares.

        ``keys[i]`` belongs to ``word[i]`` and moves with it.  The keys of
        the edges of one color must already be in order, so only edges of
        different colors are swapped and edges of one color keep their order.
        """
        w = list(word)
        keys = list(keys)
        changed = True
        while changed:
            changed = False
            for i in range(len(w) - 1):
                if keys[i] <= keys[i + 1]:
                    continue
                pair = (w[i], w[i + 1])
                if self._edges[pair[0]].color > self._edges[pair[1]].color:
                    table = self._to_colormajor
                else:
                    table = self._from_colormajor
                try:
                    w[i], w[i + 1] = table[pair]
                except KeyError:
                    raise NotBijective(
                        f"no square covers the edge pair {pair}"
                    ) from None
                keys[i], keys[i + 1] = keys[i + 1], keys[i]
                changed = True
        return w

    def _normalize_word(self, word):
        """Sort an edge word into non-decreasing color order via squares."""
        return self._sort_word(word, [self.edge(eid).color for eid in word])

    def compose(self, lam, mu):
        if lam.source != mu.range:
            raise NotComposable(f"{lam!r} and {mu!r} do not compose")
        if not lam.edges:
            return mu
        if not mu.edges:
            return lam
        word = self._normalize_word(list(lam.edges) + list(mu.edges))
        return Path(self, lam.range, tuple(word))

    def factor(self, lam, m):
        """Split lam into its unique prefix of degree m and the rest.

        The j-th color-c edge (counting from 0) gets the key
        (j >= m[c-1], c): sorting by it moves the first m[c-1] edges of each
        color c to the front, and both halves come out color-sorted.
        """
        if not degrees.le(m, lam.degree):
            raise DegreeOutOfRange(f"{m} exceeds degree {lam.degree}")
        seen = [0] * self.k
        keys = []
        for eid in lam.edges:
            c = self._edges[eid].color
            keys.append((seen[c - 1] >= m[c - 1], c))
            seen[c - 1] += 1
        word = self._sort_word(lam.edges, keys)
        cut = sum(m)
        prefix = Path(self, lam.range, tuple(word[:cut]))
        return prefix, Path(self, prefix.source, tuple(word[cut:]))

    def segment(self, lam, m, n):
        """The factor lam(m, n) for m <= n <= d(lam)."""
        if not degrees.le(m, n):
            raise DegreeOutOfRange(f"segment needs {m} <= {n}")
        prefix, _ = self.factor(lam, n)
        return self.factor(prefix, m)[1]

    def vertex_at(self, lam, m):
        """The vertex lam(m) visited at internal degree m."""
        return self.factor(lam, m)[0].source

    def has_prefix(self, lam, mu):
        """True iff mu is the degree-d(mu) prefix of lam."""
        if not degrees.le(mu.degree, lam.degree) or lam.range != mu.range:
            return False
        return self.factor(lam, mu.degree)[0] == mu

    # ------------------------------------------------------------------
    # path enumeration

    def _grow(self, v, lo, hi):
        """All paths with range v and lo <= degree <= hi.

        A normal-form word lists its color-1 edges first, then its color-2
        edges, and so on, so the words grow one color at a time with no
        rewriting, and color c keeps its levels lo[c-1]..hi[c-1].  A color
        stops once no word extends, so a huge bound costs nothing where no
        path exists.  When lo == hi the words come out sorted.
        """
        if v not in self.vertices:
            raise UnknownId(f"unknown vertex id {v!r}")
        if any(c < 0 for c in hi) or any(hi[self.k:]):
            raise DegreeOutOfRange(f"degree {hi} is not in N^{self.k}")
        out, edges = self._out, self._edges
        words = [((), v)]  # (edge word, source)
        for color, (low, high) in enumerate(zip(lo, hi), start=1):
            kept = words if low == 0 else []
            count = 0
            while words and count < high:
                words = [(word + (eid,), edges[eid].source)
                         for word, w in words for eid in out[(w, color)]]
                count += 1
                if count == low:
                    kept = words
                elif count > low:
                    kept += words
            words = kept
        return [Path(self, v, word) for word, _ in words]

    def paths_from(self, v, n):
        """All paths with range v and degree exactly n, sorted."""
        return self._grow(v, n, n)

    def paths_upto(self, v, n):
        """All paths with range v and degree <= n, sorted."""
        return sorted(self._grow(v, (0,) * len(n), n), key=Path.sort_key)

    def paths_leq(self, v, n):
        """The relative boundary set: paths of degree <= n that cannot be
        extended in any color where the degree falls short of n."""
        return [
            lam for lam in self.paths_upto(v, n)
            if not any(d < m and self._out[(lam.source, c)]
                       for c, (d, m) in enumerate(zip(lam.degree, n), start=1))
        ]

    def all_paths(self):
        """Every path in an acyclic graph, sorted (cached; a new list each call)."""
        if self._all_paths_cache is None:
            if not self.is_acyclic():
                raise NotAcyclic("the path category of a cyclic graph is infinite")
            top = (len(self.vertices),) * self.k  # more edges than any path has
            paths = [lam for v in self.vertices for lam in self._grow(v, (0,) * self.k, top)]
            self._all_paths_cache = tuple(sorted(paths, key=Path.sort_key))
        return list(self._all_paths_cache)

    def paths_at(self, v):
        """All paths with range v (acyclic graphs), sorted."""
        return [lam for lam in self.all_paths() if lam.range == v]

    # ------------------------------------------------------------------
    # common extensions

    def minimal_common_extensions(self, lam, mu):
        """All pairs (rho, tau) with lam*rho = mu*tau of degree d(lam) v d(mu).

        Memoized per graph for paths with one range: the result is an
        immutable frozenset.
        """
        if lam.range != mu.range:
            return frozenset()
        key = (lam, mu)
        out = self._mce.get(key)
        if out is not None:
            return out
        if lam.edges:
            top = degrees.join(lam.degree, mu.degree)
            candidates = self.paths_from(lam.source, degrees.sub(top, lam.degree))
        else:  # from a vertex the only candidate extension is mu itself
            candidates = (mu,)
        out = set()
        for rho in candidates:
            ext = self.compose(lam, rho)
            head, tau = self.factor(ext, mu.degree)
            if head == mu:
                out.add((rho, tau))
        out = self._mce[key] = frozenset(out)
        return out

    def mce(self, lam, mu):
        """The minimal common extensions themselves, sorted."""
        exts = {self.compose(lam, rho) for rho, _ in self.minimal_common_extensions(lam, mu)}
        return sorted(exts, key=Path.sort_key)

    def ext(self, lam, E):
        """Union of first components of minimal-extension pairs against E."""
        for mu in E:
            if mu.range != lam.range:
                raise RangeMismatch(f"{mu!r} does not share range with {lam!r}")
        out = set()
        for mu in E:
            for rho, _ in self.minimal_common_extensions(lam, mu):
                out.add(rho)
        return frozenset(out)

    # ------------------------------------------------------------------
    # exhaustive sets

    def exhaustiveness_witness(self, v, E):
        """A path gamma in v*Lambda with no common extension with any member
        of E, or None if E is exhaustive at v.

        Works by a breadth-first search over states (vertex, obligation
        set): a witness through a first edge a must avoid every path in the
        minimal-extension transfer of the obligations along a.  Degrees of
        obligations never increase, so the state space is finite even on
        cyclic graphs.  Successors are visited in out_edges order, so the
        witness returned is the lexicographically first of the shortest ones.
        """
        E = frozenset(E)
        for mu in E:
            if mu.range != v:
                raise RangeMismatch(f"{mu!r} is not a path at {v!r}")
        start = (v, E)
        parent = {start: None}  # state -> (previous state, edge id)
        queue = collections.deque([start])
        while queue:
            state = queue.popleft()
            w, S = state
            if not S:  # witness found: walk the parent pointers back
                word = []
                while parent[state] is not None:
                    state, eid = parent[state]
                    word.append(eid)
                return self.path(word[::-1]) if word else self.vertex(v)
            if any(p.is_vertex() for p in S):
                continue  # dead: the vertex meets everything
            for eid in self.out_edges(w):
                a = self.path([eid])
                nxt = (a.source, self.ext(a, S))
                if nxt not in parent:
                    parent[nxt] = (state, eid)
                    queue.append(nxt)
        return None

    def is_exhaustive(self, v, E):
        """True iff every path at v has a common extension with a member of E."""
        return self.exhaustiveness_witness(v, E) is None

    def finite_exhaustive_sets(self, v, max_size, max_degree):
        """All exhaustive subsets of {lam in v*Lambda \\ {v} : d(lam) <= bound}
        with at most max_size elements, sorted."""
        candidates = [
            lam for lam in self.paths_upto(v, max_degree) if not lam.is_vertex()
        ]
        out = []
        for size in range(1, max_size + 1):
            for combo in itertools.combinations(candidates, size):
                E = frozenset(combo)
                if self.is_exhaustive(v, E):
                    out.append(E)
        return out

    # ------------------------------------------------------------------
    # predicates

    def is_acyclic(self):
        if self._acyclic is None:
            self._acyclic = not self.reaches_cycle(self.vertices)
        return self._acyclic

    def reaches_cycle(self, roots):
        """True iff some path from a vertex in roots runs into a cycle."""
        color = {}  # absent new, 1 open, 2 done
        for v0 in roots:
            if v0 in color:
                continue
            stack = [(v0, iter(self.out_edges(v0)))]
            color[v0] = 1
            while stack:
                v, it = stack[-1]
                eid = next(it, None)
                if eid is None:
                    color[v] = 2
                    stack.pop()
                    continue
                w = self.edge(eid).source
                if color.get(w) == 1:
                    return True
                if w not in color:
                    color[w] = 1
                    stack.append((w, iter(self.out_edges(w))))
        return False

    def has_sources(self):
        """True iff some vertex receives no edge of some color."""
        return any(
            not self._out[(v, c)]
            for v in self.vertices
            for c in range(1, self.k + 1)
        )

    def is_locally_convex(self):
        for v in self.vertices:
            for i in range(1, self.k + 1):
                for j in range(1, self.k + 1):
                    if i == j:
                        continue
                    for eid in self._out[(v, i)]:
                        if self._out[(v, j)] and not self._out[(self.edge(eid).source, j)]:
                            return False
        return True

    def predicates(self):
        return {
            "acyclic": self.is_acyclic(),
            "has_sources": self.has_sources(),
            "locally_convex": self.is_locally_convex(),
            "row_finite": True,
        }

    def reachable(self, v):
        """Vertices w with a path from range v to source w, including v."""
        seen = {v}
        stack = [v]
        while stack:
            w = stack.pop()
            for eid in self.out_edges(w):
                u = self.edge(eid).source
                if u not in seen:
                    seen.add(u)
                    stack.append(u)
        return seen

    def max_path_degree(self):
        """Componentwise maximum degree over all paths (acyclic graphs)."""
        top = degrees.zero(self.k)
        for lam in self.all_paths():
            top = degrees.join(top, lam.degree)
        return top


def omega_graph(m):
    """The rank-k lattice segment graph: vertices are tuples p <= m, with one
    color-i edge from p to p + e_i whenever that stays below m."""
    k = len(m)

    def name(p):
        return ",".join(str(c) for c in p)

    verts = [tuple(p) for p in degrees.below(m)]
    edges = []
    for p in verts:
        for i in range(1, k + 1):
            q = degrees.add(p, degrees.unit(k, i))
            if degrees.le(q, m):
                edges.append(
                    Edge(id=f"{name(p)}>{name(q)}", color=i, range=name(p), source=name(q))
                )
    eid = {(e.range, e.source): e.id for e in edges}
    squares = []
    for p in verts:
        for i in range(1, k + 1):
            for j in range(i + 1, k + 1):
                pi = degrees.add(p, degrees.unit(k, i))
                pj = degrees.add(p, degrees.unit(k, j))
                pij = degrees.add(pi, degrees.unit(k, j))
                if not degrees.le(pij, m):
                    continue
                squares.append(
                    Square(
                        first=(eid[(name(p), name(pi))], eid[(name(pi), name(pij))]),
                        second=(eid[(name(p), name(pj))], eid[(name(pj), name(pij))]),
                    )
                )
    spec = KGraphSpec(k=k, vertices=tuple(name(p) for p in verts),
                      edges=tuple(edges), squares=tuple(squares))
    return KGraph.validate(spec)
