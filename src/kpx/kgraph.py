"""Finite higher-rank graphs presented by colored skeletons with squares.

A rank-k graph is presented by a k-colored digraph together with a complete
collection of commuting squares pairing each bicolored edge path with its
factorization in the opposite color order.  Paths are stored in a normal
form where edge colors appear in non-decreasing order; the squares are the
rewriting rules that transport any edge word into that normal form.  Path
sets by range (exact degree, degree box, relative boundary, all paths) all
come from one enumerator that grows normal-form words one color at a time;
the paths with a given source grow from that source, one edge at a time.
One counted walk back along the edges (Kahn's rule) gives the peel order,
``reaching`` and T* (``t_star``).  The graph owns every derived cache; the
source index (the edges by source and colour), the peel order, the path
counts and the path list are each built on first use, and the literal cache
parses each path literal once (``parse_path``).
"""

import collections
import itertools
import math
import sys
from dataclasses import dataclass

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
    quoted,
)


@dataclass(frozen=True, slots=True)
class Edge:
    id: str
    color: int
    range: str
    source: str

    # dataclass keeps this __init__; it fills the slots as Path does, cheaper than its own
    def __init__(self, id, color, range, source):
        _set_id(self, id)
        _set_color(self, color)
        _set_edge_range(self, range)
        _set_source(self, source)


@dataclass(frozen=True, slots=True)
class Square:
    """A commuting square: the path first[0]*first[1] equals second[0]*second[1].

    ``first`` lists the lower color first; ``second`` lists the higher color
    first.  Both sides are composable two-edge words for the same morphism.
    """

    first: tuple
    second: tuple

    def __init__(self, first, second):  # as Edge's
        _set_first(self, first)
        _set_second(self, second)


# slot setters that bypass the frozen records' __setattr__
_set_id, _set_color, _set_edge_range, _set_source, _set_first, _set_second = (
    cls.__dict__[name].__set__ for cls in (Edge, Square) for name in cls.__slots__)


@dataclass(frozen=True)
class KGraphSpec:
    k: int
    vertices: tuple
    edges: tuple
    squares: tuple


class Path:
    """A morphism in normal form: a range vertex plus a color-sorted edge word.

    A graph holds one Path per range and word (``KGraph._path``), so paths
    compare and hash by identity within their graph.  The paths of two
    graphs of one spec are unequal; a SpanForm, Cell or operation that mixes
    them is undefined, and ``g.path(p.edges)`` or ``g.vertex(p.range)``
    carries p into g.  The degree is computed on first use and kept.  Paths
    are immutable, as the interned ones are shared dict keys.
    """

    __slots__ = ("graph", "range", "edges", "_degree")

    def __init__(self, graph, range, edges):
        _set_graph(self, graph)
        _set_range(self, range)
        _set_edges(self, edges)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to Path.{name}: paths are immutable")

    @property
    def source(self):
        if not self.edges:
            return self.range
        return self.graph._edges[self.edges[-1]].source

    @property
    def degree(self):
        try:
            return self._degree
        except AttributeError:
            d = [0] * self.graph.k
            for eid in self.edges:
                d[self.graph.edge(eid).color - 1] += 1
            _set_degree(self, tuple(d))
            return self._degree

    def is_vertex(self):
        return not self.edges

    def label(self):
        return self.range if not self.edges else ".".join(self.edges)

    def __repr__(self):
        return f"Path({quoted(self.label(), str)})"

    def sort_key(self):
        return (len(self.edges), self.edges, self.range)


# slot setters that bypass Path.__setattr__, which refuses every assignment
_set_graph, _set_range, _set_edges, _set_degree = (
    Path.__dict__[name].__set__ for name in Path.__slots__)


def _entries(value, what):
    """A container of a specification as a tuple: a tuple or a list."""
    if type(value) is not tuple and type(value) is not list:
        raise InvalidSpec(f"{what} must be a tuple or list, not {type(value).__name__}")
    return tuple(value)


def _swap_table(squares, edges):
    """The swap table between the two orientations of a bicolored word,
    (lo, hi) word -> (hi, lo) word and back, with each square checked.  A
    pair's colours are ordered one way or the other, so the two directions
    never share a key."""
    swap = {}
    for sq in squares:
        if not isinstance(sq, Square):
            raise InvalidSpec(f"square {sq!r} is not a Square")
        first, second = sq.first, sq.second
        if not (type(first) is tuple and len(first) == 2
                and type(first[0]) is str and type(first[1]) is str):
            raise BadSquare(f"square side {first!r} is not a pair of edge ids")
        e, f = edges.get(first[0]), edges.get(first[1])
        if e is None or f is None:
            raise BadSquare(f"square {sq} refers to unknown edge")
        if e.source != f.range:
            raise BadSquare(f"square side {first} is not composable")
        if e.color >= f.color:
            raise BadSquare(f"square side {first} must list the lower color first")
        if not (type(second) is tuple and len(second) == 2
                and type(second[0]) is str and type(second[1]) is str):
            raise BadSquare(f"square side {second!r} is not a pair of edge ids")
        f2, e2 = edges.get(second[0]), edges.get(second[1])
        if f2 is None or e2 is None:
            raise BadSquare(f"square {sq} refers to unknown edge")
        if f2.source != e2.range:
            raise BadSquare(f"square side {second} is not composable")
        if f2.color <= e2.color:
            raise BadSquare(f"square side {second} must list the higher color first")
        # each side lists its colors in order, so the sides share their
        # color pair iff e and e2, and f and f2, share a color
        if e.color != e2.color or f.color != f2.color:
            raise BadSquare(f"square {sq} mixes color pairs")
        if e.range != f2.range or f.source != e2.source:
            raise BadSquare(f"square {sq} endpoints do not match")
        if first in swap:
            raise NotBijective(f"edge pair {first} appears in two squares")
        if second in swap:
            raise NotBijective(f"edge pair {second} appears in two squares")
        swap[first] = second
        swap[second] = first
    return swap


class KGraph:
    """A validated finite rank-k graph.

    The constructor checks the specification while it builds the edge
    table, the swap table and the range index (the edges by range and
    colour), so each is built once and no unvalidated graph exists.  It
    checks types too (``int`` rank and colours, not ``bool``; ``str`` ids;
    two-id square sides), so a spec read from a file and one built in Python
    pass the same gate.  The graph owns every derived cache, the source
    index (see ``_source_index``) and the memo of cell cuts (see
    ``groupoid._cut``) among them.
    """

    def __init__(self, spec):
        self.k = k = spec.k
        if type(k) is not int or k < 1:
            raise InvalidSpec(f"rank must be an int >= 1, got {k!r}")
        self.vertices = _entries(spec.vertices, "vertices")
        vset = set()
        for v in self.vertices:
            if type(v) is not str:
                raise InvalidSpec(f"vertex id {v!r} is not a str")
            if v in vset:
                raise InvalidSpec(f"duplicate vertex id {v!r}")
            if "." in v:  # parse_path reads a vertex id before edge ids joined by '.'
                raise InvalidSpec(f"vertex id {v!r} contains '.'")
            vset.add(v)
        self._vset = vset = frozenset(vset)
        self._edges = edges = {}
        at = {v: [] for v in self.vertices}  # vertex -> the edges with that range, in spec order
        for e in _entries(spec.edges, "edges"):
            if not isinstance(e, Edge):
                raise InvalidSpec(f"edge {e!r} is not an Edge")
            eid, color, r, s = e.id, e.color, e.range, e.source
            if type(eid) is not str:
                raise InvalidSpec(f"edge id {eid!r} is not a str")
            if eid in edges or eid in vset:
                raise InvalidSpec(f"duplicate id {eid!r}")
            if "." in eid:  # path labels join edge ids with '.'
                raise InvalidSpec(f"edge id {eid!r} contains '.'")
            if type(color) is not int or not 1 <= color <= k:
                raise InvalidSpec(f"edge {eid!r} has color {color!r}, not an int in 1..{k}")
            if type(r) is not str or r not in vset:
                raise MissingEndpoint(f"edge {eid!r} has unknown range {r!r}")
            if type(s) is not str or s not in vset:
                raise MissingEndpoint(f"edge {eid!r} has unknown source {s!r}")
            edges[eid] = e
            at[r].append(e)

        self.squares = _entries(spec.squares, "squares")
        self._swap = swap = _swap_table(self.squares, edges)

        self._indegree = dict(zip(at, map(len, at.values())))  # edges received

        # every composable bicolored pair must occur on exactly one square
        # side; the edges at each vertex keep spec order, so the first pair
        # reported is the first in spec order
        for a in edges.values():
            for b in at[a.source]:
                if a.color != b.color and (a.id, b.id) not in swap:
                    raise NotBijective(f"edge pair {(a.id, b.id)} is not covered by any square")
        if k >= 3:
            self._check_cubes(at)

        self._ids = tuple(sorted(edges))  # the edge ids, sorted
        self._out = self._index(by_source=False)
        # derived caches, which live as long as the graph
        self._in = None  # edges by source, as _out by range (see _source_index)
        self._paths = {}  # (range, normal-form word) -> the one Path (see _path)
        self._literals = {}  # literal text -> the Path it names (see parse_path)
        self._composed = {}  # (lam, mu) -> compose(lam, mu), composable pairs only
        self._all_paths_cache = None
        self._peel = None  # see peel_order
        self._terminal = None  # see terminal_components
        self._counts = {}  # vertex u -> [N(u, 1), ..., N(u, k)] (see count_paths_to)
        self._mce = {}  # (lam, mu) -> minimal_common_extensions(lam, mu)
        self._move_table = {}  # (mu, colour) -> _moves(mu, colour)
        self._cuts = {}  # (c1, c2) -> groupoid._cut(c1, c2), unequal cells only

    def _index(self, by_source):
        """(vertex, color) -> the sorted ids of the edges with that range, or
        with that source if by_source; one pass over the sorted ids keeps
        each list sorted, and every key with no edge shares the empty tuple.
        The range index is built first, and its keys, every (vertex, color),
        serve the source index."""
        edges, index = self._edges, {}
        for eid in self._ids:
            e = edges[eid]
            index.setdefault((e.source if by_source else e.range, e.color), []).append(eid)
        keys = self._out if by_source else itertools.product(self.vertices, range(1, self.k + 1))
        return {**dict.fromkeys(keys, ()), **index}

    def _source_index(self):
        """(vertex, color) -> the sorted ids of the edges with that source,
        built on first use: only the walks from source to range (_join,
        paths_to and count_paths_to) read it."""
        if self._in is None:
            self._in = self._index(by_source=True)
        return self._in

    def _release(self):
        """Drop every attribute, caches included, so that reference counting
        frees the graph and its paths once the caller drops them: each path
        refers to its graph, and the caches refer to the paths.  Any later
        use of the graph raises AttributeError."""
        vars(self).clear()

    @property
    def spec(self):
        """The specification this graph was built from, edges sorted by id."""
        edges = tuple(self._edges[eid] for eid in self._ids)
        return KGraphSpec(self.k, self.vertices, edges, self.squares)

    # ------------------------------------------------------------------
    # construction and validation

    @classmethod
    def validate(cls, spec):
        """Check a specification and return the graph, raising diagnostics.

        The same as ``KGraph(spec)``: the constructor validates."""
        return cls(spec)

    def _check_cubes(self, at):
        """Tricolored words must normalize identically along both swap
        orders.  at maps each vertex to the edges with that range, in spec
        order.

        A word xyz with color(x) > color(y) > color(z) sorts in three swaps
        either way: xy, xz, yz (the order _normalize_word takes) or yz, xz,
        xy.  The coverage check has passed, so every swap is in the table.
        """
        swap = self._swap
        for x in self._edges.values():
            for y in at[x.source]:
                if y.color >= x.color:
                    continue
                for z in at[y.source]:
                    if z.color >= y.color:
                        continue
                    y1, x1 = swap[x.id, y.id]
                    z1, x2 = swap[x1, z.id]
                    a = [*swap[y1, z1], x2]
                    z2, y2 = swap[y.id, z.id]
                    z3, x3 = swap[x.id, z2]
                    b = [z3, *swap[x3, y2]]
                    if a != b:
                        w = [x.id, y.id, z.id]
                        raise CubeInconsistent(f"word {w} normalizes to both {a} and {b}")

    # ------------------------------------------------------------------
    # basic accessors

    def edge(self, eid):
        try:
            return self._edges[eid]
        except (KeyError, TypeError):  # TypeError: an unhashable id
            raise UnknownId(f"unknown edge id {quoted(eid)}") from None

    def edge_ids(self):
        return list(self._ids)

    def out_edges(self, v, color=None):
        colors = range(1, self.k + 1) if color is None else (color,)
        try:
            if color is None or type(color) is int:  # True and 1.0 would match the key 1
                return [eid for c in colors for eid in self._out[(v, c)]]
        except (KeyError, TypeError):
            pass
        self.vertex(v)  # raises UnknownId for an unknown vertex
        raise DegreeOutOfRange(f"colour {color!r} is not in 1..{self.k}")

    def vertex(self, v):
        if type(v) is not str or v not in self._vset:  # ids are str, and a list is unhashable
            raise UnknownId(f"unknown vertex id {quoted(v)}")
        return self._path(v, ())

    def at(self, v, paths):
        """The paths as a tuple, each checked to have range v: the one check
        of a finite set E in v*Lambda.  One pass in the given order, so a
        one-shot iterable is read once and the error names the first stray."""
        paths = tuple(paths)
        for mu in paths:
            if mu.range != v:
                raise RangeMismatch(f"{mu!r} is not a path at {v!r}")
        return paths

    def _path(self, v, word):
        """The one Path of this graph with range v and normal-form word."""
        lam = self._paths.get((v, word))
        if lam is None:
            lam = self._paths[(v, word)] = Path(self, v, word)
        return lam

    def path(self, edge_ids):
        """Build a path from a composable edge word and normalize it."""
        ids = list(edge_ids)
        if not ids:
            raise UnknownId("empty edge word; use vertex() for vertex paths")
        edges = [self.edge(eid) for eid in ids]
        for a, b in zip(edges, edges[1:]):
            if a.source != b.range:
                raise NotComposable(f"edges {a.id} and {b.id} do not compose")
        return self._path(edges[0].range, tuple(self._normalize_word(ids)))

    def parse_path(self, text):
        """Parse a path literal: a vertex id or dot-joined edge ids.
        Memoized per graph by the literal's text; only a literal that
        parses is stored, so a bad one raises on every call."""
        lam = self._literals.get(text)
        if lam is None:
            lam = self._literals[text] = (
                self.vertex(text) if text in self._vset else self.path(text.split(".")))
        return lam

    # ------------------------------------------------------------------
    # normal form machinery

    def _sort_word(self, word, keys):
        """Insertion-sort an edge word into key order through the squares;
        a word of fewer than two edges comes back as it is.

        ``keys[i]`` belongs to ``word[i]`` and moves with it.  The keys of
        the edges of one color must already be in order, so only edges of
        different colors are swapped and edges of one color keep their order.
        Each step carries one edge left, one square at a time, past the
        edges with a greater key, so the sort makes one swap per pair out of
        order and no pass that swaps nothing.  Every caller's word is
        composable (``_normalize_word``; ``_split``, for factor and for the
        partners in minimal_common_extensions; ``_moves``, for the move
        tables) and a swap keeps it so, so each pair swapped is a composable
        bicolored pair, which the coverage scan put in ``_swap``.
        """
        if len(word) < 2:
            return word
        w, keys, swap = list(word), list(keys), self._swap
        for i in range(1, len(w)):
            key = keys[i]
            while i and keys[i - 1] > key:
                w[i - 1], w[i] = swap[w[i - 1], w[i]]
                keys[i] = keys[i - 1]
                i -= 1
            keys[i] = key
        return w

    def _normalize_word(self, word):
        """Sort an edge word into non-decreasing color order via squares."""
        return self._sort_word(word, [self.edge(eid).color for eid in word])

    def compose(self, lam, mu):
        """The path lam*mu: the joined words sorted through the squares, or
        the other path when one side is a vertex.  Memoized per graph; only
        composable pairs are stored, so each call on a pair that does not
        compose raises NotComposable."""
        out = self._composed.get((lam, mu))
        if out is None:
            if lam.source != mu.range:
                raise NotComposable(f"{lam!r} and {mu!r} do not compose")
            if not lam.edges:  # a vertex composes to the other path
                out = mu
            elif not mu.edges:
                out = lam
            else:
                word = tuple(self._normalize_word(lam.edges + mu.edges))
                out = self._path(lam.range, word)
            self._composed[(lam, mu)] = out
        return out

    def _check_degree(self, m):
        if len(m) != self.k or min(m) < 0:
            raise DegreeOutOfRange(f"degree {m} is not in N^{self.k}")

    def factor(self, lam, m):
        """Split lam into its unique prefix of degree m and the rest."""
        self._check_degree(m)
        if not degrees.le(m, lam.degree):
            raise DegreeOutOfRange(f"{m} exceeds degree {lam.degree}")
        return self._split(lam.range, lam.edges, m)

    def _split(self, v, word, m):
        """The prefix of degree m and the rest of the path that the
        composable edge word spells from v, both in normal form.

        The j-th color-c edge (counting from 0) gets the key
        (j >= m[c-1], c): sorting by it moves the first m[c-1] edges of each
        color c to the front, and both halves come out color-sorted.  The
        word need not be in normal form: a square only swaps edges of two
        different colors, so the edges of one color keep their order and
        their keys stay sorted, and by unique factorization the halves do
        not depend on the word that spells the path.
        """
        seen = [0] * self.k
        keys = []
        for eid in word:
            c = self._edges[eid].color
            keys.append((seen[c - 1] >= m[c - 1], c))
            seen[c - 1] += 1
        word = self._sort_word(word, keys)
        cut = sum(m)
        prefix = self._path(v, tuple(word[:cut]))
        return prefix, self._path(prefix.source, tuple(word[cut:]))

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
        return self._split(lam.range, lam.edges, mu.degree)[0] == mu

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
        self.vertex(v)
        self._check_degree(hi)
        out, edges = self._out, self._edges
        # a word is a chain (last edge id, source, word before it), so one
        # level costs one tuple per word, not a copy of the word
        words = [(None, v, None)]
        for color, (low, high) in enumerate(zip(lo, hi), start=1):
            kept = words if low == 0 else []
            count = 0
            while words and count < high:
                words = [(eid, edges[eid].source, word)
                         for word in words for eid in out[(word[1], color)]]
                count += 1
                if count == low:
                    kept = words
                elif count > low:
                    kept += words
            words = kept
        paths = []
        for eid, _, word in words:
            spelled = []
            while word is not None:
                spelled.append(eid)
                eid, _, word = word
            paths.append(self._path(v, tuple(spelled[::-1])))
        return paths

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

    def paths_to(self, w):
        """All paths with source w (acyclic graphs), sorted.

        The words grow from the source end: a normal-form word whose first
        edge has color c takes on its left only edges of color <= c whose
        source is its range.  The result is again in normal form, so no
        square is used, and each normal-form word with source w is built by
        exactly one sequence of such steps (strip its edges from the left).
        A path has exactly one normal-form word (unique factorization), so
        each path comes out once.  The words of one length are sorted
        within their level, and the levels come out shortest first.
        """
        self._require_acyclic(w)
        edges, into = self._edges, self._source_index()
        level = [((), w, self.k)]  # (edge word, range, color of its first edge)
        paths = []
        while level:
            level.sort()  # the words of a level differ, so this sorts by word
            paths += [self._path(v, word) for word, v, _ in level]
            level = [((eid,) + word, edges[eid].range, c)
                     for word, v, top in level
                     for c in range(1, top + 1) for eid in into[(v, c)]]
        return paths

    def count_paths_to(self, w):
        """The number of paths with source w (acyclic graphs), that is
        len(paths_to(w)), computed without building a path.

        Let N(u, c) count the normal-form words with source u whose colors
        are all <= c.  Such a word is the vertex u, or ends in an edge e with
        s(e) = u and color(e) <= c after a word with source r(e) whose
        colors are all <= color(e) (the step paths_to takes), so

            N(u, c) = 1 + sum over s(e) = u, color(e) <= c of N(r(e), color(e)),

        and the count is N(w, k).  Each r(e) with s(e) = u reaches u, so one
        walk along the reversed peel order fills every row N(u, 1..k); the
        rows are kept with the graph.
        """
        self._require_acyclic(w)
        rows = self._counts
        if not rows:
            edges, into = self._edges, self._source_index()
            for u in reversed(self.peel_order()):
                row, n = [], 1
                for c in range(1, self.k + 1):
                    n += sum(rows[edges[eid].range][c - 1] for eid in into[(u, c)])
                    row.append(n)
                rows[u] = row
        return rows[w][-1]

    def _require_acyclic(self, v):
        """Check that v is a vertex and the graph has finitely many paths."""
        self.vertex(v)
        if not self.is_acyclic():
            raise NotAcyclic("the path category of a cyclic graph is infinite")

    # ------------------------------------------------------------------
    # common extensions

    def minimal_common_extensions(self, lam, mu):
        """All pairs (rho, tau) with lam*rho = mu*tau of degree d(lam) v d(mu).

        The rho are Ext(lam; {mu}), which ext walks along lam's edges
        through the move tables.  By unique factorization each rho has one
        partner: tau is the rest of lam*rho after its prefix of degree
        d(mu), which is mu, so one _split of the unsorted word lam*rho gives
        it (see why there).  Memoized per graph for paths with one range:
        the result is an immutable frozenset.
        """
        if lam.range != mu.range:
            return frozenset()
        key = (lam, mu)
        out = self._mce.get(key)
        if out is not None:
            return out
        v, word, m = lam.range, lam.edges, mu.degree
        out = self._mce[key] = frozenset(
            (rho, self._split(v, word + rho.edges, m)[1]) for rho in self.ext(lam, (mu,)))
        return out

    def mce(self, lam, mu):
        """The minimal common extensions themselves, sorted."""
        exts = {self.compose(lam, rho) for rho, _ in self.minimal_common_extensions(lam, mu)}
        return sorted(exts, key=Path.sort_key)

    def ext(self, lam, E):
        """Ext(lam; E): the first components of the minimal common
        extensions of lam with the members of E, each checked to lie at r(lam).

        A walk along lam's edges: it starts from E, and an edge a of colour
        c takes the obligations S to Ext(a; S), the union over nu in S of
        the move table of (nu, c) at a (see _moves).  That is Ext(lam; E) by
        the rule Ext(lam*mu; E) = Ext(mu; Ext(lam; E)), as Ext(lam; E) is
        the union over nu in E of Ext(lam; {nu}).  Proof, by unique
        factorization alone:

        - Take rho in Ext(lam*mu; {nu}), so lam*mu*rho = nu*tau has degree
          d(lam*mu) v d(nu).  Cut lam*mu*rho at P = d(lam) v d(nu): its head
          has the prefixes lam and nu, so it is lam*kappa with kappa in
          Ext(lam; {nu}).
        - Cancelling lam gives mu*rho = kappa*beta, of degree
          d(mu) v (P - d(lam)) = d(mu) v d(kappa).  So rho is in
          Ext(mu; {kappa}).
        - Conversely, take kappa in Ext(lam; {nu}) and rho in
          Ext(mu; {kappa}).  Then lam*mu*rho = lam*kappa*beta extends nu, and
          its degree d(lam) + (d(mu) v d(kappa)) = d(lam*mu) v P equals
          d(lam*mu) v d(nu), as P = d(lam) v d(nu) and d(lam) <= d(lam*mu).

        An empty S stays empty, so the walk stops there.
        """
        S = frozenset(self.at(lam.range, E))
        table, edges = self._move_table, self._edges
        for eid in lam.edges:
            if not S:
                break
            c, nxt = edges[eid].color, ()
            for nu in S:
                # a memoised empty table {} is a hit: the miss test is `is None`
                moves = table.get((nu, c))
                if moves is None:
                    moves = self._moves(nu, c)
                rhos = moves.get(eid)
                if rhos:
                    nxt = nxt | rhos if nxt else rhos
            S = nxt
        return frozenset(S)

    # ------------------------------------------------------------------
    # exhaustive sets

    def exhaustiveness_witness(self, v, E):
        """A path gamma in v*Lambda with no common extension with any member
        of E, or None if E is exhaustive at v.  E is any iterable of paths.

        Works by a breadth-first search over states (vertex, obligation
        set).  A witness through a first edge a must avoid Ext(a; S), the
        paths rho with a*rho = mu*tau for an obligation mu in S.  That is
        the union over mu of Ext(a; {mu}), and the move table of (mu, c)
        holds Ext(a; {mu}) for every colour-c edge a at r(mu) (see _moves).
        So a state is expanded once per colour c: the move tables of its
        obligations fold into one successor table, edge a -> Ext(a; S), and
        each colour-c edge reads its successor there, with no MCE search.
        Degrees of obligations never increase, so the state space is finite
        even on cyclic graphs.  A state with a vertex obligation is dead, as
        the vertex meets everything: it is recorded as seen and never
        queued.  Successors are generated in out_edges order into a
        first-in first-out queue, so the first state without obligations to
        be generated would also be dequeued first: the search returns it at
        once, as the lexicographically first of the shortest witnesses (the
        vertex v when E is empty).  The vertex v and the range of each
        member of E are checked before the search, which runs on
        frozenset(E) whatever iterable E is.
        """
        root = self.vertex(v)
        E = self.at(v, E)
        if not E:
            return root
        if root in E:
            return None  # dead from the start
        table, edges, out, paths = self._move_table, self._edges, self._out, self._paths
        start = (v, frozenset(E))
        parent = {start: None}  # state -> (previous state, edge id)
        queue = collections.deque([start])
        while queue:
            state = queue.popleft()
            w, S = state
            for c in range(1, self.k + 1):
                eids = out[(w, c)]
                if not eids:
                    continue
                succ = {}  # edge id a -> Ext(a; S), where that is not empty
                for mu in S:
                    # a memoised empty table {} is a hit: the miss test is `is None`
                    moves = table.get((mu, c))
                    if moves is None:
                        moves = self._moves(mu, c)
                    for a, rhos in moves.items():
                        succ[a] = succ[a] | rhos if a in succ else rhos
                for eid in eids:
                    u, rhos = edges[eid].source, succ.get(eid, ())
                    nxt = (u, rhos)
                    if nxt not in parent:
                        parent[nxt] = (state, eid)
                        if not rhos:  # a witness: walk the parent pointers back
                            word = []
                            while parent[nxt] is not None:
                                nxt, eid = parent[nxt]
                                word.append(eid)
                            return self.path(word[::-1])
                        if paths.get((u, ())) not in rhos:  # no vertex obligation
                            queue.append(nxt)
        return None

    def _moves(self, mu, c):
        """The move table of (mu, c): a dict from each colour-c edge a at
        r(mu) with Ext(a; {mu}) non-empty to that frozenset of paths rho.
        It is the one source of Ext: ext walks a path's edges through these
        tables, minimal_common_extensions reads them through ext, and
        exhaustiveness_witness folds them into its successor tables.
        Memoized per graph in _move_table, which ext and the search read
        first: this runs on a miss only.

        As d(a) = e_c, the common extensions a*rho = mu*tau have degree
        d(mu) when mu has a colour-c edge and d(mu) + e_c when it has none.
        In the first case tau is a vertex and a*rho = mu, so a is the first
        colour-c edge of mu and rho the rest.  In the second tau is a
        colour-c edge f at s(mu), and a and rho are the first colour-c edge
        of mu*f and the rest.  By unique factorization each f gives one pair
        and every pair comes from one f, so one cut of mu, or one cut of mu*f
        per f, gives Ext(a; {mu}) for all the colour-c edges a at once.  A
        cut moves the chosen edge, the j-th, to the front in one step of
        _sort_word: the key False, which only it has, carries it left in j
        swaps through the squares, and no other edge moves.  Every edge it
        passes has another colour, so the swaps exist, and the rest keeps the
        colour order of the word, so it is in normal form.  By unique
        factorization any sequence of swaps that sorts the keys gives the
        same word.
        """
        edges, word = self._edges, mu.edges
        for j, eid in enumerate(word):  # the first colour-c edge of mu
            if edges[eid].color == c:
                words = [word]
                break
        else:  # mu has none: cut mu*f for each colour-c edge f at s(mu)
            j, words = len(word), [word + (f,) for f in self._out[(mu.source, c)]]
        out = {}
        for w in words:
            if j:  # move w[j] to the front
                w = self._sort_word(w, [True] * j + [False] + [True] * (len(w) - j - 1))
            a, rho = w[0], self._path(edges[w[0]].source, tuple(w[1:]))
            out[a] = out[a] | {rho} if a in out else frozenset((rho,))
        self._move_table[(mu, c)] = out
        return out

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
        return len(self.peel_order()) == len(self.vertices)

    def _join(self, order, waiting):
        """Kahn's rule over the source index, the one backward walk: peel_order,
        reaching and t_star differ only in the start list and the counts.
        Each edge out of a vertex of order, which grows as vertices join,
        counts down waiting at its range, which joins at exactly 0; starts
        hold 0 and the rest more, so joined vertices hold <= 0 and none joins
        twice.  Returns, in a dict, the vertices a count left above 0."""
        edges, into, recheck = self._edges, self._source_index(), {}
        for u in order:  # the list grows as vertices join
            for c in range(1, self.k + 1):
                for eid in into[(u, c)]:
                    r = edges[eid].range
                    waiting[r] -= 1
                    if not waiting[r]:
                        order.append(r)
                    elif waiting[r] > 0:
                        recheck[r] = None
        return recheck

    def peel_order(self):
        """The vertices that reach no cycle, each after every vertex it
        reaches (built once): _join from the vertices that receive no edge,
        with in-degrees as counts.  A vertex that reaches a cycle never joins,
        and one that reaches none does, by induction on its longest path."""
        if self._peel is None:
            order = [v for v, n in self._indegree.items() if not n]
            self._join(order, dict(self._indegree))
            self._peel = tuple(order)
        return self._peel

    def t_star(self, H):
        """T*(H): the least vertex set that holds H and each vertex at which
        the edges it receives from the set form a non-empty exhaustive set.

        _join starts from H, with in-degrees as counts, 0 for H and 1 for a
        sink outside H, which never joins.  A vertex whose edges all come from
        the set joins by count, as all the edges at a vertex are exhaustive.
        When none can, one that _join left above 0 is searched by one
        is_exhaustive call on the edges it receives from joined vertices, and
        joins with count 0 if they are exhaustive; a failed one is searched
        again only after one of its sources joins."""
        waiting = {v: n or 1 for v, n in self._indegree.items()}
        for v in H:  # the id checked as vertex() checks it, with no path built
            waiting[v if type(v) is str and v in self._vset else self.vertex(v)] = 0
        recheck = self._join([v for v in self.vertices if not waiting[v]], waiting)
        while recheck:
            v, edges = recheck.popitem()[0], self._edges
            if waiting[v] > 0 and self.is_exhaustive(v, [
                    self.path([e]) for e in self.out_edges(v) if waiting[edges[e].source] <= 0]):
                waiting[v] = 0
                recheck |= self._join([v], waiting)
        return {v for v, n in waiting.items() if n <= 0}

    def terminal_components(self):
        """The strongly connected components that reach no vertex outside
        themselves, each in vertex order, listed by their first vertex (built
        once): the sinks, and those that one iterative Tarjan pass, stepping
        from range to source, cuts from what the peel leaves.  The peeled
        vertices count as cut from the start, so an acyclic graph runs none."""
        if self._terminal is None:
            edges, out, n = self._edges, self._out, len(self.vertices)
            place = {v: i for i, v in enumerate(self.vertices)}

            def sources(v):
                return [edges[eid].source for c in range(1, self.k + 1) for eid in out[(v, c)]]

            def enter(u):
                index[u] = low[u] = len(index)
                work.append((u, iter(sources(u)), len(stack)))  # (vertex, sources left, stack place)
                stack.append(u)

            found = [(v,) for v in self.vertices if not self._indegree[v]]
            index, low, stack, work = dict.fromkeys(self.peel_order(), n), {}, [], []  # n: cut
            for root in self.vertices:
                if root not in index:
                    enter(root)
                while work:
                    v, todo, at = work[-1]
                    for u in todo:
                        if u not in index:
                            enter(u)
                            break
                        low[v] = min(low[v], index[u])
                    else:
                        work.pop()
                        if work:
                            low[work[-1][0]] = min(low[work[-1][0]], low[v])
                        if low[v] == index[v]:
                            cut, stack[at:] = stack[at:], []
                            index.update(dict.fromkeys(cut, n))
                            if set(cut).issuperset(u for w in cut for u in sources(w)):
                                found.append(tuple(sorted(cut, key=place.get)))
            self._terminal = tuple(sorted(found, key=lambda c: place[c[0]]))
        return self._terminal

    def sinks(self):
        """The vertices that receive no edge (no edge has them as range),
        sorted: on an acyclic graph, the sources of the boundary paths."""
        return sorted(v for v, n in self._indegree.items() if not n)

    def has_sources(self):
        """True iff some vertex receives no edge of some color."""
        return not all(self._out.values())

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
        seen = {self.vertex(v).range}
        stack = list(seen)
        while stack:
            new = {self._edges[eid].source for eid in self.out_edges(stack.pop())} - seen
            seen |= new
            stack += new
        return seen

    def reaching(self, targets):
        """Vertices u with a path from range u to source some target, or a
        target: _join from the checked target ids, at count 0, the rest at 1."""
        start = list(dict.fromkeys(self.vertex(v).range for v in targets))
        self._join(start, dict.fromkeys(self.vertices, 1) | dict.fromkeys(start, 0))
        return set(start)

    def max_path_degree(self):
        """Componentwise maximum degree over all paths (acyclic graphs)."""
        top = degrees.zero(self.k)
        for lam in self.all_paths():
            top = degrees.join(top, lam.degree)
        return top


def omega_graph(m):
    """The rank-k lattice segment graph: vertices are tuples p <= m, with one
    color-i edge from p to p + e_i whenever that stays below m, and a square
    for every unit square of the segment.

    itertools.product lists the points in lexicographic order, so p + e_i
    comes stride[i] places after p: stride[i] counts the points that share
    p's first i + 1 coordinates."""
    if min(m, default=0) < 0:
        raise DegreeOutOfRange(f"degree {m} is not in N^{len(m)}")
    if math.prod(c + 1 for c in m) > sys.maxsize:  # no Python sequence is that long
        raise DegreeOutOfRange(f"degree {m} spans more than {sys.maxsize} vertices")
    k = len(m)
    stride = [1] * k
    for i in range(k - 1, 0, -1):
        stride[i - 1] = stride[i] * (m[i] + 1)
    names = list(map(",".join, itertools.product(*[list(map(str, range(top + 1))) for top in m])))
    up = [[i for i in range(k) if p[i] < m[i]]  # the steps that stay below m
          for p in itertools.product(*[range(c + 1) for c in m])]
    ids = [None] * (len(names) * k)  # ids[n * k + i]: the color-(i+1) edge with range point n
    edges = []
    for n, name in enumerate(names):
        for i in up[n]:
            source = names[n + stride[i]]
            ids[n * k + i] = eid = f"{name}>{source}"
            edges.append(Edge(eid, i + 1, name, source))
    squares = [
        Square((ids[n * k + i], ids[(n + stride[i]) * k + j]),
               (ids[n * k + j], ids[(n + stride[j]) * k + i]))
        for n in range(len(names))
        for i, j in itertools.combinations(up[n], 2)
    ]
    return KGraph.validate(KGraphSpec(k, tuple(names), tuple(edges), tuple(squares)))
