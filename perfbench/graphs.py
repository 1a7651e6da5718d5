"""Seeded graph inputs and their reference facts, computed without kpx.

Every rank-2 input beyond the fixed ladder is a cartesian product of two
rank-1 graphs.  A product of 1-graphs is always a valid 2-graph, and most of
its invariants follow from the factors by elementary counting, so the
references below never run the code paths the benchmark times.
"""

import itertools
import random


class OneGraph:
    """A finite directed graph; an edge (id, range, source) points source -> range."""

    def __init__(self, vertices, edges):
        self.vertices = list(vertices)
        self.edges = list(edges)
        self.source_of = {eid: src for eid, _, src in self.edges}

    def into(self, v):
        """Edges with range v (kpx calls these the edges out of v)."""
        return [e for e in self.edges if e[1] == v]

    def maximal_paths_by_end(self):
        """Acyclic only: number of maximal paths ending at each source vertex.

        A maximal path runs from any vertex backwards along edges until it
        reaches a vertex that receives nothing; those are the boundary paths
        of the 1-graph.
        """
        counts = {}

        def walk(v):
            edges = self.into(v)
            if not edges:
                counts[v] = counts.get(v, 0) + 1
            for _, _, src in edges:
                walk(src)

        for v in self.vertices:
            walk(v)
        return counts

    def paths(self, v, n):
        """Edge words of length n with range v, each with its far end."""
        out = [((), v)]
        for _ in range(n):
            out = [(word + (eid,), src) for word, end in out for eid, _, src in self.into(end)]
        return out

    def walk(self, v, word):
        """The far end of the edge word with range v."""
        return self.source_of[word[-1]] if word else v

    def reach(self, v):
        """Vertices reachable from v along the reversed edges, including v."""
        seen = {v}
        stack = [v]
        while stack:
            w = stack.pop()
            for _, _, src in self.into(w):
                if src not in seen:
                    seen.add(src)
                    stack.append(src)
        return seen

    def is_cofinal(self):
        """Acyclic only: every vertex reaches a vertex on every maximal path."""
        paths = []

        def walk(v, visited):
            edges = self.into(v)
            if not edges:
                paths.append(visited)
            for _, _, src in edges:
                walk(src, visited | {src})

        for v in self.vertices:
            walk(v, {v})
        return all(
            visited & self.reach(v) for v in self.vertices for visited in paths
        )


def random_dag(rng, prefix, nverts, nedges):
    """A random acyclic 1-graph: edges only run from higher to lower index."""
    verts = [f"{prefix}{i}" for i in range(nverts)]
    pairs = [(r, s) for r in range(nverts) for s in range(r + 1, nverts)]
    chosen = rng.sample(pairs, min(nedges, len(pairs)))
    edges = [(f"{prefix}e{i}", verts[r], verts[s]) for i, (r, s) in enumerate(sorted(chosen))]
    return OneGraph(verts, edges)


# A two-vertex 1-graph in which both vertices receive an edge, plus one
# extra edge: the sources of the two edges and both ends of the extra edge
# make 16 shapes.
SOURCELESS_SHAPES = 16


def sourceless(prefix, shape):
    """The two-vertex 1-graph number ``shape`` (0..15); every vertex
    receives an edge, so the graph is cyclic and has no sources."""
    verts = [f"{prefix}0", f"{prefix}1"]
    bits = [(shape >> i) & 1 for i in range(4)]
    ends = [(verts[0], verts[bits[0]]), (verts[1], verts[bits[1]]),
            (verts[bits[2]], verts[bits[3]])]
    edges = [(f"{prefix}e{i}", r, s) for i, (r, s) in enumerate(ends)]
    return OneGraph(verts, edges)


class Product:
    """The product 2-graph g1 x g2: color 1 moves along g1, color 2 along g2.

    A path of degree (a, b) with range (u, w) is a pair of factor paths: an
    edge word of length a in g1 with range u and one of length b in g2 with
    range w.  Paths are kept in that form, as (u, word1, w, word2).  The
    name functions give kpx's names: by default the vertex (u, w) is "uw",
    the color-1 copy of the g1 edge a at w is "aw" and the color-2 copy of
    the g2 edge b at u is "ub".
    """

    def __init__(self, g1, g2, vertex=None, edge1=None, edge2=None):
        self.g1, self.g2 = g1, g2
        self.vertex = vertex or (lambda u, w: f"{u}{w}")
        self.edge1 = edge1 or (lambda a, w: f"{a}{w}")
        self.edge2 = edge2 or (lambda u, b: f"{u}{b}")
        self.at = {self.vertex(u, w): (u, w) for u in g1.vertices for w in g2.vertices}

    def doc(self):
        """The graph document; each pair of factor edges gives one square."""
        g1, g2 = self.g1, self.g2
        edges = []
        for eid, r, s in g1.edges:
            for w in g2.vertices:
                edges.append({"id": self.edge1(eid, w), "color": 1,
                              "range": self.vertex(r, w), "source": self.vertex(s, w)})
        for eid, r, s in g2.edges:
            for u in g1.vertices:
                edges.append({"id": self.edge2(u, eid), "color": 2,
                              "range": self.vertex(u, r), "source": self.vertex(u, s)})
        squares = []
        for (a, ra, sa), (b, rb, sb) in itertools.product(g1.edges, g2.edges):
            squares.append({
                "first": [self.edge1(a, rb), self.edge2(sa, b)],
                "second": [self.edge2(ra, b), self.edge1(a, sb)],
            })
        return {"k": 2, "vertices": list(self.at), "edges": edges, "squares": squares}

    def paths(self, v, n):
        """The paths of degree n with range v."""
        u, w = self.at[v]
        return [(u, word1, w, word2)
                for word1, _ in self.g1.paths(u, n[0]) for word2, _ in self.g2.paths(w, n[1])]

    def source(self, p):
        u, word1, w, word2 = p
        return self.vertex(self.g1.walk(u, word1), self.g2.walk(w, word2))

    def label(self, p):
        """kpx's label of a path.  The kpx normal form lists color-1 edges
        first, so the path runs along g1 at the g2 vertex w, then along g2
        at the g1 vertex it reached."""
        u, word1, w, word2 = p
        u_end = self.g1.walk(u, word1)
        ids = [self.edge1(a, w) for a in word1] + [self.edge2(u_end, b) for b in word2]
        return ".".join(ids) if ids else self.vertex(u, w)

    def mce(self, mu, nu):
        """The pairs (alpha, beta) with mu alpha = nu beta of degree
        d(mu) v d(nu), for mu and nu with a common range.

        Paths of a product factor coordinatewise, so there is at most one:
        in each factor the shorter word must be a prefix of the longer one,
        and the longer one is the common extension's word.
        """
        _, m1, _, m2 = mu
        _, n1, _, n2 = nu
        word1, word2 = max(m1, n1, key=len), max(m2, n2, key=len)
        if any(word[:len(x)] != x
               for word, x in ((word1, m1), (word1, n1), (word2, m2), (word2, n2))):
            return []

        def rest(p):
            u, p1, w, p2 = p
            return (self.g1.walk(u, p1), word1[len(p1):], self.g2.walk(w, p2), word2[len(p2):])

        return [(rest(mu), rest(nu))]


class AcyclicProduct:
    """A seeded acyclic product graph with its reference invariants."""

    def __init__(self, rng, index):
        # small enough that analyze stays well below the large ladder ops
        self.g1 = random_dag(rng, f"p{index}", 3, 2)
        self.g2 = random_dag(rng, f"q{index}", 2, 1)
        self.doc = Product(self.g1, self.g2).doc()
        n1 = self.g1.maximal_paths_by_end()
        n2 = self.g2.maximal_paths_by_end()
        self.boundary_count = sum(n1.values()) * sum(n2.values())
        self.orbit_count = len(n1) * len(n2)
        self.dim = sum(c * c for c in n1.values()) * sum(c * c for c in n2.values())
        self.cofinal = self.g1.is_cofinal() and self.g2.is_cofinal()


def cyclic_products(rng, rounds):
    """Products of two 1-graphs without sources, 16 a round.

    In each round each of the 16 shapes is used once as the first and once
    as the second factor, and the seed chooses which shapes are paired.
    Every seed thus draws the same factors, which keeps the cost of the
    products, not only their answers, comparable from seed to seed.
    """
    pairs = []
    for _ in range(rounds):
        first = list(range(SOURCELESS_SHAPES))
        second = list(range(SOURCELESS_SHAPES))
        rng.shuffle(first)
        rng.shuffle(second)
        pairs += zip(first, second)
    return [Product(sourceless(f"p{i}", a), sourceless(f"q{i}", b))
            for i, (a, b) in enumerate(pairs)]


def commuting_loops(n):
    """kpx's ``presets.commuting_loops(n)`` as a product: the loop e times
    the bouquet of the loops f1..fn, on the one vertex v."""
    loop = OneGraph(["v"], [("e", "v", "v")])
    bouquet = OneGraph(["v"], [(f"f{i}", "v", "v") for i in range(1, n + 1)])
    return Product(loop, bouquet, vertex=lambda u, w: "v",
                   edge1=lambda a, w: a, edge2=lambda u, b: b)


def omega_facts(m):
    """Vertex, edge and square counts, boundary size and dimension of the
    lattice-segment graph with top degree m."""
    k = len(m)
    sizes = [c + 1 for c in m]

    def prod(xs):
        out = 1
        for x in xs:
            out *= x
        return out

    verts = prod(sizes)
    edges = sum(m[i] * prod(sizes[:i] + sizes[i + 1:]) for i in range(k))
    squares = sum(
        m[i] * m[j] * prod([sizes[l] for l in range(k) if l not in (i, j)])
        for i in range(k)
        for j in range(i + 1, k)
    )
    return {"vertices": verts, "edges": edges, "squares": squares,
            "boundary": verts, "orbits": 1, "dim": verts * verts, "cofinal": True}


def rng_for(seed, name):
    """An independent generator per input family, so families do not shift
    each other when one changes."""
    return random.Random(f"{seed}:{name}")
