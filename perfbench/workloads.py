"""The three benchmark workloads: seeded inputs, timed operations, answer checks.

Each workload function returns a list of :class:`Op`.  ``Op.run`` is the timed call and
returns an answer; ``Op.check`` turns an answer into an outcome.  References
come from elementary counting in ``graphs.py``, from the mathematics of the
operation (associativity, the Cuntz-Krieger relations, exhaustiveness by
construction) or, on acyclic graphs, from the boundary-path representation,
which is faithful there.  None of them is computed inside the timed phase.
"""

import contextlib
import io
import json
import os

from kpx import algebra, boundary, cli, elements, groupoid, presets
from kpx import io as kio
from kpx.kgraph import KGraph, omega_graph
from kpx.rings import QQ

import graphs

OK = "ok"            # a definite answer equal to its reference
UNKNOWN = "unknown"  # an honest three-valued "unknown"
ERROR = "error"      # raised, or the CLI reported an input error (exit 2)
WRONG = "wrong"      # an answer that contradicts its reference


class Raised:
    """The answer of an op that raised instead of returning."""

    def __init__(self, exc):
        self.name = type(exc).__name__

    def __eq__(self, other):
        return isinstance(other, Raised) and other.name == self.name

    def __repr__(self):
        return f"Raised({self.name})"


class Op:
    def __init__(self, kind, run, check):
        self.kind = kind
        self.run = run
        self.check = check

    def outcome(self, answer):
        if isinstance(answer, Raised):
            return ERROR
        try:
            return self.check(answer)
        except (ValueError, KeyError, TypeError):  # output the check cannot even parse
            return WRONG


# ----------------------------------------------------------------------
# command-line ops


def run_cli(argv):
    """Run ``kpx.cli.main`` in-process; the answer is (exit code, stdout)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = cli.main(argv)
        except SystemExit as exc:  # argparse rejected the arguments
            rc = exc.code
    return rc, out.getvalue()


def cli_op(kind, argv, expect):
    """An op whose answer passes when ``expect(rc, stdout)`` holds.

    ``expect`` may return UNKNOWN for an honest unknown verdict.  Exit code
    2 is the CLI's own error report, so it counts as an error, not as wrong.
    """

    def check(answer):
        rc, text = answer
        if rc == 2:
            return ERROR
        verdict = expect(rc, text)
        if verdict is UNKNOWN:
            return UNKNOWN
        return OK if verdict else WRONG

    return Op(kind, lambda: run_cli(argv), check)


def write_graph(workdir, name, doc):
    """Write a graph document and reject it unless kpx validates it."""
    KGraph.validate(kio.spec_from_dict(doc))
    path = os.path.join(workdir, f"{name}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)
    return path


# ----------------------------------------------------------------------
# cli-ladder

COMMANDS = ("dim", "boundary", "orbits", "analyze", "validate", "info")
# analyze checks cofinality with one boundary enumeration per vertex, so it
# runs only on graphs this small; (2,2), the largest, takes about 0.2 s
ANALYZE_MAX_VERTICES = 9
OMEGA_LADDER = [(1,), (2,), (3,), (4,), (6,), (1, 1), (2, 1), (2, 2), (3, 2), (3, 3), (4, 3),
                (4, 4), (1, 1, 1), (2, 1, 1), (2, 2, 1), (2, 2, 2), (1, 1, 1, 1)]
TINY_LADDER = [(1,), (1, 1)]

# frozen from the seed commit; the smoke test cross-checks the boundary
# count against the definition-level oracle of tests/conftest.py
LAMBDA2 = {"k": 2, "vertices": 5, "edges": 5, "squares": 1, "boundary": 6,
           "orbits": 2, "dim": 20, "cofinal": False, "locally_convex": False}
LAMBDA2_FILE = os.path.join("tests", "fixtures", "lambda2.json")


def ladder_expectations(facts):
    """Checks for each ladder command, from a graph's reference facts."""
    simple = "yes" if facts["cofinal"] else "no"

    def lines(text):
        return text.splitlines()

    def validate(rc, text):
        return rc == 0 and text == (
            f"ok: rank {facts['k']}, {facts['vertices']} vertices, "
            f"{facts['edges']} edges, {facts['squares']} squares\n")

    def info(rc, text):
        got = dict(line.split(": ", 1) for line in lines(text))
        return rc == 0 and got.get("rank") == str(facts["k"]) \
            and len(got.get("vertices", "").split()) == facts["vertices"] \
            and len(got.get("edges", "").split()) == facts["edges"] \
            and got.get("acyclic") == "True" and got.get("has_sources") == "True" \
            and got.get("locally_convex") == str(facts["locally_convex"])

    def boundary_(rc, text):
        got = lines(text)
        return rc == 0 and len(got) == facts["boundary"] and len(set(got)) == len(got)

    def orbits(rc, text):
        got = lines(text)
        labels = [x for line in got for x in line.split()]
        return rc == 0 and len(got) == facts["orbits"] \
            and len(set(labels)) == len(labels) == facts["boundary"]

    def analyze(rc, text):
        got = lines(text)
        return rc == 0 and "aperiodic: aperiodic" in got \
            and f"basically simple: {simple}" in got \
            and f"dimension: {facts['dim']}" in got

    return {
        "dim": (["dim"], lambda rc, text: rc == 0 and text == f"{facts['dim']}\n"),
        "boundary": (["boundary"], boundary_),
        "orbits": (["boundary", "--orbits"], orbits),
        "analyze": (["analyze"], analyze),
        "validate": (["validate"], validate),
        "info": (["info"], info),
    }


def build_cli_ladder(seed, workdir, tiny=False):
    targets = []
    for m in TINY_LADDER if tiny else OMEGA_LADDER:
        facts = dict(graphs.omega_facts(m), k=len(m), locally_convex=True)
        targets.append((["--omega", ",".join(map(str, m))], facts))
    targets.append((["--graph", LAMBDA2_FILE], LAMBDA2))
    for i in range(2 if tiny else 6):
        p = graphs.AcyclicProduct(graphs.rng_for(seed, f"acyclic{i}"), i)
        path = write_graph(workdir, f"acyclic{i}", p.doc)
        facts = {"k": 2, "vertices": len(p.doc["vertices"]), "edges": len(p.doc["edges"]),
                 "squares": len(p.doc["squares"]), "boundary": p.boundary_count,
                 "orbits": p.orbit_count, "dim": p.dim, "cofinal": p.cofinal,
                 "locally_convex": True}
        targets.append((["--graph", path], facts))
    ops = []
    for graph_args, facts in targets:
        table = ladder_expectations(facts)
        for command in COMMANDS:
            if command == "analyze" and facts["vertices"] > ANALYZE_MAX_VERTICES:
                continue
            argv, expect = table[command]
            ops.append(cli_op(command, graph_args + argv, expect))
    return ops


# ----------------------------------------------------------------------
# cyclic-queries


class CyclicTarget:
    """A cyclic graph file plus its structure as a product of 1-graphs,
    from which the references are computed without kpx."""

    def __init__(self, name, path, product):
        self.name = name
        self.path = path
        self.product = product
        self.vertices = list(product.at)

    def paths(self, v, n):
        """(label, source vertex) of each path of degree n with range v."""
        p = self.product
        return [(p.label(x), p.source(x)) for x in p.paths(v, n)]


def exhaustive_ops(rng, t, plans):
    """Path sets whose exhaustiveness is known by construction.

    Every vertex of these graphs receives edges of both colors, so the paths
    of one degree n at v form an exhaustive set; dropping one of them, mu,
    leaves mu itself as a witness; putting back all extensions of mu of a
    further degree restores exhaustiveness, and dropping one of those breaks
    it again.
    """
    ops = []
    for n, m in plans:
        v = rng.choice(t.vertices)
        level = t.paths(v, n)
        mu, mu_end = rng.choice(level)
        rest = [label for label, _ in level if label != mu]
        exts = [f"{mu}.{label}" for label, _ in t.paths(mu_end, m)]
        drop = rng.choice(exts)
        for paths, truth in (
            ([label for label, _ in level], True),
            (rest, False),
            (rest + exts, True),
            (rest + [x for x in exts if x != drop], False),
        ):
            argv = ["--graph", t.path, "exhaustive", "--vertex", v] + paths
            expect = (lambda truth: lambda rc, text:
                      rc == (0 if truth else 1)
                      and text.startswith(f"exhaustive: {str(truth).lower()}\n"))(truth)
            ops.append(cli_op("exhaustive", argv, expect))
    return ops


# 64 products.  Which ops fall in the top tenth, where op_p90_ms is read,
# varies from seed to seed; over ten seeds op_p90_ms spread by 16 % with 16
# products and by 8-10 % with 32.
PRODUCT_ROUNDS = 4
# (degree n of the level set, degree m of the extensions of the dropped path)
PLANS = [((1, 0), (0, 1)), ((1, 1), (1, 1)), ((0, 1), (1, 1))]
RELATION_DEGREES = [(1, 0), (0, 1), (1, 1)]


def relation_ops(rng, t, triples):
    """Cuntz-Krieger relations, which are zero, and associativity triples,
    which are equalities.  Both hold in every Kumjian-Pask algebra."""
    ops = []
    zero = lambda rc, text: rc == 0 and text == "zero: true\n"
    equal = lambda rc, text: rc == 0 and text == "equal: true\n"
    for n in RELATION_DEGREES:
        v = rng.choice(t.vertices)
        level = t.paths(v, n)
        expr = f"s({v}) - " + " - ".join(f"s({lab})*g({lab})" for lab, _ in level)
        ops.append(cli_op("zero", ["--graph", t.path, "zero", expr], zero))
    v = rng.choice(t.vertices)
    lam, end = rng.choice(t.paths(v, (1, 1)))
    ops.append(cli_op("zero", ["--graph", t.path, "zero", f"g({lam})*s({lam}) - s({end})"], zero))
    p = t.product
    for _ in range(triples):
        a, mu, nu = associativity_words(rng, t)
        # a*(g(mu)*s(nu)), with g(mu)*s(nu) expanded over the common
        # extensions mu alpha = nu beta found in the factors: the sum of
        # s(alpha)*g(beta), or zero when there are none
        rhs = " + ".join(f"{a}*s({p.label(al)})*g({p.label(be)})" for al, be in p.mce(mu, nu))
        ops.append(cli_op("equal", ["--graph", t.path, "equal",
                                    f"{a}*g({p.label(mu)})*s({p.label(nu)})", rhs or f"0*{a}"],
                          equal))
    return ops


def associativity_words(rng, t):
    """A generator a = s(lam) and paths mu, nu with a common range, chosen
    so that g(mu)*s(nu) expands through minimal common extensions and
    a*g(mu) is not zero."""
    p = t.product
    w = rng.choice(t.vertices)
    mu = rng.choice(p.paths(w, rng.choice([(1, 0), (0, 1), (1, 1)])))
    nu = rng.choice(p.paths(w, rng.choice([(1, 0), (0, 1), (2, 0)])))
    mu_end = p.source(mu)
    lam, _ = rng.choice([x for x in t.paths(rng.choice(t.vertices), (1, 0)) if x[1] == mu_end]
                        or [(mu_end, mu_end)])
    return f"s({lam})", mu, nu


def build_cyclic_queries(seed, workdir, tiny=False):
    rng = graphs.rng_for(seed, "cyclic-ops")
    loop = write_graph(workdir, "loop", kio.graph_to_dict(presets.single_loop()))
    targets = []
    for n in (2,) if tiny else (2, 3, 4):
        path = write_graph(workdir, f"cloops{n}", kio.graph_to_dict(presets.commuting_loops(n)))
        targets.append(CyclicTarget(f"cloops{n}", path, graphs.commuting_loops(n)))
    products = graphs.cyclic_products(graphs.rng_for(seed, "cyclic"), PRODUCT_ROUNDS)
    for i, product in enumerate(products[:1] if tiny else products):
        path = write_graph(workdir, f"cyclic{i}", product.doc())
        targets.append(CyclicTarget(f"cyclic{i}", path, product))
    ops = []
    for t in targets:
        ops += exhaustive_ops(rng, t, PLANS[:1] if tiny else PLANS)
        ops += relation_ops(rng, t, 1 if tiny else 3)

    def periodic(rc, text):
        if rc == 3 and "basically simple: unknown" in text.splitlines():
            return UNKNOWN
        return rc == 0 and "basically simple: no" in text.splitlines()

    for path in [loop] + [t.path for t in targets if t.name.startswith("cloops")]:
        ops.append(cli_op("analyze", ["--graph", path, "analyze"], periodic))
    # The last degree is past the recursion depth of the seed's paths_from;
    # it stays in the workload so that the crash shows up as a failure.
    depths = ([100, 200] if tiny else [50, 100, 150, 200, 250, 300]) + [1500]
    for d in depths:
        want = ".".join(["e"] * d) + "\n"
        ops.append(cli_op("paths", ["--graph", loop, "paths", "--from", "v", "--degree", str(d)],
                          lambda rc, text, want=want: rc == 0 and text == want))
    return ops


# ----------------------------------------------------------------------
# algebra-session

SESSION_GRAPHS = [("lambda2", None), ("omega2,2", (2, 2)), ("omega3,3", (3, 3)),
                  ("omega1,1,1", (1, 1, 1)), ("omega2,2,2", (2, 2, 2))]
TINY_SESSION = [("lambda2", None), ("omega1,1", (1, 1))]


class SessionGraph:
    """A graph held for the whole session, with seeded element generators
    and the boundary-representation references."""

    def __init__(self, g, rng):
        self.g = g
        self.rng = rng
        self._hubs = []
        self.paths = g.all_paths()
        self.by_range, self.by_source = {}, {}
        for p in self.paths:
            self.by_range.setdefault(p.range, []).append(p)
            self.by_source.setdefault(p.source, []).append(p)
        self._basis = None

    def pick(self, pool):
        return pool[self.rng.randrange(len(pool))]

    def coeff(self):
        return QQ.from_int(self.rng.choice([-3, -2, -1, 1, 2, 3]))

    def span(self, nterms, lam_ranges=None, mu_ranges=None):
        """A span sum c s_lam s_mu^* whose legs start in the given ranges."""
        terms = {}
        for _ in range(nterms):
            pool = [p for w in mu_ranges for p in self.by_range[w]] if mu_ranges else self.paths
            mu = self.pick(pool)
            legs = [p for p in self.by_source[mu.source]
                    if lam_ranges is None or p.range in lam_ranges] or [mu]
            lam = self.pick(legs)
            terms[(lam, mu)] = terms.get((lam, mu), 0) + self.coeff()
        return algebra.SpanForm(QQ, {k: c for k, c in terms.items() if c != 0})

    def hubs(self, n):
        """The next n vertices of seeded rounds through all vertices, so that
        every seed centres about as many elements on each vertex."""
        out = []
        for _ in range(n):
            if not self._hubs:
                self._hubs = list(self.g.vertices)
                self.rng.shuffle(self._hubs)
            out.append(self._hubs.pop())
        return out

    # references -------------------------------------------------------

    def basis(self):
        if self._basis is None:
            self._basis = boundary.enumerate_boundary(self.g)
        return self._basis

    def act(self, a, vec):
        return boundary.boundary_rep(a, vec)

    def rep(self, a):
        return {x: self.act(a, {x: QQ.one}) for x in self.basis()}

    def rep_of_product(self, *factors):
        out = {}
        for x in self.basis():
            vec = {x: QQ.one}
            for a in reversed(factors):
                vec = self.act(a, vec)
            out[x] = vec
        return out

    def word_rep(self, weighted_words):
        """The representation of a sum of generator words, applied factor
        by factor to each basis path."""
        out = {}
        for x in self.basis():
            total = {}
            for coeff, word in weighted_words:
                y = x
                for kind, p in reversed(word):
                    y = boundary.apply_ghost(p, y) if kind == "g" else boundary.apply_path(p, y)
                    if y is None:
                        break
                if y is not None:
                    total[y] = total.get(y, 0) + coeff
            out[x] = {y: c for y, c in total.items() if c != 0}
        return out

    def cell_points(self, cell):
        """Groupoid elements (x, d(lam) - d(mu), y) of Z(lam * mu \\ avoid)."""
        lam, mu = cell.lam, cell.mu
        blocked = [self.g.compose(lam, nu) for nu in cell.avoid]
        out = set()
        for x in self.basis():
            if not boundary.has_path_prefix(x, lam):
                continue
            if any(boundary.has_path_prefix(x, b) for b in blocked):
                continue
            y = boundary.prepend(mu, boundary.shift(x, lam.degree))
            out.add((x, cell.shift_degree, y))
        return out


def is_null(rep):
    return not any(rep.values())


def lazy(compute):
    """A reference computed on first use, which is after the timed phase."""
    value = []

    def get():
        if not value:
            value.append(compute())
        return value[0]

    return get


def agree(got, want):
    return OK if got == want else WRONG


# Ops of each operation per graph.  With no record of what users run, each
# of the five operations (parse_element, multiply, equals, is_zero,
# disjointify) gets the same share; is_zero's share is split between
# commutators and kp4_defect.
PER_OPERATION = 32


def session_ops(s, tiny):
    """The seeded operations on one session graph."""
    ops = []
    n = 2 if tiny else PER_OPERATION
    for i in range(n):
        words, text = [], []
        for _ in range(2 + i % 2):
            lam = s.pick(s.paths)
            mu = s.pick(s.by_source[lam.source])
            nu = s.pick(s.by_range[mu.range])
            rho = s.pick(s.by_source[nu.source])
            c = s.rng.randint(1, 3)
            words.append((c, [("s", lam), ("g", mu), ("s", nu), ("g", rho)]))
            text.append(f"{c}*s({lam.label()})*g({mu.label()})*s({nu.label()})*g({rho.label()})")
        ref = lazy(lambda words=words: s.word_rep(words))
        ops.append(Op("parse_element",
                      lambda expr=" + ".join(text): elements.parse_element(s.g, QQ, expr),
                      lambda ans, ref=ref: agree(s.rep(ans), ref())))
    for _ in range(n):
        hub = s.hubs(1)
        a = s.span(16, mu_ranges=hub)
        b = s.span(16, lam_ranges=hub)
        ref = lazy(lambda a=a, b=b: s.rep_of_product(a, b))
        ops.append(Op("multiply", lambda a=a, b=b: algebra.multiply(a, b),
                      lambda ans, ref=ref: agree(s.rep(ans), ref())))
    for _ in range(n):
        h1, h2 = s.hubs(2)
        a = s.span(6, mu_ranges=[h1])
        b = s.span(6, lam_ranges=[h1], mu_ranges=[h2])
        c = s.span(6, lam_ranges=[h2])

        def assoc(a=a, b=b, c=c):
            left = algebra.multiply(algebra.multiply(a, b), c)
            right = algebra.multiply(a, algebra.multiply(b, c))
            return algebra.equals(left, right)

        ops.append(Op("equals", assoc, lambda ans: agree(ans, True)))
    for i in range(n // 2):
        hub = s.hubs(1)
        # odd: legs meet only at the hub; even: corner elements at the hub
        corner = hub if i % 2 == 0 else None
        a = s.span(8, lam_ranges=corner, mu_ranges=hub)
        b = s.span(8, lam_ranges=hub, mu_ranges=corner)

        def commutator(a=a, b=b):
            return algebra.is_zero(algebra.multiply(a, b) - algebra.multiply(b, a))

        ref = lazy(lambda a=a, b=b: s.rep_of_product(a, b) == s.rep_of_product(b, a))
        ops.append(Op("is_zero", commutator, lambda ans, ref=ref: agree(ans, ref())))
    for i in range(n // 2):
        v = s.pick([w for w in s.g.vertices if len(s.by_range[w]) > 1])
        exts = [p for p in s.by_range[v] if not p.is_vertex()]
        E = s.rng.sample(exts, min(len(exts), 1 + i % 4))
        factors = [algebra.vertex_unit(QQ, s.g, v) - algebra.generator(QQ, lam, lam) for lam in E]
        ref = lazy(lambda f=factors: is_null(s.rep_of_product(*f)))
        ops.append(Op("kp4_defect",
                      lambda v=v, E=E: algebra.is_zero(algebra.kp4_defect(QQ, s.g, v, E)),
                      lambda ans, ref=ref: agree(ans, ref())))
    for i in range(n):
        cells = seeded_cells(s, 8 + i % 9)
        ref = lazy(lambda cells=cells: set().union(*(s.cell_points(c) for c in cells)))

        def check(ans, ref=ref):
            # the pieces must be disjoint and cover the same groupoid elements
            got = [s.cell_points(c) for c in ans]
            return OK if sum(map(len, got)) == len(ref()) and set().union(*got) == ref() else WRONG

        ops.append(Op("disjointify", lambda cells=cells: groupoid.disjointify(cells), check))
    return ops


def seeded_cells(s, n):
    """Cells around one base pair, so that they overlap and nest."""
    lam = s.pick(s.paths)
    mu = s.pick(s.by_source[lam.source])
    cells = []
    while len(cells) < n:
        nu = s.pick(s.by_range[lam.source])
        exts = [p for p in s.by_range[nu.source] if not p.is_vertex()]
        avoid = s.rng.sample(exts, s.rng.randint(0, min(2, len(exts)))) if exts else []
        cell = groupoid.make_cell(s.g.compose(lam, nu), s.g.compose(mu, nu), avoid)
        if cell is not None:
            cells.append(cell)
    return cells


def build_algebra_session(seed, workdir, tiny=False):
    ops = []
    for name, m in TINY_SESSION if tiny else SESSION_GRAPHS:
        g = presets.lambda2() if m is None else omega_graph(m)
        ops += session_ops(SessionGraph(g, graphs.rng_for(seed, name)), tiny)
    return ops


WORKLOADS = {
    "cli-ladder": build_cli_ladder,
    "algebra-session": build_algebra_session,
    "cyclic-queries": build_cyclic_queries,
}
