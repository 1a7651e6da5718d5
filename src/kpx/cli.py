"""Command-line interface.

Exit codes: 0 success / property holds, 1 property is false, 2 input
error, an answer too large for memory, or internal error (reported on
stderr, never as a traceback), 3 a three-valued verdict came back unknown.

The grammar is written once, as data (``_SHARED`` and ``_GRAMMAR``).  At
import it builds the tables of a parse of the plain form of a command line:
exact option strings, option values that do not start with '-', one exact
subcommand, and its positionals in one unbroken run.  :func:`main` tries the
plain parse first.  Anything else (help, abbreviations, ``--opt=value``,
``--``, values starting with '-', every usage error) goes to argparse, whose
parser is built from the same rows on first use, and which writes every
usage error and help text.  Both paths give the same namespace.
:func:`main` then loads the graph once and hands it to its handler.  When
the command is done, errors included, it releases the graph
(``KGraph._release``): each path refers to its graph and the graph's caches
refer to the paths, so without that the graph would wait for the cyclic
garbage collector, while with it reference counting frees the graph at once.
"""

import argparse
import functools
import json
import re
import sys

from . import algebra, analysis, boundary, elements, groupoid, io, rings
from .errors import KpxError, ParseError, quoted
from .kgraph import omega_graph
from .rings import parse_ring

EXIT_OK = 0
EXIT_FALSE = 1
EXIT_INPUT = 2
EXIT_UNKNOWN = 3


def _parse_degree(text, k=None):
    try:
        deg = tuple(rings.integer(p) for p in text.split(","))
    except ParseError as exc:  # a literal too long to echo back
        raise KpxError(f"bad degree literal: {exc}") from None
    except ValueError:
        raise KpxError(f"bad degree literal {quoted(text)}") from None
    if any(c < 0 for c in deg):
        raise KpxError(f"degree {quoted(text)} has a negative entry")
    if k is not None and len(deg) != k:
        raise KpxError(f"degree {quoted(text)} has wrong rank (expected {k})")
    return deg


def _load(args):
    if args.omega is not None:
        return omega_graph(_parse_degree(args.omega))
    if args.graph is not None:
        return io.load_graph(args.graph)
    raise KpxError("no graph given: use --graph FILE or --omega M")


def _span_terms(a):
    return [
        {"lam": lam.label(), "mu": mu.label(), "coeff": rings.text(c)}
        for (lam, mu), c in a.items()
    ]


def _span_text(a):
    if a.is_structurally_zero():
        return "0"
    return " + ".join(
        f"{rings.text(c)}*s({l.label()})*g({m.label()})" for (l, m), c in a.items()
    )


def cmd_validate(g, args):
    payload = {
        "ok": True,
        "k": g.k,
        "vertices": len(g.vertices),
        "edges": len(g.edge_ids()),
        "squares": len(g.squares),
    }
    return EXIT_OK, payload, [
        f"ok: rank {g.k}, {payload['vertices']} vertices, "
        f"{payload['edges']} edges, {payload['squares']} squares"
    ]


def cmd_info(g, args):
    preds = g.predicates()
    payload = {
        "k": g.k,
        "vertices": list(g.vertices),
        "edges": g.edge_ids(),
        "predicates": preds,
    }
    lines = [f"rank: {g.k}",
             f"vertices: {' '.join(sorted(g.vertices))}",
             f"edges: {' '.join(payload['edges'])}"]
    lines += [f"{name}: {value}" for name, value in sorted(preds.items())]
    return EXIT_OK, payload, lines


def cmd_paths(g, args):
    deg = _parse_degree(args.degree, g.k)
    if args.leq:
        out = g.paths_leq(args.from_vertex, deg)
    else:
        out = g.paths_from(args.from_vertex, deg)
    labels = [p.label() for p in out]
    return EXIT_OK, {"paths": labels}, labels


def cmd_mce(g, args):
    lam = g.parse_path(args.path1)
    mu = g.parse_path(args.path2)
    pairs = sorted(
        g.minimal_common_extensions(lam, mu),
        key=lambda rt: (rt[0].sort_key(), rt[1].sort_key()),
    )
    exts = [p.label() for p in g.mce(lam, mu)]
    payload = {
        "mce": exts,
        "pairs": [{"rho": r.label(), "tau": t.label()} for r, t in pairs],
    }
    lines = [f"mce: {' '.join(exts) if exts else '(none)'}"]
    lines += [f"pair: rho={r.label()} tau={t.label()}" for r, t in pairs]
    return EXIT_OK, payload, lines


def cmd_exhaustive(g, args):
    E = [g.parse_path(p) for p in args.paths]
    witness = g.exhaustiveness_witness(args.vertex, E)
    ok = witness is None
    payload = {"exhaustive": ok}
    lines = [f"exhaustive: {str(ok).lower()}"]
    if not ok:
        payload["witness"] = witness.label()
        lines.append(f"witness: {witness.label()}")
    return (EXIT_OK if ok else EXIT_FALSE), payload, lines


def cmd_boundary(g, args):
    if args.orbits:
        orbs = [[x.label() for x in orb] for orb in boundary.orbits(g)]
        return EXIT_OK, {"orbits": orbs}, [" ".join(orb) for orb in orbs]
    labels = [x.label() for x in boundary.enumerate_boundary(g)]
    return EXIT_OK, {"boundary": labels}, labels


def cmd_eval(g, args):
    ring = parse_ring(args.ring)
    a = elements.parse_element(g, ring, args.expr)
    payload = {"ring": ring.name, "terms": _span_terms(a)}
    lines = [_span_text(a)]
    if args.grade:
        parts = algebra.grade(a)
        payload["grades"] = {
            ",".join(map(str, key)): _span_terms(part)
            for key, part in sorted(parts.items())
        }
        for key, part in sorted(parts.items()):
            lines.append(f"degree {','.join(map(str, key))}: {_span_text(part)}")
    return EXIT_OK, payload, lines


def cmd_zero(g, args):
    ring = parse_ring(args.ring)
    a = elements.parse_element(g, ring, args.expr)
    ok = algebra.is_zero(a)
    return (EXIT_OK if ok else EXIT_FALSE), {"zero": ok}, [f"zero: {str(ok).lower()}"]


def cmd_equal(g, args):
    ring = parse_ring(args.ring)
    a = elements.parse_element(g, ring, args.expr1)
    b = elements.parse_element(g, ring, args.expr2)
    ok = algebra.equals(a, b)
    return (EXIT_OK if ok else EXIT_FALSE), {"equal": ok}, [f"equal: {str(ok).lower()}"]


def cmd_refine(g, args):
    cells = [elements.parse_cell(g, text) for text in args.cells]
    refined = groupoid.disjointify([c for c in cells if c is not None])
    labels = [c.label() for c in refined]
    return EXIT_OK, {"cells": labels}, labels if labels else ["(empty)"]


def cmd_analyze(g, args):
    ring = parse_ring(args.ring)
    rep = analysis.report(g, ring=ring)
    payload = {
        "predicates": rep.predicates,
        "aperiodicity": rep.aperiodicity.status,
        "cofinality": rep.cofinality.status,
        "ring": ring.name,
        "ring_is_field": rep.ring_is_field,
        "basically_simple": rep.basically_simple,
        "simple": rep.simple,
    }
    lines = [f"{k}: {v}" for k, v in sorted(rep.predicates.items())]
    lines.append(f"aperiodic: {rep.aperiodicity.status}")
    if rep.aperiodicity.status == "periodic":
        mu, nu, alpha = rep.aperiodicity.witness
        payload["periodicity"] = {
            "vertex": rep.aperiodicity.vertex,
            "m": list(rep.aperiodicity.m),
            "n": list(rep.aperiodicity.n),
            "mu": mu.label(),
            "nu": nu.label(),
            "alpha": alpha.label(),
        }
        lines.append(
            f"periodicity: vertex={rep.aperiodicity.vertex} "
            f"m={rep.aperiodicity.m} n={rep.aperiodicity.n} "
            f"mu={mu.label()} nu={nu.label()} alpha={alpha.label()}"
        )
    lines.append(f"cofinal: {rep.cofinality.status}")
    if rep.cofinality.status == "not_cofinal":
        w, within = rep.cofinality.vertex, rep.cofinality.within
        # a sink is a finite boundary path; another set is listed
        key, value = ("within", list(within)) if g.out_edges(within[0]) else ("path", within[0])
        payload["cofinality_witness"] = {"vertex": w, key: value}
        lines.append(f"cofinality witness: vertex={w} {key}={' '.join(within)}")
    lines.append(f"ring: {ring.name} (field: {rep.ring_is_field})")
    lines.append(f"basically simple: {rep.basically_simple}")
    lines.append(f"simple: {rep.simple}")
    if rep.dimension is not None:
        payload["dimension"] = rep.dimension
        lines.append(f"dimension: {rings.text(rep.dimension)}")
    code = EXIT_UNKNOWN if rep.basically_simple == "unknown" else EXIT_OK
    return code, payload, lines


def cmd_dim(g, args):
    ring = parse_ring(args.ring)
    dim = groupoid.dim_over_field(g, ring)
    return EXIT_OK, {"dimension": dim}, [rings.text(dim)]


class _Parser(argparse.ArgumentParser):
    """argparse, whose error for a missing expression also says where an
    expression such as -s(e1) goes when one was read as an unknown option."""

    _args = None  # the arguments of the parse under way, for error()

    def parse_known_args(self, args=None, namespace=None):
        self._args = args  # a subcommand's parser gets those after its name
        return super().parse_known_args(args, namespace)

    def error(self, message):
        if message.startswith("the following arguments are required: expr") and any(
                a[:1] == "-" and a[:2] != "--" and a not in self._option_string_actions
                for a in self._args or ()):
            message += " (an expression that starts with '-' must follow '--')"
        super().error(message)


# Each argument is (name, add_argument keywords); a name that starts with '-'
# is an option.  The plain parse knows only store and store_true arguments
# with no type or choices, and positionals with nargs None, '*' or '+'.
_SHARED = [  # before or after the subcommand
    ("--graph", {"help": "graph specification file (JSON)"}),
    ("--omega", {"metavar": "M", "help": "use the built-in lattice-segment graph with "
                 "top degree M, e.g. --omega 3 or --omega 1,1"}),
    ("--json", {"action": "store_true", "help": "JSON output"}),
    ("--ring", {"help": "coefficient ring: z, q, or zmod:N (default q)"}),
]
_GRAMMAR = {  # subcommand: (handler, help, its own arguments)
    "validate": (cmd_validate, "validate the graph file", []),
    "info": (cmd_info, "summary and structural predicates", []),
    "paths": (cmd_paths, "enumerate paths from a vertex", [
        ("--from", {"dest": "from_vertex", "required": True}),
        ("--degree", {"required": True}),
        ("--leq", {"action": "store_true", "help": "relative boundary: degree <= bound, "
                   "maximal in deficient colors"}),
    ]),
    "mce": (cmd_mce, "minimal common extensions of two paths", [("path1", {}), ("path2", {})]),
    "exhaustive": (cmd_exhaustive, "test a set of paths for exhaustivity", [
        ("--vertex", {"required": True}), ("paths", {"nargs": "*"})]),
    "boundary": (cmd_boundary, "enumerate boundary paths (acyclic)", [
        ("--orbits", {"action": "store_true"})]),
    "eval": (cmd_eval, "reduce an element expression to span form", [
        ("expr", {}), ("--grade", {"action": "store_true"})]),
    "zero": (cmd_zero, "exact zero test for an element", [("expr", {})]),
    "equal": (cmd_equal, "exact equality of two elements", [("expr1", {}), ("expr2", {})]),
    "refine": (cmd_refine, "disjointify a list of groupoid cells", [("cells", {"nargs": "+"})]),
    "analyze": (cmd_analyze, "aperiodicity / cofinality / simplicity", []),
    "dim": (cmd_dim, "dimension over a field (acyclic graphs)", []),
}


@functools.cache
def _parser():
    """The argparse parser, built once, when a command line is not plain."""
    # the shared options suppress their defaults so a subcommand occurrence
    # does not clobber a value given before the subcommand
    common = argparse.ArgumentParser(add_help=False, argument_default=argparse.SUPPRESS)
    for name, kw in _SHARED:
        common.add_argument(name, **kw)
    parser = _Parser(
        prog="kpx",
        description="Exact computations in Kumjian-Pask algebras of finite "
        "higher-rank graphs.",
        parents=[common],
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (_, help_text, arguments) in _GRAMMAR.items():
        p = sub.add_parser(command, parents=[common], help=help_text)
        for name, kw in arguments:
            p.add_argument(name, **kw)
    return parser


_DEFAULTS = {"graph": None, "omega": None, "json": False, "ring": "q"}
_NARGS = {None: "(A)", "*": "(A*)", "+": "(A+)"}  # positional nargs -> pattern over its run


def _options(arguments):
    """{option string: (dest, True for a flag or None for one that takes a
    value)} for the options among arguments."""
    return {name: (kw.get("dest", name[2:]), kw.get("action") == "store_true" or None)
            for name, kw in arguments if name[:1] == "-"}


def _command_table(arguments):
    """A subcommand's option table, defaults, required dests, positionals
    (dest, nargs) and the pattern that splits their run."""
    positionals = [(name, kw.get("nargs")) for name, kw in arguments if name[:1] != "-"]
    return (
        _options(_SHARED + arguments),
        {**{dest: False if flag else None for dest, flag in _options(arguments).values()},
         **{dest: None for dest, _ in positionals}},
        [kw.get("dest", name[2:]) for name, kw in arguments if kw.get("required")],
        positionals,
        re.compile("".join(_NARGS[nargs] for _, nargs in positionals)),
    )


_TOP_OPTIONS = _options(_SHARED)
_COMMANDS = {command: _command_table(arguments) for command, (_, _, arguments) in _GRAMMAR.items()}


def _parse_plain(argv):
    """The namespace argparse gives for argv, if argv has the plain form;
    None otherwise, and always when argparse would exit."""
    top = dict(_DEFAULTS)
    values, options, command = top, _TOP_OPTIONS, None
    run, run_end = [], None  # the positionals, and the index after the last
    i, n = 0, len(argv)
    while i < n:
        tok = argv[i]
        i += 1
        if tok in options:
            dest, value = options[tok]
            if value is None:
                if i == n or argv[i][:1] == "-":
                    return None
                value = argv[i]
                i += 1
            values[dest] = value
        elif tok[:1] == "-":
            return None
        elif command is None:
            if tok not in _COMMANDS:
                return None
            command = tok
            options, defaults, required, positionals, pattern = _COMMANDS[tok]
            values = {}
        elif run and run_end != i - 1:  # argparse splits a broken run differently
            return None
        else:
            run.append(tok)
            run_end = i
    if command is None or any(dest not in values for dest in required):
        return None
    match = pattern.fullmatch("A" * len(run))
    if match is None:
        return None
    for g, (dest, nargs) in enumerate(positionals, 1):
        start, end = match.span(g)
        values[dest] = run[start] if nargs is None else run[start:end]
    args = argparse.Namespace()  # filled in one update, not one setattr per name
    vars(args).update({**top, "command": command, **defaults, **values})
    return args


def main(argv=None):
    if argv is None:
        argv = sys.argv[1:]
    args = _parse_plain(argv)
    if args is None:
        args = _parser().parse_args(argv, argparse.Namespace(**_DEFAULTS))
    g = None
    try:
        g = _load(args)
        code, payload, lines = _GRAMMAR[args.command][0](g, args)
        if args.json:  # every digit of each int: the digit limit is lifted for this print only
            # (Pythons before 3.10.7 have no limit, and int stands in as a no-op)
            limit = getattr(sys, "get_int_max_str_digits", int)()
            set_limit = getattr(sys, "set_int_max_str_digits", int)
            try:
                set_limit(0)
                print(json.dumps(payload, indent=2, sort_keys=True))
            finally:
                set_limit(limit)
        else:
            for line in lines:
                print(line)
        return code
    except MemoryError:  # reported below, once the clause has dropped the
        pass  # traceback and with it the partial answer its frames hold
    except (KpxError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except Exception as exc:  # a fault in kpx itself, not in the input
        print(f"error: internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INPUT
    finally:
        if g is not None:  # so reference counting frees it and its paths now
            g._release()
    print("error: out of memory", file=sys.stderr)
    return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
