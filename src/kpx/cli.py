"""Command-line interface.

Exit codes: 0 success / property holds, 1 property is false, 2 input
error or internal error (reported on stderr, never as a traceback), 3 a
three-valued verdict came back unknown.

The argument parser is built once per process, at import, and it is the
one definition of the grammar.  :func:`main` first tries a table-driven
parse of the plain form of a command line, with tables read from that parser
at import: exact option strings, option values that do not start with '-',
one exact subcommand, and its positionals in one unbroken run.  Anything
else (help, abbreviations, ``--opt=value``, ``--``, values starting with '-',
every usage error) goes to the argparse parser, which also writes every usage
error and help text.  Both paths give the same namespace.
"""

import argparse
import json
import re
import sys
from decimal import Decimal
from fractions import Fraction

from . import algebra, analysis, boundary, elements, groupoid, io
from .errors import KpxError
from .kgraph import omega_graph
from .rings import QQ, parse_ring

EXIT_OK = 0
EXIT_FALSE = 1
EXIT_INPUT = 2
EXIT_UNKNOWN = 3


def _parse_degree(text, k=None):
    try:
        deg = tuple(int(p) for p in text.split(","))
    except ValueError:
        raise KpxError(f"bad degree literal {text!r}") from None
    if any(c < 0 for c in deg):
        raise KpxError(f"degree {text!r} has a negative entry")
    if k is not None and len(deg) != k:
        raise KpxError(f"degree {text!r} has wrong rank (expected {k})")
    return deg


def _load(args):
    if args.omega is not None:
        return omega_graph(_parse_degree(args.omega))
    if args.graph is not None:
        return io.load_graph(args.graph)
    raise KpxError("no graph given: use --graph FILE or --omega M")


def _coeff_text(c):
    """Every digit of a coefficient: str() refuses an int past the process's
    digit limit, Decimal() converts any int exactly."""
    if not isinstance(c, (int, Fraction)):
        return str(c)
    num = Decimal(c.numerator)
    return str(num) if c.denominator == 1 else f"{num}/{Decimal(c.denominator)}"


def _span_terms(a):
    return [
        {"lam": lam.label(), "mu": mu.label(), "coeff": _coeff_text(c)}
        for (lam, mu), c in a.items()
    ]


def _span_text(a):
    if a.is_structurally_zero():
        return "0"
    return " + ".join(
        f"{_coeff_text(c)}*s({l.label()})*g({m.label()})" for (l, m), c in a.items()
    )


def cmd_validate(args):
    g = _load(args)
    payload = {
        "ok": True,
        "k": g.k,
        "vertices": len(g.vertices),
        "edges": len(g.edge_ids()),
        "squares": len(g.squares),
    }
    return EXIT_OK, payload, [
        f"ok: rank {g.k}, {len(g.vertices)} vertices, "
        f"{len(g.edge_ids())} edges, {len(g.squares)} squares"
    ]


def cmd_info(args):
    g = _load(args)
    preds = g.predicates()
    payload = {
        "k": g.k,
        "vertices": list(g.vertices),
        "edges": g.edge_ids(),
        "predicates": preds,
    }
    lines = [f"rank: {g.k}",
             f"vertices: {' '.join(sorted(g.vertices))}",
             f"edges: {' '.join(g.edge_ids())}"]
    lines += [f"{name}: {value}" for name, value in sorted(preds.items())]
    return EXIT_OK, payload, lines


def cmd_paths(args):
    g = _load(args)
    deg = _parse_degree(args.degree, g.k)
    if args.leq:
        out = g.paths_leq(args.from_vertex, deg)
    else:
        out = g.paths_from(args.from_vertex, deg)
    labels = [p.label() for p in out]
    return EXIT_OK, {"paths": labels}, labels


def cmd_mce(args):
    g = _load(args)
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


def cmd_exhaustive(args):
    g = _load(args)
    E = [g.parse_path(p) for p in args.paths]
    witness = g.exhaustiveness_witness(args.vertex, E)
    ok = witness is None
    payload = {"exhaustive": ok}
    lines = [f"exhaustive: {str(ok).lower()}"]
    if not ok:
        payload["witness"] = witness.label()
        lines.append(f"witness: {witness.label()}")
    return (EXIT_OK if ok else EXIT_FALSE), payload, lines


def cmd_boundary(args):
    g = _load(args)
    if args.orbits:
        orbs = boundary.orbits(g)
        payload = {"orbits": [[x.label() for x in orb] for orb in orbs]}
        lines = [" ".join(x.label() for x in orb) for orb in orbs]
    else:
        paths = boundary.enumerate_boundary(g)
        payload = {"boundary": [x.label() for x in paths]}
        lines = [x.label() for x in paths]
    return EXIT_OK, payload, lines


def cmd_eval(args):
    g = _load(args)
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


def cmd_zero(args):
    g = _load(args)
    ring = parse_ring(args.ring)
    a = elements.parse_element(g, ring, args.expr)
    ok = algebra.is_zero(a)
    return (EXIT_OK if ok else EXIT_FALSE), {"zero": ok}, [f"zero: {str(ok).lower()}"]


def cmd_equal(args):
    g = _load(args)
    ring = parse_ring(args.ring)
    a = elements.parse_element(g, ring, args.expr1)
    b = elements.parse_element(g, ring, args.expr2)
    ok = algebra.equals(a, b)
    return (EXIT_OK if ok else EXIT_FALSE), {"equal": ok}, [f"equal: {str(ok).lower()}"]


def cmd_refine(args):
    g = _load(args)
    cells = [elements.parse_cell(g, text) for text in args.cells]
    refined = groupoid.disjointify([c for c in cells if c is not None])
    labels = [c.label() for c in refined]
    return EXIT_OK, {"cells": labels}, labels if labels else ["(empty)"]


def cmd_analyze(args):
    g = _load(args)
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
        payload["cofinality_witness"] = {
            "vertex": rep.cofinality.vertex,
            "path": rep.cofinality.path.label(),
        }
        lines.append(
            f"cofinality witness: vertex={rep.cofinality.vertex} "
            f"path={rep.cofinality.path.label()}"
        )
    lines.append(f"ring: {ring.name} (field: {rep.ring_is_field})")
    lines.append(f"basically simple: {rep.basically_simple}")
    lines.append(f"simple: {rep.simple}")
    if rep.dimension is not None:
        payload["dimension"] = rep.dimension
        lines.append(f"dimension: {rep.dimension}")
    code = EXIT_UNKNOWN if rep.basically_simple == "unknown" else EXIT_OK
    return code, payload, lines


def cmd_dim(args):
    g = _load(args)
    ring = parse_ring(args.ring)
    dim = groupoid.dim_over_field(g, ring)
    return EXIT_OK, {"dimension": dim}, [str(dim)]


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


def build_parser():
    # the shared flags suppress their defaults so a subcommand occurrence
    # does not clobber a value given before the subcommand
    common = argparse.ArgumentParser(add_help=False, argument_default=argparse.SUPPRESS)
    common.add_argument("--graph", help="graph specification file (JSON)")
    common.add_argument(
        "--omega",
        metavar="M",
        help="use the built-in lattice-segment graph with top degree M, "
        "e.g. --omega 3 or --omega 1,1",
    )
    common.add_argument("--json", action="store_true", help="JSON output")
    common.add_argument(
        "--ring", help="coefficient ring: z, q, or zmod:N (default q)"
    )
    parser = _Parser(
        prog="kpx",
        description="Exact computations in Kumjian-Pask algebras of finite "
        "higher-rank graphs.",
        parents=[common],
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, **kw):
        return sub.add_parser(name, parents=[common], **kw)

    add("validate", help="validate the graph file")
    add("info", help="summary and structural predicates")

    p = add("paths", help="enumerate paths from a vertex")
    p.add_argument("--from", dest="from_vertex", required=True)
    p.add_argument("--degree", required=True)
    p.add_argument(
        "--leq", action="store_true",
        help="relative boundary: degree <= bound, maximal in deficient colors",
    )

    p = add("mce", help="minimal common extensions of two paths")
    p.add_argument("path1")
    p.add_argument("path2")

    p = add("exhaustive", help="test a set of paths for exhaustivity")
    p.add_argument("--vertex", required=True)
    p.add_argument("paths", nargs="*")

    p = add("boundary", help="enumerate boundary paths (acyclic)")
    p.add_argument("--orbits", action="store_true")

    p = add("eval", help="reduce an element expression to span form")
    p.add_argument("expr")
    p.add_argument("--grade", action="store_true")

    p = add("zero", help="exact zero test for an element")
    p.add_argument("expr")

    p = add("equal", help="exact equality of two elements")
    p.add_argument("expr1")
    p.add_argument("expr2")

    p = add("refine", help="disjointify a list of groupoid cells")
    p.add_argument("cells", nargs="+")

    add("analyze", help="aperiodicity / cofinality / simplicity")

    add("dim", help="dimension over a field (acyclic graphs)")
    return parser


_PARSER = build_parser()
_DEFAULTS = {"graph": None, "omega": None, "json": False, "ring": "q"}
_NARGS = {None: "(A)", "*": "(A*)", "+": "(A+)"}  # positional nargs -> pattern over its run


def _plain_options(parser):
    """{option string: (dest, True for a flag or None for one that takes a
    value)} for the store and store_true actions of parser with no type or
    choices; -h and anything else is left to argparse."""
    table = {}
    for option, a in parser._option_string_actions.items():
        if a.type is None and a.choices is None:
            if type(a) is argparse._StoreTrueAction:
                table[option] = (a.dest, True)
            elif type(a) is argparse._StoreAction and a.nargs is None:
                table[option] = (a.dest, None)
    return table


def _plain_tables(parser):
    """The top level's option table, the subcommands' dest, and per
    subcommand its option table, defaults, required dests, positionals
    (dest, nargs) and the pattern that splits their run."""
    (sub,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    commands = {}
    for name, p in sub.choices.items():
        positionals = [a for a in p._actions if not a.option_strings]
        if all(a.nargs in _NARGS and a.type is None and a.choices is None and a.default is None
               for a in positionals):
            commands[name] = (
                _plain_options(p),
                {a.dest: a.default for a in p._actions if a.default is not argparse.SUPPRESS},
                [a.dest for a in p._actions if a.option_strings and a.required],
                [(a.dest, a.nargs) for a in positionals],
                re.compile("".join(_NARGS[a.nargs] for a in positionals)),
            )
    return _plain_options(parser), sub.dest, commands


_TOP_OPTIONS, _COMMAND_DEST, _COMMANDS = _plain_tables(_PARSER)


def _parse_plain(argv):
    """The namespace _PARSER gives for argv, if argv has the plain form;
    None otherwise, and always when _PARSER would exit."""
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
    return argparse.Namespace(**{**top, _COMMAND_DEST: command, **defaults, **values})


_HANDLERS = {
    "validate": cmd_validate,
    "info": cmd_info,
    "paths": cmd_paths,
    "mce": cmd_mce,
    "exhaustive": cmd_exhaustive,
    "boundary": cmd_boundary,
    "eval": cmd_eval,
    "zero": cmd_zero,
    "equal": cmd_equal,
    "refine": cmd_refine,
    "analyze": cmd_analyze,
    "dim": cmd_dim,
}


def main(argv=None):
    if argv is None:
        argv = sys.argv[1:]
    args = _parse_plain(argv)
    if args is None:
        args = _PARSER.parse_args(argv, argparse.Namespace(**_DEFAULTS))
    try:
        code, payload, lines = _HANDLERS[args.command](args)
        if args.json:
            print(json.dumps(payload, indent=2, sort_keys=True))
        else:
            for line in lines:
                print(line)
        return code
    except (KpxError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except Exception as exc:  # a fault in kpx itself, not in the input
        print(f"error: internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
