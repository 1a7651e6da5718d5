"""Statement probe: each statement inside a kpx function runs in some tier-1
test, or ALLOWED says why none can.

Run from any directory, with pytest installed:

    python tests/statements.py

The probe runs the tier-1 suite in this process under sys.settrace,
tracing only frames whose code is in src/kpx, and lists each statement
inside a src/kpx function that no test ran.  A statement ran when a line
event fell on one of its own lines that carry code (not the lines of the
statements nested in it).  Tests that run kpx in a child process are not
traced.  The exit status is 0 only when every test passes, every unrun
statement is in ALLOWED, and every entry of ALLOWED names an unrun
statement: an entry whose statement moved, went or now runs is stale.
It takes several times as long as tier-1, so it runs on its own, never
inside tier-1.
"""

import ast
import inspect
import os
import sys
import time
import types
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

# (file under src/, function, first line of the statement) -> why no tier-1
# test runs it
ALLOWED = {
    ("kpx/cli.py", "main", "pass  # traceback and with it the partial answer its frames hold"):
        "only a child process under an address-space cap runs out of memory "
        "(test_an_answer_too_large_for_memory_is_an_input_error)",
    ("kpx/cli.py", "main", 'print("error: out of memory", file=sys.stderr)'):
        "the same child process",
    ("kpx/cli.py", "main", "return EXIT_INPUT"):
        "the same child process; main's other two returns of EXIT_INPUT are run",
    ("kpx/io.py", "spec_from_dict", "raise"):
        "defensive: each KeyError or TypeError of the spec comes from an entry "
        "that the diagnosis above names",
}


def executable_lines(path):
    """The lines of the file that carry code of a function, not of a module
    or class body."""
    lines, stack = set(), [compile(path.read_text(), str(path), "exec")]
    while stack:
        code = stack.pop()
        if code.co_flags & inspect.CO_OPTIMIZED:
            lines.update(line for _, _, line in code.co_lines() if line is not None)
        stack += [c for c in code.co_consts if isinstance(c, types.CodeType)]
    return lines


def nested(node):
    """The statements and except clauses directly inside node."""
    for _, value in ast.iter_fields(node):
        for child in value if isinstance(value, list) else ():
            if isinstance(child, ast.match_case):
                yield from child.body
            elif isinstance(child, (ast.stmt, ast.excepthandler)):
                yield child


def walk(body, name="", inside=False):
    """(function, statement) for each statement, except clauses included,
    in body at any depth that lies inside a function; name is the qualified
    name of body's function or class, inside whether a function holds it."""
    for node in body:
        if inside:
            yield name, node
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            inner = f"{name}.{node.name}" if name else node.name
            yield from walk(node.body, inner, inside or not isinstance(node, ast.ClassDef))
        else:
            yield from walk(nested(node), name, inside)


def own_lines(node):
    """The lines of node that none of the statements nested in it holds: a
    function's or a class's header, a compound statement's clause lines."""
    lines = set(range(node.lineno, node.end_lineno + 1))
    for child in nested(node):
        lines -= set(range(child.lineno, child.end_lineno + 1))
    return lines


def unrun(path, seen):
    """(function, line, text) for each statement inside a function of the
    file at path whose own lines hold code and saw no line event."""
    text = path.read_text()
    source, code = text.splitlines(), executable_lines(path)
    out = []
    for name, node in walk(ast.parse(text).body):
        lines = code & own_lines(node)
        if lines and not lines & seen:
            out.append((name, node.lineno, source[node.lineno - 1].strip()))
    return out


def tracer(files):
    """A trace function that records (file, line) for each line event in a
    frame whose code is in one of files, and turns tracing off in every other
    frame; and the set it records into."""
    seen, known = set(), {}  # known: code file name -> its path if in files, else None
    add = seen.add

    def line(frame, event, arg):
        if event == "line":
            add((known[frame.f_code.co_filename], frame.f_lineno))
        return line

    def call(frame, event, arg):
        name = frame.f_code.co_filename
        if name not in known:
            real = Path(os.path.realpath(name))
            known[name] = real if real in files else None
        return line if known[name] is not None else None

    return call, seen


def main():
    import pytest

    start = time.perf_counter()
    os.chdir(ROOT)  # tests name their fixtures relative to the checkout
    files = {Path(os.path.realpath(p)) for p in (SRC / "kpx").glob("*.py")}
    call, seen = tracer(files)
    sys.settrace(call)
    try:
        code = pytest.main(["-q", "--continue-on-collection-errors", "-p", "no:cacheprovider"])
    finally:
        sys.settrace(None)
    found = []
    for path in sorted(files):
        lines = {n for f, n in seen if f == path}
        rel = path.relative_to(os.path.realpath(SRC)).as_posix()
        found += [(rel, name, n, text) for name, n, text in unrun(path, lines)]
    keys = {(rel, name, text) for rel, name, _, text in found}
    bad = 0
    for rel, name, n, text in found:
        allowed = (rel, name, text) in ALLOWED
        bad += not allowed
        print(f"{'allowed' if allowed else 'UNRUN':8} src/{rel}:{n} in {name}: {text}")
    for key in ALLOWED.keys() - keys:
        bad += 1
        print(f"STALE    allowlist entry {key}: no unrun statement has that text")
    print(f"{len(found)} unrun statements, {bad} not allowed or stale; "
          f"pytest exit {code}, in {time.perf_counter() - start:.1f} s")
    return 1 if bad or code != 0 else 0


if __name__ == "__main__":
    sys.exit(main())
