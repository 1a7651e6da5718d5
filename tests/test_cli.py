"""Command line interface: commands, exit codes, JSON mode, file loading."""

import argparse
import ast
import contextlib
import gc
import io as stdio
import json
import os
import subprocess
import sys
import time
import weakref
from decimal import Decimal

import pytest
from hypothesis import example, given, settings, strategies as st

import kpx
from kpx import cli, io, presets
from kpx.cli import main
from conftest import ORACLE_GRAPHS, below, downset_graph, within

FIX = "tests/fixtures"
L2 = f"{FIX}/lambda2.json"
LOOP = f"{FIX}/loop.json"


def run(capsys, *argv):
    code = main(list(argv))
    return code, capsys.readouterr().out


def test_validate(capsys):
    code, out = run(capsys, "--graph", L2, "validate")
    assert code == 0
    assert "ok" in out


def test_validate_bad_file(tmp_path, capsys):
    documents = [
        b'{"k": 2,\n  "vertices": }',
        b'{"k": 1, "vertices": ["\xff"]}',  # not UTF-8
        b'{"k": 1e400, "vertices": []}',
        b'{"k": 1, "vertices": ["v"], "edges": '
        b'[{"id": "e", "color": 1e400, "range": "v", "source": "v"}]}',
        # JSON types are not coerced: k and colors are integers, ids strings
        b'{"k": 1.9, "vertices": ["v"]}',
        b'{"k": true, "vertices": ["v"]}',
        b'{"k": 1, "vertices": [1]}',
        b'{"k": 1, "vertices": "v"}',
        b'{"k": 1, "vertices": ["v"], "edges": '
        b'[{"id": "e", "color": 1.7, "range": "v", "source": "v"}]}',
        b'{"k": 1, "vertices": ["v"], "edges": '
        b'[{"id": "e", "color": true, "range": "v", "source": "v"}]}',
        b'{"k": 1, "vertices": ["v"], "edges": '
        b'[{"id": ["x"], "color": 1, "range": "v", "source": "v"}]}',
        b'{"k": 1, "vertices": ["v"], "edges": '
        b'[{"id": "e", "color": 1, "range": null, "source": "v"}]}',
        b'{"k": 1, "vertices": ["v"], "edges": '
        b'[{"id": "e", "color": 1, "range": "v", "source": 0}]}',
        b'{"k": 2, "vertices": ["v"], "edges": ['
        b'{"id": "e", "color": 1, "range": "v", "source": "v"}, '
        b'{"id": "f", "color": 2, "range": "v", "source": "v"}], '
        b'"squares": [{"first": ["e", 7], "second": ["f", "e"]}]}',
        b'{"k": 2, "vertices": ["v"], "edges": ['
        b'{"id": "e", "color": 1, "range": "v", "source": "v"}, '
        b'{"id": "f", "color": 2, "range": "v", "source": "v"}], '
        b'"squares": [{"first": ["e", "f", "x"], "second": ["f", "e"]}]}',
        # path labels join edge ids with '.', so an id may not contain one
        b'{"k": 1, "vertices": ["u", "v"], "edges": '
        b'[{"id": "a.b", "color": 1, "range": "u", "source": "v"}]}',
        # containers must be JSON lists and entries JSON objects
        b'{"k": 2, "vertices": ["v"], "edges": {}}',
        b'{"k": 2, "vertices": ["v"], "squares": [{"first": "ef", "second": ["f", "e"]}]}',
        b'{"k": 1, "vertices": ["v"], "edges": ["e"]}',
        b"[1]",
        # nested deeper than the JSON decoder recurses
        b"[" * 200_000,
        # an integer longer than int() converts
        b'{"k": ' + b"1" * 5000 + b', "vertices": []}',
    ]
    for doc in documents:
        bad = tmp_path / "bad.json"
        bad.write_bytes(doc)
        code = main(["--graph", str(bad), "validate"])
        err = capsys.readouterr().err
        assert code == 2, doc
        assert err.startswith("error: ") and "internal error" not in err, (doc[:80], err)


def test_malformed_document_says_what_is_wrong(tmp_path, capsys):
    edge = '{"id": "e", "color": 1, "range": "v", "source": "v"}'
    documents = {
        "[1]": "the graph document must be an object, not list",
        '"v"': "the graph document must be an object, not str",
        '{"k": 1}': "key 'vertices' is missing in the graph document",
        '{"k": 1, "vertices": ["v"], "edges": [7]}': "edge 0 must be an object, not int",
        '{"k": 1, "vertices": ["v"], "edges": [%s, ["e"]]}' % edge:
            "edge 1 must be an object, not list",
        '{"k": 1, "vertices": ["v"], "edges": [{"id": "e", "range": "v", "source": "v"}]}':
            "key 'color' is missing in edge 0",
        '{"k": 2, "vertices": ["v"], "edges": [%s], "squares": ["ef"]}' % edge:
            "square 0 must be an object, not str",
        '{"k": 2, "vertices": ["v"], "squares": [{"first": ["e", "f"]}]}':
            "key 'second' is missing in square 0",
        # int() refuses a literal past the interpreter's digit limit; the
        # error gives its length, as the element parser's does
        '{"k": %s, "vertices": []}' % ("1" * 5000):
            "invalid graph file {path}: integer of 5000 digits is too long",
        '{"k": 1, "vertices": ["v"], "edges": [{"id": "e", "color": %s, "range": "v", '
        '"source": "v"}]}' % ("-" + "9" * 4301):
            "invalid graph file {path}: integer of 4301 digits is too long",
    }
    bad = tmp_path / "bad.json"
    for doc, message in documents.items():
        bad.write_text(doc)
        assert main(["--graph", str(bad), "validate"]) == 2, doc[:80]
        assert capsys.readouterr().err == f"error: {message.format(path=bad)}\n", doc[:80]


def test_internal_error_has_no_traceback(capsys, monkeypatch):
    def broken(g, args):
        raise RuntimeError("boom")

    monkeypatch.setitem(cli._GRAMMAR, "validate", (broken, *cli._GRAMMAR["validate"][1:]))
    code = main(["--graph", L2, "validate"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err == "error: internal error: RuntimeError: boom\n"
    assert "Traceback" not in captured.out + captured.err


def test_missing_graph_flag(capsys):
    assert run(capsys, "info")[0] == 2


def test_empty_graph_flags(capsys):
    # an empty value is a value: it is parsed, not taken for a missing flag
    assert main(["--omega", "", "dim"]) == 2
    assert capsys.readouterr().err == "error: bad degree literal ''\n"
    assert main(["--graph", "", "dim"]) == 2
    assert capsys.readouterr().err == "error: [Errno 2] No such file or directory: ''\n"


def test_nonexistent_file(capsys):
    assert run(capsys, "--graph", "no/such/file.json", "validate")[0] == 2


def test_info(capsys):
    code, out = run(capsys, "--graph", L2, "info", "--json")
    assert code == 0
    data = json.loads(out)
    assert data["k"] == 2
    assert data["predicates"]["has_sources"] is True
    assert data["predicates"]["locally_convex"] is False


def test_paths(capsys):
    code, out = run(capsys, "--graph", L2, "paths", "--from", "v1", "--degree", "1,1")
    assert code == 0 and out.strip() == "e1.f1"
    # --leq is the relative boundary: degree at most the bound and maximal
    # in every deficient color (e3 ends at a source, e1.f1 hits the bound)
    code, out = run(
        capsys, "--graph", L2, "paths", "--from", "v1", "--degree", "1,1", "--leq"
    )
    assert set(out.split()) == {"e3", "e1.f1"}


def test_paths_bad_degree(capsys):
    assert run(capsys, "--graph", L2, "paths", "--from", "v1", "--degree", "1")[0] == 2


def test_paths_deep_degree(capsys):
    # growing one path of n edges is linear in n: 20,000 edges take about
    # 0.03 s, where copying the word at each level took about 1 s (2-vCPU
    # host, Python 3.11)
    for n, seconds in ((1500, 10), (20000, 0.3)):
        start = time.perf_counter()
        code, out = run(capsys, "--graph", LOOP, "paths", "--from", "v", "--degree", str(n))
        assert time.perf_counter() - start < seconds, n
        assert code == 0
        assert out == ".".join(["e"] * n) + "\n"


def test_paths_huge_degree(capsys):
    # no path from v1 has 10^20 colour-1 edges: the enumeration must stop
    # once no word is left instead of counting to 10^20, also when it keeps
    # every level up to the bound (--leq)
    argv = ["--graph", L2, "paths", "--from", "v1", "--degree", "100000000000000000000,0"]
    with within(10, "paths"):
        exact = run(capsys, *argv)
        leq = run(capsys, *argv, "--leq")
    assert exact == (0, "")
    assert leq == (0, "e1\ne3\n")


def test_paths_negative_degree(capsys):
    for argv in (
        ["--graph", LOOP, "paths", "--from", "v", "--degree", "-1"],
        ["--graph", LOOP, "paths", "--from", "v", "--degree", "-1", "--leq"],
        ["--omega", "2,-1", "analyze"],
        ["--omega", "-1", "dim"],
    ):
        assert run(capsys, *argv)[0] == 2, argv


def test_mce(capsys):
    code, out = run(capsys, "--graph", L2, "mce", "e1", "f2", "--json")
    assert code == 0
    data = json.loads(out)
    assert data["mce"] == ["e1.f1"]
    assert data["pairs"] == [{"rho": "f1", "tau": "e2"}]
    code, out = run(capsys, "--graph", L2, "mce", "e3", "f2")
    assert code == 0 and "(none)" in out


def test_exhaustive_exit_codes(capsys):
    code, out = run(capsys, "--graph", L2, "exhaustive", "--vertex", "v1", "e1", "e3")
    assert code == 0 and "true" in out
    code, out = run(capsys, "--graph", L2, "exhaustive", "--vertex", "v1", "f2")
    assert code == 1 and "witness: e3" in out


def test_exhaustive_unknown_vertex(capsys):
    # the vertex is checked before the paths are matched against it
    code = main(["--graph", L2, "exhaustive", "--vertex", "zz", "e1"])
    assert code == 2
    assert capsys.readouterr().err == "error: unknown vertex id 'zz'\n"
    # of two paths at other vertices, the error names the first given
    for strays in (["e2", "f1"], ["f1", "e2"]):
        assert main(["--graph", L2, "exhaustive", "--vertex", "v1", "e1", *strays]) == 2
        assert capsys.readouterr().err == f"error: Path({strays[0]}) is not a path at 'v1'\n"


def test_exhaustive_names_a_long_stray_in_one_short_line(capsys, tmp_path):
    # loop e at b and edge f from b into a: e^3000 is a path at b, not at a,
    # and its 5,999-character label is shortened as a long literal is
    graph = tmp_path / "two.json"
    graph.write_text(json.dumps({"k": 1, "vertices": ["a", "b"], "edges": [
        {"id": "e", "color": 1, "range": "b", "source": "b"},
        {"id": "f", "color": 1, "range": "a", "source": "b"}]}))
    assert main(["--graph", str(graph), "exhaustive", "--vertex", "a", ".".join("e" * 3000)]) == 2
    err = "error: Path(e.e.e.e.... (5999 chars)) is not a path at 'a'\n"
    assert capsys.readouterr() == ("", err)
    assert len(err) < 100


def test_a_dot_in_a_vertex_id_is_refused(capsys, tmp_path):
    # a path literal names a vertex before edge ids joined by '.', so the
    # vertex e.f would hide the path e.f, of the edges e and f
    graph = tmp_path / "dotted.json"
    graph.write_text(json.dumps({"k": 1, "vertices": ["a", "b", "c", "e.f"], "edges": [
        {"id": "e", "color": 1, "range": "a", "source": "b"},
        {"id": "f", "color": 1, "range": "b", "source": "c"}]}))
    for argv in (["validate"], ["eval", "s(e)*s(f)"], ["mce", "e.f", "e"]):
        assert main(["--graph", str(graph), *argv]) == 2, argv
        assert capsys.readouterr() == ("", "error: vertex id 'e.f' contains '.'\n"), argv


F1_12 =".".join(["f1"] * 12)


@pytest.fixture
def cloops4(tmp_path):
    path = tmp_path / "cloops4.json"
    path.write_text(json.dumps(io.graph_to_dict(presets.commuting_loops(4))))
    return str(path)


def run_in_time(capsys, *argv):
    with within(10, argv):
        return run(capsys, *argv)


def test_mce_extends_the_longer_path(capsys, cloops4):
    # e and f1^12 meet at degree (1, 12): extending f1^12 by the one path e
    # finds the pair, where extending e would try all 4^12 colour-2 words;
    # in either argument order
    code, out = run_in_time(capsys, "--graph", cloops4, "mce", "e", F1_12)
    assert code == 0
    assert out == f"mce: e.{F1_12}\npair: rho={F1_12} tau=e\n"
    code, out = run_in_time(capsys, "--graph", cloops4, "mce", F1_12, "e")
    assert code == 0
    assert out == f"mce: e.{F1_12}\npair: rho=e tau={F1_12}\n"


def test_exhaustive_long_path_in_time(capsys, cloops4):
    # f2 has no common extension with f1^12: the search must see that
    # without listing the 4^11 extensions of f2 to degree (0, 12)
    code, out = run_in_time(capsys, "--graph", cloops4, "exhaustive", "--vertex", "v", F1_12)
    assert code == 1
    assert out == "exhaustive: false\nwitness: f2\n"


def test_exhaustive_all_but_one_square_in_time(capsys, cloops4):
    # every path of degree (2, 2) at v but e.e.f2.f3: f2.f3 extends only to
    # the missing one, and no shorter path avoids the other fifteen
    paths = [p.label() for p in presets.commuting_loops(4).paths_from("v", (2, 2))]
    paths.remove("e.e.f2.f3")
    code, out = run_in_time(capsys, "--graph", cloops4, "exhaustive", "--vertex", "v", *paths)
    assert code == 1
    assert out == "exhaustive: false\nwitness: f2.f3\n"


def test_boundary(capsys):
    code, out = run(capsys, "--graph", L2, "boundary")
    assert code == 0
    assert set(out.split()) == {"v4", "v5", "e2", "e3", "f1", "e1.f1"}
    code, out = run(capsys, "--graph", L2, "boundary", "--orbits", "--json")
    data = json.loads(out)
    assert sorted(len(o) for o in data["orbits"]) == [2, 4]


def test_eval_and_grade(capsys):
    code, out = run(capsys, "--graph", L2, "eval", "g(e1)*s(f2)")
    assert code == 0 and out.strip() == "1*s(f1)*g(e2)"
    code, out = run(capsys, "--graph", L2, "eval", "s(e1) + s(v1)", "--grade", "--json")
    data = json.loads(out)
    assert set(data["grades"]) == {"0,0", "1,0"}


def test_eval_huge_coefficient(capsys):
    # an integer too long for int() is an input error, not an internal one
    code = main(["--graph", L2, "eval", "1" + "0" * 5000 + "*s(v1)"])
    err = capsys.readouterr().err
    assert code == 2
    assert "internal error" not in err


def test_eval_prints_coefficients_past_the_digit_limit(capsys):
    # each literal is accepted, but their sum has more digits than str(int) allows
    nines = "9" * 4300
    expr = f"{nines}*s(v1) + {nines}*s(v1)"
    total = "1" + "9" * 4299 + "8"
    code, out = run(capsys, "--graph", L2, "eval", expr)
    assert code == 0 and out == f"{total}*s(v1)*g(v1)\n"
    code, out = run(capsys, "--graph", L2, "eval", expr, "--grade")
    assert code == 0
    assert out == f"{total}*s(v1)*g(v1)\ndegree 0,0: {total}*s(v1)*g(v1)\n"
    code, out = run(capsys, "--graph", L2, "--json", "eval", expr, "--grade")
    data = json.loads(out)
    assert code == 0 and data["terms"][0]["coeff"] == total
    assert data["grades"]["0,0"][0]["coeff"] == total
    code, out = run(capsys, "--graph", L2, "eval", f"{nines}/7*s(v1) + {nines}/7*s(v1)")
    assert code == 0 and out == f"{total}/7*s(v1)*g(v1)\n"


def test_reprs_print_coefficients_past_the_digit_limit(capsys):
    # a form's repr and its function's label write every digit that eval
    # prints, for a 4,301-digit integer and a 4,301-digit numerator
    g, nines = io.load_graph(L2), "9" * 4300
    for expr in (f"{nines}*s(v1) + {nines}*s(v1)", f"{nines}/7*s(v1) + {nines}/7*s(v1)"):
        code, out = run(capsys, "--graph", L2, "eval", expr)
        coeff = out.partition("*")[0]
        assert code == 0 and len(coeff.partition("/")[0]) == 4301
        a = kpx.elements.parse_element(g, kpx.rings.QQ, expr)
        assert repr(a) == f"SpanForm({coeff}*s(v1)g(v1))"
        assert kpx.groupoid.pi_t(a).label() == f"{coeff}*1[v1*v1]"


def test_zero_exit_codes(capsys):
    assert run(capsys, "--graph", L2, "zero", "s(e1.f1) - s(f2.e2)")[0] == 0
    assert run(capsys, "--graph", L2, "zero", "s(v1)")[0] == 1
    # the classic periodicity kernel on the single loop
    assert run(capsys, "--graph", LOOP, "zero", "s(e)*g(e) - s(e.e)*g(e)")[0] == 1


def test_equal(capsys):
    assert run(capsys, "--graph", L2, "equal", "s(v2)", "g(e1)*s(e1)")[0] == 0
    assert run(capsys, "--graph", L2, "equal", "s(v1)", "s(v2)")[0] == 1


def test_ring_flag(capsys):
    assert run(capsys, "--graph", L2, "--ring", "q", "eval", "2/3*s(v1)")[0] == 0
    assert run(capsys, "--graph", L2, "--ring", "z", "eval", "2/3*s(v1)")[0] == 2
    assert run(capsys, "--graph", L2, "--ring", "zmod:2", "zero", "s(v1) + s(v1)")[0] == 0


def test_ring_large_prime_modulus(capsys):
    # primality of the modulus is decided by Miller-Rabin, not by trial
    # division up to its square root
    with within(10, "classifying the modulus"):
        got = run(capsys, "--omega", "1", "--ring", "zmod:1000000000000000003", "dim")
    assert got == (0, "4\n")
    bound = "zmod:3317044064679887385961981"
    assert run(capsys, "--omega", "1", "--ring", bound, "dim")[0] == 2


# stdout of eval, eval --grade and --json eval for each (expression, ring),
# pinned from when every rational was a Fraction; None where a coefficient
# is not in the ring, which is exit 2 with nothing on stdout
EVAL_PINNED = {
    ("2/2*s(v1)", "q"): (
        "1*s(v1)*g(v1)\n",
        "1*s(v1)*g(v1)\ndegree 0,0: 1*s(v1)*g(v1)\n",
        '{\n  "ring": "Q",\n  "terms": [\n    {\n      "coeff": "1",\n'
        '      "lam": "v1",\n      "mu": "v1"\n    }\n  ]\n}\n',
    ),
    ("2/2*s(v1)", "z"): (
        "1*s(v1)*g(v1)\n",
        "1*s(v1)*g(v1)\ndegree 0,0: 1*s(v1)*g(v1)\n",
        '{\n  "ring": "Z",\n  "terms": [\n    {\n      "coeff": "1",\n'
        '      "lam": "v1",\n      "mu": "v1"\n    }\n  ]\n}\n',
    ),
    ("2/2*s(v1)", "zmod:6"): None,
    ("2/2*s(v1)", "zmod:7"): (
        "1*s(v1)*g(v1)\n",
        "1*s(v1)*g(v1)\ndegree 0,0: 1*s(v1)*g(v1)\n",
        '{\n  "ring": "Z/7",\n  "terms": [\n    {\n      "coeff": "1",\n'
        '      "lam": "v1",\n      "mu": "v1"\n    }\n  ]\n}\n',
    ),
    ("-4/6*s(e1)*g(e1) + 3*s(v1)", "q"): (
        "3*s(v1)*g(v1) + -2/3*s(e1)*g(e1)\n",
        "3*s(v1)*g(v1) + -2/3*s(e1)*g(e1)\n"
        "degree 0,0: 3*s(v1)*g(v1) + -2/3*s(e1)*g(e1)\n",
        '{\n  "ring": "Q",\n  "terms": [\n    {\n      "coeff": "3",\n'
        '      "lam": "v1",\n      "mu": "v1"\n    },\n    {\n      "coeff": "-2/3",\n'
        '      "lam": "e1",\n      "mu": "e1"\n    }\n  ]\n}\n',
    ),
    ("-4/6*s(e1)*g(e1) + 3*s(v1)", "z"): None,
    ("-4/6*s(e1)*g(e1) + 3*s(v1)", "zmod:6"): None,
    ("-4/6*s(e1)*g(e1) + 3*s(v1)", "zmod:7"): (
        "3*s(v1)*g(v1) + 4*s(e1)*g(e1)\n",
        "3*s(v1)*g(v1) + 4*s(e1)*g(e1)\ndegree 0,0: 3*s(v1)*g(v1) + 4*s(e1)*g(e1)\n",
        '{\n  "ring": "Z/7",\n  "terms": [\n    {\n      "coeff": "3",\n'
        '      "lam": "v1",\n      "mu": "v1"\n    },\n    {\n      "coeff": "4",\n'
        '      "lam": "e1",\n      "mu": "e1"\n    }\n  ]\n}\n',
    ),
    ("1/2*s(v1) + 1/2*s(v1)", "q"): (
        "1*s(v1)*g(v1)\n",
        "1*s(v1)*g(v1)\ndegree 0,0: 1*s(v1)*g(v1)\n",
        '{\n  "ring": "Q",\n  "terms": [\n    {\n      "coeff": "1",\n'
        '      "lam": "v1",\n      "mu": "v1"\n    }\n  ]\n}\n',
    ),
    ("1/2*s(v1) + 1/2*s(v1)", "z"): None,
    ("1/2*s(v1) + 1/2*s(v1)", "zmod:6"): None,
    ("1/2*s(v1) + 1/2*s(v1)", "zmod:7"): (
        "1*s(v1)*g(v1)\n",
        "1*s(v1)*g(v1)\ndegree 0,0: 1*s(v1)*g(v1)\n",
        '{\n  "ring": "Z/7",\n  "terms": [\n    {\n      "coeff": "1",\n'
        '      "lam": "v1",\n      "mu": "v1"\n    }\n  ]\n}\n',
    ),
}


@pytest.mark.parametrize(("expr", "ring"), list(EVAL_PINNED))
def test_eval_output_pinned(capsys, expr, ring):
    want = EVAL_PINNED[(expr, ring)]
    base = ["--graph", L2, "--ring", ring]
    got = [
        run(capsys, *base, "eval", expr),
        run(capsys, *base, "eval", expr, "--grade"),
        run(capsys, *base, "--json", "eval", expr),
    ]
    if want is None:
        assert got == [(2, "")] * 3
    else:
        assert got == [(0, text) for text in want]


def test_refine(capsys):
    code, out = run(capsys, "--graph", L2, "refine", "e1*e1", "f2*f2")
    assert code == 0
    assert out.split() == ["e1.f1*e1.f1"]


def test_refine_repeated_cells(capsys):
    # a cell given twice is cut by its equal without a search; the output is
    # the one printed before that shortcut
    assert main(["--graph", L2, "refine", "e1*e1", "e1*e1", "f2*f2", "v1*v1"]) == 0
    assert capsys.readouterr() == ("v1*v1\\e1.f1\ne1.f1*e1.f1\n", "")


def test_refine_parse_error_has_location(capsys):
    # a cell literal reports the 1-based column of the path at fault, the
    # way an element expression does, and wraps an unknown id
    for cell, err in [
        ("e1", "cell literal 'e1' needs LAM*MU (column 3)"),
        ("e1*x2", "bad path 'x2': unknown edge id 'x2' (column 4)"),
        (" zz * e1", "bad path 'zz': unknown edge id 'zz' (column 2)"),
        ("e1*e1\\f1; zz", "bad path 'zz': unknown edge id 'zz' (column 11)"),
        ("e1*e1\\e1.e3", "bad path 'e1.e3': edges e1 and e3 do not compose (column 7)"),
    ]:
        assert main(["--graph", L2, "refine", "e1*e1", cell]) == 2, cell
        assert capsys.readouterr().err == f"error: {err}\n"


def test_refine_names_a_stray_avoid_path_in_either_order(capsys):
    # every avoid path is checked before a vertex among them empties the cell
    for cell in ("v1*v1\\v1;e2", "v1*v1\\e2;v1"):
        assert main(["--graph", L2, "refine", cell]) == 2, cell
        assert capsys.readouterr() == ("", "error: Path(e2) is not a path at 'v1'\n"), cell


def test_analyze_exit_codes(capsys, tmp_path):
    assert run(capsys, "--graph", L2, "analyze")[0] == 0
    code, out = run(capsys, "--graph", L2, "analyze", "--json")
    data = json.loads(out)
    assert data["basically_simple"] == "no"
    # a cyclic non-deterministic graph gives an honest unknown -> exit 3
    from kpx import presets

    cl = presets.commuting_loops(3)
    path = tmp_path / "cloops.json"
    path.write_text(json.dumps(io.graph_to_dict(cl)))
    assert run(capsys, "--graph", str(path), "analyze")[0] == 3


def test_analyze_over_a_non_field(capsys, tmp_path):
    # simple is "no" over Z whatever the search decides, and the exit code
    # still follows basic simplicity, which is unknown here
    path = tmp_path / "cloops2.json"
    path.write_text(json.dumps(io.graph_to_dict(presets.commuting_loops(2))))
    code, out = run(capsys, "--graph", str(path), "--ring", "z", "analyze")
    assert code == 3
    assert "basically simple: unknown\nsimple: no\n" in out


# runs each argv of the JSON list argv[1] through kpx.cli.main and prints
# the JSON list of their [exit code, stdout, stderr]
_BATCH = """
import contextlib, io, json, sys
from kpx.cli import main
results = []
for argv in json.loads(sys.argv[1]):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    results.append([code, out.getvalue(), err.getvalue()])
print(json.dumps(results))
"""


def test_output_independent_of_hash_seed(tmp_path):
    # paths hash by identity, so a set of paths iterates in address order,
    # and str hashes follow PYTHONHASHSEED: neither order may reach the
    # output, so two fresh processes under two seeds print the same bytes
    cl2 = tmp_path / "cloops2.json"
    cl2.write_text(json.dumps(io.graph_to_dict(presets.commuting_loops(2))))
    cl2 = str(cl2)
    argvs = [
        ["--graph", L2, "refine", "e1*e1", "f2*f2", "v1*v1", "e1.f1*e1.f1", "v1*v1\\e1;f2"],
        ["--graph", L2, "eval", "g(e1)*s(f2) + s(e1.f1)*g(f2.e2) - 2*s(v1) + g(e3)*s(e3)",
         "--grade"],
        ["--graph", L2, "--json", "eval", "g(v1)*s(v1) - s(e1)*g(e1) - s(e3)*g(e3)", "--grade"],
        ["--graph", L2, "mce", "e1", "f2"],
        ["--graph", L2, "mce", "v1", "e1.f1", "--json"],
        ["--graph", L2, "exhaustive", "--vertex", "v1", "f2"],
        ["--graph", L2, "boundary", "--orbits"],
        ["--omega", "2,2", "boundary", "--orbits", "--json"],
        ["--graph", L2, "analyze"],
        ["--graph", LOOP, "analyze", "--json"],
        ["--graph", cl2, "analyze"],
        ["--graph", cl2, "mce", "e", "f1.f2"],
        ["--graph", cl2, "exhaustive", "--vertex", "v", "e.f1"],
        ["--graph", cl2, "refine", "e*e", "f1*f1", "e.f1*f1.e", "v*v\\e;f2"],
        ["--graph", cl2, "eval", "g(f1)*s(f2) + g(e)*s(f1) + s(e.f1)*g(f1.e)", "--grade"],
        ["--graph", L2, "refine", "e1*e1", "e1.f1*e3.f2"],
    ]
    src = os.path.dirname(os.path.dirname(kpx.__file__))
    children = [
        subprocess.Popen([sys.executable, "-c", _BATCH, json.dumps(argvs)],
                         env={**os.environ, "PYTHONHASHSEED": seed, "PYTHONPATH": src},
                         stdout=subprocess.PIPE, text=True)
        for seed in ("0", "1")
    ]
    try:
        first, second = (child.communicate(timeout=60)[0] for child in children)
    finally:
        for child in children:
            child.kill()  # a no-op once the child has exited
    assert [child.returncode for child in children] == [0, 0]
    assert first == second
    results = json.loads(first)
    assert [code for code, _, _ in results] == [0] * 5 + [1] + [0] * 4 + [3, 0, 1, 0, 0, 2]
    assert all(out for _, out, _ in results[:-1])


def test_plain_command_line_never_builds_the_parser():
    # the parser is built once per process and kept, so each case runs in
    # a fresh process; only a command line that is not in plain form builds it
    src = os.path.dirname(os.path.dirname(kpx.__file__))
    script = ("import sys; from kpx import cli; code = cli.main(sys.argv[1:]); "
              "print(code, cli._parser.cache_info().currsize)")
    for argv, built in ((["--omega", "2", "dim"], 0), (["--omega=2", "dim"], 1)):
        child = subprocess.run([sys.executable, "-c", script, *argv], capture_output=True,
                               text=True, env={**os.environ, "PYTHONPATH": src}, timeout=60)
        assert (child.stdout, child.stderr) == (f"9\n0 {built}\n", ""), argv


def test_dim(capsys):
    code, out = run(capsys, "--graph", L2, "dim", "--json")
    assert code == 0 and json.loads(out)["dimension"] == 20
    assert run(capsys, "--graph", L2, "--ring", "z", "dim")[0] == 2
    assert run(capsys, "--graph", LOOP, "dim")[0] == 2


def chain_doc(n):
    """The graph document of a chain of n steps with two parallel edges each."""
    return {
        "k": 1,
        "vertices": [f"v{i}" for i in range(n + 1)],
        "edges": [{"id": f"{x}{i}", "color": 1, "range": f"v{i}", "source": f"v{i + 1}"}
                  for i in range(n) for x in "ab"],
        "squares": [],
    }


def test_dim_counts_large_graphs(capsys, tmp_path):
    # dim counts the paths with each sink as source instead of listing every
    # path, and boundary lists only those paths
    assert run_in_time(capsys, "--omega", "30,30", "dim") == (0, "923521\n")
    assert run_in_time(capsys, "--omega", "8,8,8", "dim") == (0, "531441\n")
    code, out = run_in_time(capsys, "--omega", "30,30", "boundary", "--orbits")
    assert code == 0 and [len(line.split()) for line in out.splitlines()] == [961]
    # a chain of n steps with two parallel edges each has 2^(n+1) - 1 paths
    # with its one sink as source; Decimal writes every digit of the square
    limit = sys.get_int_max_str_digits()
    for n in (2000, 7199):
        path = tmp_path / "chain.json"
        path.write_text(json.dumps(chain_doc(n)))
        want = str(Decimal((2 ** (n + 1) - 1) ** 2))
        assert run_in_time(capsys, "--graph", str(path), "dim") == (0, f"{want}\n")
    # at 7,200 vertices the dimension has more digits than str(int) writes;
    # dim and analyze print them all, in text and in JSON
    assert len(want) == 4335
    assert run_in_time(capsys, "--graph", str(path), "--json", "dim") == (
        0, f'{{\n  "dimension": {want}\n}}\n')
    code, out = run_in_time(capsys, "--graph", str(path), "analyze")
    assert code == 0 and out.endswith(f"\nsimple: yes\ndimension: {want}\n")
    code, out = run_in_time(capsys, "--graph", str(path), "--json", "analyze")
    assert code == 0 and json.loads(out, parse_int=str)["dimension"] == want
    # the JSON print lifts the digit limit for itself only
    assert sys.get_int_max_str_digits() == limit


def test_report_repr_writes_every_digit():
    # the report's repr writes its dimension through rings.text, as dim and
    # analyze print it: past the digit limit, repr(int) raises ValueError
    g = kpx.kgraph.KGraph(io.spec_from_dict(chain_doc(7199)))
    want = str(Decimal((2 ** 7200 - 1) ** 2))
    assert len(want) == 4335
    with within(10, "repr of the report"):
        text = repr(kpx.analysis.report(g))
    assert text.startswith("SimplicityReport(predicates={'acyclic': True, ")
    assert text.endswith(f", basically_simple='yes', simple='yes', dimension={want})")


def test_validate_and_info_on_large_graphs_in_time(capsys):
    # both commands are mostly graph construction; info lists every vertex
    # and edge, taken here from the down-set oracle
    assert run_in_time(capsys, "--omega", "8,8,8", "validate") == (
        0, "ok: rank 3, 729 vertices, 1944 edges, 1728 squares\n")
    assert run_in_time(capsys, "--omega", "40,40", "validate") == (
        0, "ok: rank 2, 1681 vertices, 3280 edges, 1600 squares\n")
    for m in ((8, 8, 8), (40, 40)):
        want = downset_graph((m,))
        assert run_in_time(capsys, "--omega", ",".join(map(str, m)), "info") == (
            0, f"rank: {len(m)}\nvertices: {' '.join(sorted(want.vertices))}\n"
               f"edges: {' '.join(want.edge_ids())}\nacyclic: True\nhas_sources: True\n"
               "locally_convex: True\nrow_finite: True\n")


def test_analyze_large_acyclic_graphs_in_time(capsys, tmp_path):
    # acyclic cofinality is one pass along the peel order, so analyze builds
    # no reachability set per vertex, one sink or many
    with within(2, "--omega 3000 analyze"):
        got = run(capsys, "--omega", "3000", "analyze")
    assert got == (0, "acyclic: True\nhas_sources: True\nlocally_convex: True\n"
                      "row_finite: True\naperiodic: aperiodic\ncofinal: cofinal\n"
                      "ring: Q (field: True)\nbasically simple: yes\nsimple: yes\n"
                      "dimension: 9006001\n")
    code, out = run_in_time(capsys, "--omega", "40,40", "analyze")
    assert code == 0 and out.endswith("simple: yes\ndimension: 2825761\n")
    # a chain of 2,000 vertices into the two sinks a and b: every chain
    # vertex reaches both, and the witness is the first sink with the other
    n = 2000
    doc = {
        "k": 1,
        "vertices": [f"v{i}" for i in range(n)] + ["a", "b"],
        "edges": [{"id": f"e{i}", "color": 1, "range": f"v{i}", "source": f"v{i + 1}"}
                  for i in range(n - 1)]
                 + [{"id": f"to{w}", "color": 1, "range": f"v{n - 1}", "source": w} for w in "ab"],
        "squares": [],
    }
    path = tmp_path / "chain_sinks.json"
    path.write_text(json.dumps(doc))
    with within(1, "chain into two sinks analyze"):
        got = run(capsys, "--graph", str(path), "analyze")
    assert got == (0, "acyclic: True\nhas_sources: True\nlocally_convex: True\n"
                      "row_finite: True\naperiodic: aperiodic\ncofinal: not_cofinal\n"
                      "cofinality witness: vertex=a path=b\nring: Q (field: True)\n"
                      f"basically simple: no\nsimple: no\ndimension: {2 * (n + 1) ** 2}\n")


def test_analyze_large_cyclic_graphs_in_time(capsys, tmp_path):
    # a ring is strongly connected and one staircase closes it; with a loop
    # at v0 every vertex reaches a vertex that receives two edges of one
    # colour, so aperiodicity is unknown.  A chain into a loop is neither:
    # every staircase ends in the loop, which every vertex reaches, so
    # cofinality stays unknown after one walk over the chain.  None builds
    # a reachability set per vertex.
    n = 2000
    doc = {
        "k": 1,
        "vertices": [f"v{i}" for i in range(n)],
        "edges": [{"id": f"e{i}", "color": 1, "range": f"v{i}", "source": f"v{(i + 1) % n}"}
                  for i in range(n)],
        "squares": [],
    }
    ring = tmp_path / "ring.json"
    ring.write_text(json.dumps(doc))
    doc["edges"].append({"id": "loop", "color": 1, "range": "v0", "source": "v0"})
    ring_loop = tmp_path / "ring_loop.json"
    ring_loop.write_text(json.dumps(doc))
    head = "acyclic: False\nhas_sources: False\nlocally_convex: True\nrow_finite: True\n"
    cycle = ".".join(f"e{i}" for i in range(n))
    with within(1, "ring analyze"):
        got = run(capsys, "--graph", str(ring), "analyze")
    assert got == (0, head + "aperiodic: periodic\n"
                   f"periodicity: vertex=v0 m=(0,) n=({n},) mu=v0 nu={cycle} alpha={cycle}\n"
                   "cofinal: cofinal\nring: Q (field: True)\n"
                   "basically simple: no\nsimple: no\n")
    with within(1, "ring with a loop analyze"):
        got = run(capsys, "--graph", str(ring_loop), "analyze")
    assert got == (3, head + "aperiodic: unknown\ncofinal: cofinal\nring: Q (field: True)\n"
                   "basically simple: unknown\nsimple: unknown\n")
    doc["edges"] = doc["edges"][:n - 1] + [
        {"id": "loop", "color": 1, "range": f"v{n - 1}", "source": f"v{n - 1}"}]
    chain_loop = tmp_path / "chain_loop.json"
    chain_loop.write_text(json.dumps(doc))
    with within(1, "chain into a loop analyze"):
        got = run(capsys, "--graph", str(chain_loop), "analyze")
    mu = ".".join(f"e{i}" for i in range(n - 1))
    assert got == (0, head + "aperiodic: periodic\n"
                   f"periodicity: vertex=v0 m=({n - 1},) n=({n},) mu={mu} nu={mu}.loop alpha=loop\n"
                   "cofinal: unknown\nring: Q (field: True)\n"
                   "basically simple: no\nsimple: no\n")


def test_omega_flag(capsys):
    code, out = run(capsys, "--omega", "3", "dim", "--json")
    assert json.loads(out)["dimension"] == 16
    code, out = run(capsys, "--omega", "1,1", "dim", "--json")
    assert json.loads(out)["dimension"] == 16
    assert run(capsys, "--omega", "1,1,1", "validate")[0] == 0


def test_omega_segment_too_large_is_an_input_error(capsys):
    # no sequence of its 10^20 + 1 vertices fits in memory: the degree is
    # rejected before anything is built
    assert main(["--omega", "99999999999999999999", "dim"]) == 2
    assert capsys.readouterr().err == (
        f"error: degree (99999999999999999999,) spans more than {sys.maxsize} vertices\n")
    assert main(["--omega", "4294967296,4294967295", "validate"]) == 2
    assert capsys.readouterr().err == (
        f"error: degree (4294967296, 4294967295) spans more than {sys.maxsize} vertices\n")


def test_shared_parser_keeps_no_state_between_calls(capsys, monkeypatch):
    # --json given once does not stick to the parser
    json.loads(run(capsys, "--graph", L2, "--json", "info")[1])
    assert run(capsys, "--graph", L2, "info")[1].startswith("rank: 2\n")
    # a flag after the subcommand acts as before it, and the later one wins
    assert (run(capsys, "--graph", L2, "boundary", "--json")
            == run(capsys, "--graph", L2, "--json", "boundary"))
    code, _ = run(capsys, "--graph", L2, "--ring", "z", "eval", "2/3*s(v1)", "--ring", "q")
    assert code == 0
    # a ring given once falls back to the default on the next call
    assert run(capsys, "--graph", L2, "--ring", "z", "dim")[0] == 2
    assert run(capsys, "--graph", L2, "dim") == (0, "20\n")
    # a usage error reads the same every time
    errors = []
    for _ in range(2):
        with pytest.raises(SystemExit) as exc:
            main(["--graph", L2, "paths", "--from", "v1"])
        assert exc.value.code == 2
        errors.append(capsys.readouterr().err)
    assert errors[0] == errors[1] and "--degree" in errors[0]
    # and no call builds a parser of its own
    built = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    assert run(capsys, "--graph", L2, "validate")[0] == 0
    assert built == []


def test_output_is_deterministic(capsys):
    a = run(capsys, "--graph", L2, "boundary", "--json")[1]
    b = run(capsys, "--graph", L2, "boundary", "--json")[1]
    assert a == b
    c = run(capsys, "--graph", L2, "eval", "s(e1)+s(e3)+s(v1)")[1]
    d = run(capsys, "--graph", L2, "eval", "s(v1)+s(e3)+s(e1)")[1]
    assert c == d


# one plain argv per subcommand on each graph where it succeeds, then input
# errors that a handler raises after it has built paths
GARBAGE_ARGVS = [(["--graph", L2, *argv], code) for argv, code in [
    (["validate"], 0), (["info"], 0), (["paths", "--from", "v1", "--degree", "1,1", "--leq"], 0),
    (["mce", "e1", "f1"], 0), (["exhaustive", "--vertex", "v1", "e1"], 1),
    (["boundary", "--orbits"], 0), (["eval", "s(e1)*g(e1)", "--grade"], 0),
    (["zero", "s(v1) - s(e1)*g(e1)"], 1), (["equal", "s(e1)*g(e1)", "s(e1)*g(e1)"], 0),
    (["refine", "e1*e1", "v1*v1"], 0), (["analyze"], 0), (["dim"], 0),
]] + [(["--graph", LOOP, *argv], code) for argv, code in [
    (["validate"], 0), (["info"], 0), (["paths", "--from", "v", "--degree", "3"], 0),
    (["mce", "e", "e.e"], 0), (["exhaustive", "--vertex", "v", "e.e"], 0),
    (["eval", "s(e)*g(e)"], 0), (["zero", "s(v) - s(e)*g(e)"], 0), (["equal", "s(e)", "s(e)"], 0),
    (["refine", "e*e", "v*v"], 0), (["analyze"], 0),
]] + [(["--omega", "2,2", *argv], code) for argv, code in [
    (["validate"], 0), (["info"], 0), (["paths", "--from", "0,0", "--degree", "1,1"], 0),
    (["mce", "0,0>1,0", "0,0>0,1"], 0), (["exhaustive", "--vertex", "0,0", "0,0>1,0"], 0),
    (["boundary"], 0), (["eval", "s(0,0>1,0)"], 0), (["zero", "s(0,0)"], 1),
    (["equal", "s(0,0)", "s(0,0)"], 0), (["refine", "0,0*0,0"], 0), (["analyze"], 0), (["dim"], 0),
]] + [
    (["--graph", L2, "exhaustive", "--vertex", "v2", "e1"], 2),
    (["--graph", L2, "eval", "s(e1)*g(zz)"], 2),
    (["--graph", LOOP, "boundary"], 2),
]


@pytest.mark.parametrize("argv, code", GARBAGE_ARGVS,
                         ids=[" ".join(argv) for argv, _ in GARBAGE_ARGVS])
def test_a_command_leaves_no_cyclic_garbage(capsys, monkeypatch, argv, code):
    # each path refers to its graph and the graph's caches refer to the
    # paths; main empties those caches when the command is done, so
    # reference counting frees the graph at once and the collector finds
    # nothing to free among the objects the command made (the youngest
    # generation, as no collection runs while gc is disabled)
    loaded = []
    load = cli._load
    monkeypatch.setattr(cli, "_load", lambda args: loaded.append(weakref.ref(g := load(args))) or g)
    gc.disable()
    try:
        gc.collect(0)
        assert main(argv) == code, capsys.readouterr()
        assert len(loaded) == 1 and loaded[0]() is None
        assert gc.collect(0) == 0
    finally:
        gc.enable()


def test_garbage_argvs_cover_every_subcommand():
    assert {argv[2] for argv, code in GARBAGE_ARGVS if code != 2} == set(cli._GRAMMAR)


@pytest.mark.parametrize("name", sorted(ORACLE_GRAPHS))
def test_graph_round_trip(tmp_path, name):
    # all_paths is acyclic-only, so compare the paths of each degree up to
    # (1,)*k, which the cyclic graphs have too
    g = ORACLE_GRAPHS[name]()
    data = io.graph_to_dict(g)
    path = tmp_path / "g.json"
    path.write_text(json.dumps(data))
    g2 = io.load_graph(str(path))
    assert io.graph_to_dict(g2) == data
    assert g2.vertices == g.vertices
    for v in g.vertices:
        for n in below((1,) * g.k):
            assert ([(p.range, p.edges) for p in g2.paths_from(v, n)]
                    == [(p.range, p.edges) for p in g.paths_from(v, n)])


def test_parse_error_has_location(tmp_path, capsys):
    from kpx import errors

    # graph files report a line and a 1-based column, element expressions
    # a 1-based column; both end the message kpx prints
    path = tmp_path / "bad.json"
    path.write_text('{\n  "k": ]\n}')
    with pytest.raises(errors.ParseError) as exc:
        io.load_graph(str(path))
    assert exc.value.line == 2
    assert main(["--graph", str(path), "validate"]) == 2
    assert capsys.readouterr().err == (
        f"error: invalid graph file {path}: Expecting value (line 2, column 8)\n")
    assert main(["--graph", L2, "eval", "s(e1) + + s(e3)"]) == 2
    assert capsys.readouterr().err == (
        "error: expected a generator s(...) or g(...) (column 9)\n")
    assert main(["--graph", L2, "eval", "s(e1) + s(zz)"]) == 2
    assert capsys.readouterr().err == "error: bad path 'zz': unknown edge id 'zz' (column 11)\n"


def test_graph_files_read_as_text_mode_reads_them(tmp_path, capsys):
    # the reader decodes the bytes once and turns CR LF and lone CR line
    # ends into LF, as a text-mode read does: a JSON error after line 1 keeps
    # its line and column, a CRLF file validates, and bytes that are not
    # UTF-8 give the message a text-mode read gives; a leading byte-order
    # mark is dropped (RFC 8259, section 8.1), so that file validates too
    path = tmp_path / "g.json"
    for doc, err in (
        (b'{\r\n  "k": 1,\r\n  "vertices": ]\r\n}', "Expecting value (line 3, column 15)"),
        (b'{\r  "k": 1,\r  "vertices": ]\r}', "Expecting value (line 3, column 15)"),
        (b'{\r\n "k": 1,\r "vertices":\n ["v"], x}',
         "Expecting property name enclosed in double quotes (line 4, column 9)"),
        (b'{"k": 1, "vertices": ["\xe9"]}', "not UTF-8 text"),
    ):
        path.write_bytes(doc)
        assert main(["--graph", str(path), "validate"]) == 2, doc
        assert capsys.readouterr() == ("", f"error: invalid graph file {path}: {err}\n"), doc
    path.write_bytes(b'{\r\n  "k": 1,\r\n  "vertices": ["v"],\r\n  "edges": [{"id": "e", '
                     b'"color": 1, "range": "v", "source": "v"}]\r\n}\r\n')
    assert run(capsys, "--graph", str(path), "validate") == (
        0, "ok: rank 1, 1 vertices, 1 edges, 0 squares\n")
    for doc in (b'\xef\xbb\xbf{"k": 1, "vertices": ["v"]}',
                b'\xef\xbb\xbf{\r\n  "k": 1,\r\n  "vertices": ["v"]\r\n}\r\n'):
        path.write_bytes(doc)
        assert run(capsys, "--graph", str(path), "validate") == (
            0, "ok: rank 1, 1 vertices, 0 edges, 0 squares\n"), doc


# the commands that never walk an edge from source to range, on the acyclic
# lambda2 and on the cyclic commuting_loops(2), whose one vertex is v
NO_BACKWARD_WALK = [
    (L2, ["validate"]), (L2, ["paths", "--from", "v1", "--degree", "1,1"]),
    (L2, ["mce", "e1", "f2"]), (L2, ["exhaustive", "--vertex", "v1", "e1"]),
    (L2, ["eval", "s(e1)*g(e1)"]), (L2, ["zero", "s(e1.f1) - s(f2.e2)"]),
    (L2, ["equal", "s(v1)", "s(e1)*g(e1) + s(e3)*g(e3)"]), (L2, ["refine", "e1*e1", "v1*v1"]),
    (None, ["paths", "--from", "v", "--degree", "1,1"]), (None, ["mce", "e", "f1"]),
    (None, ["exhaustive", "--vertex", "v", "e"]), (None, ["zero", "s(v) - s(e)*g(e)"]),
    (None, ["equal", "s(v)", "s(e)*g(e)"]), (None, ["refine", "e*e", "v*v"]),
]


@pytest.mark.parametrize("graph, argv", NO_BACKWARD_WALK, ids=[
    f"{'lambda2' if graph else 'cloops'}-{argv[0]}" for graph, argv in NO_BACKWARD_WALK])
def test_commands_that_walk_no_edge_backward_build_no_source_index(
        capsys, monkeypatch, tmp_path, graph, argv):
    # the source index (edges by source) is built on first use, and only the
    # walks from source to range read it; each graph is checked as main
    # releases it
    if graph is None:
        graph = tmp_path / "cloops.json"
        graph.write_text(json.dumps(io.graph_to_dict(presets.commuting_loops(2))))
    built, release = [], kpx.kgraph.KGraph._release

    def checked_release(g):
        built.append(g._in is not None)
        release(g)

    monkeypatch.setattr(kpx.kgraph.KGraph, "_release", checked_release)
    assert main(["--graph", str(graph), *argv]) in (0, 1)
    capsys.readouterr()
    assert built == [False]


# each way the element parser fails: (expression, message, 1-based column)
ELEMENT_PARSE_ERRORS = [
    ("2 s(v1)", "expected '*', got 's'", 3),
    ("s", "expected '(', got 'end of input'", 2),
    ("1/x*s(v1)", "expected an integer", 3),
    ("s(v1))", "trailing input ')'", 6),
    ("s(v1", "unclosed generator parenthesis", 3),
]


@pytest.mark.parametrize("expr, message, column", ELEMENT_PARSE_ERRORS)
def test_element_parse_errors_are_located(capsys, expr, message, column):
    from kpx import errors
    from kpx.elements import parse_element
    from kpx.rings import QQ

    with pytest.raises(errors.ParseError) as exc:
        parse_element(presets.lambda2(), QQ, expr)
    assert exc.value.column == column
    assert str(exc.value) == f"{message} (column {column})"
    assert main(["--graph", L2, "eval", expr]) == 2
    assert capsys.readouterr() == ("", f"error: {message} (column {column})\n")


# what may stand before an expression or between its terms: whitespace, a
# leading sign, and a first term with either sign after it
PARSE_PREFIXES = ["  ", "\t", "\n ", "-", "- ", " -\t", "s(v1) + ", "s(v1)-", "s(v1) -\n"]


@pytest.mark.parametrize("prefix", PARSE_PREFIXES)
@pytest.mark.parametrize("expr, message, column", ELEMENT_PARSE_ERRORS)
def test_element_parse_errors_keep_message_and_column_behind_a_prefix(lambda2, prefix, expr,
                                                                        message, column):
    # the parser peeks each position once; the error behind a prefix is the
    # same error, its column moved by the prefix
    from kpx import errors
    from kpx.elements import parse_element
    from kpx.rings import QQ

    with pytest.raises(errors.ParseError) as exc:
        parse_element(lambda2, QQ, prefix + expr)
    column += len(prefix)
    assert (str(exc.value), exc.value.column) == (f"{message} (column {column})", column)


# whitespace where the parser skips it, pinned from the parser that peeked
# each position up to three times: (expression, message, 1-based column)
WHITESPACE_PARSE_ERRORS = [
    ("s ", "expected '(', got 'end of input'", 3),
    ("s  ", "expected '(', got 'end of input'", 4),
    ("s(v1)) ", "trailing input ') '", 6),
    ("s(v1) x", "trailing input 'x'", 7),
    ("s(v1 ", "unclosed generator parenthesis", 3),
    ("2 s(v1) ", "expected '*', got 's'", 3),
    ("1/x*s(v1) ", "expected an integer", 3),
    ("", "expected a generator s(...) or g(...)", 1),
    ("  ", "expected a generator s(...) or g(...)", 3),
    ("- ", "expected a generator s(...) or g(...)", 3),
    ("-  -s(v1)", "expected a generator s(...) or g(...)", 4),
    ("s(v1) + ", "expected a generator s(...) or g(...)", 9),
    ("s(v1)*", "expected a generator s(...) or g(...)", 7),
    ("2* ", "expected a generator s(...) or g(...)", 4),
    ("s( zz )", "bad path 'zz': unknown edge id 'zz'", 4),
]


@pytest.mark.parametrize("expr, message, column", WHITESPACE_PARSE_ERRORS)
def test_element_parse_errors_around_whitespace(lambda2, expr, message, column):
    from kpx import errors
    from kpx.elements import parse_element
    from kpx.rings import QQ

    with pytest.raises(errors.ParseError) as exc:
        parse_element(lambda2, QQ, expr)
    assert (str(exc.value), exc.value.column) == (f"{message} (column {column})", column)


def test_element_signs_and_whitespace(lambda2):
    # each sign applies to its own term, and whitespace between tokens,
    # trailing whitespace included, changes nothing
    from fractions import Fraction
    from kpx.elements import parse_element
    from kpx.rings import QQ

    def p(text):
        return parse_element(lambda2, QQ, text)

    x, y, z = p("s(v1)"), p("s(e1)*g(e1)"), p("2*s(e3)*g(e3)")
    for text in (" s(v1) ", "\ts(v1)\n", "s (v1)", "s( v1 )", "1 * s(v1)", "1/1*s(v1)"):
        assert p(text) == x, text
    assert p("s(v1) - s(e1)*g(e1)") == p(" s(v1)-s(e1) * g(e1) ") == x - y
    assert p("-s(v1) + s(e1)*g(e1)") == p("- s(v1)+s(e1)*g(e1)") == y - x
    assert p("s(v1) - s(e1)*g(e1) - 2 * s(e3) * g(e3)") == x - y - z
    assert p("-s(v1) - s(e1)*g(e1)") == -(x + y)
    assert p("1/2 * s(v1) - 3/ 4*s(v1)") == p("- 1 /4*s(v1)") == x.scale(Fraction(-1, 4))
    assert repr(p("s(v1) - s(e1)*g(e1) + s(e3)*g(e3)")) == (
        "SpanForm(1*s(v1)g(v1) + -1*s(e1)g(e1) + 1*s(e3)g(e3))")


def test_over_long_literals_are_measured_not_echoed(capsys):
    # a literal of more digits than int() converts is an input error that
    # says how many, in one short line, wherever it comes in
    digits = "1" * 5000
    too_long = "integer of 5000 digits is too long"
    for argv, message in (
        (["--omega", digits, "dim"], f"bad degree literal: {too_long}"),
        (["--graph", LOOP, "paths", "--from", "v", "--degree", digits],
         f"bad degree literal: {too_long}"),
        (["--graph", L2, "--ring", f"zmod:{digits}", "eval", "s(v1)"], f"bad modulus: {too_long}"),
        (["--graph", L2, "eval", f"{digits}*s(v1)"], f"{too_long} (column 1)"),
    ):
        assert main(argv) == 2
        assert capsys.readouterr() == ("", f"error: {message}\n")
        assert len(f"error: {message}") < 100


def test_long_literals_are_quoted_by_a_prefix(capsys):
    # a bad literal of more than 32 characters is quoted by its first 8 and
    # its length, in one short line, wherever it comes in; the path error
    # quotes it twice, once for the path and once for the unknown edge id
    for argv, message in (
        (["--omega", "x," + "1" * 5000, "dim"], "bad degree literal 'x,111111'... (5002 chars)"),
        (["--graph", L2, "--ring", "zmod:" + "x" * 5000, "eval", "s(v1)"],
         "bad modulus in 'zmod:xxx'... (5005 chars)"),
        (["--graph", L2, "--ring", "y" * 5000, "eval", "s(v1)"],
         "unknown ring 'yyyyyyyy'... (5000 chars)"),
        (["--graph", L2, "eval", f"s({'z' * 5000})"],
         "bad path 'zzzzzzzz'... (5000 chars): unknown edge id 'zzzzzzzz'... (5000 chars) "
         "(column 3)"),
        (["--graph", L2, "exhaustive", "--vertex", "w" * 5000],
         "unknown vertex id 'wwwwwwww'... (5000 chars)"),
        (["--graph", L2, "eval", "s(v1)" + ")" * 5000], "trailing input '))))))))'... "
         "(5000 chars) (column 6)"),
        (["--graph", L2, "refine", "v" * 5000], "cell literal 'vvvvvvvv'... (5000 chars) needs "
         "LAM*MU (column 5001)"),
    ):
        assert main(argv) == 2
        assert capsys.readouterr() == ("", f"error: {message}\n")
        assert len(f"error: {message}") < 100
    # a literal of 32 characters or fewer is quoted whole
    for text, message in (
        ("1," * 15 + "-1", f"degree '{'1,' * 15}-1' has a negative entry"),
        ("1," * 16 + "1", "degree '1,1,1,1,'... (33 chars) has wrong rank (expected 2)"),
    ):
        assert main(["--graph", L2, "paths", "--from", "v1", "--degree", text]) == 2
        assert capsys.readouterr() == ("", f"error: {message}\n")


def test_input_guards(capsys):
    # a bad ring name and a zero denominator are input errors, a difference
    # that cancels prints 0, and an unknown subcommand is argparse's to refuse
    assert main(["--graph", L2, "--ring", "zmod:x", "eval", "s(v1)"]) == 2
    assert capsys.readouterr() == ("", "error: bad modulus in 'zmod:x'\n")
    assert main(["--graph", L2, "--ring", "z", "eval", "1/0*s(v1)"]) == 2
    assert capsys.readouterr() == ("", "error: zero denominator\n")
    assert run(capsys, "--graph", L2, "eval", "s(e1) - s(e1)") == (0, "0\n")
    argv = ["--omega", "1", "nosuch"]
    assert cli._parse_plain(argv) is None
    code, out, err = outcome(capsys, argv)
    assert (code, out) == (2, "")
    assert err.startswith(USAGE + "kpx: error: argument command: invalid choice: 'nosuch'")


# a child that caps its own address space 32 MiB above what it holds once
# kpx is imported, then runs main; the test runner itself is never capped.
# Its stderr needs 16 MiB free to write, so a message written while the
# partial answer is still held fails as a print under memory pressure may
CAPPED_MAIN = """\
import resource, sys
from kpx.cli import main
class Stderr:
    def write(self, text):
        bytearray(16 << 20)
        return sys.__stderr__.write(text)
    def flush(self):
        sys.__stderr__.flush()
sys.stderr = Stderr()
held = int(open("/proc/self/statm").read().split()[0]) * resource.getpagesize()
resource.setrlimit(resource.RLIMIT_AS, (held + (32 << 20),) * 2)
sys.exit(main(sys.argv[1:]))
"""


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="caps RLIMIT_AS via /proc")
def test_an_answer_too_large_for_memory_is_an_input_error():
    # paths of a loop up to a degree no memory holds; the traceback's frames
    # hold the partial answer, so main can print only once it has dropped them
    env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(kpx.__file__))}
    argv = [sys.executable, "-c", CAPPED_MAIN, "--graph", LOOP, "paths", "--from", "v",
            "--degree", "99999999999999999999"]
    children = [subprocess.Popen(argv + extra, env=env, stdout=subprocess.PIPE,
                                 stderr=subprocess.PIPE, text=True)
                for extra in ([], ["--leq"])]
    try:
        got = [(*child.communicate(timeout=60), child.returncode) for child in children]
    finally:
        for child in children:
            child.kill()  # a no-op once the child has exited
    assert got == [("", "error: out of memory\n", 2)] * 2


# ----------------------------------------------------------------------
# argparse owns help, usage errors and every form the plain-form parse
# (cli._parse_plain) leaves to it; these outcomes are pinned byte for byte

SUBCOMMANDS = "{validate,info,paths,mce,exhaustive,boundary,eval,zero,equal,refine,analyze,dim}"
# Python 3.13 ends the top-level usage with " ..." on the subcommands' line
USAGE = ("usage: kpx [-h] [--graph GRAPH] [--omega M] [--json] [--ring RING]\n"
         f"           {SUBCOMMANDS}"
         + (" ...\n" if sys.version_info >= (3, 13) else "\n           ...\n"))
HELP = USAGE + f"""
Exact computations in Kumjian-Pask algebras of finite higher-rank graphs.

positional arguments:
  {SUBCOMMANDS}
    validate            validate the graph file
    info                summary and structural predicates
    paths               enumerate paths from a vertex
    mce                 minimal common extensions of two paths
    exhaustive          test a set of paths for exhaustivity
    boundary            enumerate boundary paths (acyclic)
    eval                reduce an element expression to span form
    zero                exact zero test for an element
    equal               exact equality of two elements
    refine              disjointify a list of groupoid cells
    analyze             aperiodicity / cofinality / simplicity
    dim                 dimension over a field (acyclic graphs)

options:
  -h, --help            show this help message and exit
  --graph GRAPH         graph specification file (JSON)
  --omega M             use the built-in lattice-segment graph with top degree
                        M, e.g. --omega 3 or --omega 1,1
  --json                JSON output
  --ring RING           coefficient ring: z, q, or zmod:N (default q)
"""
DIM_HELP = """usage: kpx dim [-h] [--graph GRAPH] [--omega M] [--json] [--ring RING]

options:
  -h, --help     show this help message and exit
  --graph GRAPH  graph specification file (JSON)
  --omega M      use the built-in lattice-segment graph with top degree M,
                 e.g. --omega 3 or --omega 1,1
  --json         JSON output
  --ring RING    coefficient ring: z, q, or zmod:N (default q)
"""
EVAL_USAGE = """usage: kpx eval [-h] [--graph GRAPH] [--omega M] [--json] [--ring RING]
                [--grade]
                expr
"""
EQUAL_USAGE = """usage: kpx equal [-h] [--graph GRAPH] [--omega M] [--json] [--ring RING]
                 expr1 expr2
"""
DASH_HINT = " (an expression that starts with '-' must follow '--')"

# (argv, exit code, stdout, stderr); argparse exits with SystemExit
ARGPARSE_OWNED = [
    ([], 2, "", USAGE + "kpx: error: the following arguments are required: command\n"),
    (["-h"], 0, HELP, ""),
    (["dim", "-h"], 0, DIM_HELP, ""),
    (["--graph", L2, "validate", "--frobnicate"], 2, "",
     USAGE + "kpx: error: unrecognized arguments: --frobnicate\n"),
    (["--frobnicate", "--graph", L2, "validate"], 2, "",
     USAGE + "kpx: error: unrecognized arguments: --frobnicate\n"),
    # an abbreviation and --opt=value are argparse's to read
    (["--gra", L2, "validate"], 0, "ok: rank 2, 5 vertices, 5 edges, 1 squares\n", ""),
    (["--omega=2", "dim"], 0, "9\n", ""),
    # an expression starting with '-' needs '--' in front of it, and the
    # error says so where argparse read one as an unknown option
    (["--graph", L2, "eval", "-s(e1)"], 2, "",
     EVAL_USAGE + "kpx eval: error: the following arguments are required: expr"
     + DASH_HINT + "\n"),
    (["--graph", L2, "eval", "--", "-s(e1)"], 0, "-1*s(e1)*g(v2)\n", ""),
    # a negative number is a value, so kpx itself rejects the degree
    (["--graph", L2, "paths", "--from", "v1", "--degree", "-1"], 2, "",
     "error: degree '-1' has a negative entry\n"),
    # argparse gives a run of positionals broken by an option to the
    # positional it is matching, not to the next one
    (["--omega", "1", "exhaustive", "--vertex", "0", "0>1", "--json", "1"], 2, "",
     USAGE + "kpx: error: unrecognized arguments: 1\n"),
    (["--omega", "1", "mce", "0", "--json", "0"], 0,
     '{\n  "mce": [\n    "0"\n  ],\n  "pairs": [\n    {\n      "rho": "0",\n'
     '      "tau": "0"\n    }\n  ]\n}\n', ""),
    # a repeated flag: the last one wins, also across the subcommand
    (["--omega", "1", "--omega", "2", "dim"], 0, "9\n", ""),
    (["--omega", "2", "--ring", "z", "dim", "--ring", "q"], 0, "9\n", ""),
    (["--omega", "2", "--ring", "q", "dim", "--ring", "z"], 2, "",
     "error: Z is not a field\n"),
    # global flags after the subcommand
    (["dim", "--omega", "2", "--json"], 0, '{\n  "dimension": 9\n}\n', ""),
    # the hint for an expression read as an option, on the second one too;
    # with no such token, or a long option, argparse's message alone
    (["--graph", L2, "equal", "s(v1)", "-s(v1)"], 2, "",
     EQUAL_USAGE + "kpx equal: error: the following arguments are required: expr2"
     + DASH_HINT + "\n"),
    (["--graph", L2, "eval"], 2, "",
     EVAL_USAGE + "kpx eval: error: the following arguments are required: expr\n"),
    (["--graph", L2, "eval", "--bogus"], 2, "",
     EVAL_USAGE + "kpx eval: error: the following arguments are required: expr\n"),
    (["--graph", L2, "equal", "s(v1)"], 2, "",
     EQUAL_USAGE + "kpx equal: error: the following arguments are required: expr2\n"),
]


def outcome(capsys, argv):
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.mark.parametrize("argv, code, out, err", ARGPARSE_OWNED)
def test_argparse_owned_outcomes_are_pinned(capsys, argv, code, out, err):
    assert outcome(capsys, argv) == (code, out, err)


def test_main_reads_sys_argv_when_given_none(capsys, monkeypatch):
    for argv, expected in ((["--omega", "2", "dim"], "9\n"), (["--omega=2", "dim"], "9\n"),
                           (["--omega", "2", "dim", "--json"], '{\n  "dimension": 9\n}\n')):
        monkeypatch.setattr(sys, "argv", ["kpx", *argv])
        assert outcome(capsys, None) == (0, expected, "")


def parse_both(argv):
    """(plain-form parse, argparse's namespace or None where it exits)."""
    fast = cli._parse_plain(argv)
    sink = stdio.StringIO()
    try:
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            ref = cli._parser().parse_args(argv, argparse.Namespace(**cli._DEFAULTS))
    except SystemExit:
        ref = None
    return fast, ref


def assert_plain_parse_agrees(argv):
    fast, ref = parse_both(argv)
    if fast is not None:
        assert ref is not None and vars(fast) == vars(ref), argv


def _argparse_parsers():
    (sub,) = [a for a in cli._parser()._actions if isinstance(a, argparse._SubParsersAction)]
    return [cli._parser(), *sub.choices.values()]


def _introspected_options(parser):
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


def _introspected_tables(parser):
    """The top level's option table, the subcommands' dest, and per
    subcommand whose positionals the plain parse can split its option table,
    defaults, required dests, positionals (dest, nargs) and pattern."""
    (sub,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    commands = {}
    for name, p in sub.choices.items():
        positionals = [a for a in p._actions if not a.option_strings]
        if all(a.nargs in cli._NARGS and a.type is None and a.choices is None
               and a.default is None for a in positionals):
            commands[name] = (
                _introspected_options(p),
                {a.dest: a.default for a in p._actions if a.default is not argparse.SUPPRESS},
                [a.dest for a in p._actions if a.option_strings and a.required],
                [(a.dest, a.nargs) for a in positionals],
                "".join(cli._NARGS[a.nargs] for a in positionals),
            )
    return _introspected_options(parser), sub.dest, commands


def test_plain_tables_match_the_argparse_parser():
    # the tables the plain parse reads from the grammar rows are the ones
    # argparse's own actions give for the parser built from the same rows
    derived = {name: (*table[:4], table[4].pattern) for name, table in cli._COMMANDS.items()}
    assert _introspected_tables(cli._parser()) == (cli._TOP_OPTIONS, "command", derived)


OPTION_STRINGS = sorted({s for p in _argparse_parsers() for s in p._option_string_actions})
TOKENS = sorted(
    {s[:n] for s in OPTION_STRINGS if s.startswith("--") for n in range(3, len(s) + 1)}
    | set(OPTION_STRINGS) | set(cli._COMMANDS)
    | {"--graph=x", "-h", "--", "", "v1", "e1.f2", "1,1", "-1", "-s(v)", "a b"})


PLAIN_VALUES = ["", "v1", "e1.f2", "1,1", "a b"]
VALUES = PLAIN_VALUES + ["-1", "-s(v)"]


def items(options, positionals):
    """Lists of argv items: an option of options (with a plain value if it
    takes one) or one of positionals, three times as often as an odd item:
    any one token, or an option with a value that starts with '-'."""
    takes_value = sorted(s for s, (_, flag) in options.items() if flag is None)
    plain = st.sampled_from([(s, v) for s in takes_value for v in PLAIN_VALUES]
                            + [(s,) for s, (_, flag) in options.items() if flag]
                            + [(v,) for v in positionals])
    odd = st.sampled_from([(t,) for t in TOKENS] + [(s, v) for s in takes_value
                                                    for v in VALUES if v not in PLAIN_VALUES])
    return st.lists(st.one_of(plain, plain, plain, odd), max_size=4)


# (the subcommand, items after it), each subcommand with its own options
COMMAND_AND_ITEMS = st.sampled_from(sorted(cli._COMMANDS)).flatmap(
    lambda c: st.tuples(st.just(c), items(cli._COMMANDS[c][0], PLAIN_VALUES)))


@settings(max_examples=150, derandomize=True, database=None, deadline=None)
@given(items(cli._TOP_OPTIONS, []), COMMAND_AND_ITEMS)
@example([("--omega", "1")], ("exhaustive", [("--vertex", "0"), ("0>1",), ("--json",), ("1",)]))
def test_plain_parse_agrees_with_argparse(before, command_and_after):
    command, after = command_and_after
    # the argv, and each argv with one item but the subcommand left out
    for drop in range(-1, len(before) + len(after)):
        head = [t for i, item in enumerate(before) if i != drop for t in item]
        tail = [t for i, item in enumerate(after, len(before)) if i != drop for t in item]
        assert_plain_parse_agrees(head + [command] + tail)


def _argv_literals():
    """Each list or tuple literal in this file that names a subcommand, and
    each argument list of a run or run_in_time call; a part that is not a
    string literal (a file name, an expression) stands in as 'x.json'."""
    found = []
    with open(__file__, encoding="utf-8") as fh:
        tree = ast.parse(fh.read())
    for node in ast.walk(tree):
        if isinstance(node, (ast.List, ast.Tuple)):
            parts = node.elts
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
              and node.func.id in ("run", "run_in_time")):
            parts = node.args[1:]
        else:
            continue
        if any(isinstance(p, ast.Starred) for p in parts):
            continue
        argv = [p.value if isinstance(p, ast.Constant) and isinstance(p.value, str)
                else "x.json" for p in parts]
        if set(argv) & set(cli._COMMANDS):
            found.append(argv)
    return found


# the argv shapes the cli-ladder and cyclic-queries workloads run
WORKLOAD_ARGVS = [
    *([*graph, *command] for graph in (["--omega", "2,2"], ["--graph", "acyclic0.json"])
      for command in (["dim"], ["boundary"], ["boundary", "--orbits"], ["analyze"],
                      ["validate"], ["info"])),
    ["--graph", "cyclic0.json", "exhaustive", "--vertex", "v0"],
    ["--graph", "cyclic0.json", "exhaustive", "--vertex", "v0", "e1", "f1.e2", "f2"],
    ["--graph", "cyclic0.json", "zero", "s(v0) - s(e1)*g(e1) - s(e2)*g(e2)"],
    ["--graph", "cyclic0.json", "equal", "s(e1)*g(f1)*s(f2)", "s(e1)*s(a)*g(b) + s(e1)*s(c)*g(d)"],
    ["--graph", "loop.json", "analyze"],
    ["--graph", "loop.json", "paths", "--from", "v", "--degree", "150"],
]


def test_plain_parse_agrees_on_test_and_workload_argvs():
    literals = _argv_literals()
    assert len(literals) > 100
    for argv in literals:
        assert_plain_parse_agrees(argv)
    # argparse exits on this one; splitting the run at --json would not
    assert parse_both(["--omega", "1", "exhaustive", "--vertex", "0", "0>1", "--json", "1"]) \
        == (None, None)
    # every workload command line takes the plain-form parse
    for argv in WORKLOAD_ARGVS:
        fast, ref = parse_both(argv)
        assert fast is not None and vars(fast) == vars(ref), argv


# ----------------------------------------------------------------------
# the exit-code contract: whatever the argv, kpx exits with 0-3 and reports
# no fault of its own; argvs are drawn from the grammar rows, with literals
# from small token sets and degrees of at most 3, so each one runs quickly.
# LONG has more digits than int() converts, so a literal of it fails at once
LONG = "1" * 5000

FUZZ_GRAPHS = [["--graph", L2], ["--graph", LOOP], ["--omega", "1,1"]]
VERTICES = ["v1", "v5", "v", "0,0", "1,1", "zz", ""]
PATHS = ["v1", "e1", "f2", "e1.f1", "e3.f2", "e", "e.e", "0,0>1,0", "e1.e1", "zz", "", "-e1"]
EXPRESSIONS = ["s(e1)*g(e1)", "s(v1) - s(e1)*g(e1) - s(e3)*g(e3)", "g(e1)*s(f2)", "s(e)*g(e)",
               "s(v) - s(e)*g(e)", "2*s(v)", "1/2*s(0,0)", "1/0*s(v1)", "s(zz)", "s(", "s(e1)+",
               "", "-s(e)", f"{LONG}*s(v1)"]
FUZZ_TOKENS = {
    "--from": VERTICES, "--vertex": VERTICES,
    "--degree": ["0", "3", "1,1", "0,3", "2,1", "3,3", "-1", "x", "1,2,3", "", LONG],
    "--ring": ["q", "z", "zmod:5", "zmod:4", "zmod:1", "zmod:0", "zmod:x", "r", f"zmod:{LONG}"],
    "path1": PATHS, "path2": PATHS, "paths": PATHS,
    "expr": EXPRESSIONS, "expr1": EXPRESSIONS, "expr2": EXPRESSIONS,
    "cells": ["e1*e1", "f2*f2", "v1*v1\\e1;f2", "e1.f1*e3.f2", "e*e", "v*v\\e", "0,0*0,0",
              "e1*", "zz*zz"],
}


def fuzz_argument(name, kw):
    """Lists of argv items for one argument of a grammar row, each drawn in
    one step, since hypothesis's cost per draw bounds this gate."""
    if kw.get("action") == "store_true":
        return st.sampled_from([[], [name]])
    tokens = FUZZ_TOKENS[name]
    if name[:1] == "-":
        return st.sampled_from([[], *([name, t] for t in tokens)])
    if kw.get("nargs") is None:
        return st.sampled_from([[t] for t in tokens])
    return st.lists(st.sampled_from(tokens), max_size=3)


def fuzz_command(command):
    """A subcommand followed by its own arguments and the shared ones, but
    the graph, which comes first."""
    arguments = [(name, kw) for name, kw in [*cli._GRAMMAR[command][2], *cli._SHARED]
                 if name not in ("--graph", "--omega")]
    return st.tuples(*[fuzz_argument(name, kw) for name, kw in arguments]).map(
        lambda parts: [command, *(item for part in parts for item in part)])


@settings(max_examples=100, derandomize=True, database=None, deadline=None)
@given(st.sampled_from(FUZZ_GRAPHS), st.one_of([fuzz_command(c) for c in cli._GRAMMAR]))
def test_exit_codes_stay_in_the_contract(graph, command):
    argv = graph + command
    out, err = stdio.StringIO(), stdio.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse's usage errors
            code = exc.code
    assert code in (0, 1, 2, 3), argv
    assert "internal error" not in err.getvalue(), argv
    assert "Traceback" not in out.getvalue() + err.getvalue(), argv
