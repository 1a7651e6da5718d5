"""Command line interface: commands, exit codes, JSON mode, file loading."""

import argparse
import json

import pytest

from kpx import cli, io, presets
from kpx.cli import main
from kpx.degrees import below

from conftest import ORACLE_GRAPHS, downset_graph, within

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
    ]
    for doc in documents:
        bad = tmp_path / "bad.json"
        bad.write_bytes(doc)
        code = main(["--graph", str(bad), "validate"])
        err = capsys.readouterr().err
        assert code == 2, doc
        assert err.startswith("error: ") and "internal error" not in err, (doc[:80], err)


def test_internal_error_has_no_traceback(capsys, monkeypatch):
    def broken(args):
        raise RuntimeError("boom")

    monkeypatch.setitem(cli._HANDLERS, "validate", broken)
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
    code, out = run(capsys, "--graph", LOOP, "paths", "--from", "v", "--degree", "1500")
    assert code == 0
    assert out == ".".join(["e"] * 1500) + "\n"


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


F1_12 = ".".join(["f1"] * 12)


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


def test_dim(capsys):
    code, out = run(capsys, "--graph", L2, "dim", "--json")
    assert code == 0 and json.loads(out)["dimension"] == 20
    assert run(capsys, "--graph", L2, "--ring", "z", "dim")[0] == 2
    assert run(capsys, "--graph", LOOP, "dim")[0] == 2


def test_dim_counts_large_graphs(capsys, tmp_path):
    # dim counts the paths with each sink as source instead of listing every
    # path, and boundary lists only those paths
    assert run_in_time(capsys, "--omega", "30,30", "dim") == (0, "923521\n")
    assert run_in_time(capsys, "--omega", "8,8,8", "dim") == (0, "531441\n")
    code, out = run_in_time(capsys, "--omega", "30,30", "boundary", "--orbits")
    assert code == 0 and [len(line.split()) for line in out.splitlines()] == [961]
    # a chain of 2,000 steps with two parallel edges each has 2^2001 - 1
    # paths with its one sink as source
    n = 2000
    doc = {
        "k": 1,
        "vertices": [f"v{i}" for i in range(n + 1)],
        "edges": [{"id": f"{x}{i}", "color": 1, "range": f"v{i}", "source": f"v{i + 1}"}
                  for i in range(n) for x in "ab"],
        "squares": [],
    }
    path = tmp_path / "chain.json"
    path.write_text(json.dumps(doc))
    assert run_in_time(capsys, "--graph", str(path), "dim") == (0, f"{(2 ** (n + 1) - 1) ** 2}\n")


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


def test_analyze_large_acyclic_graphs_in_time(capsys):
    # acyclic cofinality is "exactly one sink", so analyze builds no
    # reachability set per vertex
    with within(2, "--omega 3000 analyze"):
        got = run(capsys, "--omega", "3000", "analyze")
    assert got == (0, "acyclic: True\nhas_sources: True\nlocally_convex: True\n"
                      "row_finite: True\naperiodic: aperiodic\ncofinal: cofinal\n"
                      "ring: Q (field: True)\nbasically simple: yes\nsimple: yes\n"
                      "dimension: 9006001\n")
    code, out = run_in_time(capsys, "--omega", "40,40", "analyze")
    assert code == 0 and out.endswith("simple: yes\ndimension: 2825761\n")


def test_analyze_large_cyclic_graphs_in_time(capsys, tmp_path):
    # a ring is strongly connected and one staircase closes it; with a loop
    # at v0 every vertex reaches a vertex that receives two edges of one
    # colour, so aperiodicity is unknown.  Neither builds a reachability
    # set per vertex.
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


def test_omega_flag(capsys):
    code, out = run(capsys, "--omega", "3", "dim", "--json")
    assert json.loads(out)["dimension"] == 16
    code, out = run(capsys, "--omega", "1,1", "dim", "--json")
    assert json.loads(out)["dimension"] == 16
    assert run(capsys, "--omega", "1,1,1", "validate")[0] == 0


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
            assert g2.paths_from(v, n) == g.paths_from(v, n)


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
