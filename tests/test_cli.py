"""Command line interface: commands, exit codes, JSON mode, file loading."""

import json
import signal

import pytest

from kpx import cli, io
from kpx.cli import main

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
    ]
    for doc in documents:
        bad = tmp_path / "bad.json"
        bad.write_bytes(doc)
        code, _ = run(capsys, "--graph", str(bad), "validate")
        assert code == 2, doc


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
    def too_slow(signum, frame):
        raise TimeoutError("paths did not stop")

    argv = ["--graph", L2, "paths", "--from", "v1", "--degree", "100000000000000000000,0"]
    old = signal.signal(signal.SIGALRM, too_slow)
    signal.alarm(10)
    try:
        exact = run(capsys, *argv)
        leq = run(capsys, *argv, "--leq")
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, old)
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


def test_refine(capsys):
    code, out = run(capsys, "--graph", L2, "refine", "e1*e1", "f2*f2")
    assert code == 0
    assert out.split() == ["e1.f1*e1.f1"]


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


def test_dim(capsys):
    code, out = run(capsys, "--graph", L2, "dim", "--json")
    assert code == 0 and json.loads(out)["dimension"] == 20
    assert run(capsys, "--graph", L2, "--ring", "z", "dim")[0] == 2
    assert run(capsys, "--graph", LOOP, "dim")[0] == 2


def test_omega_flag(capsys):
    code, out = run(capsys, "--omega", "3", "dim", "--json")
    assert json.loads(out)["dimension"] == 16
    code, out = run(capsys, "--omega", "1,1", "dim", "--json")
    assert json.loads(out)["dimension"] == 16
    assert run(capsys, "--omega", "1,1,1", "validate")[0] == 0


def test_output_is_deterministic(capsys):
    a = run(capsys, "--graph", L2, "boundary", "--json")[1]
    b = run(capsys, "--graph", L2, "boundary", "--json")[1]
    assert a == b
    c = run(capsys, "--graph", L2, "eval", "s(e1)+s(e3)+s(v1)")[1]
    d = run(capsys, "--graph", L2, "eval", "s(v1)+s(e3)+s(e1)")[1]
    assert c == d


def test_graph_round_trip(tmp_path, acyclic_graph):
    data = io.graph_to_dict(acyclic_graph)
    path = tmp_path / "g.json"
    path.write_text(json.dumps(data))
    g2 = io.load_graph(str(path))
    assert io.graph_to_dict(g2) == data
    assert g2.vertices == acyclic_graph.vertices
    assert sorted(p.label() for p in g2.all_paths()) == sorted(
        p.label() for p in acyclic_graph.all_paths()
    )


def test_parse_error_has_location(tmp_path):
    from kpx import errors

    path = tmp_path / "bad.json"
    path.write_text('{\n  "k": ]\n}')
    with pytest.raises(errors.ParseError) as exc:
        io.load_graph(str(path))
    assert exc.value.line == 2
