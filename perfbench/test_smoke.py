"""Smoke test of the benchmark itself, on tiny inputs.

Run from the repository root:

    python3 -m pytest -q perfbench/test_smoke.py
"""

import contextlib
import io
import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src"), os.path.join(ROOT, "tests")]

import graphs  # noqa: E402
import tracer  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
    BENCH = json.load(fh)
WORKLOADS = [w["name"] for w in BENCH["workloads"]]


def run_bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, os.path.join(HERE, "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=170)


def last_json(proc):
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", WORKLOADS)
def test_untraced_run_emits_every_end_to_end_metric(workload):
    out = last_json(run_bench("--workload", workload, "--seed", "7", "--seconds", "1",
                              "--trace", "0", "--tiny"))
    assert set(out) == {"correct", "attempted", "failed", "metrics"}
    assert out["correct"] is True and out["attempted"] >= 1
    want = {m["name"]: m["unit"] for m in BENCH["end_to_end"]}
    assert {k: v["unit"] for k, v in out["metrics"].items()} == want
    assert all(v["value"] > 0 for v in out["metrics"].values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_emits_every_per_layer_metric(workload):
    out = last_json(run_bench("--workload", workload, "--seed", "7", "--seconds", "1",
                              "--trace", "1", "--tiny"))
    want = {m["name"]: m["unit"] for m in BENCH["per_layer"]}
    assert want == tracer.metric_units()
    assert {k: v["unit"] for k, v in out["metrics"].items()} == want
    metrics = {k: v["value"] for k, v in out["metrics"].items()}
    busiest = "algebra.multiply.self_s" if workload == "algebra-session" else "cli.main.self_s"
    assert metrics[busiest] > 0
    assert metrics["kgraph.minimal_common_extensions.calls"] > 0
    assert 0.5 < metrics["trace.coverage_ratio"] <= 1.0
    assert metrics["trace.overhead_ratio"] > 0


def test_known_crash_counts_as_failed():
    # the deep ``paths`` op on the loop raises RecursionError at the seed
    out = last_json(run_bench("--workload", "cyclic-queries", "--seed", "7", "--seconds", "1",
                              "--trace", "0", "--tiny"))
    assert out["correct"] is True
    assert 0 < out["failed"] < out["attempted"]


def test_failure_accounting(tmp_path):
    ops = workloads.build_cyclic_queries(7, str(tmp_path), tiny=True)
    answers = []
    for op in ops:
        try:
            answers.append(op.run())
        except RecursionError as exc:
            answers.append(workloads.Raised(exc))
    results, first = worker.outcomes(ops, answers, [], 1)
    assert workloads.WRONG not in first
    assert first.count(workloads.ERROR) == 1  # the deep paths op
    # a second pass whose answers are wrong, or raised, fails on every op
    bad = [(0, "nonsense") if i % 2 else workloads.Raised(ValueError()) for i in range(len(ops))]
    results, _ = worker.outcomes(ops, answers, [(1, i, a) for i, a in enumerate(bad)], 2)
    second = results[len(ops):]
    assert second.count(workloads.WRONG) == len(ops) // 2
    assert second.count(workloads.ERROR) == len(ops) - len(ops) // 2


def test_frozen_lambda2_facts_match_the_oracles():
    import conftest
    from kpx import io as kio

    g = kio.load_graph(os.path.join(ROOT, workloads.LAMBDA2_FILE))
    assert sum(conftest.boundary_oracle(g, lam) for lam in g.all_paths()) \
        == workloads.LAMBDA2["boundary"]
    assert len(g.vertices) == workloads.LAMBDA2["vertices"]


def test_seeded_graphs_are_reproducible_and_valid():
    from kpx import io as kio
    from kpx.kgraph import KGraph

    for seed in (1, 2):
        a = graphs.AcyclicProduct(graphs.rng_for(seed, "acyclic0"), 0)
        b = graphs.AcyclicProduct(graphs.rng_for(seed, "acyclic0"), 0)
        assert a.doc == b.doc
        KGraph.validate(kio.spec_from_dict(a.doc))
        rng = graphs.rng_for(seed, "cyclic")
        for product in graphs.cyclic_products(rng, workloads.PRODUCT_ROUNDS):
            KGraph.validate(kio.spec_from_dict(product.doc()))


def test_product_references_match_kpx_and_the_oracle():
    # the cyclic-queries references (paths, common extensions) come from
    # the product structure; check them once against kpx and conftest
    import conftest
    from kpx import io as kio, presets
    from kpx.kgraph import KGraph

    products = graphs.cyclic_products(graphs.rng_for(5, "cyclic"), 1)[:3]
    cases = [(KGraph.validate(kio.spec_from_dict(p.doc())), p) for p in products]
    cases.append((presets.commuting_loops(3), graphs.commuting_loops(3)))
    degrees = [(1, 0), (0, 1), (1, 1), (2, 0)]
    for g, p in cases:
        for v in p.at:
            for n in degrees:
                assert sorted(p.label(x) for x in p.paths(v, n)) \
                    == sorted(x.label() for x in g.paths_from(v, n))
            paths = [x for n in degrees for x in p.paths(v, n)]
            for mu in paths:
                for nu in paths:
                    got = {g.compose(g.parse_path(p.label(mu)), g.parse_path(p.label(al)))
                           for al, _ in p.mce(mu, nu)}
                    assert got == conftest.mce_oracle(g, g.parse_path(p.label(mu)),
                                                      g.parse_path(p.label(nu)))
                    assert got == {g.compose(g.parse_path(p.label(nu)), g.parse_path(p.label(be)))
                                   for _, be in p.mce(mu, nu)}


def test_untraced_worker_installs_no_wrappers(tmp_path):
    from kpx import cli
    from kpx.kgraph import KGraph

    with contextlib.redirect_stdout(io.StringIO()) as out:
        worker.main(["--workload", "cli-ladder", "--seed", "3", "--seconds", "0",
                     "--mode", "measure", "--tiny", "--workdir", str(tmp_path / "w")])
    assert json.loads(out.getvalue())["wrong"] == 0
    assert not hasattr(cli.main, "__wrapped__")
    assert not hasattr(KGraph.paths_from, "__wrapped__")


def test_tracer_restores_what_it_replaced():
    from kpx import cli, kgraph

    originals = (cli.main, cli.omega_graph, kgraph.KGraph.paths_from, kgraph.Path.degree)
    t = tracer.Tracer()
    t.install()
    try:
        assert cli.omega_graph.__wrapped__ is originals[1]
        assert kgraph.KGraph.paths_from.__wrapped__ is originals[2]
    finally:
        t.uninstall()
    assert (cli.main, cli.omega_graph, kgraph.KGraph.paths_from, kgraph.Path.degree) == originals


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", WORKLOADS[0],
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
