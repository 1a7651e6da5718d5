"""kpx benchmark: three workloads, end-to-end metrics, per-layer metrics.

Run from the repository root:

    python3 perfbench/run.py --workload cli-ladder --seed 1 --seconds 20 --trace 0

Each workload runs in its own single-threaded worker process (``worker.py``).
``--trace 0`` reports the end-to-end metrics of an untraced run; ``--trace 1``
reports the per-layer metrics of a traced pass (``tracer.py``) next to an
untraced one.  A human-readable report goes to stdout first; the last line
is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.  The exit code is not 0, and no JSON is printed, when the kpx
sources are missing or a worker fails.
"""

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

WORKLOADS = ["cli-ladder", "algebra-session", "cyclic-queries"]
SETUP_SAMPLES = 15  # set-up is measured in this many fresh processes
TIME_LIMIT_S = 170  # the whole run, including set-up samples and checks
OUT_DIR = ".perfbench"

END_TO_END = {
    "setup_s": "s", "wall_s": "s", "cpu_s": "s", "op_p50_ms": "ms", "op_p90_ms": "ms",
    "peak_rss_mb": "MB", "decided_ratio": "ratio",
}


class WorkerFailed(Exception):
    pass


def run_worker(root, args, mode, deadline, extra=(), seconds=None):
    """Start one worker; returns its JSON result and its set-up seconds,
    scaled to the nominal host speed like every other time."""
    workdir = os.path.join(root, OUT_DIR, f"work-{os.getpid()}-{mode}-{time.monotonic_ns()}")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.join(root, "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    # set iteration order changes how much work some kpx searches do; fixing
    # the hash seed keeps that out of the run-to-run spread
    env["PYTHONHASHSEED"] = "0"
    seconds = args.seconds if seconds is None else seconds
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(seconds), "--mode", mode,
           "--workdir", workdir, *extra]
    if args.tiny:
        cmd.append("--tiny")
    started = time.monotonic()
    try:
        proc = subprocess.run(cmd, cwd=root, env=env, capture_output=True, text=True,
                              timeout=max(1.0, deadline - started))
    except subprocess.TimeoutExpired:
        raise WorkerFailed(f"{mode} worker ran past the time limit") from None
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if proc.returncode != 0:
        raise WorkerFailed(f"{mode} worker exited {proc.returncode}:\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    return result, (result["ready"] - started) * result["setup_scale"]


def end_to_end(root, args, deadline):
    setups = [run_worker(root, args, "setup", deadline)[1] for _ in range(SETUP_SAMPLES - 1)]
    result, setup = run_worker(root, args, "measure", deadline)
    setups.append(setup)
    metrics = {
        "setup_s": statistics.median(setups),
        **{name: result[name] for name in
           ("wall_s", "cpu_s", "op_p50_ms", "op_p90_ms", "peak_rss_mb")},
        "decided_ratio": result["decided"] / result["attempted"],
    }
    print(f"{args.workload} seed={args.seed}: {result['attempted']} ops "
          f"({result['ops_per_pass']} per pass x {result['passes']} passes); "
          f"op percentiles over {result['ops_per_pass']} per-op medians")
    for name, unit in END_TO_END.items():
        print(f"  {name:<14} {metrics[name]:.6g} {unit}")
    print(f"  {'fail_ratio':<14} {result['failed'] / result['attempted']:.6g} ratio "
          f"({result['failed']} failed, {result['wrong']} wrong)")
    print(f"  raw (unscaled) wall_s {result['raw_wall_s']:.6g} s, "
          f"cpu_s {result['raw_cpu_s']:.6g} s; host speed factor {result['host_speed']:.4g}")
    outcomes = json.dumps(result["first_pass_outcomes"], sort_keys=True)
    print(f"  first pass outcomes by kind: {outcomes}")
    return result, {k: {"value": v, "unit": END_TO_END[k]} for k, v in metrics.items()}


def per_layer(root, args, deadline):
    import tracer

    # the overhead ratio needs only the first pass of an untraced worker,
    # and a worker always finishes its first pass
    plain, _ = run_worker(root, args, "measure", deadline, seconds=0)
    # one file per workload, so that repeated runs do not fill the disk
    spans = os.path.join(root, OUT_DIR, f"spans-{args.workload}.json")
    result, _ = run_worker(root, args, "trace", deadline, ["--spans", spans])
    layers = dict(result["layers"])
    layers["trace.overhead_ratio"] = result["first_pass_wall_s"] / plain["first_pass_wall_s"]
    units = tracer.metric_units()
    print(f"{args.workload} seed={args.seed}: traced pass of {result['ops_per_pass']} ops, "
          f"spans in {os.path.relpath(spans, root)}")
    for name, unit in units.items():
        print(f"  {name:<48} {layers[name]:.6g} {unit}")
    return result, {name: {"value": layers[name], "unit": unit} for name, unit in units.items()}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--tiny", action="store_true", help="tiny inputs, for the smoke test")
    args = ap.parse_args(argv)

    # turn SIGTERM into an exception, so that subprocess.run kills and
    # reaps the worker on the way out
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "kpx", "__init__.py")):
        print("perfbench: run from the repository root (src/kpx not found)", file=sys.stderr)
        return 2
    os.makedirs(os.path.join(root, OUT_DIR), exist_ok=True)
    deadline = time.monotonic() + TIME_LIMIT_S
    try:
        result, metrics = (per_layer if args.trace else end_to_end)(root, args, deadline)
    except WorkerFailed as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    print(json.dumps({
        "correct": result["wrong"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
