"""One workload in one process: set up, run timed passes, check every answer.

Started by ``run.py`` with ``src`` on ``PYTHONPATH``; prints one JSON line.
Modes: ``setup`` stops once the inputs are ready; ``measure`` repeats passes
over the op list until ``--seconds`` have elapsed; ``trace`` runs one pass
with the wrappers of ``tracer.py`` installed.  The moment the inputs are
ready is reported on the system-wide monotonic clock, so that the parent can
measure set-up from the moment it started this process.

Host speed.  On a shared host the speed of a core can change by a factor
of two for seconds at a time, as neighbours come and go.  A fixed unit of
pure-Python work is therefore timed between ops, at least every
``SAMPLE_EVERY_S`` seconds, and every op's time is scaled by
``NOMINAL_UNIT_S`` over the median of the nearby samples.  Reported times
are thus seconds on a host where that unit takes ``NOMINAL_UNIT_S``; the
raw times are reported next to them.
"""

import argparse
import bisect
from array import array
from dataclasses import dataclass
import json
import math
import os
import resource
import shutil
import statistics
import sys
import time

NOMINAL_UNIT_S = 0.0005
SAMPLE_EVERY_S = 0.05


@dataclass(frozen=True)
class _Item:
    name: str
    word: tuple


def speed_unit():
    """The fixed unit of work, shaped like kpx's own: small frozen
    dataclasses built, hashed into a set, grouped in a dict and sorted.
    Of the candidates tried, its cost tracked kpx's best through the
    host's slow and fast spells."""
    items = [_Item(str(i % 29), (i % 7, i % 11, i % 13)) for i in range(300)]
    groups = {}
    for item in items:
        groups.setdefault(item.name, []).append(item.word)
    ordered = sorted(set(items), key=lambda it: (len(it.word), it.word, it.name))
    return len(ordered) + len(groups)


class SpeedMeter:
    """Samples the host's speed and scales times to the nominal speed."""

    def __init__(self):
        self.at = []
        self.cost = []
        self.last = -math.inf

    def sample(self):
        t0 = time.perf_counter()
        speed_unit()
        t1 = time.perf_counter()
        self.at.append((t0 + t1) / 2)
        self.cost.append(t1 - t0)
        self.last = t1

    def maybe_sample(self):
        if time.perf_counter() - self.last > SAMPLE_EVERY_S:
            self.sample()

    def scale_at(self, t):
        """Nominal over measured cost, from the samples nearest to t."""
        i = bisect.bisect(self.at, t)
        return NOMINAL_UNIT_S / statistics.median(self.cost[max(0, i - 2):i + 3])

    def scale_now(self, samples=15):
        for _ in range(samples):
            self.sample()
        return NOMINAL_UNIT_S / statistics.median(self.cost[-samples:])


def percentile(values, q):
    """Nearest-rank percentile: a value that was actually measured."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def timed_passes(ops, seconds, max_passes, meter):
    """Run the op list repeatedly.

    Returns the answers of the first pass, the (pass, op index, answer) of
    every later answer that differs from the first, the number of passes,
    the peak RSS in MB at the end of the first pass and, per execution, its
    start, wall time and CPU time.
    """
    from workloads import Raised

    clock, cpu = time.perf_counter, time.process_time
    first, changed = None, []
    # arrays, so that memory does not grow with the number of passes much
    starts, walls, cpus = array("d"), array("d"), array("d")
    passes = 0
    deadline = clock() + seconds
    while True:
        answers = []
        for op in ops:
            meter.maybe_sample()
            c0, t0 = cpu(), clock()
            try:
                answer = op.run()
            except Exception as exc:  # an op failure is a result, not a harness crash
                answer = Raised(exc)
            t1, c1 = clock(), cpu()
            starts.append(t0)
            walls.append(t1 - t0)
            cpus.append(c1 - c0)
            answers.append(answer)
        if first is None:
            first = answers
            # read here, so that neither the number of passes nor the
            # answer checks afterwards change it
            rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        else:
            changed += [(passes, i, a) for i, a in enumerate(answers) if a != first[i]]
        passes += 1
        if passes >= max_passes or clock() >= deadline:
            meter.sample()
            return first, changed, passes, rss_mb, starts, walls, cpus


def outcomes(ops, first_answers, changed, passes):
    """Outcome of every execution.  References are computed only here,
    after the timed phase, and a later pass is checked only where its
    answer differs from the first."""
    first = [op.outcome(a) for op, a in zip(ops, first_answers)]
    out = first * passes
    for p, i, answer in changed:
        out[p * len(ops) + i] = ops[i].outcome(answer)
    return out, first


def per_pass(values, n):
    return [sum(values[i:i + n]) for i in range(0, len(values), n)]


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=1.0)
    ap.add_argument("--mode", choices=["setup", "measure", "trace"], required=True)
    ap.add_argument("--tiny", action="store_true")
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--spans", help="where a traced run writes its spans")
    args = ap.parse_args(argv)

    import workloads

    meter = SpeedMeter()
    os.makedirs(args.workdir)
    try:
        ops = workloads.WORKLOADS[args.workload](args.seed, args.workdir, args.tiny)
        ready = time.monotonic()
        setup_scale = meter.scale_now()
        if args.mode == "setup":
            print(json.dumps({"ready": ready, "setup_scale": setup_scale}))
            return 0
        tracer = None
        if args.mode == "trace":
            import tracer as tracing

            tracer = tracing.Tracer()
            tracer.install()
        try:
            max_passes = 1 if tracer else 10**9
            answers, changed, passes, rss_mb, starts, walls, cpus = timed_passes(
                ops, args.seconds, max_passes, meter)
        finally:
            if tracer:
                tracer.uninstall()
        results, first = outcomes(ops, answers, changed, passes)
    finally:
        shutil.rmtree(args.workdir, ignore_errors=True)

    n = len(ops)
    scales = [meter.scale_at(t) for t in starts]
    lat = [w * s for w, s in zip(walls, scales)]
    pass_walls = per_pass(lat, n)
    # an op's latency is its median over the passes, which damps the odd
    # slow execution; the percentiles are taken over the ops
    op_lat = [statistics.median(lat[i::n]) for i in range(n)]
    by_kind = {}
    for op, outcome in zip(ops, first):
        kind = by_kind.setdefault(op.kind, {})
        kind[outcome] = kind.get(outcome, 0) + 1
    out = {
        "ready": ready,
        "setup_scale": setup_scale,
        "ops_per_pass": len(ops),
        "passes": passes,
        "attempted": len(results),
        "failed": sum(r in (workloads.ERROR, workloads.WRONG) for r in results),
        "wrong": sum(r == workloads.WRONG for r in results),
        "decided": sum(r == workloads.OK for r in results),
        "first_pass_wall_s": pass_walls[0],
        "wall_s": statistics.median(pass_walls),
        "cpu_s": statistics.median(per_pass([c * s for c, s in zip(cpus, scales)], n)),
        "op_p50_ms": 1000 * statistics.median(op_lat),
        "op_p90_ms": 1000 * percentile(op_lat, 0.9),
        "peak_rss_mb": rss_mb,
        "raw_wall_s": statistics.median(per_pass(walls, n)),
        "raw_cpu_s": statistics.median(per_pass(cpus, n)),
        "host_speed": statistics.median(scales),
        "first_pass_outcomes": by_kind,
    }
    if tracer:
        out["layers"] = tracer.metrics(n, sum(walls))
        if args.spans:
            tracer.write_spans(args.spans)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
