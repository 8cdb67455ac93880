#!/usr/bin/env python3
"""Whole-path benchmark: direct simulation, campaign and service.

Run from the repository root::

    python3 perfbench/run.py --workload sim-memory --seed 1 \
        --seconds 50 --trace 0

A workload is a program mix (``mixes.py``).  Every run drives the mix
through the three ways a user reaches the simulator:

1. ``simulate()`` jobs -- trace build through energy annotation -- on
   the default engine, the fast engine and the fast engine with
   telemetry;
2. a fig07+fig08+fig12 campaign, cold on an empty store and then warm
   from fresh stores on the same directory;
3. the job service under a closed loop of clients, one fresh server
   per session.

The run repeats units of every phase until ``--seconds`` are spent,
always next a unit of the phase that has had the least time so far
among those whose unit still fits, so each phase gets about a third of
the run and samples all of it.  Each end-to-end figure is a median or
a total over the run's units: the throughputs time each job at its
median over the passes; service p50 is over every request of every
session.  ``setup_s`` is the median over at least five server launches
of the time until ``/healthz`` answers.  Every timed operation runs on
a settled heap.

The machine the bounds were set on is a shared VM whose speed moves
between regimes up to 2x apart, so every host-time figure is reported
at a nominal host speed: a fixed reference kernel runs on the same
CPUs just before and just after each timed operation, and the
operation's time is divided by the mean slowdown of those samples
(``harness.HostSpeed``); a cold campaign, which lasts seconds, by the
mean of every sample beside the run's cold campaigns.  The kernel
calls no simulator code.  The lines before the result give each figure
as measured and the mean slowdown of each phase; ``peak_rss_mb`` is
not a time and is reported as measured.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs one
unit of each phase with spans around every call into a layer, each sim
job three times beside an untraced run of it, and prints the per-layer
metrics.
Either way every result is checked: against ``expected.json`` where it
has the seed, else engine against engine and pass against pass.  The
last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it label
each metric host (measured on this machine), simulated (a statistic of
the modelled machine) or count.

All files go under ``.perfbench-work/`` in the repository root; the
run's stores are deleted at exit, the spans of a traced run are kept.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import sys
import tempfile
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench-work")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"perfbench: the simulator sources are not at {SRC}; run "
              f"from a checkout of the whole repository", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    from bench import END_TO_END, Bench
    from mixes import MIXES
    if args.workload not in MIXES:
        parser.error(f"--workload must be one of {', '.join(MIXES)}")
    os.makedirs(WORK, exist_ok=True)
    run_dir = tempfile.mkdtemp(prefix=f"{args.workload}-seed{args.seed}-",
                               dir=WORK)
    # keep every file the program writes inside the checkout: temp
    # files, and a store nobody names explicitly (never .simcache)
    os.environ["TMPDIR"] = tempfile.tempdir = run_dir
    os.environ["REPRO_CACHE_DIR"] = os.path.join(run_dir, "default-store")
    # a SIGTERM unwinds like an error, so every server and campaign
    # worker is stopped on the way out
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    started = perf_counter()
    bench = Bench(args.workload, args.seed, run_dir, SRC)
    spans = os.path.join(WORK, f"spans-{args.workload}-seed{args.seed}.json")
    try:
        if args.trace:
            bench.run_traced(spans)
            bench.lines.append(
                f"spans written to {os.path.relpath(spans, ROOT)}")
        else:
            bench.run_untraced(args.seconds)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    metrics = {name: metric for name, metric in bench.metrics.items()
               if (name in END_TO_END) != bool(args.trace)}
    for line in bench.lines:
        print(line)
    for name, metric in metrics.items():
        print(f"  {bench.kinds[name]:9s} {name:40s} "
              f"{metric['value']:>16.6g} {metric['unit']}")
    print(f"host seconds: {perf_counter() - started:.1f}")
    for failure in bench.failures[:20]:
        print(f"FAILED {failure}")
    failed = len(bench.failures)
    print(json.dumps({"correct": failed == 0, "attempted": bench.attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
