#!/usr/bin/env python3
"""Regenerate ``expected.json``, the benchmark's committed output table.

For every job of every workload (``mixes.py``) and every seed given, it
records the simulated ``cycles`` and measured ``committed_uops`` of the
reference engine.  Run from the repository root::

    python3 perfbench/make_expected.py --seeds 0-31

Regenerate only for a deliberate model change (a ``SIM_VERSION`` bump),
in a change of its own.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))


def seed_range(text: str) -> range:
    low, _, high = text.partition("-")
    return range(int(low), int(high or low) + 1)


def main(argv=None) -> int:
    from repro.pipeline.core import SIM_VERSION
    from harness import expected_key
    from mixes import MEASURE, MIXES, WARMUP, sim_jobs
    from simphase import run_direct
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seeds", type=seed_range, default=seed_range("0-31"))
    args = parser.parse_args(argv)
    table = {}
    for seed in args.seeds:
        for mix in MIXES.values():
            for job in sim_jobs(mix, seed):
                result = run_direct(job, "reference").result
                key = expected_key(job.program, job.config, seed, WARMUP,
                                   MEASURE)
                table[key] = {"cycles": result.cycles,
                              "committed_uops": result.stats.committed_uops}
        print(f"seed {seed}: {len(table)} jobs so far", file=sys.stderr)
    path = os.path.join(HERE, "expected.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"sim_version": SIM_VERSION, "engine": "reference",
                   "jobs": table}, fh, indent=0, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
