"""Direct ``simulate()`` jobs: timed whole, or split into traced phases.

A job runs the path a user of the library waits for: build the trace,
simulate it (construct, prewarm, warm up, measure) and annotate the
result with energy.  It runs in three modes: the default engine, the
fast engine, and the fast engine with a telemetry probe attached.

Each job runs on a settled heap (``harness.settled_heap``).  Otherwise
a full collection of garbage left by earlier jobs lands on whichever
job happens to trigger it: on the machine the bounds were set on, that
alone spread twelve repeats of one 0.14 s job by 50%, against 5-10%
with the heap collected first.  A job's own garbage is still collected,
and timed, inside it.
"""

from __future__ import annotations

import dataclasses
import math
from statistics import median
from time import perf_counter

from repro.energy import EnergyModel
from repro.pipeline import Processor, get_engine, simulate
from repro.stats import SimulationResult, geometric_mean
from repro.telemetry import TelemetryProbe
from repro.verify.digest import result_digest
from repro.workloads import trace_for_program

from harness import (check_expected, differing_fields, expected_key,
                     settled_heap)
from mixes import MEASURE, TRACE_OPS, WARMUP, Job

#: mode -> (engine, telemetry probe attached); "reference" is the
#: engine ``simulate()`` uses when none is named
MODES = {
    "reference": ("reference", False),
    "fast": ("fast", False),
    "telemetry": ("fast", True),
}


@dataclasses.dataclass
class JobRun:
    job: Job
    mode: str
    result: SimulationResult
    #: host seconds from trace build through energy annotation
    wall_s: float
    #: ``wall_s`` at nominal host speed (``harness.HostSpeed``)
    nominal_s: float = math.nan

    @property
    def uops(self) -> int:
        """Committed micro-ops, warmup and measured region together."""
        return WARMUP + self.result.stats.committed_uops

    @property
    def digest(self) -> str:
        return result_digest(self.result)


def run_direct(job: Job, mode: str) -> JobRun:
    """One job through the public entry points, timed as a whole."""
    engine, with_probe = MODES[mode]
    with settled_heap():
        started = perf_counter()
        trace = trace_for_program(job.program, n_ops=TRACE_OPS,
                                  seed=job.seed)
        config = job.make_config()
        probe = TelemetryProbe() if with_probe else None
        result = simulate(config, trace, warmup=WARMUP, measure=MEASURE,
                          telemetry=probe, engine=engine)
        EnergyModel().annotate(result, config)
        wall = perf_counter() - started
    return JobRun(job, mode, result, wall)


def trace_layer(program: str) -> str:
    return ("workloads.decode" if program.startswith("riscv:")
            else "workloads.generate")


def run_traced(job: Job, mode: str, tracer, span_job: str) -> JobRun:
    """The same job with ``simulate()`` split into its public phase
    calls, one span each, all carrying the job id ``span_job``; the
    result must digest as the direct call's."""
    engine_name, with_probe = MODES[mode]
    with settled_heap():
        with tracer.span("job", job=span_job) as root:
            with tracer.span(trace_layer(job.program)):
                trace = trace_for_program(job.program, n_ops=TRACE_OPS,
                                          seed=job.seed)
            config = job.make_config()
            probe = TelemetryProbe() if with_probe else None
            with tracer.span("pipeline.construct"):
                engine = get_engine(engine_name)
                proc = Processor(config, trace)
            with tracer.span("pipeline.prewarm"):
                proc.prewarm()
            with tracer.span("pipeline.warmup"):
                engine.run(proc, until_committed=WARMUP)
                proc.reset_measurement()
            if probe is not None:
                with tracer.span("telemetry.attach"):
                    probe.attach(proc)
            with tracer.span("pipeline.measure"):
                engine.run(proc, until_committed=WARMUP + MEASURE)
            if probe is not None:
                with tracer.span("telemetry.finish"):
                    probe.finish()
            with tracer.span("pipeline.result"):
                result = proc.result()
            with tracer.span("energy.annotate"):
                EnergyModel().annotate(result, config)
    return JobRun(job, mode, result, root.duration)


# ----------------------------------------------------------------------
# checks and figures over one pass (every job in every mode)


def check_sim_pass(runs: list[JobRun], expected: dict,
                   first: dict) -> list[str]:
    """At most one failure per run: against the committed table, then
    against the reference engine's digest in the same pass, then against
    the same job's digest in the run's first pass (``first``, filled on
    the first call)."""
    failures = []
    ref = {r.job: r.digest for r in runs if r.mode == "reference"}
    for run in runs:
        key = expected_key(run.job.program, run.job.config, run.job.seed,
                           WARMUP, MEASURE)
        digest = run.digest
        problem = check_expected(expected, key, run.result.cycles,
                                 run.result.stats.committed_uops)
        if problem is None and digest != ref.get(run.job, digest):
            problem = (f"{run.job.id}: digest differs from the reference "
                       f"engine's")
        if problem is None and digest != first.setdefault(
                (run.job, run.mode), digest):
            problem = f"{run.job.id}: digest differs from the first pass"
        if problem:
            failures.append(f"{run.mode}: {problem}")
    return failures


def run_throughput(passes: list[list[JobRun]], mode: str,
                   nominal: bool = False) -> float | None:
    """Committed micro-ops per host second over the mode's jobs, each
    job timed at the median of its passes, as measured or (``nominal``)
    at nominal host speed; ``None`` if none ran.

    Every job sample counts: a slow moment of the host during one job
    of one pass is outvoted by that job's other passes.
    """
    walls: dict[Job, list[float]] = {}
    uops: dict[Job, int] = {}
    for runs in passes:
        for run in runs:
            if run.mode == mode:
                walls.setdefault(run.job, []).append(
                    run.nominal_s if nominal else run.wall_s)
                uops[run.job] = run.uops
    if not walls:
        return None
    return sum(uops.values()) / sum(median(w) for w in walls.values())


def field_mismatches(runs: list[JobRun]) -> dict[str, list[str]]:
    """``SimulationResult`` field -> jobs on which the fast engine's
    value differs from the reference engine's."""
    ref = {r.job: r for r in runs if r.mode == "reference"}
    out: dict[str, list[str]] = {}
    for run in runs:
        if run.mode == "fast" and run.job in ref:
            for name in differing_fields(ref[run.job].result, run.result):
                out.setdefault(name, []).append(run.job.id)
    return out


def dyn_speedup_gm(runs: list[JobRun]) -> float:
    """Simulated DYN-3-over-base IPC, geometric mean over the programs."""
    ipc = {(r.job.program, r.job.config): r.result.ipc
           for r in runs if r.mode == "reference"}
    programs = sorted(p for p, c in ipc if c == "dyn3" and (p, "base") in ipc)
    return geometric_mean(ipc[(p, "dyn3")] / ipc[(p, "base")]
                          for p in programs)


def simulated_counts(runs: list[JobRun]) -> dict[str, float]:
    """Simulated statistics of the reference runs, summed over jobs.

    A change that only makes the simulator faster leaves every one of
    these identical.
    """
    ref = [r for r in runs if r.mode == "reference"]
    mem = lambda name: sum(r.result.memory_stats.get(name, 0) for r in ref)
    dyn = [r for r in ref if r.job.config == "dyn3"]
    dyn_cycles = sum(r.result.stats.level_cycles.get(3, 0) for r in dyn)
    dyn_total = sum(sum(r.result.stats.level_cycles.values()) for r in dyn)
    return {
        "pipeline.sim_cycles": sum(r.result.cycles for r in ref),
        "pipeline.committed_uops": sum(r.uops for r in ref),
        "memory.l1d_misses": mem("l1d_misses"),
        "memory.l2_misses": mem("l2_misses"),
        "memory.dram_requests": mem("dram_requests"),
        "memory.l2_miss_ratio": mem("l2_misses") / max(1, mem("l2_accesses")),
        "core.level3_residency": dyn_cycles / max(1, dyn_total),
        "core.level_transitions": sum(len(r.result.stats.level_transitions)
                                      for r in ref),
        "core.transition_stall_cycles": sum(
            r.result.stats.transition_stall_cycles for r in ref),
        "frontend.mispredicts": sum(r.result.stats.committed_mispredicts
                                    for r in ref),
    }
