"""One benchmark run: the phases, their checks and the metrics.

``run.py`` is the command line; it puts the simulator sources on the
import path before importing this module.
"""

from __future__ import annotations

import json
import os
import resource
from statistics import median
from time import perf_counter

from repro.workloads.riscv.corpus import (RISCV_PREFIX, clear_corpus_memo,
                                          load_corpus_program)

from campaign import (campaign_pass, check_campaign_pass, settings_for,
                      store_latencies)
from harness import (MIN_BEYOND, NOMINAL_KERNEL_S, HostSpeed, NullTracer,
                     Tracer, one_cpu, percentile, ratio)
from mixes import MIXES, service_requests, sim_jobs
from service import (Server, check_outcomes, closed_loop, latencies,
                     latency_split, simulated)
from simphase import (MODES, check_sim_pass, dyn_speedup_gm,
                      field_mismatches, run_direct, run_throughput,
                      run_traced, simulated_counts)

HERE = os.path.dirname(os.path.abspath(__file__))

#: what ``--trace 0`` reports; ``--trace 1`` reports every other metric
END_TO_END = ("setup_s", "sim_uops_per_s", "fast_uops_per_s",
              "telemetry_uops_per_s", "campaign_cold_s", "campaign_warm_s",
              "service_jobs_per_s", "service_p50_s",
              "peak_rss_mb")
#: warm campaign passes per cold one
WARM_REPEATS = 10
#: closed-loop requests between host-speed samples in a service session,
#: and the samples taken after each chunk and around a server start-up
SERVICE_CHUNK = 300
CHUNK_SAMPLES = 4
#: server launches per run that ``setup_s`` takes the median of
MIN_SETUPS = 5
#: host-speed samples on each CPU before and after a cold campaign
SPEED_SAMPLES = 2
#: direct-and-traced pairs per job in a traced run; per-layer figures
#: are medians over them
PAIR_REPEATS = 3


class Bench:
    """One run: phases append samples, metrics, report lines and
    failures."""

    def __init__(self, workload: str, seed: int, run_dir: str,
                 src_dir: str) -> None:
        self.mix = MIXES[workload]
        self.seed = seed
        #: where the run's stores, server logs and temp files go
        self.run_dir = run_dir
        #: the simulator sources, for the server subprocesses
        self.src_dir = src_dir
        with open(os.path.join(HERE, "expected.json"), encoding="utf-8") as fh:
            self.expected = json.load(fh)["jobs"]
        self.attempted = 0
        self.failures: list[str] = []
        self.metrics: dict[str, dict] = {}
        self.kinds: dict[str, str] = {}
        self.lines: list[str] = []
        self.jobs = sim_jobs(self.mix, seed)
        self.settings = settings_for(self.mix, seed)
        self.requests = service_requests(self.mix, seed)
        #: job -> digest of its reference-engine result
        self.reference: dict = {}
        # samples, one per unit of each phase
        self.sim_passes: list[list] = []
        self.first_digests: dict = {}
        self.campaign_units = 0
        self.colds: list = []
        self.warms: list = []
        self.setups: list[float] = []
        self.setup_nominals: list[float] = []
        self.sessions = 0
        #: latencies of every request of every session
        self.service_latencies: list[float] = []
        self.service_done = 0
        self.service_wall = 0.0
        #: the same latencies and wall time, each chunk's at nominal
        #: host speed
        self.service_nominal_latencies: list[float] = []
        self.service_nominal_wall = 0.0
        #: phase -> the host speed beside its timed operations
        self.speed = {phase: HostSpeed()
                      for phase in ("simulate", "campaign_cold",
                                    "campaign_warm", "service")}

    def metric(self, name: str, value: float, unit: str,
               simulated: bool = False) -> None:
        """Record one metric, labelled for the report as simulated (a
        statistic of the modelled machine), a count of benchmark or
        program events, or host (measured on this machine)."""
        self.metrics[name] = {"value": value, "unit": unit}
        self.kinds[name] = ("simulated" if simulated
                            else "count" if unit == "count" else "host")

    def share(self, name: str, part: float, base: float,
              base_name: str) -> None:
        """Record ``part / base`` and state its base in the report."""
        value = ratio(part, base, base_name)
        self.metric(name, value["value"], "share")
        self.lines.append(f"{name} = {value['value']:.4f} of "
                          f"{value['base']} ({value['base_value']:.4g})")

    def fresh_dir(self, name: str) -> str:
        path = os.path.join(self.run_dir, name)
        os.makedirs(path)
        return path

    # -------------------------------------------------------------- sim

    def attempt(self, what: str, call, *args):
        """``call(*args)`` as one counted operation; an error raised by
        the program fails that operation, not the run."""
        self.attempted += 1
        try:
            return call(*args)
        except Exception as exc:
            first_line = (str(exc).splitlines() or [""])[0]
            self.failures.append(f"{what}: {type(exc).__name__}: "
                                 f"{first_line}")
            return None

    def sim_pass(self) -> None:
        """Every job in every mode, timed whole and checked."""
        runs = []
        speed = self.speed["simulate"]
        with one_cpu():
            speed.sample()
            for job in self.jobs:
                for mode in MODES:
                    mark = len(speed.samples) - 1
                    run = self.attempt(f"{job.id}/{mode}", run_direct, job,
                                       mode)
                    speed.sample()
                    if run is not None:
                        run.nominal_s = speed.since(mark).seconds(run.wall_s)
                        runs.append(run)
        self.failures += check_sim_pass(runs, self.expected,
                                        self.first_digests)
        self.sim_passes.append(runs)
        if not self.reference:
            self.reference = {r.job: r.digest for r in runs
                              if r.mode == "reference"}

    def sim_traced(self, tracer) -> list:
        # the riscv corpus decode is paid once per process: time it on
        # its own, from a cold memo, so that it lands in
        # workloads.decode_s and in no one job of a pair
        clear_corpus_memo()
        for program in self.mix.programs:
            if program.startswith(RISCV_PREFIX):
                with tracer.span("workloads.decode", job=f"corpus/{program}"):
                    self.attempt(f"decode {program}", load_corpus_program,
                                 program)
        # key -> [(repeat, direct run, traced run)]; the repeats of one
        # job lie a whole pass apart, so a slow moment of the host hits
        # at most one of them
        pairs: dict[str, list] = {}
        for repeat in range(PAIR_REPEATS):
            for index, (job, mode) in enumerate(
                    (job, mode) for job in self.jobs for mode in MODES):
                key = f"{job.id}/{mode}"
                # alternate which runs first, so first-call costs (cold
                # host caches) do not all land on one side of the
                # overhead figure
                calls = [("direct", run_direct, (job, mode)),
                         ("traced", run_traced,
                          (job, mode, tracer, f"{key}#{repeat}"))]
                if (index + repeat) % 2:
                    calls.reverse()
                done = {kind: self.attempt(f"{key} {kind}", call, *args)
                        for kind, call, args in calls}
                if None in done.values():
                    continue
                pairs.setdefault(key, []).append(
                    (repeat, done["direct"], done["traced"]))
                if done["traced"].digest != done["direct"].digest:
                    self.failures.append(
                        f"{key}: traced phase calls digest differently "
                        f"from one simulate() call")
        direct = [d for runs in pairs.values() for _, d, _ in runs]
        self.failures += check_sim_pass(direct, self.expected, {})
        self.reference = {r.job: r.digest for r in direct
                          if r.mode == "reference"}
        self._layer_metrics(tracer, pairs)
        return [runs[0][1] for runs in pairs.values()]

    def _layer_metrics(self, tracer, pairs) -> None:
        """Each layer's self time is the median over a job's traced
        repeats, summed over jobs; job wall times likewise."""
        by_job = tracer.self_times_by_job()
        per_mode: dict[str, dict[str, float]] = {}
        total: dict[str, float] = {}
        gaps = []
        traced_wall = direct_wall = 0.0
        ref_cycles = 0
        for key, runs in pairs.items():
            spans = [by_job[f"{key}#{repeat}"] for repeat, _, _ in runs]
            direct_s = median(d.wall_s for _, d, _ in runs)
            direct_wall += direct_s
            traced_wall += median(t.wall_s for _, _, t in runs)
            layer_sums = [sum(v for k, v in names.items() if k != "job")
                          for names in spans]
            gaps.append((median(layer_sums) - direct_s) / direct_s)
            mode = runs[0][2].mode
            if mode == "reference":
                ref_cycles += runs[0][2].result.cycles
            mode_sums = per_mode.setdefault(mode, {})
            for name in {name for names in spans for name in names}:
                seconds = median(names.get(name, 0.0) for names in spans)
                mode_sums[name] = mode_sums.get(name, 0.0) + seconds
                total[name] = total.get(name, 0.0) + seconds
        layer_sum = sum(v for k, v in total.items() if k != "job")
        trace_s = (total.get("workloads.generate", 0.0)
                   + total.get("workloads.decode", 0.0))
        corpus_s = sum(names.get("workloads.decode", 0.0)
                       for job, names in by_job.items()
                       if job.startswith("corpus/"))
        m = self.metric
        m("workloads.generate_s", total.get("workloads.generate", 0.0), "s")
        m("workloads.decode_s",
          corpus_s + total.get("workloads.decode", 0.0), "s")
        self.lines.append(
            f"workloads.decode_s = {corpus_s:.4f} s corpus decode (once, "
            f"cold memo) + {total.get('workloads.decode', 0.0):.4f} s "
            f"riscv trace builds in jobs")
        self.share("workloads.trace_share", trace_s, traced_wall,
                   "traced job wall time, s")
        for name in ("construct", "prewarm", "result"):
            m(f"pipeline.{name}_s", total[f"pipeline.{name}"], "s")
        for mode, prefix in (("reference", "pipeline."),
                             ("fast", "pipeline.fast_"),
                             ("telemetry", "pipeline.telemetry_")):
            m(f"{prefix}warmup_s", per_mode[mode]["pipeline.warmup"], "s")
            m(f"{prefix}measure_s", per_mode[mode]["pipeline.measure"], "s")
            m(f"{prefix}host_ns_per_cycle",
              per_mode[mode]["pipeline.measure"] / ref_cycles * 1e9,
              "ns/cycle")
        m("telemetry.attach_finish_s", total.get("telemetry.attach", 0.0)
          + total.get("telemetry.finish", 0.0), "s")
        m("energy.annotate_s", total["energy.annotate"], "s")
        self.share("energy.annotate_share", total["energy.annotate"],
                   traced_wall, "traced job wall time, s")
        self.share("trace.overhead_share", traced_wall - direct_wall,
                   direct_wall, "untraced job wall time, s")
        self.share("trace.layer_sum_gap_share",
                   abs(layer_sum - direct_wall), direct_wall,
                   "untraced job wall time, s")
        m("trace.max_job_gap_share", max(abs(g) for g in gaps), "share")
        self.lines.append(
            f"per-job |layer self-time sum - untraced wall| / untraced "
            f"wall over {len(gaps)} jobs (medians of {PAIR_REPEATS} "
            f"repeats): median {median(abs(g) for g in gaps):.4f}, max "
            f"{max(abs(g) for g in gaps):.4f}")

    def sim_figures(self, runs) -> None:
        """Simulated figures of one pass; the same on every pass."""
        for name, value in simulated_counts(runs).items():
            unit = "share" if name.endswith(("_ratio", "_residency")) \
                else "count"
            self.metric(name, value, unit, simulated=True)
        mismatches = field_mismatches(runs)
        self.metric("pipeline.engine_field_mismatches", len(mismatches),
                    "count")
        for name, jobs in sorted(mismatches.items()):
            self.lines.append(f"fast != reference in {name}: "
                              + ", ".join(jobs))
        gm = dyn_speedup_gm(runs)
        paper = self.mix.paper_speedup_gm
        self.metric("core.dyn_speedup_gm", gm, "ratio", simulated=True)
        self.metric("core.dyn_speedup_gap", abs(gm - paper), "ratio",
                    simulated=True)
        programs = len({r.job.program for r in runs})
        self.lines.append(
            f"simulated accuracy (at benchmark scale, {programs} programs "
            f"x {runs[0].uops} uops; not a gain metric): DYN-3 "
            f"over base IPC GM {gm:.4f} vs paper {paper:.2f} "
            f"(+{(paper - 1) * 100:.0f}%), difference {gm - paper:+.4f}")

    # --------------------------------------------------------- campaign

    def campaign_unit(self, tracer, warm_passes: int):
        """One cold pass on an empty store, then ``warm_passes`` warm
        ones on the same directory; returns the cold pass and the
        directory."""
        self.campaign_units += 1
        directory = self.fresh_dir(f"campaign-{self.campaign_units}")
        # the cold pass fans out over both CPUs, so the host speed beside
        # it is sampled on each; a warm pass runs in this process alone
        speed = self.speed["campaign_cold"]
        speed.sample(SPEED_SAMPLES, every_cpu=True)
        cold = self.attempt("campaign cold pass", campaign_pass,
                            self.settings, directory, tracer, False)
        speed.sample(SPEED_SAMPLES, every_cpu=True)
        if cold is None:
            return None, directory
        passes = [cold]
        speed = self.speed["campaign_warm"]
        with one_cpu():
            speed.sample()
            for _ in range(warm_passes):
                mark = len(speed.samples) - 1
                warm = self.attempt("campaign warm pass", campaign_pass,
                                    self.settings, directory, tracer, True)
                speed.sample()
                if warm is not None:
                    warm.nominal_s = speed.since(mark).seconds(warm.wall_s)
                    passes.append(warm)
        self.colds.append(cold)
        self.warms += passes[1:]
        for one in passes:
            self.failures += check_campaign_pass(self.colds[0], one)
        return cold, directory

    def campaign_traced(self, tracer) -> None:
        cold, directory = self.campaign_unit(tracer, warm_passes=1)
        if cold is None or not self.warms:
            return
        for name, value in store_latencies(directory, cold.keys,
                                           self.fresh_dir("store-put")
                                           ).items():
            self.metric(name, value,
                        "bytes" if name.endswith("bytes") else "s")
        times = tracer.self_times()
        for name in ("plan", "execute", "render", "warm_plan", "warm_execute",
                     "warm_render"):
            self.metric(f"experiments.{name}_s", times[f"experiments.{name}"],
                        "s")
        self.metric("experiments.jobs_planned", cold.planned, "count")
        self.metric("experiments.jobs_executed", cold.executed, "count")
        self.metric("experiments.worker_utilisation", cold.utilisation,
                    "share")

    # ---------------------------------------------------------- service

    def service_session(self, tracer) -> list:
        """A fresh server (one set-up sample) and one pass of the
        request list through the closed loop."""
        server = self._server(f"service-{self.sessions}")
        self.sessions += 1
        speed = self.speed["service"]
        with one_cpu():
            try:
                if not self._start(server):
                    return []
                # in chunks, each normalised by the samples just before
                # and after it, as a session spans several host regimes
                outcomes, wall = [], 0.0
                for first in range(0, len(self.requests), SERVICE_CHUNK):
                    mark = len(speed.samples) - CHUNK_SAMPLES
                    chunk, seconds = closed_loop(
                        server, self.requests[first:first + SERVICE_CHUNK],
                        tracer, first)
                    speed.sample(CHUNK_SAMPLES)
                    local = speed.since(mark)
                    outcomes += chunk
                    wall += seconds
                    self.service_nominal_latencies += [
                        local.seconds(x) for x in latencies(chunk)]
                    self.service_nominal_wall += local.seconds(seconds)
            finally:
                server.stop()
        # each request, and the simulated-count check below
        self.attempted += len(outcomes) + 1
        self.failures += check_outcomes(outcomes, self.expected,
                                        self.reference)
        ran = len(simulated(outcomes))
        distinct = len(set(self.requests))
        if ran != distinct:
            self.failures.append(f"service simulated {ran} jobs for "
                                 f"{distinct} distinct shapes")
        self.service_done += sum(o.state == "done" for o in outcomes)
        self.service_wall += wall
        self.service_latencies += latencies(outcomes)
        return outcomes

    def service_traced(self, tracer) -> None:
        outcomes = self.service_session(tracer)
        if not outcomes:
            return
        for name, value in latency_split(outcomes).items():
            self.metric(name, value, "s")
        self.metric("service.p99_s", percentile(latencies(outcomes), 99), "s")
        ran = len(simulated(outcomes))
        counts = {
            "service.requests": len(outcomes),
            "service.simulated": ran,
            "service.cached": sum(o.cached for o in outcomes),
            "service.coalesced": sum(o.coalesced for o in outcomes),
            "service.rejected": sum(o.state == "rejected" for o in outcomes),
        }
        for name, value in counts.items():
            self.metric(name, value, "count")
        if ran:
            dedup = ratio(len(outcomes), ran, "simulations run")
            self.metric("service.dedup_ratio", dedup["value"], "ratio")
            self.lines.append(f"service.dedup_ratio = {len(outcomes)} "
                              f"requests per {ran} {dedup['base']}")

    def _start(self, server) -> bool:
        """Start ``server`` as one counted operation, with host-speed
        samples before and after; record its set-up time."""
        speed = self.speed["service"]
        mark = len(speed.samples)
        speed.sample(CHUNK_SAMPLES)
        setup = self.attempt("service start-up", server.start)
        speed.sample(CHUNK_SAMPLES)
        if setup is None:
            return False
        self.setups.append(setup)
        self.setup_nominals.append(speed.since(mark).seconds(setup))
        return True

    def _server(self, name: str):
        return Server(self.src_dir, self.fresh_dir(name),
                      os.path.join(self.run_dir, name + ".log"))

    # -------------------------------------------------------------- run

    def run_untraced(self, seconds: float) -> None:
        """Units of every phase until ``seconds`` are spent; each
        end-to-end metric is a median or total over the run's units, at
        nominal host speed.

        The next unit is always one of the phase that has had the least
        host time so far, so each phase gets about a third of the run
        and its units are spread over all of it.  Near the end, a phase
        whose next unit, as long as its last one, would overrun is
        passed over for the next phase whose unit still fits; the run
        stops when none fits.  The shorter campaign and service units
        so fill the tail a long simulate() pass cannot.
        """
        started = perf_counter()
        null = NullTracer()
        phases = {
            "simulate": self.sim_pass,
            "campaign": lambda: self.campaign_unit(null, WARM_REPEATS),
            "service": lambda: self.service_session(null),
        }
        spent = dict.fromkeys(phases, 0.0)
        last: dict[str, float] = {}
        while True:
            fits = [name for name in phases
                    if name not in last
                    or perf_counter() + last[name] <= started + seconds]
            if not fits:
                break
            name = min(fits, key=spent.__getitem__)
            unit_started = perf_counter()
            phases[name]()
            last[name] = perf_counter() - unit_started
            spent[name] += last[name]
        for index in range(MIN_SETUPS - len(self.setups)):
            server = self._server(f"setup-{index}")
            with one_cpu():
                try:
                    self._start(server)
                finally:
                    server.stop()
        gms = [dyn_speedup_gm(runs) for runs in self.sim_passes]
        self.attempted += len(gms) - 1
        self.failures += [f"pass {i}: DYN-3 speedup GM {gm!r} differs from "
                          f"pass 0's {gms[0]!r}"
                          for i, gm in enumerate(gms) if gm != gms[0]]
        # name -> (as measured, at nominal host speed, unit); a metric
        # whose every operation failed is left out, as the failures
        # already make the run incorrect
        figures = {}
        if self.setups:
            figures["setup_s"] = (median(self.setups),
                                  median(self.setup_nominals), "s")
        for name, mode in (("sim_uops_per_s", "reference"),
                           ("fast_uops_per_s", "fast"),
                           ("telemetry_uops_per_s", "telemetry")):
            value = run_throughput(self.sim_passes, mode)
            if value is not None:
                figures[name] = (value, run_throughput(self.sim_passes, mode,
                                                       nominal=True), "1/s")
        if self.colds:
            # a cold pass lasts seconds, longer than the host holds one
            # speed, so the few samples just around it misjudge its
            # speed; the mean of every sample beside the run's cold
            # passes judges it better (over ten runs of sim-memory the
            # spread was 0.06 this way, 0.08 pass by pass)
            cold_s = median(p.wall_s for p in self.colds)
            figures["campaign_cold_s"] = (
                cold_s, self.speed["campaign_cold"].seconds(cold_s), "s")
        if self.warms:
            figures["campaign_warm_s"] = (
                median(p.wall_s for p in self.warms),
                median(p.nominal_s for p in self.warms), "s")
        if self.service_latencies:
            figures["service_jobs_per_s"] = (
                self.service_done / self.service_wall,
                self.service_done / self.service_nominal_wall, "1/s")
            figures["service_p50_s"] = (
                median(self.service_latencies),
                median(self.service_nominal_latencies), "s")
        for phase, speed in self.speed.items():
            if speed.samples:
                self.lines.append(
                    f"host speed beside {phase}: reference kernel mean "
                    f"{speed.slowdown * NOMINAL_KERNEL_S * 1e3:.3f} ms over "
                    f"{len(speed.samples)} samples, {speed.slowdown:.4f}x "
                    f"its nominal {NOMINAL_KERNEL_S * 1e3:g} ms")
        for name in END_TO_END:
            if name in figures:
                value, normal, unit = figures[name]
                self.metric(name, normal, unit)
                self.lines.append(f"{name}: measured {value:.6g} {unit}, "
                                  f"{normal:.6g} at nominal host speed")
        self.metric("peak_rss_mb", peak_rss_mb(), "MB")
        self.sim_figures(self.sim_passes[0])
        planned = self.colds[0].planned if self.colds else "?"
        self.lines.append(
            f"units: {len(self.sim_passes)} simulate() passes of "
            f"{len(self.jobs)} jobs x {len(MODES)} modes; "
            f"{self.campaign_units} campaigns of {planned} jobs, cold + "
            f"{WARM_REPEATS} warm; {self.sessions} service sessions of "
            f"{len(self.requests)} requests, {len(self.service_latencies)} "
            f"latencies in all; {len(self.setups)} server set-ups")
        if len(self.service_latencies) >= 100 * MIN_BEYOND:
            self.lines.append(
                f"service p99 (host time, not normalised, no bound: the "
                f"tail of cached serving, set by host stalls): "
                f"{percentile(self.service_latencies, 99):.6g} s over "
                f"{len(self.service_latencies)} requests")

    def run_traced(self, spans_path: str) -> None:
        """One unit of every phase with spans around each layer call;
        the spans are written to ``spans_path`` at the end."""
        tracer = Tracer()
        self.sim_figures(self.sim_traced(tracer))
        self.campaign_traced(tracer)
        self.service_traced(tracer)
        tracer.write(spans_path)


def peak_rss_mb() -> float:
    """Peak resident set of this process plus that of its largest
    waited-for child (servers, pool workers), in MiB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + child) / 1024.0
