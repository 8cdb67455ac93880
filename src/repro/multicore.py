"""Multi-core simulation with a shared L2 and memory channel.

The paper evaluates a single core but prices its Table 4 area assuming
the scheme is deployed on **all four** Sandy Bridge cores.  This module
makes that configuration measurable: N cores (each with private L1s and
its own resizing controller) share one L2, one L2 MSHR file and one
main-memory channel, and run in cycle lockstep.

Per-core resizing stays private by construction — a core's controller
only sees the L2 misses of *its own* demand accesses, since each core
talks to the shared L2 through its own :class:`MemoryHierarchy` facade
(the listener chain is per-facade).

Example::

    from repro.multicore import MultiCoreSystem
    system = MultiCoreSystem([dynamic_config(3)] * 4, traces)
    system.run(until_committed_each=10_000)
    for result in system.results():
        print(result.summary_line())
"""

from __future__ import annotations

from repro.config import ProcessorConfig
from repro.memory import Cache, MSHRFile, MainMemory, MemoryHierarchy
from repro.memory.dram_banked import BankedMemory
from repro.pipeline import Processor
from repro.stats import SimulationResult
from repro.workloads import Trace


class MultiCoreSystem:
    """N cores in cycle lockstep over shared L2 + DRAM."""

    def __init__(self, configs: list[ProcessorConfig],
                 traces: list[Trace]) -> None:
        if not configs or len(configs) != len(traces):
            raise ValueError("need one config per trace, at least one core")
        ref = configs[0]
        for other in configs[1:]:
            if other.l2 != ref.l2 or other.memory != ref.memory:
                raise ValueError(
                    "all cores must agree on the shared L2/memory config")
        self.shared_l2 = Cache(ref.l2, name="L2(shared)")
        self.shared_l2_mshr = MSHRFile(ref.l2.mshr_entries)
        if ref.memory.organisation == "banked":
            self.shared_memory = BankedMemory(ref.memory,
                                              line_bytes=ref.l2.line_bytes)
        else:
            self.shared_memory = MainMemory(ref.memory,
                                            line_bytes=ref.l2.line_bytes)
        self.cores: list[Processor] = []
        for config, trace in zip(configs, traces):
            hierarchy = MemoryHierarchy(
                config, shared_l2=self.shared_l2,
                shared_l2_mshr=self.shared_l2_mshr,
                shared_memory=self.shared_memory)
            self.cores.append(Processor(config, trace,
                                        hierarchy=hierarchy))
        # channel position at the last measurement reset: bounds how
        # many busy cycles the channel could legitimately have charged
        # since (see channel_utilisation)
        self._channel_anchor = getattr(self.shared_memory,
                                       "_channel_free", 0)

    # ------------------------------------------------------------------

    def prewarm(self) -> None:
        """Prewarm every core (shared L2 budget is split evenly)."""
        fraction = 0.625 / len(self.cores)
        for core in self.cores:
            core.prewarm(budget_fraction=fraction)

    def reset_measurement(self) -> None:
        """Zero all measurement counters at the warmup boundary.

        Per-core resets cover each core's private structures (the
        hierarchy facade reset is ownership-aware); the shared L2 and
        the shared channel are zeroed here, exactly once — not once per
        core through each core's facade.
        """
        for core in self.cores:
            core.reset_measurement()
        l2 = self.shared_l2
        l2.hits = 0
        l2.misses = 0
        l2.evictions = 0
        self.shared_memory.requests = 0
        self.shared_memory.busy_cycles = 0
        self._channel_anchor = getattr(self.shared_memory,
                                       "_channel_free", 0)

    def run(self, until_committed_each: int,
            max_cycles: int | None = None) -> None:
        """Advance all cores in lockstep until each has committed
        ``until_committed_each`` micro-ops (or drained its trace).

        A core's ``step_cycle() == 0`` alone does not retire it: zero
        means "no forward progress possible this cycle", which a core
        waiting on a shared resource (or any subclass with its own
        drain condition) can report transiently.  Only
        :meth:`Processor.trace_drained` retires a core early; a
        non-drained idle core keeps advancing in lockstep so the shared
        clock stays aligned, and the ``max_cycles`` bound (taken over
        *all* cores' clocks, not just core 0's) catches true livelock.
        """
        if max_cycles is None:
            max_cycles = (max(core.cycle for core in self.cores)
                          + (until_committed_each + 1000) * 800)
        active = set(range(len(self.cores)))
        while active:
            deltas = []
            finished = []
            idle = []
            for idx in sorted(active):
                core = self.cores[idx]
                if core.committed_total >= until_committed_each:
                    finished.append(idx)
                    continue
                if core.cycle > max_cycles:
                    raise RuntimeError(
                        f"core {idx} exceeded {max_cycles} cycles")
                delta = core.step_cycle()
                if delta == 0:
                    if core.trace_drained():
                        finished.append(idx)
                    else:
                        idle.append(idx)
                elif core.committed_total >= until_committed_each:
                    # the cycle that reaches the target is accounted
                    # alone, as in Processor.run
                    deltas.append((idx, 1))
                else:
                    deltas.append((idx, delta))
            active.difference_update(finished)
            if not deltas and not idle:
                continue
            # lockstep: everyone advances by the smallest suggested
            # delta; idle-but-undrained cores ride along so their
            # clocks stay in step with the cores still working
            step = (min(delta for __, delta in deltas)
                    if deltas else 1)
            for idx, __ in deltas:
                self.cores[idx].advance(step)
            for idx in idle:
                self.cores[idx].advance(step)
        for core in self.cores:
            core._account_cycles()

    # ------------------------------------------------------------------

    def results(self) -> list[SimulationResult]:
        return [core.result() for core in self.cores]

    def aggregate_ipc(self) -> float:
        """Total committed micro-ops over the longest core's cycles.

        Pessimistic when core runtimes differ a lot (finished cores stop
        contributing); :meth:`throughput` is the usual fixed-work chip
        metric."""
        cycles = max(core.stats.cycles for core in self.cores)
        if not cycles:
            return 0.0
        committed = sum(core.stats.committed_uops for core in self.cores)
        return committed / cycles

    def throughput(self) -> float:
        """Sum of per-core IPCs (each over its own cycles) — the
        standard fixed-work multi-programming throughput metric."""
        return sum(core.stats.ipc for core in self.cores)

    def channel_utilisation(self) -> float:
        """Fraction of elapsed cycles the shared channel was transferring.

        Deliberately *not* clamped to 1.0: the channel charges each
        transfer's cycles when the transfer is scheduled, so at the end
        of a measurement window the counter legitimately includes
        cycles of transfers still draining past the last core cycle
        observed here.  A backlogged channel therefore reads slightly
        above 1.0 — that is real oversubscription the experiments want
        to see, and the old ``min(1.0, ...)`` silently hid it.  What is
        *never* legitimate is charging more busy cycles than the
        channel's own schedule advanced since the last reset; that
        indicates corrupt accounting and raises.
        """
        cycles = max(core.stats.cycles for core in self.cores)
        if not cycles:
            return 0.0
        busy = self.shared_memory.busy_cycles
        channel_free = getattr(self.shared_memory, "_channel_free", None)
        if channel_free is not None:
            headroom = max(0, channel_free - self._channel_anchor)
            if busy > headroom:
                raise AssertionError(
                    f"channel busy_cycles={busy} exceeds the "
                    f"{headroom} cycles the channel schedule advanced "
                    f"since the last reset — busy accounting is corrupt")
        return busy / cycles


def simulate_multicore(configs: list[ProcessorConfig], traces: list[Trace],
                       warmup: int = 3_000,
                       measure: int = 8_000) -> MultiCoreSystem:
    """Prewarm, warm up and measure a multi-core system; returns it."""
    system = MultiCoreSystem(configs, traces)
    system.prewarm()
    system.run(until_committed_each=warmup)
    system.reset_measurement()
    system.run(until_committed_each=warmup + measure)
    return system
