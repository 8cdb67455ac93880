"""Run-time counters updated by the pipeline.

:class:`SimStats` is deliberately dumb — plain integer fields the hot loop
can bump without indirection.  Aggregation and derived metrics live in
:mod:`repro.stats.report`.
"""

from __future__ import annotations


class ActivityCounters:
    """Per-structure activity, the dynamic-energy input of the McPAT-like
    model (:mod:`repro.energy`).

    ``*_size_cycles`` fields integrate the *active* capacity of a window
    resource over time; leakage of the gated (unused) region is charged at
    a reduced rate by the energy model, as in Section 4 of the paper
    ("signals propagated to the unused region are gated, and precharging
    of the dynamic circuits in the unused region is disabled").
    """

    __slots__ = (
        "fetches", "decodes", "renames", "iq_writes", "iq_issues",
        "iq_wakeups", "rob_writes", "rob_reads", "lsq_searches",
        "fu_ops", "l1i_accesses", "l1d_accesses", "l2_accesses",
        "dram_transfers", "bpred_lookups",
        "iq_size_cycles", "rob_size_cycles", "lsq_size_cycles",
        "iq_max_cycles", "rob_max_cycles", "lsq_max_cycles",
    )

    def __init__(self) -> None:
        self.reset()

    def reset(self) -> None:
        for name in self.__slots__:
            setattr(self, name, 0)

    def as_dict(self) -> dict[str, int]:
        return {name: getattr(self, name) for name in self.__slots__}


class SimStats:
    """All counters for one simulation (one program, one model)."""

    def __init__(self) -> None:
        self.activity = ActivityCounters()
        self.reset()

    def reset(self) -> None:
        # headline progress
        self.cycles = 0
        self.committed_uops = 0
        self.committed_loads = 0
        self.committed_stores = 0
        self.committed_branches = 0
        self.committed_mispredicts = 0
        # dispatch-side accounting
        self.dispatched_uops = 0
        self.issued_uops = 0
        self.squashed_uops = 0
        self.wrong_path_uops = 0
        # window resizing
        self.level_cycles: dict[int, int] = {}
        #: (cycle, new_level) for every applied transition, in order —
        #: the raw material for phase-behaviour analysis (paper Fig 6)
        self.level_transitions: list[tuple[int, int]] = []
        self.enlarge_transitions = 0
        self.shrink_transitions = 0
        self.stop_alloc_cycles = 0
        self.transition_stall_cycles = 0
        # memory behaviour
        self.l2_miss_cycles: list[int] = []      # detection cycles (Fig 4)
        self.demand_miss_intervals: list[tuple[int, int]] = []   # MLP
        # branch behaviour (Table 5)
        self.mispredict_distances: list[int] = []
        self._last_mispredict_commit = 0
        # front-end stalls
        self.fetch_stall_cycles = 0
        self.dispatch_stall_cycles = 0
        #: commit-slot stall attribution (CPI-stack raw material):
        #: reason -> unused commit slots charged to it
        self.stall_slots: dict[str, int] = {}
        self.activity.reset()

    def note_stall_slots(self, reason: str, slots: int) -> None:
        """Charge ``slots`` unused commit slots to ``reason``."""
        self.stall_slots[reason] = self.stall_slots.get(reason, 0) + slots

    # ------------------------------------------------------------------

    def note_level_cycles(self, level: int, cycles: int) -> None:
        """Charge ``cycles`` of residency at ``level`` (Fig 8)."""
        self.level_cycles[level] = self.level_cycles.get(level, 0) + cycles

    def note_mispredict_commit(self, committed_uops: int | None = None) -> None:
        """A mispredicted branch committed; record the distance since the
        previous one in committed instructions (Table 5).

        ``committed_uops`` is the commit count including that branch,
        for callers that add ``committed_uops`` once per commit stage
        (default: the current count)."""
        if committed_uops is None:
            committed_uops = self.committed_uops
        self.mispredict_distances.append(
            committed_uops - self._last_mispredict_commit)
        self._last_mispredict_commit = committed_uops

    # ------------------------------------------------------------------

    @property
    def ipc(self) -> float:
        return self.committed_uops / self.cycles if self.cycles else 0.0

    def level_residency(self) -> dict[int, float]:
        """Fraction of cycles spent at each level."""
        total = sum(self.level_cycles.values())
        if not total:
            return {}
        return {lvl: c / total for lvl, c in sorted(self.level_cycles.items())}

    def average_mispredict_distance(self) -> float:
        """Mean committed instructions between mispredicted branches.

        If no branch ever mispredicted, returns the committed instruction
        count (the paper reports multi-million values for libquantum/milc
        for the same reason: nearly no mispredictions in the sample).
        """
        if not self.mispredict_distances:
            return float(self.committed_uops)
        return sum(self.mispredict_distances) / len(self.mispredict_distances)

    def miss_intervals(self) -> list[int]:
        """Cycle gaps between consecutive L2 demand misses (Fig 4).

        Detection times are sorted first: misses detected in the same
        cycle arrive from several requesters (demand loads, fetch) in
        arbitrary callback order.
        """
        times = sorted(self.l2_miss_cycles)
        return [b - a for a, b in zip(times, times[1:])]
