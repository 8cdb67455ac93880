"""The runahead execution engine.

Composition-based: :class:`repro.pipeline.core.Processor` owns an engine
instance when running the RUNAHEAD model and calls into it from the
commit stage (entry check, pseudo-retirement), the load/store issue path
(runahead cache) and the event loop (exit).
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.runahead.rcst import RunaheadCauseStatusTable

if TYPE_CHECKING:
    from repro.pipeline.core import InFlightOp, Processor

# event kind shared with the core's event loop
_EV_RA_EXIT = 2


class RunaheadEngine:
    """Checkpoint / runahead-mode / restore machinery."""

    def __init__(self, processor: "Processor") -> None:
        self.processor = processor
        cfg = processor.config.runahead
        self.rcst = (RunaheadCauseStatusTable(cfg.rcst_entries)
                     if cfg.use_rcst else None)
        self.useful_threshold = cfg.rcst_useful_threshold
        #: words the (tiny) runahead cache can hold
        self.cache_words = max(1, cfg.runahead_cache_bytes // 8)
        self._cache: dict[int, bool] = {}
        self.active = False
        self._trigger: "InFlightOp | None" = None
        #: trace index of the last episode's trigger (-1: none yet)
        self._checkpoint_idx = -1
        self._episode_misses = 0
        self._episode_fills = 0
        self._rejected_seq = -1
        # statistics
        self.episodes = 0
        self.useless_episodes = 0
        self.pseudo_retired = 0
        self.exit_penalty = 1   # paper assumes no checkpoint/resume penalty

    # ------------------------------------------------------------------
    # entry

    def consider_entry(self, op: "InFlightOp", cycle: int) -> bool:
        """The ROB head is an issued, incomplete, L2-missing load —
        enter runahead unless the episode is predicted useless or short.

        Short periods — e.g. a re-executed load merging into a fill a
        previous episode already started — cost a full pipeline flush for
        little prefetching; the MICRO'05 enhancements reject them, and so
        do we (minimum remaining latency of half the memory latency).

        Forward progress: the last episode's trigger, re-executed after
        the checkpoint restore, never starts another episode.  It can
        miss again — the episode's own fills may evict its line — and
        re-entering would flush and refetch the same instructions
        forever.  The rule keys on the trace index, which survives the
        refetch (``op.seq`` does not).
        """
        if (self.active or op.seq == self._rejected_seq
                or op.trace_idx == self._checkpoint_idx):
            return False
        min_period = self.processor.config.memory.min_latency // 2
        if op.complete_cycle - cycle < min_period:
            self._rejected_seq = op.seq
            return False    # fill mostly done; a flush would cost more
        if op.trace_idx < 0:
            return False    # never trigger on a wrong-path load
        if self.rcst is not None and not self.rcst.predicts_useful(op.uop.pc):
            self._rejected_seq = op.seq
            return False
        self.active = True
        self.episodes += 1
        self._trigger = op
        self._checkpoint_idx = op.trace_idx
        self._episode_misses = 0
        self._episode_fills = 0
        self._cache.clear()
        # The blocked load gets an INV result immediately; its fill keeps
        # going underneath and times our exit.  Waking its consumers here
        # propagates INV through the dataflow so dependents pseudo-retire
        # instead of waiting for data that will never arrive.
        op.inv = True
        op.complete = True
        proc = self.processor
        op.woken_at = cycle
        proc._wake_consumers(op)
        proc._schedule(op.complete_cycle, _EV_RA_EXIT, op)
        return True

    # ------------------------------------------------------------------
    # runahead-mode behaviour

    def can_pseudo_retire(self, op: "InFlightOp") -> bool:
        """In runahead mode the head retires once complete or INV."""
        return op.complete or op.inv

    def pseudo_retire(self, op: "InFlightOp", cycle: int) -> None:
        self.pseudo_retired += 1
        if op.uop.is_store and not op.inv:
            self.cache_write(op.uop.addr & ~7)

    def cache_write(self, word: int) -> None:
        """Record a store's word in the runahead cache (bounded FIFO)."""
        if word in self._cache:
            return
        if len(self._cache) >= self.cache_words:
            self._cache.pop(next(iter(self._cache)))
        self._cache[word] = True

    def cache_hit(self, word: int) -> bool:
        return word in self._cache

    #: maximum memory fills one episode may initiate — the hardware
    #: analogue is the MSHR capacity a runahead period can occupy.
    EPISODE_FILL_BUDGET = 32

    def may_issue_fill(self, hierarchy, cycle: int) -> bool:
        """Whether a runahead load may start a memory access.

        Bounded per episode so runahead cannot mortgage unbounded memory
        bandwidth against the future (the fills it starts must be ones
        the post-exit re-execution can actually consume).  The budget is
        charged in :meth:`note_episode_miss`, i.e. only for accesses that
        actually start a DRAM fill — hits cost nothing.
        """
        if self._episode_fills >= self.EPISODE_FILL_BUDGET:
            return False
        return hierarchy.mshr_room(cycle)

    def note_episode_miss(self) -> None:
        """A valid runahead load missed the L2 — the episode is useful
        (and one unit of the episode's fill budget is consumed)."""
        self._episode_misses += 1
        self._episode_fills += 1

    # ------------------------------------------------------------------
    # exit

    def exit_runahead(self, cycle: int) -> None:
        """The triggering miss returned: flush and restore the checkpoint."""
        if not self.active:
            return
        proc = self.processor
        trigger = self._trigger
        useful = self._episode_misses >= self.useful_threshold
        if not useful:
            self.useless_episodes += 1
        if self.rcst is not None and trigger is not None:
            self.rcst.update(trigger.uop.pc, useful)
        # Flush the whole machine: every in-flight op is younger than the
        # checkpoint (the trigger pseudo-retired at entry).
        proc._squash_after(0)
        proc._wrong_mode = False
        proc._wrong_branch = None
        proc._trace_idx = self._checkpoint_idx
        proc._fetch_stall_until = max(proc._fetch_stall_until,
                                      cycle + self.exit_penalty)
        proc._last_fetch_line = -1
        self._cache.clear()
        self.active = False
        self._trigger = None
