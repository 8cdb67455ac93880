"""Runahead execution engine."""

import pytest

from repro.config import base_config, runahead_config
from repro.pipeline import InFlightOp, Processor, simulate
from repro.runahead import RunaheadCauseStatusTable
from repro.workloads import trace_for_program

from tests.conftest import (
    DATA_BASE,
    ialu,
    load,
    make_trace,
    store,
    warm_icache,
)


def run_runahead(ops, until=None):
    proc = Processor(runahead_config(), make_trace(ops))
    warm_icache(proc)
    proc.run(until_committed=until or len(ops))
    return proc


def stream_with_misses(n_lines=24, per_line_ops=12):
    """Missing load followed by compute, repeatedly: classic runahead
    territory (each miss blocks the ROB head while later misses could
    have been started)."""
    ops = []
    idx = 0
    for i in range(n_lines):
        ops.append(load(idx, dst=1, addr=DATA_BASE + 0x4000 * i,
                        srcs=()))
        idx += 1
        for j in range(per_line_ops):
            ops.append(ialu(idx, dst=2 + (j % 6), srcs=(1,)))
            idx += 1
    return ops


class TestRCST:
    def test_validation(self):
        with pytest.raises(ValueError):
            RunaheadCauseStatusTable(0)

    def test_first_encounter_is_useful(self):
        t = RunaheadCauseStatusTable(8)
        assert t.predicts_useful(0x100)

    def test_learns_useless(self):
        t = RunaheadCauseStatusTable(8)
        t.update(0x100, useful=False)
        t.update(0x100, useful=False)
        assert not t.predicts_useful(0x100)
        assert t.suppressions == 1

    def test_relearns_useful(self):
        t = RunaheadCauseStatusTable(8)
        for __ in range(3):
            t.update(0x100, useful=False)
        t.update(0x100, useful=True)
        t.update(0x100, useful=True)
        assert t.predicts_useful(0x100)

    def test_counter_saturation(self):
        t = RunaheadCauseStatusTable(8)
        for __ in range(10):
            t.update(0x100, useful=True)
        t.update(0x100, useful=False)
        assert t.predicts_useful(0x100)   # one bad episode isn't enough

    def test_lru_eviction(self):
        t = RunaheadCauseStatusTable(2)
        t.update(0x100, useful=False)
        t.update(0x100, useful=False)
        t.update(0x200, useful=True)
        t.update(0x300, useful=True)      # evicts 0x100
        assert t.predicts_useful(0x100)   # forgotten -> default useful
        assert len(t) == 2


class TestEngine:
    def test_episodes_happen(self):
        proc = run_runahead(stream_with_misses())
        assert proc.runahead.episodes >= 1
        assert proc.runahead.pseudo_retired > 0

    def test_exits_restore_architectural_count(self):
        ops = stream_with_misses()
        proc = run_runahead(ops)
        assert proc.committed_total == len(ops)
        assert not proc.runahead.active

    def test_runahead_prefetches_help(self):
        """The whole point: runahead should beat the base on a stream of
        blocking misses."""
        ops = stream_with_misses()
        base = Processor(base_config(), make_trace(ops))
        warm_icache(base)
        base.run(until_committed=len(ops))
        ra = run_runahead(ops)
        assert ra.stats.cycles < base.stats.cycles

    def test_no_episodes_without_misses(self):
        ops = [ialu(i, dst=1 + (i % 8)) for i in range(500)]
        proc = run_runahead(ops)
        assert proc.runahead.episodes == 0

    def test_runahead_cache_forwards(self):
        engine_ops = stream_with_misses(n_lines=4)
        proc = run_runahead(engine_ops)
        e = proc.runahead
        e.cache_write(0x1000)
        assert e.cache_hit(0x1000)
        assert not e.cache_hit(0x2000)

    def test_runahead_cache_bounded(self):
        proc = run_runahead(stream_with_misses(n_lines=2))
        e = proc.runahead
        for i in range(e.cache_words + 10):
            e.cache_write(0x1000 + 8 * i)
        assert len(e._cache) <= e.cache_words

    def test_wrong_path_load_never_triggers(self):
        proc = run_runahead(stream_with_misses(n_lines=6))
        # property is enforced by consider_entry; here we check the
        # engine survived a full run and only triggered on trace loads
        assert proc.runahead.episodes <= 6

    def test_fill_budget_bounds_episode(self):
        proc = run_runahead(stream_with_misses())
        assert proc.runahead._episode_fills <= \
            proc.runahead.EPISODE_FILL_BUDGET

    def test_stores_not_architecturally_visible_in_runahead(self):
        """A store pseudo-retired during runahead must not reach the
        data cache (it writes the runahead cache instead)."""
        ops = [load(0, dst=1, addr=DATA_BASE + 0x90000)]
        ops += [ialu(1 + i, dst=2 + (i % 4), srcs=(1,)) for i in range(6)]
        ops += [store(7, addr=DATA_BASE + 0x123450, srcs=(2,))]
        ops += [ialu(8 + i, dst=2 + (i % 4)) for i in range(40)]
        proc = Processor(runahead_config(), make_trace(ops))
        warm_icache(proc)
        proc.run(until_committed=len(ops))
        # the store was eventually re-executed and committed normally
        assert proc.stats.committed_stores == 1


class TestForwardProgress:
    """The last episode's trigger, re-executed after the checkpoint
    restore, never starts another episode."""

    def test_refetched_trigger_does_not_reenter(self):
        proc = run_runahead(stream_with_misses(n_lines=6))
        engine = proc.runahead
        assert engine.episodes >= 1
        # a fresh in-flight instance of the last trigger (new seq, same
        # trace index), issued and missing, as after a refetch
        op = InFlightOp(10**6, load(0, dst=1, addr=DATA_BASE),
                        engine._checkpoint_idx, False)
        op.issued = True
        op.l2_miss = True
        op.complete_cycle = proc.cycle + 10_000
        assert not engine.consider_entry(op, proc.cycle)
        assert not engine.active

    def test_evicting_episodes_cannot_livelock(self):
        """Regression: on this trace each episode's fills evicted the
        trigger's line, so the re-executed trigger missed again and
        re-entered runahead on every refetch (171 episodes on one
        load, then DeadlockError after ~56 s)."""
        trace = trace_for_program("libquantum", n_ops=3_000, seed=107)
        result = simulate(runahead_config(), trace, warmup=500,
                          measure=1_500)
        assert result.instructions >= 1_500
