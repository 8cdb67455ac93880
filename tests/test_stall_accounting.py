"""Stall-signal accounting regressions.

Two bugs motivated this file: ``full_events`` used to be bumped by the
*query* methods (so any extra observer — a policy, the sanitizer —
inflated the stall-rate signal resizing decisions are based on), and
timer-driven fast-forward jumps used to be charged to whatever stall
reason happened to precede them.  These tests pin the fixed contracts:
``full_events`` equals stalled-allocation cycles no matter who looks,
and policy-timer jumps land in their own CPI-stack bucket.
"""

import pytest

from repro.analysis.cpi import COMPONENTS
from repro.config import dynamic_config, fixed_config
from repro.core.policies import StaticPolicy
from repro.pipeline import Processor


# ----------------------------------------------------------------------
# full_events == stalled-allocation cycles


def test_full_events_equals_stalled_allocation_cycles(libquantum_trace):
    """Every stalled cycle charges each lacking resource exactly once."""
    proc = Processor(fixed_config(1), libquantum_trace)
    window = proc.window
    calls = {"n": 0}
    orig = window.note_alloc_stall

    def counting(need_rob, need_iq, need_lsq):
        calls["n"] += 1
        orig(need_rob, need_iq, need_lsq)

    window.note_alloc_stall = counting
    proc.run(until_committed=6_000)
    stalled = calls["n"]
    assert stalled > 0, "level-1 window never stalled dispatch?"
    per_resource = (window.rob.full_events, window.iq.full_events,
                    window.lsq.full_events)
    # each resource is charged at most once per stalled cycle...
    assert max(per_resource) <= stalled
    # ...and every stalled cycle charged at least one resource
    assert sum(per_resource) >= stalled
    # stalled-allocation cycles are a subset of dispatch-stall cycles
    assert stalled <= proc.stats.dispatch_stall_cycles


def test_observation_cannot_inflate_full_events(libquantum_trace):
    """Regression: fullness queries used to double as event counters, so
    an extra observer per cycle skewed the resize policies' stall signal.
    Hammering the queries must change nothing."""

    def run(observe: bool):
        proc = Processor(fixed_config(1), libquantum_trace)
        if observe:
            orig = proc.step_cycle

            def noisy_step():
                w = proc.window
                for __ in range(3):
                    w.has_room(4, 4, 4)
                    w.rob.is_full()
                    w.iq.is_full()
                    w.lsq.is_full()
                return orig()

            proc.step_cycle = noisy_step
        proc.run(until_committed=4_000)
        w = proc.window
        return (proc.cycle, w.rob.full_events, w.iq.full_events,
                w.lsq.full_events)

    assert run(observe=False) == run(observe=True)


# ----------------------------------------------------------------------
# policy-timer fast-forward attribution


class _TimerOnlyPolicy(StaticPolicy):
    """A static policy that additionally exposes a wake-up timer."""

    def __init__(self, fire_at):
        super().__init__(1)
        self.fire_at = fire_at

    def next_timer(self):
        return self.fire_at


def test_timer_only_wakeup_is_tagged(libquantum_trace):
    proc = Processor(fixed_config(1), libquantum_trace,
                     policy=_TimerOnlyPolicy(50))
    # fresh core: no events, no stalls — only the policy timer is ahead
    assert proc._next_interesting_cycle() == 50
    assert proc._ff_timer_jump is True
    proc.policy.fire_at = None
    assert proc._next_interesting_cycle() is None
    assert proc._ff_timer_jump is False


def test_timer_jump_charges_policy_timer_bucket(libquantum_trace):
    proc = Processor(fixed_config(1), libquantum_trace)
    width = proc.config.width
    proc._ff_timer_jump = True
    proc._last_stall_reason = "mem_dram"   # must NOT absorb the jump
    proc._advance_accounting(6)
    assert proc.stats.stall_slots.get("policy_timer") == 5 * width
    assert "mem_dram" not in proc.stats.stall_slots
    proc._ff_timer_jump = False
    proc._advance_accounting(3)
    assert proc.stats.stall_slots.get("mem_dram") == 2 * width


def test_dynamic_run_attributes_timer_waits(libquantum_trace):
    """The MLP-aware policy's scheduled wake-ups show up in their own
    bucket instead of polluting the memory-stall attribution."""
    proc = Processor(dynamic_config(3), libquantum_trace)
    proc.run(until_committed=8_000)
    assert proc.stats.stall_slots.get("policy_timer", 0) > 0


@pytest.mark.parametrize("level", [1, 3])
def test_jumps_attribute_like_per_cycle_stepping(libquantum_trace, level):
    """A jump charges its skipped slots to the commit-block reason
    classified at the jump; with a static policy (no timers) the CPI
    stack must equal stepping every cycle."""
    stacks = []
    for fast_forward in (True, False):
        proc = Processor(fixed_config(level), libquantum_trace)
        proc.fast_forward = fast_forward
        proc.run(until_committed=4_000)
        stacks.append(dict(proc.stats.stall_slots))
    assert stacks[0] == stacks[1]


def test_policy_timer_is_a_cpi_component():
    assert "policy_timer" in COMPONENTS
