"""The one cycle loop (:meth:`Processor.run`) and its engine names.

``simulate(engine=)`` and :func:`get_engine` accept ``reference`` and
``fast``, and both run the same stepper.  These tests pin that, the
neutrality of observers (attaching one changes neither the number of
loop iterations nor the result), segmented-run equivalence and the
elapsed-based livelock bound of :meth:`Processor.run`.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.config import base_config, dynamic_config
from repro.debug.errors import DeadlockError
from repro.pipeline import (
    ENGINE_NAMES,
    PipelineTracer,
    Processor,
    get_engine,
    simulate,
)
from repro.telemetry import TelemetryProbe
from repro.telemetry.profiler import StageProfiler
from repro.verify.digest import result_digest
from repro.workloads import generate_trace, profile


def _trace(program="leslie3d", n_ops=4_000, seed=1):
    return generate_trace(profile(program), n_ops=n_ops, seed=seed)


def _all_fields(result) -> dict:
    """Every ``SimulationResult`` field, with ``stats`` spelled out."""
    fields = {f.name: getattr(result, f.name)
              for f in dataclasses.fields(result)}
    stats = fields.pop("stats")
    for name, value in vars(stats).items():
        fields[f"stats.{name}"] = (value.as_dict() if name == "activity"
                                   else value)
    return fields


class TestEngineSelection:
    def test_registry(self):
        assert ENGINE_NAMES == ("reference", "fast")
        for name in ENGINE_NAMES:
            assert callable(get_engine(name).run)

    def test_unknown_engine_raises(self):
        with pytest.raises(ValueError, match="unknown engine"):
            get_engine("warp")
        with pytest.raises(ValueError, match="unknown engine"):
            simulate(base_config(), _trace(n_ops=2_500), warmup=500,
                     measure=1_500, engine="warp")

    @pytest.mark.parametrize("program", ["milc", "gcc"])
    def test_every_result_field_equal_across_engine_names(self, program):
        trace = _trace(program, n_ops=3_000)
        ref = simulate(dynamic_config(3), trace, warmup=500, measure=2_000,
                       engine="reference")
        fast = simulate(dynamic_config(3), trace, warmup=500, measure=2_000,
                        engine="fast")
        ref_fields, fast_fields = _all_fields(ref), _all_fields(fast)
        assert ref_fields.keys() == fast_fields.keys()
        for name in ref_fields:
            assert ref_fields[name] == fast_fields[name], name


def _attach(proc, observer: str) -> None:
    if observer == "telemetry":
        TelemetryProbe(period=64).attach(proc)
    elif observer == "tracer":
        PipelineTracer(proc, capacity=64)
    elif observer == "profiler":
        StageProfiler().attach(proc)


def _counted_run(program: str, observer: str | None):
    """Run with ``observer`` attached; returns (step_cycle calls, digest)."""
    proc = Processor(dynamic_config(3), _trace(program, n_ops=3_000),
                     sanitize=observer == "sanitizer")
    proc.prewarm()
    if observer is not None:
        _attach(proc, observer)
    steps = [0]
    inner = proc.step_cycle

    def counting_step() -> int:
        steps[0] += 1
        return inner()

    proc.step_cycle = counting_step
    proc.run(until_committed=2_000)
    return steps[0], result_digest(proc.result())


class TestObservers:
    """Observers hook the one stepper's methods; attaching one must not
    change how it steps or what it computes."""

    @pytest.mark.parametrize("program", ["milc", "gcc"])
    @pytest.mark.parametrize("observer",
                             ["telemetry", "sanitizer", "tracer", "profiler"])
    def test_observer_keeps_iterations_and_digest(self, observer, program):
        assert (_counted_run(program, observer)
                == _counted_run(program, None))

    def test_sanitized_simulate_still_digest_identical(self):
        trace = _trace(n_ops=2_500)
        plain = simulate(base_config(), trace, warmup=500, measure=1_500)
        checked = simulate(base_config(), trace, warmup=500, measure=1_500,
                           sanitize=True, engine="fast")
        assert result_digest(plain) == result_digest(checked)


class TestSegmentedRuns:
    def test_run_resumes_across_segments(self):
        """Chopping one run into arbitrary segments must land on the
        same state as one run (the warmup/measure split in simulate()
        relies on exactly this)."""
        trace = _trace("milc", n_ops=4_000)
        config = dynamic_config(3)

        whole = Processor(config, trace)
        whole.prewarm()
        whole.run(until_committed=3_000)

        chopped = Processor(config, trace)
        chopped.prewarm()
        for target in (700, 1_234, 2_999, 3_000):
            chopped.run(until_committed=target)
        assert chopped.cycle == whole.cycle
        assert chopped.committed_total == whole.committed_total
        assert (result_digest(chopped.result())
                == result_digest(whole.result()))


class TestLivelockBound:
    def test_bound_sized_from_remaining_commits(self):
        """The livelock allowance is elapsed-based: a run() resumed at
        a high commit count gets a budget for the commits *left*, not
        for the absolute target."""
        proc = Processor(base_config(), _trace(n_ops=3_000))
        proc.prewarm()
        proc.run(until_committed=1_000)
        entry_cycle = proc.cycle

        # livelock: cycles advance, nothing commits
        proc.step_cycle = lambda: 1
        with pytest.raises(DeadlockError, match="livelock"):
            proc.run(until_committed=1_100)
        # remaining=100 -> allowance (100 + 1000) * 600, not
        # (1100 + 1000) * 600
        assert proc.cycle - entry_cycle <= (100 + 1_000) * 600 + 1

    def test_explicit_max_cycles_still_respected(self):
        proc = Processor(base_config(), _trace(n_ops=3_000))
        proc.prewarm()
        proc.step_cycle = lambda: 1
        with pytest.raises(DeadlockError):
            proc.run(until_committed=10, max_cycles=50)
        assert proc.cycle <= 52
