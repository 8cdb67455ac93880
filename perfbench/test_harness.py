"""Self-tests of the benchmark's helpers.

Run from the repository root::

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import copy
import json
import os
import sys
import threading

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

from harness import (MIN_BEYOND, NOMINAL_KERNEL_S, HostSpeed,  # noqa: E402
                     Tracer, check_expected, differing_fields,
                     expected_key, percentile, ratio)


def test_percentile_needs_ten_samples_beyond():
    values = list(range(1, 1001))            # 1..1000
    assert percentile(values, 99) == 990.0    # ten values beyond it
    with pytest.raises(ValueError):
        percentile(values[:-1], 99)           # 999 samples: nine beyond
    assert percentile(values[:20], 50) == 10.0
    with pytest.raises(ValueError):
        percentile(values[:2 * MIN_BEYOND - 1], 50)


def test_ratio_keeps_its_base():
    share = ratio(1.5, 6.0, "job wall time")
    assert share == {"value": 0.25, "base": "job wall time",
                     "base_value": 6.0}
    with pytest.raises(ValueError):
        ratio(1.0, 0.0, "empty")


class _Clock:
    def __init__(self, ticks):
        self.ticks = iter(ticks)

    def __call__(self):
        return next(self.ticks)


def test_span_self_time_subtracts_children():
    # job 0..10 holds a 1..3 and b 4..8; b holds c 5..6
    tracer = Tracer(clock=_Clock([0, 1, 3, 4, 5, 6, 8, 10]))
    with tracer.span("job", job="j1"):
        with tracer.span("a"):
            pass
        with tracer.span("b"):
            with tracer.span("c"):
                pass
    assert tracer.self_times_by_job() == {
        "j1": {"job": 4.0, "a": 2.0, "b": 3.0, "c": 1.0}}
    assert [s.parent for s in tracer.spans] == [None, 0, 0, 2]
    assert {s.job for s in tracer.spans} == {"j1"}


def test_spans_nest_per_thread():
    tracer = Tracer()
    barrier = threading.Barrier(2)

    def _worker(name):
        with tracer.span("request", job=name):
            barrier.wait(timeout=10)
            with tracer.span("submit"):
                barrier.wait(timeout=10)

    threads = [threading.Thread(target=_worker, args=(f"r{i}",))
               for i in range(2)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=10)
        assert not thread.is_alive()
    for span in tracer.spans:
        if span.name == "submit":
            parent = tracer.spans[span.parent]
            assert parent.name == "request" and parent.job == span.job


@pytest.fixture(scope="module")
def gcc_base():
    from mixes import Job
    from simphase import run_direct
    return run_direct(Job("gcc", "base", 1), "reference").result


def test_expected_table_trips_on_one_cycle(gcc_base):
    from mixes import MEASURE, WARMUP
    with open(os.path.join(HERE, "expected.json"), encoding="utf-8") as fh:
        table = json.load(fh)["jobs"]
    key = expected_key("gcc", "base", 1, WARMUP, MEASURE)
    uops = gcc_base.stats.committed_uops
    assert check_expected(table, key, gcc_base.cycles, uops) is None
    assert check_expected(table, key, gcc_base.cycles + 1, uops)
    assert check_expected(table, key, gcc_base.cycles, uops - 1)
    assert check_expected(table, "no-such-job", 1, 1) is None


def test_differing_fields_names_raw_counters(gcc_base):
    other = copy.deepcopy(gcc_base)
    assert differing_fields(gcc_base, other) == []
    other.stats.stall_slots["mem_dram"] = -1
    other.stats.activity.fetches += 1
    assert differing_fields(gcc_base, other) == [
        "stats.activity.fetches", "stats.stall_slots"]


def test_benchmark_json_matches_the_harness():
    from bench import END_TO_END
    from mixes import MIXES
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert tuple(m["name"] for m in spec["end_to_end"]) == END_TO_END
    assert tuple(w["name"] for w in spec["workloads"]) == tuple(MIXES)
    with open(os.path.join(HERE, "rationale.json"), encoding="utf-8") as fh:
        rationale = json.load(fh)
    layer = {m["name"] for m in spec["per_layer"]}
    for prediction in rationale["predictions"]:
        assert set(prediction["layer_metrics"]) <= layer
        assert set(prediction["moves"]) <= set(END_TO_END)
        assert set(prediction["workloads"]) <= set(MIXES)


def test_program_error_fails_one_operation():
    from types import SimpleNamespace
    from bench import Bench
    from repro.debug.errors import DeadlockError

    def _stuck():
        raise DeadlockError("deadlock at cycle 9\nstate dump")

    run = SimpleNamespace(attempted=0, failures=[])
    assert Bench.attempt(run, "ok", lambda x: x + 1, 1) == 2
    assert Bench.attempt(run, "job", _stuck) is None
    assert run.attempted == 2
    assert run.failures == ["job: DeadlockError: deadlock at cycle 9"]


def test_throughput_times_each_job_at_its_median():
    from types import SimpleNamespace
    from mixes import Job
    from simphase import JobRun, run_throughput

    result = SimpleNamespace(stats=SimpleNamespace(committed_uops=1500))
    a, b = Job("gcc", "base", 1), Job("gcc", "dyn3", 1)
    passes = [[JobRun(a, "fast", result, wa), JobRun(b, "fast", result, 2.0)]
              for wa in (1.0, 1.0, 9.0)]       # one slow moment on job a
    uops = passes[0][0].uops
    assert run_throughput(passes, "fast") == 2 * uops / 3.0
    assert run_throughput(passes, "reference") is None


def test_client_error_fails_one_request():
    from types import SimpleNamespace
    from harness import NullTracer
    from mixes import Job
    from service import check_outcomes, closed_loop

    class _Broken:
        def submit(self, payload):
            raise RuntimeError("unexpected reply")

    server = SimpleNamespace(client=_Broken)
    requests = [Job("gcc", "base", 1)] * 3
    outcomes, _ = closed_loop(server, requests, NullTracer())
    assert [o.state for o in outcomes] == ["error"] * 3
    assert len(check_outcomes(outcomes, {}, {})) == 3


def test_host_speed_divides_by_the_mean_slowdown():
    speed = HostSpeed()
    with pytest.raises(ValueError):
        speed.slowdown
    speed.samples = [1.5 * NOMINAL_KERNEL_S, 2.5 * NOMINAL_KERNEL_S]
    assert speed.slowdown == pytest.approx(2.0)
    assert speed.seconds(4.0) == pytest.approx(2.0)
    assert speed.rate(100.0) == pytest.approx(200.0)


def test_host_speed_samples_every_cpu_and_restores_affinity():
    allowed = os.sched_getaffinity(0)
    speed = HostSpeed()
    speed.sample(2, every_cpu=True)
    assert len(speed.samples) == 2 * len(allowed)
    assert all(seconds > 0 for seconds in speed.samples)
    assert os.sched_getaffinity(0) == allowed
