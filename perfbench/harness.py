"""Measurement helpers shared by the benchmark's phases.

Everything here is program-independent: a percentile with a sample
floor, ratios that carry their base, in-memory span tracing with
self-time, the expected-result table check and the field-by-field
comparison of two simulation results.  ``test_harness.py`` tests each.
"""

from __future__ import annotations

import dataclasses
import gc
import heapq
import json
import math
import os
import threading
import time
from contextlib import contextmanager, nullcontext

#: the highest percentile reported must leave at least this many
#: samples beyond it, or it is a guess about the tail, not a measurement
MIN_BEYOND = 10


def percentile(values, q: float) -> float:
    """Nearest-rank ``q``-th percentile (0 < q < 100).

    Raises ``ValueError`` when fewer than :data:`MIN_BEYOND` samples lie
    beyond the chosen rank: with 1000 samples p99 has ten beyond it,
    with 999 it has nine and is refused.
    """
    if not 0 < q < 100:
        raise ValueError(f"percentile must be in (0, 100), got {q}")
    values = sorted(values)
    n = len(values)
    rank = max(1, math.ceil(q / 100.0 * n))
    beyond = n - rank
    if beyond < MIN_BEYOND:
        raise ValueError(f"p{q:g} of {n} samples has {beyond} beyond it; "
                         f"need {MIN_BEYOND}")
    return float(values[rank - 1])


def ratio(value: float, base: float, base_name: str) -> dict:
    """``value / base`` with the base kept beside it, so a printed
    ratio always says what it is a share of."""
    if base <= 0:
        raise ValueError(f"ratio base {base_name!r} must be > 0, got {base}")
    return {"value": value / base, "base": base_name, "base_value": base}


@contextmanager
def one_cpu():
    """Run the enclosed block, and every thread and process it starts,
    on one CPU of the allowed set; restore the set afterwards.

    On the two-vCPU VM the bounds were set on, waking a thread or
    process on the other vCPU costs an exit to the host whose delay
    depends on the host's load.  Left to the scheduler, the service's
    client threads and server hop between the vCPUs and the service
    rate of 20 s of sessions varied by 2x from one such span to the
    next; on one CPU, by 8%.  The single-threaded simulate() and warm
    campaign passes are pinned too, so that they are not migrated
    mid-operation and the host-speed kernel beside them runs on the CPU
    they ran on.
    """
    allowed = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {min(allowed)})
    try:
        yield
    finally:
        os.sched_setaffinity(0, allowed)


@contextmanager
def settled_heap():
    """Run the enclosed timed block on a collected heap whose survivors
    are frozen out of the collector.

    The benchmark process keeps every earlier result, so its heap grows
    over a run; without this a full collection inside a timed operation
    traverses all of it, and the operation's time depends on how far
    into the run it happens.  Garbage the operation makes itself is
    still collected, and timed, inside it.
    """
    gc.collect()
    gc.freeze()
    try:
        yield
    finally:
        gc.unfreeze()


# ----------------------------------------------------------------------
# tracing


@dataclasses.dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    job: str
    index: int

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Records nested spans in memory; :meth:`write` dumps them once.

    Spans are opened with :meth:`span` around a call into one layer.
    The innermost span open on the same thread is the parent of the
    next one, and every span of one job carries that job's id.
    """

    def __init__(self, clock=time.perf_counter) -> None:
        self.clock = clock
        self.spans: list[Span] = []
        self._lock = threading.Lock()
        self._local = threading.local()

    @contextmanager
    def span(self, name: str, job: str | None = None):
        stack = self._local.__dict__.setdefault("stack", [])
        parent = stack[-1] if stack else None
        if job is None:
            job = self.spans[parent].job if parent is not None else ""
        with self._lock:
            index = len(self.spans)
            record = Span(name, math.nan, math.nan, parent, job, index)
            self.spans.append(record)
        stack.append(index)
        record.start = self.clock()
        try:
            yield record
        finally:
            record.end = self.clock()
            stack.pop()

    def self_times_by_job(self) -> dict[str, dict[str, float]]:
        """``job -> span name -> total self time``.

        A span's self time is its duration minus the part covered by
        its children.  Children of one span never overlap (they are
        opened in sequence on one thread), so their durations add.
        """
        covered: dict[int, float] = {}
        for span in self.spans:
            if span.parent is not None:
                covered[span.parent] = (covered.get(span.parent, 0.0)
                                        + span.duration)
        out: dict[str, dict[str, float]] = {}
        for span in self.spans:
            names = out.setdefault(span.job, {})
            names[span.name] = (names.get(span.name, 0.0) + span.duration
                                - covered.get(span.index, 0.0))
        return out

    def self_times(self) -> dict[str, float]:
        """Total self time per span name over every job."""
        out: dict[str, float] = {}
        for names in self.self_times_by_job().values():
            for name, seconds in names.items():
                out[name] = out.get(name, 0.0) + seconds
        return out

    def write(self, path: str) -> None:
        os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump([dataclasses.asdict(s) for s in self.spans], fh)


class NullTracer:
    """Stands in for :class:`Tracer` on untraced runs: spans cost one
    call and record nothing."""

    def span(self, name: str, job: str | None = None):
        return nullcontext()


# ----------------------------------------------------------------------
# correctness


def expected_key(program: str, config: str, seed: int, warmup: int,
                 measure: int) -> str:
    return f"{program}|{config}|seed={seed}|{warmup}+{measure}"


def check_expected(table: dict, key: str, cycles: int,
                   committed_uops: int) -> str | None:
    """Compare one job against the committed table.

    Returns ``None`` when the job matches or the table has no entry for
    it (the caller then relies on engine and repeat equality), else a
    message naming both values.
    """
    want = table.get(key)
    if want is None:
        return None
    got = {"cycles": cycles, "committed_uops": committed_uops}
    if got != want:
        return f"{key}: expected {want}, got {got}"
    return None


def flatten_result(result) -> dict[str, object]:
    """Every field of a ``SimulationResult``, raw counters included, as
    a flat ``dotted.name -> value`` map."""
    flat: dict[str, object] = {}

    def _members(obj):
        if dataclasses.is_dataclass(obj):
            return [(f.name, getattr(obj, f.name))
                    for f in dataclasses.fields(obj)]
        if hasattr(obj, "as_dict"):          # __slots__ counter blocks
            return list(obj.as_dict().items())
        if hasattr(obj, "__dict__"):
            return [(k, v) for k, v in vars(obj).items()
                    if not k.startswith("_")]
        return None

    def _walk(prefix: str, obj) -> None:
        for name, value in _members(obj):
            path = f"{prefix}{name}"
            if _members(value) is not None:
                _walk(path + ".", value)
            else:
                flat[path] = value

    _walk("", result)
    return flat


def differing_fields(a, b) -> list[str]:
    """Names of the result fields whose values differ between runs."""
    fa, fb = flatten_result(a), flatten_result(b)
    return sorted(k for k in set(fa) | set(fb) if fa.get(k) != fb.get(k))


# ----------------------------------------------------------------------
# host speed

#: host seconds :func:`reference_kernel` takes on a quiet vCPU of the
#: machine the bounds were set on (a 2-vCPU Xeon VM); a normalised
#: figure reads as if measured at that speed
NOMINAL_KERNEL_S = 0.010


class _Entry:
    __slots__ = ("ready", "deps")

    def __init__(self, ready: int, deps: list) -> None:
        self.ready = ready
        self.deps = deps


def reference_kernel(rounds: int = 4000) -> float:
    """Host seconds for a fixed pure-Python loop shaped like the
    simulator's inner loop: small objects, attribute reads, a dict
    window and a heap of pending events.  It calls no simulator code,
    so no change to the program moves it; only the host's speed does.
    """
    started = time.perf_counter()
    window: dict[int, _Entry] = {}
    events: list[tuple[int, int]] = []
    for seq in range(rounds):
        deps = [window[d] for d in (seq - 3, seq - 7) if d in window]
        ready = max((e.ready for e in deps), default=seq) + seq % 5 + 1
        window[seq] = _Entry(ready, deps)
        heapq.heappush(events, (ready, seq))
        window.pop(seq - 64, None)
        while events and events[0][0] <= seq:
            heapq.heappop(events)
    return time.perf_counter() - started


class HostSpeed:
    """How slow the host ran beside one phase's timed operations.

    The machine the bounds were set on is a shared VM whose speed moves
    between regimes up to 2x apart, for seconds to minutes at a time,
    so a whole run can land in a slow one.  A phase therefore runs
    :func:`reference_kernel` between its timed operations, on the same
    CPUs, and each operation's time is divided by the mean slowdown of
    the samples just before and just after it (:meth:`since`).  Over
    six runs of one workload the raw simulate() throughput tracked the
    kernel with correlation -0.98 to -1.00.  Over ten runs of
    sim-memory the raw throughputs spread by 0.11-0.15 (quartile
    distance over median), normalised by 0.04-0.07.
    """

    def __init__(self) -> None:
        self.samples: list[float] = []

    def sample(self, times: int = 1, every_cpu: bool = False) -> None:
        """Run the kernel ``times`` times on the current CPUs, or
        ``times`` times on each allowed CPU in turn."""
        if not every_cpu:
            for _ in range(times):
                with settled_heap():
                    self.samples.append(reference_kernel())
            return
        allowed = os.sched_getaffinity(0)
        try:
            for cpu in sorted(allowed):
                os.sched_setaffinity(0, {cpu})
                self.sample(times)
        finally:
            os.sched_setaffinity(0, allowed)

    def since(self, mark: int) -> "HostSpeed":
        """The samples from index ``mark`` on: those taken just before
        and just after one operation."""
        local = HostSpeed()
        local.samples = self.samples[mark:]
        return local

    @property
    def slowdown(self) -> float:
        """Mean kernel time over :data:`NOMINAL_KERNEL_S`."""
        if not self.samples:
            raise ValueError("no host-speed samples taken")
        return sum(self.samples) / len(self.samples) / NOMINAL_KERNEL_S

    def seconds(self, measured: float) -> float:
        """A measured duration, as at nominal host speed."""
        return measured / self.slowdown

    def rate(self, measured: float) -> float:
        """A measured rate, as at nominal host speed."""
        return measured * self.slowdown
