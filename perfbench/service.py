"""The job service under a closed loop of clients.

``python -m repro.service serve`` runs as a subprocess with one worker
and its own empty store.  Each client sends its next request only when
the previous one has its result, as the service's callers (sweep
scripts, ``loadgen --retry``) do.  A request is timed from submission
until the client holds the result: completion is read from the job's
``/events`` stream (a cached job is already done at submission), then
the record with the result is fetched.
"""

from __future__ import annotations

import dataclasses
import math
import os
import re
import signal
import subprocess
import sys
import threading
from statistics import median
from time import perf_counter, sleep

from repro.service.client import QueueFull, ServiceClient
from repro.service.jobs import TERMINAL_STATES

from harness import check_expected, expected_key, settled_heap
from mixes import CLIENTS, MEASURE, SERVICE_WORKERS, WARMUP, Job

READY_TIMEOUT_S = 60.0
STOP_TIMEOUT_S = 30.0
_BANNER = re.compile(r"serving on http://[^:]+:(\d+)")


class Server:
    """One ``serve`` subprocess; its output goes to a log file."""

    def __init__(self, src_dir: str, cache_dir: str, log_path: str) -> None:
        self.src_dir = src_dir
        self.cache_dir = cache_dir
        self.log_path = log_path
        self.proc: subprocess.Popen | None = None
        self.port = 0

    def start(self) -> float:
        """Launch and wait until ``/healthz`` answers; returns the
        host seconds that took (interpreter start, package imports,
        store and worker-pool creation, socket bind)."""
        env = dict(os.environ)
        env["PYTHONPATH"] = self.src_dir
        started = perf_counter()
        with open(self.log_path, "wb") as log:
            self.proc = subprocess.Popen(
                [sys.executable, "-m", "repro.service", "serve",
                 "--host", "127.0.0.1", "--port", "0",
                 "--workers", str(SERVICE_WORKERS),
                 "--cache-dir", self.cache_dir],
                stdout=log, stderr=subprocess.STDOUT, env=env)
        deadline = started + READY_TIMEOUT_S
        while not self.port:
            if self.proc.poll() is not None:
                raise RuntimeError(f"server exited during start-up; "
                                   f"see {self.log_path}")
            if perf_counter() > deadline:
                raise RuntimeError("server did not print its port in "
                                   f"{READY_TIMEOUT_S:.0f}s")
            with open(self.log_path, encoding="utf-8",
                      errors="replace") as fh:
                found = _BANNER.search(fh.read())
            if found:
                self.port = int(found.group(1))
            else:
                sleep(0.002)
        self.client().wait_ready(timeout=READY_TIMEOUT_S, poll=0.002)
        return perf_counter() - started

    def client(self) -> ServiceClient:
        return ServiceClient(port=self.port, timeout=60.0)

    def stop(self) -> None:
        """SIGTERM (graceful drain), then wait; kill if it hangs."""
        if self.proc is None or self.proc.poll() is not None:
            return
        self.proc.send_signal(signal.SIGTERM)
        try:
            self.proc.wait(timeout=STOP_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()


@dataclasses.dataclass
class Outcome:
    job: Job
    latency_s: float
    submit_s: float
    state: str
    cached: bool = False
    coalesced: bool = False
    result: dict | None = None
    error: str = ""


def _one_request(client: ServiceClient, job: Job, tracer,
                 index: int) -> Outcome:
    started = perf_counter()
    with tracer.span("service.request", job=f"request-{index}"):
        with tracer.span("service.submit"):
            record = client.submit(job.service_payload())[0]
        submit_s = perf_counter() - started
        if record["state"] not in TERMINAL_STATES:
            with tracer.span("service.events"):
                for _ in client.events(record["id"]):
                    pass
        with tracer.span("service.fetch"):
            final = client.job(record["id"])
    return Outcome(job, perf_counter() - started, submit_s, final["state"],
                   bool(final.get("cached")), bool(final.get("coalesced")),
                   final.get("result"), final.get("error", ""))


def closed_loop(server: Server, requests: list[Job], tracer,
                first: int = 0) -> tuple[list[Outcome], float]:
    """Run ``requests`` through :data:`CLIENTS` closed-loop clients;
    returns every outcome (in request order) and the loop's wall time.
    Requests are numbered in spans from ``first``."""
    outcomes: list[Outcome | None] = [None] * len(requests)
    queue = iter(enumerate(requests))
    lock = threading.Lock()

    def _client_loop() -> None:
        client = server.client()
        while True:
            with lock:
                item = next(queue, None)
            if item is None:
                return
            index, job = item
            started = perf_counter()
            try:
                outcomes[index] = _one_request(client, job, tracer,
                                               first + index)
            except Exception as exc:     # fails this request, not the run
                state = "rejected" if isinstance(exc, QueueFull) else "error"
                outcomes[index] = Outcome(job, perf_counter() - started,
                                          float("nan"), state,
                                          error=repr(exc))

    threads = [threading.Thread(target=_client_loop, daemon=True)
               for _ in range(CLIENTS)]
    with settled_heap():
        started = perf_counter()
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        wall = perf_counter() - started
    return outcomes, wall


def simulated(outcomes: list[Outcome]) -> list[Outcome]:
    """Requests that ran a simulation (neither cached nor coalesced)."""
    return [o for o in outcomes
            if o.state == "done" and not o.cached and not o.coalesced]


def check_outcomes(outcomes: list[Outcome], expected: dict,
                   reference: dict) -> list[str]:
    """Per-request failures: not done, or a result that is not the one
    the committed table and the direct reference run agree on."""
    failures = []
    for index, o in enumerate(outcomes):
        if o.state != "done" or o.result is None:
            failures.append(f"request {index} {o.job.id}: {o.state} "
                            f"{o.error}".rstrip())
            continue
        key = expected_key(o.job.program, o.job.config, o.job.seed,
                           WARMUP, MEASURE)
        problem = check_expected(expected, key, o.result["cycles"],
                                 o.result["instructions"])
        if problem:
            failures.append(f"request {index}: {problem}")
        elif o.result["digest"] != reference.get(o.job, o.result["digest"]):
            failures.append(f"request {index} {o.job.id}: digest differs "
                            f"from the direct simulate() result")
    return failures


def latencies(outcomes: list[Outcome]) -> list[float]:
    """Request latencies; a failed or refused request misses every
    latency limit."""
    return [o.latency_s if o.state == "done" else math.inf
            for o in outcomes]


def latency_split(outcomes: list[Outcome]) -> dict[str, float]:
    """Median latency per way a request was answered."""
    cached = [o.latency_s for o in outcomes if o.cached]
    ran = [o.latency_s for o in simulated(outcomes)]
    submits = [o.submit_s for o in outcomes if o.state == "done"]
    return {
        "service.submit_p50_s": median(submits),
        "service.cached_p50_s": median(cached),
        "service.simulated_p50_s": median(ran),
    }
