"""The benchmark's workloads: which programs, configurations and scale.

A workload is a program mix.  Every run drives the mix through all
three ways a user reaches the simulator -- direct ``simulate()`` calls,
a planned campaign and the job service -- because every end-to-end
metric is reported on every workload.  The two mixes sit on opposite
sides of the paper's split: memory-intensive programs, where L2-miss
clustering makes the resizing policy climb to level 3 and the engines
jump idle cycles, and compute-intensive ones, where the policy stays at
level 1 and the issue loop and branch frontend dominate.  A change to
the memory path or the policy should move the first and leave the
second unchanged.
"""

from __future__ import annotations

import dataclasses
import random

from repro.config import base_config, dynamic_config

#: sample sizes of the simulate() jobs and service requests; the trace
#: has the same 1000-op margin campaigns and the service add.  Small, so
#: that a run repeats every job often enough for a steady median.
WARMUP = 500
MEASURE = 2_000
TRACE_OPS = WARMUP + MEASURE + 1_000

#: configuration name -> (factory, service job fields)
CONFIGS = {
    "base": (base_config, {"model": "base"}),
    "dyn3": (lambda: dynamic_config(3), {"model": "dynamic", "level": 3}),
}

#: experiments the campaign phase plans and renders, and their sample
#: sizes: small, so that a run holds several cold passes
CAMPAIGN_EXPERIMENTS = ("fig07", "fig08", "fig12")
CAMPAIGN_WARMUP = 500
CAMPAIGN_MEASURE = 750

#: closed-loop clients, campaign workers: both at most nproc on the
#: two-core host the bounds were set on
CLIENTS = 2
CAMPAIGN_WORKERS = 2
SERVICE_WORKERS = 1

#: requests per service session; p99 of 1200 leaves 12 beyond it
SERVICE_REQUESTS = 1200


@dataclasses.dataclass(frozen=True)
class Mix:
    name: str
    programs: tuple[str, ...]
    #: paper's DYN-over-base GM IPC speedup for this class (EXPERIMENTS.md)
    paper_speedup_gm: float
    #: programs whose base and DYN-3 shapes the service is asked for
    service_programs: tuple[str, str]


MIXES = {
    "sim-memory": Mix(
        "sim-memory",
        ("mcf", "milc", "leslie3d", "libquantum", "soplex", "omnetpp",
         "riscv:listchase"),
        paper_speedup_gm=1.48,
        service_programs=("milc", "libquantum")),
    "sim-compute": Mix(
        "sim-compute",
        ("gcc", "namd", "povray", "gobmk", "riscv:matmul"),
        paper_speedup_gm=1.04,
        service_programs=("gcc", "povray")),
}


@dataclasses.dataclass(frozen=True)
class Job:
    program: str
    config: str
    seed: int

    @property
    def id(self) -> str:
        return f"{self.program}/{self.config}"

    def make_config(self):
        return CONFIGS[self.config][0]()

    def service_payload(self) -> dict:
        payload = {"program": self.program, "seed": self.seed,
                   "warmup": WARMUP, "measure": MEASURE}
        payload.update(CONFIGS[self.config][1])
        return payload


def sim_jobs(mix: Mix, seed: int) -> list[Job]:
    """Every (program, configuration) of the mix on the workload seed."""
    return [Job(p, c, seed) for p in mix.programs for c in CONFIGS]


def service_requests(mix: Mix, seed: int) -> list[Job]:
    """The seeded, duplicate-heavy request list of one service session.

    Each request is one of four distinct shapes (two programs under
    base and DYN-3), drawn uniformly as ``repro.service.loadgen`` draws
    them; the seed picks the order and the trace seed.  At most the
    first request of a shape and a request coalesced onto it wait for a
    simulation, so p99 is the tail of cached serving.
    """
    shapes = [Job(p, c, seed) for p in mix.service_programs for c in CONFIGS]
    rng = random.Random(seed)
    return [rng.choice(shapes) for _ in range(SERVICE_REQUESTS)]
