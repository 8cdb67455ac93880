"""A planned fig07+fig08+fig12 campaign on the mix, cold then warm.

The cold pass starts on an empty store: planning, fan-out over worker
processes (per-worker trace memo, store writes) and rendering.  Each
warm pass opens a fresh ``ResultStore`` on the same directory, so it
simulates nothing and its time is store reads plus plan and render.
"""

from __future__ import annotations

import dataclasses
import importlib
import math
from statistics import median
from time import perf_counter

from repro.experiments import EXPERIMENTS
from repro.experiments.cache import ResultStore, set_active_store
from repro.experiments.parallel import execute_campaign, plan_campaign
from repro.experiments.runner import Settings, Sweep

from harness import settled_heap
from mixes import (CAMPAIGN_EXPERIMENTS, CAMPAIGN_MEASURE, CAMPAIGN_WARMUP,
                   CAMPAIGN_WORKERS, Mix)


@dataclasses.dataclass
class CampaignPass:
    warm: bool
    wall_s: float
    texts: list[str]
    planned: int
    executed: int
    simulated_inline: int
    utilisation: float
    keys: list[str]
    #: a warm pass's ``wall_s`` at nominal host speed
    #: (``harness.HostSpeed``); a cold pass is normalised run-wide
    nominal_s: float = math.nan


def settings_for(mix: Mix, seed: int) -> Settings:
    return Settings(only_programs=mix.programs, warmup=CAMPAIGN_WARMUP,
                    measure=CAMPAIGN_MEASURE, seed=seed)


def campaign_pass(settings: Settings, directory: str, tracer,
                  warm: bool) -> CampaignPass:
    """Plan, execute and render the campaign against ``directory``."""
    prefix = "experiments.warm_" if warm else "experiments."
    store = ResultStore(directory)
    set_active_store(store)
    try:
        with settled_heap():
            started = perf_counter()
            with tracer.span(prefix + "plan"):
                recorder = plan_campaign(CAMPAIGN_EXPERIMENTS, settings)
            with tracer.span(prefix + "execute"):
                report = execute_campaign(recorder, store,
                                          jobs=CAMPAIGN_WORKERS)
            with tracer.span(prefix + "render"):
                sweep = Sweep(settings, store=store)
                texts = [importlib.import_module(EXPERIMENTS[exp]).run(
                             sweep=sweep).as_text()
                         for exp in CAMPAIGN_EXPERIMENTS]
            wall = perf_counter() - started
    finally:
        set_active_store(None)
    return CampaignPass(warm, wall, texts, report.planned,
                        report.executed, sweep.sim_runs,
                        report.utilisation(), list(recorder.jobs))


def check_campaign_pass(first_cold: CampaignPass,
                        this: CampaignPass) -> list[str]:
    """A warm pass simulates nothing, and every pass renders the tables
    the run's first cold pass rendered."""
    if this is not first_cold and this.texts != first_cold.texts:
        return ["campaign rendered different tables than the first cold "
                "pass"]
    if this.warm and (this.executed or this.simulated_inline):
        return [f"warm campaign simulated {this.executed} jobs in the "
                f"fan-out and {this.simulated_inline} inline"]
    return []


def store_latencies(directory: str, keys: list[str],
                    scratch: str) -> dict[str, float]:
    """``get`` and ``put`` timed one call at a time on the campaign's
    keys, each from a fresh store so reads come from disk."""
    reader = ResultStore(directory)
    writer = ResultStore(scratch)
    gets, puts = [], []
    for key in keys:
        started = perf_counter()
        result = reader.get(key)
        gets.append(perf_counter() - started)
        started = perf_counter()
        writer.put(key, result)
        puts.append(perf_counter() - started)
    entries = reader.disk_entries()
    return {
        "experiments.store_get_p50_s": median(gets),
        "experiments.store_put_p50_s": median(puts),
        "experiments.store_entry_bytes": reader.disk_bytes() / max(1, entries),
    }
