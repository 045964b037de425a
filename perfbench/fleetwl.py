"""The ``fleet_usability`` workload: ``run_fleet("usability")`` on 2 workers.

The fleet is a batch job whose results stream into the parent as shards
finish, so besides users per second it reports when half and when 90 %
of the population's shard records had been folded into the aggregate.
Those two instants come from a timestamp taken each time the parent
offers a record to its ordered fold -- one clock read per shard.
"""

from __future__ import annotations

import hashlib
import os
import shutil
import time
from typing import Any, Dict, List, Tuple

import benchmath
from hostspeed import HostSpeed
import repro.fleet.engine as engine
from procstat import vm_hwm_mb
from repro.fleet import OrderedFold, run_fleet

STUDY = "usability"
POPULATION = 4_000
WORKERS = 2

#: Tiny jobs timed for set-up: pool start, shard build, teardown.
SETUP_POPULATION = 4
SETUP_REPEATS = 5


def timed_fold(progress: List[Tuple[int, int]]):
    """An :class:`OrderedFold` that appends (time, records folded) to
    *progress* after every offer."""

    class TimedFold(OrderedFold):
        def offer(self, shard_index, thunk) -> None:
            super().offer(shard_index, thunk)
            progress.append((time.perf_counter_ns(), self.folded))

    return TimedFold


def time_to_fraction_us(started_ns: int, progress: List[Tuple[int, int]], total: int,
                        fraction: float) -> float:
    """Microseconds from *started_ns* until *fraction* of *total* records
    had been folded."""
    need = fraction * total
    for stamp, folded in progress:
        if folded >= need:
            return (stamp - started_ns) / 1000.0
    raise RuntimeError(f"fold never reached {fraction:.0%} of {total} records")


def job(seed: int, population: int, workers: int, spool: str):
    shutil.rmtree(spool, ignore_errors=True)
    try:
        return run_fleet(STUDY, population, seed=seed, workers=workers, spool_dir=spool)
    finally:
        shutil.rmtree(spool, ignore_errors=True)


def fleet_workload(run_dir: str, seed: int, seconds: float, host: HostSpeed,
                   log) -> Dict[str, Any]:
    spool = os.path.join(run_dir, "spool")
    setups = []
    for _ in range(SETUP_REPEATS):
        host.sample()
        started = time.perf_counter()
        job(seed, SETUP_POPULATION, WORKERS, spool)
        setups.append(time.perf_counter() - started)

    rates, half_us, tail_us, digests, reports = [], [], [], set(), []
    original = engine.OrderedFold
    try:
        deadline = time.perf_counter() + seconds
        while not rates or time.perf_counter() < deadline:
            host.sample()
            progress: List[Tuple[int, int]] = []
            engine.OrderedFold = timed_fold(progress)
            started = time.perf_counter_ns()
            report = job(seed, POPULATION, WORKERS, spool)
            wall = (time.perf_counter_ns() - started) / 1e9
            rates.append(POPULATION / wall)
            half_us.append(time_to_fraction_us(started, progress, report.total_shards, 0.5))
            tail_us.append(time_to_fraction_us(started, progress, report.total_shards, 0.9))
            digests.add(hashlib.sha256(report.aggregate_json().encode()).hexdigest())
            reports.append(report)
            log(f"  job {len(rates)}: {POPULATION} users in {wall:.2f} s  "
                f"({rates[-1]:.0f} users/s)  50% folded at {half_us[-1] / 1e6:.2f} s")
    finally:
        engine.OrderedFold = original
    rss = vm_hwm_mb()

    problems = []
    reference = job(seed, POPULATION, 1, spool)
    expected = hashlib.sha256(reference.aggregate_json().encode()).hexdigest()
    if digests != {expected}:
        problems.append(f"aggregate digests {sorted(digests)} != workers=1 {expected}")
    for report in reports:
        if report.quarantined or report.retries:
            problems.append(f"{len(report.quarantined)} shards quarantined, "
                            f"{report.retries} retries")
    last = reports[-1]
    return {
        "metrics": {
            "setup_s": benchmath.median(setups),
            "rate_per_s": benchmath.median(rates),
            "peak_rss_mb": rss,
        },
        "info": {"p50_us": (benchmath.median(half_us), "us"),
                 "p90_us": (benchmath.median(tail_us), "us"),
                 "jobs": (len(rates), "count"), "fleet.leases": (last.leases, "count"),
                 "fleet.steals": (last.steals, "count"),
                 "fleet.peak_buffered_records": (last.peak_buffered_records, "count")},
        "attempted": POPULATION * len(rates),
        "failed": sum(len(r.quarantined) for r in reports),
        "problems": problems,
    }
