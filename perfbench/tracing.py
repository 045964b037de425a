"""The traced run: spans around each layer's entry points, and the budget.

Nothing under ``src/`` knows about this.  :class:`Recorder` replaces a
layer's functions with wrappers that record a span -- name, start, end,
parent span, request id -- around the original call, keeps every span in
memory and writes them out once, at the end.  A layer's *self time* is
its spans' duration minus the part covered by their child spans
(:func:`benchmath.self_times_ns`).

The wrapped entry points, by layer:

=====================  ==================================================
``service.protocol``   ``decode_body``/``unpack_body``/``encode_response_frame``
                       under the names ``repro.service.daemon`` uses
``service.core``       ``PermissionService.apply_many``, ``TenantState``
                       creation and ``TenantState.digest``
``kernel.netlink``     ``NetlinkChannel.send_to_kernel``/``send_many_to_kernel``
``permission_monitor`` ``PermissionMonitor._decide_core`` (the fast path
                       every mediated operation takes; ``decide`` is the
                       reference twin and never runs there)
``sim``                ``Machine.run_for``
``kernel``             ``Kernel.sys_open``/``sys_creat``,
                       ``SharedMemorySubsystem.write``
``xserver``            ``XServer.compose_screen``/``convert_selection``
``fleet``              ``OrderedFold.offer``; the study's ``run_shard``
                       timed inline on a seeded sample of the job's specs
runtime                collector pauses, from ``gc.callbacks``
=====================  ==================================================

Wrappers are installed before the objects that use them are built, in
case a constructor caches a bound method.
"""

from __future__ import annotations

import functools
import gc
import json
import os
import random
import time
from array import array
from typing import Any, Callable, Dict, List, Optional

import benchmath

clock = time.perf_counter_ns


class Recorder:
    """In-memory spans plus collector pauses for one process.

    Spans are stored as columns of machine integers, so recording a
    million of them adds nothing for the collector to traverse -- a list
    per span made the traced run's own collections pause for 400 ms.
    """

    def __init__(self) -> None:
        self.names: List[str] = []
        self._name_ids: Dict[str, int] = {}
        self.name = array("i")
        self.start = array("q")
        self.end = array("q")
        #: Index of the enclosing span, or -1.
        self.parent = array("q")
        #: Request id or item count the wrapper extracted, or -1.
        self.tag = array("q")
        self._stack: List[int] = []
        #: (generation, pause_ns) per collection.
        self.gc_pauses: List[tuple] = []
        self._gc_start = 0
        self._undo: List[Callable[[], None]] = []

    # -- spans ---------------------------------------------------------------

    def wrap(self, owner: Any, attr: str, name: str,
             tag: Optional[Callable[..., Any]] = None) -> None:
        """Record a span named *name* around every call of ``owner.attr``;
        *tag* maps ``(args, result)`` to the integer stored with it."""
        original = getattr(owner, attr)
        name_id = self._name_ids.setdefault(name, len(self.names))
        if name_id == len(self.names):
            self.names.append(name)
        names, starts, ends, parents, tags = self.name, self.start, self.end, \
            self.parent, self.tag
        stack = self._stack

        @functools.wraps(original)
        def traced(*args, **kwargs):
            index = len(starts)
            names.append(name_id)
            parents.append(stack[-1] if stack else -1)
            ends.append(0)
            tags.append(-1)
            stack.append(index)
            starts.append(clock())
            try:
                result = original(*args, **kwargs)
            finally:
                ends[index] = clock()
                stack.pop()
            if tag is not None:
                value = tag(args, result)
                if isinstance(value, int):
                    tags[index] = value
            return result

        setattr(owner, attr, traced)
        self._undo.append(lambda: setattr(owner, attr, original))

    def clear(self) -> None:
        """Forget every span and pause recorded so far."""
        for column in (self.name, self.start, self.end, self.parent, self.tag):
            del column[:]
        self.gc_pauses.clear()

    def uninstall(self) -> None:
        """Put every wrapped function back and stop watching the collector."""
        while self._undo:
            self._undo.pop()()
        if self._on_gc in gc.callbacks:
            gc.callbacks.remove(self._on_gc)

    # -- collector -------------------------------------------------------------

    def hook_gc(self) -> None:
        gc.callbacks.append(self._on_gc)

    def _on_gc(self, phase: str, info: Dict[str, Any]) -> None:
        if phase == "start":
            self._gc_start = clock()
        else:
            self.gc_pauses.append((info.get("generation"), clock() - self._gc_start))

    # -- output ----------------------------------------------------------------

    def columns(self) -> Dict[str, Any]:
        return {
            "names": self.names, "name": self.name.tolist(), "start": self.start.tolist(),
            "end": self.end.tolist(), "parent": self.parent.tolist(),
            "tag": self.tag.tolist(), "gc": self.gc_pauses,
        }

    def dump(self, path: str) -> None:
        with open(path, "w") as out:
            json.dump(self.columns(), out)


def _response_id(args, result):
    return args[0].get("id") if args and isinstance(args[0], dict) else None


def _decoded_id(args, result):
    return result.get("id") if isinstance(result, dict) else None


def install_service_layers(recorder: Recorder) -> None:
    """Wrap the daemon's protocol and core entry points, plus the sim
    layers below them."""
    import repro.service.daemon as daemon
    from repro.service.core import PermissionService, TenantState

    recorder.wrap(daemon, "decode_body", "protocol.decode", _decoded_id)
    recorder.wrap(daemon, "unpack_body", "protocol.decode", _decoded_id)
    recorder.wrap(daemon, "encode_response_frame", "protocol.encode", _response_id)
    recorder.wrap(PermissionService, "apply_many", "core.apply_many",
                  lambda args, result: len(args[1]))
    recorder.wrap(TenantState, "__init__", "core.tenant_create")
    recorder.wrap(TenantState, "digest", "core.digest")
    install_sim_layers(recorder)


def install_sim_layers(recorder: Recorder) -> None:
    """Wrap the simulated machine's layers: netlink, monitor, kernel, X."""
    from repro.core.permission_monitor import PermissionMonitor
    from repro.core.system import Machine
    from repro.kernel.ipc.shared_memory import SharedMemorySubsystem
    from repro.kernel.kernel import Kernel
    from repro.kernel.netlink import NetlinkChannel
    from repro.xserver.server import XServer

    recorder.wrap(NetlinkChannel, "send_to_kernel", "netlink.send")
    recorder.wrap(NetlinkChannel, "send_many_to_kernel", "netlink.send_many",
                  lambda args, result: len(args[3]))
    recorder.wrap(PermissionMonitor, "_decide_core", "monitor.decide")
    recorder.wrap(Machine, "run_for", "sim.run_for")
    recorder.wrap(Kernel, "sys_open", "kernel.sys_open")
    recorder.wrap(Kernel, "sys_creat", "kernel.sys_creat")
    recorder.wrap(SharedMemorySubsystem, "write", "kernel.shm_write")
    recorder.wrap(XServer, "compose_screen", "xserver.compose")
    recorder.wrap(XServer, "convert_selection", "xserver.selection")


# -- turning spans into per-layer metrics --------------------------------------------


#: Every per-layer metric with its unit.  A layer the workload never
#: reaches reports 0 (its spans and counters are empty).
PER_LAYER_UNITS = {
    "protocol.decode_us": "us",
    "protocol.encode_us": "us",
    "daemon.batch_size_mean": "count",
    "daemon.queue_depth_high": "count",
    "daemon.retry_later": "count",
    "daemon.dispatch_busy_frac": "ratio",
    "core.apply_us_per_req": "us",
    "core.digest_ms.p50": "ms",
    "core.digest_ms.max": "ms",
    "core.tenant_create_ms": "ms",
    "netlink.send_many_us_per_query": "us",
    "netlink.send_us": "us",
    "monitor.decide_us": "us",
    "monitor.decides_per_op": "count",
    "monitor.cache_hit_ratio": "ratio",
    "sim.run_for_us": "us",
    "runtime.gc_pause_ms.max": "ms",
    "runtime.gc_pause_ms.total": "ms",
    "kernel.sys_open_us": "us",
    "kernel.vfs_creat_us": "us",
    "kernel.shm_write_us": "us",
    "kernel.shm_faults_per_write": "count",
    "xserver.compose_us": "us",
    "xserver.compose_cache_hit_ratio": "ratio",
    "xserver.selection_us": "us",
    "fleet.shard_exec_ms": "ms",
    "fleet.worker_busy_frac": "ratio",
    "fleet.fold_us_per_record": "us",
    "fleet.leases": "count",
    "fleet.steals": "count",
    "fleet.peak_buffered_records": "count",
    "svc.traced_p50_us": "us",
    "svc.attributed_us": "us",
    "svc.unattributed_us": "us",
    "gen.late_p99_us": "us",
    "trace.overhead_pct": "%",
}


class SpanStats:
    """Inclusive and self time per span name, over one trace."""

    def __init__(self, trace: Dict[str, Any]) -> None:
        own = benchmath.self_times_ns(trace["start"], trace["end"], trace["parent"])
        names = trace["names"]
        self.gc_pauses = trace["gc"]
        self.count: Dict[str, int] = {}
        self.inclusive_ns: Dict[str, int] = {}
        self.self_ns: Dict[str, int] = {}
        self.tag_sum: Dict[str, int] = {}
        self.durations: Dict[str, List[int]] = {}
        self.first_start = min(trace["start"], default=0)
        self.last_end = max(trace["end"], default=0)
        for name_id, start, end, tag, self_ns in zip(trace["name"], trace["start"],
                                                     trace["end"], trace["tag"], own):
            name = names[name_id]
            self.count[name] = self.count.get(name, 0) + 1
            self.inclusive_ns[name] = self.inclusive_ns.get(name, 0) + end - start
            self.self_ns[name] = self.self_ns.get(name, 0) + self_ns
            self.tag_sum[name] = self.tag_sum.get(name, 0) + max(tag, 0)
            self.durations.setdefault(name, []).append(end - start)

    def mean_us(self, name: str) -> float:
        """Mean inclusive microseconds per call (0 when never called)."""
        n = self.count.get(name, 0)
        return self.inclusive_ns.get(name, 0) / n / 1000.0 if n else 0.0

    def total_ns(self, name: str, self_time: bool = False) -> int:
        return (self.self_ns if self_time else self.inclusive_ns).get(name, 0)


def layer_metrics(stats: SpanStats) -> Dict[str, float]:
    """The per-layer metrics every workload derives the same way."""
    pauses = [ns / 1e6 for _, ns in stats.gc_pauses]
    digests = [ns / 1e6 for ns in stats.durations.get("core.digest", [])]
    queries = stats.tag_sum.get("netlink.send_many", 0)
    return {
        "protocol.decode_us": stats.mean_us("protocol.decode"),
        "protocol.encode_us": stats.mean_us("protocol.encode"),
        "core.digest_ms.p50": benchmath.median(digests) if digests else 0.0,
        "core.digest_ms.max": max(digests) if digests else 0.0,
        "core.tenant_create_ms": stats.mean_us("core.tenant_create") / 1000.0,
        "netlink.send_many_us_per_query":
            stats.total_ns("netlink.send_many") / queries / 1000.0 if queries else 0.0,
        "netlink.send_us": stats.mean_us("netlink.send"),
        "monitor.decide_us": stats.mean_us("monitor.decide"),
        "sim.run_for_us": stats.mean_us("sim.run_for"),
        "runtime.gc_pause_ms.max": max(pauses) if pauses else 0.0,
        "runtime.gc_pause_ms.total": sum(pauses),
        "kernel.sys_open_us": stats.mean_us("kernel.sys_open"),
        "kernel.vfs_creat_us": stats.mean_us("kernel.sys_creat"),
        "kernel.shm_write_us": stats.mean_us("kernel.shm_write"),
        "xserver.compose_us": stats.mean_us("xserver.compose"),
        "xserver.selection_us": stats.mean_us("xserver.selection"),
    }


def empty_metrics() -> Dict[str, float]:
    return {name: 0 for name in PER_LAYER_UNITS}


def ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


# -- per-workload traced runs --------------------------------------------------------


def traced_workload(workload: str, root: str, run_dir: str, seed: int, seconds: float,
                    log) -> Dict[str, Any]:
    log(f"perfbench {workload} (traced): seed {seed}, {seconds:g} s measured")
    if workload in ("svc_hot", "svc_churn"):
        result = traced_svc(workload, root, run_dir, seed, seconds, log)
    elif workload == "mediation":
        result = traced_mediation(seed, seconds, log)
    else:
        result = traced_fleet(run_dir, seed, seconds, log)
    result["units"] = PER_LAYER_UNITS
    return result


def traced_svc(workload: str, root: str, run_dir: str, seed: int, seconds: float,
               log) -> Dict[str, Any]:
    """The low rate on an untraced then a traced daemon, then the high rate
    traced; layer costs come from the traced daemon's spans."""
    import svc

    profile = svc.PROFILES[workload]
    generator_cpu, daemon_cpu = svc.pin_cpus()
    if generator_cpu is not None:
        os.sched_setaffinity(0, {generator_cpu})
    # The high phase is as long as the untraced run's, so history -- and
    # with it digest and collector pauses -- grows to the same size.  The
    # two low phases are longer, for samples, and send the same traffic,
    # so their difference is the tracing overhead.
    unit = svc.unit_seconds(seconds)
    plain = svc.run_svc_phase(workload, root, run_dir, "low", seed, profile["low"],
                              3 * unit, daemon_cpu)
    spans_low = os.path.join(run_dir, "spans-low.json")
    low = svc.run_svc_phase(workload, root, run_dir, "low", seed, profile["low"],
                            3 * unit, daemon_cpu, spans=spans_low, attempt=1)
    spans_high = os.path.join(run_dir, "spans-high.json")
    high = svc.run_svc_phase(workload, root, run_dir, "traced-high", seed, profile["high"],
                             unit, daemon_cpu, spans=spans_high)
    phases = [plain, low, high]
    for name, outcome in zip(("plain", "traced low", "traced high"), phases):
        log(f"  {name:>11} p50 {svc.pooled([outcome], 50):8.0f} us  "
            f"p99 {svc.pooled([outcome], 99):8.0f} us  late p99 {outcome.late_p99_us:6.0f} us")

    metrics = empty_metrics()
    with open(spans_low) as f:
        stats_low = SpanStats(json.load(f))
    with open(spans_high) as f:
        stats_high = SpanStats(json.load(f))
    metrics.update(layer_metrics(stats_high))

    # The budget: daemon-side time of a typical request at the low rate,
    # against that rate's traced end-to-end p50.  Digest, tenant creation
    # and clock advances are excluded from the typical request's core
    # time; they are reported as their own layers.
    requests = stats_low.tag_sum.get("core.apply_many", 0)
    rare = sum(stats_low.total_ns(n) for n in ("core.digest", "core.tenant_create",
                                                "sim.run_for"))
    core_us = ratio(stats_low.total_ns("core.apply_many") - rare, requests) / 1000.0
    attributed = stats_low.mean_us("protocol.decode") + stats_low.mean_us("protocol.encode") \
        + core_us
    traced_p50 = svc.pooled([low], 50)
    plain_p50 = svc.pooled([plain], 50)

    high_requests = stats_high.tag_sum.get("core.apply_many", 0)
    high_counters = high.service_counters
    busy_ns = stats_high.total_ns("core.apply_many") + stats_high.total_ns("protocol.encode")
    wall_ns = stats_high.last_end - stats_high.first_start
    hits, misses = high.monitor_cache
    metrics.update({
        "daemon.batch_size_mean": ratio(high_counters.get("service.batched_requests", 0),
                                        high_counters.get("service.batches", 0)),
        "daemon.queue_depth_high": high_counters.get("service.queue_depth_high", 0),
        "daemon.retry_later": sum(p.service_counters.get("service.retry_later", 0)
                                  for p in phases),
        "daemon.dispatch_busy_frac": ratio(busy_ns, wall_ns),
        "core.apply_us_per_req": ratio(stats_high.total_ns("core.apply_many", True),
                                       high_requests) / 1000.0,
        "monitor.decides_per_op": ratio(stats_high.count.get("monitor.decide", 0),
                                        high_requests),
        "monitor.cache_hit_ratio": ratio(hits, hits + misses),
        "svc.traced_p50_us": traced_p50,
        "svc.attributed_us": attributed,
        "svc.unattributed_us": traced_p50 - attributed,
        "gen.late_p99_us": max(p.late_p99_us for p in phases),
        "trace.overhead_pct": 100.0 * (traced_p50 - plain_p50) / plain_p50,
    })
    problems = [p for outcome in phases for p in outcome.problems]
    return {"metrics": metrics, "attempted": sum(p.attempted for p in phases),
            "failed": sum(p.errors + p.refused for p in phases), "problems": problems}


def traced_mediation(seed: int, seconds: float, log) -> Dict[str, Any]:
    """Untraced rounds, then traced rounds on a freshly built rig set."""
    import mediation

    # Short parts: spans pile up at ~250k a second here.
    part = min(seconds / 2.0, MEDIATION_TRACE_S)
    rigs = mediation.build_rigs(seed)
    plain = mediation.run_rounds(rigs, seed, part)
    del rigs
    recorder = Recorder()
    install_sim_layers(recorder)
    recorder.hook_gc()
    try:
        rigs = mediation.build_rigs(seed)
        problems = mediation.check_rigs(rigs)
        recorder.clear()
        compose = [rigs[r].machine.xserver for r in ("capture", "capture_damaged")]
        before = sum(x.compose_cache_hits for x in compose), \
            sum(x.compose_cache_misses for x in compose)
        faults_before = rigs["shm"].faults
        traced = mediation.run_rounds(rigs, seed, part)
        faults = rigs["shm"].faults - faults_before
        hits = sum(x.compose_cache_hits for x in compose) - before[0]
        misses = sum(x.compose_cache_misses for x in compose) - before[1]
        monitors = [rig.machine.overhaul.monitor for rig in rigs.values()]
        cache = (sum(m.cache_hits for m in monitors), sum(m.cache_misses for m in monitors))
    finally:
        recorder.uninstall()
    stats = SpanStats(recorder.columns())
    plain_p50 = mediation.typical_round_us(plain["round_us"])
    traced_p50 = mediation.typical_round_us(traced["round_us"])
    log(f"  typical round: plain {plain_p50:.1f} us, traced {traced_p50:.1f} us")
    metrics = empty_metrics()
    metrics.update(layer_metrics(stats))
    metrics.update({
        "monitor.decides_per_op": ratio(stats.count.get("monitor.decide", 0), traced["ops"]),
        "monitor.cache_hit_ratio": ratio(cache[0], cache[0] + cache[1]),
        "kernel.shm_faults_per_write": ratio(faults, stats.count.get("kernel.shm_write", 0)),
        "xserver.compose_cache_hit_ratio": ratio(hits, hits + misses),
        "trace.overhead_pct": 100.0 * (traced_p50 - plain_p50) / plain_p50,
    })
    return {"metrics": metrics, "attempted": plain["ops"] + traced["ops"], "failed": 0,
            "problems": problems}


#: Shards of the job timed inline for ``fleet.shard_exec_ms``.
SHARD_SAMPLE = 24

#: Seconds of untraced and then traced mediation rounds.
MEDIATION_TRACE_S = 3.0


def traced_fleet(run_dir: str, seed: int, seconds: float, log) -> Dict[str, Any]:
    """An untraced job, a job with the fold traced, then a seeded sample of
    the job's shards run inline with the machine layers traced."""
    import fleetwl
    from repro.fleet import OrderedFold, get_study

    spool = os.path.join(run_dir, "spool")
    started = time.perf_counter()
    fleetwl.job(seed, fleetwl.POPULATION, fleetwl.WORKERS, spool)
    plain_wall = time.perf_counter() - started

    fold = Recorder()
    fold.wrap(OrderedFold, "offer", "fleet.fold")
    try:
        started = time.perf_counter()
        report = fleetwl.job(seed, fleetwl.POPULATION, fleetwl.WORKERS, spool)
        traced_wall = time.perf_counter() - started
    finally:
        fold.uninstall()
    fold_stats = SpanStats(fold.columns())

    study = get_study(fleetwl.STUDY)
    specs = study.build_shards(fleetwl.POPULATION, seed, {})
    sample = random.Random(f"{seed}:fleet-sample").sample(specs, min(SHARD_SAMPLE, len(specs)))
    # Shard cost untraced first; then the same shards again under spans.
    exec_ms = []
    for spec in sample:
        began = clock()
        study.run_shard(spec)
        exec_ms.append((clock() - began) / 1e6)
    recorder = Recorder()
    install_sim_layers(recorder)
    recorder.hook_gc()
    try:
        for spec in sample:
            study.run_shard(spec)
    finally:
        recorder.uninstall()
    stats = SpanStats(recorder.columns())
    log(f"  job wall: plain {plain_wall:.2f} s, fold traced {traced_wall:.2f} s; "
        f"{len(sample)} shards inline, median {benchmath.median(exec_ms):.1f} ms")
    metrics = empty_metrics()
    metrics.update(layer_metrics(stats))
    mean_exec_s = sum(exec_ms) / len(exec_ms) / 1000.0
    metrics.update({
        "monitor.decides_per_op": ratio(stats.count.get("monitor.decide", 0), len(sample)),
        "fleet.shard_exec_ms": benchmath.median(exec_ms),
        "fleet.worker_busy_frac": ratio(report.total_shards * mean_exec_s,
                                        fleetwl.WORKERS * traced_wall),
        # An offer folds every record it unblocks, so divide by records.
        "fleet.fold_us_per_record": ratio(fold_stats.total_ns("fleet.fold"),
                                          report.total_shards) / 1000.0,
        "fleet.leases": report.leases,
        "fleet.steals": report.steals,
        "fleet.peak_buffered_records": report.peak_buffered_records,
        "trace.overhead_pct": 100.0 * (traced_wall - plain_wall) / plain_wall,
    })
    return {"metrics": metrics, "attempted": 2 * fleetwl.POPULATION + len(sample),
            "failed": len(report.quarantined), "problems": []}
