"""The service workloads: a fresh ``python -m repro serve`` per phase.

Each phase (a low-rate, a high-rate or a saturation stretch) gets its
own daemon process, so no phase inherits another's decision history,
heap or allocator state.  Traffic is drawn from the workload seed and
sent by :mod:`loadgen` over two connections: open loop at the two fixed
rates, closed loop for saturation.
"""

from __future__ import annotations

import os
import random
import select
import signal
import subprocess
import sys
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

import benchmath
from hostspeed import HostSpeed
from loadgen import Connection, PhaseResult, Request, run_closed, run_phase
from procstat import vm_hwm_mb
from repro.service.core import PermissionService
from repro.service.protocol import E_RETRY_LATER
from repro.service.scenario import normalize, run_inprocess, scripted_requests

#: Requests kept outstanding per connection in a saturation phase: enough
#: that the daemon never idles, under its 256-request per-connection
#: budget so nothing is refused.
SATURATION_IN_FLIGHT = 64

#: Rounds of (low, high, saturation) phases in a run.  A saturation phase
#: is twice as long as the others: its throughput swings most with host
#: speed, and more windows of it steady the figure.
ROUNDS = 3

#: A phase whose generator sent its p99 request later than this is not
#: counted: the schedule, not the daemon, would decide its latencies.
LATE_BOUND_US = 1_000.0

#: Requests due in the first part of a phase warm the fresh daemon's
#: caches and are not counted in its percentiles.
WARMUP_S = 0.25

#: An open-loop phase whose backlog grew by more than this many seconds
#: worth of arrivals was offered more than the daemon could serve: its
#: latencies are queueing, and the log says so.
BACKLOG_LIMIT_S = 0.002

#: Tries a phase gets while the generator runs late.  When every try is
#: late the least late one is counted, and the run says so: on a host
#: busy enough to delay the generator by milliseconds more tries rarely
#: help, and a run that stops gives no figure at all.
PHASE_ATTEMPTS = 3

#: No phase is tried again once a run has taken this many times its
#: measured seconds, so a run on a busy host still ends well inside the
#: three minutes it may take.
RETRY_BUDGET = 5.0

#: Operations the hot tenants query (every one granted after an interact).
HOT_OPERATIONS = ("paste", "copy", "screen_capture", "microphone:/dev/mic0", "camera:/dev/cam0")

#: Per-workload open-loop rates.  They sit near 15 % and 35 % of the
#: sustainable rate measured on a quiet 2-core host (~16k/s hot, ~11k/s
#: churn).  On a busy host that rate drops by a third, and a high rate
#: nearer the knee would turn that into a doubling of its latency.
#: ``saturation`` is the rate a saturation phase's requests are drawn at:
#: a third more than the most a phase served on the reference host
#: (~45k/s hot, ~30k/s churn), so the closed loop does not run out.
PROFILES = {
    "svc_hot": {"low": 2_000.0, "high": 5_000.0, "saturation": 60_000.0},
    "svc_churn": {"low": 1_500.0, "high": 3_500.0, "saturation": 40_000.0},
}

#: svc_churn: concurrently live sessions, and the tenant-id space they
#: rotate through (larger, so tenants are constantly created and dropped).
CHURN_LIVE = 8
CHURN_TENANT_IDS = 64
CHURN_OPS = 40


def pin_cpus() -> Tuple[Optional[int], Optional[int]]:
    """CPUs for the load generator and the daemon: one each, when there
    are two.  Left to the scheduler, the two processes migrate and queue
    behind each other, which moved p50 by a fifth between runs."""
    cpus = sorted(os.sched_getaffinity(0))
    if len(cpus) < 2:
        return None, None
    return cpus[0], cpus[1]


class Daemon:
    """One daemon process, from spawn to a checked graceful drain."""

    def __init__(self, root: str, run_dir: str, name: str, cpu: Optional[int],
                 spans: Optional[str] = None) -> None:
        self.path = os.path.join(run_dir, f"{name}.sock")
        if spans is None:
            cmd = [sys.executable, "-m", "repro", "serve", "--unix", self.path]
        else:
            cmd = [sys.executable, os.path.join("perfbench", "traced_serve.py"),
                   "--spans", spans, "serve", "--unix", self.path]
        env = dict(os.environ)
        env["PYTHONPATH"] = os.path.join(root, "src")
        # One hash seed for every daemon, so each lays out its dicts and
        # sets alike and phases differ by load, not by layout.
        env["PYTHONHASHSEED"] = "0"
        self._stderr = open(os.path.join(run_dir, f"{name}.err"), "wb")
        started = time.perf_counter()
        self.proc = subprocess.Popen(
            cmd, cwd=root, env=env, stdout=subprocess.PIPE, stderr=self._stderr,
            preexec_fn=None if cpu is None else lambda: os.sched_setaffinity(0, {cpu}),
        )
        self.started = started
        line = self._read_line(30.0)
        if "overhaul service ready" not in line:
            self.proc.kill()
            self.proc.communicate()
            self._stderr.close()
            raise RuntimeError(f"daemon did not come up: {line!r}")

    def _read_line(self, timeout: float) -> str:
        ready, _, _ = select.select([self.proc.stdout], [], [], timeout)
        if not ready:
            return ""
        return self.proc.stdout.readline().decode("utf-8", "replace")

    def stop(self) -> None:
        """SIGTERM, then require a clean drain (rc 0 and the drained line)."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
        try:
            out, _ = self.proc.communicate(timeout=30)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.communicate()
            raise RuntimeError("daemon did not drain within 30 s")
        finally:
            self._stderr.close()
        if self.proc.returncode != 0 or b"overhaul service drained" not in out:
            raise RuntimeError(f"daemon exited rc {self.proc.returncode} without draining")


# -- traffic -----------------------------------------------------------------------


def _arrivals(rng: random.Random, rate: float, seconds: float) -> List[float]:
    """Poisson arrival times: independent users, an open loop."""
    times = []
    t = rng.expovariate(rate)
    while t < seconds:
        times.append(t)
        t += rng.expovariate(rate)
    return times


@dataclass
class HotTenant:
    name: str
    conn: int
    pids: List[int] = field(default_factory=list)


def hot_setup(conns: Sequence[Connection]) -> Tuple[List[HotTenant], List[Dict[str, Any]]]:
    """Create the two long-lived tenants; return them and the requests sent."""
    tenants = [HotTenant(f"h{k}", k) for k in range(2)]
    sent: List[Dict[str, Any]] = []
    for tenant in tenants:
        conn = conns[tenant.conn]
        for app in ("alpha", "beta"):
            body = {"op": "spawn", "tenant": tenant.name, "name": app}
            tenant.pids.append(_ok(conn.call(body))["pid"])
            sent.append(body)
        for pid in tenant.pids:
            body = {"op": "interact", "tenant": tenant.name, "pid": pid}
            _ok(conn.call(body))
            sent.append(body)
    return tenants, sent


def hot_schedule(rng: random.Random, tenants: Sequence[HotTenant], rate: float,
                 seconds: float) -> List[Request]:
    """Queries on granted pids, plus each tenant's once-a-second audit poll
    (one ``digest`` and one ``stats``)."""
    schedule = []
    for t in _arrivals(rng, rate, seconds):
        tenant = tenants[rng.randrange(len(tenants))]
        schedule.append(Request(t, tenant.conn, {
            "op": "query", "tenant": tenant.name, "pid": rng.choice(tenant.pids),
            "operation": rng.choice(HOT_OPERATIONS),
        }))
    for k, tenant in enumerate(tenants):
        poll = 0.5 + 0.25 * k
        while poll < seconds:
            schedule.append(Request(poll, tenant.conn, {"op": "digest", "tenant": tenant.name}))
            schedule.append(Request(poll + 0.001, tenant.conn, {"op": "stats", "tenant": tenant.name}))
            poll += 1.0
    schedule.sort(key=lambda request: request.due_s)
    return schedule


@dataclass
class Session:
    seed: int
    tenant_id: int
    script: List[Dict[str, Any]]
    #: Positions in the phase schedule of the requests sent so far.
    indices: List[int] = field(default_factory=list)


def churn_schedule(rng: random.Random, rate: float, seconds: float
                   ) -> Tuple[List[Request], List[Session]]:
    """Rotating scripted sessions over a tenant-id space larger than the
    live set.  A tenant id is always served by the same connection, so its
    requests keep their order."""
    idle = list(range(CHURN_TENANT_IDS))
    rng.shuffle(idle)
    sessions: List[Session] = []

    def open_session() -> Session:
        tenant_id = idle.pop(0)
        seed = rng.getrandbits(31)
        name = f"c{tenant_id}"
        script = [dict(body, tenant=name) for body in scripted_requests(seed, CHURN_OPS, 0)]
        session = Session(seed, tenant_id, script)
        sessions.append(session)
        return session

    live = [open_session() for _ in range(CHURN_LIVE)]
    schedule: List[Request] = []
    for t in _arrivals(rng, rate, seconds):
        slot = rng.randrange(len(live))
        session = live[slot]
        session.indices.append(len(schedule))
        body = session.script[len(session.indices) - 1]
        schedule.append(Request(t, session.tenant_id % 2, body))
        if len(session.indices) == len(session.script):
            idle.append(session.tenant_id)
            live[slot] = open_session()
    return schedule, [s for s in sessions if s.indices]


def _ok(response: Dict[str, Any]) -> Dict[str, Any]:
    if not response.get("ok"):
        raise RuntimeError(f"request failed: {response!r}")
    return response["result"]


# -- checks ------------------------------------------------------------------------


def check_hot(phase: PhaseResult, setup_requests: Sequence[Dict[str, Any]],
              tenants: Sequence[HotTenant], final_digests: Dict[str, str]) -> List[str]:
    """Every answered query ok and granted; the daemon's final digest per
    tenant equals an in-process replay of what it applied."""
    problems = []
    applied: Dict[str, List[Dict[str, Any]]] = {t.name: [] for t in tenants}
    for body in setup_requests:
        applied[body["tenant"]].append(body)
    for request, response in zip(phase.requests, phase.responses):
        if response is None or not response.get("ok"):
            continue  # refused or unanswered: counted elsewhere, not applied
        if request.body["op"] == "query":
            if not response["result"]["granted"]:
                problems.append(f"query denied: {request.body} -> {response}")
            applied[request.body["tenant"]].append(request.body)
    reference = PermissionService()
    for name, bodies in applied.items():
        for start in range(0, len(bodies), 512):
            chunk = [{"v": 1, "id": k, **b} for k, b in enumerate(bodies[start:start + 512])]
            for response in reference.apply_many(chunk):
                if not response.get("ok"):
                    problems.append(f"in-process replay failed: {response}")
        expected = reference.apply({"v": 1, "id": 0, "op": "digest", "tenant": name})
        if expected["result"]["digest"] != final_digests[name]:
            problems.append(f"tenant {name}: daemon digest differs from in-process replay")
    return problems


def check_churn(phase: PhaseResult, sessions: Sequence[Session]) -> List[str]:
    """Every session transcript byte-identical to ``scenario.run_inprocess``
    on the same script (a prefix of it, for sessions cut by the phase end)."""
    problems = []
    for session in sessions:
        got = [phase.responses[i] for i in session.indices]
        if any(r is None or r.get("error") == E_RETRY_LATER for r in got):
            continue  # a refused request never ran; the rest of the session diverges
        expected = normalize(run_inprocess(1, CHURN_OPS, session.seed)[0])[: len(got)]
        if normalize(got) != expected:
            problems.append(f"session c{session.tenant_id}/{session.seed}: transcript differs")
    return problems


# -- phases ------------------------------------------------------------------------


@dataclass
class PhaseOutcome:
    #: Offered requests per second; ``None`` for a closed-loop phase.
    rate: Optional[float]
    setup_s: float
    rss_mb: float
    #: (due seconds into the phase, latency us) of every counted request.
    latencies: List[Tuple[float, float]]
    late_p99_us: float
    refused: int
    errors: int
    attempted: int
    #: Successful responses over the counted part of the phase, and its length.
    served: int
    counted_s: float
    problems: List[str]
    service_counters: Dict[str, Any]
    #: Permission-monitor decision-cache (hits, misses), summed over tenants.
    monitor_cache: Tuple[int, int]
    #: Growth of the open-loop backlog over the counted part (0 when closed).
    backlog_growth: float
    #: A saturation phase sent every request it had: its figure is a floor.
    exhausted: bool

    @property
    def backlog_grew(self) -> bool:
        return self.rate is not None and self.backlog_growth > self.rate * BACKLOG_LIMIT_S

    @property
    def valid(self) -> bool:
        return self.late_p99_us <= LATE_BOUND_US

    @property
    def throughput(self) -> float:
        return self.served / self.counted_s


def run_svc_phase(workload: str, root: str, run_dir: str, name: str, seed: int,
                  rate: Optional[float], seconds: float, cpu: Optional[int] = None,
                  spans: Optional[str] = None, attempt: int = 0) -> PhaseOutcome:
    """Fresh daemon, warm-up, one phase, checks, checked drain.

    With a *rate* the phase is open loop at that rate; with ``None`` it
    is a closed-loop saturation phase.  The traffic is a function of
    *seed*, *workload* and *name*; every *attempt* sends the same.
    """
    rng = random.Random(f"{seed}:{workload}:{name}")
    packed = workload == "svc_hot"
    draw_rate = PROFILES[workload]["saturation"] if rate is None else rate
    if not packed:
        schedule, sessions = churn_schedule(rng, draw_rate, seconds)
    daemon = Daemon(root, run_dir, f"{name}-{attempt}", cpu, spans)
    conns: List[Connection] = []
    try:
        conns = [Connection(daemon.path, packed) for _ in range(2)]
        if packed:
            tenants, setup_requests = hot_setup(conns)
        else:
            for conn in conns:
                _ok(conn.call({"op": "ping"}))
        setup_s = time.perf_counter() - daemon.started
        if packed:
            # The pids are only known once the tenants exist.
            schedule = hot_schedule(rng, tenants, draw_rate, seconds)
        if rate is None:
            phase = run_closed(conns, schedule, SATURATION_IN_FLIGHT * len(conns), seconds)
        else:
            phase = run_phase(conns, schedule)
        if packed:
            digests = {t.name: _ok(conns[t.conn].call({"op": "digest", "tenant": t.name}))["digest"]
                       for t in tenants}
            finals = [_ok(conns[t.conn].call({"op": "stats", "tenant": t.name}))
                      for t in tenants]
        else:
            # A finished session's closing ``stats`` is its tenant's last word.
            closing = [phase.responses[s.indices[-1]] for s in sessions
                       if len(s.indices) == len(s.script)]
            finals = [r["result"] for r in closing if r is not None and r.get("ok")]
        counters = _ok(conns[0].call({"op": "stats"}))["counters"]
        rss = vm_hwm_mb(daemon.proc.pid)
    finally:
        for conn in conns:
            conn.close()
        daemon.stop()
    problems = check_hot(phase, setup_requests, tenants, digests) if packed else \
        check_churn(phase, sessions)
    if phase.errors or phase.unanswered:
        problems.append(f"{phase.errors} error responses, {phase.unanswered} unanswered")
    start = min(ns for ns in phase.due_ns if ns)
    counted = [i for i, ns in enumerate(phase.due_ns) if ns and ns - start >= WARMUP_S * 1e9]
    latencies = benchmath.latencies_from_due_us(
        [phase.due_ns[i] for i in counted], [phase.done_ns[i] for i in counted])
    sent = [i for i, ns in enumerate(phase.sent_ns) if ns]
    lateness = benchmath.lateness_us([phase.due_ns[i] for i in sent],
                                     [phase.sent_ns[i] for i in sent])
    window = (start + WARMUP_S * 1e9, start + seconds * 1e9)
    growth = 0.0 if rate is None else benchmath.backlog_growth(
        phase.due_ns, phase.done_ns, int(window[0]), int(window[1]))
    served = sum(1 for ns in phase.done_ns if ns and window[0] <= ns <= window[1])
    return PhaseOutcome(
        rate=rate, setup_s=setup_s, rss_mb=rss,
        latencies=[((phase.due_ns[i] - start) / 1e9, x) for i, x in zip(counted, latencies)],
        late_p99_us=benchmath.percentile(lateness, 99.0), refused=phase.refused,
        errors=phase.errors + phase.unanswered, attempted=len(sent),
        served=served, counted_s=(window[1] - window[0]) / 1e9, problems=problems,
        service_counters=counters,
        monitor_cache=(sum(f["cache_hits"] for f in finals),
                       sum(f["cache_misses"] for f in finals)),
        backlog_growth=growth,
        exhausted=rate is None and bool(phase.sent_ns[-1]),
    )


def unit_seconds(seconds: float) -> float:
    """Length of a low or high phase: a run is ``ROUNDS`` rounds of a low,
    a high and a double-length saturation phase."""
    return seconds / (4 * ROUNDS)


def pooled(phases: Sequence[PhaseOutcome], q: float) -> float:
    """Percentile *q* over the counted requests of several phases."""
    return benchmath.percentile([x for p in phases for _, x in p.latencies], q)


def tails(rate: str, phases: Sequence[PhaseOutcome]) -> Dict[str, Tuple[float, str]]:
    """Printed latencies at one rate, with their sample count: each of
    p50, p90, p99 and p99.9 that has at least ten samples past it.

    None is gated: on the reference 2-core VM one run in five or ten
    lands in a slow host state that multiplies the tail by four or five
    (the median by ~1.3), and no bound of a quarter holds on that.
    """
    count = sum(len(p.latencies) for p in phases)
    figures = {f"samples.{rate}": (count, "count")}
    top = benchmath.supported_tail(count)
    for q in benchmath.TAIL_CANDIDATES:
        if top is not None and q <= top:
            figures[f"p{q:g}_us.{rate}"] = (pooled(phases, q), "us")
    return figures


def svc_workload(workload: str, root: str, run_dir: str, seed: int, seconds: float,
                 host: HostSpeed, log) -> Dict[str, Any]:
    """The untraced run: rounds of (low rate, high rate, saturation).

    Host speed on a small VM drifts over seconds, so each figure pools
    phases spread through the whole run rather than one long phase that
    a slow stretch could cover.  *host* is sampled before every phase.
    """
    profile = PROFILES[workload]
    unit = unit_seconds(seconds)
    if unit < 2 * WARMUP_S:
        raise ValueError(f"--seconds {seconds:g} leaves {unit:.2f}-s phases; an svc run "
                         f"needs at least {2 * WARMUP_S * 4 * ROUNDS:g} s")
    generator_cpu, daemon_cpu = pin_cpus()
    if generator_cpu is not None:
        os.sched_setaffinity(0, {generator_cpu})

    late_counted: List[str] = []
    retry_until = time.perf_counter() + RETRY_BUDGET * seconds

    def phase(name: str, rate: Optional[float], seconds: float = unit) -> PhaseOutcome:
        # A phase the generator could not keep to schedule is not counted;
        # it is run again on a fresh daemon.
        tries = []
        for attempt in range(PHASE_ATTEMPTS):
            host.sample()
            outcome = run_svc_phase(workload, root, run_dir, name, seed, rate, seconds,
                                    daemon_cpu, attempt=attempt)
            log(f"  {name:>6} {'closed' if rate is None else f'{rate:.0f}/s':>8}  "
                f"served {outcome.throughput:7.0f}/s  p50 {pooled([outcome], 50):6.0f} us  "
                f"p90 {pooled([outcome], 90):6.0f} us  p99 {pooled([outcome], 99):6.0f} us  "
                f"late p99 {outcome.late_p99_us:4.0f} us  refused {outcome.refused}"
                f"{'  backlog grew' if outcome.backlog_grew else ''}"
                f"{'  schedule ran out' if outcome.exhausted else ''}"
                f"{'' if outcome.valid else '  (generator late: not counted)'}")
            tries.append(outcome)
            if outcome.valid or time.perf_counter() > retry_until:
                break
        if outcome.valid:
            return outcome
        least_late = min(tries, key=lambda o: o.late_p99_us)
        log(f"  INVALID {name}: generator late in all {len(tries)} tries; "
            f"counting the least late (p99 {least_late.late_p99_us:.0f} us)")
        late_counted.append(name)
        return least_late

    lows, highs, saturated = [], [], []
    for k in range(ROUNDS):
        lows.append(phase(f"low{k}", profile["low"]))
        highs.append(phase(f"high{k}", profile["high"]))
        saturated.append(phase(f"sat{k}", None, 2 * unit))
    phases = lows + highs + saturated
    return {
        "metrics": {
            "setup_s": benchmath.median([o.setup_s for o in phases]),
            # Completions over time across the phases: a rate pools as a
            # mean, which collector pauses landing in one phase move less
            # than they move a median of three.
            "rate_per_s": sum(o.served for o in saturated)
            / sum(o.counted_s for o in saturated),
            "peak_rss_mb": benchmath.median([o.rss_mb for o in highs]),
        },
        "info": {
            **tails("low", lows), **tails("high", highs),
            "gen.late_p99_us": (max(o.late_p99_us for o in lows + highs), "us"),
            "backlog.grew_phases": (sum(o.backlog_grew for o in lows + highs), "count"),
            "gen.late_phases_counted": (len(late_counted), "count"),
            "saturation.exhausted_phases": (sum(o.exhausted for o in saturated), "count"),
        },
        "attempted": sum(o.attempted for o in phases),
        "failed": sum(o.errors + o.refused for o in phases),
        "problems": [p for outcome in phases for p in outcome.problems],
    }
