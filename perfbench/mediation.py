"""The ``mediation`` workload: Table I rows in host time, in process.

Every row runs on a protected (``force_grant``) machine through the
public :mod:`repro.analysis.benchops` rigs.  One *round* performs
``OPS_PER_ROW`` operations of each of the six rows, in an order drawn
from the seed; the round is the workload's unit of work, and each row's
share of it is timed too, giving Table I's per-operation cost.
"""

from __future__ import annotations

import gc
import random
from array import array
import time
from typing import Any, Callable, Dict, List, Optional

import benchmath
from hostspeed import HostSpeed
from procstat import vm_hwm_mb
from repro.analysis.benchops import (
    ClipboardRig,
    ComposeRig,
    DeviceAccessRig,
    FilesystemRig,
    ScreenCaptureRig,
    SharedMemoryRig,
)
from repro.kernel.vfs import OpenMode

#: Operations per row per round.  Even, so the damaged-capture row
#: alternates its two payloads and every capture follows a real redraw;
#: and enough that each round spans several collector passes, so round
#: times do not split into rounds with and without one.
OPS_PER_ROW = 8

#: Rig sets built to time set-up; the last one is measured.  A set builds
#: in ~30 ms, so it takes many to make the median repeat.
SETUP_REPEATS = 15

#: Seconds between host-speed samples during the rounds.
HOST_SAMPLE_S = 0.5

#: Rounds after which the peak resident set is read.  Each monitor keeps
#: up to 100k decisions, so memory grows with the operations done; read
#: at a fixed count, the figure does not follow how fast the host ran.
RSS_ROUNDS = 4_000

CLIPBOARD_PAYLOAD = b"benchmark-clipboard-payload"


def build_rigs(seed: int) -> Dict[str, Any]:
    """One protected rig per Table I row (plus the damaged capture)."""
    return {
        "device": DeviceAccessRig(True),
        "clipboard": ClipboardRig(True),
        "capture": ScreenCaptureRig(True),
        "capture_damaged": ComposeRig(True, damaged=True),
        "shm": SharedMemoryRig(True, seed=seed),
        "file": FilesystemRig(True),
    }


def check_rigs(rigs: Dict[str, Any]) -> List[str]:
    """Each row's operation returns what it should."""
    problems = []
    device = rigs["device"]
    kernel = device.machine.kernel
    fd = kernel.sys_open(device.app.task, kernel.device_path("mic0"), OpenMode.READ)
    if fd < 0:
        problems.append(f"device open returned fd {fd}")
    else:
        kernel.sys_close(device.app.task, fd)
    pasted = rigs["clipboard"].target.paste_text()
    if pasted != CLIPBOARD_PAYLOAD:
        problems.append(f"paste returned {pasted!r}")
    for row in ("capture", "capture_damaged"):
        image = rigs[row].app.capture_screen()
        if not image:
            problems.append(f"{row}: empty capture")
    shm = rigs["shm"]
    written = shm.machine.kernel.shm.write(shm.writer.task, shm.area, 0, b"\x5a" * 64)
    if written != 64:
        problems.append(f"shm write stored {written} of 64 bytes")
    files = rigs["file"]
    kernel = files.machine.kernel
    fd = kernel.sys_creat(files.app.task, "/home/user/bench/check")
    if fd < 0:
        problems.append(f"creat returned fd {fd}")
    else:
        kernel.sys_close(files.app.task, fd)
        kernel.sys_stat(files.app.task, "/home/user/bench/check")
        kernel.sys_unlink(files.app.task, "/home/user/bench/check")
    return problems


def run_rounds(rigs: Dict[str, Any], seed: int, seconds: float,
               host: Optional[HostSpeed] = None) -> Dict[str, Any]:
    """Run rounds for *seconds*; return (finished at s, round us) pairs and
    per-row op times.  With *host*, the host's speed is sampled between
    rounds every ``HOST_SAMPLE_S``."""
    rng = random.Random(f"{seed}:mediation")
    rows = sorted(rigs)
    runs: List[Callable[[int], None]] = [rigs[row].run for row in rows]
    orders = []
    for _ in range(64):
        order = list(range(len(rows)))
        rng.shuffle(order)
        orders.append(order)
    round_end = array("q")
    round_ns = array("q")
    row_ns = [array("q") for _ in rows]
    clock = time.perf_counter_ns
    started = clock()
    deadline = started + int(seconds * 1e9)
    next_sample = started
    k = 0
    while True:
        if host is not None and clock() >= next_sample:
            host.sample()
            next_sample = clock() + int(HOST_SAMPLE_S * 1e9)
        order = orders[k & 63]
        k += 1
        first = clock()
        mark = first
        for row in order:
            runs[row](OPS_PER_ROW)
            now = clock()
            row_ns[row].append(now - mark)
            mark = now
        round_ns.append(mark - first)
        round_end.append(mark - started)
        if k == RSS_ROUNDS:
            peak_mb = vm_hwm_mb()
        if mark >= deadline:
            break
    if k < RSS_ROUNDS:
        peak_mb = vm_hwm_mb()
    return {
        "round_us": [(end / 1e9, ns / 1000.0) for end, ns in zip(round_end, round_ns)],
        "op_us": {
            row: benchmath.median(times) / 1000.0 / OPS_PER_ROW
            for row, times in zip(rows, row_ns)
        },
        "ops": len(round_ns) * len(rows) * OPS_PER_ROW,
        "busy_s": sum(round_ns) / 1e9,
        "peak_rss_mb": peak_mb,
    }


def typical_round_us(rounds) -> float:
    """Each second's mean round time, median over the run's seconds.

    On the reference 2-core VM the host flips between a fast and a slow
    state that differ by ~1.6x, several times a second, so round times
    split into two modes of similar weight.  A median of rounds jumps
    between the modes from run to run; a mean within each second does not.
    """
    seconds: Dict[int, List[float]] = {}
    for at, us in rounds:
        seconds.setdefault(int(at), []).append(us)
    return benchmath.median([sum(v) / len(v) for v in seconds.values()])


def round_tail(rounds, q: float) -> float:
    """Percentile *q* of round time per second of the run, median over seconds."""
    return benchmath.median(benchmath.window_percentiles(rounds, q, 1.0))


def mediation_workload(seed: int, seconds: float, host: HostSpeed, log) -> Dict[str, Any]:
    setups = []
    for repeat in range(SETUP_REPEATS):
        if repeat:
            # Free the previous set first, so peak memory is one set's.
            del rigs
            gc.collect()
        started = time.perf_counter()
        rigs = build_rigs(seed)
        setups.append(time.perf_counter() - started)
    problems = check_rigs(rigs)
    measured = run_rounds(rigs, seed, seconds, host)
    problems += check_rigs(rigs)
    rounds = measured["round_us"]
    for row, cost in sorted(measured["op_us"].items()):
        log(f"  op_us.{row:<16} {cost:9.2f} us")
    log(f"  rounds {len(rounds)}  typical {typical_round_us(rounds):.1f} us  "
        f"per-second p90 {round_tail(rounds, 90):.1f} us")
    return {
        "metrics": {
            "setup_s": benchmath.median(setups),
            "rate_per_s": measured["ops"] / measured["busy_s"],
            "peak_rss_mb": measured["peak_rss_mb"],
        },
        "info": {
            **{f"op_us.{row}": (cost, "us") for row, cost in measured["op_us"].items()},
            "p50_us": (typical_round_us(rounds), "us"),
            "p90_us": (round_tail(rounds, 90), "us"),
        },
        "attempted": measured["ops"],
        "failed": 0,
        "problems": problems,
    }
