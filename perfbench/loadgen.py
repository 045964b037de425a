"""Open- and closed-loop load generation for the permission daemon.

One process, a few UNIX-socket connections (the benchmark uses two), and
the public :mod:`repro.service.protocol` codec.  Every request of a phase
is encoded before the clock starts.

:func:`run_phase` is the open loop: it sends each request when it is
due and reads whatever responses have arrived, never waiting for a
response before sending.  Independent users do not wait either, so a
stall in the daemon shows as queueing, not as a slower offered rate.
While requests remain the loop spins on a zero-timeout ``select``: it
sends within microseconds of each due time and stamps each response as it
lands, at the price of a CPU of its own (the benchmark pins it to one).
With sleeping ``select`` waits its own p99 lateness was 0.2-1.2 ms on a
2-core VM, against a ~200 us p50; spinning keeps it near 20-60 us.

:func:`run_closed` is the closed loop used to saturate the daemon: a
fixed number of requests stay outstanding.

Each request records when it was due, when it left and when its response
was read.
"""

from __future__ import annotations

import gc
import select
import socket
import time
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence

from repro.service.protocol import (
    E_RETRY_LATER,
    FrameDecoder,
    PROTOCOL_VERSION,
    encode_frame,
    encode_request_frame,
)

@dataclass
class Request:
    """One scheduled request: when, on which connection, what."""

    due_s: float
    conn: int
    body: Dict[str, Any]


@dataclass
class PhaseResult:
    """Everything one open-loop phase observed."""

    requests: List[Request]
    due_ns: List[int]
    sent_ns: List[int]
    done_ns: List[Optional[int]]
    responses: List[Optional[Dict[str, Any]]]
    refused: int = 0
    errors: int = 0
    unanswered: int = 0


class Connection:
    """A blocking-connect, non-blocking-run socket with its frame decoder."""

    def __init__(self, path: str, packed: bool) -> None:
        self.sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        self.sock.connect(path)
        self.decoder = FrameDecoder()
        self.packed = False
        self.next_id = 1
        if packed:
            reply = self.call({"op": "hello", "encodings": ["packed"]})
            if reply.get("result", {}).get("encoding") != "packed":
                raise RuntimeError(f"daemon refused the packed encoding: {reply}")
            self.packed = True

    def call(self, body: Dict[str, Any]) -> Dict[str, Any]:
        """One blocking request/response (set-up and final reads only)."""
        request = {"v": PROTOCOL_VERSION, "id": self.next_id, **body}
        self.next_id += 1
        self.sock.setblocking(True)
        self.sock.sendall(encode_request_frame(request, self.packed))
        while True:
            data = self.sock.recv(65536)
            if not data:
                raise ConnectionError("daemon closed the connection")
            frames = self.decoder.feed(data)
            if frames:
                if len(frames) != 1 or frames[0].get("id") != request["id"]:
                    raise RuntimeError(f"unexpected reply {frames!r}")
                return frames[0]

    def close(self) -> None:
        self.sock.close()


def _encode(conns: Sequence[Connection], schedule: Sequence[Request]):
    """Every request's frame, and per connection a map id -> schedule index."""
    frames: List[bytes] = []
    owner: List[Dict[int, int]] = [{} for _ in conns]
    for index, request in enumerate(schedule):
        conn = conns[request.conn]
        request_id = conn.next_id
        conn.next_id += 1
        owner[request.conn][request_id] = index
        envelope = {"v": PROTOCOL_VERSION, "id": request_id, **request.body}
        frames.append(
            encode_request_frame(envelope, True) if conn.packed else encode_frame(envelope)
        )
    return frames, owner


def _flush(outbuf: List[bytearray], socks: Sequence[socket.socket]) -> List[socket.socket]:
    """Write what each socket will take now; return those with bytes left."""
    writers = []
    for k, buf in enumerate(outbuf):
        if buf:
            try:
                written = socks[k].send(buf)
            except BlockingIOError:
                written = 0
            del buf[:written]
            if buf:
                writers.append(socks[k])
    return writers


def _collect(readable, conns: Sequence[Connection], by_sock, owner: List[Dict[int, int]],
             result: PhaseResult, clock) -> int:
    """Read every readable socket; stamp and file each response by id.
    Returns how many responses arrived."""
    received = 0
    for sock in readable:
        k = by_sock[sock]
        try:
            data = sock.recv(262144)
        except BlockingIOError:
            continue
        if not data:
            raise ConnectionError("daemon closed a benchmark connection")
        stamp = clock()
        for frame in conns[k].decoder.feed(data):
            index = owner[k].pop(frame.get("id"), None)
            if index is None:
                raise RuntimeError(f"response with unknown id: {frame!r}")
            result.responses[index] = frame
            received += 1
            if frame.get("ok"):
                result.done_ns[index] = stamp
            elif frame.get("error") == E_RETRY_LATER:
                result.refused += 1
            else:
                result.errors += 1
    return received


def run_phase(
    conns: Sequence[Connection], schedule: Sequence[Request], drain_timeout_s: float = 10.0
) -> PhaseResult:
    """Send *schedule* open loop over *conns*; collect every response."""
    count = len(schedule)
    frames, owner = _encode(conns, schedule)
    offsets = [int(request.due_s * 1e9) for request in schedule]
    sent_ns = [0] * count
    done_ns: List[Optional[int]] = [None] * count
    responses: List[Optional[Dict[str, Any]]] = [None] * count
    socks = [conn.sock for conn in conns]
    for sock in socks:
        sock.setblocking(False)
    by_sock = {sock: k for k, sock in enumerate(socks)}
    outbuf = [bytearray() for _ in conns]
    result = PhaseResult(list(schedule), [], sent_ns, done_ns, responses)
    received = 0
    # The generator's own collector would pause the send loop for tens of
    # milliseconds once a phase's records pile up; collect after instead.
    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        clock = time.perf_counter_ns
        start = clock() + 2_000_000
        due_ns = [start + offset for offset in offsets]
        i = 0
        deadline: Optional[int] = None
        while received < count:
            now = clock()
            while i < count and due_ns[i] <= now:
                outbuf[schedule[i].conn] += frames[i]
                sent_ns[i] = now
                i += 1
            writers = _flush(outbuf, socks)
            if i < count:
                timeout = 0.0
            else:
                if deadline is None:
                    deadline = clock() + int(drain_timeout_s * 1e9)
                timeout = max(0.0, (deadline - clock()) / 1e9)
                if timeout == 0.0:
                    break
            readable, _, _ = select.select(socks, writers, [], timeout)
            received += _collect(readable, conns, by_sock, owner, result, clock)
    finally:
        if gc_was_enabled:
            gc.enable()
    result.due_ns = due_ns
    result.unanswered = count - received
    for conn in conns:
        conn.sock.setblocking(True)
    return result


def run_closed(conns: Sequence[Connection], schedule: Sequence[Request], in_flight: int,
               seconds: float, drain_timeout_s: float = 10.0) -> PhaseResult:
    """Send *schedule* in order, keeping *in_flight* requests outstanding,
    until *seconds* have passed; then stop sending and collect the rest.

    A closed loop keeps the daemon busy without ever overrunning its
    per-connection budget, so what it completes per second is its
    capacity.  Due times in *schedule* are ignored; a request's "due"
    stamp is when it was sent.  Requests never sent keep ``None``.
    """
    count = len(schedule)
    frames, owner = _encode(conns, schedule)
    sent_ns = [0] * count
    done_ns: List[Optional[int]] = [None] * count
    responses: List[Optional[Dict[str, Any]]] = [None] * count
    result = PhaseResult(list(schedule), sent_ns, sent_ns, done_ns, responses)
    socks = [conn.sock for conn in conns]
    by_sock = {sock: k for k, sock in enumerate(socks)}
    outbuf = [bytearray() for _ in conns]
    clock = time.perf_counter_ns
    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        for sock in socks:
            sock.setblocking(False)
        start = clock()
        stop_sending = start + int(seconds * 1e9)
        deadline = stop_sending + int(drain_timeout_s * 1e9)
        i = received = 0
        while True:
            now = clock()
            while i < count and i - received < in_flight and now < stop_sending:
                outbuf[schedule[i].conn] += frames[i]
                sent_ns[i] = now
                i += 1
            if received == i and (now >= stop_sending or i == count):
                break
            if now >= deadline:
                break
            writers = _flush(outbuf, socks)
            readable, _, _ = select.select(socks, writers, [], 0.05)
            received += _collect(readable, conns, by_sock, owner, result, clock)
        result.unanswered = i - received
    finally:
        for sock in socks:
            sock.setblocking(True)
        if gc_was_enabled:
            gc.enable()
    return result
