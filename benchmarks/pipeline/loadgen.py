"""Single-threaded loopback load generator for the pipeline benchmark.

Two loops drive the system under test over one connected UDP socket:

* :func:`closed_loop` keeps at most ``WINDOW`` datagrams outstanding
  against the progress counter the host publishes in shared memory, so a
  slower system receives less load and loopback never drops;
* :func:`open_loop` sends on a fixed 1 ms schedule whatever the system
  does, writes rule events to the host's control pipe at their due tick,
  and records how late the generator itself was for every tick.

Both return raw observations (window marks, a ``(t, processed,
incidents)`` timeline); turning them into metrics is :mod:`bench`'s job.
"""

from __future__ import annotations

import mmap
import os
import socket
import time
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

BURST = 32
TICK_S = 0.001
#: A closed loop whose window is full yields the CPU instead of spinning:
#: on a two-CPU host a spinning generator takes cycles from the system
#: under test, and the progress block only moves every ~0.5-1 ms anyway.
STALL_SLEEP_S = 0.0001
#: The open loop polls the progress block between ticks in short sleeps,
#: for the same reason; the last stretch before a tick is spun.
POLL_SLEEP_S = 0.0001

#: u64 slot indexes in the shared progress block (sut_host._refresher fills it).
RECEIVED, PROGRESS, INCIDENTS, PROCESSED = range(4)
SHM_SIZE = 4 * 8


class Progress:
    """Parent-side view of the host's shared progress block."""

    def __init__(self, path: str) -> None:
        self.path = path
        with open(path, "wb") as fh:
            fh.write(b"\0" * SHM_SIZE)
        self._fh = open(path, "r+b")
        self._mm = mmap.mmap(self._fh.fileno(), SHM_SIZE)
        self.view = memoryview(self._mm).cast("Q")

    def close(self) -> None:
        self.view.release()
        self._mm.close()
        self._fh.close()


#: ``setsockopt(IPPROTO_UDP, UDP_SEGMENT, size)``: the kernel cuts one send
#: into ``size``-byte datagrams (UDP generic segmentation offload, Linux
#: 4.18+).  Not exported by the ``socket`` module.
UDP_SEGMENT = 103


class Sender:
    """One connected UDP socket that sends pool rows a burst at a time.

    A Python ``send`` per 27-byte datagram tops out near 500k/s on the
    development box — under twice what the sharded daemon absorbs — and
    burns the CPU the system under test needs.  With UDP_SEGMENT one
    ``send`` of a contiguous slice of the pool becomes one datagram per
    row inside the kernel (about 3M/s).  Kernels without it fall back to a
    send per row.
    """

    def __init__(self, address: Sequence, rows: np.ndarray) -> None:
        if rows.dtype != np.uint8 or rows.ndim != 2 or not rows.flags.c_contiguous:
            raise ValueError("pool must be a C-contiguous (n, size) uint8 matrix")
        self.rows = rows
        self._size = rows.shape[1]
        self._buf = memoryview(rows).cast("B")
        self.sock = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
        self.sock.connect((address[0], address[1]))
        self.send = self.sock.send  # single datagrams (canaries, probes)
        try:
            self.sock.setsockopt(socket.IPPROTO_UDP, UDP_SEGMENT, self._size)
            self.segmented = True
        except OSError:
            self.segmented = False

    def burst(self, start: int, count: int) -> None:
        """Send ``rows[start:start + count]``, one datagram per row."""
        size = self._size
        if self.segmented:
            self.send(self._buf[start * size : (start + count) * size])
            return
        buf, send = self._buf, self.send
        for k in range(start * size, (start + count) * size, size):
            send(buf[k : k + size])

    def close(self) -> None:
        self.sock.close()


def socket_capacity(rcvbuf_request: Optional[int]) -> int:
    """How many 27-byte datagrams a UDP socket holds before it drops.

    Binds a socket with the same SO_RCVBUF request the system under test
    makes (``None`` = kernel default), overfills it, and counts what can
    be read back.  The closed loop sizes its window from this instead of
    assuming a per-datagram buffer charge.
    """
    sink = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
    if rcvbuf_request is not None:
        sink.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, rcvbuf_request)
    sink.bind(("127.0.0.1", 0))
    probe = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
    try:
        probe.connect(sink.getsockname())
        granted = sink.getsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF)
        # A small datagram is charged at least 512 bytes of buffer.
        for _ in range(granted // 512 + 64):
            probe.send(b"\0" * 27)
        sink.setblocking(False)
        held = 0
        try:
            while True:
                sink.recv(64)
                held += 1
        except BlockingIOError:
            return held
    finally:
        probe.close()
        sink.close()


def max_send_rate(rows: np.ndarray, seconds: float = 0.3) -> float:
    """Datagrams/s this process can push into a loopback sink socket.

    The sink is bound and never read: once its buffer fills the kernel
    still walks the whole loopback path before discarding, so the figure
    is the sender's ceiling, not an optimistic one.
    """
    sink = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
    sink.bind(("127.0.0.1", 0))
    sender = Sender(sink.getsockname(), rows)
    try:
        sent = 0
        n = rows.shape[0]
        i = 0
        started = time.perf_counter()
        deadline = started + seconds
        while time.perf_counter() < deadline:
            sender.burst(i, BURST)
            sent += BURST
            i = i + BURST if i + 2 * BURST <= n else 0
        return sent / (time.perf_counter() - started)
    finally:
        sender.close()
        sink.close()


def closed_loop(
    sender: Sender,
    progress: Progress,
    warmup_s: float,
    measure_s: float,
    window: int,
    sample,
    slice_s: float = 1.0,
) -> dict:
    """Flood the sender's pool (cycled) with at most ``window`` outstanding.

    The pool length must be a multiple of ``BURST``.  Returns the total sent
    and one ``(t, sent, progress, sample())`` mark at the window start and
    at every ``slice_s`` boundary after it; ``sample`` is the caller's
    probe of the host's CPU time.
    """
    view = progress.view
    burst = sender.burst
    clock = time.perf_counter
    n = sender.rows.shape[0]
    if n % BURST:
        raise ValueError("pool length must be a multiple of the burst")
    sent = 0
    i = 0
    marks: List[Tuple[float, int, int, float]] = []
    started = clock()
    next_mark = started + warmup_s
    end = next_mark + measure_s
    while True:
        now = clock()
        if now >= next_mark:
            marks.append((now, sent, view[PROGRESS], sample()))
            if now >= end:
                break
            next_mark += slice_s
        if window - (sent - view[PROGRESS]) >= BURST:
            burst(i, BURST)
            sent += BURST
            i += BURST
            if i >= n:
                i = 0
        else:
            time.sleep(STALL_SLEEP_S)
    return {"sent": sent, "marks": marks}


def _try_realtime() -> bool:
    """Run the paced sender under SCHED_FIFO where the kernel allows it.

    The sender sleeps most of each millisecond, so it starves nothing, but
    as a normal task its wake-ups slip by a millisecond or more whenever
    the system under test has both CPUs busy — and then the lateness the
    benchmark reports is the scheduler's, not the generator's.
    """
    try:
        os.sched_setscheduler(0, os.SCHED_FIFO, os.sched_param(1))
        return True
    except (PermissionError, OSError, AttributeError):
        return False


def _prewarm(sender: Sender, view, rows: int, window: int) -> int:
    """Closed-loop pass over the first ``rows`` pool rows, then wait for it.

    The direct daemon compiles its wire kernel on the first frame it sees
    (~0.1-0.3 s).  A schedule that starts cold builds a backlog of that
    length on top of the offered rate; on a slow phase of the box it
    outgrows the socket buffer and the run starts with lost datagrams.
    """
    clock = time.perf_counter
    deadline = clock() + 10.0
    sent = 0
    while sent < rows and clock() < deadline:
        if window - (sent - view[PROCESSED]) >= BURST:
            sender.burst(sent, BURST)
            sent += BURST
        else:
            time.sleep(STALL_SLEEP_S)
    while view[PROCESSED] < sent and clock() < deadline:
        time.sleep(STALL_SLEEP_S)
    return sent


def open_loop(
    sender: Sender,
    progress: Progress,
    per_tick: int,
    ticks: int,
    extras: Dict[int, List[Tuple[str, bytes]]],
    controls: Optional[Dict[int, bytes]] = None,
    control_pipe=None,
    window_ticks: Tuple[int, int] = (0, 0),
    sample=None,
    prewarm: Tuple[int, int] = (0, 0),
    backlog_cap: int = 0,
) -> dict:
    """Send ``per_tick`` pool datagrams every millisecond for ``ticks`` ticks.

    ``prewarm`` is ``(rows, window)`` for a closed-loop pass over the first
    pool rows before the schedule starts (they count in every total).
    A tick is held while more than ``backlog_cap`` datagrams sit unread in
    the system's socket: only a box that stops the system for a tenth of a
    second gets there, and the buffer would drop the rest.  Extras are timed
    from when their tick was *due*, so a hold, and the catch-up after it,
    lands in the latency measured on them.
    ``extras[tick]`` is a list of ``(kind, payload)`` (canaries, probes)
    that ride after that tick's background; ``controls[tick]`` is written
    to ``control_pipe`` before it.  Returns, besides the totals and the
    per-second window marks (as in :func:`closed_loop`), one ``(tick, kind,
    due, seq, incidents_seen)`` row per extra, the timeline of ``(t,
    processed, incidents)`` samples taken while waiting for ticks, and how
    late the generator itself was for each tick: from when the tick was due
    (or the previous tick's sends ended, if that was later) to when it was
    ready to send.  Ticks that run late because the system held an earlier
    one are the system's lateness, not the generator's.
    """
    view = progress.view
    send = sender.send
    clock = time.perf_counter
    n = sender.rows.shape[0]
    controls = controls or {}
    sent = i = _prewarm(sender, view, *prewarm)
    held = 0
    lag: List[float] = []
    timeline: List[Tuple[float, int, int]] = []
    extra_log: List[Tuple[int, str, float, int, int]] = []
    control_log: List[Tuple[int, float]] = []
    last = (-1, -1)
    free_at = 0.0

    def observe(now: float) -> None:
        nonlocal last
        state = (view[PROCESSED], view[INCIDENTS])
        if state != last:
            timeline.append((now, *state))
            last = state

    marks: List[Tuple[float, int, int, float]] = []
    w_start, w_end = window_ticks
    realtime = _try_realtime()
    t0 = clock() + 0.002
    for tick in range(ticks):
        due = t0 + tick * TICK_S
        while True:
            now = clock()
            observe(now)
            if now >= due:
                break
            if due - now > POLL_SLEEP_S * 2:
                time.sleep(POLL_SLEEP_S)
        lag.append(now - max(due, free_at))
        if backlog_cap and sent + per_tick - view[RECEIVED] > backlog_cap:
            held += 1
            give_up = now + 5.0  # a dead host must not hang the generator
            while sent + per_tick - view[RECEIVED] > backlog_cap and now < give_up:
                time.sleep(POLL_SLEEP_S)
                now = clock()
        if w_start <= tick <= w_end and (
            (tick - w_start) % 1000 == 0 or tick == w_end
        ):
            marks.append((now, sent, view[PROGRESS], sample()))
        line = controls.get(tick)
        if line is not None:
            control_pipe.write(line)
            control_pipe.flush()
            control_log.append((tick, clock()))
        if i + per_tick > n:
            i = 0
        sender.burst(i, per_tick)
        i += per_tick
        sent += per_tick
        for kind, payload in extras.get(tick, ()):
            send(payload)
            sent += 1
            extra_log.append((tick, kind, due, sent, view[INCIDENTS]))
        free_at = clock()
    if realtime:
        os.sched_setscheduler(0, os.SCHED_OTHER, os.sched_param(0))
    # Keep sampling until the tail has been processed (bounded).
    deadline = clock() + 2.0
    while clock() < deadline and view[PROCESSED] < sent:
        observe(clock())
        time.sleep(POLL_SLEEP_S)
    observe(clock())
    return {
        "sent": sent,
        "marks": marks,
        "lag": lag,
        "held_ticks": held,
        "timeline": timeline,
        "extras": extra_log,
        "controls": control_log,
    }
