"""The UDP report listener: the paper's transport in front of every shape.

"Tag reports ... are encapsulated with plain UDP packets" (Section 5).
:class:`UdpReportListener` binds a real UDP socket and feeds whatever it
receives as frames into a sink: a :class:`~repro.core.direct.VeriDPDaemon`,
a :class:`~repro.core.sharded.ShardedVeriDPDaemon` or a cluster's
:class:`~repro.cluster.frontend.ClusterFrontend`.  It is the one report
receive loop in the package.
"""

from __future__ import annotations

import socket
import threading
import time
from typing import Dict, List, Optional, Tuple

from .ingest import DEFAULT_INGEST_BATCH, FrameBuffer, drain_socket, screen_frame
from .reports import REPORT_SIZE, Frame

__all__ = ["UdpReportListener"]


class UdpReportListener:
    """Receive tag reports as real UDP datagrams and feed a sink.

    The sink is anything with ``submit_frame(frame) -> admitted``,
    ``dead_letter_transport(payload, reason)`` and an ``obs`` bundle,
    whose registry gets the ``veridp_udp_*`` families: either daemon, or
    a cluster frontend.

    Binds ``host:port`` (port 0 picks a free one; read :attr:`address`),
    runs a receive loop on a background thread.  Oversized or truncated
    datagrams are counted, not fatal — exactly how a production collector
    must treat a lossy transport.  Transient socket errors are retried
    with capped exponential backoff (rebinding the same address), and
    ``start``/``stop`` are idempotent and restart-safe: the receive loop
    wakes from ``recvfrom`` on a socket timeout, so ``stop`` can never
    hang behind a blocked read.
    """

    def __init__(
        self,
        sink,
        host: str = "127.0.0.1",
        port: int = 0,
        max_socket_errors: int = 8,
        error_backoff: float = 0.05,
        max_rebinds: int = 32,
        ingest_batch: int = DEFAULT_INGEST_BATCH,
    ) -> None:
        self.sink = sink
        self._host = host
        self._port = port
        self.max_socket_errors = max_socket_errors
        self.error_backoff = error_backoff
        # Lifetime cap on rebinds: consecutive-error streaks reset on any
        # successful receive, so intermittent faults used to allow silent
        # rebinding forever.  Past this total the listener gives up and
        # stops (the supervisor/operator decides what happens next).
        self.max_rebinds = max_rebinds
        # Datagrams drained per socket wakeup into one frame (one blocking
        # recv, then a non-blocking drain into a preallocated frame buffer,
        # one submit_frame per drain); 1 makes every datagram its own frame.
        self.ingest_batch = max(1, int(ingest_batch))
        self._socket: Optional[socket.socket] = None
        self._open_socket()
        self._thread: Optional[threading.Thread] = None
        self._running = False
        self.received = 0
        self.malformed = 0
        self.dropped = 0
        self.wrong_size = 0  # datagrams whose length cannot be a report
        self.oversize = 0  # datagrams longer than a report (kernel-truncated)
        self.socket_errors = 0
        self.rebinds = 0
        self.obs = sink.obs
        self._register_metrics()

    def _register_metrics(self) -> None:
        reg = self.obs.registry
        reg.counter(
            "veridp_udp_received_total",
            "UDP datagrams received on the report socket.",
            callback=lambda: self.received,
        )
        reg.counter(
            "veridp_udp_wrong_size_total",
            "Datagrams the precheck rejected (bad size/version; dead-lettered).",
            callback=lambda: self.wrong_size,
        )
        reg.counter(
            "veridp_udp_submit_errors_total",
            "Datagrams the sink's submit_frame() raised on.",
            callback=lambda: self.malformed,
        )
        reg.counter(
            "veridp_udp_dropped_total",
            "Datagrams the sink refused (backpressure, or no owning node).",
            callback=lambda: self.dropped,
        )
        reg.counter(
            "veridp_udp_socket_errors_total",
            "Transient socket errors absorbed by the receive loop.",
            callback=lambda: self.socket_errors,
        )
        reg.counter(
            "veridp_listener_rebind_total",
            "Report-socket rebinds after transient errors (capped by "
            "max_rebinds over the listener's lifetime).",
            callback=lambda: self.rebinds,
        )
        reg.counter(
            "veridp_listener_oversize_total",
            "Datagrams longer than a wire report (kernel-truncated at the "
            "receive buffer; dead-lettered, never silently clipped).",
            callback=lambda: self.oversize,
        )
        self._drain_hist = reg.histogram(
            "veridp_ingest_drain_depth",
            "Datagrams drained from the socket per receive wakeup.",
            buckets=(1, 2, 4, 8, 16, 32, 64, 128, 256),
        ).labels()

    def _open_socket(self) -> None:
        sock = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
        # The drain loop empties the socket in bursts; a deeper kernel
        # buffer rides out the gap between wakeups at high rates.
        try:
            sock.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 1 << 21)
        except OSError:  # pragma: no cover - platform-dependent cap
            pass
        sock.bind((self._host, self._port))
        # The timeout doubles as the stop() wakeup: _loop re-checks the
        # running flag at least this often, so join can never hang behind
        # a blocked recvfrom.
        sock.settimeout(0.2)
        self._socket = sock
        self.address = sock.getsockname()
        self._port = self.address[1]  # keep the same port across rebinds

    def start(self) -> None:
        """Begin receiving datagrams (idempotent; restart-safe)."""
        if self._running:
            return
        if self._socket is None:
            self._open_socket()
        self._running = True
        self._thread = threading.Thread(
            target=self._loop, name="veridp-udp-listener", daemon=True
        )
        self._thread.start()

    def stop(self) -> None:
        """Stop the receive loop and close the socket (idempotent)."""
        self._running = False
        thread = self._thread
        if thread is not None:
            thread.join(timeout=5)
            self._thread = None
        sock = self._socket
        if sock is not None:
            self._socket = None
            try:
                sock.close()
            except OSError:  # pragma: no cover - defensive
                pass

    def __enter__(self) -> "UdpReportListener":
        self.start()
        return self

    def __exit__(self, *exc_info) -> None:
        self.stop()

    @property
    def datagrams(self) -> int:
        # Read-only, for the frozen pipeline bench's cluster shape, which
        # reads ``cluster.ingest.datagrams``; ROADMAP item 1 (unfreeze the
        # instrument) deletes it.
        return self.received

    def stats(self) -> Dict[str, int]:
        return {
            "received": self.received,
            "malformed": self.malformed,
            "dropped": self.dropped,
            "wrong_size": self.wrong_size,
            "oversize": self.oversize,
            "socket_errors": self.socket_errors,
            "rebinds": self.rebinds,
        }

    def _recover_socket(self, consecutive_errors: int) -> int:
        """Absorb one transient socket error: count, back off, rebind.

        Returns the updated consecutive-error count, or -1 when a budget
        (error streak or lifetime rebinds) is exhausted and the loop must
        stop.  A failed rebind leaves the count unchanged so the next pass
        backs off again.
        """
        self.socket_errors += 1
        consecutive_errors += 1
        if consecutive_errors > self.max_socket_errors:
            return -1
        if self.rebinds >= self.max_rebinds:
            # Consecutive streaks reset on success, so without this
            # lifetime cap an intermittently-failing socket rebinds
            # silently forever.  Stop loudly instead.
            return -1
        time.sleep(min(1.0, self.error_backoff * (2**consecutive_errors)))
        try:
            if self._socket is not None:
                self._socket.close()
            self._open_socket()
        except OSError:
            return consecutive_errors  # backoff again on the next pass
        self.rebinds += 1
        return consecutive_errors

    def _dead_letter_odd(self, payload: bytes, nbytes: int) -> None:
        """Route one wrong-length datagram to the DLQ with the right tag.

        A datagram of exactly ``REPORT_SIZE + 1`` bytes overflowed the
        receive slot — the kernel truncated it, so its true length is
        unknowable; it is counted as *oversize*, never silently clipped
        to a plausible report.
        """
        if nbytes == REPORT_SIZE + 1:
            self.oversize += 1
            self.sink.dead_letter_transport(
                payload,
                f"oversize datagram truncated at {REPORT_SIZE + 1} bytes "
                f"(a wire report is {REPORT_SIZE} bytes)",
            )
        else:
            self.wrong_size += 1
            self.sink.dead_letter_transport(
                payload,
                f"wrong size {nbytes} (a wire report is {REPORT_SIZE} bytes)",
            )

    def _loop(self) -> None:
        """The receive loop: one blocking recv, then a non-blocking drain
        of up to ``ingest_batch`` datagrams into a preallocated frame
        buffer, one version screen and one ``submit_frame`` per drain.  A
        report only becomes an individual bytes object on the error paths
        (odd sizes, bad version).  The receive slot is one byte longer than
        a report, so an oversize datagram is a detectable kernel truncation
        instead of a silent clip."""
        fb = FrameBuffer(self.ingest_batch)
        consecutive_errors = 0
        while self._running:
            sock = self._socket
            if sock is None:
                return
            try:
                nbytes = sock.recv_into(fb.slot())
            except socket.timeout:
                continue
            except OSError:
                if not self._running:
                    return  # socket closed under us during stop()
                consecutive_errors = self._recover_socket(consecutive_errors)
                if consecutive_errors < 0:
                    self._running = False
                    return
                continue
            consecutive_errors = 0
            odd: List[Tuple[bytes, int]] = []
            if nbytes == REPORT_SIZE:
                fb.commit()
            else:
                odd.append((fb.slot_bytes(nbytes), nbytes))
            # Opportunistic drain: everything already queued in the kernel,
            # without blocking (drain_socket swallows socket errors — the
            # next blocking recv surfaces them through the recovery path).
            drained = 1
            try:
                sock.settimeout(0)
                extra, more_odd = drain_socket(
                    sock, fb, self.ingest_batch - 1
                )
                drained += extra
                odd.extend(more_odd)
            finally:
                try:
                    sock.settimeout(0.2)
                except OSError:  # pragma: no cover - closed under us
                    pass
            self.received += drained
            self._drain_hist.observe(drained)
            for payload, n in odd:
                self._dead_letter_odd(payload, n)
            if not fb.rows:
                continue
            clean, rejected = screen_frame(fb.take())
            for payload, reason in rejected:
                self.wrong_size += 1
                self.sink.dead_letter_transport(payload, reason)
            if not clean:
                continue
            frame = Frame(clean)
            count = frame.count
            try:
                admitted = self.sink.submit_frame(frame)
            except Exception as exc:
                self.malformed += count
                for payload in frame.rows():
                    self.sink.dead_letter_transport(
                        payload, f"submit failed: {exc}"
                    )
                continue
            if admitted < count:
                self.dropped += count - admitted
