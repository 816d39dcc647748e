"""Cluster ingestion frontend: multi-socket intake + consistent routing.

This replaces the thread-per-listener ingestion model for cluster
deployments.  One :class:`ClusterFrontend` owns the routing state — which
verification node each ``(inport, outport)`` pair belongs to — and one
ingest engine (:class:`AsyncioIngest`, or :class:`SelectorIngest` where
asyncio is unavailable) feeds it 27-byte report payloads from any number
of UDP and TCP sockets on a single event-loop thread.

Routing is two-layered:

* an explicit **placement map** (routing key → node id) that the
  coordinator updates transactionally during rebalances — a key is only
  flipped *after* its compiled pair spec reached the new owner, so a
  routed report never races its own replica,
* the **hash ring** as the fallback for keys the coordinator has not
  pinned (fresh pairs mid-churn); a miss on the far side comes back in
  the flush reply and is re-ingested by the coordinator, so the fallback
  only costs latency, never correctness.

Tenant awareness (PR 8): every pair owned by a slice routes under the key
``tenant:<name>`` instead of ``pair:<key>``, so one tenant's pairs — and
with them its isolation-recheck work and footprint BDDs — land on a
single node rather than replicating everywhere.

Delivery bookkeeping implements the exactly-once contract from
:mod:`repro.cluster.protocol`: every dispatched batch stays in the
per-node un-acked map until a flush reply covers its seq; a dead node's
un-acked batches are detached wholesale and redelivered to the surviving
owners.
"""

from __future__ import annotations

import socket
import threading
from collections import OrderedDict
from typing import Callable, Dict, List, Optional, Tuple

from ..core.replica import frame_batch, unframe_batch
from ..core.ingest import (
    DEFAULT_INGEST_BATCH,
    HAVE_NUMPY,
    FrameBuffer,
    drain_socket,
    pair_keys,
    screen_frame,
)
from ..core.reports import REPORT_SIZE, Frame, payload_precheck
from .protocol import MSG_BATCH, MessageStream
from .ring import HashRing

try:  # pragma: no cover - exercised via both branches in CI matrices
    import numpy as np
except Exception:  # pragma: no cover
    np = None  # type: ignore[assignment]

__all__ = [
    "ClusterFrontend",
    "AsyncioIngest",
    "SelectorIngest",
    "build_ingest",
    "routing_key_of",
]

import selectors


def _import_asyncio():
    """asyncio, loaded when an engine first needs it (``None`` if missing).

    It brings ssl, logging and concurrent.futures with it, which a process
    running :class:`SelectorIngest` never uses.
    """
    try:
        import asyncio
    except ImportError:  # pragma: no cover - stdlib everywhere we run
        return None
    return asyncio


def routing_key_of(pair_key: int, tenant: Optional[str]) -> str:
    """The ring/placement key for one wire pair.

    Tenant-owned pairs share one key per tenant (co-location); unsliced
    pairs hash individually (spread).
    """
    if tenant:
        return f"tenant:{tenant}"
    return f"pair:{pair_key}"


class _NodeLink:
    """The frontend's view of one verification node's data connection."""

    def __init__(self, node_id: str, address: Tuple[str, int]) -> None:
        self.node_id = node_id
        self.address = address
        self.stream = MessageStream.connect(address)
        self.lock = threading.Lock()
        self.seq = 0  # last batch seq dispatched to this node
        self.acked = 0  # highest seq a flush reply has covered
        #: seq -> (frame, odd); insertion order == seq order.
        self.unacked: "OrderedDict[int, Tuple[bytes, List[bytes]]]" = (
            OrderedDict()
        )
        self.buffer: List[bytes] = []
        self.fbuffer: List[bytes] = []  # frame chunks from submit_frame
        self.fcount = 0  # rows pending in fbuffer
        self.dead = False


class ClusterFrontend:
    """Route report payloads to verification nodes, exactly once.

    Thread-safe: the ingest engine's loop thread, the coordinator's flush
    turns and test harnesses may all call in concurrently.
    """

    def __init__(
        self,
        batch_size: int = 256,
        persist=None,
        observer: Optional[Callable[[bytes], None]] = None,
    ) -> None:
        self.batch_size = max(1, int(batch_size))
        self.persist = persist
        self.observer = observer
        self.ring = HashRing()
        #: routing key -> node_id, maintained by the coordinator.
        self.placement: Dict[str, str] = {}
        #: wire pair key32 -> tenant name, from the slice registry.
        self.tenant_of: Dict[int, str] = {}
        self._links: Dict[str, _NodeLink] = {}
        self._route_lock = threading.Lock()
        # intake ledger (plain ints under the route lock)
        self.submitted = 0
        self.precheck_rejected = 0
        self.dropped_no_node = 0
        self.dispatched_batches = 0
        self.dispatched_reports = 0
        self.redelivered_reports = 0
        self.dispatch_errors = 0

    # -- membership (coordinator-driven) -----------------------------------

    def attach_node(self, node_id: str, address: Tuple[str, int]) -> None:
        link = _NodeLink(node_id, address)
        with self._route_lock:
            self._links[node_id] = link
            if node_id not in self.ring:
                self.ring.add(node_id)

    def detach_node(self, node_id: str) -> List[bytes]:
        """Drop a node and return every payload it still owed us.

        The returned payloads (un-acked batches in seq order, then the
        undispatched buffer) are the redelivery set: the dead node's
        unflushed verdict counts died with it, so re-routing these to the
        surviving owners counts each verdict exactly once.
        """
        with self._route_lock:
            link = self._links.pop(node_id, None)
            if node_id in self.ring:
                self.ring.remove(node_id)
            self.placement = {
                key: owner
                for key, owner in self.placement.items()
                if owner != node_id
            }
        if link is None:
            return []
        link.dead = True
        link.stream.close()
        pending: List[bytes] = []
        with link.lock:
            for frame, odd in link.unacked.values():
                pending.extend(unframe_batch(frame, odd))
            pending.extend(link.buffer)
            for chunk in link.fbuffer:
                pending.extend(unframe_batch(chunk, []))
            link.unacked.clear()
            link.buffer = []
            link.fbuffer = []
            link.fcount = 0
        return pending

    def nodes(self) -> List[str]:
        with self._route_lock:
            return sorted(self._links)

    # -- routing -----------------------------------------------------------

    def routing_key(self, payload: bytes) -> str:
        pair_key = int.from_bytes(payload[2:6], "big")
        return routing_key_of(pair_key, self.tenant_of.get(pair_key))

    def owner_of(self, key: str) -> Optional[str]:
        node = self.placement.get(key)
        if node is not None and node in self._links:
            return node
        return self.ring.owner(key)

    def submit(self, payload: bytes) -> bool:
        """Ingest one wire payload; returns False when it was rejected."""
        with self._route_lock:
            self.submitted += 1
            if payload_precheck(payload) is not None:
                self.precheck_rejected += 1
                return False
            key = self.routing_key(payload)
            node = self.owner_of(key)
            link = self._links.get(node) if node is not None else None
            if link is None:
                self.dropped_no_node += 1
                return False
        if self.observer is not None:
            self.observer(payload)
        with link.lock:
            # A dead link still buffers: detach_node() surrenders the
            # buffer for redelivery, so a node's death window loses
            # nothing — the payloads just wait for the failover.
            link.buffer.append(payload)
            if (
                len(link.buffer) + link.fcount >= self.batch_size
                and not link.dead
            ):
                self._dispatch_locked(link)
        return True

    def submit_frame(self, frame: Frame) -> int:
        """Ingest a frame of wire rows in one routing pass.

        One vectorized screen + one ``np.unique`` over the pair-key column
        replaces per-row precheck/route/append rounds; each owner's rows
        land in its link's frame-chunk buffer as one contiguous chunk.
        Returns the rows accepted (screen rejects and ownerless rows are
        counted exactly as scalar :meth:`submit` counts them).  Falls back
        to per-row :meth:`submit` when numpy is unavailable or an observer
        tap needs to see individual payloads.
        """
        count = frame.count
        if count == 0:
            return 0
        if self.observer is not None or not HAVE_NUMPY:
            accepted = 0
            for row in frame.rows():
                if self.submit(row):
                    accepted += 1
            return accepted
        clean, rejected = screen_frame(frame.payload())
        nrows = len(clean) // REPORT_SIZE
        targets: List[Tuple[_NodeLink, bytes, int]] = []
        with self._route_lock:
            self.submitted += count
            self.precheck_rejected += len(rejected)
            if not nrows:
                return 0
            keys = pair_keys(clean)
            raw = np.frombuffer(clean, dtype=np.uint8).reshape(
                -1, REPORT_SIZE
            )
            uniq, inverse = np.unique(keys, return_inverse=True)
            # Map each unique pair key to a node slot (None = unroutable),
            # then fan rows out per slot in one mask pass each.
            node_slots: Dict[Optional[str], int] = {}
            slot_nodes: List[Optional[str]] = []
            codes = np.empty(uniq.shape[0], dtype=np.int64)
            for j, key in enumerate(uniq.tolist()):
                key = int(key)
                node = self.owner_of(
                    routing_key_of(key, self.tenant_of.get(key))
                )
                if node is not None and node not in self._links:
                    node = None
                slot = node_slots.get(node)
                if slot is None:
                    slot = len(slot_nodes)
                    node_slots[node] = slot
                    slot_nodes.append(node)
                codes[j] = slot
            row_slots = codes[inverse]
            for slot, node in enumerate(slot_nodes):
                mask = row_slots == slot
                rows = int(mask.sum())
                if node is None:
                    self.dropped_no_node += rows
                    continue
                targets.append(
                    (self._links[node], raw[mask].tobytes(), rows)
                )
        accepted = 0
        for link, chunk, rows in targets:
            with link.lock:
                link.fbuffer.append(chunk)
                link.fcount += rows
                accepted += rows
                if (
                    len(link.buffer) + link.fcount >= self.batch_size
                    and not link.dead
                ):
                    self._dispatch_locked(link)
        return accepted

    def redeliver(self, payloads: List[bytes]) -> int:
        """Re-route a detached node's pending payloads; returns the count."""
        count = 0
        for payload in payloads:
            with self._route_lock:
                self.submitted -= 1  # submit() recounts it below
            if self.submit(payload):
                count += 1
        with self._route_lock:
            self.redelivered_reports += count
        return count

    # -- dispatch ----------------------------------------------------------

    def _dispatch_locked(self, link: _NodeLink) -> None:
        """Ship the link's pending singles and frame chunks as one batch
        (caller holds ``link.lock``)."""
        singles = link.buffer
        link.buffer = []
        chunks = link.fbuffer
        link.fbuffer = []
        rows = link.fcount + len(singles)
        link.fcount = 0
        sized, odd = frame_batch(singles)
        frame = b"".join(chunks) + sized if chunks else sized
        if self.persist is not None:
            # WAL-before-verify at batch granularity: the batch is durable
            # before any node sees it, exactly like the sharded daemon —
            # one RT_REPORT_BATCH record per frame when the store supports
            # frame logging.
            log_frame = getattr(self.persist, "log_report_frame", None)
            if log_frame is not None:
                if frame:
                    log_frame(frame)
                if odd:
                    self.persist.log_report_batch(odd)
            else:
                self.persist.log_report_batch(
                    unframe_batch(frame, odd)
                )
        link.seq += 1
        link.unacked[link.seq] = (frame, odd)
        try:
            link.stream.send(MSG_BATCH, (link.seq, frame, odd))
        except OSError:
            # Connection is gone; the batch stays un-acked and will be
            # redelivered when the coordinator detaches the node.
            link.dead = True
            with self._route_lock:
                self.dispatch_errors += 1
            return
        with self._route_lock:
            self.dispatched_batches += 1
            self.dispatched_reports += rows

    def flush_buffers(self) -> None:
        """Dispatch every node's partial buffer (end-of-stream / timer)."""
        with self._route_lock:
            links = list(self._links.values())
        for link in links:
            with link.lock:
                if (link.buffer or link.fbuffer) and not link.dead:
                    self._dispatch_locked(link)

    def ack(self, node_id: str, last_seq: int) -> int:
        """Drop batches a flush reply covered; returns how many retired."""
        with self._route_lock:
            link = self._links.get(node_id)
        if link is None:
            return 0
        retired = 0
        with link.lock:
            if last_seq > link.acked:
                link.acked = last_seq
            while link.unacked:
                seq = next(iter(link.unacked))
                if seq > last_seq:
                    break
                del link.unacked[seq]
                retired += 1
        return retired

    def pending(self, node_id: str) -> Tuple[int, int]:
        """(un-acked batches, buffered payloads) for one node."""
        with self._route_lock:
            link = self._links.get(node_id)
        if link is None:
            return (0, 0)
        with link.lock:
            return (len(link.unacked), len(link.buffer) + link.fcount)

    def stats(self) -> Dict[str, int]:
        with self._route_lock:
            out = {
                "submitted": self.submitted,
                "precheck_rejected": self.precheck_rejected,
                "dropped_no_node": self.dropped_no_node,
                "dispatched_batches": self.dispatched_batches,
                "dispatched_reports": self.dispatched_reports,
                "redelivered_reports": self.redelivered_reports,
                "dispatch_errors": self.dispatch_errors,
                "nodes": len(self._links),
                "placement_keys": len(self.placement),
            }
        return out


# ---------------------------------------------------------------------------
# ingest engines
# ---------------------------------------------------------------------------


def _bind_udp(host: str, port: int) -> socket.socket:
    sock = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
    sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
    sock.bind((host, port))
    sock.setblocking(False)
    return sock

def _bind_tcp(host: str, port: int) -> socket.socket:
    sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
    sock.bind((host, port))
    sock.listen(64)
    sock.setblocking(False)
    return sock


class AsyncioIngest:
    """All listen sockets on one asyncio loop thread (no thread-per-port).

    UDP datagrams carry one payload each (the switch-agent shape); TCP
    connections carry back-to-back ``REPORT_SIZE``-stride payloads (the
    relay/replay shape).  Sockets are bound synchronously — ``listen_udp``
    and ``listen_tcp`` return the bound address immediately, before or
    after :meth:`start` — and handed to the loop to serve.
    """

    engine = "asyncio"

    def __init__(
        self,
        frontend: ClusterFrontend,
        ingest_batch: int = DEFAULT_INGEST_BATCH,
    ) -> None:
        self._asyncio = _import_asyncio()
        if self._asyncio is None:
            raise RuntimeError("asyncio is unavailable; use SelectorIngest")
        self.frontend = frontend
        # > 1 selects the frame-native drain loop (one readability wakeup
        # drains up to this many datagrams into one submit_frame); 1 keeps
        # the per-datagram protocol path.
        self.ingest_batch = max(1, int(ingest_batch))
        self._loop: Optional["asyncio.AbstractEventLoop"] = None
        self._thread: Optional[threading.Thread] = None
        self._udp_socks: List[socket.socket] = []
        self._tcp_socks: List[socket.socket] = []
        self._transports: List = []
        self._servers: List = []
        self._readers: List[socket.socket] = []
        self.datagrams = 0
        self.tcp_connections = 0

    # -- binding -----------------------------------------------------------

    def listen_udp(self, host: str = "127.0.0.1", port: int = 0):
        sock = _bind_udp(host, port)
        self._udp_socks.append(sock)
        if self._loop is not None:
            self._run(self._serve_udp(sock))
        return sock.getsockname()

    def listen_tcp(self, host: str = "127.0.0.1", port: int = 0):
        sock = _bind_tcp(host, port)
        self._tcp_socks.append(sock)
        if self._loop is not None:
            self._run(self._serve_tcp(sock))
        return sock.getsockname()

    # -- lifecycle ---------------------------------------------------------

    def start(self) -> "AsyncioIngest":
        if self._loop is not None:
            return self
        asyncio = self._asyncio
        self._loop = asyncio.new_event_loop()
        started = threading.Event()

        def runner() -> None:
            asyncio.set_event_loop(self._loop)
            self._loop.call_soon(started.set)
            self._loop.run_forever()

        self._thread = threading.Thread(
            target=runner, name="veridp-cluster-ingest", daemon=True
        )
        self._thread.start()
        started.wait(timeout=5)
        for sock in self._udp_socks:
            self._run(self._serve_udp(sock))
        for sock in self._tcp_socks:
            self._run(self._serve_tcp(sock))
        return self

    def stop(self) -> None:
        if self._loop is None:
            return
        loop = self._loop

        def shutdown() -> None:
            for transport in self._transports:
                transport.close()
            for server in self._servers:
                server.close()
            for sock in self._readers:
                try:
                    loop.remove_reader(sock)
                except (OSError, ValueError):  # pragma: no cover
                    pass
            loop.stop()

        loop.call_soon_threadsafe(shutdown)
        if self._thread is not None:
            self._thread.join(timeout=5)
        loop.close()
        self._loop = None
        for sock in self._udp_socks + self._tcp_socks:
            try:
                sock.close()
            except OSError:  # pragma: no cover - defensive
                pass

    def _run(self, coro) -> None:
        self._asyncio.run_coroutine_threadsafe(coro, self._loop).result(
            timeout=5
        )

    # -- protocols ---------------------------------------------------------

    async def _serve_udp(self, sock: socket.socket) -> None:
        if self.ingest_batch > 1:
            # Frame-native drain: one readability callback drains every
            # pending datagram (up to ingest_batch) into a preallocated
            # frame buffer and hands the frontend one frame.  The socket
            # is already non-blocking (_bind_udp).
            fb = FrameBuffer(self.ingest_batch)

            def on_readable() -> None:
                count, odd = drain_socket(sock, fb, self.ingest_batch)
                if not count:
                    return
                self.datagrams += count
                for payload, _nbytes in odd:
                    # Wrong-sized datagrams take the scalar path; submit()
                    # counts them as precheck-rejected, same as before.
                    self.frontend.submit(payload)
                if fb.rows:
                    self.frontend.submit_frame(Frame(fb.take()))

            self._loop.add_reader(sock, on_readable)
            self._readers.append(sock)
            return
        ingest = self

        class Proto(self._asyncio.DatagramProtocol):
            def datagram_received(self, data: bytes, addr) -> None:
                ingest.datagrams += 1
                ingest.frontend.submit(data)

        transport, _ = await self._loop.create_datagram_endpoint(
            Proto, sock=sock
        )
        self._transports.append(transport)

    async def _serve_tcp(self, sock: socket.socket) -> None:
        async def handle(reader, writer) -> None:
            self.tcp_connections += 1
            pending = b""
            try:
                while True:
                    chunk = await reader.read(65536)
                    if not chunk:
                        break
                    pending += chunk
                    if self.ingest_batch > 1:
                        # Submit the maximal aligned prefix as one frame.
                        cut = (len(pending) // REPORT_SIZE) * REPORT_SIZE
                        if cut:
                            self.frontend.submit_frame(Frame(pending[:cut]))
                            pending = pending[cut:]
                        continue
                    while len(pending) >= REPORT_SIZE:
                        self.frontend.submit(pending[:REPORT_SIZE])
                        pending = pending[REPORT_SIZE:]
            finally:
                writer.close()

        server = await self._asyncio.start_server(handle, sock=sock)
        self._servers.append(server)


class SelectorIngest:
    """``selectors``-based fallback engine with the same surface.

    One thread, one :class:`selectors.DefaultSelector`; exists for
    runtimes where asyncio cannot own a loop thread, and as the
    explicitly-selectable engine for A/B testing the two.
    """

    engine = "selectors"

    def __init__(
        self,
        frontend: ClusterFrontend,
        ingest_batch: int = DEFAULT_INGEST_BATCH,
    ) -> None:
        self.frontend = frontend
        self.ingest_batch = max(1, int(ingest_batch))
        self._selector = selectors.DefaultSelector()
        self._thread: Optional[threading.Thread] = None
        self._running = False
        self._socks: List[socket.socket] = []
        self.datagrams = 0
        self.tcp_connections = 0

    def listen_udp(self, host: str = "127.0.0.1", port: int = 0):
        sock = _bind_udp(host, port)
        self._socks.append(sock)
        self._selector.register(sock, selectors.EVENT_READ, ("udp", None))
        return sock.getsockname()

    def listen_tcp(self, host: str = "127.0.0.1", port: int = 0):
        sock = _bind_tcp(host, port)
        self._socks.append(sock)
        self._selector.register(sock, selectors.EVENT_READ, ("accept", None))
        return sock.getsockname()

    def start(self) -> "SelectorIngest":
        if self._running:
            return self
        self._running = True
        self._thread = threading.Thread(
            target=self._loop, name="veridp-cluster-ingest", daemon=True
        )
        self._thread.start()
        return self

    def stop(self) -> None:
        self._running = False
        if self._thread is not None:
            self._thread.join(timeout=5)
        for key in list(self._selector.get_map().values()):
            try:
                key.fileobj.close()
            except OSError:  # pragma: no cover - defensive
                pass
        self._selector.close()

    def _loop(self) -> None:
        buffers: Dict[socket.socket, bytes] = {}
        fbufs: Dict[socket.socket, FrameBuffer] = {}
        batched = self.ingest_batch > 1
        while self._running:
            for key, _events in self._selector.select(timeout=0.2):
                kind, _ = key.data
                sock = key.fileobj
                if kind == "udp":
                    if batched:
                        # Frame-native drain (same shape as AsyncioIngest):
                        # empty the socket into a preallocated buffer, one
                        # submit_frame per wakeup.
                        fb = fbufs.get(sock)
                        if fb is None:
                            fb = fbufs[sock] = FrameBuffer(self.ingest_batch)
                        count, odd = drain_socket(
                            sock, fb, self.ingest_batch
                        )
                        if not count:
                            continue
                        self.datagrams += count
                        for payload, _nbytes in odd:
                            self.frontend.submit(payload)
                        if fb.rows:
                            self.frontend.submit_frame(Frame(fb.take()))
                        continue
                    try:
                        data, _addr = sock.recvfrom(65536)
                    except OSError:
                        continue
                    self.datagrams += 1
                    self.frontend.submit(data)
                elif kind == "accept":
                    try:
                        conn, _addr = sock.accept()
                    except OSError:
                        continue
                    conn.setblocking(False)
                    self.tcp_connections += 1
                    buffers[conn] = b""
                    self._selector.register(
                        conn, selectors.EVENT_READ, ("tcp", None)
                    )
                else:  # tcp data
                    try:
                        chunk = sock.recv(65536)
                    except OSError:
                        chunk = b""
                    if not chunk:
                        self._selector.unregister(sock)
                        sock.close()
                        buffers.pop(sock, None)
                        continue
                    pending = buffers[sock] + chunk
                    if batched:
                        cut = (len(pending) // REPORT_SIZE) * REPORT_SIZE
                        if cut:
                            self.frontend.submit_frame(Frame(pending[:cut]))
                            pending = pending[cut:]
                    else:
                        while len(pending) >= REPORT_SIZE:
                            self.frontend.submit(pending[:REPORT_SIZE])
                            pending = pending[REPORT_SIZE:]
                    buffers[sock] = pending


def build_ingest(
    frontend: ClusterFrontend,
    engine: str = "auto",
    ingest_batch: int = DEFAULT_INGEST_BATCH,
):
    """Pick the ingest engine: ``asyncio`` (default), ``selectors``."""
    if engine == "auto":
        engine = "asyncio" if _import_asyncio() is not None else "selectors"
    if engine == "asyncio":
        return AsyncioIngest(frontend, ingest_batch=ingest_batch)
    if engine == "selectors":
        return SelectorIngest(frontend, ingest_batch=ingest_batch)
    raise ValueError(f"unknown ingest engine {engine!r}")
