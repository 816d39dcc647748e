"""A cluster verification node: one shard replica behind a TCP server.

A node is the TCP transport over a :class:`~repro.core.replica.ShardReplica`
— the same compiled pair replica, vector kernel, pair-delta patch,
``replica_digest`` and per-batch delta the sharded daemon's workers run
over ``multiprocessing`` queues and pipes and the direct daemon runs
in-thread — spoken
over length-prefixed sockets
(:mod:`repro.cluster.protocol`), so a node can live in another process or
on another machine.

What the transport adds, all in service of exactly-once verdict accounting
under membership change (DESIGN.md §14):

* **batch seqs** — every ``MSG_BATCH`` carries the frontend's per-node
  sequence number, and the node answers it on the same connection with a
  ``MSG_BATCH_REPLY``: that batch's :class:`~repro.core.replica.Delta`
  under its seq, which is the frontend's ack to drop the batch from its
  redelivery buffer,
* **unknown pairs are not verdicts** — the node's replica sets aside a
  payload whose ``(inport, outport)`` pair it does not hold and ships it
  back in the batch reply instead of counting ``FAIL_UNKNOWN_PAIR``:
  during a rebalance the pair may simply be in flight to another node,
  and only the coordinator (holding the authoritative table) can tell a
  routing race from a genuinely unknown pair,
* **metrics on the receiving side** — the node keeps none: a batch reply
  carries the batch's counts and figures (timing, vector rows, fallbacks,
  per-tenant rows) as plain values, and the coordinator folds them into
  ``veridp_node_*`` as they arrive,
* **tenant attribution** — pair specs arrive tagged with their owning
  tenant, and the replica counts each batch's rows per tenant, which the
  coordinator folds into ``veridp_cluster_tenant_reports_total`` under a
  ``node`` label (sum it out for the fleet-wide totals).

A node is deliberately ignorant of topology, codec and BDD manager — its
replica is flat integer arrays, exactly like a shard worker's.
"""

from __future__ import annotations

import multiprocessing
import socket
import threading
from typing import Dict, List, Optional, Tuple

from ..core.replica import ShardReplica
from .protocol import (
    MSG_BATCH,
    MSG_BATCH_REPLY,
    MSG_DIGEST,
    MSG_DIGEST_REPLY,
    MSG_HELLO,
    MSG_HELLO_REPLY,
    MSG_PATCH,
    MSG_PING,
    MSG_PONG,
    MSG_RELOAD,
    MSG_STOP,
    MessageStream,
)

__all__ = ["VerificationNode", "NodeHandle", "start_node", "node_process_main"]


def _untag(body: Dict) -> Tuple[Dict, Dict]:
    """Split ``{pair: (spec, tenant) | None}`` into specs and tenants."""
    specs = {}
    tenants = {}
    for key, tagged in body.items():
        if tagged is None:
            specs[key] = None
        else:
            specs[key], tenants[key] = tagged
    return specs, tenants


class VerificationNode:
    """One verification worker process/thread behind a TCP endpoint.

    The replica is shared by every connection's reader thread under one
    lock, which also serialises batch verification — a node is a single
    logical verifier; concurrency across reports comes from running many
    nodes, not many threads per node.
    """

    def __init__(
        self,
        node_id: str,
        packing: Tuple[Tuple[int, int], ...],
        host: str = "127.0.0.1",
        port: int = 0,
    ) -> None:
        self.node_id = node_id
        self.replica = ShardReplica(node_id, packing, set_aside_unknown=True)
        self._state_lock = threading.Lock()
        self._last_seq = 0
        self._listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        self._listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        self._listener.bind((host, port))
        self._listener.listen(16)
        self.address: Tuple[str, int] = self._listener.getsockname()
        self._running = False
        self._accept_thread: Optional[threading.Thread] = None
        self._conn_threads: List[threading.Thread] = []
        self._streams: List[MessageStream] = []

    # -- lifecycle ---------------------------------------------------------

    def start(self) -> "VerificationNode":
        if self._running:
            return self
        self._running = True
        self._accept_thread = threading.Thread(
            target=self._accept_loop,
            name=f"veridp-node-{self.node_id}-accept",
            daemon=True,
        )
        self._accept_thread.start()
        return self

    def stop(self) -> None:
        if not self._running:
            return
        self._running = False
        try:
            self._listener.close()
        except OSError:  # pragma: no cover - defensive
            pass
        for stream in list(self._streams):
            stream.close()
        for thread in list(self._conn_threads):
            thread.join(timeout=2)
        if self._accept_thread is not None:
            self._accept_thread.join(timeout=2)

    def serve_forever(self) -> None:
        """Run the accept loop on the calling thread (process mode)."""
        self._running = True
        self._accept_loop()

    def _accept_loop(self) -> None:
        self._listener.settimeout(0.2)
        while self._running:
            try:
                conn, _addr = self._listener.accept()
            except socket.timeout:
                continue
            except OSError:
                return  # listener closed during stop()
            stream = MessageStream(conn)
            self._streams.append(stream)
            thread = threading.Thread(
                target=self._serve_connection,
                args=(stream,),
                name=f"veridp-node-{self.node_id}-conn",
                daemon=True,
            )
            thread.start()
            self._conn_threads.append(thread)

    def _serve_connection(self, stream: MessageStream) -> None:
        try:
            while self._running:
                # Blocks until the next message: stop() closes the stream.
                mtype, body = stream.recv()
                if not self._handle(stream, mtype, body):
                    return
        except OSError:
            return  # peer went away; its un-acked batches will be redelivered
        finally:
            stream.close()
            if stream in self._streams:
                self._streams.remove(stream)

    # -- message handling --------------------------------------------------

    def _handle(self, stream: MessageStream, mtype: int, body) -> bool:
        replica = self.replica
        if mtype == MSG_BATCH:
            seq, frame = body
            # The batch's counts and its seq are taken in one step, under
            # the lock: that atomicity is the exactly-once ack (DESIGN.md
            # §14.3).  The send waits outside it, so a slow reader upstream
            # never holds up the control connection's patches and pings.
            with self._state_lock:
                replica.verify(frame)
                if seq > self._last_seq:
                    self._last_seq = seq
                delta = replica.drain(seq)
            stream.send(MSG_BATCH_REPLY, delta)
        elif mtype == MSG_PATCH:
            with self._state_lock:
                replica.patch(*_untag(body))
        elif mtype == MSG_RELOAD:
            with self._state_lock:
                replica.reload(*_untag(body))
        elif mtype == MSG_DIGEST:
            with self._state_lock:
                digest = replica.digest()
            stream.send(MSG_DIGEST_REPLY, (self.node_id, body[0], digest))
        elif mtype == MSG_PING:
            stream.send(MSG_PONG, (self.node_id, body[0]))
        elif mtype == MSG_HELLO:
            with self._state_lock:
                count = len(replica.pairs)
            stream.send(MSG_HELLO_REPLY, (self.node_id, count))
        elif mtype == MSG_STOP:
            self._running = False
            try:
                self._listener.close()
            except OSError:  # pragma: no cover - defensive
                pass
            return False
        return True

    def stats(self) -> Dict[str, int]:
        with self._state_lock:
            return {
                "node_id": self.node_id,
                "pairs": len(self.replica.pairs),
                "last_seq": self._last_seq,
                "vector": self.replica.vector,
            }


# ---------------------------------------------------------------------------
# spawning
# ---------------------------------------------------------------------------


def node_process_main(
    node_id: str,
    packing: Tuple[Tuple[int, int], ...],
    address_pipe,
    host: str,
) -> None:
    """Entry point of a process-mode node: bind, report the port, serve."""
    node = VerificationNode(node_id, packing, host=host)
    address_pipe.send(node.address)
    address_pipe.close()
    node.serve_forever()


class NodeHandle:
    """How the coordinator holds a node it spawned: address + lifecycle.

    ``mode`` is ``"thread"`` (a :class:`VerificationNode` in this process
    — the CI smoke shape) or ``"process"`` (a forked process — the shape
    that actually scales past the GIL and can be SIGKILLed in chaos
    tests).  ``kill()`` is the chaos hook: it takes the node down without
    any drain, exactly like a machine failure.
    """

    def __init__(
        self,
        node_id: str,
        mode: str,
        address: Tuple[str, int],
        node: Optional[VerificationNode] = None,
        process=None,
    ) -> None:
        self.node_id = node_id
        self.mode = mode
        self.address = address
        self._node = node
        self._process = process

    def alive(self) -> bool:
        if self._process is not None:
            return self._process.is_alive()
        return self._node is not None and self._node._running

    def kill(self) -> None:
        """Chaos hook: no drain, no goodbye — the node just disappears."""
        if self._process is not None:
            self._process.kill()
            self._process.join(timeout=5)
        elif self._node is not None:
            self._node.stop()

    def stop(self) -> None:
        if self._process is not None:
            if self._process.is_alive():
                try:
                    MessageStream.connect(self.address, timeout=1.0).send(
                        MSG_STOP
                    )
                except OSError:
                    pass
                self._process.join(timeout=5)
            if self._process.is_alive():  # pragma: no cover - defensive
                self._process.kill()
                self._process.join(timeout=2)
        elif self._node is not None:
            self._node.stop()


def start_node(
    node_id: str,
    packing: Tuple[Tuple[int, int], ...],
    mode: str = "thread",
    host: str = "127.0.0.1",
) -> NodeHandle:
    """Spawn one verification node and return its handle.

    Thread mode shares this process (cheap, GIL-bound — tests and small
    deployments); process mode forks a worker whose replica arrives over
    the socket via ``MSG_RELOAD``, so nothing needs to pickle at fork
    time and the same path serves future remote nodes.
    """
    if mode == "thread":
        node = VerificationNode(node_id, packing, host=host)
        node.start()
        return NodeHandle(node_id, mode, node.address, node=node)
    if mode != "process":
        raise ValueError(f"unknown node mode {mode!r}")
    methods = multiprocessing.get_all_start_methods()
    ctx = multiprocessing.get_context("fork" if "fork" in methods else None)
    parent_conn, child_conn = ctx.Pipe()
    process = ctx.Process(
        target=node_process_main,
        args=(node_id, packing, child_conn, host),
        name=f"veridp-node-{node_id}",
        daemon=True,
    )
    process.start()
    child_conn.close()
    if not parent_conn.poll(10.0):
        process.kill()
        raise RuntimeError(f"node {node_id} did not report its address")
    address = parent_conn.recv()
    parent_conn.close()
    return NodeHandle(node_id, mode, address, process=process)
