"""A cluster verification node: one shard replica behind a TCP socket.

A node serves a :class:`~repro.core.replica.ShardReplica` — the same
compiled pair replica, vector kernel, pair-delta patch, ``replica_digest``
and per-batch delta the sharded daemon's workers serve over their pipes
and the direct daemon runs in-thread — through the same member loop,
:func:`~repro.core.replica.serve_replica`, over one length-prefixed
socket (:class:`~repro.cluster.protocol.MessageStream`), so a node can
live in another process or on another machine.

A node takes exactly one connection, the frontend's link, and serves it
on one thread until the frontend closes it; then the node is done.  What
its replica does differently from a shard worker's, all in service of
exactly-once verdict accounting under membership change (DESIGN.md §14):

* **unknown pairs are not verdicts** — the replica sets aside a payload
  whose ``(inport, outport)`` pair it does not hold and ships it back in
  the batch reply instead of counting ``FAIL_UNKNOWN_PAIR``: during a
  rebalance the pair may simply be in flight to another node, and only
  the coordinator (holding the authoritative table) can tell a routing
  race from a genuinely unknown pair,
* **tenant attribution** — pair specs arrive tagged with their owning
  tenant, and the replica counts each batch's rows per tenant, which the
  coordinator folds into ``veridp_cluster_tenant_reports_total`` under a
  ``node`` label (sum it out for the fleet-wide totals).

A node keeps no metrics, and is deliberately ignorant of topology, codec
and BDD manager — its replica is pair specs over the node tables of the
messages that carried them (one table per ``reload``/``patch``, see
:func:`~repro.core.replica.pack_specs`), exactly like a shard worker's.
"""

from __future__ import annotations

import multiprocessing
import socket
import threading
from typing import Optional, Tuple

from ..core.replica import ShardReplica, serve_replica
from .protocol import MessageStream

__all__ = ["VerificationNode", "NodeHandle", "start_node", "node_process_main"]


class VerificationNode:
    """One shard replica behind a listening TCP socket.

    :meth:`serve` accepts one connection and runs the member loop over it
    on the calling thread; :meth:`start` runs it on a thread of its own
    (thread mode), and :meth:`stop` ends it.
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
        self._listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        self._listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        self._listener.bind((host, port))
        self._listener.listen(1)
        self.address: Tuple[str, int] = self._listener.getsockname()
        self.thread: Optional[threading.Thread] = None
        self._stream: Optional[MessageStream] = None
        self._stopped = False

    def serve(self) -> None:
        """Accept the frontend's connection and serve the replica over it
        until it closes (or :meth:`stop`)."""
        try:
            sock, _addr = self._listener.accept()
        except OSError:
            return  # stopped before the frontend connected
        finally:
            self._listener.close()
        self._stream = MessageStream(sock)
        try:
            if not self._stopped:  # else stop() missed the stream: end here
                serve_replica(self.replica, self._stream)
        finally:
            self._stream.close()

    def start(self) -> "VerificationNode":
        self.thread = threading.Thread(
            target=self.serve, name=f"veridp-node-{self.node_id}", daemon=True
        )
        self.thread.start()
        return self

    def stop(self) -> None:
        """End the node: the listener's shutdown wakes a waiting accept, the
        stream's close a waiting recv."""
        self._stopped = True
        try:
            self._listener.shutdown(socket.SHUT_RDWR)
        except OSError:  # closed after its one accept
            pass
        self._listener.close()
        if self._stream is not None:
            self._stream.close()
        if self.thread is not None:
            self.thread.join(timeout=2)


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
    node.serve()


class NodeHandle:
    """How the coordinator holds a node it spawned: address + lifecycle.

    ``mode`` is ``"thread"`` (a :class:`VerificationNode` in this process
    — the CI smoke shape) or ``"process"`` (a forked process — the shape
    that actually scales past the GIL and can be SIGKILLed in chaos
    tests).  Either way the handle looks like a process to the link that
    owns it: ``is_alive()``, ``kill()`` and ``join(timeout)``.
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
        #: What runs the node's loop: its thread or its process.
        self._runner = process if node is None else node.thread

    def is_alive(self) -> bool:
        return self._runner.is_alive()

    def join(self, timeout: Optional[float] = None) -> None:
        self._runner.join(timeout)

    def kill(self) -> None:
        """Chaos hook: no drain, no goodbye — the node just disappears."""
        if self._node is not None:
            self._node.stop()
        else:
            self._runner.kill()
            self._runner.join(timeout=5)

    def stop(self) -> None:
        """Wait for the node to end once its link is closed, as a shard
        worker ends, and kill it if it does not."""
        self.join(timeout=5)
        if self.is_alive():  # pragma: no cover - defensive
            self.kill()


def start_node(
    node_id: str,
    packing: Tuple[Tuple[int, int], ...],
    mode: str = "thread",
    host: str = "127.0.0.1",
) -> NodeHandle:
    """Spawn one verification node and return its handle.

    Thread mode shares this process (cheap, GIL-bound — tests and small
    deployments); process mode forks a worker.  Either way the node
    starts empty: its replica arrives over the socket as one packed
    ``reload`` holding only the share the coordinator's ring assigns it,
    so nothing needs to pickle at fork time and the same path serves
    future remote nodes.
    """
    if mode == "thread":
        node = VerificationNode(node_id, packing, host=host).start()
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
