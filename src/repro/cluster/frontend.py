"""Cluster ingestion frontend: consistent routing + exactly-once delivery.

One :class:`ClusterFrontend` owns the routing state — which verification
node each ``(inport, outport)`` pair belongs to.  It is a report sink like
the daemons: the cluster's one
:class:`~repro.core.listener.UdpReportListener` (the receive loop every
shape shares) feeds it screened frames of 27-byte report rows through
:meth:`ClusterFrontend.submit_frame` and hands it the datagrams it refused
at the socket through :meth:`ClusterFrontend.dead_letter_transport`.

Routing is two-layered:

* an explicit **placement map** (routing key → node id) that the
  coordinator updates transactionally during rebalances — a key is only
  flipped *after* its compiled pair spec reached the new owner, so a
  routed report never races its own replica,
* the **hash ring** as the fallback for keys the coordinator has not
  pinned (fresh pairs mid-churn); a miss on the far side comes back in
  the batch reply and is re-ingested by the coordinator, so the fallback
  only costs latency, never correctness.

Tenant awareness (PR 8): every pair owned by a slice routes under the key
``tenant:<name>`` instead of ``pair:<key>``, so one tenant's pairs — and
with them its isolation-recheck work and footprint BDDs — land on a
single node rather than replicating everywhere.

Delivery implements the exactly-once contract from
:mod:`repro.cluster.protocol` with one
:class:`~repro.core.delivery.DeliveryBook` per node link, the book the
sharded daemon keeps per shard worker: every dispatched batch stays
un-acked until the node's reply to it is merged; a dead node's book is
surrendered wholesale and its rows are adopted by the surviving owners'
books, logged once.  Each link has a reader thread that takes the node's
batch replies off the data connection as they arrive and hands them to
:attr:`ClusterFrontend.on_reply` (the coordinator's merge), which retires
the batch under the link's lock.
"""

from __future__ import annotations

import threading
from typing import Callable, Dict, Iterable, List, Optional, Tuple

import numpy as np

from ..core.ingest import pair_keys
from ..core.delivery import DeliveryBook, InFlight
from ..core.replica import Delta, unframe_batch
from ..core.reports import REPORT_SIZE, Frame, payload_precheck
from ..obs import Observability
from .protocol import MSG_BATCH, MessageStream
from .ring import HashRing

__all__ = ["ClusterFrontend", "routing_key_of"]


def routing_key_of(pair_key: int, tenant: Optional[str]) -> str:
    """The ring/placement key for one wire pair.

    Tenant-owned pairs share one key per tenant (co-location); unsliced
    pairs hash individually (spread).
    """
    if tenant:
        return f"tenant:{tenant}"
    return f"pair:{pair_key}"


class _NodeLink(DeliveryBook):
    """One verification node's data connection and its delivery book."""

    def __init__(self, address: Tuple[str, int], *book) -> None:
        super().__init__(*book)
        self.stream = MessageStream.connect(address)


class ClusterFrontend:
    """Route report payloads to verification nodes, exactly once.

    Thread-safe: the report listener's thread, the links' reply readers,
    the coordinator and test harnesses may all call in concurrently.

    ``on_reply(delta)`` is called for each batch reply whose seq is still
    un-acked, with the link's lock held; the batch retires when it returns,
    and that is the only way a batch retires.  A reply that finds its batch
    gone (surrendered by :meth:`detach_node`) is dropped: the redelivery
    counts that batch.  Until a handler is installed nothing retires, so a
    bare frontend keeps every dispatched batch in its redelivery set.
    """

    def __init__(self, batch_size: int = 256, persist=None) -> None:
        self.batch_size = max(1, int(batch_size))
        self.persist = persist
        self.on_reply: Optional[Callable[[Delta], None]] = None
        #: The cluster's one metrics bundle: the coordinator folds the
        #: nodes' families into its registry, the report listener
        #: registers its ``veridp_udp_*`` families there.
        self.obs = Observability()
        #: Rows accepted and not yet retired, buffered or un-acked.
        self.flight = InFlight()
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
        # WAL-before-verify at batch granularity: each cut is one
        # RT_REPORT_BATCH record, durable before any node sees it.
        log = None if self.persist is None else self.persist.log_report_frame
        link = _NodeLink(address, self.flight, self.batch_size, log)
        threading.Thread(
            target=self._read_replies,
            args=(link,),
            name=f"veridp-link-{node_id}",
            daemon=True,
        ).start()
        with self._route_lock:
            self._links[node_id] = link
            if node_id not in self.ring:
                self.ring.add(node_id)

    def _read_replies(self, link: _NodeLink) -> None:
        """A link's reader thread: merge each batch reply as it arrives."""
        while True:
            try:
                _mtype, delta = link.stream.recv()
            except OSError:
                # The connection is gone: stop dispatching to it; its
                # un-acked batches wait for the failover to redeliver them.
                link.dead = True
                return
            # A node answers nothing but batches on the data connection.
            on_reply = self.on_reply
            if on_reply is not None:
                link.retire(delta.seq, lambda: on_reply(delta))

    def detach_node(self, node_id: str) -> List[bytes]:
        """Drop a node and return every payload it still owed us.

        The returned payloads (un-acked batches in seq order, then the
        undispatched buffer) are the redelivery set, already in the WAL and
        still counted in flight until :meth:`redeliver` re-routes them: a
        reply still on its way finds its batch gone and is dropped, so
        re-routing these to the surviving owners counts each verdict
        exactly once.
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
        link.dead = True  # no cut from here on: the rows are surrendered
        link.stream.close()  # its reader thread ends with the stream
        return [row for frame in link.surrender() for row in unframe_batch(frame)]

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

    def _route_locked(self, pair_key: int) -> Optional[_NodeLink]:
        """The live link that owns ``pair_key`` (route lock held), or None."""
        node = self.owner_of(routing_key_of(pair_key, self.tenant_of.get(pair_key)))
        return self._links.get(node)

    def submit(self, payload: bytes) -> bool:
        """Ingest one wire payload as a one-row chunk; returns False when it
        was rejected (precheck, or no owning node)."""
        with self._route_lock:
            self.submitted += 1
            if payload_precheck(payload) is not None:
                self.precheck_rejected += 1
                return False
            link = self._route_locked(int.from_bytes(payload[2:6], "big"))
            if link is None:
                self.dropped_no_node += 1
                return False
        self._buffer([(link, payload, 1)])
        return True

    def dead_letter_transport(self, payload: bytes, reason: str) -> None:
        """Count one datagram the report listener refused at the socket
        (wrong size or version) as :meth:`submit` counts a precheck
        reject: once in ``submitted``, once in ``precheck_rejected``.
        The frontend keeps no dead-letter queue; ``reason`` is dropped."""
        with self._route_lock:
            self.submitted += 1
            self.precheck_rejected += 1

    def submit_frame(self, frame: Frame) -> int:
        """Ingest a frame of pre-screened wire rows in one routing pass.

        The caller has screened the rows (the report listener, or
        :meth:`VeriDPCluster.submit_frame`) and dead-lettered the rejects
        through :meth:`dead_letter_transport`, as for either daemon.  One
        ``np.unique`` over the pair-key column replaces per-row
        route/append rounds; each owner's rows land in its link's
        frame-chunk buffer as one contiguous chunk.  Returns the rows
        accepted (ownerless rows count as ``dropped_no_node``).
        """
        count = frame.count
        if count == 0:
            return 0
        with self._route_lock:
            self.submitted += count
            targets = self._route_rows(frame.payload())
        return self._buffer(targets)

    def _route_rows(self, clean: bytes) -> List[Tuple[_NodeLink, bytes, int]]:
        """Fan screened rows out to their owners' links (route lock held):
        ``(link, chunk, rows)`` per owner, each owner's rows one contiguous
        chunk.  Ownerless rows count as ``dropped_no_node``."""
        if not clean:
            return []
        raw = np.frombuffer(clean, dtype=np.uint8).reshape(-1, REPORT_SIZE)
        uniq, inverse = np.unique(pair_keys(clean), return_inverse=True)
        # Map each unique pair key to a link slot (None = unroutable),
        # then fan rows out per slot in one mask pass each.
        slots: Dict[Optional[_NodeLink], int] = {}
        codes = np.empty(uniq.shape[0], dtype=np.int64)
        for j, key in enumerate(uniq.tolist()):
            codes[j] = slots.setdefault(self._route_locked(key), len(slots))
        row_slots = codes[inverse]
        targets = []
        for link, slot in slots.items():
            mask = row_slots == slot
            rows = int(mask.sum())
            if link is None:
                self.dropped_no_node += rows
            else:
                targets.append((link, raw[mask].tobytes(), rows))
        return targets

    def _buffer(self, targets: Iterable[Tuple[_NodeLink, bytes, int]]) -> int:
        """Offer ``(link, chunk, rows)`` to the links' books, dispatching
        each batch a book cuts; returns rows."""
        accepted = 0
        for link, chunk, rows in targets:
            accepted += rows
            batch = link.offer(chunk, rows)
            if batch is not None:
                self._send(link, *batch)
        return accepted

    def redeliver(self, payloads: List[bytes]) -> int:
        """Re-route a detached node's pending payloads; returns the count.

        The new owners' books adopt them as they are: in the WAL and
        counted in flight already.  A payload no node owns any more leaves
        the in-flight count as ``dropped_no_node``.
        """
        with self._route_lock:
            targets = self._route_rows(b"".join(payloads))
            count = sum(rows for _link, _chunk, rows in targets)
            self.redelivered_reports += count
        self.flight.add(count - len(payloads))
        for link, chunk, _rows in targets:
            batch = link.adopt([chunk])
            if batch is not None:
                self._send(link, *batch)
        return count

    # -- dispatch ----------------------------------------------------------

    def _send(self, link: _NodeLink, seq: int, frame: bytes, rows: int) -> None:
        """Ship one batch.  Runs without ``link.lock``: the reply reader
        needs that lock to retire batches, and it must keep draining the
        node's replies while this send waits for the node to read."""
        try:
            link.stream.send(MSG_BATCH, (seq, frame))
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
            batch = link.cut()
            if batch is not None:
                self._send(link, *batch)

    def wait_retired(self, timeout: float, node_ids=None) -> bool:
        """Wait until no accepted row is left in flight, or, with
        ``node_ids``, until those nodes answered every batch dispatched to
        them so far; False on timeout."""
        if node_ids is None:
            return self.flight.wait_for(lambda: self.flight.rows == 0, timeout)
        with self._route_lock:
            links = [self._links[n] for n in node_ids if n in self._links]
        marks = [(link, link.seq) for link in links]
        return self.flight.wait_for(
            lambda: all(link.answered(mark) for link, mark in marks), timeout
        )

    def pending(self, node_id: str) -> Tuple[int, int]:
        """(un-acked batches, buffered payloads) for one node."""
        with self._route_lock:
            link = self._links.get(node_id)
        if link is None:
            return (0, 0)
        with link.lock:
            return (len(link.unacked), link.rows)

    def unacked_batches(self) -> Dict[str, int]:
        """Batches each node has not answered yet, by node id."""
        with self._route_lock:
            return {node_id: len(link.unacked) for node_id, link in self._links.items()}

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
