"""Cluster ingestion frontend: consistent routing over the dispatcher.

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
  flipped *after* its compiled pair spec was sent to the new owner, so a
  routed report never races its own replica,
* the **hash ring** as the fallback for keys the coordinator has not
  pinned (fresh pairs mid-churn); a miss on the far side comes back in
  the batch reply and is re-ingested by the coordinator, so the fallback
  only costs latency, never correctness.

Tenant awareness (PR 8): every pair owned by a slice routes under the key
``tenant:<name>`` instead of ``pair:<key>``, so one tenant's pairs — and
with them its isolation-recheck work and footprint BDDs — land on a
single node rather than replicating everywhere.

Everything else is the :class:`~repro.core.dispatch.Dispatcher` the
sharded daemon runs: one TCP link per node (a
:class:`~repro.cluster.protocol.MessageStream` to the node's member loop),
whose :class:`~repro.core.delivery.DeliveryBook` logs a batch once and
holds it un-acked until the reply handler retires it, one intake thread
for every node's replies, and the surrender and redelivery of a dead
node's rows.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from ..core.dispatch import Dispatcher, Link
from ..core.ingest import pair_keys
from ..core.replica import Delta, unframe_batch
from ..core.reports import REPORT_SIZE, Frame, payload_precheck
from ..obs import Observability
from .protocol import MessageStream
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


class ClusterFrontend(Dispatcher):
    """Route report payloads to verification nodes, exactly once.

    Thread-safe: the report listener's thread, the reply intake, the
    coordinator and test harnesses may all call in concurrently.

    ``on_reply(link, delta)`` is called on the intake thread for each
    batch reply; a handler acks the batch by retiring it from the link's
    book (the coordinator's :meth:`~repro.core.dispatch.Books.take`), and
    that is the only way a batch retires.  A reply that finds its batch
    gone (surrendered by :meth:`detach_node`) is dropped: the redelivery
    counts that batch.
    """

    def __init__(
        self,
        on_reply: Callable[[Link, Delta], None],
        batch_size: int = 256,
        persist=None,
    ) -> None:
        # WAL-before-verify at batch granularity: each cut is one
        # RT_REPORT_BATCH record, durable before any node sees it.
        log = None if persist is None else persist.log_report_frame
        super().__init__(on_reply, max(1, int(batch_size)), log)
        self.persist = persist
        #: The cluster's one metrics bundle: the coordinator folds the
        #: nodes' families into its registry, the report listener
        #: registers its ``veridp_udp_*`` families there.
        self.obs = Observability()
        self.ring = HashRing()
        #: routing key -> node_id, maintained by the coordinator.
        self.placement: Dict[str, str] = {}
        #: wire pair key32 -> tenant name, from the slice registry.
        self.tenant_of: Dict[int, str] = {}
        self.precheck_rejected = 0
        self.dropped_no_node = 0

    # -- membership (coordinator-driven) -----------------------------------

    def attach_node(
        self, node_id: str, address: Tuple[str, int], handle=None, replica=None
    ) -> None:
        """Connect to a node and route to it; ``replica`` (a ``reload``
        message) goes out before any batch can.  ``handle`` is the
        node's :class:`~repro.cluster.node.NodeHandle`, if the link owns
        the node."""
        link = Link(
            node_id,
            MessageStream.connect(address),
            handle,
            self.flight,
            self.batch_size,
            self.log,
        )
        if replica is not None:
            link.send(replica)
        self._swap(node_id, link)
        with self._lock:
            if node_id not in self.ring:
                self.ring.add(node_id)

    def detach_node(self, node_id: str) -> List[bytes]:
        """Drop a node and return every payload it still owed us.

        The returned payloads (un-acked batches in seq order, then the
        undispatched buffer) are the redelivery set, already in the WAL and
        still counted in flight until :meth:`redeliver` re-routes them: a
        reply still on its way finds its batch gone and is dropped, so
        re-routing these to the surviving owners counts each verdict
        exactly once.
        """
        with self._lock:
            if node_id in self.ring:
                self.ring.remove(node_id)
            self.placement = {
                key: owner
                for key, owner in self.placement.items()
                if owner != node_id
            }
        return [row for frame in self._swap(node_id) for row in unframe_batch(frame)]

    def link(self, node_id: str) -> Optional[Link]:
        return self._links.get(node_id)

    def nodes(self) -> List[str]:
        with self._lock:
            return sorted(self._links)

    # -- routing -----------------------------------------------------------

    def owner_of(self, key: str) -> Optional[str]:
        node = self.placement.get(key)
        if node is not None and node in self._links:
            return node
        return self.ring.owner(key)

    def _route(self, clean: bytes) -> List[Tuple[Link, bytes, int]]:
        """Fan screened rows out to their owners' links (``_lock`` held):
        ``(link, chunk, rows)`` per owner, each owner's rows one contiguous
        chunk.  Ownerless rows count as ``dropped_no_node``."""
        if not clean:
            return []
        raw = np.frombuffer(clean, dtype=np.uint8).reshape(-1, REPORT_SIZE)
        uniq, inverse = np.unique(pair_keys(clean), return_inverse=True)
        # Map each unique pair key to a link slot (None = unroutable),
        # then fan rows out per slot in one mask pass each.
        slots: Dict[Optional[Link], int] = {}
        codes = np.empty(uniq.shape[0], dtype=np.int64)
        for j, key in enumerate(uniq.tolist()):
            owner = self.owner_of(routing_key_of(key, self.tenant_of.get(key)))
            codes[j] = slots.setdefault(self._links.get(owner), len(slots))
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

    def submit(self, payload: bytes) -> bool:
        """Ingest one wire payload as a one-row frame; returns False when it
        was rejected (precheck, or no owning node)."""
        if payload_precheck(payload) is not None:
            self.dead_letter_transport(payload, "precheck")
            return False
        return self._dispatch(payload, 1) == 1

    def dead_letter_transport(self, payload: bytes, reason: str) -> None:
        """Count one datagram the report listener refused at the socket
        (wrong size or version) as :meth:`submit` counts a precheck
        reject: once in ``submitted``, once in ``precheck_rejected``.
        The frontend keeps no dead-letter queue; ``reason`` is dropped."""
        with self._lock:
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
        if frame.count == 0:
            return 0
        return self._dispatch(frame.payload(), frame.count)

    # -- introspection -----------------------------------------------------

    def pending(self, node_id: str) -> Tuple[int, int]:
        """(un-acked batches, buffered payloads) for one node."""
        link = self._links.get(node_id)
        if link is None:
            return (0, 0)
        with link.lock:
            return (len(link.unacked), link.rows)

    def unacked_batches(self) -> Dict[str, int]:
        """Batches each node has not answered yet, by node id."""
        with self._lock:
            return {node_id: len(link.unacked) for node_id, link in self._links.items()}

    def stats(self) -> Dict[str, int]:
        with self._lock:
            return {
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
