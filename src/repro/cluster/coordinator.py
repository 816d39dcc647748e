"""Cluster coordinator: membership, placement and convergence.

The coordinator is the only component that holds the *authoritative*
path table (inside its :class:`~repro.core.server.VeriDPServer`); the
nodes hold compiled replicas of disjoint slices of it.  Its job is to
keep three views consistent under churn:

* **the ring** — which node owns which routing key (``tenant:<name>`` or
  ``pair:<key>``), smoothed with virtual nodes,
* **the placement map** — the frontend's routing truth, only ever
  flipped *after* the moved specs went out on the destination's link,
  ahead of every batch routed there,
* **the replicas** — kept current with the table through its
  dirty-pair journal (``table.dirty_since``), shipped as ``patch``
  deltas with a full ``reload`` fallback on journal overflow; every
  message's specs are packed over one node table
  (:func:`~repro.core.replica.pack_specs`).

Rebalance invariant (DESIGN.md §14): a pair's spec reaches its new owner
**before** routing flips, and leaves its old owner only **after** a
post-flip drain — so a correctly-routed report never meets a replica
without its pair, and "unknown pair" on a node is always either a race
the coordinator resolves by authoritative re-ingest, or a genuinely
unknown pair which re-ingest will also verdict correctly.

Verdict accounting is exactly-once and shared with the sharded daemon:
the frontend is the :class:`~repro.core.dispatch.Dispatcher` both shapes
run, and the coordinator keeps its :class:`~repro.core.dispatch.Books`.
Node counts surface only through batch replies (settled as they arrive,
each retiring its batch from its link's book under the book's lock), a
killed node's unanswered batches are redelivered, and unknown-pair
payloads are never counted remotely — only by the server's re-ingest in
the one settle.  Replica messages ride each node's one connection behind
the batches sent before them, so a patch applies before any batch routed
after it.
"""

from __future__ import annotations

import itertools
import threading
from typing import Dict, List, Optional, Tuple

from ..core.dispatch import Books
from ..core.replica import (
    Resync,
    VerdictFamilies,
    pack_specs,
    replica_digest,
    resync_specs,
    wire_packing,
)
from .frontend import ClusterFrontend, routing_key_of
from .node import start_node

__all__ = ["ClusterCoordinator"]


class ClusterCoordinator(Books):
    """Membership + placement + the cluster's verdict books over nodes."""

    def __init__(
        self,
        server,
        batch_size: int = 256,
        persist=None,
        node_mode: str = "thread",
        vnodes: int = 64,
        heartbeat_timeout: float = 3.0,
    ) -> None:
        self.frontend = ClusterFrontend(
            self.take,
            batch_size=batch_size,
            persist=persist if persist is not None else server.persist,
        )
        self.frontend.ring.vnodes = vnodes
        #: Node-side metrics: every batch reply's counts and figures are
        #: folded in as it arrives (the nodes keep none of their own).
        #: The frontend's registry, so the report listener's families
        #: land on the same ``/metrics``.
        self.registry = self.frontend.obs.registry
        Books.__init__(
            self,
            server,
            VerdictFamilies(self.registry, "node", tenants=True),
            incidents=[],
        )
        self.node_mode = node_mode
        self.heartbeat_timeout = heartbeat_timeout
        self._packing = wire_packing(server.hs.layout)
        self._lock = threading.RLock()  # membership + placement + resync
        self._ids = itertools.count(1)
        #: routing key -> {(in_wire, out_wire): spec} — the authoritative
        #: compiled view the replicas are sliced from.
        self._specs: Dict[str, Dict[Tuple[int, int], tuple]] = {}
        #: (in_wire, out_wire) -> owning tenant name ("" = unsliced).
        self._tenant: Dict[Tuple[int, int], str] = {}
        self.registry.gauge(
            "veridp_in_flight",
            "Rows the frontend accepted that have no verdict yet.",
            callback=lambda: self.frontend.flight.rows,
        )
        self.registry.gauge(
            "veridp_unacked_batches",
            "Batches dispatched to a node that it has not answered yet.",
            ("node",),
            callback=lambda: {
                (node,): count
                for node, count in self.frontend.unacked_batches().items()
            },
        )
        # churn counters (the rebalance-scope assertions read these)
        self.rebalances = 0
        self.moved_pairs = 0
        self.rebalance_patches = 0
        self.failovers = 0
        self.redelivered = 0
        with self.server_lock:
            sync = resync_specs(server.table, server.hs, server.codec, 1)
        self._load(sync.specs[0])
        self._replica_version, self._dirty_token = sync.version, sync.token

    # -- authoritative spec view -------------------------------------------

    def _load(self, specs: Dict[Tuple[int, int], tuple]) -> None:
        """Index a whole compiled table under routing keys (startup, full
        resync)."""
        self._specs.clear()
        self._tenant.clear()
        self.frontend.tenant_of.clear()
        for wire, spec in specs.items():
            self._admit_pair(wire, spec)

    def _key_of(self, wire: Tuple[int, int]) -> str:
        return routing_key_of((wire[0] << 16) | wire[1], self._tenant.get(wire, ""))

    def _admit_pair(self, wire: Tuple[int, int], spec) -> str:
        """Index one compiled pair under its routing key; returns the key."""
        slices = self.server.slices
        tenant = ""
        if slices is not None:
            tenant = slices.port_owner.get(self.server.codec.decode(wire[1]), "")
        self._tenant[wire] = tenant
        key = self._key_of(wire)
        self._specs.setdefault(key, {})[wire] = spec
        if tenant:
            self.frontend.tenant_of[(wire[0] << 16) | wire[1]] = tenant
        return key

    def _drop_pair(self, wire: Tuple[int, int]) -> str:
        key = self._key_of(wire)
        self._tenant.pop(wire, None)
        bucket = self._specs.get(key)
        if bucket is not None:
            bucket.pop(wire, None)
            if not bucket:
                del self._specs[key]
                self.frontend.placement.pop(key, None)
        return key

    def _replica_of(self, node_id: str) -> Dict[Tuple[int, int], tuple]:
        """The replica node ``node_id`` *should* hold, per placement."""
        replica: Dict[Tuple[int, int], tuple] = {}
        for key, owner in self.frontend.placement.items():
            if owner == node_id:
                replica.update(self._specs.get(key, {}))
        return replica

    def _message(self, kind: str, bucket: Dict) -> tuple:
        """One ``patch``/``reload`` message: the specs packed over one node
        table (:func:`~repro.core.replica.pack_specs`), ``None`` (drop the
        pair) kept, and the owning tenant of each pair that has one."""
        tenants = {wire: self._tenant[wire] for wire in bucket if wire in self._tenant}
        return (kind, pack_specs(bucket), tenants)

    # -- membership --------------------------------------------------------

    def members(self) -> List[str]:
        return self.frontend.nodes()

    def _ship(self, node_id: str, kind: str, bucket: Dict) -> int:
        """One ``patch``/``reload`` to one node, on its link; its bytes."""
        return self.frontend.ship({node_id: self._message(kind, bucket)})

    def start(self, nodes: int) -> List[str]:
        """Bootstrap: place all ``nodes`` ids on the ring first, then join
        each one with only the keys that final ring assigns to it.

        No node is loaded with a share it hands on at the next join: on a
        fresh cluster no key has an old owner, so the joins send no
        ``patch`` and count no rebalance.
        """
        with self._lock:
            ids = [f"node-{next(self._ids)}" for _ in range(nodes)]
            claims = self._claims(ids)
            return [self._join(node_id, claims[node_id]) for node_id in ids]

    def add_node(self, node_id: Optional[str] = None) -> str:
        """Spawn + join one node, moving only the keys its arcs claim."""
        with self._lock:
            node_id = node_id or f"node-{next(self._ids)}"
            return self._join(node_id, self._claims([node_id])[node_id])

    def _claims(self, node_ids: List[str]) -> Dict[str, Dict[str, Optional[str]]]:
        """Per joiner, ``{key: current owner}`` of the keys the ring with
        every one of ``node_ids`` added assigns to it."""
        ring = self.frontend.ring
        claims: Dict[str, Dict[str, Optional[str]]] = {n: {} for n in node_ids}
        for node_id in node_ids:
            ring.add(node_id)
        try:
            for key in self._specs:
                claimed = claims.get(ring.owner(key))
                if claimed is not None:
                    claimed[key] = self.frontend.placement.get(key)
        finally:
            for node_id in node_ids:
                ring.remove(node_id)
        return claims

    def _join(self, node_id: str, moved: Dict[str, Optional[str]]) -> str:
        """Spawn node ``node_id`` and hand it the ``moved`` keys
        (key -> old owner); the caller holds ``_lock``.

        Join order is the rebalance invariant in motion: (1) the new
        replica is loaded, (2) routing flips, (3) the old owners drain,
        (4) only then do the moved pairs leave the old replicas.
        """
        handle = start_node(node_id, self._packing, mode=self.node_mode)
        # 1. load the new replica before any batch can reach it.
        replica: Dict[Tuple[int, int], tuple] = {}
        for key in moved:
            replica.update(self._specs.get(key, {}))
        self.frontend.attach_node(
            node_id, handle.address, handle, self._message("reload", replica)
        )
        # 2. flip routing, 3. drain the old owners.
        for key in moved:
            self.frontend.placement[key] = node_id
        old_owners = sorted({o for o in moved.values() if o})
        if old_owners:
            self._drain(old_owners)
            # 4. the moved pairs leave the old replicas.
            for owner in old_owners:
                patch = {
                    wire: None
                    for key, old in moved.items()
                    if old == owner
                    for wire in self._specs.get(key, {})
                }
                if patch:
                    self._ship(owner, "patch", patch)
                    self.rebalance_patches += 1
            self.rebalances += 1
            self.moved_pairs += len(replica)
        return node_id

    def remove_node(self, node_id: str) -> None:
        """Graceful leave: move the replica, drain, stop the process."""
        with self._lock:
            link = self.frontend.link(node_id)
            if link is None:
                raise KeyError(f"unknown node {node_id!r}")
            moved = {
                key: owner
                for key, owner in self.frontend.placement.items()
                if owner == node_id
            }
            # Prospective owners, with the leaver off the ring.
            ring = self.frontend.ring
            ring.remove(node_id)
            try:
                new_owner_of = {key: ring.owner(key) for key in moved}
            finally:
                ring.add(node_id)
            # Ship the replica slices to the survivors, then flip routing:
            # each link carries its patch ahead of the batches routed after.
            patches = self._reassign(new_owner_of)
            self._drain([node_id])
            self.redelivered += self.frontend.redeliver(
                self.frontend.detach_node(node_id)
            )
            if patches:
                self.rebalance_patches += len(patches)
                self.rebalances += 1
                self.moved_pairs += sum(len(p) for p in patches.values())
            link.member.stop()

    def _reassign(self, new_owner_of: Dict[str, Optional[str]]) -> Dict[str, Dict]:
        """Send each key's pairs to its new owner, then pin the key there;
        returns the patches by owner."""
        patches: Dict[str, Dict] = {}
        for key, new_owner in new_owner_of.items():
            if new_owner is not None:
                patches.setdefault(new_owner, {}).update(self._specs.get(key, {}))
        for owner, patch in patches.items():
            self._ship(owner, "patch", patch)
        for key, new_owner in new_owner_of.items():
            if new_owner is not None:
                self.frontend.placement[key] = new_owner
        return patches

    def kill_node(self, node_id: str) -> None:
        """Chaos hook: SIGKILL/stop the node with no drain whatsoever."""
        link = self.frontend.link(node_id)
        if link is None:
            raise KeyError(f"unknown node {node_id!r}")
        link.end()

    # -- member failure ----------------------------------------------------

    def check_nodes(self) -> List[str]:
        """Probe every member and fail over the ones that are gone: dead,
        or a ping left unanswered past ``heartbeat_timeout``."""
        with self._lock:
            dead = [
                probe.worker_id
                for probe in self.frontend.probes()
                if not probe.alive or probe.heartbeat_age > self.heartbeat_timeout
            ]
            for node_id in dead:
                self._failover(node_id)
        return dead

    def _failover(self, node_id: str) -> None:
        """Reassign a dead node's keys and redeliver its un-acked work."""
        link = self.frontend.link(node_id)
        if link is not None:
            link.end()
        orphaned = [
            key
            for key, owner in self.frontend.placement.items()
            if owner == node_id
        ]
        # detach first: takes the node off the ring so owner() below is
        # computed against the surviving membership, and surrenders the
        # un-acked batches (no reply for them can be counted any more, so
        # redelivering these counts every verdict exactly once).
        pending = self.frontend.detach_node(node_id)
        self._reassign({key: self.frontend.ring.owner(key) for key in orphaned})
        self.failovers += 1
        self.redelivered += self.frontend.redeliver(pending)

    # -- replica resync (the PR 5 protocol over sockets) -------------------

    def resync(self) -> Optional[int]:
        """Bring replicas up to date with the table via the dirty journal
        (:meth:`Books.resync`), each pair's change to its owner.

        Returns patched-pair count, 0 when already current, ``None`` when
        the journal overflowed and full reloads were shipped instead.
        """
        with self._lock:
            return super().resync()

    def _ship_sync(self, sync: Resync) -> int:
        if sync.full:
            # journal overflow / table swap: rebuild everything.
            self._load(sync.specs[0])
            self._place_new_keys()
            return sum(
                self._ship(node_id, "reload", self._replica_of(node_id))
                for node_id in self.frontend.nodes()
            )
        patches: Dict[str, Dict] = {}
        for wire, spec in sync.specs[0].items():
            if spec is None:
                # Resolve the owner BEFORE dropping: removing the last
                # pair of a bucket also retires its placement entry,
                # and the drop-patch must still reach the old owner.
                key = self._key_of(wire)
                owner = self.frontend.placement.get(key)
                if owner is None:
                    owner = self.frontend.ring.owner(key)
                self._drop_pair(wire)
            else:
                key = self._admit_pair(wire, spec)
                owner = self.frontend.placement.get(key)
                if owner is None:
                    owner = self.frontend.ring.owner(key)
                    if owner is not None:
                        self.frontend.placement[key] = owner
            if owner is not None:
                patches.setdefault(owner, {})[wire] = spec
        return sum(
            self._ship(node_id, "patch", patch) for node_id, patch in patches.items()
        )

    def _place_new_keys(self) -> None:
        """Pin every un-placed routing key to its ring owner."""
        for key in self._specs:
            if key not in self.frontend.placement:
                owner = self.frontend.ring.owner(key)
                if owner is not None:
                    self.frontend.placement[key] = owner

    # -- drain / aggregation -----------------------------------------------

    def _drain(self, node_ids: List[str], timeout: float = 10.0) -> None:
        """Dispatch the buffers, then wait until ``node_ids`` answered every
        batch sent so far (a rebalance's post-flip drain).  A node that
        does not answer in time keeps its batches un-acked for failover."""
        self.frontend.flush_buffers()
        self.frontend.wait_retired(timeout, node_ids)

    def join(self, timeout: float = 30.0) -> None:
        """Dispatch the buffers and wait until every accepted row has its
        verdict (end of stream); ``TimeoutError`` past ``timeout``."""
        self.frontend.join_rows(timeout)

    # -- convergence -------------------------------------------------------

    def digests(self, timeout: float = 10.0) -> Dict[str, str]:
        """Each node's replica fingerprint, by node id."""
        return self.frontend.digests(timeout)

    def expected_digests(self) -> Dict[str, str]:
        """What each node's fingerprint *must* be, from the placement map."""
        with self._lock:
            return {
                node_id: replica_digest(self._replica_of(node_id))
                for node_id in self.frontend.nodes()
            }

    def converged(self) -> bool:
        return self.digests() == self.expected_digests()

    # -- exposure ----------------------------------------------------------

    def tenant_totals(self) -> Dict[str, float]:
        """Fleet-wide per-tenant report totals (node label summed out)."""
        snapshot = self.registry.snapshot()
        entry = snapshot.get("veridp_cluster_tenant_reports_total")
        totals: Dict[str, float] = {}
        if entry is None:
            return totals
        tenant_at = entry["labelnames"].index("tenant")
        for labels, value in entry["values"].items():
            tenant = labels[tenant_at]
            totals[tenant] = totals.get(tenant, 0) + value
        return totals

    def stats(self) -> Dict[str, object]:
        with self._books_lock:
            out: Dict[str, object] = {
                "processed": self.processed,
                "malformed": self.malformed,
                "crashed": self.verify_errors,
                "counters": {v.value: n for v, n in self.counters.items()},
                "unknown_reingested": self.unknown_reingested,
                "incidents": len(self.incidents),
            }
        out["in_flight"] = self.frontend.flight.rows
        with self._lock:
            out.update({
                "nodes": len(self.frontend.nodes()),
                "rebalances": self.rebalances,
                "moved_pairs": self.moved_pairs,
                "rebalance_patches": self.rebalance_patches,
                "failovers": self.failovers,
                "redelivered": self.redelivered,
                "resyncs": self.resyncs,
                "resync_pairs": self.resync_pairs,
                "full_resyncs": self.full_resyncs,
                "resync_delta_bytes": self.resync_delta_bytes,
            })
        out["frontend"] = self.frontend.stats()
        out["tenants"] = self.tenant_totals()
        return out

    def metrics_endpoint(self, host: str = "127.0.0.1", port: int = 0):
        """An HTTP ``/metrics`` endpoint over the folded node families
        (and the report listener's, once the cluster listens)."""
        return self.frontend.obs.endpoint(
            host=host, port=port, varz=self.stats
        )

    # -- lifecycle ---------------------------------------------------------

    def stop(self) -> None:
        for node_id in self.frontend.nodes():
            link = self.frontend.link(node_id)
            self.frontend.detach_node(node_id)
            if link is not None:
                link.member.stop()
        self.frontend.close()
