"""Cluster coordinator: membership, placement and convergence.

The coordinator is the only component that holds the *authoritative*
path table (inside its :class:`~repro.core.server.VeriDPServer`); the
nodes hold compiled replicas of disjoint slices of it.  Its job is to
keep three views consistent under churn:

* **the ring** — which node owns which routing key (``tenant:<name>`` or
  ``pair:<key>``), smoothed with virtual nodes,
* **the placement map** — the frontend's routing truth, only ever
  flipped *after* the destination replica holds the moved specs,
* **the replicas** — kept current with the table through its
  dirty-pair journal (``table.dirty_since``), shipped as ``MSG_PATCH``
  deltas with a full ``MSG_RELOAD`` fallback on journal overflow; every
  body is packed over one node table (:func:`~repro.core.replica.pack_specs`).

Rebalance invariant (DESIGN.md §14): a pair's spec reaches its new owner
**before** routing flips, and leaves its old owner only **after** a
post-flip drain — so a correctly-routed report never meets a replica
without its pair, and "unknown pair" on a node is always either a race
the coordinator resolves by authoritative re-ingest, or a genuinely
unknown pair which re-ingest will also verdict correctly.

Verdict accounting is exactly-once: node counts surface only through
batch replies (merged here as they arrive, each retiring its batch from
the frontend's un-acked map under the link's lock), a killed node's
unanswered batches are redelivered, and unknown-pair payloads are never
counted remotely — only by the coordinator's own re-ingest.
"""

from __future__ import annotations

import itertools
import threading
import time
from typing import Dict, List, Optional, Tuple

from ..core.replica import (
    Delta,
    Resync,
    VerdictFamilies,
    pack_specs,
    replica_digest,
    resync_specs,
    wire_packing,
)
from ..core.reports import ReportDecodeError
from .frontend import ClusterFrontend, routing_key_of
from .node import NodeHandle, start_node
from .protocol import (
    MSG_DIGEST,
    MSG_DIGEST_REPLY,
    MSG_PATCH,
    MSG_PING,
    MSG_PONG,
    MSG_RELOAD,
    MessageStream,
)

__all__ = ["ClusterCoordinator"]

from ..core.verifier import Verdict

_SAMPLE_CAP = 256


class _Member:
    """One live node from the coordinator's side: handle + control stream."""

    def __init__(self, handle: NodeHandle, control: MessageStream) -> None:
        self.node_id = handle.node_id
        self.handle = handle
        self.control = control
        #: Serialises request/reply turns on the control stream.
        self.lock = threading.Lock()
        self._tokens = itertools.count(1)

    def token(self) -> int:
        return next(self._tokens)


class ClusterCoordinator:
    """Membership + placement + aggregation over verification nodes."""

    def __init__(
        self,
        server,
        frontend: Optional[ClusterFrontend] = None,
        node_mode: str = "thread",
        vnodes: int = 64,
        heartbeat_timeout: float = 3.0,
    ) -> None:
        self.server = server
        self.frontend = frontend or ClusterFrontend(persist=server.persist)
        self.frontend.ring.vnodes = vnodes
        self.node_mode = node_mode
        self.heartbeat_timeout = heartbeat_timeout
        self._packing = wire_packing(server.hs.layout)
        self._members: Dict[str, _Member] = {}
        self._lock = threading.RLock()  # membership + placement + resync
        self._ids = itertools.count(1)
        #: routing key -> {(in_wire, out_wire): spec} — the authoritative
        #: compiled view the replicas are sliced from.
        self._specs: Dict[str, Dict[Tuple[int, int], tuple]] = {}
        #: (in_wire, out_wire) -> owning tenant name ("" = unsliced).
        self._tenant: Dict[Tuple[int, int], str] = {}
        self._dirty_token = None
        self._replica_version = -1
        #: Guards the ledger below; batch replies are merged on the links'
        #: reader threads, which never take ``_lock``.
        self._ledger_lock = threading.Lock()
        #: Serialises the authoritative server between those merges and
        #: the resync that reads its table.
        self._server_lock = threading.Lock()
        #: Node-side metrics: every batch reply's counts and figures are
        #: folded in as it arrives (the nodes keep none of their own).
        #: The frontend's registry, so the report listener's families
        #: land on the same ``/metrics``.
        self.registry = self.frontend.obs.registry
        self._node_families = VerdictFamilies(self.registry, "node", tenants=True)
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
        # cluster ledger
        self.processed = 0
        self.malformed = 0
        self.crashed = 0
        self.counters = {v.value: 0 for v in Verdict}
        self.unknown_reingested = 0
        self.incidents: List[Tuple[bytes, str]] = []
        self.malformed_sample: List[bytes] = []
        # churn counters (the rebalance-scope assertions read these)
        self.rebalances = 0
        self.moved_pairs = 0
        self.rebalance_patches = 0
        self.failovers = 0
        self.redelivered = 0
        self.resyncs = 0
        self.resync_pairs = 0
        self.full_resyncs = 0
        self.resync_delta_bytes = 0
        self.frontend.on_reply = self._merge_reply
        sync = self._sync()
        self._load(sync.specs[0])
        self._replica_version, self._dirty_token = sync.version, sync.token

    # -- authoritative spec view -------------------------------------------

    def _sync(self) -> Resync:
        """The pair specs since the last sync (the whole table at first)."""
        server = self.server
        with self._server_lock:
            return resync_specs(
                server.table, server.hs, server.codec, 1, self._dirty_token
            )

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

    def _tagged(self, bucket: Dict[Tuple[int, int], Optional[tuple]]) -> Dict:
        """One ``MSG_RELOAD``/``MSG_PATCH`` body: the specs packed over one
        node table (:func:`~repro.core.replica.pack_specs`), each tagged
        with its tenant; ``None`` (drop the pair) stays ``None``."""
        return {
            wire: None if spec is None else (spec, self._tenant.get(wire, ""))
            for wire, spec in pack_specs(bucket).items()
        }

    # -- membership --------------------------------------------------------

    def members(self) -> List[str]:
        with self._lock:
            return sorted(self._members)

    def start(self, nodes: int) -> List[str]:
        """Bootstrap: place all ``nodes`` ids on the ring first, then join
        each one with only the keys that final ring assigns to it.

        No node is loaded with a share it hands on at the next join: on a
        fresh cluster no key has an old owner, so the joins send no
        ``MSG_PATCH`` and count no rebalance.
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
        control = MessageStream.connect(handle.address)
        member = _Member(handle, control)
        # 1. load the new replica before any routing can reach it.
        replica: Dict[Tuple[int, int], tuple] = {}
        for key in moved:
            replica.update(self._specs.get(key, {}))
        control.send(MSG_RELOAD, self._tagged(replica))
        self._await_applied(member)
        self._members[node_id] = member
        self.frontend.attach_node(node_id, handle.address)
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
                    self._members[owner].control.send(MSG_PATCH, self._tagged(patch))
                    self.rebalance_patches += 1
            self.rebalances += 1
            self.moved_pairs += len(replica)
        return node_id

    def remove_node(self, node_id: str) -> None:
        """Graceful leave: drain, move the replica, stop the process."""
        with self._lock:
            member = self._members.get(node_id)
            if member is None:
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
            # Ship the replica slices to the survivors first.
            patches: Dict[str, Dict] = {}
            for key, new_owner in new_owner_of.items():
                if new_owner is None:
                    continue
                patches.setdefault(new_owner, {}).update(self._specs.get(key, {}))
            for owner, patch in patches.items():
                self._members[owner].control.send(MSG_PATCH, self._tagged(patch))
                self.rebalance_patches += 1
            for owner in patches:
                self._await_applied(self._members[owner])
            # Flip routing, then drain the leaver completely.
            for key, new_owner in new_owner_of.items():
                if new_owner is not None:
                    self.frontend.placement[key] = new_owner
            self._drain([node_id])
            pending = self.frontend.detach_node(node_id)
            del self._members[node_id]
            # The drain above empties it, short of a node that stopped
            # answering mid-leave.
            self.redelivered += self.frontend.redeliver(pending)
            if patches:
                self.rebalances += 1
                self.moved_pairs += sum(len(p) for p in patches.values())
            member.control.close()
            member.handle.stop()

    def kill_node(self, node_id: str) -> None:
        """Chaos hook: SIGKILL/stop the node with no drain whatsoever."""
        with self._lock:
            member = self._members.get(node_id)
        if member is None:
            raise KeyError(f"unknown node {node_id!r}")
        member.handle.kill()

    # -- failure detection -------------------------------------------------

    def check_nodes(self) -> List[str]:
        """Heartbeat every member; fail over the ones that are gone."""
        dead: List[str] = []
        with self._lock:
            for node_id, member in list(self._members.items()):
                if not member.handle.alive():
                    dead.append(node_id)
                    continue
                try:
                    with member.lock:
                        token = member.token()
                        member.control.send(MSG_PING, (token,))
                        mtype, body = member.control.recv(
                            timeout=self.heartbeat_timeout
                        )
                    if mtype != MSG_PONG or body[1] != token:
                        dead.append(node_id)
                except (OSError, ConnectionError):
                    dead.append(node_id)
            for node_id in dead:
                self._failover(node_id)
        return dead

    def _failover(self, node_id: str) -> None:
        """Reassign a dead node's keys and redeliver its un-acked work."""
        member = self._members.pop(node_id, None)
        if member is not None:
            member.control.close()
            member.handle.kill()
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
        patches: Dict[str, Dict] = {}
        for key in orphaned:
            new_owner = self.frontend.ring.owner(key)
            if new_owner is None:
                continue
            patches.setdefault(new_owner, {}).update(self._specs.get(key, {}))
            self.frontend.placement[key] = new_owner
        for owner, patch in patches.items():
            self._members[owner].control.send(MSG_PATCH, self._tagged(patch))
        self.failovers += 1
        self.redelivered += self.frontend.redeliver(pending)

    # -- replica resync (the PR 5 protocol over sockets) -------------------

    def resync(self) -> Optional[int]:
        """Bring replicas up to date with the table via the dirty journal.

        Returns patched-pair count, 0 when already current, ``None`` when
        the journal overflowed and full reloads were shipped instead.
        """
        with self._lock:
            if self.server.table.version == self._replica_version:
                return 0
            sync = self._sync()
            self._replica_version, self._dirty_token = sync.version, sync.token
            if sync.full:
                # journal overflow / table swap: rebuild everything.
                self._load(sync.specs[0])
                self._place_new_keys()
                for node_id, member in self._members.items():
                    body = self._tagged(self._replica_of(node_id))
                    self.resync_delta_bytes += member.control.send(
                        MSG_RELOAD, body
                    )
                for member in self._members.values():
                    self._await_applied(member)
                self.resyncs += 1
                self.full_resyncs += 1
                return None
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
                    if owner is not None:
                        patches.setdefault(owner, {})[wire] = None
                else:
                    key = self._admit_pair(wire, spec)
                    owner = self.frontend.placement.get(key)
                    if owner is None:
                        owner = self.frontend.ring.owner(key)
                        if owner is not None:
                            self.frontend.placement[key] = owner
                    if owner is not None:
                        patches.setdefault(owner, {})[wire] = spec
            for node_id, patch in patches.items():
                member = self._members.get(node_id)
                if member is not None:
                    self.resync_delta_bytes += member.control.send(
                        MSG_PATCH, self._tagged(patch)
                    )
            for node_id in patches:
                member = self._members.get(node_id)
                if member is not None:
                    self._await_applied(member)
            self.resyncs += 1
            self.resync_pairs += len(sync.specs[0])
            return len(sync.specs[0])

    def _await_applied(self, member: _Member, timeout: float = 10.0) -> None:
        """Barrier: block until the member has applied every control
        message sent so far.

        ``MSG_PATCH``/``MSG_RELOAD`` carry no reply of their own, and
        batches travel on a *different* connection — so without a
        barrier, ``resync()`` could return while a node still verifies
        against its stale replica, and a batch dispatched immediately
        after would be judged by the old spec (wrong verdict, not
        unknown-pair).  The control stream is FIFO and the node applies
        each message under its state lock before reading the next, so a
        ping round-trip on the same stream proves the patches are live
        (without a digest's pass over every compiled pair).  A dead member
        is left for ``check_nodes`` to fail over.
        """
        try:
            with member.lock:
                token = member.token()
                member.control.send(MSG_PING, (token,))
                while True:
                    mtype, body = member.control.recv(timeout=timeout)
                    if mtype == MSG_PONG and body[1] == token:
                        return
        except (OSError, ConnectionError):
            return

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

    def _merge_reply(self, delta: Delta) -> None:
        """Fold one batch reply into the ledger (the frontend's
        :attr:`~ClusterFrontend.on_reply`, called with the link's lock
        held, so a failover cannot surrender this batch meanwhile)."""
        # One intake call on the authoritative server takes the failures
        # (localization and the incident log; the ledger counts them from
        # the node's counters) and the unknown-pair payloads, which only
        # the authoritative table can verdict (routing race vs genuinely
        # unknown pair).
        rows = [payload for payload, _verdict in delta.failures] + delta.unknown
        outcomes = []
        if rows:
            with self._server_lock:
                self.server.maybe_flush_updates()
                self.server.refresh_if_dirty()
                outcomes = self.server.receive_report_rows(rows)
                # This path has no dead letters: the server counts the rows
                # its codec rejected, as try_receive_report_bytes would.
                self.server.decode_errors += sum(
                    isinstance(outcome, ReportDecodeError) for outcome in outcomes
                )
        self._node_families.fold(delta)
        with self._ledger_lock:
            self.processed += delta.processed
            self.malformed += delta.malformed
            self.crashed += len(delta.crashed)
            for verdict, count in delta.counters.items():
                self.counters[verdict] += count
            for payload in delta.malformed_sample:
                if len(self.malformed_sample) < _SAMPLE_CAP:
                    self.malformed_sample.append(payload)
            self.incidents.extend(delta.failures)
            unknown = zip(delta.unknown, outcomes[len(delta.failures) :])
            for payload, outcome in unknown:
                self.unknown_reingested += 1
                if isinstance(outcome, ReportDecodeError):
                    self.malformed += 1
                elif isinstance(outcome, Exception):
                    self.crashed += 1
                else:
                    verdict = outcome.verdict.value
                    self.processed += 1
                    self.counters[verdict] += 1
                    if verdict != Verdict.PASS.value:
                        self.incidents.append((payload, verdict))

    def join(self, timeout: float = 30.0) -> None:
        """Dispatch the buffers and wait until every accepted row has its
        verdict (end of stream)."""
        deadline = time.monotonic() + timeout
        while True:
            self.frontend.flush_buffers()
            remaining = deadline - time.monotonic()
            if self.frontend.wait_retired(max(0.0, min(0.05, remaining))):
                break
            if remaining <= 0:
                raise TimeoutError(
                    f"cluster join timed out with {self.frontend.flight.rows} "
                    "rows in flight"
                )

    # -- convergence -------------------------------------------------------

    def digests(self, timeout: float = 10.0) -> Dict[str, str]:
        """Each node's replica fingerprint, by node id."""
        out: Dict[str, str] = {}
        with self._lock:
            members = list(self._members.values())
        for member in members:
            with member.lock:
                token = member.token()
                member.control.send(MSG_DIGEST, (token,))
                while True:
                    mtype, body = member.control.recv(timeout=timeout)
                    if mtype == MSG_DIGEST_REPLY and body[1] == token:
                        break
            out[body[0]] = body[2]
        return out

    def expected_digests(self) -> Dict[str, str]:
        """What each node's fingerprint *must* be, from the placement map."""
        with self._lock:
            return {
                node_id: replica_digest(self._replica_of(node_id))
                for node_id in self._members
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
        with self._ledger_lock:
            out: Dict[str, object] = {
                "processed": self.processed,
                "malformed": self.malformed,
                "crashed": self.crashed,
                "counters": dict(self.counters),
                "unknown_reingested": self.unknown_reingested,
                "incidents": len(self.incidents),
            }
        out["in_flight"] = self.frontend.flight.rows
        with self._lock:
            out.update({
                "nodes": len(self._members),
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
        with self._lock:
            node_ids = list(self._members)
        for node_id in node_ids:
            member = self._members.pop(node_id, None)
            if member is None:
                continue
            self.frontend.detach_node(node_id)
            member.control.close()
            member.handle.stop()
