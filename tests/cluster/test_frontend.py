"""Ingestion frontend: routing, batching, acks, and the report socket."""

import socket
import time

import pytest

from repro.cluster import VeriDPCluster
from repro.cluster.frontend import ClusterFrontend, routing_key_of
from repro.cluster.node import VerificationNode
from repro.core.direct import VeriDPDaemon
from repro.core.listener import UdpReportListener
from repro.core.reports import REPORT_SIZE

from .conftest import healthy_payloads, packing_of, routing_key

JOIN_DEADLINE = 20.0


def wait_for(predicate, deadline=JOIN_DEADLINE):
    end = time.monotonic() + deadline
    while time.monotonic() < end:
        if predicate():
            return True
        time.sleep(0.01)
    return predicate()


class Recorder:
    """A reply handler that records every batch reply and acks (retires
    the batch) only when ``ack`` is set."""

    def __init__(self):
        self.replies = []
        self.ack = False

    def __call__(self, link, delta):
        self.replies.append(delta)
        if self.ack:
            link.retire(delta.seq)


def ignore(link, delta):
    """A reply handler for frontends that never dispatch."""


@pytest.fixture
def fleet(rig):
    """A frontend wired to two live (replica-less) nodes, whose replies
    a :class:`Recorder` takes."""
    _, server, _ = rig
    packing = packing_of(server)
    nodes = {
        name: VerificationNode(name, packing).start()
        for name in ("n1", "n2")
    }
    recorder = Recorder()
    frontend = ClusterFrontend(recorder, batch_size=8)
    frontend.recorder = recorder
    for name, node in nodes.items():
        frontend.attach_node(name, node.address)
    yield frontend, nodes
    for name in list(frontend.nodes()):
        frontend.detach_node(name)
    for node in nodes.values():
        node.stop()


class TestRouting:
    def test_routing_key_is_tenant_aware(self):
        assert routing_key_of(0x00010002, None) == "pair:65538"
        assert routing_key_of(0x00010002, "") == "pair:65538"
        assert routing_key_of(0x00010002, "red") == "tenant:red"
        # Two pairs of one tenant share a routing key (→ one node).
        assert routing_key_of(7, "red") == routing_key_of(9, "red")

    def test_placement_overrides_the_ring(self, fleet, rig):
        scenario, server, net = rig
        frontend, _ = fleet
        payload = healthy_payloads(scenario, net, 1)[0]
        key = routing_key(frontend, payload)
        ring_owner = frontend.ring.owner(key)
        other = next(n for n in frontend.nodes() if n != ring_owner)
        frontend.placement[key] = other
        assert frontend.owner_of(key) == other
        # A placement entry naming a detached node falls back to the ring.
        frontend.placement[key] = "ghost"
        assert frontend.owner_of(key) == ring_owner

    def test_submit_without_nodes_is_counted_drop(self, rig):
        scenario, _, net = rig
        frontend = ClusterFrontend(ignore)
        payload = healthy_payloads(scenario, net, 1)[0]
        assert frontend.submit(payload) is False
        assert frontend.stats()["dropped_no_node"] == 1

    def test_precheck_rejects_garbage_before_routing(self):
        frontend = ClusterFrontend(ignore)
        assert frontend.submit(b"\x00" * 5) is False
        stats = frontend.stats()
        assert stats["precheck_rejected"] == 1
        assert stats["dropped_no_node"] == 0


class TestDispatch:
    def test_batches_dispatch_at_batch_size(self, fleet, rig):
        scenario, server, net = rig
        frontend, _ = fleet
        payloads = healthy_payloads(scenario, net, 64)
        for payload in payloads:
            assert frontend.submit(payload)
        frontend.flush_buffers()
        stats = frontend.stats()
        assert stats["submitted"] == 64
        assert stats["dispatched_reports"] == 64
        assert stats["dispatched_batches"] >= 64 // 8

    def test_ack_retires_unacked_batches(self, fleet, rig):
        scenario, server, net = rig
        frontend, _ = fleet
        frontend.recorder.ack = True
        replies = frontend.recorder.replies
        for payload in healthy_payloads(scenario, net, 64):
            frontend.submit(payload)
        frontend.flush_buffers()
        assert frontend.wait_retired(JOIN_DEADLINE)
        # One reply per batch retired it; the replica-less nodes set every
        # row aside as an unknown pair.
        assert len(replies) == frontend.stats()["dispatched_batches"]
        assert sum(len(delta.unknown) for delta in replies) == 64
        for name in frontend.nodes():
            assert frontend.pending(name) == (0, 0)

    def test_detach_surrenders_unacked_and_buffered(self, fleet, rig):
        scenario, server, net = rig
        frontend, _ = fleet  # its recorder does not ack: nothing retires
        payloads = healthy_payloads(scenario, net, 20)
        routed = {n: [] for n in frontend.nodes()}
        for payload in payloads:
            frontend.submit(payload)
            owner = frontend.owner_of(routing_key(frontend, payload))
            routed[owner].append(payload)
        victim = max(routed, key=lambda n: len(routed[n]))
        pending = frontend.detach_node(victim)
        # Everything routed to the victim comes back — dispatched-but-
        # unacked batches unframed plus the partial buffer, in order.
        assert sorted(pending) == sorted(routed[victim])
        assert victim not in frontend.nodes()
        redelivered = frontend.redeliver(pending)
        assert redelivered == len(pending)
        # Redelivery does not double-count submissions.
        assert frontend.stats()["submitted"] == 20

    def test_handler_error_ends_only_its_link(self, fleet, rig):
        """A reply handler that raises on one link's first reply stops
        only that link: the other link's replies still settle, and the
        raising link's rows wait un-acked for redelivery, not lost."""
        scenario, server, net = rig
        frontend, _ = fleet
        recorder = frontend.recorder
        recorder.ack = True
        payloads = healthy_payloads(scenario, net, 64)
        routed = {n: [] for n in frontend.nodes()}
        for payload in payloads:
            owner = frontend.owner_of(routing_key(frontend, payload))
            routed[owner].append(payload)
        victim, survivor = sorted(routed, key=lambda n: -len(routed[n]))
        assert routed[survivor]
        raised = []

        def on_reply(link, delta):
            if link.key == victim and not raised:
                raised.append(delta.seq)
                raise RuntimeError("reply handler bug")
            recorder(link, delta)

        frontend.on_reply = on_reply
        for payload in payloads:
            assert frontend.submit(payload)
        frontend.flush_buffers()
        assert frontend.wait_retired(JOIN_DEADLINE, [survivor])
        assert wait_for(lambda: frontend.link(victim).dead)
        pending = frontend.detach_node(victim)
        assert sorted(pending) == sorted(routed[victim])
        assert frontend.redeliver(pending) == len(pending)
        assert frontend.wait_retired(JOIN_DEADLINE)
        # Every row's reply reached the handler once (the replica-less
        # nodes set every row aside as an unknown pair).
        unknown = [p for delta in recorder.replies for p in delta.unknown]
        assert sorted(unknown) == sorted(payloads)


class TestSubmitFrame:
    def test_frame_routes_rows_like_scalar_submit(self, fleet, rig):
        from repro.core.reports import Frame

        scenario, server, net = rig
        frontend, _ = fleet
        frontend.recorder.ack = True
        replies = frontend.recorder.replies
        payloads = healthy_payloads(scenario, net, 48)
        # Scalar routing ground truth, computed without dispatching.
        expected = {n: 0 for n in frontend.nodes()}
        for payload in payloads:
            expected[frontend.owner_of(routing_key(frontend, payload))] += 1
        admitted = frontend.submit_frame(Frame(b"".join(payloads)))
        assert admitted == len(payloads)
        frontend.flush_buffers()
        stats = frontend.stats()
        assert stats["submitted"] == len(payloads)
        assert stats["dispatched_reports"] == len(payloads)
        assert stats["precheck_rejected"] == 0
        # Every batch retires on its reply; per-node delivery matched the
        # ring.
        assert frontend.wait_retired(JOIN_DEADLINE)
        for name in frontend.nodes():
            link = frontend._links[name]
            if expected[name]:
                assert link.seq > 0
            assert frontend.pending(name) == (0, 0)
        assert sum(len(delta.unknown) for delta in replies) == len(payloads)

    def test_frame_screens_bad_versions(self, rig):
        # The frontend takes pre-screened frames, like the daemons; the
        # cluster's own submit_frame is the screen for direct callers.
        from repro.core.reports import Frame

        scenario, server, net = rig
        payloads = healthy_payloads(scenario, net, 8)
        bad = bytearray(payloads[0])
        bad[0] = 99
        with VeriDPCluster(server, nodes=2) as cluster:
            admitted = cluster.submit_frame(Frame(b"".join(payloads + [bytes(bad)])))
            assert admitted == len(payloads)
            stats = cluster.frontend.stats()
        assert stats["precheck_rejected"] == 1
        assert stats["submitted"] == len(payloads) + 1

    def test_frame_without_nodes_counts_drops(self, rig):
        from repro.core.reports import Frame

        scenario, _, net = rig
        frontend = ClusterFrontend(ignore)
        payloads = healthy_payloads(scenario, net, 6)
        admitted = frontend.submit_frame(Frame(b"".join(payloads)))
        assert admitted == 0
        assert frontend.stats()["dropped_no_node"] == len(payloads)


class TestClusterIngest:
    """The cluster listens through the daemons' ``UdpReportListener``."""

    @pytest.mark.parametrize("ingest_batch", [1, 32])
    def test_udp_reports_and_oddballs_reach_the_frontend(self, ingest_batch, rig):
        scenario, server, net = rig
        payloads = healthy_payloads(scenario, net, 40)
        bad_version = bytearray(payloads[0])
        bad_version[0] = 99
        oddballs = [b"short", bytes(REPORT_SIZE + 1), bytes(bad_version)]
        with VeriDPCluster(server, nodes=2, ingest_batch=ingest_batch) as cluster:
            address = cluster.listen_udp()
            client = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
            for payload in payloads + oddballs:
                client.sendto(payload, address)
            client.close()
            total = len(payloads) + len(oddballs)
            assert wait_for(lambda: cluster.frontend.submitted == total), (
                cluster.frontend.stats()
            )
            cluster.join()
            stats = cluster.stats()
        front = stats["frontend"]
        # Each refused datagram counts once in submitted and once in
        # precheck_rejected, as a wrong-length submit() always has.
        assert front["submitted"] == total
        assert front["precheck_rejected"] == len(oddballs)
        assert stats["processed"] + stats["malformed"] == len(payloads)
        # The listener tells the wrong sizes (bad version included) from
        # the kernel-truncated oversize one.
        listener = cluster.ingest.stats()
        assert listener["received"] == total
        assert (listener["wrong_size"], listener["oversize"]) == (2, 1)

    def test_cluster_socket_is_a_daemon_listener_socket(self, rig):
        scenario, server, net = rig
        daemon = VeriDPDaemon(server, workers=1)
        reference = UdpReportListener(daemon)
        try:
            with VeriDPCluster(server, nodes=1) as cluster:
                address = cluster.listen_udp()
                listener = cluster.ingest
                with pytest.raises(RuntimeError, match="already listens"):
                    cluster.listen_udp()  # one report socket per cluster
                rcvbuf = (socket.SOL_SOCKET, socket.SO_RCVBUF)
                assert listener._socket.getsockopt(*rcvbuf) == (
                    reference._socket.getsockopt(*rcvbuf)
                )
                # A socket fault rebinds the same address and keeps going.
                listener._socket.close()
                assert wait_for(lambda: listener.rebinds == 1, 5)
                assert listener._running and listener.address == address
                snapshot = cluster.coordinator.registry.snapshot()
                assert snapshot.value("veridp_listener_rebind_total") == 1
                payloads = healthy_payloads(scenario, net, 10)
                client = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
                for payload in payloads:
                    client.sendto(payload, address)
                client.close()
                assert wait_for(lambda: cluster.frontend.submitted == 10)
                cluster.join()
                assert cluster.stats()["processed"] == 10
        finally:
            reference.stop()
            daemon.stop()
