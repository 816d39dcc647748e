"""Verification nodes: the socket-facing shard workers.

Each test drives a node purely over its wire protocol — ``reload`` a
replica, stream ``batch`` frames and read each one's reply, the only
message that carries counts or metrics — exactly as the coordinator and
frontend do, so the protocol surface is what's pinned.
"""

import pytest

from repro.cluster.node import VerificationNode, start_node
from repro.cluster.protocol import MessageStream
from repro.core.replica import Delta, replica_digest
from repro.core.reports import REPORT_SIZE
from repro.core.verifier import Verdict

from .conftest import healthy_payloads, packing_of, tagged_replica

PASS = Verdict.PASS.value


@pytest.fixture
def node(rig):
    _, server, _ = rig
    worker = VerificationNode("n1", packing_of(server)).start()
    yield worker
    worker.stop()


def connect(node):
    return MessageStream.connect(node.address)


def reload(stream, replica):
    """Send a ``reload`` of a tagged replica ({wire: (spec, tenant)})."""
    specs = {wire: spec for wire, (spec, _tenant) in replica.items()}
    tenants = {wire: tenant for wire, (_spec, tenant) in replica.items()}
    stream.send(("reload", specs, tenants))


def verify(stream, seq, frame):
    """Send one batch and return the node's reply to it."""
    stream.send(("batch", seq, frame))
    reply = stream.recv()
    assert isinstance(reply, Delta)
    assert reply.seq == seq
    return reply


class TestProtocolSurface:
    def test_ping_digest(self, rig, node):
        _, server, _ = rig
        stream = connect(node)
        try:
            assert node.replica.pairs == {}

            stream.send(("ping", 42))
            assert stream.recv() == ("pong",)

            replica = tagged_replica(server)
            reload(stream, replica)
            stream.send(("digest", 7))
            expected = replica_digest({k: v[0] for k, v in replica.items()})
            assert stream.recv() == ("digest", 7, expected)
        finally:
            stream.close()

    def test_batch_verifies_and_flush_resets(self, rig, node):
        scenario, server, net = rig
        payloads = healthy_payloads(scenario, net, 200)
        stream = connect(node)
        try:
            reload(stream, tagged_replica(server))
            reply = verify(stream, 3, b"".join(payloads))
            (_, processed, malformed, counters, failures, crashed, unknown,
             _, last_seq, seconds, vector_rows, fallbacks, tenants) = reply
            assert processed == 200 and malformed == 0
            assert counters[PASS] == 200
            assert failures == [] and crashed == [] and unknown == []
            assert last_seq == 3
            # The batch's own figures ride the reply as plain values; the
            # receiver folds them into its families.
            assert seconds > 0
            assert vector_rows == (200 if node.replica.vector else 0)
            assert fallbacks == {}
            assert tenants == {}
            # The reply took the counts: the next batch starts from zero.
            reply = verify(stream, 4, payloads[0])
            assert reply.processed == 1 and reply.counters[PASS] == 1
        finally:
            stream.close()

    def test_malformed_payloads_are_counted_not_raised(self, rig, node):
        scenario, server, net = rig
        stream = connect(node)
        try:
            reload(stream, tagged_replica(server))
            good = healthy_payloads(scenario, net, 4)
            bad = [b"\x00" * REPORT_SIZE, good[0][:-1] + b"\xff"]
            reply = verify(stream, 1, b"".join(good + bad))
            processed, malformed = reply.processed, reply.malformed
            accounted = processed + malformed + len(reply.crashed) + len(reply.unknown)
            assert accounted == 6
            assert malformed >= 1  # the version-0 one at minimum
            assert reply.malformed_sample  # carries evidence
        finally:
            stream.close()


class TestMigrationSurface:
    def test_unknown_pairs_return_instead_of_verdict(self, rig, node):
        """Reports for pairs outside the replica are shipped back, never
        counted — the mid-migration contract the coordinator relies on."""
        scenario, server, net = rig
        payloads = healthy_payloads(scenario, net, 8)
        stream = connect(node)
        try:
            # No replica loaded at all: everything is unknown.
            reply = verify(stream, 1, b"".join(payloads))
            assert reply.processed == 0
            assert sorted(reply.unknown) == sorted(payloads)  # intact
        finally:
            stream.close()

    def test_patch_drops_and_restores_pairs(self, rig, node):
        scenario, server, net = rig
        payloads = healthy_payloads(scenario, net, 1)
        target = payloads[0]
        wire = (
            int.from_bytes(target[2:4], "big"),
            int.from_bytes(target[4:6], "big"),
        )
        replica = tagged_replica(server)
        stream = connect(node)
        try:
            reload(stream, replica)
            stream.send(("patch", {wire: None}, {}))  # migrate the pair away
            reply = verify(stream, 1, target)
            assert reply.processed == 0 and reply.unknown == [target]

            stream.send(("patch", {wire: replica[wire][0]}, {}))  # migrate it back
            reply = verify(stream, 2, target)
            assert reply.processed == 1 and reply.counters[PASS] == 1
        finally:
            stream.close()

    def test_tenant_attribution_rides_the_replica_tags(self, rig, node):
        scenario, server, net = rig
        payloads = healthy_payloads(scenario, net, 96)
        stream = connect(node)
        try:
            reload(stream, tagged_replica(server, tenant="red"))
            reply = verify(stream, 1, b"".join(payloads))
            assert reply.processed == 96
            assert reply.tenants == {"red": 96}
        finally:
            stream.close()


class TestProcessMode:
    def test_process_node_speaks_the_same_protocol(self, rig):
        scenario, server, net = rig
        handle = start_node("p1", packing_of(server), mode="process")
        try:
            assert handle.is_alive()
            stream = connect(handle)
            try:
                reload(stream, tagged_replica(server))
                payloads = healthy_payloads(scenario, net, 64)
                reply = verify(stream, 1, b"".join(payloads))
                assert reply.processed == 64 and reply.counters[PASS] == 64
            finally:
                stream.close()
        finally:
            handle.stop()
        assert not handle.is_alive()

    def test_kill_is_abrupt(self, rig):
        _, server, _ = rig
        handle = start_node("p2", packing_of(server), mode="process")
        assert handle.is_alive()
        handle.kill()
        assert not handle.is_alive()
