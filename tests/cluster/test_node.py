"""Verification nodes: the socket-facing shard workers.

Each test drives a node purely over its wire protocol — RELOAD a replica,
stream BATCH frames and read each one's reply, the only message that
carries counts or metrics — exactly as the coordinator and frontend do, so
the protocol surface is what's pinned.
"""

import pytest

from repro.cluster.node import VerificationNode, start_node
from repro.cluster.protocol import (
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
    MessageStream,
)
from repro.core.replica import replica_digest
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


def verify(stream, seq, frame):
    """Send one batch and return the node's reply to it."""
    stream.send(MSG_BATCH, (seq, frame))
    mtype, body = stream.recv(timeout=10)
    assert mtype == MSG_BATCH_REPLY
    assert body.seq == seq
    return body


class TestProtocolSurface:
    def test_hello_ping_digest(self, rig, node):
        _, server, _ = rig
        stream = connect(node)
        try:
            stream.send(MSG_HELLO, ("test",))
            mtype, body = stream.recv(timeout=10)
            assert mtype == MSG_HELLO_REPLY and body == ("n1", 0)

            stream.send(MSG_PING, (42,))
            mtype, body = stream.recv(timeout=10)
            assert mtype == MSG_PONG and body == ("n1", 42)

            replica = tagged_replica(server)
            stream.send(MSG_RELOAD, replica)
            stream.send(MSG_DIGEST, (7,))
            mtype, body = stream.recv(timeout=10)
            assert mtype == MSG_DIGEST_REPLY
            expected = replica_digest({k: v[0] for k, v in replica.items()})
            assert body == ("n1", 7, expected)
        finally:
            stream.close()

    def test_batch_verifies_and_flush_resets(self, rig, node):
        scenario, server, net = rig
        payloads = healthy_payloads(scenario, net, 200)
        stream = connect(node)
        try:
            stream.send(MSG_RELOAD, tagged_replica(server))
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
            stream.send(MSG_RELOAD, tagged_replica(server))
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
            stream.send(MSG_RELOAD, replica)
            stream.send(MSG_PATCH, {wire: None})  # migrate the pair away
            reply = verify(stream, 1, target)
            assert reply.processed == 0 and reply.unknown == [target]

            stream.send(MSG_PATCH, {wire: replica[wire]})  # migrate it back
            reply = verify(stream, 2, target)
            assert reply.processed == 1 and reply.counters[PASS] == 1
        finally:
            stream.close()

    def test_tenant_attribution_rides_the_replica_tags(self, rig, node):
        scenario, server, net = rig
        payloads = healthy_payloads(scenario, net, 96)
        stream = connect(node)
        try:
            stream.send(MSG_RELOAD, tagged_replica(server, tenant="red"))
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
            assert handle.alive()
            stream = connect(handle)
            try:
                stream.send(MSG_RELOAD, tagged_replica(server))
                payloads = healthy_payloads(scenario, net, 64)
                reply = verify(stream, 1, b"".join(payloads))
                assert reply.processed == 64 and reply.counters[PASS] == 64
            finally:
                stream.close()
        finally:
            handle.stop()
        assert not handle.alive()

    def test_kill_is_abrupt(self, rig):
        _, server, _ = rig
        handle = start_node("p2", packing_of(server), mode="process")
        assert handle.alive()
        handle.kill()
        assert not handle.alive()
