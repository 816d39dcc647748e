"""Verdicts stream per batch on the sharded daemon and the cluster.

A failing report reaches the server's incident log as soon as its batch is
verified — nobody calls ``join()`` or ``flush()`` — and the ``in_flight``
gauge counts the rows still waiting for a verdict.  On the cluster, a
batch reply that races a failover is counted exactly once: either its
merge retires the batch before ``detach_node`` can surrender it, or the
batch is surrendered first and the late reply is dropped.

Every wait is on an event with a deadline.
"""

import sys
import threading

import pytest

from repro.cluster import VeriDPCluster
from repro.cluster.frontend import routing_key_of
from repro.cluster.protocol import MessageStream
from repro.core.daemon import ShardedVeriDPDaemon
from repro.core.replica import Delta
from repro.core.reports import pack_report
from repro.core.server import VeriDPServer
from repro.dataplane import DataPlaneNetwork
from repro.topologies import build_linear

DEADLINE = 30.0


@pytest.fixture
def rig():
    scenario = build_linear(4)
    server = VeriDPServer(scenario.topo, scenario.channel)
    net = DataPlaneNetwork(scenario.topo, scenario.channel)
    payloads = []
    for src, dst in scenario.host_pairs():
        result = net.inject_from_host(src, scenario.header_between(src, dst))
        payloads += [pack_report(r, net.codec) for r in result.reports]
    return server, payloads


def failing(payload):
    """The same report with its tag bits flipped: a tag mismatch."""
    bad = bytearray(payload)
    bad[13] ^= 0xFF
    return bytes(bad)


def incident_event(server):
    """An event set when the server logs its first incident."""
    logged = threading.Event()
    log_incidents = server.log_incidents

    def log_and_signal(incidents, records=None):
        log_incidents(incidents, records)
        if incidents:
            logged.set()

    server.log_incidents = log_and_signal
    return logged


def scraped(registry, name):
    """``{labels: value}`` of one family in a registry snapshot."""
    for entry in registry.snapshot().metrics:
        if entry["name"] == name:
            return entry["values"]
    raise AssertionError(f"no {name} family")


class TestStreaming:
    def test_sharded_failure_is_an_incident_before_join(self, rig):
        server, payloads = rig
        logged = incident_event(server)
        with ShardedVeriDPDaemon(server, workers=2, batch_size=1) as daemon:
            daemon.submit(failing(payloads[0]))
            assert logged.wait(DEADLINE)
            assert len(server.incidents) == 1
            daemon.join()
            assert daemon.stats()["failed"] == 1

    def test_cluster_failure_is_an_incident_before_join(self, rig):
        server, payloads = rig
        logged = incident_event(server)
        with VeriDPCluster(server, nodes=2, batch_size=1) as cluster:
            cluster.submit(failing(payloads[0]))
            assert logged.wait(DEADLINE)
            assert len(server.incidents) == 1
            cluster.join()
            assert len(cluster.coordinator.incidents) == 1

    def test_cluster_flush_dispatches_a_part_filled_buffer(self, rig):
        server, payloads = rig
        logged = incident_event(server)
        with VeriDPCluster(server, nodes=2, batch_size=1000) as cluster:
            cluster.submit(failing(payloads[0]))
            assert cluster.stats()["in_flight"] == 1  # buffered, not sent
            cluster.flush()
            assert logged.wait(DEADLINE)
            assert len(server.incidents) == 1


class TestInFlight:
    def test_sharded_in_flight_reads_zero_after_join(self, rig):
        server, payloads = rig
        with ShardedVeriDPDaemon(server, workers=2, batch_size=1000) as daemon:
            for payload in payloads[:10]:
                daemon.submit(payload)
            assert daemon.stats()["in_flight"] == 10  # buffered parent-side
            daemon.join()
            assert daemon.stats()["in_flight"] == 0
            assert scraped(server.obs.registry, "veridp_in_flight") == {(): 0}
            assert daemon.stats()["processed"] == 10

    def test_cluster_in_flight_reads_zero_after_join(self, rig):
        server, payloads = rig
        with VeriDPCluster(server, nodes=2, batch_size=1000) as cluster:
            for payload in payloads[:10]:
                cluster.submit(payload)
            assert cluster.stats()["in_flight"] == 10  # buffered at the frontend
            cluster.join()
            registry = cluster.coordinator.registry
            assert cluster.stats()["in_flight"] == 0
            assert scraped(registry, "veridp_in_flight") == {(): 0}
            unacked = scraped(registry, "veridp_unacked_batches")
            assert unacked == {(node,): 0 for node in cluster.nodes()}
            assert cluster.stats()["processed"] == 10


def rows_for_one_node(cluster, payloads):
    """A node and the payloads the frontend routes to it."""
    frontend = cluster.frontend
    owners = {}
    for payload in payloads:
        pair_key = int.from_bytes(payload[2:6], "big")
        owner = frontend.owner_of(
            routing_key_of(pair_key, frontend.tenant_of.get(pair_key))
        )
        owners.setdefault(owner, []).append(payload)
    victim = max(owners, key=lambda node: len(owners[node]))
    return victim, owners[victim]


class TestReplyRacesFailover:
    def test_reply_merged_during_failover_is_counted_once(self, rig):
        """The settle runs under the book's lock: the failover's detach
        waits for it, finds the batch retired and redelivers nothing."""
        server, payloads = rig
        with VeriDPCluster(server, nodes=2, batch_size=1000) as cluster:
            frontend = cluster.frontend
            coordinator = cluster.coordinator
            victim, rows = rows_for_one_node(cluster, payloads)
            merging, detaching = threading.Event(), threading.Event()
            settle = coordinator.settle

            def held_settle(delta):
                merging.set()
                detaching.wait(DEADLINE)
                settle(delta)

            detach_node = frontend.detach_node

            def flagged_detach(node_id):
                detaching.set()
                return detach_node(node_id)

            coordinator.settle = held_settle
            frontend.detach_node = flagged_detach
            for payload in rows:
                cluster.submit(payload)
            frontend.flush_buffers()
            assert merging.wait(DEADLINE)
            cluster.kill_node(victim)
            assert cluster.check_nodes() == [victim]
            cluster.join()
            stats = cluster.stats()
        assert stats["redelivered"] == 0
        assert stats["processed"] == len(rows)
        assert stats["counters"]["pass"] == len(rows)

    def test_reply_after_failover_is_dropped(self, rig, monkeypatch):
        """The batch was surrendered and redelivered first: its late reply
        finds it gone, so only the redelivery counts."""
        server, payloads = rig
        held = {}
        replied, failed_over = threading.Event(), threading.Event()
        recv = MessageStream.recv

        def held_recv(stream):
            message = recv(stream)
            if isinstance(message, Delta) and stream is held.get("stream"):
                replied.set()
                failed_over.wait(DEADLINE)
            return message

        monkeypatch.setattr(MessageStream, "recv", held_recv)
        with VeriDPCluster(server, nodes=2, batch_size=1000) as cluster:
            frontend = cluster.frontend
            victim, rows = rows_for_one_node(cluster, payloads)
            held["stream"] = frontend.link(victim).conn
            for payload in rows:
                cluster.submit(payload)
            frontend.flush_buffers()
            assert replied.wait(DEADLINE)
            cluster.kill_node(victim)
            assert cluster.check_nodes() == [victim]
            failed_over.set()
            cluster.join()
            stats = cluster.stats()
        assert stats["redelivered"] == len(rows)
        assert stats["processed"] == len(rows)
        assert stats["counters"]["pass"] == len(rows)


class TestConcurrentSubmitters:
    """More submitting threads than cores, with a short switch interval:
    a lost update to the in-flight count or the ledger shows as a row
    that never settles or settles twice."""

    THREADS = 4
    ROUNDS = 10

    def run_submitters(self, target, payloads):
        def feed():
            for payload in payloads * self.ROUNDS:
                target.submit(payload)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=feed) for _ in range(self.THREADS)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(DEADLINE)
            assert not any(thread.is_alive() for thread in threads)
            target.join(timeout=DEADLINE)
            return target.stats()
        finally:
            sys.setswitchinterval(interval)

    def test_cluster_ledger_is_exact(self, rig):
        server, payloads = rig
        with VeriDPCluster(server, nodes=3, batch_size=8) as cluster:
            stats = self.run_submitters(cluster, payloads)
        total = self.THREADS * self.ROUNDS * len(payloads)
        assert stats["processed"] == stats["counters"]["pass"] == total
        assert stats["in_flight"] == 0

    def test_sharded_ledger_is_exact(self, rig):
        server, payloads = rig
        with ShardedVeriDPDaemon(server, workers=2, batch_size=8) as daemon:
            stats = self.run_submitters(daemon, payloads)
        total = self.THREADS * self.ROUNDS * len(payloads)
        assert stats["submitted"] == stats["processed"] == total
        assert stats["in_flight"] == 0 and stats["lost_in_restart"] == 0
