"""A cluster failover logs each redelivered row to the WAL once.

Rows are WAL-logged when a link's delivery book cuts them into a batch.
When a node dies with batches un-acked, its book surrenders them and the
surviving owners' books adopt them as already logged, so the WAL holds
exactly the rows the frontend accepted — and ``repro replay`` verifies
each of them once.

The victim's batch replies are held on its data connection until the
failover is over, so its batches are still un-acked when it dies.
"""

import threading

import pytest

from repro.cluster import VeriDPCluster
from repro.cluster.protocol import MessageStream
from repro.core.replica import Delta
from repro.core.reports import REPORT_SIZE, pack_report
from repro.core.server import VeriDPServer
from repro.dataplane import DataPlaneNetwork
from repro.topologies import build_linear

from .conftest import routing_key

DEADLINE = 30.0
ROWS = 96


class CountingPersist:
    """The one persist call the frontend makes: count the rows logged."""

    def __init__(self):
        self.rows = 0
        self._lock = threading.Lock()

    def log_report_frame(self, frame):
        with self._lock:
            self.rows += len(frame) // REPORT_SIZE


@pytest.fixture
def rig():
    scenario = build_linear(4)
    server = VeriDPServer(scenario.topo, scenario.channel)
    net = DataPlaneNetwork(scenario.topo, scenario.channel)
    payloads = []
    for src, dst in scenario.host_pairs():
        result = net.inject_from_host(src, scenario.header_between(src, dst))
        payloads += [pack_report(r, net.codec) for r in result.reports]
    return server, [payloads[i % len(payloads)] for i in range(ROWS)]


def test_failover_logs_redelivered_rows_once(rig, monkeypatch):
    server, rows = rig
    wal = CountingPersist()
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
    with VeriDPCluster(server, nodes=2, batch_size=8, persist=wal) as cluster:
        frontend = cluster.frontend
        owners = {}
        for payload in rows:
            owners.setdefault(frontend.owner_of(routing_key(frontend, payload)), 0)
            owners[frontend.owner_of(routing_key(frontend, payload))] += 1
        victim = max(owners, key=owners.get)
        held["stream"] = frontend.link(victim).conn
        for payload in rows:
            assert cluster.submit(payload)
        cluster.flush()
        assert replied.wait(DEADLINE)
        cluster.kill_node(victim)
        assert cluster.check_nodes() == [victim]
        failed_over.set()
        cluster.join(timeout=DEADLINE)
        stats = cluster.stats()
    assert stats["redelivered"] > 0
    assert stats["processed"] == ROWS
    assert wal.rows == ROWS
