"""A member killed holding an un-acked batch costs no verdict, on either link.

Both multi-process shapes send through one dispatcher: a *pipe link* to a
forked shard worker, a *TCP link* to a cluster node.  The member that
takes the first batch hangs in its verify (``ShardReplica.verify`` is
patched before the fork, in that member's process only), so the batch is
un-acked when the member is killed mid-stream.  Its book is surrendered
and the rows redelivered (to the worker's successor, or to the failover
owner), after which:

* every accepted row has exactly one verdict, failing rows reach the
  incident log once each, and nothing is left in flight;
* the WAL logged every row once (at its first cut; the redelivery adopts
  the rows as logged);
* every replica digests as the table says it should.
"""

import multiprocessing
import threading
import time

import pytest

from repro.cluster import VeriDPCluster
from repro.core.replica import ShardReplica, build_shard_specs, replica_digest
from repro.core.reports import REPORT_SIZE, pack_report
from repro.core.resilience import RestartBackoff
from repro.core.server import VeriDPServer
from repro.core.sharded import ShardedVeriDPDaemon
from repro.dataplane import DataPlaneNetwork
from repro.topologies import build_linear

pytestmark = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="the verify patch reaches the member by fork",
)

DEADLINE = 30.0
ROWS = 96
BAD = {0, 5, 17, 40, 77}


class CountingPersist:
    """The one persist call a dispatcher makes: count the rows logged."""

    def __init__(self):
        self.rows = 0
        self._lock = threading.Lock()

    def log_report_frame(self, frame):
        with self._lock:
            self.rows += len(frame) // REPORT_SIZE


def failing(payload):
    """The same report with its tag bits flipped: a tag mismatch."""
    bad = bytearray(payload)
    bad[13] ^= 0xFF
    return bytes(bad)


@pytest.fixture
def rig():
    scenario = build_linear(4)
    server = VeriDPServer(scenario.topo, scenario.channel)
    server.persist = CountingPersist()
    net = DataPlaneNetwork(scenario.topo, scenario.channel)
    payloads = []
    for src, dst in scenario.host_pairs():
        result = net.inject_from_host(src, scenario.header_between(src, dst))
        payloads += [pack_report(r, net.codec) for r in result.reports]
    rows = [payloads[i % len(payloads)] for i in range(ROWS)]
    return server, [failing(p) if i in BAD else p for i, p in enumerate(rows)]


class PipeShape:
    """Two shard workers; worker 0's first generation hangs."""

    holder = "veridp-shard-0-gen0"

    def __init__(self, server):
        self.server = server
        self.shape = ShardedVeriDPDaemon(
            server,
            workers=2,
            batch_size=8,
            poll_interval=0.02,
            backoff=RestartBackoff(base=0.01, factor=2.0, cap=0.05),
        )

    def flush(self):
        self.shape.flush_buffers()

    def kill_holder(self):
        self.shape.kill_worker(0)  # the supervisor restarts it

    def ledger(self):
        stats = self.shape.stats()
        return stats["processed"], stats["failed"], stats["in_flight"]

    def digests(self):
        server = self.server
        specs = build_shard_specs(server.table, server.hs, server.codec, 2)
        expected = [replica_digest(spec) for spec in specs]
        return self.shape.replica_digests(), expected


class TcpShape:
    """Two process nodes; the first node hangs."""

    holder = "veridp-node-node-1"

    def __init__(self, server):
        self.shape = VeriDPCluster(server, nodes=2, node_mode="process", batch_size=8)

    def flush(self):
        self.shape.flush()

    def kill_holder(self):
        self.shape.kill_node("node-1")
        assert self.shape.check_nodes() == ["node-1"]

    def ledger(self):
        stats = self.shape.stats()
        failed = stats["processed"] - stats["counters"]["pass"]
        return stats["processed"], failed, stats["in_flight"]

    def digests(self):
        return self.shape.coordinator.digests(), self.shape.coordinator.expected_digests()


@pytest.mark.parametrize("link", [PipeShape, TcpShape], ids=["pipe", "tcp"])
def test_killed_member_batch_gets_one_verdict_per_row(link, rig, monkeypatch, tmp_path):
    server, rows = rig
    marker = tmp_path / "held"
    verify = ShardReplica.verify
    holder = link.holder

    def hang_in_holder(self, frame):
        if multiprocessing.current_process().name == holder:
            marker.touch()
            time.sleep(3600)
        return verify(self, frame)

    monkeypatch.setattr(ShardReplica, "verify", hang_in_holder)
    shape = link(server)
    with shape.shape:
        for payload in rows:
            shape.shape.submit(payload)
        shape.flush()
        deadline = time.monotonic() + DEADLINE
        while not marker.exists():
            assert time.monotonic() < deadline, "the member never took a batch"
            time.sleep(0.01)
        shape.kill_holder()
        shape.shape.join(timeout=DEADLINE)
        processed, failed, in_flight = shape.ledger()
        digests, expected = shape.digests()
    assert (processed, failed, in_flight) == (ROWS, len(BAD), 0)
    assert sorted(i.payload for i in server.incidents) == sorted(
        rows[i] for i in BAD
    )
    assert server.persist.rows == ROWS
    assert digests == expected
