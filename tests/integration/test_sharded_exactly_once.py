"""A shard worker that dies holding a batch costs no verdict.

The worker's delivery book keeps every batch un-acked until the worker's
reply to it is settled; a restart hands the dead generation's un-acked
batches to its successor, so ``processed == submitted`` after ``join()``
and ``lost_in_restart`` stays 0.  Failing rows of the redelivered batch
reach the incident log exactly once.

``ShardReplica.verify`` is patched to hang in generation 0 only (forked
workers inherit the patch), so the first worker holds its first batch
until it is killed.  Every wait is on a marker or an event with a deadline.
"""

import multiprocessing
import time

import pytest

from repro.core.daemon import ShardedVeriDPDaemon
from repro.core.replica import ShardReplica
from repro.core.reports import pack_report
from repro.core.resilience import RestartBackoff
from repro.core.server import VeriDPServer
from repro.dataplane import DataPlaneNetwork
from repro.topologies import build_linear

pytestmark = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="the verify patch reaches the workers by fork",
)

DEADLINE = 30.0
ROWS = 40
FAST_BACKOFF = dict(
    poll_interval=0.02,
    backoff=RestartBackoff(base=0.01, factor=2.0, cap=0.05),
)


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


def failing(payload):
    """The same report with its tag bits flipped: a tag mismatch."""
    bad = bytearray(payload)
    bad[13] ^= 0xFF
    return bytes(bad)


@pytest.fixture
def held(monkeypatch, tmp_path):
    """Make generation 0 hang in its first verify; returns the marker
    file it touches when it has taken that batch."""
    marker = tmp_path / "held"
    verify = ShardReplica.verify

    def hang_in_first_generation(self, frame):
        if multiprocessing.current_process().name.endswith("-gen0"):
            marker.touch()
            time.sleep(3600)
        return verify(self, frame)

    monkeypatch.setattr(ShardReplica, "verify", hang_in_first_generation)
    return marker


def kill_holder(daemon, marker):
    deadline = time.monotonic() + DEADLINE
    while not marker.exists():
        assert time.monotonic() < deadline, "the worker never took a batch"
        time.sleep(0.01)
    daemon.kill_worker(0)


def run(server, rows, marker):
    with ShardedVeriDPDaemon(
        server, workers=1, batch_size=8, restart_budget=3, **FAST_BACKOFF
    ) as daemon:
        for payload in rows:
            daemon.submit(payload)
        kill_holder(daemon, marker)
        daemon.join(timeout=DEADLINE)
        return daemon.stats()


def test_killed_worker_batch_is_redelivered(rig, held):
    server, rows = rig
    stats = run(server, rows, held)
    assert stats["restarts"] >= 1
    assert stats["submitted"] == ROWS
    assert stats["processed"] == stats["submitted"]
    assert stats["lost_in_restart"] == 0
    assert stats["in_flight"] == 0
    assert stats["failed"] == 0


def test_failing_rows_of_redelivered_batch_log_once(rig, held):
    server, rows = rig
    # Three failures in the held first batch, one in a later batch.
    bad = {0, 3, 6, 20}
    rows = [failing(p) if i in bad else p for i, p in enumerate(rows)]
    stats = run(server, rows, held)
    assert stats["processed"] == ROWS
    assert stats["failed"] == len(bad)
    assert len(server.incidents) == len(bad)
    assert sorted(i.payload for i in server.incidents) == sorted(
        rows[i] for i in bad
    )
