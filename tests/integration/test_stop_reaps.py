"""Stopping a multi-process shape reaps every child process it forked.

A shard worker and a cluster node stop the same way: the parent closes
the member's link, the member loop ends, and the parent joins the
process (and kills it if the join times out).  After
``ShardedVeriDPDaemon.stop()`` — with one worker killed and restarted on
the way — and after a process-mode ``VeriDPCluster.stop()`` — with one
``kill_node`` and one ``remove_node`` on the way — no worker or node pid
is alive, not even as an unreaped zombie, and
``multiprocessing.active_children()`` is empty.  A sharded daemon that
degraded to shard threads stops them all the same way.
"""

import multiprocessing
import os
import threading
import time

import pytest

from repro.cluster import VeriDPCluster
from repro.core.daemon import ShardedVeriDPDaemon
from repro.core.reports import pack_report
from repro.core.resilience import RestartBackoff
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
    return server, [payloads[i % len(payloads)] for i in range(200)]


def children():
    return {child.pid for child in multiprocessing.active_children()}


def alive(pid):
    """Whether ``pid`` still exists, a zombie nobody reaped included."""
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    return True


def assert_reaped(pids):
    # Read the pids before active_children(), which reaps what it finds.
    assert [pid for pid in pids if alive(pid)] == []
    assert multiprocessing.active_children() == []


def test_sharded_stop_reaps_every_worker(rig):
    server, payloads = rig
    daemon = ShardedVeriDPDaemon(
        server,
        workers=2,
        batch_size=16,
        poll_interval=0.02,
        backoff=RestartBackoff(base=0.01, factor=2.0, cap=0.05),
    )
    daemon.start()
    pids = children()
    assert len(pids) == 2
    daemon.kill_worker(0)
    deadline = time.monotonic() + DEADLINE
    while daemon.stats()["restarts"] < 1:
        assert time.monotonic() < deadline, "the killed worker was not restarted"
        time.sleep(0.01)
    pids |= children()
    assert len(pids) == 3
    for payload in payloads:
        daemon.submit(payload)
    daemon.join(timeout=DEADLINE)
    assert daemon.stats()["processed"] == len(payloads)
    daemon.stop()
    assert_reaped(pids)


def shard_threads():
    return [t for t in threading.enumerate() if t.name.startswith("veridp-shard-")]


def test_degraded_sharded_stop_ends_every_shard_thread(rig):
    server, payloads = rig
    daemon = ShardedVeriDPDaemon(
        server,
        workers=2,
        batch_size=16,
        restart_budget=0,
        poll_interval=0.02,
        backoff=RestartBackoff(base=0.01, factor=2.0, cap=0.05),
    )
    daemon.start()
    pids = children()
    assert len(pids) == 2
    daemon.kill_worker(0)
    deadline = time.monotonic() + DEADLINE
    while len(shard_threads()) < 2:
        assert time.monotonic() < deadline, "the daemon did not degrade"
        time.sleep(0.01)
    assert daemon.degraded
    for payload in payloads:
        daemon.submit(payload)
    daemon.join(timeout=DEADLINE)
    assert daemon.stats()["processed"] == len(payloads)
    daemon.stop()
    assert shard_threads() == []
    assert_reaped(pids)


def test_process_cluster_stop_reaps_every_node(rig):
    server, payloads = rig
    cluster = VeriDPCluster(server, nodes=3, node_mode="process").start()
    pids = children()
    assert len(pids) == 3
    killed, removed, _ = cluster.nodes()
    cluster.kill_node(killed)
    assert cluster.check_nodes() == [killed]
    cluster.remove_node(removed)
    for payload in payloads:
        assert cluster.submit(payload)
    cluster.join(timeout=DEADLINE)
    assert cluster.stats()["processed"] == len(payloads)
    cluster.stop()
    assert_reaped(pids)
