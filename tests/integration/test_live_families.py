"""Replica metric families are live: they move with every batch reply.

A shard worker and a cluster node keep no metrics; each batch reply carries
the batch's own figures and the owner folds them in on arrival.  So a
scrape taken before any ``join()`` already counts every batch answered so
far, and a worker killed afterwards takes none of them with it.

Every wait is on a condition with a deadline.
"""

import time
from collections import Counter

import pytest

from repro.cluster import VeriDPCluster
from repro.core.daemon import ShardedVeriDPDaemon
from repro.core.replica import _shard_of
from repro.core.reports import pack_report
from repro.core.server import VeriDPServer
from repro.dataplane import DataPlaneNetwork
from repro.slice.registry import SliceRegistry, TenantSpec
from repro.topologies import build_linear

DEADLINE = 30.0


def wait_until(predicate, deadline=DEADLINE):
    end = time.monotonic() + deadline
    while not predicate():
        if time.monotonic() > end:
            raise AssertionError("condition not reached before the deadline")
        time.sleep(0.01)


def payloads_of(scenario, count):
    net = DataPlaneNetwork(scenario.topo, scenario.channel)
    base = []
    for src, dst in scenario.host_pairs():
        result = net.inject_from_host(src, scenario.header_between(src, dst))
        base += [pack_report(r, net.codec) for r in result.reports]
    return (base * (count // len(base) + 1))[:count]


def pair_key(payload):
    return int.from_bytes(payload[2:6], "big")


def family(registry, name):
    """``{first label: value}`` of one family; a histogram reads its count."""
    entry = registry.snapshot().get(name)
    if entry is None:
        return {}
    values = {}
    for labels, value in entry["values"].items():
        if entry["kind"] == "histogram":
            value = sum(value[0])
        values[labels[0]] = value
    return values


def test_shard_families_count_every_answered_batch_and_survive_a_kill():
    scenario = build_linear(4)
    server = VeriDPServer(scenario.topo, scenario.channel)
    payloads = payloads_of(scenario, 40)
    with ShardedVeriDPDaemon(server, workers=2, batch_size=1) as daemon:
        registry = daemon.obs.registry
        for payload in payloads:
            daemon.submit(payload)  # one row: one batch
        wait_until(lambda: daemon.stats()["in_flight"] == 0)
        answered = Counter(str(_shard_of(pair_key(p), 2)) for p in payloads)
        assert set(answered) == {"0", "1"}
        assert family(registry, "veridp_shard_batches_total") == answered
        assert family(registry, "veridp_shard_batch_seconds") == answered
        assert family(registry, "veridp_shard_processed_total") == answered

        daemon.kill_worker(0)
        assert family(registry, "veridp_shard_batches_total") == answered
        assert family(registry, "veridp_shard_batch_seconds") == answered


@pytest.fixture
def sliced():
    scenario = build_linear(4)
    server = VeriDPServer(scenario.topo, scenario.channel)
    hosts = sorted(scenario.subnets)
    registry = SliceRegistry(server.hs, scenario.topo)
    for name, owned in (("red", hosts[:2]), ("blue", hosts[2:])):
        registry.register(
            TenantSpec(
                name=name,
                prefixes=tuple(scenario.subnets[h] for h in owned),
                hosts=tuple(owned),
                queue_share=0.5,
            )
        )
    server.set_slices(registry)
    return scenario, server


def test_cluster_tenant_reports_count_every_answered_row(sliced):
    scenario, server = sliced
    payloads = payloads_of(scenario, 90)
    with VeriDPCluster(server, nodes=2, batch_size=1) as cluster:
        for payload in payloads:
            assert cluster.submit(payload)
        wait_until(lambda: cluster.stats()["in_flight"] == 0)
        tenant_of = cluster.frontend.tenant_of
        owned = Counter(
            tenant_of[pair_key(p)] for p in payloads if pair_key(p) in tenant_of
        )
        assert owned  # the slices own some of the traffic
        assert cluster.coordinator.tenant_totals() == owned
        batches = family(cluster.coordinator.registry, "veridp_node_batches_total")
        assert sum(batches.values()) == len(payloads)
