"""One catch-up on every shape: a FlowMod reaches every daemon's verdicts.

VeriDP exists to catch a rule the controller installed but the switch did
not apply (Section 2.2).  The server's own intake rebuilds its table after
a FlowMod; the direct daemon, the sharded daemon and the cluster must do
the same before their replicas verify a row, or a dropped install passes
on the stale replica (and a consistent change raises false incidents).
Each shape here runs on a static ``linear(3)`` server on the scenario's
channel, with no manual ``refresh_if_dirty``.
"""

import threading

import pytest

from repro.cluster import VeriDPCluster
from repro.core.daemon import ShardedVeriDPDaemon, VeriDPDaemon
from repro.core.reports import pack_report
from repro.core.server import VeriDPServer
from repro.core.verifier import Verdict
from repro.dataplane import DataPlaneNetwork, DropRuleInstall
from repro.netmodel.rules import FlowRule, Forward, Match
from repro.topologies import build_linear

pytest.importorskip("numpy")

DEADLINE = 10.0
SHAPES = ("direct", "sharded", "cluster")


def rig():
    scenario = build_linear(3)
    server = VeriDPServer(scenario.topo, scenario.channel)
    return scenario, server, DataPlaneNetwork(scenario.topo, scenario.channel)


def traffic(scenario, net):
    """The wire reports of one ping between every host pair."""
    rows = []
    for src, dst in scenario.host_pairs():
        result = net.inject_from_host(src, scenario.header_between(src, dst))
        rows += [pack_report(r, net.codec) for r in result.reports]
    return rows


def redirect_h1(scenario, net, dropped):
    """Install a higher-priority S1 rule sending H1's subnet out port 3;
    with ``dropped`` the switch silently ignores the install."""
    rule = FlowRule(200, Match.build(dst=scenario.subnets["H1"]), Forward(3))
    if dropped:
        DropRuleInstall("S1", rule.rule_id).apply(net)
    scenario.controller.install("S1", rule)


def server_only_failures(dropped):
    """The rows the server's own intake fails after the change."""
    scenario, server, net = rig()
    redirect_h1(scenario, net, dropped)
    rows = traffic(scenario, net)
    return len(rows), sorted(
        p for p in rows if server.receive_report_bytes(p).verdict is not Verdict.PASS
    )


def open_shape(shape, server):
    """The shape, its ``failed`` count, and one tick of its serve loop."""
    if shape == "direct":
        sink = VeriDPDaemon(server, workers=1)
        return sink, lambda: sink.stats()["failed"], lambda: None
    if shape == "sharded":
        sink = ShardedVeriDPDaemon(server, workers=2, batch_size=4)
        return sink, lambda: sink.stats()["failed"], lambda: None
    sink = VeriDPCluster(server, nodes=2, batch_size=4)

    def tick():
        # What ``serve --cluster`` runs once a second.
        sink.check_nodes()
        sink.resync()
        sink.flush()

    return sink, lambda: sink.stats()["incidents"], tick


def run_shape(shape, dropped):
    """Verify healthy traffic on the shape (its replicas built on the old
    table), change S1's rule, tick once, verify the traffic that follows.
    Returns ``(rows, failing payloads in the server's log, failed)``."""
    scenario, server, net = rig()
    sink, failed, tick = open_shape(shape, server)
    with sink:
        for payload in traffic(scenario, net):
            sink.submit(payload)
        sink.join(timeout=DEADLINE)
        assert failed() == 0
        redirect_h1(scenario, net, dropped)
        tick()
        rows = traffic(scenario, net)
        for payload in rows:
            sink.submit(payload)
        sink.join(timeout=DEADLINE)
        count = failed()
    return len(rows), sorted(i.payload for i in server.incidents), count


@pytest.mark.parametrize("shape", SHAPES)
def test_a_dropped_install_fails_the_rows_the_server_fails(shape):
    rows, expected = server_only_failures(dropped=True)
    assert expected  # the fault shows on the server's own intake
    assert run_shape(shape, dropped=True) == (rows, expected, len(expected))


@pytest.mark.parametrize("shape", SHAPES)
def test_a_change_both_planes_apply_raises_nothing(shape):
    rows, expected = server_only_failures(dropped=False)
    assert expected == []
    assert run_shape(shape, dropped=False) == (rows, [], 0)


def test_a_rule_update_waits_for_a_flush_in_progress():
    """The server's lock serialises the table's writers: an update from a
    second thread is not staged while a flush holds the table."""
    scenario = build_linear(3)
    server = VeriDPServer(scenario.topo, incremental=True)
    updater = server.updater
    flushing, release = threading.Event(), threading.Event()
    flush, stage = updater.flush_updates, updater.stage_add_rule
    staged = []

    def held_flush():
        if not flushing.is_set():
            flushing.set()
            assert release.wait(DEADLINE)
        return flush()

    def recorded_stage(switch, prefix, port):
        staged.append(prefix)
        return stage(switch, prefix, port)

    updater.flush_updates = held_flush
    updater.stage_add_rule = recorded_stage
    first = f"{scenario.host_ips['H3']}/32"
    second = f"{scenario.host_ips['H2']}/32"
    holder = threading.Thread(target=server.apply_rule_update, args=("S3", first, 1))
    writer = threading.Thread(target=server.apply_rule_update, args=("S2", second, 1))
    holder.start()
    try:
        assert flushing.wait(DEADLINE)
        writer.start()
        writer.join(timeout=0.5)
        assert writer.is_alive()
        assert staged == [first]
    finally:
        release.set()
        holder.join(timeout=DEADLINE)
        if writer.ident is not None:
            writer.join(timeout=DEADLINE)
    assert not holder.is_alive() and not writer.is_alive()
    assert staged == [first, second]
    assert server.update_flushes == 2
