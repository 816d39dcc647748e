"""One verdict core on every shape.

The direct daemon is the in-thread transport of a
:class:`~repro.core.replica.ShardReplica`: a rule change patches the pairs
it touched instead of recompiling the table.  Whatever a replica flags goes
through the server's intake, whose verdict is the one the counters keep —
so a stale replica's FAIL that the current table passes is counted PASS,
and the counters agree with the incident log on every shape.
"""

import pytest

from repro.bdd.headerspace import DEFAULT_FIELDS, HeaderField, HeaderLayout, HeaderSpace
from repro.core.daemon import ShardedVeriDPDaemon, VeriDPDaemon
from repro.core.replica import build_shard_specs, replica_digest
from repro.core.reports import Frame, pack_report
from repro.core.server import VeriDPServer
from repro.core.verifier import Verdict
from repro.topologies import build_linear

from .test_worker_depth import build_rig

pytest.importorskip("numpy")


def healthy_rows(scenario, net, dst, count=64):
    """``count`` wire reports of traffic the data plane delivers to ``dst``."""
    rows = []
    for src, to in scenario.host_pairs():
        if to == dst:
            result = net.inject_from_host(src, scenario.header_between(src, to))
            rows += [pack_report(r, net.codec) for r in result.reports]
    assert rows
    return (rows * (count // len(rows) + 1))[:count]


def expected_digest(server):
    return replica_digest(build_shard_specs(server.table, server.hs, server.codec, 1)[0])


def test_direct_daemon_patches_the_pairs_a_rule_dirtied():
    scenario, server, net = build_rig()
    rows = b"".join(healthy_rows(scenario, net, "H4"))
    with VeriDPDaemon(server, workers=1) as daemon:
        assert daemon._replica is None  # compiled at the first frame
        daemon.submit_frame(Frame(rows))
        assert daemon.join(timeout=10)
        replica = daemon._replica
        compiles = replica._kernel.kernel_compiles
        assert compiles == len(server.table.pairs())

        token = server.table.dirty_token()
        server.apply_rule_update("S3", f"{scenario.host_ips['H4']}/32", 1)
        live = set(server.table.pairs())
        dirtied = [p for p in server.table.dirty_since(token)[1] if p in live]
        assert 0 < len(dirtied) < len(live)
        daemon.submit_frame(Frame(rows))
        assert daemon.join(timeout=10)
        assert daemon._replica is replica
        assert replica._kernel.kernel_compiles == compiles + len(dirtied)
        assert replica.digest() == expected_digest(server)

        # Journal overflow: the next batch reloads the whole replica.
        server.apply_rule_delete("S3", f"{scenario.host_ips['H4']}/32")
        server.table.touch()  # untracked: invalidates every journal cursor
        compiles = replica._kernel.kernel_compiles
        daemon.submit_frame(Frame(rows))
        assert daemon.join(timeout=10)
        assert replica._kernel.kernel_compiles == compiles + len(server.table.pairs())
        assert replica.digest() == expected_digest(server)
        assert daemon.stats()["failed"] == server.incidents_total


def _books(daemon, server):
    stats = daemon.stats()
    return {
        "stats": {
            key: stats[key]
            for key in ("processed", "malformed", "verify_errors", "verified", "failed")
        },
        "counters": dict(daemon.counters),
        "incidents_total": server.incidents_total,
    }


def _diverted_rig():
    """A rig whose table disagrees with the data plane on H4's traffic
    until the diverting /32 is deleted again."""
    scenario, server, net = build_rig()
    rows = healthy_rows(scenario, net, "H4")
    prefix = f"{scenario.host_ips['H4']}/32"
    server.apply_rule_update("S3", prefix, 1)
    return server, rows, lambda: server.apply_rule_delete("S3", prefix)


def test_counters_agree_with_the_incident_log_across_a_rule_change():
    server, rows, restore = _diverted_rig()
    with ShardedVeriDPDaemon(
        server, workers=2, batch_size=len(rows) + 1, supervise=False
    ) as daemon:
        for payload in rows:
            daemon.submit(payload)
        # The rule lands while the rows wait in the shard buffers: join()
        # ships them to replicas compiled before it, which flag them all,
        # and the server's intake re-verifies them as PASS.
        restore()
        daemon.join()
        sharded = _books(daemon, server)
        shard_verdicts = daemon.obs.registry.snapshot().get(
            "veridp_shard_verifications_total"
        )
    stale_fails = sum(
        value
        for labels, value in shard_verdicts["values"].items()
        if labels[1] != Verdict.PASS.value
    )
    assert stale_fails == len(rows)
    assert sharded["stats"]["failed"] == sharded["incidents_total"] == 0
    assert sharded["counters"][Verdict.PASS] == len(rows)

    server, rows, restore = _diverted_rig()
    daemon = VeriDPDaemon(server, workers=1)
    daemon.submit_frame(Frame(b"".join(rows)))
    restore()
    with daemon:
        assert daemon.join(timeout=10)
        assert _books(daemon, server) == sharded


def test_undecodable_port_rows_are_malformed_in_the_shard_families_too():
    """A row whose port id no switch owns is ``malformed`` in the sharded
    daemon's books and in its shards' own families (a scrape reconciles
    ``veridp_shard_processed_total`` with ``processed``), and every such
    row is dead-lettered, past the per-flush malformed sample too."""
    scenario, server, net = build_rig()
    good = healthy_rows(scenario, net, "H4", count=100)
    bad = []
    for i, row in enumerate(good):
        row = bytearray(row)
        row[2], row[3] = 0xFF, i  # no such switch, 100 distinct payloads
        bad.append(bytes(row))
    with ShardedVeriDPDaemon(server, workers=1, supervise=False) as daemon:
        daemon.submit_frame(Frame(b"".join(good + bad)))
        daemon.join()
        stats = daemon.stats()
        families = daemon.obs.registry.snapshot()
    assert (stats["processed"], stats["malformed"]) == (len(good), len(bad))
    for family, count in (
        ("veridp_shard_processed_total", len(good)),
        ("veridp_shard_malformed_total", len(bad)),
    ):
        assert sum(families.get(family)["values"].values()) == count
    letters = [(l.stage, l.payload) for l in daemon.dead_letters._pending]
    assert sorted(letters) == sorted(("decode", row) for row in bad)


def test_every_daemon_shape_needs_the_wire_layout():
    """Both daemons verify through a shard replica, which packs headers from
    the wire 5-tuple: a layout with any other field is refused when the
    daemon is built, not at the first report."""
    scenario = build_linear(3)
    layout = HeaderLayout([*DEFAULT_FIELDS, HeaderField("vlan", 12)])
    server = VeriDPServer(scenario.topo, scenario.channel, hs=HeaderSpace(layout))
    for shape in (VeriDPDaemon, ShardedVeriDPDaemon):
        with pytest.raises(ValueError, match="'vlan' is not on the wire"):
            shape(server, workers=1)
