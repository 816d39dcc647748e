"""Sharded-daemon replica delta resync under mid-run rule churn (ISSUE 5).

The acceptance scenario: rules churn while the sharded daemon is live,
worker replicas are brought up to date via per-pair *patch* deltas (no
whole-table recompile on the resync path), and every worker's replica
fingerprint converges to the one a from-scratch replication would have.
"""

import time

import pytest

from repro.core.daemon import ShardedVeriDPDaemon
from repro.core.replica import build_shard_specs, replica_digest
from repro.core.reports import pack_report
from repro.core.server import VeriDPServer
from repro.dataplane import DataPlaneNetwork
from repro.topologies import build_linear

WORKERS = 2


def expected_digests(server, workers):
    specs = build_shard_specs(server.table, server.hs, server.codec, workers)
    return [replica_digest(spec) for spec in specs]


@pytest.fixture
def durable_rig(tmp_path):
    scenario = build_linear(4)
    server = VeriDPServer(
        scenario.topo, state_dir=str(tmp_path / "state"), fsync="never"
    )
    yield scenario, server
    server.close()


class TestDeltaResync:
    def test_worker_replicas_converge_after_churn(self, durable_rig):
        scenario, server = durable_rig
        with ShardedVeriDPDaemon(server, workers=WORKERS) as daemon:
            assert daemon.replica_digests() == expected_digests(server, WORKERS)

            # Churn: nested add, cross-switch adds, a delete — touching a
            # strict subset of the table's (inport, outport) pairs.
            server.apply_rule_update("S1", "10.50.0.0/16", 2)
            server.apply_rule_update("S2", "10.50.0.0/16", 2)
            server.apply_rule_update("S3", "10.50.0.0/16", 2)
            server.apply_rule_update("S1", "10.50.1.0/24", 2)
            server.apply_rule_delete("S1", "10.50.1.0/24")

            patched = daemon.resync_replicas()
            assert patched is not None and patched > 0  # deltas, not a reload
            assert daemon.full_resyncs == 0
            assert daemon.resyncs == 1
            assert daemon.resync_pairs == patched
            assert daemon.resync_delta_bytes > 0
            assert daemon.replica_digests() == expected_digests(server, WORKERS)

            # Patching fewer pairs than the table holds is the whole point.
            assert patched < len(server.table.pairs())

    def test_resync_is_noop_when_current(self, durable_rig):
        _, server = durable_rig
        with ShardedVeriDPDaemon(server, workers=WORKERS) as daemon:
            assert daemon.resync_replicas() == 0
            assert daemon.resyncs == 0

    def test_submit_autoresyncs_stale_replicas(self, durable_rig):
        scenario, server = durable_rig
        net = DataPlaneNetwork(scenario.topo, scenario.channel)
        with ShardedVeriDPDaemon(server, workers=WORKERS, batch_size=4) as daemon:
            server.apply_rule_update("S1", "10.60.0.0/16", 2)
            src, dst = scenario.host_pairs()[0]
            result = net.inject_from_host(src, scenario.header_between(src, dst))
            for report in result.reports:
                daemon.submit(pack_report(report, net.codec))
            # submit() noticed the stale fleet before routing the payload.
            assert daemon.resyncs >= 1
            daemon.join()
            assert daemon.replica_digests() == expected_digests(server, WORKERS)
            assert daemon.stats()["failed"] == 0

    def test_verdicts_follow_churn_through_resync(self, durable_rig):
        """A report that matched the old table must fail after the rule it
        rode on is deleted — proving workers verify against the patched
        replica, not the boot-time one."""
        scenario, server = durable_rig
        net = DataPlaneNetwork(scenario.topo, scenario.channel)
        src, dst = scenario.host_pairs()[0]
        result = net.inject_from_host(src, scenario.header_between(src, dst))
        payloads = [pack_report(r, net.codec) for r in result.reports]
        assert payloads
        with ShardedVeriDPDaemon(server, workers=WORKERS, batch_size=1) as daemon:
            for payload in payloads:
                daemon.submit(payload)
            daemon.join()
            stats = daemon.stats()
            assert stats["verified"] == len(payloads)
            assert stats["failed"] == 0

            # Remove every forwarding rule on the path's first switch: the
            # reported paths no longer exist in the configuration.
            for switch, prefix, _port in list(server.updater.provider.iter_rules()):
                if switch == "S1":
                    server.apply_rule_delete(switch, prefix)
            daemon.resync_replicas()
            for payload in payloads:
                daemon.submit(payload)
            daemon.join()
            assert daemon.stats()["failed"] >= len(payloads)

    def test_submit_expires_coalescing_window(self, tmp_path):
        """Daemon-path reports must tick the server's coalescing window:
        a staged update whose window expired is flushed (and the replicas
        resynced) on the next submit, not deferred until close."""
        scenario = build_linear(4)
        server = VeriDPServer(
            scenario.topo,
            state_dir=str(tmp_path / "state"),
            fsync="never",
            coalesce_ms=10,
        )
        net = DataPlaneNetwork(scenario.topo, scenario.channel)
        try:
            with ShardedVeriDPDaemon(
                server, workers=WORKERS, batch_size=1
            ) as daemon:
                server.apply_rule_update("S1", "10.90.0.0/16", 2)
                assert server.updater.pending_updates == 1
                time.sleep(0.02)  # let the 10ms window expire
                src, dst = scenario.host_pairs()[0]
                result = net.inject_from_host(
                    src, scenario.header_between(src, dst)
                )
                daemon.submit(pack_report(result.reports[0], net.codec))
                assert server.updater.pending_updates == 0
                assert server.update_flushes == 1
                assert daemon.resyncs >= 1
                daemon.join()
                assert daemon.replica_digests() == expected_digests(
                    server, WORKERS
                )
        finally:
            server.close()

    def test_journal_overflow_falls_back_to_full_reload(self, durable_rig):
        _, server = durable_rig
        with ShardedVeriDPDaemon(server, workers=WORKERS) as daemon:
            server.apply_rule_update("S1", "10.70.0.0/16", 2)
            server.table.touch()  # untracked: invalidates every journal token
            assert daemon.resync_replicas() is None
            assert daemon.full_resyncs == 1
            assert daemon.replica_digests() == expected_digests(server, WORKERS)
