"""Recovery and durable-server tests: boot paths, WAL-first updates,
restart equality, state_version, and report recording."""

import os

import pytest

from repro.bdd.headerspace import HeaderSpace
from repro.core.incremental import IncrementalPathTable, LpmProvider
from repro.core.reports import pack_report
from repro.core.server import VeriDPServer
from repro.dataplane import DataPlaneNetwork
from repro.persist import PersistentState, RecoveryError, lpm_rules_from_topology
from repro.persist.snapshot import bdd_fingerprint
from repro.persist.wal import RT_CONTROL, ControlEvent
from repro.topologies import build_linear


def fingerprint_signature(table, hs):
    return {
        (inport, outport, entry.hops): bdd_fingerprint(hs.bdd, entry.headers)
        for (inport, outport), entries in table._entries.items()
        for entry in entries
    }


class TestLpmExtraction:
    def test_extracts_installed_routes(self):
        scenario = build_linear(3)
        rules = lpm_rules_from_topology(scenario.topo)
        assert rules  # install_routes=True populated the tables
        assert all(len(r) == 3 for r in rules)
        switches = {r[0] for r in rules}
        assert switches == set(scenario.topo.switches)

    def test_rejects_non_lpm_rules(self):
        from repro.netmodel.rules import FlowRule, Forward, Match

        scenario = build_linear(3)
        scenario.topo.switches["S1"].flow_table.add(
            FlowRule(150, Match.build(dst="10.0.1.0/24", dst_port=22), Forward(2))
        )
        with pytest.raises(RecoveryError, match="destination-prefix"):
            lpm_rules_from_topology(scenario.topo)


class TestBoot:
    def test_bootstrap_writes_wal_and_initial_snapshot(self, tmp_path):
        scenario = build_linear(3)
        with PersistentState(str(tmp_path), fsync="never") as ps:
            boot = ps.boot(scenario.topo)
            assert boot.source == "bootstrap"
            assert boot.replayed_controls == len(
                lpm_rules_from_topology(scenario.topo)
            )
            assert boot.state_version == boot.replayed_controls
            assert ps.wal.last_seq == boot.replayed_controls
            assert len(ps.snapshots.paths()) == 1

    def test_second_boot_uses_snapshot_and_matches(self, tmp_path):
        scenario = build_linear(3)
        with PersistentState(str(tmp_path), fsync="never") as ps:
            boot = ps.boot(scenario.topo)
            sig = fingerprint_signature(boot.table, boot.hs)
        with PersistentState(str(tmp_path), fsync="never") as ps:
            boot2 = ps.boot(scenario.topo)
            assert boot2.source == "snapshot"
            assert boot2.replayed_controls == 0
            assert boot2.state_version == boot.state_version
            assert fingerprint_signature(boot2.table, boot2.hs) == sig

    def test_wal_suffix_replayed_over_snapshot(self, tmp_path):
        scenario = build_linear(3)
        with PersistentState(str(tmp_path), fsync="never") as ps:
            boot = ps.boot(scenario.topo)
            # Post-snapshot updates land only in the WAL.
            ps.log_control(ControlEvent("add", "S1", "10.7.7.0/24", 2))
            boot.updater.add_rule("S1", "10.7.7.0/24", 2)
            sig = fingerprint_signature(boot.table, boot.hs)
            version = boot.state_version + 1
        with PersistentState(str(tmp_path), fsync="never") as ps:
            boot2 = ps.boot(scenario.topo)
            assert boot2.source == "snapshot"
            assert boot2.replayed_controls == 1
            assert boot2.state_version == version
            assert fingerprint_signature(boot2.table, boot2.hs) == sig

    def test_corrupt_snapshot_falls_back_to_wal_replay(self, tmp_path):
        scenario = build_linear(3)
        with PersistentState(str(tmp_path), fsync="never") as ps:
            boot = ps.boot(scenario.topo)
            sig = fingerprint_signature(boot.table, boot.hs)
        for snap in PersistentState(
            str(tmp_path), fsync="never"
        ).snapshots.paths():
            with open(snap, "r+b") as fh:
                fh.seek(16)
                fh.write(b"\xde\xad")
        with PersistentState(str(tmp_path), fsync="never") as ps:
            boot2 = ps.boot(scenario.topo)
            assert boot2.source == "wal"  # full log replay from scratch
            assert fingerprint_signature(boot2.table, boot2.hs) == sig

    def test_meta_guards_against_wrong_topology(self, tmp_path):
        with PersistentState(str(tmp_path), fsync="never") as ps:
            ps.boot(build_linear(3).topo)
        with PersistentState(str(tmp_path), fsync="never") as ps:
            with pytest.raises(RecoveryError, match="belongs to topology"):
                ps.boot(build_linear(4).topo)

    def test_pruned_wal_without_covering_snapshot_refused(self, tmp_path):
        scenario = build_linear(3)
        with PersistentState(str(tmp_path), fsync="never") as ps:
            ps.boot(scenario.topo)
        # Delete every snapshot but keep a WAL that no longer starts at 1.
        state_dir = str(tmp_path)
        with PersistentState(state_dir, fsync="never") as ps:
            boot = ps.boot(scenario.topo)
            for i in range(40):
                ps.log_control(ControlEvent("add", "S1", f"10.{i}.0.0/24", 2))
            ps.wal._rotate_locked()  # force a second segment
            ps.log_control(ControlEvent("add", "S1", "10.200.0.0/24", 2))
            removed = ps.wal.prune_segments_before(ps.wal.last_seq - 1)
            assert removed > 0
        for snap in PersistentState(state_dir, fsync="never").snapshots.paths():
            os.remove(snap)
        with PersistentState(state_dir, fsync="never") as ps:
            assert ps.wal.first_seq() not in (None, 1)
            with pytest.raises(RecoveryError, match="pruned"):
                ps.boot(scenario.topo)


class TestDurableServer:
    def _rig(self, tmp_path, **kwargs):
        scenario = build_linear(4)
        server = VeriDPServer(
            scenario.topo, state_dir=str(tmp_path), fsync="never", **kwargs
        )
        return scenario, server

    def test_boot_source_and_stats_surface(self, tmp_path):
        _, server = self._rig(tmp_path)
        stats = server.stats()
        assert stats["durable"] is True
        assert stats["boot_source"] == "bootstrap"
        assert stats["state_version"] == stats["wal_records_control"]
        server.close()

    def test_rejects_explicit_headerspace(self, tmp_path):
        scenario = build_linear(3)
        with pytest.raises(ValueError, match="HeaderSpace"):
            VeriDPServer(
                scenario.topo, hs=HeaderSpace(), state_dir=str(tmp_path)
            )

    def test_verification_works_after_restart(self, tmp_path):
        scenario, server = self._rig(tmp_path)
        net = DataPlaneNetwork(scenario.topo, scenario.channel)
        payloads = []
        for src, dst in scenario.host_pairs()[:6]:
            result = net.inject_from_host(src, scenario.header_between(src, dst))
            payloads += [pack_report(r, net.codec) for r in result.reports]
        for payload in payloads:
            server.receive_report_bytes(payload)
        assert server.incidents == []
        server.close()
        # Restart from disk: same verdicts, no rebuild.
        server2 = VeriDPServer(
            scenario.topo, state_dir=str(tmp_path), fsync="never"
        )
        assert server2.boot_source == "snapshot"
        for payload in payloads:
            server2.receive_report_bytes(payload, record=False)
        assert server2.incidents == []
        server2.close()

    def test_apply_rule_update_logs_then_applies(self, tmp_path):
        scenario, server = self._rig(tmp_path)
        seq_before = server.persist.wal.last_seq
        version_before = server.state_version
        elapsed = server.apply_rule_update("S1", "10.9.9.0/24", 2)
        assert elapsed > 0
        assert server.persist.wal.last_seq == seq_before + 1
        assert server.state_version == version_before + 1
        server.apply_rule_delete("S1", "10.9.9.0/24")
        assert server.state_version == version_before + 2
        records = list(server.persist.wal.records(start_seq=seq_before + 1))
        assert [r.rtype for r in records] == [RT_CONTROL, RT_CONTROL]
        events = [ControlEvent.decode(r.payload) for r in records]
        assert events[0] == ControlEvent("add", "S1", "10.9.9.0/24", 2)
        assert events[1] == ControlEvent("delete", "S1", "10.9.9.0/24", 0)
        server.close()

    def test_restart_after_updates_equals_fresh_rebuild(self, tmp_path):
        """The acceptance-criteria core, in-process: recovered == rebuilt."""
        scenario, server = self._rig(tmp_path)
        server.apply_rule_update("S1", "10.50.0.0/16", 2)
        server.apply_rule_update("S2", "10.50.0.0/16", 2)
        server.apply_rule_update("S1", "10.50.1.0/24", 2)
        server.apply_rule_delete("S1", "10.50.0.0/16")
        expected = fingerprint_signature(server.table, server.hs)
        rules = server._provider.iter_rules()
        server.close()

        server2 = VeriDPServer(
            scenario.topo, state_dir=str(tmp_path), fsync="never"
        )
        assert fingerprint_signature(server2.table, server2.hs) == expected
        # Against a from-scratch rebuild with the same final rule set:
        hs = HeaderSpace()
        provider = LpmProvider(scenario.topo, hs)
        for switch, prefix, port in rules:
            provider.add_rule(switch, prefix, port)
        fresh = IncrementalPathTable(scenario.topo, hs, provider=provider)
        assert fingerprint_signature(fresh.table, hs) == expected
        server2.close()

    def test_snapshot_every_triggers_checkpoints(self, tmp_path):
        scenario, server = self._rig(tmp_path, snapshot_every=2)
        snaps_before = len(server.persist.snapshots.paths())
        server.apply_rule_update("S1", "10.60.0.0/24", 2)
        server.apply_rule_update("S2", "10.60.0.0/24", 2)  # triggers
        assert len(server.persist.snapshots.paths()) > snaps_before or (
            # retention may have replaced rather than grown the set
            server.persist.snapshots.stats()["snapshots_written"] >= 2
        )
        server.close()

    def test_reports_recorded_at_ingestion(self, tmp_path):
        scenario, server = self._rig(tmp_path)
        net = DataPlaneNetwork(scenario.topo, scenario.channel)
        result = net.inject_from_host(
            "H1", scenario.header_between("H1", "H2")
        )
        payload = pack_report(result.reports[0], net.codec)
        before = server.persist.wal.stats()["wal_records_report"]
        server.receive_report_bytes(payload)
        server.receive_report_bytes(payload)
        server.receive_report_bytes(payload, record=False)  # re-ingest path
        stats = server.persist.wal.stats()
        assert stats["wal_records_report"] == before + 2
        server.close()

    def test_refresh_and_force_rebuild_disabled(self, tmp_path):
        _, server = self._rig(tmp_path)
        assert server.refresh_if_dirty() is False
        with pytest.raises(RuntimeError, match="WAL"):
            server.force_rebuild()
        server.close()

    def test_sharded_daemon_logs_each_report_once_at_dispatch(self, tmp_path):
        """Batch-granular WAL logging: every submitted payload is logged
        exactly once (at dispatch), including join-flushed partial batches."""
        from repro.core.daemon import ShardedVeriDPDaemon

        scenario = build_linear(4)
        server = VeriDPServer(
            scenario.topo, state_dir=str(tmp_path), fsync="never"
        )
        net = DataPlaneNetwork(scenario.topo, scenario.channel)
        payloads = []
        for src, dst in scenario.host_pairs():
            result = net.inject_from_host(src, scenario.header_between(src, dst))
            payloads += [pack_report(r, net.codec) for r in result.reports]
        before = server.persist.wal.stats()["wal_records_report"]
        with ShardedVeriDPDaemon(
            server, workers=2, batch_size=8, overflow="block"
        ) as daemon:
            for payload in payloads:
                daemon.submit(payload)
            daemon.join(timeout=60.0)
            stats = daemon.stats()
        assert stats["processed"] == len(payloads)
        wal_stats = server.persist.wal.stats()
        assert wal_stats["wal_records_report"] == before + len(payloads)
        server.close()

    def test_non_durable_server_state_version_bumps_on_rebuild(self):
        scenario = build_linear(3)
        server = VeriDPServer(scenario.topo, scenario.channel)
        assert server.stats()["durable"] is False
        v0 = server.state_version
        server.force_rebuild()
        assert server.state_version == v0 + 1

    def test_durable_api_refused_without_state_dir(self):
        scenario = build_linear(3)
        server = VeriDPServer(scenario.topo)
        with pytest.raises(RuntimeError, match="state_dir"):
            server.apply_rule_update("S1", "10.0.0.0/24", 2)
        with pytest.raises(RuntimeError, match="state_dir"):
            server.snapshot_now()
        server.close()  # no-op, must not raise
