"""Replay tests: live incidents reproduce exactly, bisection works."""

import pytest

from repro.core.reports import pack_report
from repro.core.server import VeriDPServer
from repro.dataplane import DataPlaneNetwork, ModifyRuleOutput
from repro.persist import PersistentState, RecoveryError, incident_key
from repro.persist.replay import replay
from repro.persist.wal import ControlEvent
from repro.topologies import build_linear


def live_incident_keys(server):
    return [
        incident_key(
            incident.verification.report, incident.verification.verdict.name
        )
        for incident in server.incidents
    ]


def incident_keys(result):
    return [incident.key for incident in result.incidents]


@pytest.fixture
def recorded_campaign(tmp_path):
    """A durable server fed a stream containing real data-plane faults."""
    scenario = build_linear(4)
    state_dir = str(tmp_path / "state")
    server = VeriDPServer(scenario.topo, state_dir=state_dir, fsync="never")
    net = DataPlaneNetwork(scenario.topo, scenario.channel)

    # Healthy traffic first.
    healthy = []
    for src, dst in scenario.host_pairs()[:6]:
        result = net.inject_from_host(src, scenario.header_between(src, dst))
        healthy += [pack_report(r, net.codec) for r in result.reports]
    for payload in healthy:
        server.receive_report_bytes(payload)
    assert server.incidents == []

    # Misforward S2's H1->H4 route in the *data plane only*: the path
    # table still believes the configured route, so reports now fail.
    header = scenario.header_between("H1", "H4")
    rule = net.switch("S2").table.lookup(header, 3)
    ModifyRuleOutput("S2", rule.rule_id, 1).apply(net)
    faulty = []
    for _ in range(3):
        result = net.inject_from_host("H1", header)
        faulty += [pack_report(r, net.codec) for r in result.reports]
    for payload in faulty:
        server.receive_report_bytes(payload)
    assert server.incidents

    keys = live_incident_keys(server)
    server.persist.wal.sync()
    server.close()
    return scenario, state_dir, keys


class TestReplayReproducesIncidents:
    def test_incident_keys_match_live_ledger(self, recorded_campaign):
        scenario, state_dir, live_keys = recorded_campaign
        with PersistentState(state_dir, read_only=True) as state:
            result = replay(state, scenario.topo)
        assert result.source == "wal"
        assert incident_keys(result) == live_keys
        assert result.first_failure_seq is not None

    def test_replay_is_deterministic(self, recorded_campaign):
        scenario, state_dir, _ = recorded_campaign
        with PersistentState(state_dir, read_only=True) as state:
            first = replay(state, scenario.topo)
        with PersistentState(state_dir, read_only=True) as state:
            second = replay(state, scenario.topo)
        assert incident_keys(first) == incident_keys(second)
        assert first.replayed_reports == second.replayed_reports
        assert first.first_failure_seq == second.first_failure_seq

    def test_localization_reproduces_blame(self, recorded_campaign):
        scenario, state_dir, _ = recorded_campaign
        with PersistentState(state_dir, read_only=True) as state:
            result = replay(state, scenario.topo)
        blamed = {
            switch
            for incident in result.incidents
            if incident.localization is not None
            for switch in incident.localization.blamed_switches()
        }
        assert "S2" in blamed

    def test_no_localize_flag(self, recorded_campaign):
        scenario, state_dir, _ = recorded_campaign
        with PersistentState(state_dir, read_only=True) as state:
            result = replay(state, scenario.topo, localize=False)
        assert result.incidents
        assert all(i.localization is None for i in result.incidents)


class TestBatchRecordedReplay:
    def test_daemon_batches_replay_to_same_incidents(self, tmp_path):
        """Reports logged as RT_REPORT_BATCH records replay identically."""
        from repro.core.daemon import ShardedVeriDPDaemon

        scenario = build_linear(4)
        state_dir = str(tmp_path / "state")
        server = VeriDPServer(scenario.topo, state_dir=state_dir, fsync="never")
        net = DataPlaneNetwork(scenario.topo, scenario.channel)

        payloads = []
        for src, dst in scenario.host_pairs()[:6]:
            result = net.inject_from_host(src, scenario.header_between(src, dst))
            payloads += [pack_report(r, net.codec) for r in result.reports]
        header = scenario.header_between("H1", "H4")
        rule = net.switch("S2").table.lookup(header, 3)
        ModifyRuleOutput("S2", rule.rule_id, 1).apply(net)
        for _ in range(3):
            result = net.inject_from_host("H1", header)
            payloads += [pack_report(r, net.codec) for r in result.reports]

        with ShardedVeriDPDaemon(
            server, workers=2, batch_size=8, overflow="block"
        ) as daemon:
            for payload in payloads:
                daemon.submit(payload)
            daemon.join(timeout=60.0)
        assert server.incidents
        live_keys = live_incident_keys(server)
        stats = server.persist.wal.stats()
        assert stats["wal_records_report_batch"] > 0
        assert stats["wal_records_report"] == len(payloads)
        server.persist.wal.sync()
        server.close()

        with PersistentState(state_dir, read_only=True) as state:
            replayed = replay(state, scenario.topo, localize=False)
        assert replayed.replayed_reports == len(payloads)
        # Shard merge order is nondeterministic; compare as multisets.
        assert sorted(incident_keys(replayed)) == sorted(live_keys)


class TestBisection:
    def test_stop_seq_brackets_first_failure(self, recorded_campaign):
        scenario, state_dir, _ = recorded_campaign
        with PersistentState(state_dir, read_only=True) as state:
            full = replay(state, scenario.topo, localize=False)
        first_bad = full.first_failure_seq
        with PersistentState(state_dir, read_only=True) as state:
            before = replay(
                state, scenario.topo, stop_seq=first_bad - 1, localize=False
            )
        assert before.incidents == []
        with PersistentState(state_dir, read_only=True) as state:
            at = replay(state, scenario.topo, stop_seq=first_bad, localize=False)
        assert at.first_failure_seq == first_bad
        assert len(at.incidents) == 1

    def test_start_seq_skips_early_reports_but_applies_controls(
        self, recorded_campaign
    ):
        scenario, state_dir, _ = recorded_campaign
        with PersistentState(state_dir, read_only=True) as state:
            full = replay(state, scenario.topo, localize=False)
        with PersistentState(state_dir, read_only=True) as state:
            windowed = replay(
                state,
                scenario.topo,
                start_seq=full.first_failure_seq,
                localize=False,
            )
        # Controls before the window still applied (state must be correct)
        assert windowed.replayed_controls == full.replayed_controls
        assert windowed.skipped_reports > 0
        assert incident_keys(windowed) == incident_keys(full)


class TestPrunedWalBase:
    def test_replay_from_covering_snapshot_after_prune(self, tmp_path):
        scenario = build_linear(4)
        state_dir = str(tmp_path)
        server = VeriDPServer(scenario.topo, state_dir=state_dir, fsync="never")
        net = DataPlaneNetwork(scenario.topo, scenario.channel)
        # Rotate the bootstrap records out, land one update in the new
        # segment (an empty successor blocks pruning by design), then
        # snapshot and prune the prefix.
        server.persist.wal._rotate_locked()
        server.apply_rule_update("S1", "10.99.0.0/24", 2)
        server.snapshot_now()
        removed = server.persist.prune_wal()
        assert removed > 0
        header = scenario.header_between("H1", "H3")
        rule = net.switch("S2").table.lookup(header, 3)
        ModifyRuleOutput("S2", rule.rule_id, 1).apply(net)
        result = net.inject_from_host("H1", header)
        for report in result.reports:
            server.receive_report_bytes(pack_report(report, net.codec))
        live_keys = live_incident_keys(server)
        assert live_keys
        server.persist.wal.sync()
        server.close()

        with PersistentState(state_dir, read_only=True) as state:
            assert state.wal.first_seq() not in (None, 1)
            replayed = replay(state, scenario.topo)
        assert replayed.source == "snapshot"
        assert incident_keys(replayed) == live_keys

    def test_pruned_wal_without_snapshot_refused(self, tmp_path):
        scenario = build_linear(3)
        state_dir = str(tmp_path)
        with PersistentState(state_dir, fsync="never") as state:
            state.boot(scenario.topo)
            for i in range(10):
                state.log_control(ControlEvent("add", "S1", f"10.{i}.1.0/24", 2))
            state.wal._rotate_locked()
            state.log_control(ControlEvent("add", "S1", "10.200.0.0/24", 2))
            removed = state.wal.prune_segments_before(state.wal.last_seq - 1)
            assert removed > 0
        import os

        for snap in PersistentState(state_dir, read_only=True).snapshots.paths():
            os.remove(snap)
        with PersistentState(state_dir, read_only=True) as state:
            assert state.wal.first_seq() not in (None, 1)
            with pytest.raises(RecoveryError):
                replay(state, scenario.topo)
