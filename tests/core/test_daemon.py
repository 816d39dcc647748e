"""Tests for the concurrent daemon and UDP listener."""

import multiprocessing
import socket
import threading
import time

import pytest

from repro.core.daemon import (
    ShardedVeriDPDaemon,
    UdpReportListener,
    VeriDPDaemon,
    build_shard_specs,
)
from repro.core.replica import ShardReplica, _shard_of, replica_digest
from repro.core.reports import pack_report
from repro.core.server import VeriDPServer
from repro.dataplane import DataPlaneNetwork, ModifyRuleOutput
from repro.topologies import build_linear


@pytest.fixture
def rig():
    scenario = build_linear(3)
    server = VeriDPServer(scenario.topo, scenario.channel)
    net = DataPlaneNetwork(scenario.topo, scenario.channel)
    return scenario, server, net


def collect_payloads(scenario, net, count=50):
    """Wire-format reports from healthy all-pairs traffic."""
    payloads = []
    pairs = scenario.host_pairs()
    for i in range(count):
        src, dst = pairs[i % len(pairs)]
        result = net.inject_from_host(src, scenario.header_between(src, dst))
        for report in result.reports:
            payloads.append(pack_report(report, net.codec))
    return payloads


class TestDaemon:
    def test_processes_all_submitted(self, rig):
        scenario, server, net = rig
        payloads = collect_payloads(scenario, net, 60)
        with VeriDPDaemon(server, workers=3) as daemon:
            for payload in payloads:
                assert daemon.submit(payload)
            daemon.join()
            stats = daemon.stats()
        assert stats["processed"] == len(payloads)
        assert stats["verified"] == len(payloads)
        assert stats["failed"] == 0
        assert server.incidents == []

    def test_detects_failures_concurrently(self, rig):
        scenario, server, net = rig
        header = scenario.header_between("H1", "H3")
        rule = net.switch("S2").table.lookup(header, 3)
        ModifyRuleOutput("S2", rule.rule_id, 1).apply(net)
        bad_payloads = []
        for _ in range(10):
            result = net.inject_from_host("H1", header)
            bad_payloads += [pack_report(r, net.codec) for r in result.reports]
        with VeriDPDaemon(server, workers=4) as daemon:
            for payload in bad_payloads:
                daemon.submit(payload)
            daemon.join()
        assert len(server.incidents) == len(bad_payloads)
        assert all("S2" in i.blamed_switches for i in server.incidents)

    def test_malformed_payload_counted_not_fatal(self, rig):
        scenario, server, net = rig
        good = collect_payloads(scenario, net, 5)
        with VeriDPDaemon(server, workers=2) as daemon:
            daemon.submit(b"\x00garbage")
            for payload in good:
                daemon.submit(payload)
            daemon.join()
            stats = daemon.stats()
        assert stats["malformed"] == 1
        assert stats["processed"] == len(good)

    def test_queue_full_drops_counted(self, rig):
        scenario, server, net = rig
        payloads = collect_payloads(scenario, net, 5)
        daemon = VeriDPDaemon(server, workers=1, queue_size=2)
        # Not started: the queue fills and overflow is reported.
        accepted = sum(daemon.submit(p) for p in payloads)
        assert accepted == 2
        assert daemon.stats()["dropped"] == len(payloads) - 2
        daemon.start()
        daemon.join()
        daemon.stop()

    def test_concurrent_producers(self, rig):
        scenario, server, net = rig
        payloads = collect_payloads(scenario, net, 40)
        with VeriDPDaemon(server, workers=4, queue_size=10_000) as daemon:
            def produce(chunk):
                for payload in chunk:
                    daemon.submit(payload)

            threads = [
                threading.Thread(target=produce, args=(payloads[i::4],))
                for i in range(4)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            daemon.join()
            assert daemon.stats()["processed"] == len(payloads)

    def test_requires_workers(self, rig):
        _, server, _ = rig
        with pytest.raises(ValueError):
            VeriDPDaemon(server, workers=0)

    def test_start_stop_idempotent(self, rig):
        _, server, _ = rig
        daemon = VeriDPDaemon(server)
        daemon.start()
        daemon.start()
        daemon.stop()
        daemon.stop()


class TestShardedDaemon:
    def test_processes_all_submitted(self, rig):
        scenario, server, net = rig
        payloads = collect_payloads(scenario, net, 60)
        with ShardedVeriDPDaemon(server, workers=2, batch_size=16) as daemon:
            for payload in payloads:
                assert daemon.submit(payload)
            daemon.join()
            stats = daemon.stats()
        assert stats["processed"] == len(payloads)
        assert stats["verified"] == len(payloads)
        assert stats["failed"] == 0
        assert stats["mode"] == "process"
        assert server.incidents == []

    def test_detects_failures_and_localizes_on_parent(self, rig):
        scenario, server, net = rig
        header = scenario.header_between("H1", "H3")
        rule = net.switch("S2").table.lookup(header, 3)
        ModifyRuleOutput("S2", rule.rule_id, 1).apply(net)
        bad_payloads = []
        for _ in range(6):
            result = net.inject_from_host("H1", header)
            bad_payloads += [pack_report(r, net.codec) for r in result.reports]
        with ShardedVeriDPDaemon(server, workers=2) as daemon:
            for payload in bad_payloads:
                daemon.submit(payload)
            daemon.join()
            stats = daemon.stats()
        assert stats["failed"] == len(bad_payloads)
        assert len(server.incidents) == len(bad_payloads)
        assert all("S2" in i.blamed_switches for i in server.incidents)

    def test_malformed_payload_counted_not_fatal(self, rig):
        scenario, server, net = rig
        good = collect_payloads(scenario, net, 5)
        with ShardedVeriDPDaemon(server, workers=2) as daemon:
            daemon.submit(b"\x00garbage")
            for payload in good:
                daemon.submit(payload)
            daemon.join()
            stats = daemon.stats()
        assert stats["malformed"] == 1
        assert stats["processed"] == len(good)

    def test_stats_match_thread_daemon(self, rig):
        """Same payloads, same verdict counters in both execution modes."""
        scenario, server, net = rig
        payloads = collect_payloads(scenario, net, 30)
        with ShardedVeriDPDaemon(server, workers=3) as sharded:
            for payload in payloads:
                sharded.submit(payload)
            sharded.join()
        scenario2 = build_linear(3)
        server2 = VeriDPServer(scenario2.topo, scenario2.channel)
        with VeriDPDaemon(server2, workers=3) as threaded:
            for payload in payloads:
                threaded.submit(payload)
            threaded.join()
        s, t = sharded.stats(), threaded.stats()
        for key in ("processed", "verified", "failed", "malformed"):
            assert s[key] == t[key], key

    def test_requires_workers(self, rig):
        _, server, _ = rig
        with pytest.raises(ValueError):
            ShardedVeriDPDaemon(server, workers=0)

    def test_submit_requires_running(self, rig):
        _, server, _ = rig
        daemon = ShardedVeriDPDaemon(server, workers=1)
        with pytest.raises(RuntimeError):
            daemon.submit(b"x" * 26)

    def test_shard_specs_cover_every_pair_once(self, rig):
        scenario, server, net = rig
        server.refresh_if_dirty()
        for workers in (1, 2, 4):
            specs = build_shard_specs(server.table, server.hs, server.codec, workers)
            keys = [key for spec in specs for key in spec]
            assert len(keys) == len(set(keys)) == len(server.table.pairs())
            for key in keys:
                wire_key = (key[0] << 16) | key[1]
                owner = _shard_of(wire_key, workers)
                assert key in specs[owner]


class TestUdpListener:
    def test_reports_arrive_over_the_wire(self, rig):
        scenario, server, net = rig
        payloads = collect_payloads(scenario, net, 20)
        with VeriDPDaemon(server, workers=2) as daemon:
            with UdpReportListener(daemon) as listener:
                sender = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
                for payload in payloads:
                    sender.sendto(payload, listener.address)
                sender.close()
                deadline = time.time() + 5
                while listener.received < len(payloads) and time.time() < deadline:
                    time.sleep(0.01)
                daemon.join()
                assert listener.received == len(payloads)
        assert daemon.stats()["processed"] == len(payloads)
        assert server.incidents == []

    def test_failure_detected_over_the_wire(self, rig):
        scenario, server, net = rig
        header = scenario.header_between("H1", "H3")
        rule = net.switch("S2").table.lookup(header, 3)
        ModifyRuleOutput("S2", rule.rule_id, 1).apply(net)
        result = net.inject_from_host("H1", header)
        payload = pack_report(result.reports[0], net.codec)
        with VeriDPDaemon(server, workers=1) as daemon:
            with UdpReportListener(daemon) as listener:
                sender = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
                sender.sendto(payload, listener.address)
                sender.close()
                deadline = time.time() + 5
                while not server.incidents and time.time() < deadline:
                    time.sleep(0.01)
        assert server.incidents
        assert "S2" in server.incidents[0].blamed_switches

    def test_listener_survives_garbage_datagrams(self, rig):
        scenario, server, net = rig
        good = collect_payloads(scenario, net, 3)
        with VeriDPDaemon(server, workers=1) as daemon:
            with UdpReportListener(daemon) as listener:
                sender = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
                sender.sendto(b"not a report", listener.address)
                for payload in good:
                    sender.sendto(payload, listener.address)
                sender.close()
                deadline = time.time() + 5
                while listener.received < 4 and time.time() < deadline:
                    time.sleep(0.01)
                daemon.join()
        stats = daemon.stats()
        assert stats["processed"] == len(good)
        assert stats["malformed"] == 1


# ---------------------------------------------------------------------------
# resilience layer
# ---------------------------------------------------------------------------

from repro.core.resilience import OverflowPolicy, RestartBackoff
from repro.dataplane import KillSwitch, StaleReplica, WorkerKill
from repro.netmodel.rules import FlowRule, Forward, Match

def expected_digests(server, workers):
    """The digests of a fresh fleet of ``workers`` shards over the table."""
    specs = build_shard_specs(server.table, server.hs, server.codec, workers)
    return [replica_digest(spec) for spec in specs]


def shard_threads():
    return [t for t in threading.enumerate() if t.name.startswith("veridp-shard-")]


FAST_BACKOFF = dict(
    poll_interval=0.02,
    backoff=RestartBackoff(base=0.01, factor=2.0, cap=0.05),
)


class TestBackpressurePolicies:
    def test_dropped_full_queue_stat(self, rig):
        """Satellite: a full queue is a counted event, not just a False."""
        scenario, server, net = rig
        payloads = collect_payloads(scenario, net, 5)
        daemon = VeriDPDaemon(server, workers=1, queue_size=2)
        accepted = sum(daemon.submit(p) for p in payloads)
        assert accepted == 2
        stats = daemon.stats()
        assert stats["overflow_policy"] == "drop-new"
        daemon.start()
        daemon.join()
        daemon.stop()

    def test_drop_oldest_keeps_newest(self, rig):
        scenario, server, net = rig
        payloads = collect_payloads(scenario, net, 6)
        daemon = VeriDPDaemon(
            server, workers=1, queue_size=2, overflow="drop-oldest"
        )
        for payload in payloads:
            assert daemon.submit(payload)  # always admitted
        stats = daemon.stats()
        assert stats["dropped_oldest"] == len(payloads) - 2
        daemon.start()
        daemon.join()
        daemon.stop()
        assert daemon.stats()["processed"] == 2

    def test_block_policy_waits_for_workers(self, rig):
        scenario, server, net = rig
        payloads = collect_payloads(scenario, net, 30)
        with VeriDPDaemon(
            server, workers=2, queue_size=4, overflow=OverflowPolicy.BLOCK
        ) as daemon:
            for payload in payloads:
                assert daemon.submit(payload)  # blocks instead of dropping
            daemon.join()
            stats = daemon.stats()
        assert stats["processed"] == len(payloads)
        assert stats["dropped"] == 0

    def test_block_timeout_counts_as_drop(self, rig):
        scenario, server, net = rig
        payloads = collect_payloads(scenario, net, 3)
        daemon = VeriDPDaemon(
            server, workers=1, queue_size=1, overflow="block",
            submit_timeout=0.01,
        )
        # Not started: the queue stays full, so later submits time out.
        results = [daemon.submit(p) for p in payloads]
        assert results[0] is True and not any(results[1:])
        stats = daemon.stats()
        assert stats["block_timeouts"] == 2
        daemon.start()
        daemon.join()
        daemon.stop()

    def test_unknown_policy_rejected(self, rig):
        _, server, _ = rig
        with pytest.raises(ValueError, match="unknown overflow policy"):
            VeriDPDaemon(server, overflow="yolo")

    def test_sharded_rejects_drop_oldest(self, rig):
        _, server, _ = rig
        with pytest.raises(ValueError, match="drop-oldest"):
            ShardedVeriDPDaemon(server, overflow="drop-oldest")

    def test_sharded_drop_new_counts_batches(self, rig):
        scenario, server, net = rig
        payloads = collect_payloads(scenario, net, 40)
        # Tiny batches + one pending slot + a wedged-free worker: overflow
        # is forced by submitting faster than the worker drains.
        with ShardedVeriDPDaemon(
            server, workers=1, batch_size=1, max_pending_batches=1,
            overflow="drop-new", supervise=False,
        ) as daemon:
            for payload in payloads:
                daemon.submit(payload)
            daemon.join()
            stats = daemon.stats()
        assert stats["overflow_policy"] == "drop-new"
        assert stats["processed"] + stats["dropped"] == len(payloads)


class TestDeadLettering:
    def test_malformed_payload_dead_lettered(self, rig):
        scenario, server, net = rig
        good = collect_payloads(scenario, net, 5)
        with VeriDPDaemon(server, workers=2) as daemon:
            daemon.submit(b"\x00garbage")
            for payload in good:
                daemon.submit(payload)
            daemon.join()
            stats = daemon.stats()
        assert stats["malformed"] == 1
        assert stats["dead_lettered"] == 1
        assert stats["dead_letter_pending"] == 1
        letters = list(daemon.dead_letters._pending)
        assert letters[0].stage == "decode"
        assert letters[0].error_type == "ReportDecodeError"

    def test_retry_recovers_after_codec_learns_switch(self, rig):
        """A report from a not-yet-registered switch recovers on retry."""
        scenario, server, net = rig
        payload = bytearray(collect_payloads(scenario, net, 1)[0])
        # Point the inport at switch index 5 (codec only knows 3 switches).
        payload[2] = (5 << 6) >> 8
        payload[3] = (5 << 6) & 0xFF
        with VeriDPDaemon(server, workers=1) as daemon:
            daemon.submit(bytes(payload))
            daemon.join()
            assert daemon.stats()["malformed"] == 1
            # The codec learns the missing switches (indices 3..5)...
            for extra in ("X1", "X2", "X3"):
                server.codec.register(extra)
            # ...so the retry can decode (and verify: unknown pair verdict).
            recovered, quarantined = daemon.retry_dead_letters()
        assert (recovered, quarantined) == (1, 0)
        assert daemon.stats()["dead_letter_recovered"] == 1

    def test_retry_quarantines_hopeless_payloads(self, rig):
        scenario, server, net = rig
        with VeriDPDaemon(server, workers=1) as daemon:
            daemon.submit(b"utter garbage")
            daemon.join()
            # Three attempts by default: the first retry keeps the letter
            # pending, the second quarantines it.
            assert daemon.retry_dead_letters() == (0, 0)
            assert daemon.stats()["dead_letter_pending"] == 1
            recovered, quarantined = daemon.retry_dead_letters()
        assert (recovered, quarantined) == (0, 1)
        stats = daemon.stats()
        assert stats["dead_letter_quarantined"] == 1
        assert stats["dead_letter_pending"] == 0
        letters = daemon.dead_letters.drain_quarantined()
        assert letters[0].attempts == daemon.dead_letters.max_attempts == 3
        assert letters[0].quarantined

    def test_sharded_dead_letters_malformed(self, rig):
        scenario, server, net = rig
        good = collect_payloads(scenario, net, 5)
        with ShardedVeriDPDaemon(server, workers=2, supervise=False) as daemon:
            daemon.submit(b"\x00garbage")
            for payload in good:
                daemon.submit(payload)
            daemon.join()
            stats = daemon.stats()
        assert stats["malformed"] == 1
        assert stats["dead_lettered"] == 1


class TestUdpListenerLifecycle:
    def test_stop_is_idempotent_and_never_hangs(self, rig):
        """Satellite: stop() while _loop blocks in recvfrom must not hang."""
        _, server, _ = rig
        daemon = VeriDPDaemon(server, workers=1)
        daemon.start()
        listener = UdpReportListener(daemon)
        listener.start()
        time.sleep(0.05)  # let the loop enter recvfrom
        start = time.time()
        listener.stop()
        assert time.time() - start < 2.0
        listener.stop()  # second stop is a no-op
        daemon.stop()

    def test_stop_before_start_is_safe(self, rig):
        _, server, _ = rig
        daemon = VeriDPDaemon(server, workers=1)
        listener = UdpReportListener(daemon)
        listener.stop()
        listener.stop()

    def test_start_is_idempotent(self, rig):
        _, server, _ = rig
        daemon = VeriDPDaemon(server, workers=1)
        listener = UdpReportListener(daemon)
        listener.start()
        thread = listener._thread
        listener.start()
        assert listener._thread is thread
        listener.stop()

    def test_restart_rebinds_same_address(self, rig):
        scenario, server, net = rig
        payloads = collect_payloads(scenario, net, 3)
        daemon = VeriDPDaemon(server, workers=1)
        daemon.start()
        listener = UdpReportListener(daemon)
        listener.start()
        address = listener.address
        listener.stop()
        listener.start()  # restart-safe: new socket, same port
        assert listener.address == address
        sender = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
        for payload in payloads:
            sender.sendto(payload, listener.address)
        sender.close()
        deadline = time.time() + 5
        while listener.received < len(payloads) and time.time() < deadline:
            time.sleep(0.01)
        assert listener.received == len(payloads)
        listener.stop()
        daemon.join()
        daemon.stop()

    def test_backpressure_drops_are_counted(self, rig):
        scenario, server, net = rig
        payloads = collect_payloads(scenario, net, 10)
        daemon = VeriDPDaemon(server, workers=1, queue_size=2)
        # Daemon not started: the queue fills after 2 payloads.
        with UdpReportListener(daemon) as listener:
            sender = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
            for payload in payloads:
                sender.sendto(payload, listener.address)
            sender.close()
            deadline = time.time() + 5
            while listener.received < len(payloads) and time.time() < deadline:
                time.sleep(0.01)
            assert listener.received == len(payloads)
            assert listener.dropped == len(payloads) - 2
            assert listener.stats()["dropped"] == listener.dropped


class TestSupervisedShardedDaemon:
    def test_worker_kill_is_survived(self, rig):
        """A SIGKILLed shard worker is restarted; the run completes."""
        scenario, server, net = rig
        payloads = collect_payloads(scenario, net, 60)
        with ShardedVeriDPDaemon(
            server, workers=2, batch_size=8, restart_budget=3, **FAST_BACKOFF
        ) as daemon:
            for payload in payloads[: len(payloads) // 2]:
                daemon.submit(payload)
            WorkerKill(shard=0).apply(daemon)
            deadline = time.time() + 10
            while daemon.stats()["restarts"] < 1 and time.time() < deadline:
                time.sleep(0.02)
            for payload in payloads[len(payloads) // 2 :]:
                daemon.submit(payload)
            daemon.join()
            stats = daemon.stats()
        assert stats["restarts"] >= 1
        assert not stats["degraded"]
        # Accounting identity: every submitted payload is processed, dead,
        # dropped, or honestly lost to the kill.
        assert (
            stats["processed"]
            + stats["malformed"]
            + stats["verify_errors"]
            + stats["dropped"]
            + stats["lost_in_restart"]
            == len(payloads)
        )
        assert stats["verified"] == stats["processed"]

    def test_killswitch_plus_worker_death_converges(self, rig):
        """Satellite: data-plane KillSwitch + monitoring-plane worker death.

        The dead network switch silently swallows packets (fewer reports);
        the dead daemon worker is restarted by the supervisor; and a rule
        change afterwards still converges: the resync reloads the fleet
        from the rebuilt table.
        """
        scenario, server, net = rig
        healthy = collect_payloads(scenario, net, 20)
        KillSwitch("S2").apply(net)
        # Traffic through the dead switch produces no exit reports.
        after_kill = []
        pairs = scenario.host_pairs()
        for i in range(20):
            src, dst = pairs[i % len(pairs)]
            result = net.inject_from_host(src, scenario.header_between(src, dst))
            after_kill += [pack_report(r, net.codec) for r in result.reports]
        assert len(after_kill) < 20  # the blind spot the paper acknowledges
        with ShardedVeriDPDaemon(
            server, workers=2, batch_size=4, restart_budget=3, **FAST_BACKOFF
        ) as daemon:
            for payload in healthy[:10]:
                daemon.submit(payload)
            daemon.kill_worker(1)  # worker death mid-batch
            deadline = time.time() + 10
            while daemon.stats()["restarts"] < 1 and time.time() < deadline:
                time.sleep(0.02)
            assert daemon.stats()["restarts"] >= 1
            for payload in healthy[10:] + after_kill:
                daemon.submit(payload)
            daemon.join()
            # Rule change while running: the rebuilt table is a new table,
            # so the resync reloads every replica whole.  (This redirect
            # rebuilds as many entries as before: the version must move
            # anyway.)
            scenario.controller.install(
                "S1",
                FlowRule(200, Match.build(dst=scenario.subnets["H1"]), Forward(3)),
            )
            with daemon.server_lock:
                assert server.refresh_if_dirty() is True
            assert daemon.resync_replicas() is None
            assert daemon.replica_digests() == expected_digests(server, 2)
            for payload in collect_payloads(scenario, net, 5):
                daemon.submit(payload)
            daemon.join()
            stats = daemon.stats()
        assert stats["failed"] == 0
        assert not stats["degraded"]

    def test_stale_replica_resynced_on_restart(self, rig):
        """Satellite/tentpole: a restarted worker re-replicates against the
        current PathTable version."""
        scenario, server, net = rig
        payloads = collect_payloads(scenario, net, 10)
        with ShardedVeriDPDaemon(
            server, workers=2, batch_size=4, restart_budget=3, **FAST_BACKOFF
        ) as daemon:
            replicated_at = daemon._replica_version
            StaleReplica().apply(daemon)  # version moves under the replicas
            assert server.table.version != replicated_at
            daemon.kill_worker(0)
            deadline = time.time() + 10
            while daemon._replica_version == replicated_at and time.time() < deadline:
                time.sleep(0.02)
            # The supervisor resynchronised the fleet to the current version.
            assert daemon._replica_version == server.table.version
            for payload in payloads:
                daemon.submit(payload)
            daemon.join()
            assert daemon.stats()["failed"] == 0

    def test_restart_budget_degrades_to_threaded_fallback(self, rig, tmp_path):
        """Beyond the restart budget the daemon degrades instead of wedging:
        every shard is served on a thread, behind the same dispatcher, so
        digests, resyncs and the WAL's once-only logging carry on."""
        scenario, _, net = rig
        server = VeriDPServer(
            scenario.topo, scenario.channel, state_dir=str(tmp_path), fsync="never"
        )
        wal = server.persist.wal
        logged = wal.stats()["wal_records_report"]
        payloads = collect_payloads(scenario, net, 30)
        with ShardedVeriDPDaemon(
            server, workers=2, batch_size=4, restart_budget=0, **FAST_BACKOFF
        ) as daemon:
            for payload in payloads[:10]:
                daemon.submit(payload)
            daemon.kill_worker(0)
            deadline = time.time() + 10
            # The degrade is done once both shards run on threads.
            while len(shard_threads()) < 2 and time.time() < deadline:
                time.sleep(0.02)
            assert daemon.degraded
            assert len(shard_threads()) == 2
            # Ingestion survives: submits now flow to the shard threads.
            for payload in payloads[10:]:
                assert daemon.submit(payload)
            daemon.join()
            stats = daemon.stats()
            # The shard threads answer digests, one per shard, equal to a
            # fresh fleet's over the same table...
            before = daemon.replica_digests()
            assert before == expected_digests(server, 2)
            # ...and follow rule churn through resync patches.
            server.apply_rule_update("S1", "10.50.0.0/16", 2)
            assert daemon.resync_replicas()  # pairs patched, not a no-op
            after = daemon.replica_digests()
            assert after == expected_digests(server, 2) != before
        assert stats["mode"] == "thread-fallback"
        assert stats["degraded"] == 1
        assert stats["budget_exhausted"] == 1
        assert (
            stats["processed"]
            + stats["malformed"]
            + stats["verify_errors"]
            + stats["dropped"]
            + stats["lost_in_restart"]
            == len(payloads)
        )
        # Logged once across the degrade: the surrendered rows are adopted,
        # not logged again.
        assert wal.stats()["wal_records_report"] - logged == stats["submitted"]
        server.close()

    @pytest.mark.skipif(
        "fork" not in multiprocessing.get_all_start_methods(),
        reason="the verify patch reaches the worker by fork",
    )
    def test_wedged_worker_detected_by_heartbeat(self, rig, monkeypatch):
        """An alive-but-unresponsive worker is restarted via heartbeat age."""
        scenario, server, net = rig
        payloads = collect_payloads(scenario, net, 20)
        verify = ShardReplica.verify

        def wedge_first_generation(replica, frame):
            # Forked workers inherit the patch; generation 0 hangs in its
            # first batch, alive but unresponsive.
            while multiprocessing.current_process().name.endswith("-gen0"):
                time.sleep(0.5)
            return verify(replica, frame)

        monkeypatch.setattr(ShardReplica, "verify", wedge_first_generation)
        with ShardedVeriDPDaemon(
            server, workers=1, batch_size=4, restart_budget=3,
            heartbeat_timeout=0.3, **FAST_BACKOFF
        ) as daemon:
            for payload in payloads[:4]:  # one batch, which wedges it
                daemon.submit(payload)
            deadline = time.time() + 10
            while daemon.stats()["restarts"] < 1 and time.time() < deadline:
                time.sleep(0.02)
            stats = daemon.stats()
            assert stats["restarts"] >= 1
            assert stats["wedged_restarts"] >= 1
            for payload in payloads[4:]:
                daemon.submit(payload)
            daemon.join()
            assert daemon.stats()["verified"] >= len(payloads) - daemon.stats()["lost_in_restart"]


class TestListenerRebindCap:
    """ISSUE 9 satellite: the rebind loop has a lifetime cap + counter."""

    def _force_socket_error(self, listener):
        # Close the socket out from under the loop while _running stays
        # set: recvfrom raises OSError and the rebind path engages.
        listener._socket.close()

    def test_transient_error_rebinds_and_counts(self, rig):
        _, server, _ = rig
        daemon = VeriDPDaemon(server, workers=1)
        listener = UdpReportListener(daemon)
        listener.start()
        try:
            self._force_socket_error(listener)
            deadline = time.time() + 5
            while listener.rebinds < 1 and time.time() < deadline:
                time.sleep(0.01)
            assert listener.rebinds == 1
            assert listener.stats()["rebinds"] == 1
            assert listener._running  # survived the transient error
        finally:
            listener.stop()
            daemon.stop()

    def test_rebind_cap_stops_the_listener_loudly(self, rig):
        _, server, _ = rig
        daemon = VeriDPDaemon(server, workers=1)
        listener = UdpReportListener(daemon, max_rebinds=0)
        listener.start()
        try:
            self._force_socket_error(listener)
            listener._thread.join(timeout=5)
            assert not listener._thread.is_alive()
            assert not listener._running  # gave up, did not spin forever
            assert listener.rebinds == 0
            assert listener.stats()["socket_errors"] >= 1
        finally:
            listener.stop()
            daemon.stop()

    def test_rebind_metric_is_exported(self, rig):
        _, server, _ = rig
        daemon = VeriDPDaemon(server, workers=1)
        listener = UdpReportListener(daemon)
        listener.start()
        try:
            self._force_socket_error(listener)
            deadline = time.time() + 5
            while listener.rebinds < 1 and time.time() < deadline:
                time.sleep(0.01)
            snapshot = daemon.obs.registry.snapshot()
            assert snapshot.value("veridp_listener_rebind_total") == 1
        finally:
            listener.stop()
            daemon.stop()
