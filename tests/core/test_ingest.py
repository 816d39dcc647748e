"""Tests for the frame-native batched ingestion path (socket -> kernel).

Covers the shared ingest helpers (FrameBuffer, drain_socket, screen_frame,
shard_split), the daemons' ``submit_frame`` fast path, and the batched UDP
listener — including the oversize-datagram detection that replaced the old
magic 2048-byte receive buffer.
"""

import ctypes
import errno
import socket
import time

import pytest

from repro.core import ingest
from repro.core.daemon import (
    ShardedVeriDPDaemon,
    UdpReportListener,
    VeriDPDaemon,
)
from repro.core.ingest import (
    DEFAULT_INGEST_BATCH,
    HAVE_NUMPY,
    FrameBuffer,
    drain_socket,
    screen_frame,
    shard_split,
)
from repro.core.replica import _shard_of
from repro.core.reports import (
    REPORT_SIZE,
    REPORT_VERSION,
    Frame,
    pack_report,
    payload_precheck,
)
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
    payloads = []
    pairs = scenario.host_pairs()
    for i in range(count):
        src, dst = pairs[i % len(pairs)]
        result = net.inject_from_host(src, scenario.header_between(src, dst))
        for report in result.reports:
            payloads.append(pack_report(report, net.codec))
    return payloads


def make_row(version=REPORT_VERSION, fill=0x41):
    return bytes([version]) + bytes([fill]) * (REPORT_SIZE - 1)


class TestFrameBuffer:
    def test_accumulates_rows_and_takes_frame(self):
        fb = FrameBuffer(4)
        rows = [make_row(fill=i) for i in range(3)]
        for row in rows:
            fb.slot()[:REPORT_SIZE] = row
            fb.commit()
        assert fb.rows == 3
        assert not fb.full
        assert fb.take() == b"".join(rows)
        assert fb.rows == 0  # reset for the next drain

    def test_full_at_capacity(self):
        fb = FrameBuffer(2)
        for _ in range(2):
            fb.slot()[:REPORT_SIZE] = make_row()
            fb.commit()
        assert fb.full

    def test_slot_is_one_byte_larger_than_a_report(self):
        # The +1 byte is the oversize detector: a longer datagram fills
        # REPORT_SIZE + 1 bytes instead of silently clipping to a report.
        fb = FrameBuffer(1)
        assert len(fb.slot()) == REPORT_SIZE + 1

    def test_slot_bytes_copies_uncommitted_prefix(self):
        fb = FrameBuffer(2)
        fb.slot()[:5] = b"hello"
        assert fb.slot_bytes(5) == b"hello"
        assert fb.rows == 0  # never committed

    def test_rejects_nonpositive_capacity(self):
        with pytest.raises(ValueError):
            FrameBuffer(0)


class TestDrainSocket:
    def make_pair(self):
        rx = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
        rx.bind(("127.0.0.1", 0))
        tx = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
        return rx, tx

    def send_and_settle(self, tx, rx, payloads):
        for payload in payloads:
            tx.sendto(payload, rx.getsockname())
        # Loopback delivery is fast but not synchronous.
        time.sleep(0.05)

    def test_drains_pending_datagrams_into_frame(self):
        rx, tx = self.make_pair()
        try:
            rows = [make_row(fill=i) for i in range(5)]
            self.send_and_settle(tx, rx, rows)
            rx.setblocking(False)
            fb = FrameBuffer(8)
            count, odd = drain_socket(rx, fb)
            assert count == 5
            assert odd == []
            assert fb.take() == b"".join(rows)
        finally:
            rx.close()
            tx.close()

    def test_odd_sizes_reported_not_committed(self):
        rx, tx = self.make_pair()
        try:
            self.send_and_settle(
                tx, rx, [make_row(), b"short", make_row(), b"x" * 100]
            )
            rx.setblocking(False)
            fb = FrameBuffer(8)
            count, odd = drain_socket(rx, fb)
            assert count == 4
            assert fb.rows == 2
            assert [(p, n) for p, n in odd] == [
                (b"short", 5),
                (b"x" * (REPORT_SIZE + 1), REPORT_SIZE + 1),
            ]
        finally:
            rx.close()
            tx.close()

    def test_limit_stops_the_drain(self):
        rx, tx = self.make_pair()
        try:
            self.send_and_settle(tx, rx, [make_row()] * 6)
            rx.setblocking(False)
            fb = FrameBuffer(16)
            count, _ = drain_socket(rx, fb, limit=4)
            assert count == 4
            assert fb.rows == 4
        finally:
            rx.close()
            tx.close()

    def test_empty_socket_returns_zero(self):
        rx, tx = self.make_pair()
        try:
            rx.setblocking(False)
            count, odd = drain_socket(rx, FrameBuffer(4))
            assert (count, odd) == (0, [])
        finally:
            rx.close()
            tx.close()

    @pytest.mark.skipif(ingest._recvmmsg is None, reason="no recvmmsg here")
    def test_kernel_without_recvmmsg_falls_back_to_the_loop(self, monkeypatch):
        # libc has the symbol, the kernel refuses the call (ENOSYS under a
        # seccomp filter): the drain must still empty the socket, or the
        # listener would harvest one datagram per blocking wakeup and leave
        # the rest queued.
        calls = []

        def refused(fd, msgvec, vlen, flags, timeout):
            calls.append(vlen)
            ctypes.set_errno(errno.ENOSYS)
            return -1

        rx, tx = self.make_pair()
        try:
            fb = FrameBuffer(8)
            monkeypatch.setattr(ingest, "_recvmmsg", refused)
            self.send_and_settle(tx, rx, [make_row(), b"short", make_row(fill=7)])
            rx.setblocking(False)
            count, odd = drain_socket(rx, fb)
            assert calls == [8]
            assert (count, odd) == (3, [(b"short", 5)])
            assert fb.take() == make_row() + make_row(fill=7)
        finally:
            rx.close()
            tx.close()


class TestScreenFrame:
    def test_all_clean_frame_is_returned_whole(self):
        frame = b"".join(make_row(fill=i) for i in range(4))
        clean, rejected = screen_frame(frame)
        assert clean == frame
        assert rejected == []

    def test_bad_version_rows_rejected_with_scalar_reason(self):
        rows = [make_row(), make_row(version=9), make_row(), make_row(version=0)]
        clean, rejected = screen_frame(b"".join(rows))
        assert clean == rows[0] + rows[2]
        assert [(p, r) for p, r in rejected] == [
            (rows[1], payload_precheck(rows[1])),
            (rows[3], payload_precheck(rows[3])),
        ]

    def test_empty_frame(self):
        assert screen_frame(b"") == (b"", [])

    def test_unaligned_frame_rejected(self):
        with pytest.raises(ValueError, match="not a multiple"):
            screen_frame(b"x" * (REPORT_SIZE + 1))


class TestShardSplit:
    def rows_for(self, n):
        out = []
        for i in range(n):
            row = bytearray(make_row(fill=i % 251))
            row[2:6] = (i * 2654435761 % (1 << 32)).to_bytes(4, "big")
            out.append(bytes(row))
        return out

    def test_matches_scalar_shard_of(self):
        rows = self.rows_for(64)
        for workers in (1, 2, 3, 8):
            chunks = shard_split(b"".join(rows), workers)
            assert len(chunks) == workers
            expected = [[] for _ in range(workers)]
            for row in rows:
                key = int.from_bytes(row[2:6], "big")
                expected[_shard_of(key, workers)].append(row)
            assert chunks == [b"".join(rows) for rows in expected]

    def test_rows_are_partitioned_exactly_once(self):
        rows = self.rows_for(40)
        chunks = shard_split(b"".join(rows), 4)
        scattered = []
        for chunk in chunks:
            assert len(chunk) % REPORT_SIZE == 0
            scattered += [
                chunk[i : i + REPORT_SIZE]
                for i in range(0, len(chunk), REPORT_SIZE)
            ]
        assert sorted(scattered) == sorted(rows)

    def test_single_worker_fast_path(self):
        frame = b"".join(self.rows_for(5))
        assert shard_split(frame, 1) == [frame]

    def test_rejects_nonpositive_workers(self):
        with pytest.raises(ValueError):
            shard_split(b"", 0)


@pytest.mark.skipif(not HAVE_NUMPY, reason="column extraction requires numpy")
class TestFrameColumns:
    def test_pair_keys_pack_inport_outport(self, rig):
        from repro.core.ingest import pair_keys

        scenario, server, net = rig
        payloads = collect_payloads(scenario, net, 10)
        keys = pair_keys(b"".join(payloads))
        for i, payload in enumerate(payloads):
            assert int(keys[i]) == int.from_bytes(payload[2:6], "big")

    def test_dst_ips_column(self, rig):
        from repro.core.ingest import dst_ips

        scenario, server, net = rig
        payloads = collect_payloads(scenario, net, 10)
        ips = dst_ips(b"".join(payloads))
        for i, payload in enumerate(payloads):
            assert int(ips[i]) == int.from_bytes(payload[18:22], "big")


class TestDaemonSubmitFrame:
    def test_frame_processes_like_scalars(self, rig):
        scenario, server, net = rig
        payloads = collect_payloads(scenario, net, 60)
        with VeriDPDaemon(server, workers=2) as daemon:
            admitted = daemon.submit_frame(Frame(b"".join(payloads)))
            assert admitted == len(payloads)
            daemon.join()
            stats = daemon.stats()
        assert stats["processed"] == len(payloads)
        assert stats["verified"] == len(payloads)
        assert stats["frames"] == 1
        assert stats["failed"] == 0
        assert server.incidents == []

    def test_wire_kernel_bulk_passes_large_frames(self, rig):
        pytest.importorskip("numpy")
        scenario, server, net = rig
        payloads = collect_payloads(scenario, net, 80)
        assert len(payloads) >= 32  # past the vector crossover
        with VeriDPDaemon(server, workers=1) as daemon:
            daemon.submit_frame(Frame(b"".join(payloads)))
            daemon.join()
            stats = daemon.stats()
        assert stats["processed"] == len(payloads)
        assert stats["wire_pass"] > 0  # the fast path actually engaged
        assert stats["verified"] == len(payloads)

    def test_frame_failures_match_scalar_incidents(self, rig):
        """Flagged rows are salvaged through the scalar path: same
        incidents, same counters as per-datagram submission."""
        scenario, server, net = rig
        header = scenario.header_between("H1", "H3")
        rule = net.switch("S2").table.lookup(header, 3)
        ModifyRuleOutput("S2", rule.rule_id, 1).apply(net)
        bad = []
        for _ in range(40):
            result = net.inject_from_host("H1", header)
            bad += [pack_report(r, net.codec) for r in result.reports]
        with VeriDPDaemon(server, workers=1) as daemon:
            daemon.submit_frame(Frame(b"".join(bad)))
            daemon.join()
            stats = daemon.stats()
        assert stats["failed"] == len(bad)
        assert len(server.incidents) == len(bad)
        assert all("S2" in i.blamed_switches for i in server.incidents)

    def test_malformed_rows_dead_lettered_like_scalars(self, rig):
        scenario, server, net = rig
        good = collect_payloads(scenario, net, 40)
        # A row the precheck passes but the codec cannot decode.
        bad = bytearray(good[0])
        bad[2], bad[3] = 0xFF, 0x00  # switch index way out of range
        rows = good + [bytes(bad)]
        with VeriDPDaemon(server, workers=1) as daemon:
            daemon.submit_frame(Frame(b"".join(rows)))
            daemon.join()
            stats = daemon.stats()
        assert stats["processed"] == len(good)
        assert stats["malformed"] == 1
        assert stats["dead_lettered"] == 1

    def test_empty_frame_is_a_noop(self, rig):
        _, server, _ = rig
        with VeriDPDaemon(server, workers=1) as daemon:
            assert daemon.submit_frame(Frame(b"")) == 0
            assert daemon.stats()["frames"] == 0

    def test_partial_admission_counts_refused_rows(self, rig):
        scenario, server, net = rig
        payloads = collect_payloads(scenario, net, 10)
        daemon = VeriDPDaemon(server, workers=1, queue_size=4)
        # Not started: the queue fills, the frame is split at the bound.
        admitted = daemon.submit_frame(Frame(b"".join(payloads)))
        assert admitted == 4
        stats = daemon.stats()
        assert stats["dropped"] == len(payloads) - 4
        assert stats["submitted"] == len(payloads)
        daemon.start()
        daemon.join()
        daemon.stop()
        assert daemon.stats()["processed"] == 4

    def test_sharded_submit_frame(self, rig):
        scenario, server, net = rig
        payloads = collect_payloads(scenario, net, 60)
        with ShardedVeriDPDaemon(server, workers=2, batch_size=16) as daemon:
            admitted = daemon.submit_frame(Frame(b"".join(payloads)))
            assert admitted == len(payloads)
            daemon.join()
            stats = daemon.stats()
        assert stats["processed"] == len(payloads)
        assert stats["verified"] == len(payloads)
        assert stats["failed"] == 0
        assert server.incidents == []

    def test_sharded_frame_and_scalar_stats_agree(self, rig):
        scenario, server, net = rig
        payloads = collect_payloads(scenario, net, 30)
        with ShardedVeriDPDaemon(server, workers=2) as framed:
            framed.submit_frame(Frame(b"".join(payloads)))
            framed.join()
        scenario2 = build_linear(3)
        server2 = VeriDPServer(scenario2.topo, scenario2.channel)
        net2 = DataPlaneNetwork(scenario2.topo, scenario2.channel)
        with ShardedVeriDPDaemon(server2, workers=2) as scalar:
            for payload in payloads:
                scalar.submit(payload)
            scalar.join()
        f, s = framed.stats(), scalar.stats()
        for key in ("processed", "verified", "failed", "malformed", "submitted"):
            assert f[key] == s[key], key


class SenderMixin:
    def blast(self, listener, payloads):
        sender = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
        try:
            for payload in payloads:
                sender.sendto(payload, listener.address)
        finally:
            sender.close()

    def await_received(self, listener, count, timeout=5.0):
        deadline = time.time() + timeout
        while listener.received < count and time.time() < deadline:
            time.sleep(0.01)


class TestBatchedListener(SenderMixin):
    def test_reports_arrive_through_the_batched_path(self, rig):
        scenario, server, net = rig
        payloads = collect_payloads(scenario, net, 40)
        with VeriDPDaemon(server, workers=2) as daemon:
            with UdpReportListener(daemon, ingest_batch=16) as listener:
                assert listener.ingest_batch == 16
                self.blast(listener, payloads)
                self.await_received(listener, len(payloads))
                daemon.join()
                assert listener.received == len(payloads)
        stats = daemon.stats()
        assert stats["processed"] == len(payloads)
        assert stats["frames"] >= 1  # the handoff really used frames
        assert server.incidents == []

    def test_default_batch_size(self, rig):
        _, server, _ = rig
        daemon = VeriDPDaemon(server, workers=1)
        listener = UdpReportListener(daemon)
        assert listener.ingest_batch == DEFAULT_INGEST_BATCH

    def test_oversize_datagram_detected_and_dead_lettered(self, rig):
        """Satellite: the receive slot is REPORT_SIZE-derived, so a datagram
        longer than a report is *detected* as a kernel truncation — counted,
        dead-lettered — never silently clipped to 27 plausible bytes."""
        scenario, server, net = rig
        good = collect_payloads(scenario, net, 3)
        oversized = good[0] + b"trailing-garbage"
        with VeriDPDaemon(server, workers=1) as daemon:
            with UdpReportListener(daemon, ingest_batch=8) as listener:
                self.blast(listener, [oversized] + good)
                self.await_received(listener, 4)
                daemon.join()
                assert listener.oversize == 1
                assert listener.stats()["oversize"] == 1
        stats = daemon.stats()
        assert stats["processed"] == len(good)
        assert stats["malformed"] == 1
        letters = list(daemon.dead_letters._pending)
        assert any("oversize" in l.error for l in letters)

    def test_oversize_metric_exported(self, rig):
        scenario, server, net = rig
        with VeriDPDaemon(server, workers=1) as daemon:
            with UdpReportListener(daemon, ingest_batch=8) as listener:
                self.blast(listener, [b"x" * 200])
                self.await_received(listener, 1)
                snapshot = daemon.obs.registry.snapshot()
                assert snapshot.value("veridp_listener_oversize_total") == 1

    def test_scalar_loop_detects_oversize_too(self, rig):
        """ingest_batch=1 is a one-row frame through the same loop:
        oversize detection works identically."""
        scenario, server, net = rig
        good = collect_payloads(scenario, net, 2)
        with VeriDPDaemon(server, workers=1) as daemon:
            with UdpReportListener(daemon, ingest_batch=1) as listener:
                self.blast(listener, [good[0] + b"!!"] + good)
                self.await_received(listener, 3)
                daemon.join()
                assert listener.oversize == 1
        assert daemon.stats()["processed"] == len(good)

    def test_undersize_and_bad_version_counted_as_wrong_size(self, rig):
        scenario, server, net = rig
        good = collect_payloads(scenario, net, 3)
        bad_version = bytearray(good[0])
        bad_version[0] = 99
        with VeriDPDaemon(server, workers=1) as daemon:
            with UdpReportListener(daemon, ingest_batch=8) as listener:
                self.blast(listener, [b"tiny", bytes(bad_version)] + good)
                self.await_received(listener, 5)
                daemon.join()
                assert listener.wrong_size == 2
                assert listener.oversize == 0
        stats = daemon.stats()
        assert stats["processed"] == len(good)
        assert stats["malformed"] == 2

    def test_backpressure_drops_counted_per_report(self, rig):
        scenario, server, net = rig
        payloads = collect_payloads(scenario, net, 10)
        daemon = VeriDPDaemon(server, workers=1, queue_size=2)
        # Daemon not started: the queue fills after 2 reports.
        with UdpReportListener(daemon, ingest_batch=64) as listener:
            self.blast(listener, payloads)
            self.await_received(listener, len(payloads))
            deadline = time.time() + 5
            while listener.dropped < len(payloads) - 2 and time.time() < deadline:
                time.sleep(0.01)
            assert listener.received == len(payloads)
            assert listener.dropped == len(payloads) - 2
        daemon.stop()

    def test_stop_is_prompt_in_batched_mode(self, rig):
        _, server, _ = rig
        daemon = VeriDPDaemon(server, workers=1)
        daemon.start()
        listener = UdpReportListener(daemon, ingest_batch=32)
        listener.start()
        time.sleep(0.05)
        start = time.time()
        listener.stop()
        assert time.time() - start < 2.0
        daemon.stop()

    def test_rejects_batch_below_one(self, rig):
        _, server, _ = rig
        daemon = VeriDPDaemon(server, workers=1)
        listener = UdpReportListener(daemon, ingest_batch=0)
        assert listener.ingest_batch == 1  # clamped to one-row frames
