"""Unit tests for the write-ahead log: format, rotation, crash recovery."""

import glob
import os

import pytest

from repro.persist.wal import (
    RT_CONTROL,
    RT_MALFORMED,
    RT_REPORT,
    RT_REPORT_BATCH,
    WAL_MAGIC,
    ControlEvent,
    WalError,
    WriteAheadLog,
    unpack_report_batch,
)


def records_of(wal, **kwargs):
    return list(wal.records(**kwargs))


def segment_count(directory):
    return len(glob.glob(os.path.join(directory, "wal-*.log")))


class TestAppendAndIterate:
    def test_round_trip_across_reopen(self, tmp_path):
        d = str(tmp_path)
        with WriteAheadLog(d, fsync="never") as wal:
            for i in range(10):
                assert wal.append_report(bytes([i]) * 8) == i + 1
            assert wal.last_seq == 10
        with WriteAheadLog(d, fsync="never") as wal:
            got = records_of(wal)
            assert [r.seq for r in got] == list(range(1, 11))
            assert [r.payload for r in got] == [bytes([i]) * 8 for i in range(10)]
            assert all(r.rtype == RT_REPORT for r in got)

    def test_streams_are_tagged(self, tmp_path):
        with WriteAheadLog(str(tmp_path), fsync="never") as wal:
            wal.append_control(ControlEvent("add", "S1", "10.0.1.0/24", 2))
            wal.append_report(b"x" * 28)
            wal.append_malformed(b"junk")
            types = [r.rtype for r in records_of(wal)]
        assert types == [RT_CONTROL, RT_REPORT, RT_MALFORMED]

    def test_start_and_stop_seq_window(self, tmp_path):
        with WriteAheadLog(str(tmp_path), fsync="never") as wal:
            for i in range(20):
                wal.append_report(bytes([i]))
            window = records_of(wal, start_seq=5, stop_seq=9)
            assert [r.seq for r in window] == [5, 6, 7, 8, 9]

    def test_empty_payload_and_large_payload(self, tmp_path):
        with WriteAheadLog(str(tmp_path), fsync="never") as wal:
            wal.append_report(b"")
            wal.append_report(b"z" * 10_000)
            got = records_of(wal)
            assert got[0].payload == b""
            assert got[1].payload == b"z" * 10_000

    def test_append_rejects_bad_type(self, tmp_path):
        with WriteAheadLog(str(tmp_path), fsync="never") as wal:
            with pytest.raises(WalError):
                wal.append(99, b"payload")


class TestRotation:
    def test_segments_rotate_and_iterate_in_order(self, tmp_path):
        d = str(tmp_path)
        with WriteAheadLog(d, fsync="never", segment_max_bytes=256) as wal:
            for i in range(50):
                wal.append_report(bytes([i]) * 16)
            assert segment_count(d) > 1
            assert [r.seq for r in records_of(wal)] == list(range(1, 51))
        # Reopen sees the same multi-segment history.
        with WriteAheadLog(d, fsync="never", segment_max_bytes=256) as wal:
            assert wal.last_seq == 50
            assert [r.seq for r in records_of(wal)] == list(range(1, 51))

    def test_appends_continue_after_reopen_of_rotated_log(self, tmp_path):
        d = str(tmp_path)
        with WriteAheadLog(d, fsync="never", segment_max_bytes=128) as wal:
            for i in range(20):
                wal.append_report(b"a" * 20)
        with WriteAheadLog(d, fsync="never", segment_max_bytes=128) as wal:
            assert wal.append_report(b"b") == 21
            assert records_of(wal)[-1].payload == b"b"

    def test_prune_keeps_coverage(self, tmp_path):
        d = str(tmp_path)
        with WriteAheadLog(d, fsync="never", segment_max_bytes=128) as wal:
            for i in range(30):
                wal.append_report(bytes([i]) * 20)
            before = segment_count(d)
            removed = wal.prune_segments_before(15)
            assert removed > 0
            assert segment_count(d) == before - removed
            first = wal.first_seq()
            # Everything from first_seq on is still iterable and contiguous.
            assert first <= 16
            assert [r.seq for r in records_of(wal, start_seq=first)] == list(
                range(first, 31)
            )


class TestTornTailRecovery:
    def _fill(self, d, n=12, **kwargs):
        with WriteAheadLog(d, fsync="never", **kwargs) as wal:
            for i in range(n):
                wal.append_report(bytes([i]) * 10)
            return wal.last_seq

    def test_truncated_tail_recovers_prefix(self, tmp_path):
        d = str(tmp_path)
        self._fill(d)
        path = sorted(os.listdir(d))[0]
        full = os.path.join(d, path)
        size = os.path.getsize(full)
        with open(full, "r+b") as fh:
            fh.truncate(size - 5)  # torn mid-record
        with WriteAheadLog(d, fsync="never") as wal:
            assert wal.last_seq == 11
            assert wal.stats()["wal_truncated_bytes"] > 0
            assert [r.seq for r in records_of(wal)] == list(range(1, 12))
            # The log stays appendable after the repair.
            assert wal.append_report(b"new") == 12

    def test_bitflip_in_tail_record_recovers_prefix(self, tmp_path):
        d = str(tmp_path)
        self._fill(d)
        full = os.path.join(d, sorted(os.listdir(d))[0])
        size = os.path.getsize(full)
        with open(full, "r+b") as fh:
            fh.seek(size - 3)
            byte = fh.read(1)[0]
            fh.seek(size - 3)
            fh.write(bytes([byte ^ 0xFF]))
        with WriteAheadLog(d, fsync="never") as wal:
            assert wal.last_seq == 11

    def test_corrupt_middle_segment_drops_later_segments(self, tmp_path):
        d = str(tmp_path)
        self._fill(d, n=40, segment_max_bytes=128)
        segs = sorted(p for p in os.listdir(d) if p.startswith("wal-"))
        assert len(segs) >= 3
        victim = os.path.join(d, segs[1])
        with open(victim, "r+b") as fh:
            fh.seek(len(WAL_MAGIC) + 2)
            fh.write(b"\xff\xff")
        with WriteAheadLog(d, fsync="never") as wal:
            remaining = sorted(p for p in os.listdir(d) if p.startswith("wal-"))
            # Everything after the damaged segment is gone: a gap in the
            # sequence space would make "snapshot + suffix" unsound.
            assert len(remaining) <= 2
            seqs = [r.seq for r in records_of(wal)]
            assert seqs == list(range(1, len(seqs) + 1))
            assert wal.append_report(b"after-repair") == wal.last_seq

    def test_read_only_open_does_not_modify_disk(self, tmp_path):
        d = str(tmp_path)
        self._fill(d)
        full = os.path.join(d, sorted(os.listdir(d))[0])
        size = os.path.getsize(full)
        with open(full, "r+b") as fh:
            fh.truncate(size - 5)
        damaged = os.path.getsize(full)
        wal = WriteAheadLog(d, read_only=True)
        assert wal.last_seq == 11
        assert os.path.getsize(full) == damaged  # not repaired in place
        wal.close()

    def test_empty_directory_starts_at_seq_zero(self, tmp_path):
        with WriteAheadLog(str(tmp_path), fsync="never") as wal:
            assert wal.last_seq == 0
            assert wal.first_seq() is None
            assert records_of(wal) == []


class TestFsyncPolicies:
    @pytest.mark.parametrize("policy", ["always", "interval", "never"])
    def test_policies_preserve_records(self, tmp_path, policy):
        d = str(tmp_path / policy)
        with WriteAheadLog(d, fsync=policy, fsync_interval_s=0.01) as wal:
            for i in range(5):
                wal.append_report(bytes([i]))
        with WriteAheadLog(d, fsync="never") as wal:
            assert wal.last_seq == 5

    def test_always_fsyncs_per_record(self, tmp_path):
        with WriteAheadLog(str(tmp_path), fsync="always") as wal:
            base = wal.stats()["wal_fsyncs"]
            wal.append_report(b"a")
            wal.append_report(b"b")
            assert wal.stats()["wal_fsyncs"] >= base + 2

    def test_bad_policy_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            WriteAheadLog(str(tmp_path), fsync="sometimes")

    def test_explicit_sync_always_honored(self, tmp_path):
        with WriteAheadLog(str(tmp_path), fsync="never") as wal:
            wal.append_report(b"a")
            base = wal.stats()["wal_fsyncs"]
            wal.sync()
            assert wal.stats()["wal_fsyncs"] == base + 1


class TestControlEventCodec:
    @pytest.mark.parametrize(
        "event",
        [
            ControlEvent("add", "S1", "10.0.1.0/24", 3),
            ControlEvent("delete", "CORE-1", "0.0.0.0/1"),
            ControlEvent("add", "z" * 255, "255.255.255.255/32", 2**31 - 1),
            ControlEvent("add", "S1", "10.0.0.0/8", -1),  # DROP_PORT
        ],
    )
    def test_round_trip(self, event):
        assert ControlEvent.decode(event.encode()) == event

    @pytest.mark.parametrize(
        "payload",
        [b"", b"\x00", b"\x09\x02S1\x0b10.0.1.0/24" + b"\x00" * 4],
    )
    def test_malformed_payloads_raise(self, payload):
        with pytest.raises(WalError):
            ControlEvent.decode(payload)

    def test_trailing_bytes_rejected(self):
        blob = ControlEvent("add", "S1", "10.0.1.0/24", 3).encode() + b"x"
        with pytest.raises(WalError):
            ControlEvent.decode(blob)


class TestReportBatchRecord:
    def test_round_trip_one_record_many_payloads(self, tmp_path):
        payloads = [bytes([i]) * (i * 7 % 40 + 1) for i in range(20)]
        with WriteAheadLog(str(tmp_path), fsync="never") as wal:
            assert wal.append_report_batch(payloads) == 1
            assert wal.last_seq == 1
        with WriteAheadLog(str(tmp_path), read_only=True) as wal:
            records = list(wal.records())
            assert len(records) == 1
            assert records[0].rtype == RT_REPORT_BATCH
            assert unpack_report_batch(records[0].payload) == payloads

    def test_empty_batch_is_a_no_op(self, tmp_path):
        with WriteAheadLog(str(tmp_path), fsync="never") as wal:
            wal.append_report(b"a")
            assert wal.append_report_batch([]) == 1
            assert wal.last_seq == 1

    def test_empty_payloads_survive(self, tmp_path):
        with WriteAheadLog(str(tmp_path), fsync="never") as wal:
            wal.append_report_batch([b"", b"x", b""])
        with WriteAheadLog(str(tmp_path), read_only=True) as wal:
            (record,) = wal.records()
            assert unpack_report_batch(record.payload) == [b"", b"x", b""]

    def test_oversized_payload_rejected(self, tmp_path):
        with WriteAheadLog(str(tmp_path), fsync="never") as wal:
            with pytest.raises(WalError):
                wal.append_report_batch([b"x" * 0x10000])
            assert wal.last_seq == 0

    def test_truncated_body_raises(self):
        payloads = [b"abc", b"de"]
        with pytest.raises(WalError):
            unpack_report_batch(b"\x00")  # torn length prefix
        body = b"\x00\x03abc\x00\x02de"
        assert unpack_report_batch(body) == payloads
        with pytest.raises(WalError):
            unpack_report_batch(body[:-1])  # torn payload

    def test_stats_count_payloads_not_records(self, tmp_path):
        with WriteAheadLog(str(tmp_path), fsync="never") as wal:
            wal.append_report(b"solo")
            wal.append_report_batch([b"a", b"b", b"c"])
            stats = wal.stats()
        assert stats["wal_records_report"] == 4
        assert stats["wal_records_report_batch"] == 1

    def test_interleaves_with_other_streams(self, tmp_path):
        with WriteAheadLog(str(tmp_path), fsync="never") as wal:
            wal.append_control(ControlEvent("add", "S1", "10.0.1.0/24", 1))
            wal.append_report_batch([b"a", b"b"])
            wal.append_malformed(b"junk")
        with WriteAheadLog(str(tmp_path), read_only=True) as wal:
            assert [r.rtype for r in wal.records()] == [
                RT_CONTROL,
                RT_REPORT_BATCH,
                RT_MALFORMED,
            ]
            assert [r.seq for r in wal.records()] == [1, 2, 3]


class TestStats:
    def test_stream_counters(self, tmp_path):
        with WriteAheadLog(str(tmp_path), fsync="never") as wal:
            wal.append_control(ControlEvent("add", "S1", "10.0.1.0/24", 1))
            wal.append_report(b"r1")
            wal.append_report(b"r2")
            wal.append_malformed(b"m")
            stats = wal.stats()
        assert stats["wal_records_control"] == 1
        assert stats["wal_records_report"] == 2
        assert stats["wal_records_malformed"] == 1
        assert stats["wal_last_seq"] == 4
        assert stats["wal_bytes_appended"] > 0
