"""Property tests: the WAL recovers the longest valid prefix, always.

The central durability claim — arbitrary damage to the tail of the log
(torn writes, bit flips) never crashes recovery and never loses records
*before* the damage — is exercised exhaustively: truncation at **every**
byte offset of a small log, and bit flips at every byte, plus
hypothesis-driven random streams.  Payload corruption reuses the chaos
taxonomy from :mod:`repro.dataplane.report_faults` so the damage shapes
match what the chaos campaign injects on the transport.
"""

import os
import random

from hypothesis import given, settings, strategies as st

from repro.dataplane.report_faults import BitFlipReports, ReportStreamFaultInjector
from repro.persist.wal import WriteAheadLog


def _write_log(directory, payloads, **kwargs):
    with WriteAheadLog(directory, fsync="never", **kwargs) as wal:
        for payload in payloads:
            wal.append_report(payload)
    paths = sorted(
        os.path.join(directory, p)
        for p in os.listdir(directory)
        if p.startswith("wal-")
    )
    return paths


def _recovered_payloads(directory):
    with WriteAheadLog(directory, fsync="never") as wal:
        return [r.payload for r in wal.records()]


payload_streams = st.lists(
    st.binary(min_size=0, max_size=40), min_size=1, max_size=12
)


class TestTruncationEveryOffset:
    def test_every_truncation_point_recovers_a_prefix(self, tmp_path):
        """Cut the log at every byte offset: recovery yields an exact prefix."""
        payloads = [bytes([i]) * (3 + i) for i in range(6)]
        ref = str(tmp_path / "ref")
        (ref_seg,) = _write_log(ref, payloads)
        blob = open(ref_seg, "rb").read()
        for cut in range(len(blob) + 1):
            d = str(tmp_path / f"cut-{cut}")
            os.makedirs(d)
            seg = os.path.join(d, os.path.basename(ref_seg))
            with open(seg, "wb") as fh:
                fh.write(blob[:cut])
            got = _recovered_payloads(d)
            assert got == payloads[: len(got)], f"not a prefix at cut={cut}"
            # Monotone: cutting at a later offset never recovers fewer
            # records than the longest full-record prefix below it.
            if cut == len(blob):
                assert got == payloads

    def test_every_single_byte_flip_recovers_a_prefix(self, tmp_path):
        payloads = [bytes([i]) * 5 for i in range(4)]
        ref = str(tmp_path / "ref")
        (ref_seg,) = _write_log(ref, payloads)
        blob = bytearray(open(ref_seg, "rb").read())
        for pos in range(len(blob)):
            d = str(tmp_path / f"flip-{pos}")
            os.makedirs(d)
            corrupted = bytearray(blob)
            corrupted[pos] ^= 0x40
            with open(os.path.join(d, os.path.basename(ref_seg)), "wb") as fh:
                fh.write(bytes(corrupted))
            got = _recovered_payloads(d)
            # A flip before record k's end invalidates k and everything
            # after; payloads recovered must still be an exact prefix.
            assert got == payloads[: len(got)], f"not a prefix at flip={pos}"


class TestHypothesisStreams:
    @settings(max_examples=40, deadline=None)
    @given(payloads=payload_streams, cut_frac=st.floats(0.0, 1.0))
    def test_random_stream_truncation(self, tmp_path_factory, payloads, cut_frac):
        d = str(tmp_path_factory.mktemp("wal"))
        (seg,) = _write_log(d, payloads)
        blob = open(seg, "rb").read()
        cut = int(len(blob) * cut_frac)
        with open(seg, "wb") as fh:
            fh.write(blob[:cut])
        got = _recovered_payloads(d)
        assert got == payloads[: len(got)]

    @settings(max_examples=40, deadline=None)
    @given(
        payloads=payload_streams,
        pos_frac=st.floats(0.0, 1.0),
        mask=st.integers(min_value=1, max_value=255),
    )
    def test_random_stream_bitflip(self, tmp_path_factory, payloads, pos_frac, mask):
        d = str(tmp_path_factory.mktemp("wal"))
        (seg,) = _write_log(d, payloads)
        blob = bytearray(open(seg, "rb").read())
        pos = min(len(blob) - 1, int(len(blob) * pos_frac))
        blob[pos] ^= mask
        with open(seg, "wb") as fh:
            fh.write(bytes(blob))
        got = _recovered_payloads(d)
        assert got == payloads[: len(got)]

    @settings(max_examples=25, deadline=None)
    @given(payloads=payload_streams, seed=st.integers(0, 2**16))
    def test_multi_segment_damage_recovers_contiguous_prefix(
        self, tmp_path_factory, payloads, seed
    ):
        d = str(tmp_path_factory.mktemp("wal"))
        paths = _write_log(d, payloads, segment_max_bytes=64)
        rng = random.Random(seed)
        victim = rng.choice(paths)
        blob = bytearray(open(victim, "rb").read())
        if len(blob) > 8:  # keep the magic: damage a record, not the header
            blob[rng.randrange(8, len(blob))] ^= 0xFF
            with open(victim, "wb") as fh:
                fh.write(bytes(blob))
        got = _recovered_payloads(d)
        assert got == payloads[: len(got)]


class TestChaosTaxonomyCorruption:
    """Damage whole stored payloads with the chaos campaign's fault shapes."""

    def test_bitflipped_report_payloads_bound_the_recovered_prefix(self, tmp_path):
        payloads = [bytes(range(20)) for _ in range(10)]
        injector = ReportStreamFaultInjector([BitFlipReports(rate=0.4)], seed=1202)
        injection = injector.run(payloads)
        d = str(tmp_path)
        # The WAL stores what arrived — corrupted or not.  Its own CRC is
        # over the *record*, so payload corruption before append is data
        # (stored faithfully), while corruption on disk is damage.
        with WriteAheadLog(d, fsync="never") as wal:
            for delivery in injection.deliveries:
                wal.append_report(delivery.payload)
        with WriteAheadLog(d, fsync="never") as wal:
            stored = [r.payload for r in wal.records()]
        assert stored == [dv.payload for dv in injection.deliveries]

    def test_on_disk_flip_inside_a_payload_truncates_there(self, tmp_path):
        payloads = [bytes([i]) * 30 for i in range(8)]
        d = str(tmp_path)
        (seg,) = _write_log(d, payloads)
        blob = bytearray(open(seg, "rb").read())
        # Flip a byte inside record 4's payload region: records 1-3 survive.
        record_size = (len(blob) - 8) // 8
        pos = 8 + 3 * record_size + record_size // 2
        blob[pos] ^= 0x01
        with open(seg, "wb") as fh:
            fh.write(bytes(blob))
        got = _recovered_payloads(d)
        assert got == payloads[:3]
