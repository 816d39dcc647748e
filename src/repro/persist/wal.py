"""Write-ahead log for the VeriDP monitoring plane.

The server's durable source of truth is an append-only, CRC-checksummed
record log holding the two event streams that define its state and its
history (Section 4.4's incremental updates plus the sampled tag reports of
Algorithm 3):

* **control records** (:data:`RT_CONTROL`) — rule add/delete events in the
  exact form :class:`repro.core.incremental.IncrementalPathTable` consumes,
* **report records** (:data:`RT_REPORT`) — raw wire payloads in the
  :mod:`repro.core.reports` encoding, logged at admission,
* **malformed records** (:data:`RT_MALFORMED`) — payloads the transport
  pre-screen rejected; kept for forensics, never fed to verification.

On-disk layout: segments named ``wal-<index>.log``, each starting with an
8-byte magic.  A record is a 13-byte header (``>IBQ``: payload length,
record type, global sequence number) + payload + CRC32 over header and
payload.  Sequence numbers are global, contiguous and strictly increasing
across segments, so snapshot coverage ("everything up to seq N") and
suffix replay are well defined.

Crash safety: opening the log scans every segment and *truncates* the
first torn or corrupt record — plus everything after it — recovering the
longest valid prefix.  Recovery never raises on a damaged tail; damage in
the middle of history is indistinguishable from a tail by construction
(appends are sequential), so the same rule applies.  Durability is
controlled by the fsync policy: ``always`` (fsync per record, on the
append path), ``interval`` (group commit — a background flusher thread
fsyncs every ``fsync_interval_s`` seconds, plus on rotation and close,
so appends never block on the disk), ``never`` (leave it to the OS).
"""

from __future__ import annotations

import glob
import os
import struct
import threading
import time
import zlib
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Tuple

__all__ = [
    "RT_CONTROL",
    "RT_REPORT",
    "RT_MALFORMED",
    "RT_REPORT_BATCH",
    "WAL_MAGIC",
    "WalError",
    "WalRecord",
    "ControlEvent",
    "WriteAheadLog",
    "unpack_report_batch",
]

#: Record type tags (one byte on the wire).
RT_CONTROL = 1
RT_REPORT = 2
RT_MALFORMED = 3
#: Many report payloads in ONE record (the daemon's group-commit unit):
#: the header/CRC cost amortises over the whole dispatch batch.
RT_REPORT_BATCH = 4
_RECORD_TYPES = frozenset((RT_CONTROL, RT_REPORT, RT_MALFORMED, RT_REPORT_BATCH))

_STREAM_NAMES = {
    RT_CONTROL: "control",
    RT_REPORT: "report",
    RT_MALFORMED: "malformed",
    RT_REPORT_BATCH: "report_batch",
}

WAL_MAGIC = b"VDPWAL01"
_HEADER = struct.Struct(">IBQ")  # payload_len, rtype, seq
_CRC = struct.Struct(">I")
_RECORD_OVERHEAD = _HEADER.size + _CRC.size
#: Sanity bound on a single payload; anything larger is treated as corruption.
_MAX_PAYLOAD = 1 << 24

_FSYNC_POLICIES = ("always", "interval", "never")
_SEGMENT_GLOB = "wal-*.log"
_WRITE_BUFFER = 1 << 16

#: Length prefix of each payload inside an RT_REPORT_BATCH record body.
_BATCH_LEN = struct.Struct(">H")


def unpack_report_batch(payload: bytes) -> List[bytes]:
    """Split an RT_REPORT_BATCH record body back into report payloads."""
    out: List[bytes] = []
    offset = 0
    size = len(payload)
    while offset < size:
        if offset + _BATCH_LEN.size > size:
            raise WalError("truncated report-batch record body")
        (plen,) = _BATCH_LEN.unpack_from(payload, offset)
        offset += _BATCH_LEN.size
        if offset + plen > size:
            raise WalError("truncated report-batch record body")
        out.append(payload[offset : offset + plen])
        offset += plen
    return out


class WalError(Exception):
    """Misuse of the log or an undecodable logged payload."""


@dataclass(frozen=True)
class WalRecord:
    """One validated record as read back from the log."""

    seq: int
    rtype: int
    payload: bytes


# Control-event kinds (one byte inside the control payload).
_KIND_ADD = 1
_KIND_DELETE = 2
_KIND_NAMES = {_KIND_ADD: "add", _KIND_DELETE: "delete"}
_KIND_CODES = {name: code for code, name in _KIND_NAMES.items()}


@dataclass(frozen=True)
class ControlEvent:
    """A rule add/delete exactly as the incremental updater consumes it.

    ``prefix`` is the textual destination prefix (``"10.0.1.0/24"``);
    ``out_port`` is ignored for deletes (the tree remembers the port).
    """

    kind: str  # "add" | "delete"
    switch: str
    prefix: str
    out_port: int = 0

    def encode(self) -> bytes:
        code = _KIND_CODES.get(self.kind)
        if code is None:
            raise WalError(f"unknown control-event kind {self.kind!r}")
        sw = self.switch.encode("utf-8")
        pfx = self.prefix.encode("utf-8")
        if len(sw) > 0xFF or len(pfx) > 0xFF:
            raise WalError("switch id / prefix too long for the control encoding")
        return b"".join(
            (
                struct.pack(">BB", code, len(sw)),
                sw,
                struct.pack(">B", len(pfx)),
                pfx,
                struct.pack(">i", self.out_port),
            )
        )

    @classmethod
    def decode(cls, payload: bytes) -> "ControlEvent":
        try:
            code, sw_len = struct.unpack_from(">BB", payload, 0)
            offset = 2
            switch = payload[offset : offset + sw_len].decode("utf-8")
            offset += sw_len
            (pfx_len,) = struct.unpack_from(">B", payload, offset)
            offset += 1
            prefix = payload[offset : offset + pfx_len].decode("utf-8")
            offset += pfx_len
            (out_port,) = struct.unpack_from(">i", payload, offset)
            offset += 4
        except (struct.error, UnicodeDecodeError) as exc:
            raise WalError(f"undecodable control event: {exc}") from exc
        if code not in _KIND_NAMES or offset != len(payload):
            raise WalError(f"malformed control event ({len(payload)} bytes)")
        return cls(_KIND_NAMES[code], switch, prefix, out_port)


def _segment_index(path: str) -> int:
    stem = os.path.basename(path)
    return int(stem[len("wal-") : -len(".log")])


@dataclass
class _Segment:
    path: str
    index: int
    #: Sequence number of the segment's first record (None while empty).
    first_seq: Optional[int]


class WriteAheadLog:
    """Segmented, checksummed, crash-truncating append log.

    Appends are thread-safe; :meth:`records` takes a consistent view of the
    flushed prefix.  ``read_only=True`` opens the log for scanning without
    repairing torn tails on disk (the scan still stops at the first invalid
    record, so readers see the identical valid prefix).
    """

    def __init__(
        self,
        directory: str,
        fsync: str = "interval",
        fsync_interval_s: float = 0.05,
        segment_max_bytes: int = 4 << 20,
        obs=None,
        read_only: bool = False,
    ) -> None:
        if fsync not in _FSYNC_POLICIES:
            raise ValueError(
                f"fsync must be one of {_FSYNC_POLICIES}, got {fsync!r}"
            )
        if segment_max_bytes < len(WAL_MAGIC) + _RECORD_OVERHEAD:
            raise ValueError(f"segment_max_bytes {segment_max_bytes} too small")
        self.directory = directory
        self.fsync = fsync
        self.fsync_interval_s = fsync_interval_s
        self.segment_max_bytes = segment_max_bytes
        self.read_only = read_only
        self._lock = threading.RLock()
        self._fh = None
        self._size = 0
        self._closed = False
        self._last_sync = time.monotonic()
        self._last_seq = 0
        self._segments: List[_Segment] = []

        # Plain-int ledger; exported through zero-cost callback instruments.
        self.records_appended: Dict[int, int] = {t: 0 for t in _RECORD_TYPES}
        #: Individual report payloads carried inside RT_REPORT_BATCH records.
        self.batched_report_payloads = 0
        self.bytes_appended = 0
        self.fsyncs = 0
        self.truncated_bytes = 0

        if not read_only:
            os.makedirs(directory, exist_ok=True)
        self._recover()
        if not read_only:
            self._open_active()
        self._fsync_hist = None
        if obs is not None:
            self._register_metrics(obs)

        # Group commit: ``interval`` mode fsyncs from a background thread
        # so the append path never blocks on the disk.  The loss window is
        # unchanged (it was always the fsync interval); only who pays the
        # fsync latency changes.  os.fsync releases the GIL, so appends
        # proceed concurrently with the flush.
        self._flusher_stop = threading.Event()
        self._flusher: Optional[threading.Thread] = None
        if fsync == "interval" and not read_only:
            self._flusher = threading.Thread(
                target=self._flusher_main, name="wal-flusher", daemon=True
            )
            self._flusher.start()

    # -- opening / crash recovery -----------------------------------------

    def _segment_paths(self) -> List[str]:
        return sorted(
            glob.glob(os.path.join(self.directory, _SEGMENT_GLOB)),
            key=_segment_index,
        )

    def _recover(self) -> None:
        """Scan all segments, keep the longest valid prefix, repair on disk."""
        paths = self._segment_paths()
        for pos, path in enumerate(paths):
            size = os.path.getsize(path)
            good, first_seq, last_seq = self._scan_valid_prefix(path, self._last_seq)
            if good == 0:
                # Not even a readable header: the file and everything after
                # it are dropped (the prefix ends at the previous segment).
                self._drop_tail(paths[pos:])
                return
            self._segments.append(_Segment(path, _segment_index(path), first_seq))
            if first_seq is not None:
                self._last_seq = last_seq
            if good < size:
                self.truncated_bytes += size - good
                if not self.read_only:
                    with open(path, "r+b") as fh:
                        fh.truncate(good)
                self._drop_tail(paths[pos + 1 :])
                return

    def _drop_tail(self, paths: List[str]) -> None:
        for path in paths:
            self.truncated_bytes += os.path.getsize(path)
            if not self.read_only:
                os.remove(path)

    def _scan_valid_prefix(
        self, path: str, prev_seq: int
    ) -> Tuple[int, Optional[int], int]:
        """(valid byte prefix, first seq or None, last seq) of one segment."""
        first_seq: Optional[int] = None
        last_seq = prev_seq
        with open(path, "rb") as fh:
            if fh.read(len(WAL_MAGIC)) != WAL_MAGIC:
                return 0, None, prev_seq
            good = len(WAL_MAGIC)
            while True:
                header = fh.read(_HEADER.size)
                if len(header) < _HEADER.size:
                    return good, first_seq, last_seq
                plen, rtype, seq = _HEADER.unpack(header)
                if rtype not in _RECORD_TYPES or plen > _MAX_PAYLOAD:
                    return good, first_seq, last_seq
                body = fh.read(plen + _CRC.size)
                if len(body) < plen + _CRC.size:
                    return good, first_seq, last_seq
                payload = body[:plen]
                (crc,) = _CRC.unpack(body[plen:])
                if crc != zlib.crc32(header + payload):
                    return good, first_seq, last_seq
                # Appends are sequential: each record continues the global
                # sequence exactly.  Anything else is damage.
                if last_seq and seq != last_seq + 1:
                    return good, first_seq, last_seq
                if first_seq is None:
                    first_seq = seq
                last_seq = seq
                good += _HEADER.size + plen + _CRC.size

    def _open_active(self) -> None:
        if not self._segments:
            self._create_segment(1)
        else:
            active = self._segments[-1]
            self._fh = open(active.path, "ab", buffering=_WRITE_BUFFER)
            self._size = os.path.getsize(active.path)

    def _create_segment(self, index: int) -> None:
        path = os.path.join(self.directory, f"wal-{index:08d}.log")
        self._fh = open(path, "wb", buffering=_WRITE_BUFFER)
        self._fh.write(WAL_MAGIC)
        self._fh.flush()
        if self.fsync != "never":
            os.fsync(self._fh.fileno())
            self._fsync_directory()
        self._size = len(WAL_MAGIC)
        self._segments.append(_Segment(path, index, None))

    def _fsync_directory(self) -> None:
        try:
            fd = os.open(self.directory, os.O_RDONLY)
        except OSError:  # pragma: no cover - platform without dir-open
            return
        try:
            os.fsync(fd)
        finally:
            os.close(fd)

    # -- appending ----------------------------------------------------------

    def append(self, rtype: int, payload: bytes) -> int:
        """Append one record, returning its global sequence number."""
        if rtype not in _RECORD_TYPES:
            raise WalError(f"unknown record type {rtype}")
        with self._lock:
            if self.read_only:
                raise WalError("log opened read-only")
            if self._closed:
                raise WalError("log is closed")
            seq = self._last_seq + 1
            header = _HEADER.pack(len(payload), rtype, seq)
            record = header + payload + _CRC.pack(zlib.crc32(header + payload))
            self._fh.write(record)
            segment = self._segments[-1]
            if segment.first_seq is None:
                segment.first_seq = seq
            self._last_seq = seq
            self._size += len(record)
            self.bytes_appended += len(record)
            self.records_appended[rtype] += 1
            # "interval" durability is the flusher thread's job.
            if self.fsync == "always":
                self._sync_locked()
            if self._size >= self.segment_max_bytes:
                self._rotate_locked()
            return seq

    def append_control(self, event: ControlEvent) -> int:
        return self.append(RT_CONTROL, event.encode())

    def append_report(self, payload: bytes) -> int:
        return self.append(RT_REPORT, payload)

    def append_report_batch(self, payloads) -> int:
        """Log many report payloads as ONE length-prefixed batch record.

        The daemon's group-commit unit: a single header + CRC covers the
        whole dispatch batch, so per-report WAL cost collapses to the
        length prefix.  Returns the batch record's seq (the current
        :attr:`last_seq` for an empty batch).  Replay iterates the
        contained payloads in order; bisection granularity for batched
        streams is the batch record.
        """
        pack_len = _BATCH_LEN.pack
        pieces = []
        grow = pieces.append
        count = 0
        for payload in payloads:
            if len(payload) > 0xFFFF:
                raise WalError(
                    f"payload of {len(payload)} bytes does not fit a "
                    "report-batch record"
                )
            grow(pack_len(len(payload)))
            grow(payload)
            count += 1
        with self._lock:
            if not count:
                return self._last_seq
            seq = self.append(RT_REPORT_BATCH, b"".join(pieces))
            self.batched_report_payloads += count
            return seq

    def append_report_frame(self, frame: bytes, row_size: int) -> int:
        """Log a frame of fixed-``row_size`` payloads as ONE batch record.

        Same record type and body layout as :meth:`append_report_batch`
        (length prefix per payload), built with strided slice assignment
        instead of a per-payload Python loop — the batched-ingestion WAL
        hot path.  Replay is byte-identical to logging the rows one list
        at a time.
        """
        if not 0 < row_size <= 0xFFFF:
            raise WalError(f"report frame row size {row_size} not loggable")
        count, rem = divmod(len(frame), row_size)
        if rem:
            raise WalError(
                f"report frame length {len(frame)} is not a multiple of "
                f"{row_size}"
            )
        with self._lock:
            if not count:
                return self._last_seq
            stride = row_size + _BATCH_LEN.size
            body = bytearray(count * stride)
            plen = _BATCH_LEN.pack(row_size)
            body[0::stride] = plen[0:1] * count
            body[1::stride] = plen[1:2] * count
            for j in range(row_size):
                body[_BATCH_LEN.size + j :: stride] = frame[j::row_size]
            seq = self.append(RT_REPORT_BATCH, bytes(body))
            self.batched_report_payloads += count
            return seq

    def append_malformed(self, payload: bytes) -> int:
        return self.append(RT_MALFORMED, payload)

    def _sync_locked(self) -> None:
        self._fh.flush()
        start = time.perf_counter()
        os.fsync(self._fh.fileno())
        elapsed = time.perf_counter() - start
        self.fsyncs += 1
        self._last_sync = time.monotonic()
        if self._fsync_hist is not None:
            self._fsync_hist.observe(elapsed)

    def sync(self) -> None:
        """Flush and fsync the active segment regardless of policy."""
        with self._lock:
            if self._fh is not None and not self._closed:
                self._sync_locked()

    def _flusher_main(self) -> None:
        while not self._flusher_stop.wait(self.fsync_interval_s):
            self._background_sync()

    def _background_sync(self) -> None:
        """One group commit: flush under the lock, fsync outside it.

        The fsync runs on a dup'd descriptor so a concurrent rotation
        (which closes the old segment) cannot invalidate it mid-call,
        and appends keep the lock free for the fsync's whole duration.
        """
        with self._lock:
            if self._closed or self._fh is None:
                return
            self._fh.flush()
            try:
                fd = os.dup(self._fh.fileno())
            except OSError:  # pragma: no cover - fd table exhausted
                return
        start = time.perf_counter()
        try:
            os.fsync(fd)
        finally:
            os.close(fd)
        elapsed = time.perf_counter() - start
        self.fsyncs += 1
        self._last_sync = time.monotonic()
        if self._fsync_hist is not None:
            self._fsync_hist.observe(elapsed)

    def _rotate_locked(self) -> None:
        if self.fsync == "never":
            self._fh.flush()
        else:
            self._sync_locked()
        self._fh.close()
        self._create_segment(self._segments[-1].index + 1)

    # -- reading ------------------------------------------------------------

    @property
    def last_seq(self) -> int:
        return self._last_seq

    def first_seq(self) -> Optional[int]:
        """Sequence number of the oldest retained record (None if empty)."""
        for segment in self._segments:
            if segment.first_seq is not None:
                return segment.first_seq
        return None

    def records(
        self, start_seq: int = 1, stop_seq: Optional[int] = None
    ) -> Iterator[WalRecord]:
        """Yield validated records with ``start_seq <= seq <= stop_seq``.

        Re-validates checksums on the way through, so an iterator opened on
        a live log simply stops at the flushed prefix.
        """
        with self._lock:
            if self._fh is not None and not self._closed:
                self._fh.flush()
            segments = list(self._segments)
        prev_seq = 0
        for pos, segment in enumerate(segments):
            nxt = segments[pos + 1] if pos + 1 < len(segments) else None
            if nxt is not None and nxt.first_seq is not None:
                prev_seq = nxt.first_seq - 1
                if prev_seq < start_seq:
                    continue  # every record here precedes the window
                prev_seq = (segment.first_seq or 1) - 1
            for record in self._iter_segment(segment.path, prev_seq):
                prev_seq = record.seq
                if stop_seq is not None and record.seq > stop_seq:
                    return
                if record.seq >= start_seq:
                    yield record

    def _iter_segment(self, path: str, prev_seq: int) -> Iterator[WalRecord]:
        try:
            fh = open(path, "rb")
        except FileNotFoundError:
            return
        with fh:
            if fh.read(len(WAL_MAGIC)) != WAL_MAGIC:
                return
            last = prev_seq
            while True:
                header = fh.read(_HEADER.size)
                if len(header) < _HEADER.size:
                    return
                plen, rtype, seq = _HEADER.unpack(header)
                if rtype not in _RECORD_TYPES or plen > _MAX_PAYLOAD:
                    return
                body = fh.read(plen + _CRC.size)
                if len(body) < plen + _CRC.size:
                    return
                payload = body[:plen]
                (crc,) = _CRC.unpack(body[plen:])
                if crc != zlib.crc32(header + payload):
                    return
                if last and seq != last + 1:
                    return
                last = seq
                yield WalRecord(seq, rtype, payload)

    # -- maintenance ---------------------------------------------------------

    def prune_segments_before(self, seq: int) -> int:
        """Delete whole segments whose records are all ``<= seq``.

        Only safe when a snapshot covers that prefix.  The active segment is
        never deleted.  Returns the number of segments removed.
        """
        removed = 0
        with self._lock:
            if self.read_only:
                raise WalError("log opened read-only")
            while len(self._segments) > 1:
                nxt = self._segments[1]
                # All records of segment 0 have seq < nxt.first_seq.  An
                # empty successor blocks pruning: segments carry no base
                # seq, so a log whose only remaining segment is empty
                # would restart numbering at 1 on reopen.
                if nxt.first_seq is None or nxt.first_seq > seq + 1:
                    break
                victim = self._segments.pop(0)
                os.remove(victim.path)
                removed += 1
        return removed

    def close(self) -> None:
        flusher = self._flusher
        if flusher is not None:
            self._flusher_stop.set()
            if flusher is not threading.current_thread():
                flusher.join(timeout=5.0)
            self._flusher = None
        with self._lock:
            if self._closed or self._fh is None:
                self._closed = True
                return
            self._fh.flush()
            if self.fsync != "never":
                os.fsync(self._fh.fileno())
            self._fh.close()
            self._fh = None
            self._closed = True

    def __enter__(self) -> "WriteAheadLog":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- observability --------------------------------------------------------

    def stats(self) -> Dict[str, int]:
        with self._lock:
            return {
                "wal_last_seq": self._last_seq,
                "wal_segments": len(self._segments),
                "wal_records_control": self.records_appended[RT_CONTROL],
                # Reports, not records: batch records count their payloads,
                # so the figure is comparable across single/batched logging.
                "wal_records_report": (
                    self.records_appended[RT_REPORT]
                    + self.batched_report_payloads
                ),
                "wal_records_report_batch": self.records_appended[
                    RT_REPORT_BATCH
                ],
                "wal_records_malformed": self.records_appended[RT_MALFORMED],
                "wal_bytes_appended": self.bytes_appended,
                "wal_fsyncs": self.fsyncs,
                "wal_truncated_bytes": self.truncated_bytes,
            }

    def _register_metrics(self, obs) -> None:
        from ..obs import IO_BUCKETS

        registry = obs.registry
        registry.counter(
            "veridp_wal_records_total",
            "Records appended to the write-ahead log by stream.",
            ("stream",),
            callback=lambda: {
                (_STREAM_NAMES[t],): n for t, n in self.records_appended.items()
            },
        )
        registry.counter(
            "veridp_wal_bytes_total",
            "Bytes appended to the write-ahead log.",
            callback=lambda: self.bytes_appended,
        )
        registry.counter(
            "veridp_wal_fsyncs_total",
            "fsync calls issued by the write-ahead log.",
            callback=lambda: self.fsyncs,
        )
        registry.counter(
            "veridp_wal_truncated_bytes_total",
            "Bytes discarded while truncating torn/corrupt WAL tails.",
            callback=lambda: self.truncated_bytes,
        )
        registry.gauge(
            "veridp_wal_segments",
            "Live WAL segment files.",
            callback=lambda: len(self._segments),
        )
        registry.gauge(
            "veridp_wal_last_seq",
            "Highest global sequence number in the WAL.",
            callback=lambda: self._last_seq,
        )
        self._fsync_hist = obs.registry.histogram(
            "veridp_wal_fsync_seconds",
            "Wall-clock seconds per WAL fsync.",
            buckets=IO_BUCKETS,
        ).labels()
