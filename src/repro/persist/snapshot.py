"""Versioned, checksummed path-table snapshots.

A snapshot is one self-contained checkpoint of the server's durable state:
the BDD engine's node table (so every header-set node id in the path table
stays valid), the :class:`~repro.core.pathtable.PathTable` entries (their
header sets are node ids in that table; no matcher is stored beside them,
and the FlatBDD matchers an older snapshot carries are dropped on load),
the builder's reachability index (what
the incremental updater's extend phase traverses), the LPM rule set that
reproduces the provider's predicates, and the WAL sequence number the
checkpoint covers — recovery is "newest valid snapshot + WAL suffix".

File format: 8-byte magic, format version (u16), CRC32 (u32) and length
(u64) of the body, then the pickled state dict.  Writes go to a temp file
in the same directory, are flushed + fsynced, then atomically renamed into
place (``os.replace``), so a crash mid-snapshot leaves either the previous
snapshot set or a stray temp file — never a half-written checkpoint that
:meth:`SnapshotStore.load_latest` could mistake for valid.  Corrupt or
unreadable snapshots are skipped (and counted), falling back to the next
newest; the retention policy keeps the last ``retain``.
"""

from __future__ import annotations

import glob
import os
import pickle
import struct
import time
from typing import Dict, List, Optional, Tuple

from ..digest import sha1

__all__ = [
    "SNAPSHOT_FORMAT",
    "SNAP_MAGIC",
    "SnapshotError",
    "write_snapshot",
    "read_snapshot",
    "SnapshotStore",
    "bdd_fingerprint",
    "table_fingerprint",
]

SNAP_MAGIC = b"VDPSNAP1"
SNAPSHOT_FORMAT = 1
_SNAP_HEADER = struct.Struct(">HIQ")  # format, crc32, body length
_SNAP_GLOB = "snap-*.snap"


class SnapshotError(Exception):
    """A snapshot file that cannot be trusted (corrupt, torn, foreign)."""


def write_snapshot(path: str, payload: dict) -> int:
    """Atomically write ``payload`` to ``path``; returns bytes written."""
    import zlib

    body = pickle.dumps(payload, protocol=4)
    blob = SNAP_MAGIC + _SNAP_HEADER.pack(
        SNAPSHOT_FORMAT, zlib.crc32(body), len(body)
    ) + body
    tmp = f"{path}.tmp"
    with open(tmp, "wb") as fh:
        fh.write(blob)
        fh.flush()
        os.fsync(fh.fileno())
    os.replace(tmp, path)
    directory = os.path.dirname(path) or "."
    try:
        fd = os.open(directory, os.O_RDONLY)
    except OSError:  # pragma: no cover - platform without dir-open
        return len(blob)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)
    return len(blob)


def read_snapshot(path: str) -> dict:
    """Read and validate one snapshot file; raises :class:`SnapshotError`."""
    import zlib

    try:
        with open(path, "rb") as fh:
            blob = fh.read()
    except OSError as exc:
        raise SnapshotError(f"unreadable snapshot {path}: {exc}") from exc
    prefix = len(SNAP_MAGIC) + _SNAP_HEADER.size
    if len(blob) < prefix or blob[: len(SNAP_MAGIC)] != SNAP_MAGIC:
        raise SnapshotError(f"{path}: bad magic or truncated header")
    fmt, crc, length = _SNAP_HEADER.unpack_from(blob, len(SNAP_MAGIC))
    if fmt != SNAPSHOT_FORMAT:
        raise SnapshotError(f"{path}: unsupported snapshot format {fmt}")
    body = blob[prefix:]
    if len(body) != length or zlib.crc32(body) != crc:
        raise SnapshotError(f"{path}: checksum/length mismatch")
    try:
        payload = pickle.loads(body)
    except Exception as exc:
        raise SnapshotError(f"{path}: undecodable body: {exc}") from exc
    if not isinstance(payload, dict) or "wal_seq" not in payload:
        raise SnapshotError(f"{path}: not a state snapshot")
    return payload


class SnapshotStore:
    """Retention-managed directory of snapshots, named by WAL coverage."""

    def __init__(self, directory: str, retain: int = 3, obs=None) -> None:
        if retain < 1:
            raise ValueError(f"retain must be >= 1, got {retain}")
        self.directory = directory
        self.retain = retain
        self.snapshots_written = 0
        self.last_snapshot_bytes = 0
        self.load_failures = 0
        self._snapshot_hist = None
        if obs is not None:
            self._register_metrics(obs)

    def path_for(self, wal_seq: int) -> str:
        return os.path.join(self.directory, f"snap-{wal_seq:016d}.snap")

    def paths(self) -> List[str]:
        """Snapshot files, oldest first (name order == WAL coverage order)."""
        return sorted(glob.glob(os.path.join(self.directory, _SNAP_GLOB)))

    def save(self, payload: dict) -> str:
        os.makedirs(self.directory, exist_ok=True)
        path = self.path_for(payload["wal_seq"])
        start = time.perf_counter()
        size = write_snapshot(path, payload)
        elapsed = time.perf_counter() - start
        self.snapshots_written += 1
        self.last_snapshot_bytes = size
        if self._snapshot_hist is not None:
            self._snapshot_hist.observe(elapsed)
        self.prune()
        return path

    def load_latest(self) -> Optional[dict]:
        """The newest snapshot that validates, skipping damaged ones."""
        for path in reversed(self.paths()):
            try:
                return read_snapshot(path)
            except SnapshotError:
                self.load_failures += 1
        return None

    def load_first_covering(self, seq: int) -> Optional[dict]:
        """The *oldest* valid snapshot whose coverage reaches ``seq``.

        Replay wants the base with the most WAL history still ahead of it:
        the earliest snapshot with ``wal_seq >= seq`` maximises the range of
        report records that can be re-verified against correct state.
        """
        for path in self.paths():
            try:
                payload = read_snapshot(path)
            except SnapshotError:
                self.load_failures += 1
                continue
            if payload["wal_seq"] >= seq:
                return payload
        return None

    def prune(self) -> int:
        """Drop snapshots beyond the newest ``retain`` plus stray temp files."""
        removed = 0
        for stray in glob.glob(os.path.join(self.directory, "*.snap.tmp")):
            os.remove(stray)
            removed += 1
        paths = self.paths()
        for path in paths[: -self.retain] if len(paths) > self.retain else []:
            os.remove(path)
            removed += 1
        return removed

    def stats(self) -> Dict[str, int]:
        return {
            "snapshots_written": self.snapshots_written,
            "snapshot_bytes": self.last_snapshot_bytes,
            "snapshot_load_failures": self.load_failures,
            "snapshots_on_disk": len(self.paths()),
        }

    def _register_metrics(self, obs) -> None:
        from ..obs import IO_BUCKETS

        registry = obs.registry
        registry.counter(
            "veridp_snapshots_total",
            "Snapshots written.",
            callback=lambda: self.snapshots_written,
        )
        registry.counter(
            "veridp_snapshot_load_failures_total",
            "Snapshot files skipped as corrupt/unreadable during load.",
            callback=lambda: self.load_failures,
        )
        registry.gauge(
            "veridp_snapshot_bytes",
            "Size of the most recently written snapshot.",
            callback=lambda: self.last_snapshot_bytes,
        )
        self._snapshot_hist = registry.histogram(
            "veridp_snapshot_seconds",
            "Wall-clock seconds per snapshot write (serialize + fsync + rename).",
            buckets=IO_BUCKETS,
        ).labels()


def bdd_fingerprint(bdd, node: int) -> Tuple:
    """Manager-independent structural fingerprint of one BDD node.

    Two nodes (possibly in different managers) denote the same boolean
    function iff their fingerprints are equal — ROBDDs are canonical, so
    structural equality is semantic equality.  Used by tests to compare a
    recovered table against a freshly rebuilt one across HeaderSpaces.
    """
    from ..bdd.engine import FALSE, TRUE

    memo: Dict[int, object] = {FALSE: "F", TRUE: "T"}

    def walk(u: int):
        got = memo.get(u)
        if got is None:
            got = (bdd.level_of(u), walk(bdd.low_of(u)), walk(bdd.high_of(u)))
            memo[u] = got
        return got

    return walk(node)


def table_fingerprint(table, bdd) -> str:
    """Manager-independent digest of a whole path table.

    Two tables digest equal iff every ``(inport, outport)`` pair holds the
    same set of paths with semantically equal header-set and exit-header-set
    BDDs — regardless of node ids, entry order, or which manager built
    them.  This is the parity oracle for the update paths: a full build,
    per-event updates and coalesced flushes must all land on the same
    fingerprint.
    """
    digest = sha1()
    for inport, outport in sorted(table.pairs(), key=repr):
        entries = sorted(
            (
                entry.hops,
                entry.tag,
                bdd_fingerprint(bdd, entry.headers),
                bdd_fingerprint(bdd, entry.exit_header_set()),
            )
            for entry in table.lookup(inport, outport)
        )
        digest.update(repr((inport, outport, entries)).encode())
    return digest.hexdigest()
