"""Crash recovery: snapshot + WAL suffix -> a resumable server state.

:class:`PersistentState` owns one state directory holding the write-ahead
log segments, the snapshot set and a ``meta.json`` naming the topology the
state belongs to.  Boot order:

1. load the newest snapshot that validates (none -> empty base),
2. restore the BDD manager *with its node ids intact*, the LPM provider
   (by re-adding the recorded rules — hash-consing reproduces identical
   predicate ids), the path table and the reachability index,
3. replay every control record after the snapshot's WAL position through
   the incremental updater (Section 4.4),
4. on a first boot with an empty log, *bootstrap*: extract the pure
   destination-prefix rules from the topology's flow tables, append them
   to the WAL as control records, let step 3 apply them, and write an
   initial snapshot so the next cold start skips Algorithm 2.

Recovery invariants (proved by the kill-loop chaos test):

* a torn or corrupt WAL tail is truncated, never fatal (the WAL's job);
* a crash mid-snapshot leaves a stray temp file, never a half-snapshot
  (atomic rename) — recovery falls back to the previous snapshot + a
  longer suffix;
* every applied control record has a WAL sequence number <= the position
  a later snapshot claims to cover, because control events are logged
  *before* they are applied and snapshots are taken on the same thread.

Durable mode covers the paper's incremental workload: destination-prefix
forwarding rules (Section 4.4).  Flow tables carrying ACL drops, port
matches or rewrites are rejected at bootstrap with a clear error; inbound
ACL denies added at runtime are likewise refused at snapshot time.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from ..bdd.engine import BDD
from ..bdd.headerspace import HeaderSpace, format_ipv4
from ..core.bloom import BloomTagScheme
from ..core.incremental import IncrementalPathTable, LpmProvider
from ..core.pathtable import PathTable
from ..core.reports import REPORT_SIZE
from ..netmodel.rules import Forward
from .snapshot import SNAPSHOT_FORMAT, SnapshotStore
from .wal import RT_CONTROL, ControlEvent, WriteAheadLog

__all__ = [
    "RecoveryError",
    "BootResult",
    "PersistentState",
    "lpm_rules_from_topology",
    "capture_state",
    "restore_state",
    "apply_control_event",
    "stage_control_event",
]

_META_NAME = "meta.json"

#: Boot-time WAL suffix replay flushes coalesced batches at this size: big
#: enough to amortise recompute across a churn burst, small enough that a
#: replay abort (corrupt record) loses little staged work.
_REPLAY_FLUSH_EVERY = 512


class RecoveryError(RuntimeError):
    """State that cannot be recovered or captured safely."""


@dataclass
class BootResult:
    """Everything a server adopts after :meth:`PersistentState.boot`."""

    hs: HeaderSpace
    updater: IncrementalPathTable
    state_version: int
    base_seq: int  # WAL position the snapshot covered (0 = scratch)
    replayed_controls: int
    source: str  # "snapshot" | "wal" | "bootstrap" | "empty"

    @property
    def table(self) -> PathTable:
        return self.updater.table


def lpm_rules_from_topology(topo) -> List[Tuple[str, str, int]]:
    """Extract the pure destination-prefix forwarding rules per switch.

    Raises :class:`RecoveryError` on anything the incremental machinery
    cannot replay: non-Forward actions, matches beyond a destination
    prefix, multi-table pipelines, duplicate prefixes.
    """
    rules: List[Tuple[str, str, int]] = []
    for switch_id in sorted(topo.switches):
        table = topo.switches[switch_id].flow_table
        table_ids = table.table_ids()
        if table_ids and table_ids != [0]:
            raise RecoveryError(
                f"{switch_id}: multi-table pipeline {table_ids} is not "
                f"supported in durable mode (LPM rules only)"
            )
        seen: Dict[Tuple[int, int], int] = {}
        for rule in table.sorted_rules():
            match = rule.match
            if (
                match.dst_prefix is None
                or match.src_prefix is not None
                or match.proto is not None
                or match.src_port_range is not None
                or match.dst_port_range is not None
                or match.in_port is not None
            ):
                raise RecoveryError(
                    f"{switch_id} rule {rule.rule_id}: durable mode only "
                    f"supports pure destination-prefix matches, got {match}"
                )
            if not isinstance(rule.action, Forward):
                raise RecoveryError(
                    f"{switch_id} rule {rule.rule_id}: durable mode only "
                    f"supports Forward actions, got {rule.action!r}"
                )
            value, plen = match.dst_prefix
            if plen == 0:
                raise RecoveryError(
                    f"{switch_id} rule {rule.rule_id}: the zero-length prefix "
                    f"is reserved for the virtual drop rule"
                )
            if (value, plen) in seen:
                raise RecoveryError(
                    f"{switch_id}: duplicate prefix for rule {rule.rule_id} "
                    f"(LPM allows one rule per prefix)"
                )
            seen[(value, plen)] = rule.rule_id
            rules.append((switch_id, f"{format_ipv4(value)}/{plen}", rule.action.port))
    return rules


def capture_state(topo, hs, updater, state_version: int, wal_seq: int) -> dict:
    """The snapshot payload: node table + path table + reach index + rules."""
    provider = updater.provider
    if not isinstance(provider, LpmProvider):
        raise RecoveryError(
            f"durable state requires an LpmProvider, got {type(provider).__name__}"
        )
    if provider.has_inbound_denies:
        raise RecoveryError("inbound ACL denies are not persisted; remove them first")
    table = updater.table
    return {
        "format": SNAPSHOT_FORMAT,
        "topo_name": topo.name,
        "wal_seq": wal_seq,
        "state_version": state_version,
        "num_vars": hs.layout.total_bits,
        "nodes": hs.bdd.export_nodes(),
        "table_version": table.version,
        "pairs": [
            (inport, outport, list(entries))
            for (inport, outport), entries in table._entries.items()
        ],
        "reach_index": {
            switch: list(records)
            for switch, records in updater.builder.reach_index.items()
        },
        "rules": provider.iter_rules(),
    }


def restore_state(
    payload: dict,
    topo,
    scheme: Optional[BloomTagScheme] = None,
    max_path_length: Optional[int] = None,
) -> Tuple[HeaderSpace, IncrementalPathTable]:
    """Rebuild (hs, updater) from a snapshot payload — no Algorithm 2 run."""
    if payload.get("format") != SNAPSHOT_FORMAT:
        raise RecoveryError(f"unsupported snapshot format {payload.get('format')}")
    if payload.get("topo_name") != topo.name:
        raise RecoveryError(
            f"snapshot belongs to topology {payload.get('topo_name')!r}, "
            f"booting {topo.name!r}"
        )
    hs = HeaderSpace()
    if payload["num_vars"] != hs.layout.total_bits:
        raise RecoveryError(
            f"snapshot uses {payload['num_vars']} header bits, this build "
            f"uses {hs.layout.total_bits}"
        )
    try:
        hs.bdd = BDD.from_nodes(payload["num_vars"], *payload["nodes"])
    except ValueError as exc:
        raise RecoveryError(f"corrupt BDD node table: {exc}") from exc
    provider = LpmProvider(topo, hs)
    try:
        for switch, prefix, port in payload["rules"]:
            provider.add_rule(switch, prefix, port)
    except (KeyError, ValueError) as exc:
        raise RecoveryError(f"cannot re-install snapshot rules: {exc}") from exc
    table = PathTable()
    for inport, outport, entries in payload["pairs"]:
        for entry in entries:
            table.add(inport, outport, entry)
    table.version = payload["table_version"]
    updater = IncrementalPathTable.restore(
        topo,
        hs,
        table=table,
        reach_index=payload["reach_index"],
        scheme=scheme,
        provider=provider,
        max_path_length=max_path_length,
    )
    return hs, updater


def apply_control_event(updater: IncrementalPathTable, event: ControlEvent) -> None:
    """Apply one logged control record through the incremental updater."""
    try:
        if event.kind == "add":
            updater.add_rule(event.switch, event.prefix, event.out_port)
        elif event.kind == "delete":
            updater.delete_rule(event.switch, event.prefix)
        else:  # pragma: no cover - decode() only emits the two kinds
            raise RecoveryError(f"unknown control kind {event.kind!r}")
    except (KeyError, ValueError) as exc:
        raise RecoveryError(
            f"cannot apply logged control event {event}: {exc}"
        ) from exc


def stage_control_event(updater: IncrementalPathTable, event: ControlEvent) -> None:
    """Stage one logged control record for a coalesced flush.

    The prefix-tree mutation (and its validation — bad events still fail
    here, at the same point :func:`apply_control_event` would) happens
    immediately; the path-table recompute is deferred to the caller's
    ``updater.flush_updates()``.  Boot-time WAL suffix replay uses this to
    recompute each dirty region once per batch instead of once per record.
    """
    try:
        if event.kind == "add":
            updater.stage_add_rule(event.switch, event.prefix, event.out_port)
        elif event.kind == "delete":
            updater.stage_delete_rule(event.switch, event.prefix)
        else:  # pragma: no cover - decode() only emits the two kinds
            raise RecoveryError(f"unknown control kind {event.kind!r}")
    except (KeyError, ValueError) as exc:
        raise RecoveryError(
            f"cannot apply logged control event {event}: {exc}"
        ) from exc


class PersistentState:
    """One state directory: WAL + snapshots + meta, and the boot logic."""

    def __init__(
        self,
        state_dir: str,
        fsync: str = "interval",
        fsync_interval_s: float = 0.05,
        segment_max_bytes: int = 4 << 20,
        retain: int = 3,
        obs=None,
        read_only: bool = False,
    ) -> None:
        self.state_dir = state_dir
        self.read_only = read_only
        if not read_only:
            os.makedirs(state_dir, exist_ok=True)
        self.wal = WriteAheadLog(
            state_dir,
            fsync=fsync,
            fsync_interval_s=fsync_interval_s,
            segment_max_bytes=segment_max_bytes,
            obs=obs,
            read_only=read_only,
        )
        self.snapshots = SnapshotStore(state_dir, retain=retain, obs=obs)
        self.recoveries = 0
        self.replayed_controls = 0
        if obs is not None:
            registry = obs.registry
            registry.counter(
                "veridp_recoveries_total",
                "Boots that recovered state from this directory.",
                callback=lambda: self.recoveries,
            )
            registry.counter(
                "veridp_replayed_control_records_total",
                "Control records replayed through the incremental updater at boot.",
                callback=lambda: self.replayed_controls,
            )

    # -- meta ---------------------------------------------------------------

    def _meta_path(self) -> str:
        return os.path.join(self.state_dir, _META_NAME)

    def check_meta(self, topo) -> None:
        """Bind the directory to one topology; refuse a mismatched boot."""
        path = self._meta_path()
        if os.path.exists(path):
            with open(path, "r", encoding="utf-8") as fh:
                meta = json.load(fh)
            if meta.get("topo") != topo.name:
                raise RecoveryError(
                    f"state dir {self.state_dir} belongs to topology "
                    f"{meta.get('topo')!r}, booting {topo.name!r}"
                )
        elif not self.read_only:
            with open(path, "w", encoding="utf-8") as fh:
                json.dump({"format": 1, "topo": topo.name}, fh)

    def read_meta(self) -> Optional[dict]:
        path = self._meta_path()
        if not os.path.exists(path):
            return None
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)

    # -- boot ----------------------------------------------------------------

    def boot(
        self,
        topo,
        scheme: Optional[BloomTagScheme] = None,
        max_path_length: Optional[int] = None,
    ) -> BootResult:
        """Snapshot + suffix replay (+ first-boot bootstrap); see module doc."""
        self.check_meta(topo)
        snap = self.snapshots.load_latest()
        if snap is not None:
            hs, updater = restore_state(
                snap, topo, scheme=scheme, max_path_length=max_path_length
            )
            state_version = snap["state_version"]
            base_seq = snap["wal_seq"]
            source = "snapshot"
        else:
            hs = HeaderSpace()
            updater = IncrementalPathTable(
                topo,
                hs,
                scheme=scheme,
                max_path_length=max_path_length,
            )
            state_version = 0
            base_seq = 0
            if self.wal.last_seq > 0:
                source = "wal"
            elif not self.read_only:
                source = "bootstrap"
                for switch, prefix, port in lpm_rules_from_topology(topo):
                    self.wal.append_control(
                        ControlEvent("add", switch, prefix, port)
                    )
            else:
                source = "empty"

        first = self.wal.first_seq()
        if first is not None and first > base_seq + 1:
            raise RecoveryError(
                f"WAL starts at seq {first} but the newest snapshot covers "
                f"only seq {base_seq}; segments were pruned past every snapshot"
            )

        # Coalesced suffix replay: stage every control record (prefix-tree
        # mutations and their validation happen per record, exactly as in
        # the one-by-one path), flush in batches so each dirty path-table
        # region is recomputed once per batch rather than once per record.
        # Identical final table — see test_recovery coalescing parity.
        replayed = 0
        staged = 0
        for record in self.wal.records(start_seq=base_seq + 1):
            if record.rtype != RT_CONTROL:
                continue
            stage_control_event(updater, ControlEvent.decode(record.payload))
            state_version += 1
            replayed += 1
            staged += 1
            if staged >= _REPLAY_FLUSH_EVERY:
                updater.flush_updates()
                staged = 0
        if staged:
            updater.flush_updates()
        self.recoveries += 1
        self.replayed_controls += replayed

        result = BootResult(
            hs=hs,
            updater=updater,
            state_version=state_version,
            base_seq=base_seq,
            replayed_controls=replayed,
            source=source,
        )
        if source == "bootstrap" and replayed:
            # Seed an initial snapshot: the next cold start loads it instead
            # of re-running Algorithm 2 over the whole rule set.
            self.snapshot(topo, hs, updater, state_version)
        return result

    # -- logging --------------------------------------------------------------

    def log_control(self, event: ControlEvent) -> int:
        return self.wal.append_control(event)

    def log_report(self, payload: bytes) -> int:
        return self.wal.append_report(payload)

    def log_report_batch(self, payloads) -> int:
        """Batched report logging for high-throughput ingestion paths.

        Writes the whole batch as one RT_REPORT_BATCH record, so the WAL
        header/CRC cost amortises over the batch.
        """
        return self.wal.append_report_batch(payloads)

    def log_report_frame(self, frame: bytes) -> int:
        """Log a contiguous frame of wire reports as one batch record.

        Replay-compatible with :meth:`log_report_batch` — the record body
        is byte-identical — but built without splitting the frame into
        per-report payloads first.
        """
        return self.wal.append_report_frame(frame, REPORT_SIZE)

    def log_malformed(self, payload: bytes) -> int:
        return self.wal.append_malformed(payload)

    # -- snapshots -------------------------------------------------------------

    def snapshot(self, topo, hs, updater, state_version: int) -> str:
        """Checkpoint current state; must run on the control-plane thread."""
        if self.read_only:
            raise RecoveryError("state opened read-only")
        # The snapshot claims coverage up to last_seq: make that prefix
        # durable first, so "snapshot + suffix" never references lost data.
        self.wal.sync()
        payload = capture_state(
            topo, hs, updater, state_version, wal_seq=self.wal.last_seq
        )
        return self.snapshots.save(payload)

    def prune_wal(self) -> int:
        """Drop WAL segments fully covered by the newest valid snapshot.

        Trades replay history for disk: replay can then only reconstruct
        incidents after the snapshot's coverage point.
        """
        snap = self.snapshots.load_latest()
        if snap is None:
            return 0
        return self.wal.prune_segments_before(snap["wal_seq"])

    # -- lifecycle / observability ---------------------------------------------

    def stats(self) -> Dict[str, int]:
        out = dict(self.wal.stats())
        out.update(self.snapshots.stats())
        out["recoveries"] = self.recoveries
        out["replayed_control_records"] = self.replayed_controls
        return out

    def close(self) -> None:
        self.wal.close()

    def __enter__(self) -> "PersistentState":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
