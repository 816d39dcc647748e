"""Deterministic incident replay from a state directory.

The WAL already interleaves everything a postmortem needs: every applied
control-plane change (RT_CONTROL) and every sampled tag report at the
moment it entered the monitor (RT_REPORT), in one global sequence.
:func:`replay` rebuilds a verification pipeline offline and re-feeds that
stream in order, so every incident the live server raised is reproduced at
the exact WAL position it first occurred — no network, no timing, no
sampling randomness.

Replay base selection:

* if the log still starts at seq 1 (never pruned), replay starts from an
  *empty* path table and lets the logged control records build it — the
  strongest reproduction, independent of any snapshot;
* if the prefix was pruned, replay boots from the **oldest** snapshot that
  covers the missing prefix (most history still replayable ahead of it).

Bisection: ``start_seq``/``stop_seq`` bound which *reports* are verified
(control records before the window are always applied — they are state,
not events), so an operator can binary-search the first bad report:
``repro replay state/ --stop-seq MID`` and check ``first_failure_seq``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from ..core.bloom import BloomTagScheme
from ..core.localization import PathInferLocalizer
from ..core.reports import PortCodec, ReportDecodeError, unpack_report
from ..core.verifier import Verifier
from .recovery import PersistentState, RecoveryError, apply_control_event, restore_state
from .wal import (
    RT_CONTROL,
    RT_MALFORMED,
    RT_REPORT,
    RT_REPORT_BATCH,
    ControlEvent,
    unpack_report_batch,
)

__all__ = ["ReplayIncident", "ReplayResult", "replay", "incident_key"]


def incident_key(
    report, verdict_name: str
) -> Tuple[str, int, str, int, Tuple, bool, int, str]:
    """Order-free identity of one incident, comparable live vs replayed.

    Built only from primitives (no BDD node ids, no object identity), so a
    key computed inside the live process equals the key computed by an
    offline replay in a different process.
    """
    header = report.header
    return (
        report.inport.switch,
        report.inport.port,
        report.outport.switch,
        report.outport.port,
        (header.src_ip, header.dst_ip, header.proto, header.src_port, header.dst_port),
        report.ttl_expired,
        report.tag,
        verdict_name,
    )


@dataclass
class ReplayIncident:
    """One reproduced inconsistency, pinned to its WAL position."""

    seq: int
    verification: object  # VerificationResult
    localization: Optional[object] = None  # LocalizationResult

    @property
    def key(self):
        return incident_key(
            self.verification.report, self.verification.verdict.name
        )

    def __str__(self) -> str:
        blame = ""
        if self.localization is not None:
            blamed = self.localization.blamed_switches()
            if blamed:
                blame = f" | blamed: {', '.join(blamed)}"
        return f"seq={self.seq} {self.verification}{blame}"


@dataclass
class ReplayResult:
    """What a replay pass saw, and where."""

    source: str  # "wal" (from-scratch) or "snapshot"
    base_seq: int
    replayed_controls: int = 0
    replayed_reports: int = 0
    skipped_reports: int = 0  # outside the [start_seq, stop_seq] window
    malformed_records: int = 0
    decode_errors: int = 0
    incidents: List[ReplayIncident] = field(default_factory=list)

    @property
    def first_failure_seq(self) -> Optional[int]:
        return self.incidents[0].seq if self.incidents else None

    def summary(self) -> str:
        first = self.first_failure_seq
        return (
            f"replayed {self.replayed_reports} reports / "
            f"{self.replayed_controls} control records from {self.source} "
            f"(base seq {self.base_seq}): {len(self.incidents)} incidents"
            + (f", first at seq {first}" if first is not None else "")
        )


def replay(
    state: PersistentState,
    topo,
    scheme: Optional[BloomTagScheme] = None,
    codec: Optional[PortCodec] = None,
    start_seq: int = 1,
    stop_seq: Optional[int] = None,
    localize: bool = True,
    max_path_length: Optional[int] = None,
) -> ReplayResult:
    """Re-verify the logged report stream; see the module docstring.

    ``state`` should be opened ``read_only=True`` when replaying a live
    server's directory.  Raises :class:`RecoveryError` if the WAL prefix
    was pruned and no snapshot covers it.
    """
    state.check_meta(topo)
    scheme = scheme or BloomTagScheme()
    codec = codec or PortCodec(sorted(topo.switches))

    wal = state.wal
    first = wal.first_seq()
    if first is None or first == 1:
        # Complete history: rebuild from nothing, trusting only the log.
        from ..bdd.headerspace import HeaderSpace
        from ..core.incremental import IncrementalPathTable

        hs = HeaderSpace()
        updater = IncrementalPathTable(
            topo, hs, scheme=scheme, max_path_length=max_path_length
        )
        result = ReplayResult(source="wal", base_seq=0)
    else:
        snap = state.snapshots.load_first_covering(first - 1)
        if snap is None:
            raise RecoveryError(
                f"WAL starts at seq {first} and no snapshot covers the "
                f"pruned prefix; cannot establish a replay base"
            )
        hs, updater = restore_state(
            snap, topo, scheme=scheme, max_path_length=max_path_length
        )
        result = ReplayResult(source="snapshot", base_seq=snap["wal_seq"])

    verifier = Verifier(updater.table, hs)
    localizer = (
        PathInferLocalizer(updater.builder, scheme, topo) if localize else None
    )

    def verify_payload(seq: int, payload: bytes) -> None:
        try:
            report = unpack_report(payload, codec)
        except ReportDecodeError:
            result.decode_errors += 1
            return
        verification = verifier.verify(report)
        result.replayed_reports += 1
        if not verification.passed:
            localization = None
            if localizer is not None:
                try:
                    localization = localizer.localize(report)
                except Exception:
                    localization = None
            result.incidents.append(
                ReplayIncident(
                    seq=seq,
                    verification=verification,
                    localization=localization,
                )
            )

    for record in wal.records(start_seq=result.base_seq + 1):
        if stop_seq is not None and record.seq > stop_seq:
            break
        if record.rtype == RT_CONTROL:
            apply_control_event(updater, ControlEvent.decode(record.payload))
            result.replayed_controls += 1
        elif record.rtype == RT_REPORT:
            if record.seq < start_seq:
                result.skipped_reports += 1
                continue
            verify_payload(record.seq, record.payload)
        elif record.rtype == RT_REPORT_BATCH:
            # A batched dispatch shares one seq; bisection granularity
            # for daemon-recorded streams is the dispatch batch.
            payloads = unpack_report_batch(record.payload)
            if record.seq < start_seq:
                result.skipped_reports += len(payloads)
                continue
            for payload in payloads:
                verify_payload(record.seq, payload)
        elif record.rtype == RT_MALFORMED:
            result.malformed_records += 1
    return result
