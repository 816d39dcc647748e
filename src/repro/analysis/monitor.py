"""Operational incident aggregation.

A VeriDP server in a busy network emits a stream of incidents — one per
failed verification, so a single bad rule produces one incident per sampled
packet crossing it.  Operators need the roll-up: *which switch*, *which
flows*, *since when*.  :class:`IncidentAggregator` turns the stream into
exactly that, with an optional sliding window so stale incidents age out
after a repair.
"""

from __future__ import annotations

from collections import Counter, deque
from dataclasses import dataclass
from typing import Deque, Dict, List, Optional, Tuple

from ..core.server import Incident
from ..core.verifier import Verdict
from ..netmodel.topology import PortRef

__all__ = ["IncidentAggregator", "SuspectReport"]


@dataclass
class SuspectReport:
    """The roll-up for one blamed switch."""

    switch_id: str
    incident_count: int
    affected_pairs: int
    first_seen: float
    last_seen: float

    def __str__(self) -> str:
        return (
            f"{self.switch_id}: {self.incident_count} incidents over "
            f"{self.affected_pairs} port pairs "
            f"[t={self.first_seen:.2f}..{self.last_seen:.2f}]"
        )


@dataclass
class _Record:
    now: float
    verdict: Verdict
    pair: Tuple[PortRef, PortRef]
    blamed: Tuple[str, ...]


class IncidentAggregator:
    """Roll up a stream of incidents for the operator console.

    ``window_s`` bounds how far back aggregation looks (``None`` = forever);
    :meth:`prune` (called automatically on ingest) ages records out.
    """

    def __init__(self, window_s: Optional[float] = None) -> None:
        if window_s is not None and window_s <= 0:
            raise ValueError(f"window must be positive, got {window_s}")
        self.window_s = window_s
        self._records: Deque[_Record] = deque()
        self.total_ingested = 0

    # -- ingestion ---------------------------------------------------------

    def ingest(self, incident: Incident, now: float = 0.0) -> None:
        """Add one incident observed at time ``now``."""
        report = incident.verification.report
        self._records.append(
            _Record(
                now=now,
                verdict=incident.verification.verdict,
                pair=(report.inport, report.outport),
                blamed=tuple(incident.blamed_switches),
            )
        )
        self.total_ingested += 1
        self.prune(now)

    def ingest_all(self, incidents: List[Incident], now: float = 0.0) -> None:
        """Add a batch (e.g. ``server.drain_incidents()``)."""
        for incident in incidents:
            self.ingest(incident, now)

    def prune(self, now: float) -> int:
        """Drop records older than the window; returns how many went."""
        if self.window_s is None:
            return 0
        horizon = now - self.window_s
        dropped = 0
        while self._records and self._records[0].now < horizon:
            self._records.popleft()
            dropped += 1
        return dropped

    # -- roll-ups -----------------------------------------------------------

    @property
    def active_count(self) -> int:
        """Incidents currently inside the window."""
        return len(self._records)

    def verdict_counts(self) -> Dict[Verdict, int]:
        """Failures per verdict class."""
        return dict(Counter(r.verdict for r in self._records))

    def failures_by_pair(self) -> Dict[Tuple[PortRef, PortRef], int]:
        """Incidents per (inport, outport) pair — the affected flows."""
        return dict(Counter(r.pair for r in self._records))

    def top_suspects(self, limit: int = 3) -> List[SuspectReport]:
        """The most-blamed switches with their evidence, ranked."""
        by_switch: Dict[str, List[_Record]] = {}
        for record in self._records:
            for switch_id in record.blamed:
                by_switch.setdefault(switch_id, []).append(record)
        reports = [
            SuspectReport(
                switch_id=switch_id,
                incident_count=len(records),
                affected_pairs=len({r.pair for r in records}),
                first_seen=min(r.now for r in records),
                last_seen=max(r.now for r in records),
            )
            for switch_id, records in by_switch.items()
        ]
        reports.sort(key=lambda s: (-s.incident_count, s.switch_id))
        return reports[:limit]

    def unlocalized_count(self) -> int:
        """Incidents the localizer produced no suspects for."""
        return sum(1 for r in self._records if not r.blamed)

    def summary(self) -> Dict[str, object]:
        """One dict for dashboards/JSON export."""
        suspects = self.top_suspects(limit=5)
        return {
            "active_incidents": self.active_count,
            "total_ingested": self.total_ingested,
            "verdicts": {v.value: c for v, c in self.verdict_counts().items()},
            "top_suspects": [
                {"switch": s.switch_id, "incidents": s.incident_count,
                 "pairs": s.affected_pairs}
                for s in suspects
            ],
            "unlocalized": self.unlocalized_count(),
            "affected_pairs": len(self.failures_by_pair()),
        }

    def render(self) -> str:
        """Human-readable console block."""
        lines = [f"incidents: {self.active_count} active / {self.total_ingested} total"]
        for verdict, count in sorted(
            self.verdict_counts().items(), key=lambda vc: -vc[1]
        ):
            lines.append(f"  {verdict.value}: {count}")
        for suspect in self.top_suspects():
            lines.append(f"  suspect {suspect}")
        if self.unlocalized_count():
            lines.append(f"  unlocalized: {self.unlocalized_count()}")
        return "\n".join(lines)
