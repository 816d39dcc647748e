"""The incident record: one detected inconsistency, kept as its witness.

A persistent data-plane fault yields the same failing report again and
again, so the server's log keeps one record per distinct failing payload
(DESIGN.md §7.1).  This module holds that record.  A record from the wire
intake stores the payload bytes and the few references its readers need,
and decodes its verification and localization views on read.
"""

from __future__ import annotations

import weakref
from typing import List, Optional

from .localization import CandidatePath, LocalizationResult, blamed_in
from .pathtable import PathEntry
from .reports import PortCodec, TagReport, unpack_report
from .verifier import VerificationResult, Verdict

__all__ = ["Incident"]


class Incident:
    """One detected inconsistency: the failed verification + localization.

    A record costs its witness, not decoded copies of it.  One made by the
    wire intake keeps the failing payload (the ``bytes`` that keys the
    server's payload map), ``verdict``, ``matched_entry``, the localizer's
    shared ``candidates`` list (``None`` = unlocalized) and the codec;
    :attr:`verification` and :attr:`localization` are views decoded from the
    payload on each read.  While either view is alive the other reuses its
    :class:`TagReport` (held weakly, never cached), so
    ``incident.localization.report is incident.verification.report``.  A
    record built from objects, ``Incident(verification, localization)``
    (``payload`` is ``None``), keeps its :class:`VerificationResult`; the
    server's log holds only wire records, since every report it verifies
    enters as a wire row.
    Hot paths read ``verdict``, ``candidates`` and ``payload`` and build no
    view.
    """

    __slots__ = (
        "payload",
        "verdict",
        "matched_entry",
        "candidates",
        "_source",  # the codec, or an object record's VerificationResult
        "_report",  # weak reference to the last decoded TagReport
    )

    def __init__(
        self,
        verification: VerificationResult,
        localization: Optional[LocalizationResult] = None,
    ) -> None:
        self.payload: Optional[bytes] = None
        self.verdict = verification.verdict
        self.matched_entry = verification.matched_entry
        self.candidates = None if localization is None else localization.candidates
        self._source = verification
        self._report = None

    @classmethod
    def from_wire(
        cls,
        payload: bytes,
        codec: PortCodec,
        verdict: Verdict,
        matched_entry: Optional[PathEntry],
        candidates: Optional[List[CandidatePath]],
    ) -> "Incident":
        """A record of a failing wire payload, decoded only when read."""
        incident = cls.__new__(cls)
        incident.payload = payload
        incident.verdict = verdict
        incident.matched_entry = matched_entry
        incident.candidates = candidates
        incident._source = codec
        incident._report = None
        return incident

    def _decoded(self) -> TagReport:
        if self.payload is None:
            return self._source.report
        ref = self._report
        report = None if ref is None else ref()
        if report is None:
            report = unpack_report(self.payload, self._source)
            self._report = weakref.ref(report)
        return report

    @property
    def verification(self) -> VerificationResult:
        """The failed verification (a fresh view for a wire record)."""
        if self.payload is None:
            return self._source
        entry = self.matched_entry
        return VerificationResult(
            self.verdict,
            self._decoded(),
            entry,
            None if entry is None else entry.tag,
        )

    @property
    def localization(self) -> Optional[LocalizationResult]:
        """Algorithm 4's answer for this report (``None`` = unlocalized)."""
        if self.candidates is None:
            return None
        return LocalizationResult(self._decoded(), self.candidates)

    @property
    def passed(self) -> bool:
        """Mirror of ``verdict.passed``."""
        return self.verdict.passed

    @property
    def blamed_switches(self) -> List[str]:
        """Switches Algorithm 4 holds responsible (may be empty)."""
        if self.candidates is None:
            return []
        return blamed_in(self.candidates)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Incident):
            return NotImplemented
        return (self.verification, self.localization) == (
            other.verification,
            other.localization,
        )

    __hash__ = None  # type: ignore[assignment]

    def __reduce__(self):
        if self.payload is None:
            return (Incident, (self._source, self.localization))
        return (
            Incident.from_wire,
            (
                self.payload,
                self._source,
                self.verdict,
                self.matched_entry,
                self.candidates,
            ),
        )

    def __repr__(self) -> str:
        return f"Incident({self.verification!r}, {self.localization!r})"

    def __str__(self) -> str:
        blame = ", ".join(self.blamed_switches) or "unlocalized"
        return f"INCONSISTENCY {self.verification} | blamed: {blame}"
