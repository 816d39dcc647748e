"""Tag verification — Algorithm 3 of the paper.

On receiving a tag report ``<inport, outport, header, tag>`` the server
looks up the path list for ``(inport, outport)``, finds the path whose
header set contains the reported header, and compares tags:

* header matches a path and the tags are equal  -> **PASS**
  (by construction this has *zero false positives*: identical paths always
  produce identical tags),
* header matches a path but the tags differ     -> **FAIL (tag mismatch)** —
  the packet took a different path than configured,
* no path's header set contains the header      -> **FAIL (no path)** —
  the packet exited somewhere it should never have reached (includes drops
  of packets that should have been delivered, and vice versa),
* the ``(inport, outport)`` pair is not indexed -> **FAIL (unknown pair)** —
  a special case of "no path" kept distinct for diagnostics; TTL-expiry
  reports from forwarding loops land here.

Two implementations of the membership test coexist:

* the **slow path** (``fast_path=False``) — the paper-literal list-order
  scan with recursive ``HeaderSpace.contains``; it is the oracle every
  optimisation is checked against,
* the **fast path** (default) — :func:`repro.core.pathtable.match_pair` on
  the pair's spec: each candidate's exit-header BDD walked on the
  manager's own node arrays with the header packed into one integer,
  tag-first when the pair's header sets are disjoint.  Every shard replica
  runs the same function on the same specs
  (:func:`repro.core.replica._verify_wire`, the scalar side of the wire
  kernel), so there is one production match path.  Verdicts are
  bit-identical to the slow path (property-tested).

:meth:`Verifier.verify_batch` times a whole batch with one clock read pair
and allocates a result for failures only.
"""

from __future__ import annotations

import enum
import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from ..bdd.headerspace import HeaderSpace
from .pathtable import PathEntry, PathTable, match_pair
from .reports import TagReport

__all__ = [
    "Verdict",
    "VerificationResult",
    "BatchVerificationResult",
    "Verifier",
]

class Verdict(enum.Enum):
    """Outcome classes of Algorithm 3."""

    PASS = "pass"
    FAIL_TAG_MISMATCH = "fail-tag-mismatch"
    FAIL_NO_PATH = "fail-no-path"
    FAIL_UNKNOWN_PAIR = "fail-unknown-pair"

    @property
    def passed(self) -> bool:
        """True only for PASS."""
        return self is Verdict.PASS


@dataclass(slots=True)
class VerificationResult:
    """A verdict plus the matched path (when one exists)."""

    verdict: Verdict
    report: TagReport
    matched_entry: Optional[PathEntry] = None
    expected_tag: Optional[int] = None

    @property
    def passed(self) -> bool:
        """Convenience mirror of ``verdict.passed``."""
        return self.verdict.passed

    def __str__(self) -> str:
        return f"{self.verdict.value}: {self.report}"


@dataclass
class BatchVerificationResult:
    """Aggregate outcome of one :meth:`Verifier.verify_batch` call.

    ``verdicts`` is positionally aligned with the submitted reports;
    ``failures`` carries a full :class:`VerificationResult` for every
    non-PASS report (in submission order) so callers can localize and log
    without re-verifying; timing is batch-level, one clock read pair for
    the whole batch.
    """

    verdicts: List[Verdict]
    failures: List[VerificationResult]
    elapsed_s: float
    counts: Dict[Verdict, int]

    @property
    def reports(self) -> int:
        """Number of reports verified in this batch."""
        return len(self.verdicts)

    @property
    def passed_count(self) -> int:
        """Reports that verified clean."""
        return self.counts.get(Verdict.PASS, 0)

    @property
    def mean_us(self) -> float:
        """Mean per-report verification time in microseconds."""
        if not self.verdicts:
            return 0.0
        return self.elapsed_s / len(self.verdicts) * 1e6

    def __str__(self) -> str:
        return (
            f"batch of {self.reports}: {self.passed_count} passed, "
            f"{self.reports - self.passed_count} failed, "
            f"{self.mean_us:.2f} us/report"
        )


class Verifier:
    """Algorithm 3 over one path table.

    The linear scan over the pair's path list mirrors the paper's design;
    Figure 6 justifies it (few paths per pair), and our Figure 6 benchmark
    re-validates the assumption for the bundled topologies.  With
    ``fast_path`` enabled (the default) the scan is
    :func:`~repro.core.pathtable.match_pair`, which walks each candidate's
    BDD with the header packed into one integer, tag-first; the verdicts
    are identical, only the constant factor changes.
    """

    def __init__(
        self, table: PathTable, hs: HeaderSpace, fast_path: bool = True
    ) -> None:
        self.table = table
        self.hs = hs
        self.fast_path = fast_path
        self.counters: Dict[Verdict, int] = {v: 0 for v in Verdict}

    # -- the membership test, both implementations ----------------------------

    def _match_slow(
        self, report: TagReport
    ) -> Tuple[Verdict, Optional[PathEntry]]:
        """The oracle: list-order scan, recursive BDD containment."""
        entries = self.table.lookup(report.inport, report.outport)
        if not entries:
            return Verdict.FAIL_UNKNOWN_PAIR, None
        header = report.header.as_dict()
        contains = self.hs.contains
        for entry in entries:
            # Reports carry the header as it *exits* (after any rewrites on
            # the path), so they are matched against the entry's exit-header
            # set — identical to ``headers`` when the path rewrites nothing.
            if contains(entry.exit_header_set(), header):
                if entry.tag == report.tag:
                    return Verdict.PASS, entry
                return Verdict.FAIL_TAG_MISMATCH, entry
        return Verdict.FAIL_NO_PATH, None

    def _match_fast(
        self, report: TagReport
    ) -> Tuple[Verdict, Optional[PathEntry]]:
        """:func:`~repro.core.pathtable.match_pair` on the pair's spec with
        the header packed into one integer."""
        index = self.table.fast_index(report.inport, report.outport, self.hs)
        if index is None:
            return Verdict.FAIL_UNKNOWN_PAIR, None
        value = self.hs.header_value(report.header.as_dict())
        pos = match_pair(index.spec, report.tag, value)
        if pos < 0:
            return Verdict.FAIL_NO_PATH, None
        matched = index.entries[pos]
        if matched.tag == report.tag:
            return Verdict.PASS, matched
        return Verdict.FAIL_TAG_MISMATCH, matched

    # -- public verification API ----------------------------------------------

    def verify(self, report: TagReport) -> VerificationResult:
        """Verify one tag report against the path table."""
        match = self._match_fast if self.fast_path else self._match_slow
        verdict, matched = match(report)
        self.counters[verdict] += 1
        return VerificationResult(
            verdict=verdict,
            report=report,
            matched_entry=matched,
            expected_tag=None if matched is None else matched.tag,
        )

    def verify_batch(self, reports: Sequence[TagReport]) -> BatchVerificationResult:
        """Verify many reports with one clock read pair for the whole batch.

        Counters accumulate exactly as under repeated :meth:`verify` calls,
        but PASS reports allocate nothing — only failures materialise a
        :class:`VerificationResult`.
        """
        match = self._match_fast if self.fast_path else self._match_slow
        counters = self.counters
        verdicts: List[Verdict] = []
        append = verdicts.append
        failures: List[VerificationResult] = []
        pass_verdict = Verdict.PASS
        counts: Dict[Verdict, int] = {}
        started = time.perf_counter()
        for report in reports:
            verdict, matched = match(report)
            counters[verdict] += 1
            counts[verdict] = counts.get(verdict, 0) + 1
            append(verdict)
            if verdict is not pass_verdict:
                failures.append(
                    VerificationResult(
                        verdict=verdict,
                        report=report,
                        matched_entry=matched,
                        expected_tag=None if matched is None else matched.tag,
                    )
                )
        return BatchVerificationResult(
            verdicts=verdicts,
            failures=failures,
            elapsed_s=time.perf_counter() - started,
            counts=counts,
        )

    # -- statistics -----------------------------------------------------------

    @property
    def verified_count(self) -> int:
        """Total reports verified."""
        return sum(self.counters.values())

    @property
    def failure_count(self) -> int:
        """Reports that failed verification (any failure class)."""
        return self.verified_count - self.counters[Verdict.PASS]
