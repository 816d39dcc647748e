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
  scan with recursive ``HeaderSpace.contains``; it is the reference
  semantics every optimisation is checked against,
* the **fast path** (default) — each candidate's exit-header BDD walked
  on the manager's own node arrays with the header packed into one
  integer (:meth:`repro.bdd.engine.BDD.evaluate_value`), tag-first
  candidate ordering when
  the pair's header sets are disjoint, and a bounded per-flow cache mapping
  the canonical ``(inport, outport, header)`` of a report that PASSed to
  its matched entry (a failing payload is remembered by the server's
  incident log instead).  Verdicts are bit-identical to the slow path
  (property-tested).

:meth:`Verifier.verify_batch` amortises timing and result allocation over a
whole batch of reports — the per-report path pays two ``perf_counter``
calls and a dataclass allocation per report, which at microsecond-scale
verification costs is pure overhead.  With ``vector=True`` the batch is
additionally routed through the numpy kernel (:mod:`repro.core.vector`)
when it is available and worthwhile, with automatic scalar fallback (and a
counted fallback event) otherwise; verdicts, matched entries and counters
are identical either way.
"""

from __future__ import annotations

import enum
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from ..bdd.headerspace import HeaderSpace
from .pathtable import PathEntry, PathTable
from .reports import TagReport

__all__ = [
    "Verdict",
    "VerificationResult",
    "BatchVerificationResult",
    "Verifier",
]

def _code_to_verdict():
    """Vector verdict code -> Verdict, aligned with ``vector.VPASS`` etc."""
    return (
        Verdict.PASS,
        Verdict.FAIL_TAG_MISMATCH,
        Verdict.FAIL_NO_PATH,
        Verdict.FAIL_UNKNOWN_PAIR,
    )


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
    """A verdict plus the matched path (when one exists) and timing."""

    verdict: Verdict
    report: TagReport
    matched_entry: Optional[PathEntry] = None
    expected_tag: Optional[int] = None
    elapsed_s: float = 0.0

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
    without re-verifying; timing is batch-level — one clock read pair for
    the whole batch instead of two per report.
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
    def all_passed(self) -> bool:
        """True iff every report in the batch passed."""
        return self.passed_count == len(self.verdicts)

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
    ``fast_path`` enabled (the default) the scan walks each candidate's BDD
    with the header packed into one integer, with tag-first ordering and a
    per-flow cache; the verdicts are identical, only the constant factor
    changes.
    """

    def __init__(
        self,
        table: PathTable,
        hs: HeaderSpace,
        fast_path: bool = True,
        flow_cache_size: int = 8192,
    ) -> None:
        self.table = table
        self.hs = hs
        self.fast_path = fast_path
        self.flow_cache_size = flow_cache_size
        self.counters: Dict[Verdict, int] = {v: 0 for v in Verdict}
        self.total_time_s = 0.0
        self.flow_cache_hits = 0
        self.fast_verifications = 0
        self.slow_verifications = 0
        self.vector_batches = 0
        self.vector_verifications = 0
        self.vector_fallbacks = 0
        self.vector_scalar_rows = 0
        #: Optional callable fed each vector batch's size (the obs registry
        #: hooks its batch-size histogram here).
        self.vector_batch_observer = None
        self._flow_cache: Dict[tuple, Optional[PathEntry]] = {}
        self._flow_cache_table: Optional[PathTable] = None
        self._flow_cache_version = -1

    # -- the membership test, both implementations ----------------------------

    def _match_slow(
        self, report: TagReport
    ) -> Tuple[Verdict, Optional[PathEntry]]:
        """Reference semantics: list-order scan, recursive BDD containment."""
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
        """Packed-header BDD walks + tag-first ordering + per-flow cache.

        Only a flow that PASSes is stored.  Its entry is a function of the
        flow and the table version alone, so a hit answers a later report
        of that flow whatever its tag.
        """
        table = self.table
        if (
            table is not self._flow_cache_table
            or table.version != self._flow_cache_version
        ):
            self._flow_cache.clear()
            self._flow_cache_table = table
            self._flow_cache_version = table.version
        key = (report.inport, report.outport, report.header)
        cache = self._flow_cache
        matched = cache.get(key)
        if matched is not None:
            self.flow_cache_hits += 1
        else:
            index = table.fast_index(report.inport, report.outport, self.hs)
            if index is None:
                return Verdict.FAIL_UNKNOWN_PAIR, None
            hs = self.hs
            holds = hs.bdd.evaluate_value
            value = hs.header_value(report.header.as_dict())
            entries = index.entries
            matched = None
            if index.disjoint:
                # Tag-first: with pairwise-disjoint header sets at most one
                # entry can contain the header, so probing the report-tag
                # bucket first cannot change the verdict — it only lets the
                # common PASS case finish after a dict hit + one BDD walk.
                positions = index.by_tag.get(report.tag)
                if positions is not None:
                    for pos in positions:
                        entry = entries[pos]
                        if holds(entry.exit_header_set(), value):
                            matched = entry
                            break
                if matched is None:
                    tag = report.tag
                    for entry in entries:
                        if entry.tag != tag and holds(entry.exit_header_set(), value):
                            matched = entry
                            break
            else:
                for entry in entries:
                    if holds(entry.exit_header_set(), value):
                        matched = entry
                        break
            if (
                matched is not None
                and matched.tag == report.tag
                and self.flow_cache_size > 0
            ):
                if len(cache) >= self.flow_cache_size:
                    cache.pop(next(iter(cache)))  # FIFO eviction
                cache[key] = matched
        if matched is None:
            return Verdict.FAIL_NO_PATH, None
        if matched.tag == report.tag:
            return Verdict.PASS, matched
        return Verdict.FAIL_TAG_MISMATCH, matched

    def _match(self, report: TagReport) -> Tuple[Verdict, Optional[PathEntry]]:
        if self.fast_path:
            return self._match_fast(report)
        return self._match_slow(report)

    # -- public verification API ----------------------------------------------

    def verify(self, report: TagReport) -> VerificationResult:
        """Verify one tag report against the path table."""
        started = time.perf_counter()
        verdict, matched = self._match(report)
        elapsed = time.perf_counter() - started
        self.counters[verdict] += 1
        self.total_time_s += elapsed
        if self.fast_path:
            self.fast_verifications += 1
        else:
            self.slow_verifications += 1
        return VerificationResult(
            verdict=verdict,
            report=report,
            matched_entry=matched,
            expected_tag=None if matched is None else matched.tag,
            elapsed_s=elapsed,
        )

    def count_repeat(self, verdict: Verdict) -> None:
        """Account for a report whose verdict the caller already holds.

        No matcher ran, but the verdict counters move as :meth:`verify`
        would have moved them; only ``total_time_s`` stays put, since no
        time was spent.  The flow cache was not consulted either, and it
        holds passing flows only, so no hit is booked: on the fast path a
        repeat counts among ``flow_cache_misses``, the verifications the
        cache did not answer.
        """
        self.counters[verdict] += 1
        if self.fast_path:
            self.fast_verifications += 1
        else:
            self.slow_verifications += 1

    def verify_batch(
        self, reports: Sequence[TagReport], vector: bool = False
    ) -> BatchVerificationResult:
        """Verify many reports with one clock read pair for the whole batch.

        Counters and total time accumulate exactly as under repeated
        :meth:`verify` calls, but PASS reports allocate nothing — only
        failures materialise a :class:`VerificationResult`.

        ``vector=True`` routes the batch through the numpy kernel
        (:mod:`repro.core.vector`) when possible — verdict-for-verdict
        identical to the scalar paths (oracle-tested) — and falls back to
        the scalar loop (counted on ``vector_fallbacks``) when numpy is
        missing, the batch is below the crossover size, or the table/layout
        cannot be packed.  Note the vector path bypasses the per-flow
        cache; it is opt-in here and enabled by default in the sharded
        daemon, whose dispatch batches rarely repeat flows back-to-back.
        """
        if vector:
            result = self._verify_batch_vector(reports)
            if result is not None:
                return result
            self.vector_fallbacks += 1
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
        elapsed = time.perf_counter() - started
        self.total_time_s += elapsed
        if self.fast_path:
            self.fast_verifications += len(verdicts)
        else:
            self.slow_verifications += len(verdicts)
        return BatchVerificationResult(
            verdicts=verdicts,
            failures=failures,
            elapsed_s=elapsed,
            counts=counts,
        )

    def _verify_batch_vector(
        self, reports: Sequence[TagReport]
    ) -> Optional[BatchVerificationResult]:
        """The numpy kernel path; ``None`` means "use the scalar loop".

        Rows whose pair was too irregular to pack come back as
        :data:`~repro.core.vector.VSCALAR` and are resolved one-by-one via
        the scalar matcher (counted on ``vector_scalar_rows``), so the
        batch result is complete either way.
        """
        from . import vector as vec

        if not vec.HAVE_NUMPY or len(reports) < vec.MIN_BATCH:
            return None
        started = time.perf_counter()
        kernel = self.table.vector_kernel(self.hs)
        if kernel is None:
            return None
        import numpy as np

        n = len(reports)
        names = kernel.field_names
        pack = kernel.pack.pack
        slots_map = kernel.slots
        slot_list = [0] * n
        parts: List[bytes] = [b""] * n
        try:
            tags = np.fromiter((r.tag for r in reports), dtype=np.uint64, count=n)
            for i, report in enumerate(reports):
                slot_list[i] = slots_map.get(
                    (report.inport, report.outport), vec.SLOT_UNKNOWN
                )
                as_dict = report.header.as_dict()
                parts[i] = pack(*(as_dict[name] for name in names))
        except Exception:
            # Out-of-range tags/fields or exotic header objects: the scalar
            # paths define the semantics for those, so hand the batch back.
            return None
        hdr = np.frombuffer(b"".join(parts), dtype=np.uint8).reshape(n, -1)
        slot = np.asarray(slot_list, dtype=np.int64)
        lane0, lane1 = vec.lanes_from_bytes(hdr)
        codes, matched = kernel.assembly.verify(slot, tags, lane0, lane1, hdr)
        to_verdict = _code_to_verdict()
        counters = self.counters
        entry_objs = kernel.entry_objs
        verdicts: List[Verdict] = []
        failures: List[VerificationResult] = []
        counts: Dict[Verdict, int] = {}
        scalar_rows = 0
        pass_verdict = Verdict.PASS
        for i, code in enumerate(codes.tolist()):
            if code == vec.VSCALAR:
                scalar_rows += 1
                verdict, entry = self._match(reports[i])
            else:
                verdict = to_verdict[code]
                gidx = matched[i]
                entry = entry_objs[gidx] if gidx >= 0 else None
            counters[verdict] += 1
            counts[verdict] = counts.get(verdict, 0) + 1
            verdicts.append(verdict)
            if verdict is not pass_verdict:
                failures.append(
                    VerificationResult(
                        verdict=verdict,
                        report=reports[i],
                        matched_entry=entry,
                        expected_tag=None if entry is None else entry.tag,
                    )
                )
        elapsed = time.perf_counter() - started
        self.total_time_s += elapsed
        self.vector_batches += 1
        self.vector_verifications += n - scalar_rows
        self.vector_scalar_rows += scalar_rows
        if scalar_rows:
            if self.fast_path:
                self.fast_verifications += scalar_rows
            else:
                self.slow_verifications += scalar_rows
        observer = self.vector_batch_observer
        if observer is not None:
            observer(n)
        return BatchVerificationResult(
            verdicts=verdicts,
            failures=failures,
            elapsed_s=elapsed,
            counts=counts,
        )

    # -- cache control ---------------------------------------------------------

    def invalidate_fast_path(self) -> None:
        """Drop the flow cache (table-version tracking usually suffices)."""
        self._flow_cache.clear()
        self._flow_cache_table = None
        self._flow_cache_version = -1

    @property
    def flow_cache_len(self) -> int:
        """Current number of cached flows."""
        return len(self._flow_cache)

    # -- statistics -----------------------------------------------------------

    @property
    def verified_count(self) -> int:
        """Total reports verified."""
        return sum(self.counters.values())

    @property
    def failure_count(self) -> int:
        """Reports that failed verification (any failure class)."""
        return self.verified_count - self.counters[Verdict.PASS]

    @property
    def flow_cache_misses(self) -> int:
        """Fast-path verifications the flow cache did not answer."""
        return max(0, self.fast_verifications - self.flow_cache_hits)

    @property
    def flow_cache_hit_ratio(self) -> float:
        """Fraction of fast-path verifications served from the flow cache."""
        if self.fast_verifications == 0:
            return 0.0
        return self.flow_cache_hits / self.fast_verifications

    @property
    def fast_path_ratio(self) -> float:
        """Fraction of all verifications that took the compiled fast path."""
        total = self.verified_count
        if total == 0:
            return 0.0
        return self.fast_verifications / total

    def mean_verification_time_s(self) -> float:
        """Average wall-clock time per verification (Figure 13's metric)."""
        if self.verified_count == 0:
            return 0.0
        return self.total_time_s / self.verified_count

    def reset_counters(self) -> None:
        """Zero the statistics (the table is untouched)."""
        self.counters = {v: 0 for v in Verdict}
        self.total_time_s = 0.0
        self.flow_cache_hits = 0
        self.fast_verifications = 0
        self.slow_verifications = 0
        self.vector_batches = 0
        self.vector_verifications = 0
        self.vector_fallbacks = 0
        self.vector_scalar_rows = 0
