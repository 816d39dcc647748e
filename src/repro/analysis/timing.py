"""Timing harnesses — Figures 13 and 14.

* :func:`measure_verification_time` — generate one test packet per path in
  the path table, collect its tag report, verify each report many times and
  average (the paper repeats each verification 10^4 times; the repeat count
  is a knob here).
* :func:`measure_update_times` — populate all but one switch, then install
  the last switch's prefix rules one-by-one through the incremental updater,
  recording each update's wall time (Figure 14's per-rule series).
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from ..core.incremental import IncrementalPathTable, LpmProvider
from ..core.pathtable import PathTable, PathTableBuilder
from ..core.reports import TagReport
from ..core.verifier import Verifier
from ..netmodel.packet import Header
from ..netmodel.rules import DROP_PORT
from ..topologies.base import Scenario

__all__ = [
    "VerificationTimingResult",
    "measure_verification_time",
    "measure_vector_verification_time",
    "check_fastpath_parity",
    "check_vector_wire_parity",
    "wire_payloads_from_table",
    "UpdateTimingResult",
    "measure_update_times",
]


@dataclass
class VerificationTimingResult:
    """Per-report verification latency statistics (Figure 13)."""

    label: str
    reports: int
    repeats: int
    mean_us: float
    median_us: float
    p99_us: float
    throughput_per_s: float

    def __str__(self) -> str:
        return (
            f"{self.label}: {self.reports} reports x {self.repeats} repeats, "
            f"mean {self.mean_us:.2f} us, median {self.median_us:.2f} us, "
            f"p99 {self.p99_us:.2f} us, {self.throughput_per_s:,.0f} verifs/s"
        )


def reports_from_table(
    builder: PathTableBuilder, table: PathTable, limit: Optional[int] = None
) -> List[TagReport]:
    """One well-formed tag report per deliverable path in the table.

    This mirrors the paper's Figure 13 setup: "for each topology, we
    generate a test packet for each path in the path table ... and collect
    the tag reports".
    """
    hs = builder.hs
    reports: List[TagReport] = []
    for inport, outport, entry in table.all_entries():
        header = hs.sample_header(entry.headers)
        if header is None:
            continue
        reports.append(
            TagReport(
                inport=inport,
                outport=outport,
                header=Header(**header),
                tag=entry.tag,
            )
        )
        if limit is not None and len(reports) >= limit:
            break
    return reports


def measure_verification_time(
    builder: PathTableBuilder,
    table: PathTable,
    label: str,
    repeats: int = 100,
    report_limit: Optional[int] = None,
    fast_path: bool = True,
    flow_cache: bool = True,
) -> VerificationTimingResult:
    """Average per-report verification latency over the whole table.

    ``fast_path=False`` times the paper-literal recursive-BDD scan (the
    reference the fast path is checked against); ``flow_cache=False`` times
    the fast path with caching disabled, isolating the matcher's
    contribution.  Statistics are routed through
    :meth:`Verifier.verify_batch`, so the per-verification cost excludes
    per-report clock reads and result allocation.
    """
    if repeats <= 0:
        raise ValueError(f"repeats must be positive, got {repeats}")
    reports = reports_from_table(builder, table, limit=report_limit)
    if not reports:
        raise ValueError("path table produced no reports to verify")
    if fast_path:
        table.compile_matchers(builder.hs)
    verifier = Verifier(
        table,
        builder.hs,
        fast_path=fast_path,
        flow_cache_size=8192 if flow_cache else 0,
    )
    per_report_us: List[float] = []
    for report in reports:
        batch = verifier.verify_batch([report] * repeats)
        per_report_us.append(batch.elapsed_s / repeats * 1e6)
    mean_us = statistics.fmean(per_report_us)
    ranked = sorted(per_report_us)
    return VerificationTimingResult(
        label=label,
        reports=len(reports),
        repeats=repeats,
        mean_us=mean_us,
        median_us=ranked[len(ranked) // 2],
        p99_us=ranked[min(len(ranked) - 1, int(0.99 * len(ranked)))],
        throughput_per_s=1e6 / mean_us if mean_us else 0.0,
    )


def wire_payloads_from_table(
    builder: PathTableBuilder, table: PathTable, tamper: bool = True
):
    """Wire report payloads for every table path, plus a codec to decode.

    With ``tamper=True`` the healthy payloads are followed by mutated
    copies — flipped tags, swapped port pairs, rewritten header bytes — so
    verification sweeps exercise every verdict class, not just PASS.
    """
    from ..core.reports import PortCodec, pack_report

    codec = PortCodec()
    for inport, outport in table.pairs():
        codec.register(inport.switch)
        codec.register(outport.switch)
    reports = reports_from_table(builder, table)
    payloads = [pack_report(report, codec) for report in reports]
    if tamper:
        for payload in list(payloads):
            bad_tag = bytearray(payload)
            bad_tag[13] ^= 0x5A  # last tag byte: guaranteed tag mismatch
            payloads.append(bytes(bad_tag))
            bad_pair = bytearray(payload)
            bad_pair[2:4], bad_pair[4:6] = payload[4:6], payload[2:4]
            payloads.append(bytes(bad_pair))
            bad_header = bytearray(payload)
            bad_header[14:18] = b"\xde\xad\xbe\xef"  # reroute src_ip
            payloads.append(bytes(bad_header))
    return payloads, codec


def measure_vector_verification_time(
    builder: PathTableBuilder,
    table: PathTable,
    label: str,
    batch_rows: int = 32768,
    repeats: int = 5,
) -> VerificationTimingResult:
    """Wire-level vector-kernel throughput (the Figure 13 ``vector`` row).

    Replays the fig13 report set as wire payloads through a single shard
    replica compiled into the :class:`~repro.core.vector.WireBatchVerifier`
    — the exact code path a sharded-daemon worker runs per dispatch batch.
    One warm-up batch pays kernel compilation; each repeat then verifies a
    ``batch_rows``-payload batch and the statistics are per-report times
    across repeats.
    """
    from ..core import vector as vec
    from ..core.replica import build_shard_specs, wire_packing

    if not vec.HAVE_NUMPY:
        raise RuntimeError("the vector timing harness requires numpy")
    if batch_rows <= 0 or repeats <= 0:
        raise ValueError("batch_rows and repeats must be positive")
    hs = builder.hs
    table.compile_matchers(hs)
    payloads, codec = wire_payloads_from_table(builder, table, tamper=False)
    if not payloads:
        raise ValueError("path table produced no reports to verify")
    pairs = build_shard_specs(table, hs, codec, 1)[0]
    wirev = vec.WireBatchVerifier(pairs, wire_packing(hs.layout))
    batch = (payloads * (batch_rows // len(payloads) + 1))[:batch_rows]
    frame = b"".join(batch)  # daemon dispatch ships one concatenated frame
    wirev.verify_frame(frame)  # warm-up: compiles every pair kernel
    per_report_us: List[float] = []
    import time as _time

    for _ in range(repeats):
        started = _time.perf_counter()
        wirev.verify_frame(frame)
        per_report_us.append((_time.perf_counter() - started) / batch_rows * 1e6)
    mean_us = statistics.fmean(per_report_us)
    ranked = sorted(per_report_us)
    return VerificationTimingResult(
        label=label,
        reports=len(payloads),
        repeats=repeats,
        mean_us=mean_us,
        median_us=ranked[len(ranked) // 2],
        p99_us=ranked[min(len(ranked) - 1, int(0.99 * len(ranked)))],
        throughput_per_s=1e6 / mean_us if mean_us else 0.0,
    )


def check_vector_wire_parity(
    builder: PathTableBuilder,
    table: PathTable,
    payloads: Optional[Sequence[bytes]] = None,
) -> List[Tuple[bytes, str, str]]:
    """Compare the wire vector kernel against ``_verify_wire`` per payload.

    ``_verify_wire`` is the replica's scalar matcher, the same
    :func:`~repro.core.pathtable.match_pair` the fast ``Verifier`` runs.
    Returns mismatches as ``(payload, vector_verdict, scalar_verdict)``;
    an empty list certifies verdict parity on this payload set (tampered
    and malformed payloads included when the default set is used).  The
    kernel is also checked against itself, frame API against list API.
    Rows the kernel hands back as ``VSCALAR`` (irregular pairs) are
    skipped: the replica verifies them with ``_verify_wire`` itself.
    """
    from ..core import vector as vec
    from ..core.replica import _verify_wire, build_shard_specs, wire_packing

    if not vec.HAVE_NUMPY:
        return []
    hs = builder.hs
    table.compile_matchers(hs)
    if payloads is None:
        payloads, codec = wire_payloads_from_table(builder, table, tamper=True)
        payloads = list(payloads)
        payloads.append(payloads[0][:11])  # truncated
        bad_version = bytearray(payloads[0])
        bad_version[0] = 99
        payloads.append(bytes(bad_version))
    else:
        _, codec = wire_payloads_from_table(builder, table, tamper=False)
    pairs = build_shard_specs(table, hs, codec, 1)[0]
    packing = wire_packing(hs.layout)
    wirev = vec.WireBatchVerifier(pairs, packing)
    codes = wirev.verify(list(payloads)).tolist()
    sized = [p for p in payloads if len(p) == wirev.report_size]
    if sized:
        frame_codes = wirev.verify_frame(b"".join(sized)).tolist()
        list_codes = wirev.verify(sized).tolist()
        if frame_codes != list_codes:
            for payload, fcode, lcode in zip(sized, frame_codes, list_codes):
                if fcode != lcode:
                    mismatch = (payload, f"frame-code-{fcode}", f"list-code-{lcode}")
                    return [mismatch]
    value_of = {
        vec.VPASS: "pass",
        vec.VMISMATCH: "fail-tag-mismatch",
        vec.VNOPATH: "fail-no-path",
        vec.VUNKNOWN: "fail-unknown-pair",
        vec.VMALFORMED: "malformed",
    }
    mismatches: List[Tuple[bytes, str, str]] = []
    for payload, code in zip(payloads, codes):
        scalar = _verify_wire(pairs, packing, payload)
        scalar_value = "malformed" if scalar is None else scalar
        if code == vec.VSCALAR:
            continue  # the kernel defers to the scalar path: parity by construction
        vector_value = value_of.get(code, f"code-{code}")
        if vector_value != scalar_value:
            mismatches.append((payload, vector_value, scalar_value))
    return mismatches


def check_fastpath_parity(
    builder: PathTableBuilder,
    table: PathTable,
    reports: Sequence[TagReport],
) -> List[Tuple[TagReport, str, str]]:
    """Compare fast-path and slow-path verdicts report by report.

    Returns the mismatches as ``(report, fast_verdict, slow_verdict)``
    tuples — an empty list certifies that the fast path (flow cache plus
    :func:`~repro.core.pathtable.match_pair`) is verdict-identical to the
    recursive-BDD reference on this report set.
    """
    fast = Verifier(table, builder.hs, fast_path=True)
    slow = Verifier(table, builder.hs, fast_path=False)
    mismatches: List[Tuple[TagReport, str, str]] = []
    for report in reports:
        fast_result = fast.verify(report)
        slow_result = slow.verify(report)
        if (
            fast_result.verdict is not slow_result.verdict
            or fast_result.matched_entry is not slow_result.matched_entry
        ):
            mismatches.append(
                (report, fast_result.verdict.value, slow_result.verdict.value)
            )
    return mismatches


@dataclass
class UpdateTimingResult:
    """Per-rule incremental update times (Figure 14)."""

    label: str
    times_ms: List[float] = field(default_factory=list)

    @property
    def mean_ms(self) -> float:
        """Average update time."""
        return statistics.fmean(self.times_ms) if self.times_ms else 0.0

    @property
    def max_ms(self) -> float:
        """Worst-case update time."""
        return max(self.times_ms) if self.times_ms else 0.0

    def fraction_under(self, threshold_ms: float) -> float:
        """Fraction of updates faster than ``threshold_ms`` (paper: 10 ms)."""
        if not self.times_ms:
            return 0.0
        return sum(t < threshold_ms for t in self.times_ms) / len(self.times_ms)

    def __str__(self) -> str:
        return (
            f"{self.label}: {len(self.times_ms)} updates, mean "
            f"{self.mean_ms:.2f} ms, max {self.max_ms:.2f} ms, "
            f"{100 * self.fraction_under(10.0):.1f}% under 10 ms"
        )


def measure_update_times(
    scenario: Scenario,
    ruleset: Dict[str, List[Tuple[str, int]]],
    target_switch: str,
    label: Optional[str] = None,
) -> Tuple[UpdateTimingResult, IncrementalPathTable]:
    """The Figure 14 protocol on an LPM scenario.

    Rules of every switch except ``target_switch`` are installed first (and
    folded into the initial path-table build); then the target's rules are
    added one at a time through the incremental updater, timing each.
    Returns the timing series and the live incremental table (so callers can
    cross-check it against a full rebuild).
    """
    if target_switch not in ruleset:
        raise KeyError(f"{target_switch!r} has no rules in the ruleset")
    hs_topo = scenario.topo
    from ..bdd.headerspace import HeaderSpace

    hs = HeaderSpace()
    provider = LpmProvider(hs_topo, hs)
    for switch_id, rules in ruleset.items():
        if switch_id == target_switch:
            continue
        for prefix, out_port in rules:
            provider.add_rule(switch_id, prefix, out_port)
    inc = IncrementalPathTable(hs_topo, hs, provider=provider)

    result = UpdateTimingResult(label=label or f"{hs_topo.name}/{target_switch}")
    for prefix, out_port in ruleset[target_switch]:
        elapsed = inc.add_rule(target_switch, prefix, out_port)
        result.times_ms.append(elapsed * 1e3)
    return result, inc
