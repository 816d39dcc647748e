"""A reachability-probing baseline in the style of ATPG [57].

ATPG generates a minimal set of probe packets that exercises every rule and
checks that each probe is *received* where expected.  Crucially it inspects
only reception, not the path taken — the limitation the paper's Section 3.1
and Section 7 dwell on: a probe that arrives via the wrong route (waypoint
bypassed, TE split collapsed) still counts as a pass.

Implementation notes:

* probe generation derives one *representative* header per deliverable
  path-table entry (:func:`repro.probe.headers.representative_header`, the
  same deterministic cube-extraction the active prober uses), then greedily
  drops probes that add no new hop coverage — a faithful miniature of
  ATPG's rule-covering test packet selection,
* :meth:`AtpgProber.run` injects every probe and compares only the
  delivery status and exit port against expectation.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import List, Set, Tuple

from ..core.pathtable import PathTable, PathTableBuilder
from ..dataplane.network import DataPlaneNetwork, DeliveryStatus
from ..netmodel.hops import Hop
from ..netmodel.packet import Header
from ..netmodel.rules import DROP_PORT
from ..netmodel.topology import PortRef

__all__ = ["Probe", "AtpgProber", "AtpgReport"]


@dataclass(frozen=True)
class Probe:
    """One test packet: where it enters and where it must come out."""

    entry: PortRef
    header: Header
    expected_exit: PortRef
    covers: Tuple[Hop, ...]


@dataclass
class AtpgReport:
    """Outcome of one probing round."""

    sent: int = 0
    passed: int = 0
    failures: List[Probe] = field(default_factory=list)

    @property
    def detected_fault(self) -> bool:
        """ATPG's verdict: did any probe miss its expected exit?"""
        return bool(self.failures)

    def __str__(self) -> str:
        return f"ATPG: {self.passed}/{self.sent} probes passed"


class AtpgProber:
    """Generate and run reachability probes against a data plane."""

    def __init__(self, builder: PathTableBuilder, table: PathTable) -> None:
        self.builder = builder
        self.table = table
        self.generation_time_s = 0.0
        self.probes: List[Probe] = self._generate()

    def _generate(self) -> List[Probe]:
        """Greedy hop-covering probe selection from the path table."""
        from ..probe.headers import representative_header

        started = time.perf_counter()
        hs = self.builder.hs
        candidates: List[Probe] = []
        for inport, outport, entry in self.table.all_entries():
            if outport.port == DROP_PORT:
                continue  # ATPG probes test reachability, not drops
            header = representative_header(hs, entry.headers)
            if header is None:
                continue
            candidates.append(
                Probe(
                    entry=inport,
                    header=Header(**header),
                    expected_exit=outport,
                    covers=entry.hops,
                )
            )
        # Greedy set cover over hops: prefer probes covering more new hops.
        candidates.sort(key=lambda p: len(p.covers), reverse=True)
        covered: Set[Hop] = set()
        probes: List[Probe] = []
        for probe in candidates:
            new_hops = set(probe.covers) - covered
            if new_hops:
                probes.append(probe)
                covered |= new_hops
        self.generation_time_s = time.perf_counter() - started
        return probes

    def run(self, net: DataPlaneNetwork) -> AtpgReport:
        """Inject all probes; check reception only (ATPG's test)."""
        report = AtpgReport()
        for probe in self.probes:
            report.sent += 1
            result = net.inject(probe.entry, probe.header)
            received_ok = (
                result.status == DeliveryStatus.DELIVERED
                and result.exit_port == probe.expected_exit
            )
            if received_ok:
                report.passed += 1
            else:
                report.failures.append(probe)
        return report
