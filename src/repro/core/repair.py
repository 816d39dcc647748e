"""Automatic flow-table repair — the paper's future work #2.

The conclusion names "designing a method that can automatically repair the
flow table of a faulty switch, in order to resolve the inconsistency with
minimal human interaction".  This module implements a pragmatic escalation
ladder driven entirely by VeriDP's own outputs:

1. **Targeted re-push** — for each switch Algorithm 4 blamed, re-issue the
   logical rule that should have forwarded the failing header at the
   deviating hop (a FlowMod MODIFY).  Fixes silently-dropped installs,
   out-of-band deletions and output rewrites.
2. **Table resync** — flush the blamed switch and re-install its whole
   logical table.  Additionally displaces foreign rules the controller
   never sent (which a targeted re-push cannot remove).
3. **Escalate to the operator** — if a verification probe still fails, the
   fault is not a table-content problem (dead hardware, priority-ignoring
   lookup logic); the engine reports it unrepairable.

Each step is validated by re-injecting the failing packet and verifying its
fresh tag report, so a repair is only ever claimed when VeriDP itself
passes the flow again.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, List, Optional

from ..netmodel.packet import Header
from ..netmodel.rules import FlowRule
from ..netmodel.topology import PortRef
from .server import Incident, VeriDPServer

if TYPE_CHECKING:  # import kept type-only: controlplane imports repro.core
    from ..controlplane.controller import Controller

__all__ = ["RepairOutcome", "RepairAction", "RepairResult", "RepairEngine"]


class RepairOutcome(enum.Enum):
    """Terminal states of one repair attempt."""

    FIXED_BY_REISSUE = "fixed-by-reissue"
    FIXED_BY_RESYNC = "fixed-by-resync"
    UNREPAIRABLE = "unrepairable"
    NOTHING_TO_DO = "nothing-to-do"  # the probe already verifies


@dataclass
class RepairAction:
    """One step the engine took (for the operator's audit log)."""

    kind: str  # "reissue" | "resync"
    switch_id: str
    rule_id: Optional[int] = None

    def __str__(self) -> str:
        target = f" rule {self.rule_id}" if self.rule_id is not None else ""
        return f"{self.kind} {self.switch_id}{target}"


@dataclass
class RepairResult:
    """Outcome + audit trail of repairing one incident."""

    outcome: RepairOutcome
    actions: List[RepairAction] = field(default_factory=list)
    probes_sent: int = 0

    def __str__(self) -> str:
        steps = "; ".join(str(a) for a in self.actions) or "(none)"
        return f"repair {self.outcome.value} after [{steps}]"


class RepairEngine:
    """Close the loop: detected incident -> FlowMods -> verified fix."""

    def __init__(
        self,
        controller: "Controller",
        server: VeriDPServer,
        probe: Callable[[PortRef, Header], object],
    ) -> None:
        """``probe(entry_port, header)`` must inject a packet at an edge
        port and cause the resulting tag report(s) to reach ``server`` —
        with :class:`~repro.dataplane.DataPlaneNetwork` wired to the server
        sink, ``net.inject`` is exactly that."""
        self.controller = controller
        self.server = server
        self.probe = probe

    # -- the escalation ladder ----------------------------------------------

    def repair(self, incident: Incident) -> RepairResult:
        """Run the ladder for one incident; returns the audit record."""
        result = RepairResult(outcome=RepairOutcome.UNREPAIRABLE)
        report = incident.verification.report

        if self._probe_passes(report, result):
            result.outcome = RepairOutcome.NOTHING_TO_DO
            return result

        # Step 1: targeted re-push of the rules that should have handled
        # this header on each blamed switch (the whole goto chain for
        # multi-table pipelines).
        reissued_any = False
        for switch_id in self._suspects(incident):
            for rule in self._responsible_rules(switch_id, incident):
                self.controller.reissue(switch_id, rule.rule_id)
                result.actions.append(
                    RepairAction("reissue", switch_id, rule.rule_id)
                )
                reissued_any = True
        if reissued_any and self._probe_passes(report, result):
            result.outcome = RepairOutcome.FIXED_BY_REISSUE
            return result

        # Step 2: full resync of every suspect switch.
        for switch_id in self._suspects(incident):
            self.controller.resync_switch(switch_id)
            result.actions.append(RepairAction("resync", switch_id))
        if result.actions and self._probe_passes(report, result):
            result.outcome = RepairOutcome.FIXED_BY_RESYNC
            return result

        result.outcome = RepairOutcome.UNREPAIRABLE
        return result

    # -- helpers ---------------------------------------------------------

    def _suspects(self, incident: Incident) -> List[str]:
        """Blamed switches, falling back to the reporting switch."""
        suspects = incident.blamed_switches
        if suspects:
            return suspects
        # Unlocalized failure: the reporting (exit/drop) switch is the only
        # concrete lead the server has.
        return [incident.verification.report.outport.switch]

    def _responsible_rules(
        self, switch_id: str, incident: Incident
    ) -> List[FlowRule]:
        """The logical rules that should have handled the failing packet at
        the blamed switch — the whole lookup chain across pipeline tables,
        looked up on the deviating hop's ingress."""
        from ..netmodel.rules import GotoTable

        report = incident.verification.report
        in_port = None
        if incident.localization is not None:
            for candidate in incident.localization.candidates:
                for hop in candidate.hops:
                    if hop.switch == switch_id:
                        in_port = hop.in_port
                        break
                if in_port is not None:
                    break
        table = self.controller.topo.switch(switch_id).flow_table
        chain: List[FlowRule] = []
        header = report.header
        table_id = 0
        while True:
            rule = table.lookup(header, in_port, table_id)
            if rule is None:
                break
            chain.append(rule)
            if isinstance(rule.action, GotoTable):
                sets = rule.action.effective_sets()
                if sets:
                    header = header.with_(**dict(sets))
                if rule.action.table_id <= table_id:
                    break
                table_id = rule.action.table_id
                continue
            break
        return chain

    def _probe_passes(self, report, result: RepairResult) -> bool:
        """Re-inject the failing flow and check the fresh verification.

        Probe-triggered incidents are internal to the repair transaction and
        are absorbed here rather than left in the operator's incident log.
        """
        verified_before = self.server.verifier.verified_count
        incidents_before = len(self.server.incidents)
        self.probe(report.inport, report.header)
        result.probes_sent += 1
        got_report = self.server.verifier.verified_count > verified_before
        probe_incidents = self.server.incidents[incidents_before:]
        del self.server.incidents[incidents_before:]
        # No report at all (e.g. dead switch) is itself a failure signal.
        return got_report and not probe_incidents
