"""A rule-presence probing baseline in the style of Monocle [41].

Monocle checks whether a specific rule is installed in a switch's flow
table by crafting a probe that (a) matches the rule under test and (b) is
guaranteed *not* to be claimed by any other rule of the switch, then
observing which port the probe leaves on.  Probe *generation* is the hard
part — the published system needs ~43 seconds for 10K rules — and is what
prevents Monocle from tracking fast rule churn (the paper's §3.1 critique).

Our generator does the same work with BDDs: for rule ``R`` it computes::

    exclusive(R) = match(R) ∧ ¬(∨ higher-priority matches)
                            ∧ ¬(∨ overlapping same/lower-priority matches)

and samples a concrete header from it.  Rules whose exclusive set is empty
are *untestable* (fully shadowed), which Monocle reports as well.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import List, Optional

from ..bdd.headerspace import HeaderSpace
from ..dataplane.switch import DataPlaneSwitch
from ..netmodel.packet import Header
from ..netmodel.rules import DROP_PORT, FlowTable

__all__ = ["RuleProbe", "MonocleProber", "MonocleReport"]


@dataclass(frozen=True)
class RuleProbe:
    """A probe pinned to exactly one rule of one switch."""

    switch_id: str
    rule_id: int
    header: Header
    in_port: int
    expected_port: int


@dataclass
class MonocleReport:
    """Outcome of probing one switch's table."""

    tested: int = 0
    confirmed: int = 0
    missing_or_modified: List[RuleProbe] = field(default_factory=list)
    untestable_rules: List[int] = field(default_factory=list)

    @property
    def detected_fault(self) -> bool:
        """Monocle's verdict for this switch."""
        return bool(self.missing_or_modified)

    def __str__(self) -> str:
        return (
            f"Monocle: {self.confirmed}/{self.tested} rules confirmed, "
            f"{len(self.untestable_rules)} untestable"
        )


class MonocleProber:
    """Generate per-rule probes for one switch and execute them."""

    def __init__(
        self,
        switch_id: str,
        table: FlowTable,
        hs: Optional[HeaderSpace] = None,
        probe_in_port: int = 1,
    ) -> None:
        self.switch_id = switch_id
        self.hs = hs or HeaderSpace()
        self.probe_in_port = probe_in_port
        self.generation_time_s = 0.0
        self.untestable: List[int] = []
        self.probes: List[RuleProbe] = self._generate(table)

    def _generate(self, table: FlowTable) -> List[RuleProbe]:
        started = time.perf_counter()
        hs = self.hs
        bdd = hs.bdd
        rules = [
            r
            for r in table.sorted_rules()
            if r.match.in_port is None or r.match.in_port == self.probe_in_port
        ]
        skipped = {
            r.rule_id
            for r in table.sorted_rules()
            if r.match.in_port is not None and r.match.in_port != self.probe_in_port
        }
        self.untestable.extend(sorted(skipped))
        match_bdds = [r.match.to_bdd(hs) for r in rules]
        probes: List[RuleProbe] = []
        for index, rule in enumerate(rules):
            # 1. The probe must actually trigger this rule: subtract every
            #    higher-precedence match.
            exclusive = match_bdds[index]
            for higher in range(index):
                exclusive = bdd.diff(exclusive, match_bdds[higher])
                if exclusive == hs.empty:
                    break
            if exclusive == hs.empty:
                self.untestable.append(rule.rule_id)  # fully shadowed
                continue
            # 2. The probe must be *distinguishing*: if this rule were
            #    absent, the switch must output it somewhere else.  Resolve
            #    where the exclusive region falls through to.
            distinguishable = hs.empty
            remaining = exclusive
            for lower in range(index + 1, len(rules)):
                claimed = bdd.and_(remaining, match_bdds[lower])
                if claimed != hs.empty:
                    if rules[lower].output_port() != rule.output_port():
                        distinguishable = bdd.or_(distinguishable, claimed)
                    remaining = bdd.diff(remaining, claimed)
                    if remaining == hs.empty:
                        break
            # Fall-through to table miss (DROP) is distinguishing unless
            # the rule itself drops.
            if rule.output_port() != DROP_PORT:
                distinguishable = bdd.or_(distinguishable, remaining)
            if distinguishable == hs.empty:
                self.untestable.append(rule.rule_id)
                continue
            header = hs.sample_header(distinguishable)
            probes.append(
                RuleProbe(
                    switch_id=self.switch_id,
                    rule_id=rule.rule_id,
                    header=Header(**header),
                    in_port=self.probe_in_port,
                    expected_port=rule.output_port(),
                )
            )
        self.generation_time_s = time.perf_counter() - started
        return probes

    def run(self, switch: DataPlaneSwitch) -> MonocleReport:
        """Fire every probe at the (physical) switch and compare egress."""
        report = MonocleReport(untestable_rules=list(self.untestable))
        for probe in self.probes:
            report.tested += 1
            actual = switch.forward(probe.header, probe.in_port)
            if actual == probe.expected_port:
                report.confirmed += 1
            else:
                report.missing_or_modified.append(probe)
        return report
