"""Fault-class fuzzing: detection rates across the whole §2.2 taxonomy.

The paper evaluates detection on one fault shape (rewired output ports).
This campaign fuzzes *every* modelled fault class — silent install drops,
out-of-band deletes/modifies/insertions, priority-ignoring lookups, and
hardware death — against live traffic, and reports per class:

* how often the fault was even **exercised** (traffic crossed it),
* how often it was **detected** (a failed verification), and
* how often the faulty switch was **blamed**.

It also reports the structurally expected blind spots: a dead switch emits
no report (the paper's §3.3 limitation), and an unexercised fault is
invisible to any passive monitor — the quantified version of the paper's
scoping statements.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Tuple

from ..core.server import VeriDPServer
from ..dataplane.faults import (
    DeleteRule,
    Fault,
    IgnorePriorities,
    InjectRule,
    KillSwitch,
    ModifyRuleOutput,
)
from ..dataplane.network import DataPlaneNetwork, DeliveryStatus
from ..netmodel.rules import FlowRule, Forward, Match
from ..topologies.base import Scenario

__all__ = ["FaultClassStats", "FuzzReport", "run_fault_fuzz"]


@dataclass
class FaultClassStats:
    """Aggregated outcomes for one fault class."""

    fault_class: str
    trials: int = 0
    exercised: int = 0  # traffic behaviour actually changed
    detected: int = 0  # at least one failed verification
    blamed_correctly: int = 0
    silent_losses: int = 0  # packets vanished with no report

    @property
    def detection_rate(self) -> float:
        """Detected over *exercised* trials (unexercised faults are
        invisible to any passive monitor by definition)."""
        return self.detected / self.exercised if self.exercised else 0.0

    @property
    def blame_rate(self) -> float:
        """Correct blame over detected trials."""
        return self.blamed_correctly / self.detected if self.detected else 0.0

    def __str__(self) -> str:
        return (
            f"{self.fault_class}: {self.exercised}/{self.trials} exercised, "
            f"detection {100 * self.detection_rate:.0f}%, "
            f"blame {100 * self.blame_rate:.0f}%"
        )


@dataclass
class FuzzReport:
    """All fault classes' stats for one campaign."""

    per_class: Dict[str, FaultClassStats] = field(default_factory=dict)

    def rows(self) -> List[Tuple]:
        """Bench-table rows, sorted by class name."""
        return [
            (
                s.fault_class,
                s.trials,
                s.exercised,
                s.detected,
                f"{100 * s.detection_rate:.0f}%",
                f"{100 * s.blame_rate:.0f}%",
                s.silent_losses,
            )
            for _, s in sorted(self.per_class.items())
        ]


def _pick_used_rule(scenario, net, rng):
    """A (switch, rule, in_port) actually on some flow's path."""
    pairs = scenario.host_pairs()
    for _ in range(20):
        src, dst = rng.choice(pairs)
        header = scenario.header_between(src, dst)
        probe = net.inject_from_host(src, header)
        if len(probe.hops) < 2:
            continue
        hop = rng.choice(probe.hops)
        rule = net.switch(hop.switch).table.lookup(header, hop.in_port)
        if rule is not None:
            return hop.switch, rule
    raise RuntimeError("could not find a used rule; topology too sparse?")


def _make_fault(kind: str, scenario, net, rng) -> Tuple[Fault, str]:
    """Instantiate one fault of the given class on a *used* rule/switch."""
    switch_id, rule = _pick_used_rule(scenario, net, rng)
    if kind == "modify-output":
        ports = sorted(net.switch(switch_id).ports - {rule.output_port()})
        return ModifyRuleOutput(switch_id, rule.rule_id, rng.choice(ports)), switch_id
    if kind == "delete-rule":
        return DeleteRule(switch_id, rule.rule_id), switch_id
    if kind == "inject-shadow":
        ports = sorted(net.switch(switch_id).ports - {rule.output_port()})
        shadow = FlowRule(
            rule.priority + 1000, rule.match, Forward(rng.choice(ports))
        )
        return InjectRule(switch_id, shadow), switch_id
    if kind == "ignore-priority":
        # Give the priority bug something to bite on: a broad low-priority
        # rule underneath the used one.
        ports = sorted(net.switch(switch_id).ports - {rule.output_port()})
        net.switch(switch_id).external_insert(
            FlowRule(1, Match(), Forward(rng.choice(ports)),
                     table_id=rule.table_id)
        )
        return IgnorePriorities(switch_id), switch_id
    if kind == "kill-switch":
        return KillSwitch(switch_id), switch_id
    raise ValueError(kind)


FAULT_KINDS = (
    "modify-output",
    "delete-rule",
    "inject-shadow",
    "ignore-priority",
    "kill-switch",
)


def run_fault_fuzz(
    scenario_factory: Callable[[], Scenario],
    trials_per_class: int = 5,
    seed: int = 0,
) -> FuzzReport:
    """Run the campaign: fresh network per trial, one fault, all-pairs traffic."""
    if trials_per_class <= 0:
        raise ValueError("trials_per_class must be positive")
    rng = random.Random(seed)
    report = FuzzReport()
    for kind in FAULT_KINDS:
        stats = FaultClassStats(fault_class=kind, trials=trials_per_class)
        report.per_class[kind] = stats
        for _ in range(trials_per_class):
            scenario = scenario_factory()
            server = VeriDPServer(scenario.topo, scenario.channel)
            net = DataPlaneNetwork(
                scenario.topo, scenario.channel,
                report_sink=server.receive_report_bytes,
            )
            baseline = {}
            for src, dst in scenario.host_pairs():
                result = net.inject_from_host(src, scenario.header_between(src, dst))
                baseline[(src, dst)] = tuple(result.hops)
            server.drain_incidents()

            fault, faulty_switch = _make_fault(kind, scenario, net, rng)
            server.drain_incidents()  # discard rule-picking probes
            fault.apply(net)

            exercised = False
            for src, dst in scenario.host_pairs():
                result = net.inject_from_host(src, scenario.header_between(src, dst))
                if tuple(result.hops) != baseline[(src, dst)]:
                    exercised = True
                if result.status == DeliveryStatus.LOST:
                    exercised = True
                    stats.silent_losses += 1
            incidents = server.drain_incidents()
            if exercised:
                stats.exercised += 1
                if incidents:
                    stats.detected += 1
                    if any(faulty_switch in i.blamed_switches for i in incidents):
                        stats.blamed_correctly += 1
    return report
