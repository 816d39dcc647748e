"""Localization-accuracy campaigns — the Table 3 experiment.

Methodology (Section 6.3, "Localization accuracy"): per trial, pick a random
forwarding rule on a random switch and rewrite its output port; let every
host ping every other host; verify all tag reports; for every *failed*
verification run ``PathInfer`` and check whether the packet's actual path is
among the recovered candidates.  The localization probability is
``recovered / failed`` aggregated over trials — the paper reports 99.2% for
fat tree k=4 and 96.6% for k=6.

The campaign also tracks *blame accuracy* (is the genuinely faulty switch
among the blamed ones?), which the paper's headline "localize faulty
switches with a probability as high as 96%" refers to, and supports the
strawman localizer for the ablation benchmark.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Optional

from ..core.localization import PathInferLocalizer, StrawmanLocalizer
from ..core.server import VeriDPServer
from ..dataplane.faults import random_misforward_fault
from ..dataplane.network import DataPlaneNetwork
from ..netmodel.rules import FlowRule
from ..topologies.base import Scenario

__all__ = ["CampaignResult", "run_localization_campaign"]


@dataclass
class CampaignResult:
    """Aggregated Table 3 row."""

    label: str
    trials: int
    failed_verifications: int = 0
    recovered_paths: int = 0
    correct_blames: int = 0
    faults_exercised: int = 0

    @property
    def localization_probability(self) -> float:
        """``# recovered paths / # failed verifications`` (Table 3's metric)."""
        if self.failed_verifications == 0:
            return 0.0
        return self.recovered_paths / self.failed_verifications

    @property
    def blame_accuracy(self) -> float:
        """Fraction of failures where the truly faulty switch was blamed."""
        if self.failed_verifications == 0:
            return 0.0
        return self.correct_blames / self.failed_verifications

    def __str__(self) -> str:
        return (
            f"{self.label}: {self.failed_verifications} failed verifs, "
            f"{self.recovered_paths} recovered "
            f"({100 * self.localization_probability:.1f}%), "
            f"blame accuracy {100 * self.blame_accuracy:.1f}%"
        )


def run_localization_campaign(
    scenario: Scenario,
    trials: int = 10,
    seed: int = 0,
    label: Optional[str] = None,
    use_strawman: bool = False,
    pair_limit: Optional[int] = None,
) -> CampaignResult:
    """Run the Table 3 campaign on an already-built scenario.

    Each trial injects one random mis-forwarding fault, runs the all-pairs
    ping workload, localizes every verification failure, then restores the
    rule.  ``pair_limit`` caps the pings per trial (None = all pairs).
    """
    if trials <= 0:
        raise ValueError(f"trials must be positive, got {trials}")
    rng = random.Random(seed)
    server = VeriDPServer(scenario.topo, scenario.channel, localize_failures=False)
    net = DataPlaneNetwork(scenario.topo, scenario.channel)
    localizer_obj = (
        StrawmanLocalizer(server.builder, server.scheme)
        if use_strawman
        else PathInferLocalizer(server.builder, server.scheme, scenario.topo)
    )
    result = CampaignResult(
        label=label or scenario.topo.name, trials=trials
    )
    pairs = scenario.host_pairs()

    for _ in range(trials):
        fault = random_misforward_fault(net, rng)
        if fault is None:
            continue
        result.faults_exercised += 1
        original: FlowRule = scenario.topo.switch(fault.switch_id).flow_table.get(
            fault.rule_id
        )
        trial_pairs = pairs
        if pair_limit is not None and pair_limit < len(pairs):
            trial_pairs = rng.sample(pairs, pair_limit)
        for src, dst in trial_pairs:
            delivery = net.inject_from_host(
                src, scenario.header_between(src, dst)
            )
            for report in delivery.reports:
                verification = server.verifier.verify(report)
                if verification.passed:
                    continue
                result.failed_verifications += 1
                localization = localizer_obj.localize(report)
                recovered = localization.contains_path(delivery.hops) or (
                    report.ttl_expired
                    and localization.contains_prefix_of(delivery.hops)
                )
                if recovered:
                    result.recovered_paths += 1
                if fault.switch_id in localization.blamed_switches():
                    result.correct_blames += 1
        # Restore the data plane for the next trial.
        net.switch(fault.switch_id).install(original)
    return result


@dataclass
class MultiFaultResult:
    """Localization quality as simultaneous faults accumulate."""

    num_faults: int
    trials: int
    failed_verifications: int = 0
    recovered_paths: int = 0
    any_fault_blamed: int = 0

    @property
    def localization_probability(self) -> float:
        """Recovered real paths over failed verifications."""
        if self.failed_verifications == 0:
            return 0.0
        return self.recovered_paths / self.failed_verifications

    @property
    def blame_hit_rate(self) -> float:
        """How often at least one genuinely faulty switch is blamed."""
        if self.failed_verifications == 0:
            return 0.0
        return self.any_fault_blamed / self.failed_verifications

    def __str__(self) -> str:
        return (
            f"{self.num_faults} faults: {self.failed_verifications} failures, "
            f"recovery {100 * self.localization_probability:.1f}%, "
            f"blame hits {100 * self.blame_hit_rate:.1f}%"
        )


def run_multi_fault_campaign(
    scenario: Scenario,
    num_faults: int,
    trials: int = 5,
    seed: int = 0,
) -> MultiFaultResult:
    """Algorithm 4 under ``num_faults`` *simultaneous* mis-forwardings.

    The paper's localization leans on "most switches in the network are
    functioning well except some faulty ones": PathInfer chases downstream
    flow tables assuming they are healthy.  With several concurrent faults
    that assumption erodes — this campaign measures how gracefully.
    Faults are placed on distinct switches per trial.
    """
    if num_faults <= 0 or trials <= 0:
        raise ValueError("num_faults and trials must be positive")
    rng = random.Random(seed)
    server = VeriDPServer(scenario.topo, scenario.channel, localize_failures=False)
    net = DataPlaneNetwork(scenario.topo, scenario.channel)
    localizer = PathInferLocalizer(server.builder, server.scheme, scenario.topo)
    result = MultiFaultResult(num_faults=num_faults, trials=trials)
    pairs = scenario.host_pairs()

    for _ in range(trials):
        originals = []
        faulty_switches = set()
        attempts = 0
        while len(originals) < num_faults and attempts < 50 * num_faults:
            attempts += 1
            fault = random_misforward_fault(
                net,
                rng,
                switch_ids=[
                    s for s in sorted(net.switches) if s not in faulty_switches
                ],
            )
            if fault is None:
                break
            originals.append(
                (fault.switch_id,
                 scenario.topo.switch(fault.switch_id).flow_table.get(fault.rule_id))
            )
            faulty_switches.add(fault.switch_id)
        for src, dst in pairs:
            delivery = net.inject_from_host(src, scenario.header_between(src, dst))
            for report in delivery.reports:
                verification = server.verifier.verify(report)
                if verification.passed:
                    continue
                result.failed_verifications += 1
                localization = localizer.localize(report)
                recovered = localization.contains_path(delivery.hops) or (
                    report.ttl_expired
                    and localization.contains_prefix_of(delivery.hops)
                )
                if recovered:
                    result.recovered_paths += 1
                if faulty_switches & set(localization.blamed_switches()):
                    result.any_fault_blamed += 1
        for switch_id, original in originals:
            net.switch(switch_id).install(original)
    return result
