"""Tenant-churn fuzzing: mutate the slice configuration, check isolation.

The state fuzzer (:mod:`repro.probe.fuzz_state`) proves VeriDP detects
*rule-level* control/data divergence.  This campaign targets the fault
class rule-level consistency cannot see: **cross-tenant leaks** — rules
installed identically on both planes (so every tag report verifies PASS)
that nevertheless deliver one tenant's address space at another tenant's
edge port.  Detection belongs to the slice layer's
:class:`~repro.slice.isolation.IsolationVerifier`.

Round kinds:

* **tenant-churn** — consistent in-slice mutation: a tenant's own subnet
  is drop-specialized (ACL-style) on both planes.  Expectation: zero
  isolation incidents, and the incremental recheck scopes itself to the
  dirty pairs and the one victim tenant whose footprint moved (asserted
  via the verifier's change-feed accounting).
* **tenant-leak** — the headline fault: a fresh sub-prefix of victim A's
  subnet is routed, on *both* planes, to offender B's edge port at B's
  edge switch.  Rule-consistent by construction; the isolation verifier
  must flag ``A -> B`` with blame resolving to the injected rule, then a
  heal must clear it.
* **tenant-add-remove** — slice-config churn: re-register the slice map
  with one tenant removed (its rules stay — now unowned, the documented
  blind spot), assert the full re-check stays clean, then restore it.
* **noisy-neighbor** — backpressure isolation: a deterministic flood of
  one tenant's payloads against a :class:`~repro.core.resilience.
  TenantQuotaQueue` must never evict or refuse the quiet tenant's
  payloads, regardless of overflow policy.

:meth:`TenantFuzzReport.reconcile` asserts: every injected leak detected
(100%), with the right tenant pair and the right blamed rule; zero
isolation incidents on consistent rounds; every incremental recheck
scoped to the expected victims; quota held on noisy rounds; and a final
probe sweep converges with a clean rule-level log (the leaks really were
invisible to Algorithm 3).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..bdd.headerspace import format_ipv4, parse_prefix
from ..core.reports import REPORT_SIZE, Frame
from ..core.resilience import OverflowPolicy, TenantQuotaQueue
from ..core.server import VeriDPServer
from ..dataplane.network import DataPlaneNetwork
from ..netmodel.rules import DROP_PORT, Drop, FlowRule, Forward, Match
from ..slice.registry import SliceRegistry, TenantSpec
from ..topologies.base import Scenario, lpm_ruleset_for
from .fuzz_state import FuzzOp, _PRIO_BASE
from .prober import ActiveProber, ProbeBudget

__all__ = [
    "TenantFuzzRound",
    "TenantFuzzReport",
    "TenantFuzzCampaign",
    "run_tenant_fuzz",
]

TENANT_KINDS = (
    "tenant-churn",
    "tenant-leak",
    "tenant-add-remove",
    "noisy-neighbor",
)


@dataclass
class TenantFuzzRound:
    """Ground truth + observed outcome of one tenant-fuzzing round."""

    index: int
    kind: str
    ops: List[FuzzOp] = field(default_factory=list)
    leak: bool = False
    victim: Optional[str] = None  # tenant whose footprint is implicated
    offender: Optional[str] = None  # tenant whose port/flood does the harm
    incidents: int = 0  # isolation incidents raised this round
    detected: bool = False
    pair_ok: bool = False  # incident names the right (victim, offender)
    blamed_ok: bool = False  # blame resolved to the injected rule
    healed_clean: bool = False  # post-heal recheck came back empty
    false_incidents: int = 0  # incidents on consistent state
    victims_ok: bool = True  # recheck victim-scoping matched expectation
    scoped: bool = True  # recheck examined fewer pairs than a full sweep
    table_pairs_checked: int = 0
    tenant_pairs_checked: int = 0
    full_table_pairs: int = 0
    quota_ok: bool = True  # noisy-neighbor: victim payloads untouched
    offender_drops: int = 0


@dataclass
class TenantFuzzReport:
    """The campaign ledger, reconciled against the isolation verifier."""

    seed: int
    tenants: List[str] = field(default_factory=list)
    rounds: List[TenantFuzzRound] = field(default_factory=list)
    final_converged: bool = False
    final_rule_incidents: int = 0
    final_isolation_incidents: int = 0

    @property
    def leak_rounds(self) -> List[TenantFuzzRound]:
        return [r for r in self.rounds if r.leak]

    @property
    def consistent_rounds(self) -> List[TenantFuzzRound]:
        return [r for r in self.rounds if not r.leak]

    @property
    def missed(self) -> List[TenantFuzzRound]:
        """Injected leaks the isolation verifier failed to flag."""
        return [r for r in self.leak_rounds if not r.detected]

    @property
    def false_positives(self) -> List[TenantFuzzRound]:
        """Consistent rounds that nevertheless produced incidents."""
        return [r for r in self.consistent_rounds if r.false_incidents]

    @property
    def detection_rate(self) -> float:
        if not self.leak_rounds:
            return 1.0
        return sum(1 for r in self.leak_rounds if r.detected) / len(
            self.leak_rounds
        )

    @property
    def blame_rate(self) -> float:
        detected = [r for r in self.leak_rounds if r.detected]
        if not detected:
            return 1.0
        return sum(1 for r in detected if r.blamed_ok) / len(detected)

    def reconcile(self) -> "TenantFuzzReport":
        """Assert the ledger's invariants; raises ``AssertionError``."""
        problems: List[str] = []
        for r in self.missed:
            problems.append(
                f"round {r.index}: leak {r.victim}->{r.offender} NOT detected"
            )
        for r in self.leak_rounds:
            if r.detected and not r.pair_ok:
                problems.append(
                    f"round {r.index}: incident named the wrong tenant pair"
                )
            if r.detected and not r.blamed_ok:
                problems.append(
                    f"round {r.index}: blame missed the injected rule"
                )
            if not r.healed_clean:
                problems.append(
                    f"round {r.index}: incident survived the heal"
                )
        for r in self.false_positives:
            problems.append(
                f"round {r.index} ({r.kind}): consistent slice state "
                f"produced {r.false_incidents} incidents (false positives)"
            )
        for r in self.rounds:
            if not r.victims_ok:
                problems.append(
                    f"round {r.index} ({r.kind}): recheck victim scope "
                    f"did not match the change feed"
                )
            if not r.scoped:
                problems.append(
                    f"round {r.index} ({r.kind}): recheck examined "
                    f"{r.table_pairs_checked} pairs, full sweep is "
                    f"{r.full_table_pairs} — not incremental"
                )
            if not r.quota_ok:
                problems.append(
                    f"round {r.index}: noisy neighbor displaced the quiet "
                    f"tenant's payloads"
                )
        if not self.final_converged:
            problems.append("final probe sweep did not re-close coverage")
        if self.final_rule_incidents:
            problems.append(
                f"final sweep raised {self.final_rule_incidents} rule-level "
                f"incidents — leaks were supposed to be rule-consistent"
            )
        if self.final_isolation_incidents:
            problems.append(
                f"{self.final_isolation_incidents} isolation incidents "
                f"outlived the campaign"
            )
        if problems:
            raise AssertionError(
                "tenant-fuzz ledger reconciliation failed:\n  "
                + "\n  ".join(problems)
            )
        return self

    def rows(self) -> List[tuple]:
        """Per-kind summary rows for the bench table."""
        by_kind: Dict[str, List[TenantFuzzRound]] = {}
        for r in self.rounds:
            by_kind.setdefault(r.kind, []).append(r)
        out = []
        for kind in sorted(by_kind):
            rs = by_kind[kind]
            out.append(
                (
                    kind,
                    len(rs),
                    sum(r.incidents for r in rs),
                    sum(1 for r in rs if r.detected),
                    sum(1 for r in rs if r.blamed_ok),
                    sum(r.tenant_pairs_checked for r in rs),
                )
            )
        return out


class TenantFuzzCampaign:
    """Run seeded slice-layer mutations against one live network.

    ``scenario`` must be built with ``install_routes=False`` (the campaign
    owns both planes, like :class:`~repro.probe.fuzz_state.
    StateFuzzCampaign`).  Hosts are partitioned round-robin into
    ``tenant_count`` slices.
    """

    def __init__(
        self,
        scenario: Scenario,
        seed: int = 0,
        tenant_count: int = 2,
        coalesce_ms: float = 25.0,
        probe_budget: Optional[ProbeBudget] = None,
        max_probe_rounds: int = 4,
    ) -> None:
        if scenario.channel.history:
            raise ValueError(
                "scenario already has installed routes; build it with "
                "install_routes=False — the campaign owns both planes"
            )
        hosts = sorted(scenario.subnets)
        if tenant_count < 2 or tenant_count > len(hosts):
            raise ValueError(
                f"need 2..{len(hosts)} tenants, got {tenant_count}"
            )
        self.scenario = scenario
        self.rng = random.Random(seed)
        self.server = VeriDPServer(
            scenario.topo, channel=None, incremental=True, coalesce_ms=coalesce_ms
        )
        self.net = DataPlaneNetwork(scenario.topo, scenario.channel)
        self.prober = ActiveProber(self.server, self.net, budget=probe_budget)
        self.max_probe_rounds = max_probe_rounds
        self._dp_rules: Dict[Tuple[str, str], FlowRule] = {}
        self._ctl_rules: Dict[Tuple[str, str], int] = {}
        self._install_base()
        # Partition hosts round-robin into tenant slices and register them.
        self._specs: Dict[str, TenantSpec] = {}
        assignment: Dict[str, List[str]] = {}
        for i, host in enumerate(hosts):
            assignment.setdefault(f"t{i % tenant_count}", []).append(host)
        for name, members in sorted(assignment.items()):
            self._specs[name] = TenantSpec(
                name=name,
                prefixes=tuple(scenario.subnets[h] for h in members),
                hosts=tuple(members),
            )
        self.server.set_slices(self._registry(self._specs.values()))
        self.server.drain_isolation_incidents()
        self.report = TenantFuzzReport(seed=seed, tenants=sorted(self._specs))

    def _registry(self, specs) -> SliceRegistry:
        registry = SliceRegistry(self.server.hs, self.scenario.topo)
        for spec in specs:
            registry.register(spec)
        return registry

    # -- dual-plane rule plumbing (both planes move together: every
    # mutation in this campaign is rule-consistent by construction) -------

    def _install_both(self, switch: str, prefix: str, out_port: int) -> FuzzOp:
        _, plen = parse_prefix(prefix)
        action = Drop() if out_port == DROP_PORT else Forward(out_port)
        rule = FlowRule(
            priority=_PRIO_BASE + plen, match=Match.build(dst=prefix), action=action
        )
        self.scenario.controller.install(switch, rule)
        self._dp_rules[(switch, prefix)] = rule
        self.server.apply_rule_update(switch, prefix, out_port)
        self._ctl_rules[(switch, prefix)] = out_port
        return FuzzOp("add", switch, prefix, out_port, "both")

    def _delete_both(self, switch: str, prefix: str) -> FuzzOp:
        rule = self._dp_rules.pop((switch, prefix))
        self.scenario.controller.remove(switch, rule.rule_id)
        port = self._ctl_rules.pop((switch, prefix))
        self.server.apply_rule_delete(switch, prefix)
        return FuzzOp("delete", switch, prefix, port, "both")

    def _install_base(self) -> None:
        ruleset = lpm_ruleset_for(self.scenario.topo, self.scenario.subnets)
        for switch in sorted(ruleset):
            for prefix, port in ruleset[switch]:
                self._install_both(switch, prefix, port)
        self.server.flush_pending_updates()

    def _fresh_subprefix(self, switch: str, subnet: str) -> Optional[str]:
        value, plen = parse_prefix(subnet)
        if plen >= 32:
            return None
        for _ in range(16):
            plen2 = plen + self.rng.randint(1, min(4, 32 - plen))
            extra = self.rng.getrandbits(plen2 - plen)
            value2 = value | (extra << (32 - plen2))
            prefix = f"{format_ipv4(value2)}/{plen2}"
            if (switch, prefix) not in self._ctl_rules:
                return prefix
        return None

    # -- accounting helpers ------------------------------------------------

    def _owned_pairs(self) -> int:
        """Pairs a full isolation sweep would examine (owned, non-empty)."""
        registry = self.server.slices
        return sum(
            1
            for inport, outport in self.server.table.pairs()
            if registry.port_owner.get(outport) is not None
            and self.server.table.lookup(inport, outport)
        )

    def _note_accounting(
        self, record: TenantFuzzRound, expected_victims: set
    ) -> None:
        """Read the verifier's last-recheck accounting into the ledger.

        ``victims_ok`` holds when the change feed scoped the recheck to a
        subset of the tenants whose footprint we actually moved;
        ``scoped`` when fewer table pairs were examined than a full sweep
        would cover (the incremental claim of the ISSUE's acceptance
        criteria).
        """
        iso = self.server.isolation
        record.table_pairs_checked = iso.last_table_pairs
        record.tenant_pairs_checked = iso.last_tenant_pairs
        record.full_table_pairs = self._owned_pairs()
        record.victims_ok = (
            iso.last_victims is not None
            and iso.last_victims <= expected_victims
        )
        record.scoped = record.table_pairs_checked < max(
            record.full_table_pairs, 1
        )

    def _tenant_of_subnet(self, subnet: str) -> str:
        for name, spec in self._specs.items():
            if subnet in spec.prefixes:
                return name
        raise KeyError(subnet)

    # -- round implementations ---------------------------------------------

    def _round_tenant_churn(self, record: TenantFuzzRound) -> None:
        """Drop-specialize a tenant's own subnet — consistent, in-slice."""
        host, subnet = self.rng.choice(sorted(self.scenario.subnets.items()))
        owner = self._tenant_of_subnet(subnet)
        switch = self.scenario.topo.host_port(host).switch
        sub = self._fresh_subprefix(switch, subnet)
        if sub is None:
            return
        record.victim = owner
        record.ops.append(self._install_both(switch, sub, DROP_PORT))
        self.server.flush_pending_updates()
        record.false_incidents += len(self.server.drain_isolation_incidents())
        self._note_accounting(record, {owner})
        record.ops.append(self._delete_both(switch, sub))
        self.server.flush_pending_updates()
        record.false_incidents += len(self.server.drain_isolation_incidents())

    def _round_tenant_leak(self, record: TenantFuzzRound) -> None:
        """Inject a rule-consistent cross-tenant leak; detect, blame, heal."""
        registry = self.server.slices
        names = sorted(registry.tenants)
        victim = self.rng.choice(names)
        offender = self.rng.choice([n for n in names if n != victim])
        victim_subnet = self.rng.choice(
            registry.tenants[victim].spec.prefixes
        )
        leak_port = self.rng.choice(registry.tenants[offender].edge_ports)
        sub = self._fresh_subprefix(leak_port.switch, victim_subnet)
        if sub is None:
            return
        record.leak = True
        record.victim = victim
        record.offender = offender
        # Both planes get the rule: the data plane really does deliver the
        # victim's slice at the offender's port, and every tag report for
        # it verifies PASS — only the isolation check can see the fault.
        record.ops.append(
            self._install_both(leak_port.switch, sub, leak_port.port)
        )
        self.server.flush_pending_updates()
        incidents = self.server.drain_isolation_incidents()
        record.incidents = len(incidents)
        record.detected = bool(incidents)
        record.pair_ok = all(
            inc.src_tenant == victim and inc.dst_tenant == offender
            for inc in incidents
        ) and bool(incidents)
        sub_value, sub_plen = parse_prefix(sub)
        record.blamed_ok = any(
            inc.leaked_rule
            == (
                leak_port.switch,
                f"{format_ipv4(sub_value)}/{sub_plen}",
                leak_port.port,
            )
            for inc in incidents
        )
        self._note_accounting(record, {victim})
        # Heal: remove from both planes; the next recheck must come back
        # empty (the dirty pairs are re-proved, nothing leaks any more).
        record.ops.append(self._delete_both(leak_port.switch, sub))
        self.server.flush_pending_updates()
        record.healed_clean = not self.server.drain_isolation_incidents()

    def _round_add_remove(self, record: TenantFuzzRound) -> None:
        """Deregister one tenant (rules stay), re-check, then restore."""
        dropped = self.rng.choice(sorted(self._specs))
        record.victim = dropped
        remaining = [
            spec for name, spec in sorted(self._specs.items())
            if name != dropped
        ]
        # Removal: the dropped tenant's ports go unowned, its footprint is
        # no longer anyone's property — the full re-check must stay clean.
        incidents = self.server.set_slices(self._registry(remaining))
        record.false_incidents += len(incidents)
        self.server.drain_isolation_incidents()
        iso = self.server.isolation
        record.table_pairs_checked = iso.last_table_pairs
        record.tenant_pairs_checked = iso.last_tenant_pairs
        record.full_table_pairs = self._owned_pairs()
        # A slice-config change is a full sweep by design, not incremental.
        record.scoped = iso.last_victims is None and iso.full_checks >= 1
        record.victims_ok = True
        # Restore the original slice map.
        incidents = self.server.set_slices(
            self._registry(self._specs.values())
        )
        record.false_incidents += len(incidents)
        self.server.drain_isolation_incidents()

    def _round_noisy_neighbor(self, record: TenantFuzzRound) -> None:
        """Flood one tenant's payloads at a quota queue; the quiet tenant
        must keep its full share under every overflow policy."""
        names = sorted(self._specs)
        offender = self.rng.choice(names)
        quiet = self.rng.choice([n for n in names if n != offender])
        record.offender = offender
        record.victim = quiet
        policy = self.rng.choice(
            [OverflowPolicy.DROP_NEW, OverflowPolicy.DROP_OLDEST]
        )
        queue = TenantQuotaQueue(
            8,
            policy,
            shares={offender: 0.5, quiet: 0.5},
        )

        def put(tag: bytes, tenant: str) -> bool:
            """Submit one report-sized payload as a one-row frame."""
            frame = Frame(tag.ljust(REPORT_SIZE, b"\0"))
            return queue.put_frame(frame, tenants=[tenant]) == 1

        for i in range(24):
            put(b"storm-%d" % i, offender)
        quiet_payloads = [(b"quiet-%d" % i).ljust(REPORT_SIZE, b"\0") for i in range(4)]
        quiet_admitted = sum(put(payload, quiet) for payload in quiet_payloads)
        stats = queue.stats()
        record.offender_drops = stats["tenants"][offender]["dropped"]
        # The quota holds iff every quiet payload was admitted (the flood
        # saturated only the offender's share) and none was evicted.
        drained = []
        while True:
            try:
                drained.append(queue.get_nowait().payload())
            except IndexError:
                break
        record.quota_ok = (
            quiet_admitted == len(quiet_payloads)
            and stats["tenants"][quiet]["dropped"] == 0
            and all(p in drained for p in quiet_payloads)
            and record.offender_drops > 0
        )
        record.incidents = 0
        record.victims_ok = True
        record.scoped = True

    # -- the campaign ------------------------------------------------------

    def run_round(self, index: int) -> TenantFuzzRound:
        kind = self.rng.choice(TENANT_KINDS)
        record = TenantFuzzRound(index=index, kind=kind)
        if kind == "tenant-churn":
            self._round_tenant_churn(record)
        elif kind == "tenant-leak":
            self._round_tenant_leak(record)
        elif kind == "tenant-add-remove":
            self._round_add_remove(record)
        elif kind == "noisy-neighbor":
            self._round_noisy_neighbor(record)
        self.report.rounds.append(record)
        return record

    def run(self, rounds: int = 12) -> TenantFuzzReport:
        for index in range(rounds):
            self.run_round(index)
        # Every leak was healed round-by-round: the final probe sweep must
        # converge with a clean *rule-level* log (proving the leaks never
        # were rule-inconsistencies), and no isolation incident may remain.
        self.server.drain_incidents()
        self.server.coverage.reset()
        final = self.prober.run(max_rounds=self.max_probe_rounds)
        self.report.final_converged = final.converged
        self.report.final_rule_incidents = len(self.server.drain_incidents())
        self.report.final_isolation_incidents = len(
            self.server.drain_isolation_incidents()
        )
        return self.report


def run_tenant_fuzz(
    scenario_factory=None,
    rounds: int = 12,
    seed: int = 0,
    tenant_count: int = 2,
    coalesce_ms: float = 25.0,
    probe_budget: Optional[ProbeBudget] = None,
    max_probe_rounds: int = 4,
) -> TenantFuzzReport:
    """Build a routeless scenario, run the campaign, return the ledger."""
    if scenario_factory is None:
        from ..topologies import build_linear

        def scenario_factory():
            return build_linear(4, install_routes=False)

    campaign = TenantFuzzCampaign(
        scenario_factory(),
        seed=seed,
        tenant_count=tenant_count,
        coalesce_ms=coalesce_ms,
        probe_budget=probe_budget,
        max_probe_rounds=max_probe_rounds,
    )
    return campaign.run(rounds)
