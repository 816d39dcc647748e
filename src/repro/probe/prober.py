"""The active prober: close the coverage gap under an explicit budget.

The closed loop (each round):

1. flush any staged rule updates so probes measure the *current* config,
2. re-plan: consume the path table's dirty-pair journal and regenerate
   representative headers only for pairs whose entries changed,
3. read :meth:`CoverageTracker.report` and walk its ``dark_paths`` — the
   entries no passing verification has exercised,
4. inject one representative probe per dark entry through the data-plane
   simulator (VeriDP marker pre-set, bypassing the entry sampler) and feed
   the resulting tag reports to the live server, whose coverage tracker
   marks them off.

Budgets are first-class: a probe count cap, a wall-clock deadline and a
token-bucket send rate (``ProbeBudget``), so operators can bound the
background traffic probing adds.  Entries that refuse to converge (their
probes keep failing verification — i.e. a real inconsistency) are retried
at most ``max_attempts`` times and then left to the incident log; the loop
never spins on a faulty path.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from ..core.coverage import CoverageTracker
from ..core.server import Incident, VeriDPServer
from ..dataplane.network import DataPlaneNetwork, DeliveryStatus
from ..netmodel.packet import Header
from ..netmodel.topology import PortRef
from .headers import (
    DerivationStats,
    PlannedProbe,
    plan_pair,
    representative_value,
)

__all__ = ["ProbeBudget", "ProbeRunResult", "ActiveProber"]

Pair = Tuple[PortRef, PortRef]


@dataclass
class ProbeBudget:
    """Caps on one probing run: packets, wall-clock seconds, send rate."""

    max_probes: Optional[int] = None
    max_seconds: Optional[float] = None
    rate_per_s: Optional[float] = None

    def __post_init__(self) -> None:
        for name in ("max_probes", "max_seconds", "rate_per_s"):
            value = getattr(self, name)
            if value is not None and value <= 0:
                raise ValueError(f"{name} must be positive, got {value}")


@dataclass
class ProbeRunResult:
    """What one :meth:`ActiveProber.run` accomplished."""

    rounds: int = 0
    sent: int = 0
    slice_probes: int = 0
    incidents: int = 0
    lost: int = 0
    skipped_unplannable: int = 0
    dark_before: int = 0
    dark_after: int = 0
    path_coverage_before: float = 0.0
    path_coverage_after: float = 0.0
    pair_coverage_after: float = 0.0
    budget_exhausted: Optional[str] = None  # "probes" | "seconds" | None
    converged: bool = False
    elapsed_s: float = 0.0
    failed_probes: List[PlannedProbe] = field(default_factory=list)

    def __str__(self) -> str:
        state = "converged" if self.converged else (
            f"budget:{self.budget_exhausted}" if self.budget_exhausted else "stalled"
        )
        return (
            f"probe run: {self.sent} probes / {self.rounds} rounds, "
            f"dark {self.dark_before} -> {self.dark_after}, "
            f"{self.incidents} incidents, {state}"
        )


class ActiveProber:
    """Drive representative probes at whatever the tracker says is dark."""

    def __init__(
        self,
        server: VeriDPServer,
        net: DataPlaneNetwork,
        budget: Optional[ProbeBudget] = None,
        tracker: Optional[CoverageTracker] = None,
        max_attempts: int = 2,
        clock: Callable[[], float] = time.monotonic,
        sleep: Callable[[float], None] = time.sleep,
    ) -> None:
        self.server = server
        self.net = net
        self.budget = budget or ProbeBudget()
        self.tracker = tracker if tracker is not None else server.coverage
        self.max_attempts = max_attempts
        self._clock = clock
        self._sleep = sleep
        self.derivation = DerivationStats()
        # Per-pair plan cache, invalidated through the dirty-pair journal.
        self._plans: Dict[Pair, Dict[int, PlannedProbe]] = {}
        self._token = None
        self._attempts: Dict[Tuple[Pair, int], int] = {}
        # One-shot probes aimed inside recently *changed* header slices
        # (from the updater's change log, read from this cursor on):
        # hop-equivalence can merge a changed slice into a wider entry
        # whose representative witness misses it, so changed slices get
        # their own witness once.
        self._slice_queue: List[PlannedProbe] = []
        updater = server.updater
        self._change_token = None if updater is None else updater.change_token()
        # Lifetime counters (exported as veridp_probe_* metrics).
        self.probes_sent = 0
        self.probe_rounds = 0
        self.probe_incidents = 0
        self.probes_lost = 0
        self.replans = 0
        self.pairs_invalidated = 0
        self.full_invalidations = 0
        self.slice_probes = 0
        self._register_metrics()

    def _register_metrics(self) -> None:
        reg = self.server.obs.registry
        reg.counter(
            "veridp_probes_sent_total",
            "Representative probes injected by the active prober.",
            callback=lambda: self.probes_sent,
        )
        reg.counter(
            "veridp_probe_rounds_total",
            "Closed-loop probing rounds executed.",
            callback=lambda: self.probe_rounds,
        )
        reg.counter(
            "veridp_probe_incidents_total",
            "Probes whose verification failed (inconsistencies surfaced).",
            callback=lambda: self.probe_incidents,
        )
        reg.counter(
            "veridp_probe_lost_total",
            "Probes swallowed without any report (dead switches).",
            callback=lambda: self.probes_lost,
        )
        reg.counter(
            "veridp_probe_replans_total",
            "Plan-cache reconciliations against the dirty-pair journal.",
            callback=lambda: self.replans,
        )
        reg.counter(
            "veridp_probe_pairs_invalidated_total",
            "Cached pair plans dropped because their entries changed.",
            callback=lambda: self.pairs_invalidated,
        )
        reg.counter(
            "veridp_probe_derivations_total",
            "Representative-header extractions, by witness tier.",
            ("tier",),
            callback=lambda: {
                ("cube",): self.derivation.cube_tier,
                ("descent",): self.derivation.descent_tier,
                ("empty",): self.derivation.empty,
            },
        )
        reg.counter(
            "veridp_probe_slice_total",
            "One-shot probes aimed inside recently changed header slices.",
            callback=lambda: self.slice_probes,
        )
        reg.gauge(
            "veridp_probe_plan_pairs",
            "Pairs with a cached representative-header plan.",
            callback=lambda: len(self._plans),
        )

    # -- planning ----------------------------------------------------------

    def replan(self) -> Optional[List[Pair]]:
        """Reconcile the plan cache with table mutations since last call.

        Returns the invalidated pairs (``None`` on journal overflow, which
        drops everything).  Untouched pairs keep their cached headers —
        after a staged flush only the dirty pairs get re-derived and
        re-probed (regression-tested).
        """
        self.replans += 1
        token, dirty = self.server.table.dirty_since(self._token)
        self._token = token
        if dirty is None:
            if self._plans:
                self.full_invalidations += 1
            self._plans.clear()
            self._attempts.clear()
            self._slice_queue.clear()
            self._queue_slice_probes(self.server.table.pairs())
            return None
        dirty_set = set(dirty)
        for pair in dirty:
            if self._plans.pop(pair, None) is not None:
                self.pairs_invalidated += 1
            for key in [k for k in self._attempts if k[0] == pair]:
                del self._attempts[key]
        if dirty_set:
            self._slice_queue = [
                p for p in self._slice_queue
                if (p.inport, p.outport) not in dirty_set
            ]
        self._queue_slice_probes(dirty)
        return dirty

    def _queue_slice_probes(self, pairs: List[Pair]) -> None:
        """Aim one witness inside each changed slice on the given pairs.

        Reads the updater's change log from the prober's cursor
        (post-flush, so entry header sets are current): any entry whose
        headers intersect a changed predicate gets a one-shot probe drawn
        from the *intersection*, exercising the exact slice the update
        moved even when the entry's own representative witness lies
        outside it.  A log that overflowed past the cursor changed
        everything.
        """
        updater = self.server.updater
        if updater is None:
            return
        hs = self.server.hs
        self._change_token, changes = updater.changes_since(self._change_token)
        if changes is None:
            changes = [hs.all_match]
        if not changes:
            return
        bdd = hs.bdd
        # Intersect per change, NOT with their union: a broad change (say a
        # table-wide install) unioned with a narrow one would widen the
        # intersection back to the whole entry and the witness could dodge
        # the narrow slice again.  Dedupe on (entry, witness value).
        queued = set()
        for predicate in changes:
            for pair in pairs:
                for entry in self.server.table.lookup(pair[0], pair[1]):
                    changed = bdd.and_(entry.headers, predicate)
                    if changed == hs.empty:
                        continue
                    value = representative_value(
                        hs, changed, stats=self.derivation
                    )
                    if value is None:
                        continue
                    key = (id(entry), value)
                    if key in queued:
                        continue
                    queued.add(key)
                    self._slice_queue.append(
                        PlannedProbe(
                            inport=pair[0],
                            outport=pair[1],
                            entry=entry,
                            header=Header(**hs.header_from_value(value)),
                        )
                    )

    def _plan_for(self, pair: Pair) -> Dict[int, PlannedProbe]:
        plan = self._plans.get(pair)
        if plan is None:
            probes = plan_pair(
                self.server.table, self.server.hs, pair[0], pair[1],
                stats=self.derivation,
            )
            plan = {id(p.entry): p for p in probes}
            self._plans[pair] = plan
        return plan

    # -- the closed loop -------------------------------------------------------

    def run(self, max_rounds: int = 8) -> ProbeRunResult:
        """Probe until coverage closes, progress stops, or budget runs out."""
        started = self._clock()
        deadline = (
            started + self.budget.max_seconds
            if self.budget.max_seconds is not None
            else None
        )
        next_send = started
        # Retry budgets are per-run: a campaign that heals a fault between
        # runs should get fresh attempts for the previously failing entries.
        self._attempts.clear()
        result = ProbeRunResult()
        report = self._refresh()
        result.dark_before = len(report.dark_paths)
        result.path_coverage_before = report.path_coverage

        while result.rounds < max_rounds:
            report = self.tracker.report()
            if not report.dark_paths and not self._slice_queue:
                result.converged = True
                break
            result.rounds += 1
            self.probe_rounds += 1
            sent_this_round = 0
            # This round's worklist: one-shot changed-slice probes first
            # (they expose desyncs hidden inside merged entries), then one
            # representative probe per dark entry.
            work: List[Tuple[PlannedProbe, Optional[Tuple[Pair, int]]]] = []
            while self._slice_queue:
                work.append((self._slice_queue.pop(0), None))
            for inport, outport, entry in list(report.dark_paths):
                pair = (inport, outport)
                attempt_key = (pair, id(entry))
                if self._attempts.get(attempt_key, 0) >= self.max_attempts:
                    continue
                probe = self._plan_for(pair).get(id(entry))
                if probe is None:
                    result.skipped_unplannable += 1
                    self._attempts[attempt_key] = self.max_attempts
                    continue
                work.append((probe, attempt_key))
            for probe, attempt_key in work:
                if (
                    self.budget.max_probes is not None
                    and result.sent >= self.budget.max_probes
                ):
                    result.budget_exhausted = "probes"
                    break
                now = self._clock()
                if deadline is not None and now >= deadline:
                    result.budget_exhausted = "seconds"
                    break
                if self.budget.rate_per_s is not None:
                    if now < next_send:
                        self._sleep(next_send - now)
                        now = self._clock()
                    next_send = max(now, next_send) + 1.0 / self.budget.rate_per_s
                if attempt_key is None:
                    self.slice_probes += 1
                    result.slice_probes += 1
                else:
                    self._attempts[attempt_key] = (
                        self._attempts.get(attempt_key, 0) + 1
                    )
                incidents = self._send(probe)
                sent_this_round += 1
                result.sent += 1
                if incidents:
                    result.incidents += len(incidents)
                    result.failed_probes.append(probe)
            if result.budget_exhausted is not None or sent_this_round == 0:
                break
            # A flush/refresh between rounds may have mutated the table;
            # the next iteration re-reads the dark list either way.
            self._refresh()

        final = self.tracker.report()
        result.dark_after = len(final.dark_paths)
        result.path_coverage_after = final.path_coverage
        result.pair_coverage_after = final.pair_coverage
        result.converged = result.converged or (
            not final.dark_paths and not self._slice_queue
        )
        result.elapsed_s = self._clock() - started
        return result

    def run_round(self) -> ProbeRunResult:
        """One planning + probing round (no convergence loop)."""
        return self.run(max_rounds=1)

    # -- internals ---------------------------------------------------------

    def _refresh(self):
        """Flush staged updates, reconcile plans, return a fresh report."""
        if self.server.updater is not None:
            self.server.flush_pending_updates()
        else:
            self.server.refresh_if_dirty()
        self.replan()
        return self.tracker.report()

    def _send(self, probe: PlannedProbe) -> List[Incident]:
        """Inject one probe and push its reports through the server."""
        delivery = self.net.inject(probe.inport, probe.header, force_sample=True)
        self.probes_sent += 1
        incidents: List[Incident] = []
        foreign = self.tracker is not self.server.coverage
        for report in delivery.reports:
            incident = self.server.receive_report(report)
            if foreign:
                self.tracker.observe(incident.verification)
            if not incident.verification.passed:
                incidents.append(incident)
        if delivery.status == DeliveryStatus.LOST and not delivery.reports:
            self.probes_lost += 1
        self.probe_incidents += len(incidents)
        # Keep the simulator's report backlog from growing without bound.
        self.net.drain_reports()
        return incidents
