"""The VeriDP server (Section 3.4): intercept, verify, localize.

The server sits beside the controller.  It

* subscribes to the OpenFlow :class:`~repro.controlplane.messages.Channel`
  and keeps its path table synchronised with the rule stream (lazy full
  rebuild by default; callers doing LPM-only workloads can use
  :class:`~repro.core.incremental.IncrementalPathTable` directly),
* receives tag reports as wire bytes on :meth:`receive_report_bytes` (an
  object report is packed to its bytes first, :meth:`receive_report`) and
  verifies them with Algorithm 3,
* on failure runs Algorithm 4 to recover the real path and blame switches,
* keeps an inconsistency log operators can drain.
"""

from __future__ import annotations

import ctypes
import threading
import time
from typing import Dict, List, Optional, Sequence, Tuple

from ..bdd.headerspace import HeaderSpace
from ..controlplane.messages import Channel, FlowMod
from ..netmodel.topology import Topology
from ..obs import Observability
from .bloom import BloomTagScheme
from .coverage import CoverageTracker
from .incident import Incident
from .localization import (
    ForwardingClassLocalizer,
    LocalizationResult,
    PathInferLocalizer,
)
from .pathtable import PathTable, PathTableBuilder, SnapshotProvider
from .reports import (
    PortCodec,
    ReportDecodeError,
    TagReport,
    pack_report,
    payload_dst_ip,
    unpack_report,
)
from .verifier import Verdict, Verifier

__all__ = ["VeriDPServer", "Incident"]


def release_free_memory() -> bool:
    """Hand the C allocator's free pages back to the OS (``malloc_trim(0)``).

    The table build frees its scratch (apply memos, worklists, transient
    dicts) into malloc's arenas, where it stays resident in this process
    and in every shard worker or cluster node forked from it.  Returns
    whether a release ran: ``False`` where libc cannot be opened or has no
    ``malloc_trim`` (it is a glibc extension).
    """
    try:
        trim = ctypes.CDLL(None).malloc_trim
    except (OSError, TypeError, AttributeError):
        return False
    trim.argtypes = [ctypes.c_size_t]  # pad: bytes to keep at the heap top
    trim.restype = ctypes.c_int
    trim(0)
    return True


class VeriDPServer:
    """The monitoring endpoint of the system."""

    def __init__(
        self,
        topo: Topology,
        channel: Optional[Channel] = None,
        hs: Optional[HeaderSpace] = None,
        scheme: Optional[BloomTagScheme] = None,
        codec: Optional[PortCodec] = None,
        localize_failures: bool = True,
        max_path_length: Optional[int] = None,
        obs: Optional[Observability] = None,
        state_dir: Optional[str] = None,
        fsync: str = "interval",
        snapshot_every: Optional[int] = None,
        snapshot_retain: int = 3,
        coalesce_ms: float = 0.0,
        incremental: bool = False,
        slices=None,
    ) -> None:
        self.topo = topo
        self.obs = obs or Observability()
        #: Serialises every writer of the path table (rule updates, the
        #: flushes, the rebuild) and the intake reading it; the daemons'
        #: books take it as their ``server_lock``.
        self.lock = threading.RLock()
        self.scheme = scheme or BloomTagScheme()
        self.codec = codec or PortCodec(sorted(topo.switches))
        self.localize_failures = localize_failures
        self.persist = None
        self.updater = None
        self.boot_source: Optional[str] = None
        self.snapshot_every = snapshot_every
        self._rules_since_snapshot = 0
        #: Rule updates are WAL-logged (durable mode) and staged at once;
        #: the path table recomputes once per ``coalesce_ms`` window, or
        #: at every event when it is ``<= 0``.
        self.coalesce_ms = coalesce_ms
        self._flush_deadline: Optional[float] = None
        self.update_flushes = 0
        self.update_flush_events = 0
        if state_dir is not None:
            # Durable mode: the snapshot owns the BDD node table, so the
            # HeaderSpace must be ours to create.
            if hs is not None:
                raise ValueError(
                    "state_dir manages its own HeaderSpace; do not pass hs"
                )
            from ..persist.recovery import PersistentState

            self.persist = PersistentState(
                state_dir,
                fsync=fsync,
                retain=snapshot_retain,
                obs=self.obs,
            )
            boot = self.persist.boot(
                topo,
                scheme=self.scheme,
                max_path_length=max_path_length,
            )
            self.hs = boot.hs
            self.updater = boot.updater
            self._provider = boot.updater.provider
            self.builder = boot.updater.builder
            self.table: PathTable = boot.updater.table
            self.state_version = boot.state_version
            self.boot_source = boot.source
        elif incremental:
            # Incremental (non-durable) mode: rule changes flow through
            # apply_rule_update/apply_rule_delete into an in-memory
            # IncrementalPathTable — the durable update path minus the WAL.
            # This is what the state fuzzer drives: the staged/coalesced
            # update machinery with no filesystem dependency.
            from .incremental import IncrementalPathTable

            self.hs = hs or HeaderSpace()
            self.updater = IncrementalPathTable(
                topo,
                self.hs,
                scheme=self.scheme,
                max_path_length=max_path_length,
            )
            self._provider = self.updater.provider
            self.builder = self.updater.builder
            self.table = self.updater.table
            self.state_version = 0
        else:
            self.hs = hs or HeaderSpace()
            self._provider = SnapshotProvider(topo, self.hs)
            self.builder = PathTableBuilder(
                topo,
                self.hs,
                scheme=self.scheme,
                provider=self._provider,
                max_path_length=max_path_length,
            )
            self.table = self.builder.build()
            self.state_version = 0
        self.table.compile_matchers(self.hs)
        # The table and its fast indexes are built, and reports are verified
        # on the node arrays alone: the build's apply memos are scratch from
        # here on, and a worker forked later should not inherit them.
        # (Update flushes keep theirs; see BDD.new_generation.)
        self.hs.bdd.new_generation()
        # ... and the allocator hands the freed pages back before anything
        # forks.  Only construction releases; flushes keep their memos.
        release_free_memory()
        self.verifier = Verifier(self.table, self.hs)
        #: Coverage over the live table, fed by every verification on the
        #: direct report path; the active prober closes its dark list.
        self.coverage = CoverageTracker(self.table)
        # A persistent fault is one failing report per sampled packet, so
        # the failure path is built to cost per distinct fault: Algorithm 4
        # runs once per forwarding class (the localizer holds the answers),
        # and the log holds one record per distinct failing payload.
        self.localizer = ForwardingClassLocalizer(
            PathInferLocalizer(self.builder, self.scheme, topo),
            self._failure_epoch,
        )
        self.incidents: List[Incident] = []
        self.incidents_total = 0  # survives drain_incidents(), unlike len()
        self.incident_records = 0  # distinct objects in the live log
        #: failing payload -> its record in the live log.  Lives and dies
        #: with the log and with the configuration the verdicts were made
        #: under, so it holds nothing the log does not already hold.
        self._interned: Dict[bytes, Incident] = {}
        self._interned_epoch: object = None
        self.localization_errors = 0
        self.localizations = 0
        #: Localizations an interned record or a stored class answered.
        self.localization_cache_hits = 0
        self._dirty = False
        # -- multi-tenant slicing (repro.slice) -----------------------------
        #: The :class:`~repro.slice.registry.SliceRegistry`, when sliced.
        self.slices = None
        #: tenant name -> :class:`~repro.slice.views.TenantPathTable`.
        self.tenant_views: Dict[str, object] = {}
        #: The :class:`~repro.slice.isolation.IsolationVerifier`, when sliced.
        self.isolation = None
        self.isolation_incidents: List[object] = []
        self.isolation_incidents_total = 0
        #: Per-tenant report attribution counts ("" = unattributed).
        self.tenant_reports: Dict[str, int] = {}
        self._tenant_cov_cache: Optional[tuple] = None
        if slices is not None:
            self.set_slices(slices)
        self._register_metrics()
        if channel is not None:
            channel.subscribe(self._on_message)

    # -- multi-tenant slicing -------------------------------------------------

    def set_slices(self, registry):
        """Configure (or reconfigure) the tenant slice layer.

        Builds one journal-synced :class:`~repro.slice.views.TenantPathTable`
        per tenant over the live table, wires the coverage tracker's tenant
        resolver, and runs a full cross-tenant isolation sweep — whose
        incidents are logged and returned.  Safe to call again after tenant
        churn (the fuzz campaign's add/remove rounds do exactly that).
        """
        from ..slice.isolation import IsolationVerifier
        from ..slice.views import TenantPathTable

        if registry.hs is not self.hs:
            raise ValueError(
                "slice registry must be compiled on the server's HeaderSpace "
                "(footprints share the node store)"
            )
        self.slices = registry
        self.tenant_views = {
            tenant.name: TenantPathTable(self.table, self.hs, tenant)
            for tenant in registry
        }
        self.coverage.tenant_resolver = registry.entry_resolver()
        self._tenant_cov_cache = None
        self.isolation = IsolationVerifier(
            registry,
            self.table,
            self.hs,
            provider=self._provider,
            updater=self.updater,
        )
        incidents = self.isolation.check_full()
        self._log_isolation(incidents)
        # The full sweep is construction-sized work with its own memos.
        self.hs.bdd.new_generation()
        return incidents

    def _log_isolation(self, incidents) -> None:
        if incidents:
            self.isolation_incidents.extend(incidents)
            self.isolation_incidents_total += len(incidents)

    def _recheck_isolation(self):
        """Incremental isolation re-proof + tenant-view resync after churn."""
        if self.isolation is None:
            return []
        incidents = self.isolation.recheck()
        self._log_isolation(incidents)
        for view in self.tenant_views.values():
            view.sync()
        return incidents

    def drain_isolation_incidents(self):
        """Return and clear the cross-tenant isolation incident log."""
        incidents = self.isolation_incidents
        self.isolation_incidents = []
        return incidents

    def _register_metrics(self) -> None:
        """Expose server state on the shared registry, at zero hot-path cost.

        Everything here is a *callback* instrument: the verifier/localizer
        keep their plain-int counters on the hot path and the registry
        reads them at collection time.  A daemon that wraps this server
        re-registers ``veridp_verifications_total`` with its merged
        worker view (latest owner wins — see :mod:`repro.obs.metrics`).
        """
        reg = self.obs.registry
        reg.counter(
            "veridp_verifications_total",
            "Tag reports verified, by Algorithm 3 verdict.",
            ("verdict",),
            callback=lambda: {
                (v.value,): n for v, n in self.verifier.counters.items()
            },
        )
        reg.counter(
            "veridp_localizations_total",
            "Algorithm 4 localizations attempted (cache hits included).",
            callback=lambda: self.localizations,
        )
        reg.counter(
            "veridp_localization_cache_hits_total",
            "Localizations answered by an interned incident record or a "
            "stored forwarding class instead of a PathInfer run.",
            callback=lambda: self.localization_cache_hits,
        )
        reg.gauge(
            "veridp_localization_classes",
            "Forwarding classes whose PathInfer answer is held for sharing.",
            callback=lambda: self.localizer.classes,
        )
        reg.counter(
            "veridp_localization_errors_total",
            "Failures Algorithm 4 could not localize (incident kept).",
            callback=lambda: self.localization_errors,
        )
        reg.counter(
            "veridp_incidents_total",
            "Inconsistencies detected since server start (drain-proof).",
            callback=lambda: self.incidents_total,
        )
        reg.gauge(
            "veridp_incident_log_size",
            "Incidents currently waiting in the operator log.",
            callback=lambda: len(self.incidents),
        )
        reg.gauge(
            "veridp_incident_records",
            "Distinct incident records alive in the operator log (repeats "
            "of one failing payload share one).",
            callback=lambda: self.incident_records,
        )
        reg.gauge(
            "veridp_path_table_version",
            "Structural version of the live path table.",
            callback=lambda: self.table.version,
        )
        reg.gauge(
            "veridp_state_version",
            "Monotonic count of rule updates applied to the server's state.",
            callback=lambda: self.state_version,
        )
        reg.gauge(
            "veridp_path_table_pairs",
            "Indexed (inport, outport) pairs in the path table.",
            callback=lambda: self.table.stats().num_pairs,
        )
        reg.gauge(
            "veridp_path_table_paths",
            "Distinct configured paths in the path table.",
            callback=lambda: self.table.stats().num_paths,
        )
        reg.gauge(
            "veridp_build_last_seconds",
            "Wall-clock seconds of the most recent full path-table build.",
            callback=lambda: self.table.build_time_s,
        )
        reg.gauge(
            "veridp_update_last_seconds",
            "Seconds of the most recent incremental update or flush.",
            callback=lambda: (
                0.0 if self.updater is None else self.updater.last_update_s
            ),
        )
        reg.gauge(
            "veridp_update_pending",
            "Rule events staged in the coalescing window, awaiting flush.",
            callback=lambda: (
                0 if self.updater is None else self.updater.pending_updates
            ),
        )
        reg.counter(
            "veridp_update_flushes_total",
            "Flushes applied to the path table (one per update when not coalescing).",
            callback=lambda: self.update_flushes,
        )
        reg.counter(
            "veridp_update_flush_events_total",
            "Rule events applied through flushes.",
            callback=lambda: self.update_flush_events,
        )
        reg.gauge(
            "veridp_update_dirty_switches",
            "Switches the most recent flush recomputed.",
            callback=lambda: self._last_flush_stat("dirty_switches"),
        )
        reg.gauge(
            "veridp_update_dirty_ports",
            "(switch, port) predicates the most recent flush found changed.",
            callback=lambda: self._last_flush_stat("dirty_ports"),
        )
        # Coverage gauges read the tracker's memoized report: recomputed
        # only when the table or the observation stream actually changed,
        # so a metrics scrape costs a dict lookup, not an O(table) walk.
        reg.gauge(
            "veridp_coverage_path_ratio",
            "Fraction of path-table entries verified at least once.",
            callback=lambda: self.coverage.report().path_coverage,
        )
        reg.gauge(
            "veridp_coverage_pair_ratio",
            "Fraction of (inport, outport) pairs with every entry verified.",
            callback=lambda: self.coverage.report().pair_coverage,
        )
        reg.gauge(
            "veridp_coverage_hop_ratio",
            "Fraction of distinct hops on some verified path.",
            callback=lambda: self.coverage.report().hop_coverage,
        )
        reg.gauge(
            "veridp_coverage_dark_paths",
            "Path-table entries no passing verification has exercised.",
            callback=lambda: len(self.coverage.report().dark_paths),
        )
        reg.gauge(
            "veridp_coverage_dark_pairs",
            "(inport, outport) pairs with at least one unverified entry.",
            callback=lambda: len(self.coverage.report().dark_pairs),
        )
        reg.counter(
            "veridp_coverage_observations_total",
            "Verification results fed to the coverage tracker.",
            callback=lambda: self.coverage.observations,
        )
        reg.counter(
            "veridp_coverage_invalidated_pairs_total",
            "Pairs whose coverage the dirty-pair journal invalidated.",
            callback=lambda: self.coverage.invalidated_pairs,
        )
        # Tenant-slice instruments: label-per-tenant callbacks over the
        # slice layer's counters; all of them collapse to empty series on
        # an unsliced server, so registration is unconditional.
        reg.counter(
            "veridp_tenant_reports_total",
            "Tag reports attributed to each tenant's footprint "
            "(tenant=\"\" = unattributed).",
            ("tenant",),
            callback=lambda: {
                (tenant,): n for tenant, n in self.tenant_reports.items()
            },
        )
        reg.gauge(
            "veridp_tenant_view_paths",
            "Path entries in each tenant's sliced view of the table.",
            ("tenant",),
            callback=lambda: {
                (name,): view.num_paths()
                for name, view in self.tenant_views.items()
            },
        )
        reg.gauge(
            "veridp_coverage_tenant_dark_paths",
            "Unverified path-table entries attributed to each tenant.",
            ("tenant",),
            callback=lambda: {
                (tenant,): dark
                for tenant, (dark, _total) in self._tenant_coverage().items()
            },
        )
        reg.gauge(
            "veridp_coverage_tenant_path_ratio",
            "Fraction of each tenant's attributed entries verified.",
            ("tenant",),
            callback=lambda: {
                (tenant,): ((total - dark) / total if total else 0.0)
                for tenant, (dark, total) in self._tenant_coverage().items()
            },
        )
        reg.counter(
            "veridp_isolation_incidents_total",
            "Cross-tenant isolation violations detected (drain-proof).",
            callback=lambda: self.isolation_incidents_total,
        )
        reg.gauge(
            "veridp_isolation_incident_log_size",
            "Isolation incidents currently waiting in the operator log.",
            callback=lambda: len(self.isolation_incidents),
        )
        reg.counter(
            "veridp_isolation_checks_total",
            "Cumulative (table pair, tenant) isolation proofs performed.",
            callback=lambda: (
                0 if self.isolation is None else self.isolation.checks_total
            ),
        )
        reg.gauge(
            "veridp_isolation_last_tenant_pairs",
            "(pair, tenant) proofs the most recent isolation run needed "
            "(incremental rechecks stay near the churned slice's size).",
            callback=lambda: (
                0
                if self.isolation is None
                else self.isolation.last_tenant_pairs
            ),
        )
        reg.counter(
            "veridp_bdd_cache_hits_total",
            "BDD operation-cache hits (ite/not/apply memo).",
            callback=lambda: self.hs.bdd.cache_hits,
        )
        reg.counter(
            "veridp_bdd_cache_misses_total",
            "BDD operation-cache misses.",
            callback=lambda: self.hs.bdd.cache_misses,
        )
        reg.counter(
            "veridp_bdd_cache_evictions_total",
            "Entries evicted from the bounded BDD operation caches.",
            callback=lambda: self.hs.bdd.cache_evictions,
        )
        reg.gauge(
            "veridp_bdd_nodes",
            "Live nodes in the shared BDD manager.",
            callback=lambda: self.hs.bdd.num_nodes(),
        )

    def _tenant_coverage(self) -> Dict[str, tuple]:
        """``tenant -> (dark entries, total entries)`` attribution.

        Walks the coverage report's table once per report generation
        (memoized on the report object): metric scrapes between state
        changes cost a dict lookup.
        """
        if self.slices is None:
            return {}
        report = self.coverage.report()
        cached = self._tenant_cov_cache
        if cached is not None and cached[0] is report:
            return cached[1]
        resolve = self.coverage.tenant_resolver
        counts: Dict[str, list] = {
            tenant.name: [0, 0] for tenant in self.slices
        }
        dark_ids = {
            id(entry) for _, _, entry in report.dark_paths
        }
        for inport, outport, entry in self.coverage.table.all_entries():
            tenant = resolve(inport, outport, entry)
            if tenant is None or tenant not in counts:
                continue
            counts[tenant][1] += 1
            if id(entry) in dark_ids:
                counts[tenant][0] += 1
        result = {
            tenant: (dark, total) for tenant, (dark, total) in counts.items()
        }
        self._tenant_cov_cache = (report, result)
        return result

    def _last_flush_stat(self, field_name: str) -> int:
        updater = self.updater
        if updater is None or updater.last_flush is None:
            return 0
        return getattr(updater.last_flush, field_name)

    # -- control-plane synchronisation ---------------------------------

    def _on_message(self, message: object) -> None:
        if isinstance(message, FlowMod):
            # The logical tables (inside self.topo) were already updated by
            # the controller before the FlowMod was sent; we only note that
            # our snapshot is stale.
            self._dirty = True

    def refresh_if_dirty(self) -> bool:
        """Rebuild the path table if rule changes were observed.

        In durable and incremental modes this is a no-op: rule changes flow
        through :meth:`apply_rule_update`/:meth:`apply_rule_delete`, which
        update the table incrementally (and, when durable, log to the WAL
        first) — a lazy full rebuild would bypass both.
        """
        if self.updater is not None:
            return False
        with self.lock:
            if not self._dirty:
                return False
            self._provider.refresh(self.topo, self.hs)
            stale_version = self.table.version
            self.table = self.builder.build()
            # Replica holders compare versions only: the swapped-in table
            # must not read as current to one synced with its predecessor.
            self.table.version = max(self.table.version, stale_version + 1)
            self.table.compile_matchers(self.hs)
            # Swap the table under the existing verifier: its counters are
            # part of the server's long-lived statistics (and the repair
            # engine reads them across rebuilds).  Remembered failures need
            # no flush: they are stamped with _failure_epoch, which the new
            # table and state_version just moved.
            self.verifier.table = self.table
            # The rebuild replaced every entry object; accumulated coverage
            # vouched for entries that no longer exist.
            self.coverage.retarget(self.table)
            self._tenant_cov_cache = None
            # The rebuild swapped the table object: tenant views and the
            # isolation verifier must re-anchor (and re-prove from scratch
            # — their journal cursors died with the old table).
            if self.isolation is not None:
                for view in self.tenant_views.values():
                    view.retarget(self.table)
                self._log_isolation(self.isolation.retarget(self.table))
            self._dirty = False
            self.state_version += 1
            return True

    def force_rebuild(self) -> None:
        """Unconditionally rebuild (e.g. after out-of-band topology edits)."""
        if self.updater is not None:
            raise RuntimeError(
                "incremental/durable servers update via apply_rule_update/"
                "apply_rule_delete; full rebuilds would bypass the updater"
                + (" and the WAL" if self.persist is not None else "")
            )
        self._dirty = True
        self.refresh_if_dirty()

    # -- durable mode: logged rule updates + snapshots -----------------------

    def _require_durable(self):
        if self.persist is None:
            raise RuntimeError(
                "this server was built without state_dir; durable-mode "
                "operations are unavailable"
            )
        return self.persist

    def _require_updater(self):
        if self.updater is None:
            raise RuntimeError(
                "this server was built without state_dir or incremental=True; "
                "rule updates must go through the controller channel"
            )
        return self.updater

    def apply_rule_update(self, switch: str, prefix: str, out_port: int) -> float:
        """Log (when durable), then stage, one LPM rule installation.

        WAL-first ordering: the control record is durable (per the fsync
        policy) before the table changes, so a crash between the two replays
        the event at boot instead of losing it.  In incremental
        (non-durable) mode the WAL step is skipped and the update applies
        in memory only.

        The event is *staged* (prefix-tree mutation now, path-table
        recompute deferred); the table catches up at
        :meth:`flush_pending_updates`, triggered when the ``coalesce_ms``
        window expires, before any verification, snapshot or close.  With
        ``coalesce_ms <= 0`` the window expires at once, so every update
        is a one-event flush.  Reports verified strictly inside the window
        see the pre-batch table — the window bounds that staleness.
        Returns the elapsed seconds of the stage plus any flush it ran (the
        Figure 14 metric in immediate mode).
        """
        return self._stage_rule("add", switch, prefix, out_port)

    def apply_rule_delete(self, switch: str, prefix: str) -> float:
        """Log (when durable), then stage, one LPM rule removal.
        See :meth:`apply_rule_update`."""
        return self._stage_rule("delete", switch, prefix)

    def _stage_rule(
        self, kind: str, switch: str, prefix: str, out_port: int = 0
    ) -> float:
        updater = self._require_updater()
        with self.lock:
            if self.persist is not None:
                from ..persist.wal import ControlEvent

                self.persist.log_control(ControlEvent(kind, switch, prefix, out_port))
            started = time.perf_counter()
            if kind == "add":
                updater.stage_add_rule(switch, prefix, out_port)
            else:
                updater.stage_delete_rule(switch, prefix)
            # Arm the window on the batch's first event; flush when it
            # expires (at once when coalesce_ms <= 0).
            now = time.monotonic()
            if self._flush_deadline is None:
                self._flush_deadline = now + self.coalesce_ms / 1000.0
            if now >= self._flush_deadline:
                self.flush_pending_updates()
            elapsed = time.perf_counter() - started
            # The path table mutated in place; its version bump already
            # invalidates the compiled-matcher index, and with
            # state_version below it moves _failure_epoch, which retires
            # every remembered failure.  Isolation re-proves at the flush.
            self.state_version += 1
            self._rules_since_snapshot += 1
            if (
                self.snapshot_every is not None
                and self._rules_since_snapshot >= self.snapshot_every
            ):
                self.snapshot_now()
        return elapsed

    def maybe_flush_updates(self):
        """Flush the coalescing window iff it has expired.

        There is no timer thread: report arrival is the tick that expires
        the window, through :meth:`catch_up` on every deployment shape (a
        daemon's worker call or ``submit``, the cluster's resync tick).
        Cheap when no window is armed.
        """
        with self.lock:
            if (
                self._flush_deadline is not None
                and time.monotonic() >= self._flush_deadline
            ):
                return self.flush_pending_updates()
        return None

    def flush_pending_updates(self):
        """Apply every staged rule update to the path table now.

        Returns the updater's :class:`~repro.core.incremental.UpdateFlushStats`
        (``None`` when nothing was staged).  Safe to call at any time; the
        verification, snapshot and close paths call it implicitly.
        """
        with self.lock:
            self._flush_deadline = None
            if self.updater is None or not self.updater.pending_updates:
                return None
            stats = self.updater.flush_updates()
            self.update_flushes += 1
            self.update_flush_events += stats.events
            # The flush is the moment the table (and the change log)
            # moved: re-prove isolation for exactly the dirty slices.
            self._recheck_isolation()
        return stats

    @property
    def behind(self) -> bool:
        """Whether :meth:`catch_up` has work: a coalescing window armed,
        or a FlowMod the lazily rebuilt table has not seen.  Read
        without the lock, as a cheap pre-check."""
        return self._flush_deadline is not None or (
            self._dirty and self.updater is None
        )

    def catch_up(self) -> None:
        """Bring the path table current before a verdict is made on it:
        expire the coalescing window (:meth:`maybe_flush_updates`), then
        rebuild after a FlowMod (:meth:`refresh_if_dirty`).  The one
        catch-up of every deployment shape: the intake
        (:meth:`receive_report_bytes`) and the daemons' and cluster's
        books (:meth:`~repro.core.dispatch.Books.resync` and
        :meth:`~repro.core.dispatch.Books.settle`) call it."""
        with self.lock:
            self.maybe_flush_updates()
            self.refresh_if_dirty()

    def snapshot_now(self) -> str:
        """Checkpoint the current state; returns the snapshot path."""
        persist = self._require_durable()
        # A snapshot must capture a fully-applied table: staged events are
        # already in the WAL, but capture_state reads the path table.
        self.flush_pending_updates()
        path = persist.snapshot(
            self.topo, self.hs, self.updater, self.state_version
        )
        self._rules_since_snapshot = 0
        return path

    def close(self) -> None:
        """Flush and close durable state (no-op without ``state_dir``)."""
        if self.persist is not None:
            self.flush_pending_updates()
            self.persist.close()

    # -- report ingestion ------------------------------------------------------

    def receive_report_bytes(self, payload: bytes, record: bool = True) -> Incident:
        """Parse a UDP report payload, then verify/localize it.

        Raises :class:`ReportDecodeError` on malformed payloads; callers
        on a lossy transport dead-letter the payload themselves, as the
        daemons do.

        In durable mode the payload is appended to the WAL *before* decode
        (replay must see exactly what the live path saw, including payloads
        it went on to reject).  ``record=False`` skips the append — for
        re-ingestion paths whose payloads were already logged at first
        arrival (daemon failure re-ingest, dead-letter retries).

        This is the one-row call of :meth:`receive_report_rows`.
        """
        with self.lock:
            if record and self.persist is not None:
                self.persist.log_report(payload)
            self.catch_up()
            (outcome,) = self.receive_report_rows((payload,))
        if isinstance(outcome, Exception):
            raise outcome
        return outcome

    def receive_report_rows(self, payloads: Sequence[bytes]) -> List[object]:
        """Decode, verify, localize and log wire reports, in order.

        The server's intake for every row a replica flagged, on every
        deployment shape, and its verdict is the verdict of record: one
        :meth:`split_known`, then each new row is decoded, verified,
        attributed to its tenant and observed for coverage, then one
        :meth:`record_failures`.  A payload the live log already holds a
        failure record for is not decoded or verified again: its record
        stands in for the verdict all the way to the log.

        Returns one outcome per payload: its :class:`Incident` (the log
        entry of a failure, an unlogged record of a PASS), the
        :class:`ReportDecodeError` the codec raised (the caller dead-letters
        or counts it), or the exception verification raised.
        Nothing is WAL-logged and the coalescing window is not ticked here:
        the caller owns both, and serialises calls (see
        :meth:`record_failures`).
        """
        results, epoch = self.split_known(payloads, self.verifier)
        fresh = []
        with self.obs.span("decode", reports=len(payloads)):
            for index, payload in enumerate(payloads):
                if results[index] is not None:
                    continue
                try:
                    fresh.append((index, unpack_report(payload, self.codec)))
                except ReportDecodeError as exc:
                    results[index] = exc
        with self.obs.span("verify", reports=len(fresh)):
            for index, report in fresh:
                try:
                    results[index] = self.verifier.verify(report)
                except Exception as exc:
                    results[index] = exc
        return self._log_results(payloads, results, epoch)

    def receive_report(self, report: TagReport) -> Incident:
        """Verify one object report as its wire bytes; nothing is WAL-logged.

        Always returns a record (with a PASS verdict when nothing is wrong).
        """
        return self.receive_report_bytes(
            pack_report(report, self.codec), record=False
        )

    def _log_results(self, payloads, results, epoch: tuple) -> List[object]:
        """Attribute and observe every verified row, log the failing ones;
        an exception in ``results`` is passed through as its outcome, and
        an :class:`Incident` (a known repeat) is logged again unread."""
        failures = []
        for payload, result in zip(payloads, results):
            if isinstance(result, Exception):
                continue
            if self.slices is not None:
                # Tenant attribution is a few integer masks (LPM dict), so
                # the sliced hot path stays tenant-count-independent.
                tenant = self.slices.classify_dst(payload_dst_ip(payload)) or ""
                self.tenant_reports[tenant] = self.tenant_reports.get(tenant, 0) + 1
            # (a failure, repeat or not, only counts as an observation)
            self.coverage.observe(result)
            if not result.passed:
                failures.append((payload, result))
        logged = iter(self.record_failures(failures, epoch) if failures else ())
        return [
            result
            if isinstance(result, Exception)
            else Incident(result) if result.passed else next(logged)
            for result in results
        ]

    # -- the failure path ------------------------------------------------------
    #
    # Two calls, so a caller can verify between them without holding its
    # lock: split_known (what the log already answers, and the epoch the
    # rest must be verified under) and record_failures (log everything).

    def _failure_epoch(self) -> tuple:
        """The configuration a remembered failure answer was computed under.

        A verdict depends on the table, Algorithm 4 on the transfer
        predicates too, which a coalescing window moves (``state_version``)
        before the table catches up (``table.version``).  The table is
        named by ``id`` so a stamp does not keep a replaced table alive;
        every replacement also moves ``state_version``.  Every mutation
        bumps its version *after* it lands, so a verdict made between two
        equal readings of the epoch was made under that configuration.
        """
        table = self.table
        return (id(table), table.version, self.state_version)

    def _interned_at(self, epoch: tuple) -> Dict[bytes, Incident]:
        """The payload map, emptied first if the configuration moved."""
        if epoch != self._interned_epoch:
            self._interned = {}
            self._interned_epoch = epoch
        return self._interned

    def split_known(
        self, payloads: Sequence[bytes], verifier: Verifier
    ) -> Tuple[List[Optional[Incident]], tuple]:
        """Per payload, the live log's record of that exact failing payload.

        Returns ``(known, epoch)``.  ``known[i]`` is ``None`` when payload
        ``i`` has to be decoded and verified; otherwise it was counted on
        ``verifier`` as the repeat it is, and the caller hands the record
        itself to :meth:`record_failures` in place of a verification.
        Only records made under the current configuration answer: a rule
        change empties the map (the log itself keeps its entries).
        ``epoch`` is that configuration, read *before* the caller verifies
        anything; :meth:`record_failures` needs it back.
        """
        epoch = self._failure_epoch()
        interned = self._interned_at(epoch)
        if not interned:
            return [None] * len(payloads), epoch
        known = [interned.get(payload) for payload in payloads]
        for incident in known:
            if incident is not None:
                verifier.counters[incident.verdict] += 1
        return known, epoch

    def record_failures(
        self,
        failures: List[Tuple[bytes, object]],
        epoch: tuple,
    ) -> List[Incident]:
        """Turn failed reports into log entries, in the order given.

        The single place a failure is localized and recorded; every
        deployment shape ends here through :meth:`receive_report_rows`.
        Each item pairs the report's wire payload with its failing
        :class:`VerificationResult`, or with the record :meth:`split_known`
        found for it; ``epoch`` is what :meth:`split_known` returned before
        those results were made.  A failure is recorded as its payload
        (:meth:`Incident.from_wire`).

        A payload the live log already holds appends that same
        :class:`Incident` object again — one list slot, no PathInfer — while
        ``incidents_total``, ``localizations`` and the error/hit counters
        advance as if it had been processed afresh.  If the configuration
        moved since ``epoch`` (a rule landed while the caller verified),
        the verdicts are still logged but the map is neither read nor
        written: the next arrival of those payloads is verified again.
        Not thread-safe: concurrent callers serialise it (the daemons hold
        their lock).
        """
        current = self._failure_epoch()
        interned = self._interned_at(current) if current == epoch else None
        logged: List[Incident] = []
        records = 0
        with self.obs.span("localize", failures=len(failures)):
            for payload, result in failures:
                incident = None
                if interned is not None:
                    incident = (
                        result if type(result) is Incident else interned.get(payload)
                    )
                if incident is not None:
                    if self.localize_failures:
                        self.localizations += 1
                        if incident.candidates is None:
                            self.localization_errors += 1
                        else:
                            self.localization_cache_hits += 1
                else:
                    incident = self._record(payload, result)
                    records += 1
                    if interned is not None:
                        interned[payload] = incident
                logged.append(incident)
        self.log_incidents(logged, records)
        return logged

    def _record(self, payload: bytes, result) -> Incident:
        """A new, localized record of one failure.  ``result`` is a record
        only when the configuration moved under a known repeat, which is
        then localized afresh like every other row of its call."""
        if type(result) is Incident:
            result = result.verification
        localization = self._localize(result.report)
        return Incident.from_wire(
            payload,
            self.codec,
            result.verdict,
            result.matched_entry,
            None if localization is None else localization.candidates,
        )

    def _localize(self, report: TagReport) -> Optional[LocalizationResult]:
        """Algorithm 4 for one fresh failure (``None`` = unlocalized)."""
        if not self.localize_failures:
            return None
        self.localizations += 1
        localizer = self.localizer
        shared = localizer.shared
        # Localization is best-effort diagnosis: a report exotic enough to
        # crash Algorithm 4 (e.g. a switch the path table has never seen)
        # must still produce its incident, just unlocalized.
        try:
            result = localizer.localize(report)
        except Exception:
            self.localization_errors += 1
            return None
        self.localization_cache_hits += localizer.shared - shared
        return result

    def log_incidents(
        self, incidents: List[Incident], records: Optional[int] = None
    ) -> None:
        """Append detected inconsistencies to the operator log (counted).

        ``incidents_total`` keeps growing across :meth:`drain_incidents`,
        so the ``veridp_incidents_total`` counter stays monotonic even
        though the log itself is drained.  ``records`` is how many of the
        entries are objects the log did not hold yet (all of them unless
        the caller says otherwise).
        """
        with self.obs.span("incident", count=len(incidents)):
            self.incidents.extend(incidents)
            self.incidents_total += len(incidents)
            self.incident_records += len(incidents) if records is None else records

    # -- operator-facing state ----------------------------------------------

    def drain_incidents(self) -> List[Incident]:
        """Return and clear the inconsistency log.

        What was remembered on the log's behalf goes with it: the payload
        map and the localizer's stored classes.
        """
        incidents = self.incidents
        self.incidents = []
        self.incident_records = 0
        self._interned = {}
        self.localizer.forget()
        return incidents

    def stats(self) -> Dict[str, object]:
        """Verification counters plus path-table shape.

        This is the *server-local* view (this instance's own verifier);
        a daemon's ``stats()``/``/metrics`` carry the merged fleet view.
        Keys here mirror the metric catalogue in DESIGN.md §8.
        """
        table_stats = self.table.stats()
        verifier = self.verifier
        coverage = self.coverage.report()
        out = {
            "verified": verifier.verified_count,
            "passed": verifier.counters[Verdict.PASS],
            "failed": verifier.failure_count,
            "incidents": len(self.incidents),
            "incidents_total": self.incidents_total,
            "incident_records": self.incident_records,
            "localizations": self.localizations,
            "localization_errors": self.localization_errors,
            "localization_cache_hits": self.localization_cache_hits,
            "localization_classes": self.localizer.classes,
            "path_table_pairs": table_stats.num_pairs,
            "path_table_paths": table_stats.num_paths,
            "path_table_version": self.table.version,
            "avg_path_length": table_stats.avg_path_length,
            "coverage_path_ratio": coverage.path_coverage,
            "coverage_pair_ratio": coverage.pair_coverage,
            "coverage_hop_ratio": coverage.hop_coverage,
            "coverage_dark_paths": len(coverage.dark_paths),
            "coverage_dark_pairs": len(coverage.dark_pairs),
            "coverage_observations": self.coverage.observations,
            "state_version": self.state_version,
            "durable": self.persist is not None,
            "incremental": self.updater is not None,
            "build_time_s": self.table.build_time_s,
            "coalesce_ms": self.coalesce_ms,
            "pending_updates": (
                0 if self.updater is None else self.updater.pending_updates
            ),
            "update_flushes": self.update_flushes,
            "update_flush_events": self.update_flush_events,
            "bdd_cache": self.hs.bdd.cache_counters(),
            "bdd_generation": self.hs.bdd.generation,
            "bdd_memos": self.hs.bdd.memo_sizes(),
        }
        if self.slices is not None:
            out["tenants"] = {
                name: {
                    "view_pairs": len(view),
                    "view_paths": view.num_paths(),
                    "reports": self.tenant_reports.get(name, 0),
                    "pair_syncs": view.pair_syncs,
                }
                for name, view in self.tenant_views.items()
            }
            iso = self.isolation
            out["isolation"] = {
                "incidents": len(self.isolation_incidents),
                "incidents_total": self.isolation_incidents_total,
                "checks_total": iso.checks_total,
                "full_checks": iso.full_checks,
                "incremental_checks": iso.incremental_checks,
                "last_table_pairs": iso.last_table_pairs,
                "last_tenant_pairs": iso.last_tenant_pairs,
            }
        if self.persist is not None:
            out["boot_source"] = self.boot_source
            out.update(self.persist.stats())
        return out
