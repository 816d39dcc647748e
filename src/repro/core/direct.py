"""The direct daemon: the in-thread transport of one shard replica.

:class:`VeriDPDaemon` drains a bounded, report-weighted queue of
:class:`~repro.core.reports.Frame` items.  Each worker takes whatever is
queued (up to ``_VERIFY_MAX_ROWS`` reports) and verifies it in one call to
the daemon's :class:`~repro.core.replica.ShardReplica` — the replica the
sharded daemon's workers and the cluster's nodes run, here covering every
pair and called under one lock.  The rows it flags go to the server's
intake (:meth:`~repro.core.server.VeriDPServer.receive_report_rows`).  A
single payload is a one-row frame: there is no second, per-datagram path.
CPU-bound verification is GIL-serialised in CPython, so threads buy
concurrency (socket + verify overlap), not parallelism;
:class:`~repro.core.sharded.ShardedVeriDPDaemon` is the parallel shape.
"""

from __future__ import annotations

import math
import threading
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

from ..obs import DEFAULT_BUCKETS, Observability
from .ingest import dst_ips as _frame_dst_ips
from .replica import Delta, ShardReplica, resync_specs, wire_packing
from .reports import REPORT_SIZE, Frame, ReportDecodeError, payload_precheck
from .resilience import (
    DeadLetterQueue,
    OverflowPolicy,
    PolicyQueue,
    TenantQuotaQueue,
)
from .server import VeriDPServer
from .vector import MIN_BATCH as _VECTOR_MIN_BATCH
from .verifier import Verdict

if TYPE_CHECKING:
    from ..obs.httpd import MetricsEndpoint

__all__ = ["VeriDPDaemon"]

_STOP = object()
_PASS = Verdict.PASS.value
_NO_SWITCH = "a wire port id names no switch"

#: Most reports the direct daemon's worker takes from its queue at once, and
#: so the most rows one wire-kernel call verifies.  What it spreads is the
#: kernel's fixed cost per call (80-140 us): a row costs 6-7x less at 4,096
#: rows than in a lone 128-row frame, 16k rows would buy another 3-11% for
#: 1.7 MiB of temporaries instead of 0.5, and no deployment has asked for a
#: different value, hence a constant (DESIGN.md §11.2).  It bounds a
#: backlog only: a worker never waits for rows to arrive.
_VERIFY_MAX_ROWS = 4096


def _log_frame(persist, frame: Frame) -> None:
    """WAL a frame as one ``RT_REPORT_BATCH`` record (durable servers)."""
    persist.log_report_frame(frame.payload())


def settle(server: VeriDPServer, delta: Delta):
    """Count a replica's delta by the server's verdict of record.

    The replica's failures go through
    :meth:`VeriDPServer.receive_report_rows` in one call and are counted by
    its outcome, not the replica's: ``malformed`` when the codec rejects
    one (a dead letter at ``decode``), ``crashed`` when verification raised
    (at ``verify``), else ``processed`` under the server's verdict (a stale
    replica's FAIL the current table passes counts PASS).  The replica's
    PASS rows, malformed rows (its sample dead-lettered at ``decode``) and
    crashes are taken as they are.  Returns ``(processed, malformed,
    crashed, counters, letters)``: ``counters`` by :class:`Verdict`,
    ``letters`` the ``(payload, stage, error)`` dead letters.  The caller
    serialises calls.
    """
    rows = [payload for payload, _verdict in delta.failures]
    # Every non-PASS verdict the replica counted is one of its failures.
    processed = delta.processed - len(delta.failures)
    malformed = delta.malformed
    crashed = len(delta.crashed)
    counters = {Verdict.PASS: delta.counters[_PASS]}
    letters = [(p, "verify", RuntimeError(error)) for p, error in delta.crashed]
    letters += [
        (p, "decode", ReportDecodeError(payload_precheck(p) or _NO_SWITCH))
        for p in delta.malformed_sample
    ]
    for payload, outcome in zip(rows, server.receive_report_rows(rows) if rows else ()):
        if isinstance(outcome, ReportDecodeError):
            malformed += 1
            letters.append((payload, "decode", outcome))
        elif isinstance(outcome, Exception):
            crashed += 1
            letters.append((payload, "verify", outcome))
        else:
            processed += 1
            verdict = outcome.verdict
            counters[verdict] = counters.get(verdict, 0) + 1
    return processed, malformed, crashed, counters, letters


class VeriDPDaemon:
    """Multi-worker report verification on top of a :class:`VeriDPServer`.

    Workers drain the queue in slices (whatever is queued, up to
    ``_VERIFY_MAX_ROWS`` reports) and hand each slice to one
    :class:`ShardReplica` covering every pair, under one replica lock: the
    replica is brought current with the path table by pair deltas, verifies
    the slice's frames in one call, and its flagged rows go through the
    server's intake, whose verdicts these counters follow.  The replica is
    compiled at the first frame, not at :meth:`start`.

    The ingestion queue is a :class:`PolicyQueue`: ``overflow`` selects what
    a full queue does (``"block"``, ``"drop-oldest"``, ``"drop-new"``), and
    every dropped payload increments a policy-specific counter surfaced in
    :meth:`stats`.  On a server with a slice registry it is a
    :class:`TenantQuotaQueue` capped by the registry's queue shares.
    Payloads that fail :func:`unpack_report` or crash the verifier are
    dead-lettered, not fatal.  Like every shard replica, it needs the wire
    5-tuple header layout (:func:`~repro.core.replica.wire_packing`).
    """

    def __init__(
        self,
        server: VeriDPServer,
        workers: int = 2,
        queue_size: int = 10_000,
        overflow: "OverflowPolicy | str" = OverflowPolicy.DROP_NEW,
        submit_timeout: Optional[float] = None,
        dead_letter_capacity: int = 1024,
        dead_letter_attempts: int = 3,
        obs: Optional[Observability] = None,
        metrics_port: Optional[int] = None,
        metrics_host: str = "127.0.0.1",
    ) -> None:
        if workers <= 0:
            raise ValueError(f"need at least one worker, got {workers}")
        self.server = server
        # Durable servers log payloads at submit time; the sharded daemon's
        # thread fallback wraps the same server and clears this flag so a
        # delegated submit is not logged twice.
        self.record_reports = True
        self.obs = obs or server.obs
        self.overflow = OverflowPolicy.coerce(overflow)
        # Per-tenant queue quotas (multi-tenant deployments): one tenant's
        # report storm cannot consume the whole buffer (DESIGN.md §13).
        registry = getattr(server, "slices", None)
        if registry is not None:
            self._queue: PolicyQueue = TenantQuotaQueue(
                queue_size, self.overflow, shares=registry.queue_shares()
            )
        else:
            self._queue = PolicyQueue(queue_size, self.overflow)
        self._lock = threading.Lock()
        self._threads: List[threading.Thread] = []
        self._running = False
        self.workers = workers
        self.submit_timeout = submit_timeout
        self.rejected = 0  # wrong-length payloads refused by submit()
        self.processed = 0
        self.malformed = 0  # undecodable payloads (must not kill a worker)
        self.verify_errors = 0  # payloads that crashed the verifier
        self.frames = 0  # frames handed over via submit_frame
        self._replica_pass = 0  # rows the replica passed without the server
        self._wire_pass = 0  # of those, rows the wire kernel passed in bulk
        self.counters: Dict[Verdict, int] = {v: 0 for v in Verdict}
        self._packing = wire_packing(server.hs.layout)
        self._replica: Optional[ShardReplica] = None
        self._replica_lock = threading.Lock()
        self._replica_version = -1
        self._dirty_token: Optional[Tuple[int, int]] = None
        self.dead_letters = DeadLetterQueue(
            capacity=dead_letter_capacity, max_attempts=dead_letter_attempts
        )
        self._register_metrics()
        self._endpoint: Optional[MetricsEndpoint] = None
        if metrics_port is not None:
            self._endpoint = self.obs.endpoint(
                host=metrics_host,
                port=metrics_port,
                health=self._health,
                varz=self.stats,
            ).start()

    @property
    def submitted(self) -> int:
        """Payloads offered to :meth:`submit` / :meth:`submit_frame`
        (admitted or not)."""
        return self._queue.puts + self.rejected

    @property
    def dropped(self) -> int:
        """Total payloads lost to backpressure, across all policies."""
        return (
            self._queue.dropped_new
            + self._queue.dropped_oldest
            + self._queue.block_timeouts
        )

    @property
    def metrics_address(self) -> Optional[Tuple[str, int]]:
        """``(host, port)`` of the live monitoring endpoint, if enabled."""
        return None if self._endpoint is None else self._endpoint.address

    def _health(self) -> Tuple[bool, dict]:
        return self._running, {"mode": "thread", "workers": self.workers}

    def _register_metrics(self) -> None:
        """Expose daemon state on the shared registry (callback-sourced).

        Hot-path counters stay plain ints updated under :attr:`_lock`; the
        registry reads them at scrape time.  The merged-fleet verification
        families re-register the ones :class:`VeriDPServer` owns by
        default — latest owner wins, and the daemon's view (the server's
        verifier, which re-verifies every flagged row, plus the replica's
        passes) is a superset of the server's own.
        """
        reg = self.obs.registry
        reg.counter(
            "veridp_submitted_total",
            "Report payloads offered to the daemon (admitted or not).",
            callback=lambda: self.submitted,
        )
        reg.counter(
            "veridp_processed_total",
            "Payloads fully verified by the worker pool.",
            callback=lambda: self.processed,
        )
        reg.counter(
            "veridp_malformed_total",
            "Payloads the decoder rejected (dead-lettered, not fatal).",
            callback=lambda: self.malformed,
        )
        reg.counter(
            "veridp_verify_errors_total",
            "Payloads that crashed the verifier (dead-lettered).",
            callback=lambda: self.verify_errors,
        )
        reg.gauge(
            "veridp_queue_depth",
            "Report payloads waiting in the ingestion queue.",
            callback=lambda: self._queue.qsize(),
        )
        reg.gauge(
            "veridp_queue_capacity",
            "Bound of the ingestion queue.",
            callback=lambda: self._queue.maxsize,
        )
        reg.counter(
            "veridp_queue_dropped_total",
            "Payloads lost to backpressure, by overflow policy decision.",
            ("policy",),
            callback=lambda: {
                ("drop-new",): self._queue.dropped_new,
                ("drop-oldest",): self._queue.dropped_oldest,
                ("block-timeout",): self._queue.block_timeouts,
            },
        )
        if isinstance(self._queue, TenantQuotaQueue):
            reg.gauge(
                "veridp_tenant_queue_depth",
                "Report payloads queued, by owning tenant.",
                ("tenant",),
                callback=lambda: {
                    (tenant,): row["queued"]
                    for tenant, row in self._queue.stats()["tenants"].items()
                },
            )
            reg.counter(
                "veridp_tenant_queue_dropped_total",
                "Payloads refused by per-tenant quota or policy, by tenant.",
                ("tenant",),
                callback=lambda: {
                    (tenant,): row["dropped"]
                    for tenant, row in self._queue.stats()["tenants"].items()
                },
            )
        reg.gauge(
            "veridp_workers",
            "Verification workers in the pool.",
            callback=lambda: self.workers,
        )
        reg.counter(
            "veridp_verifications_total",
            "Tag reports verified, by Algorithm 3 verdict (merged fleet).",
            ("verdict",),
            callback=self._merged_verdicts,
        )
        reg.counter(
            "veridp_dead_letters_total",
            "Payloads dead-lettered since start.",
            callback=lambda: self.dead_letters.total,
        )
        reg.gauge(
            "veridp_dead_letter_pending",
            "Dead letters awaiting retry.",
            callback=lambda: self.dead_letters.pending,
        )
        reg.gauge(
            "veridp_dead_letter_quarantined",
            "Dead letters past the retry budget.",
            callback=lambda: self.dead_letters.quarantined,
        )
        self._batch_seconds = reg.histogram(
            "veridp_verify_batch_seconds",
            "Wall-clock seconds spent verifying one batch of reports.",
            buckets=DEFAULT_BUCKETS,
        ).labels()
        reg.counter(
            "veridp_ingest_frames_total",
            "Report frames handed to the daemon by batched ingestion.",
            callback=lambda: self.frames,
        )
        self._call_rows_hist = reg.histogram(
            "veridp_verify_call_rows",
            "Frame rows verified per wire-kernel call.",
            buckets=(32, 64, 128, 256, 512, 1024, 2048, 4096),
        ).labels()
        self._frame_rows_hist = reg.histogram(
            "veridp_ingest_frame_rows",
            "Reports per frame at the queue handoff.",
            buckets=(1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024),
        ).labels()

    def _merged_verdicts(self) -> Dict[tuple, int]:
        merged = {(v.value,): n for v, n in self.server.verifier.counters.items()}
        # Rows the replica passed without materialising a TagReport
        # (scalar-parity pinned: a wire-kernel PASS is a PASS).
        merged[(Verdict.PASS.value,)] += self._replica_pass
        return merged

    # -- lifecycle -----------------------------------------------------------

    def start(self) -> None:
        """Spin up the worker pool (idempotent)."""
        if self._running:
            return
        self._running = True
        if self._endpoint is not None:
            self._endpoint.start()
        self.server.refresh_if_dirty()
        for index in range(self.workers):
            thread = threading.Thread(
                target=self._worker,
                name=f"veridp-worker-{index}",
                daemon=True,
            )
            thread.start()
            self._threads.append(thread)

    def stop(self) -> None:
        """Drain the queue and stop the workers."""
        if not self._running:
            return
        for _ in self._threads:
            self._queue.put(_STOP, force=True)
        for thread in self._threads:
            thread.join(timeout=5)
        self._threads.clear()
        self._running = False
        if self._endpoint is not None:
            self._endpoint.stop()

    def __enter__(self) -> "VeriDPDaemon":
        self.start()
        return self

    def __exit__(self, *exc_info) -> None:
        self.stop()

    # -- ingestion ---------------------------------------------------------

    def submit(self, payload: bytes) -> bool:
        """Enqueue one wire-format report as a one-row frame; False if
        backpressure refused it.

        What "refused" means depends on the overflow policy: ``drop-new``
        rejects the new payload (UDP tail drop), ``drop-oldest`` admits it
        by evicting the oldest queued payload (the eviction is counted, the
        call still returns True), ``block`` waits up to ``submit_timeout``
        (forever when None).  Every variety of loss is visible in
        :meth:`stats` instead of silent.

        On a durable server the payload hits the WAL here, *before* queue
        admission: replay must see what arrived, including payloads the
        overflow policy then refused (a dropped report is still evidence).
        A payload that is not one report long cannot become a frame row: it
        is dead-lettered here, counted once in ``submitted`` and once in
        ``malformed``.
        """
        persist = self.server.persist
        if persist is not None and self.record_reports:
            persist.log_report(payload)
        if len(payload) != REPORT_SIZE:
            self.dead_letters.add(
                payload, "decode", ReportDecodeError(payload_precheck(payload))
            )
            with self._lock:
                self.rejected += 1
                self.malformed += 1
            return True
        return self._put_frame(Frame(payload)) == 1

    def submit_frame(self, frame: Frame) -> int:
        """Enqueue a frame of pre-screened wire reports; returns how many
        rows the overflow policy admitted.

        The frame rides the queue as one item (weighted by its row count),
        so the whole handoff costs one lock acquisition and one condvar
        signal regardless of size.  On a durable server the WAL gets one
        ``RT_REPORT_BATCH`` record per frame.  Partial admission narrows
        the frame's window instead of copying; refused rows are counted
        per report by the queue.
        """
        count = frame.count
        if count == 0:
            return 0
        persist = self.server.persist
        if persist is not None and self.record_reports:
            _log_frame(persist, frame)
        admitted = self._put_frame(frame)
        with self._lock:
            self.frames += 1
        self._frame_rows_hist.observe(count)
        return admitted

    def _put_frame(self, frame: Frame) -> int:
        if isinstance(self._queue, TenantQuotaQueue):
            return self._queue.put_frame(
                frame,
                timeout=self.submit_timeout,
                tenants=self._classify_frame(frame),
            )
        return self._queue.put_frame(frame, timeout=self.submit_timeout)

    def _classify_frame(self, frame: Frame) -> Optional[List[Optional[str]]]:
        """Per-row tenant attribution for a frame (one vectorized LPM);
        ``None`` (unattributed) once the server has no slice registry."""
        registry = getattr(self.server, "slices", None)
        if registry is None:
            return None
        return registry.classify_dst_batch(_frame_dst_ips(frame.payload()))

    def join(self, timeout: Optional[float] = None) -> bool:
        """Block until every queued report has been processed."""
        return self._queue.join(timeout=timeout)

    def retry_dead_letters(self) -> Tuple[int, int]:
        """Re-run pending dead letters through the server's full pipeline.

        Useful after a codec/table update fixed the original cause.  Returns
        ``(recovered, quarantined_now)``.  Retried payloads were already
        WAL-logged at first arrival, so the re-ingest skips recording.
        """
        return self.dead_letters.retry(
            lambda payload: self.server.receive_report_bytes(payload, record=False)
        )

    def dead_letter_transport(self, payload: bytes, reason: str) -> None:
        """Record a payload rejected before queue admission (wrong size or
        version, or a submit that raised).  The transport keeps the evidence
        instead of discarding it: dead-letter queue, malformed counter, and
        the WAL's malformed stream on a durable server.
        """
        self.dead_letters.add(payload, "transport", ReportDecodeError(reason))
        with self._lock:
            self.malformed += 1
        persist = self.server.persist
        if persist is not None:
            persist.log_malformed(payload)

    # -- worker loop -----------------------------------------------------------

    def _worker(self) -> None:
        q = self._queue
        while True:
            # One blocking wait for the first item, then whatever is already
            # queued behind it, up to _VERIFY_MAX_ROWS reports: frames come
            # back whole, and all of a slice's frames share one kernel call,
            # so the call is as deep as the backlog and an idle daemon still
            # verifies a frame the moment it arrives.
            items = q.get_many(_VERIFY_MAX_ROWS)
            stop = False
            frames: List[Frame] = []
            done = 0
            for item in items:
                if item is _STOP:
                    # stop() enqueues one token per worker and a deep slice
                    # can hold several: this worker ends after the slice,
                    # the other tokens go back for the workers they are for.
                    if stop:
                        q.put(_STOP, force=True)
                    stop = True
                    done += 1
                else:
                    frames.append(item)
                    done += item.count
            if frames:
                try:
                    self._process_frames(frames)
                except Exception as exc:  # pragma: no cover - last resort
                    # A slice must never kill a worker: dead-letter it
                    # wholesale and carry on.
                    for frame in frames:
                        for payload in frame.rows():
                            self.dead_letters.add(payload, "verify", exc)
                    with self._lock:
                        self.verify_errors += sum(f.count for f in frames)
            q.task_done(done)
            if stop:
                return

    def _synced_replica(self) -> ShardReplica:
        """The replica, current with the path table (replica lock held).

        Compiled whole at the first frame; after that only the pairs the
        table's dirty journal names are recompiled, and a whole reload
        happens only on journal overflow or a swapped table.
        """
        server = self.server
        replica = self._replica
        if replica is not None and server.table.version == self._replica_version:
            return replica
        sync = resync_specs(
            server.table, server.hs, server.codec, 1, self._dirty_token
        )
        if replica is None:
            # Every malformed row is dead-lettered here, so keep them all.
            replica = self._replica = ShardReplica(
                0, self._packing, sync.specs[0], sample_cap=math.inf
            )
        elif sync.full:
            replica.reload(sync.specs[0])
        else:
            replica.patch(sync.specs[0])
        self._replica_version, self._dirty_token = sync.version, sync.token
        return replica

    def _process_frames(self, frames: List[Frame]) -> None:
        """Verify a slice's frames in one replica call, then settle the
        rows it flagged through the server's intake, in arrival order."""
        # (joining a lone frame's payload returns that same bytes object)
        payload = b"".join([frame.payload() for frame in frames])
        n = len(payload) // REPORT_SIZE
        with self._replica_lock:
            replica = self._synced_replica()
            with self.obs.span("verify", reports=n):
                wire_pass = replica.verify(payload)
            delta = replica.drain()
        self._batch_seconds.observe(delta.seconds)
        if replica.vector and n >= _VECTOR_MIN_BATCH:
            self._call_rows_hist.observe(n)
        passed = delta.counters[_PASS]
        with self._lock:
            self._replica_pass += passed
            self._wire_pass += wire_pass
            if delta.processed == passed and not (delta.malformed or delta.crashed):
                # Nothing flagged: no intake call.
                self.processed += passed
                self.counters[Verdict.PASS] += passed
                return
            # The intake shares the payload map and the localizer's classes
            # across workers: one settle at a time.
            processed, malformed, crashed, counters, letters = settle(
                self.server, delta
            )
            self.processed += processed
            self.malformed += malformed
            self.verify_errors += crashed
            for verdict, count in counters.items():
                self.counters[verdict] += count
        for letter in letters:
            self.dead_letters.add(*letter)

    # -- maintenance -----------------------------------------------------------

    def pause_and_refresh(self) -> bool:
        """Quiesce workers, rebuild the path table if stale, resume."""
        was_running = self._running
        if was_running:
            self.stop()
        refreshed = self.server.refresh_if_dirty()
        if was_running:
            self.start()
        return refreshed

    def stats(self) -> Dict[str, int]:
        """Daemon-level counters, verdicts counted by the verdict of record.

        Drop keys follow :meth:`PolicyQueue.stats` (DESIGN.md §8):
        ``dropped_new`` / ``dropped_oldest`` / ``block_timeouts`` with
        ``dropped`` as their total.  After :meth:`join` the ledger closes
        exactly::

            submitted == processed + malformed + verify_errors + dropped
        """
        queue_stats = self._queue.stats()
        with self._lock:
            merged = {
                "submitted": queue_stats["puts"] + self.rejected,
                "processed": self.processed,
                "malformed": self.malformed,
                "verify_errors": self.verify_errors,
                "queued": queue_stats["queued"],
                "workers": self.workers,
                "frames": self.frames,
                "wire_pass": self._wire_pass,
                "incidents": len(self.server.incidents),
                "incidents_total": self.server.incidents_total,
                "overflow_policy": self.overflow.value,
                "dropped_new": queue_stats["dropped_new"],
                "dropped_oldest": queue_stats["dropped_oldest"],
                "block_timeouts": queue_stats["block_timeouts"],
                "dropped": queue_stats["dropped"],
                "verified": sum(self.counters.values()),
            }
            merged["failed"] = merged["verified"] - self.counters[Verdict.PASS]
        if "tenants" in queue_stats:
            merged["tenants"] = queue_stats["tenants"]
        merged.update(self.dead_letters.stats())
        return merged
