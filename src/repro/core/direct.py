"""The direct daemon: a thread pool verifying frames against the server.

:class:`VeriDPDaemon` drains a bounded, report-weighted queue of
:class:`~repro.core.reports.Frame` items.  Each worker takes whatever is
queued (up to ``_VERIFY_MAX_ROWS`` reports), verifies it in one wire-kernel
call, and salvages the flagged rows through the server's scalar verifier
and failure log.  A single payload is a one-row frame: there is no second,
per-datagram path.  CPU-bound verification is GIL-serialised in CPython,
so threads buy concurrency (socket + verify overlap), not parallelism;
:class:`~repro.core.sharded.ShardedVeriDPDaemon` is the parallel shape.
"""

from __future__ import annotations

import threading
import time
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

from ..obs import DEFAULT_BUCKETS, Observability
from .ingest import dst_ips as _frame_dst_ips
from .replica import build_one_shard_spec, unframe_batch, wire_packing
from .reports import (
    REPORT_SIZE,
    Frame,
    ReportDecodeError,
    payload_precheck,
    unpack_report,
)
from .resilience import (
    DeadLetterQueue,
    OverflowPolicy,
    PolicyQueue,
    TenantQuotaQueue,
)
from .server import VeriDPServer
from .vector import (
    HAVE_NUMPY as _HAVE_VECTOR,
    MIN_BATCH as _VECTOR_MIN_BATCH,
    WireBatchVerifier,
)
from .verifier import Verdict, Verifier

if TYPE_CHECKING:
    from ..obs.httpd import MetricsEndpoint

__all__ = ["VeriDPDaemon"]

_STOP = object()

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


class VeriDPDaemon:
    """Multi-worker report verification on top of a :class:`VeriDPServer`.

    The underlying server's verify/localize machinery is pure computation
    over a shared read-only path table; workers drain the queue in slices
    (whatever is queued, up to ``_VERIFY_MAX_ROWS`` reports, all of a
    slice's frames in one wire-kernel call) and serialise only one
    counter/incident update per batch under a lock.

    The ingestion queue is a :class:`PolicyQueue`: ``overflow`` selects what
    a full queue does (``"block"``, ``"drop-oldest"``, ``"drop-new"``), and
    every dropped payload increments a policy-specific counter surfaced in
    :meth:`stats`.  On a server with a slice registry it is a
    :class:`TenantQuotaQueue` capped by the registry's queue shares.
    Payloads that fail :func:`unpack_report` or crash the verifier are
    dead-lettered, not fatal.
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
        self._worker_verifiers: List[Verifier] = []
        self._running = False
        self.workers = workers
        self.submit_timeout = submit_timeout
        self.rejected = 0  # wrong-length payloads refused by submit()
        self.processed = 0
        self.malformed = 0  # undecodable payloads (must not kill a worker)
        self.verify_errors = 0  # payloads that crashed the verifier
        self.frames = 0  # frames handed over via submit_frame
        self._wire_pass = 0  # frame rows bulk-passed by the wire kernel
        self._wirev: Optional[WireBatchVerifier] = None
        self._wirev_version = -1
        self._wirev_failed = not _HAVE_VECTOR
        self._wirev_lock = threading.Lock()
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
        default — latest owner wins, and the daemon's view (server +
        worker verifiers) is a superset of the server's own.
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
        self._batch_hist = reg.histogram(
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
        merged = {v: n for v, n in self.server.verifier.counters.items()}
        for verifier in self._worker_verifiers:
            for verdict, count in verifier.counters.items():
                merged[verdict] += count
        # Rows the frame fast path bulk-passed without materialising a
        # TagReport (scalar-parity pinned: a wire-kernel PASS is a PASS).
        merged[Verdict.PASS] += self._wire_pass
        return {(v.value,): n for v, n in merged.items()}

    # -- lifecycle -----------------------------------------------------------

    def start(self) -> None:
        """Spin up the worker pool (idempotent)."""
        if self._running:
            return
        self._running = True
        if self._endpoint is not None:
            self._endpoint.start()
        self.server.refresh_if_dirty()
        self._worker_verifiers = []
        for index in range(self.workers):
            # Worker-local verifiers: counters are per-thread (merged in
            # stats()), the path table is shared read-only.
            verifier = Verifier(
                self.server.table,
                self.server.hs,
                fast_path=self.server.fast_path,
            )
            self._worker_verifiers.append(verifier)
            thread = threading.Thread(
                target=self._worker,
                args=(verifier,),
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

    def _worker(self, verifier: "Verifier") -> None:
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
                    self._process_frames(verifier, frames)
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

    def _wire_verifier(self) -> Optional[WireBatchVerifier]:
        """Lazily compiled wire-format batch kernel for the frame fast path.

        Compiled from the same spec builder the sharded daemon ships to its
        workers (one shard covering every pair), cached against the path
        table version, and permanently disabled for layouts
        :func:`wire_packing` cannot express — those fall back to the scalar
        path wholesale.
        """
        if self._wirev_failed:
            return None
        version = self.server.table.version
        wirev = self._wirev
        if wirev is not None and self._wirev_version == version:
            return wirev
        with self._wirev_lock:
            if self._wirev is None or self._wirev_version != version:
                try:
                    packing = wire_packing(self.server.hs.layout)
                    pairs = build_one_shard_spec(
                        self.server.table,
                        self.server.hs,
                        self.server.codec,
                        workers=1,
                        shard=0,
                    )
                    self._wirev = WireBatchVerifier(pairs, packing)
                    self._wirev_version = version
                except Exception:
                    self._wirev_failed = True
                    self._wirev = None
                    return None
            return self._wirev

    def _process_frames(self, verifier: "Verifier", frames: List[Frame]) -> None:
        """Verify a slice's frames in one wire-kernel call: bulk-pass clean
        rows, route every flagged row (failure, malformed, scalar-only pair)
        through :meth:`_process_batch` in arrival order so incidents / DLQ
        records / counters are bit-identical to the scalar verifier's."""
        # (joining a lone frame's payload returns that same bytes object)
        payload = b"".join([frame.payload() for frame in frames])
        n = len(payload) // REPORT_SIZE
        wirev = self._wire_verifier() if n >= _VECTOR_MIN_BATCH else None
        codes = None
        if wirev is not None:
            try:
                with self.obs.span("verify", reports=n):
                    started = time.perf_counter()
                    codes = wirev.verify_frame(payload)
                    elapsed = time.perf_counter() - started
            except Exception:
                pass  # the scalar path below reaches the same verdicts
        if codes is None:
            self._process_batch(verifier, unframe_batch(payload, []))
            return
        self._batch_hist.observe(elapsed)
        self._call_rows_hist.observe(n)
        flagged = codes.nonzero()[0]
        pass_rows = n - int(flagged.shape[0])
        if pass_rows:
            with self._lock:
                self.processed += pass_rows
                self._wire_pass += pass_rows
        if flagged.shape[0]:
            salvage = [
                payload[o : o + REPORT_SIZE]
                for o in (flagged * REPORT_SIZE).tolist()
            ]
            self._process_batch(verifier, salvage)

    def _process_batch(self, verifier: "Verifier", payloads: List[bytes]) -> None:
        server = self.server
        codec = server.codec
        # Repeats of a failing payload the server's log already holds are
        # neither decoded nor verified again.  One slot per payload keeps
        # the failures in arrival order: a slot ends up holding the
        # payload's failing result (a repeat's is its record's), or None.
        with self._lock:
            known, epoch = server.split_known(payloads, verifier)
        slots: list = [None if k is None else k.verification for k in known]
        reports = []
        positions: List[int] = []
        malformed = 0
        # Spans are batch-granular on purpose: one ring append per batch is
        # noise-level cost, one per report would not be (see DESIGN.md §8).
        with self.obs.span("decode", reports=len(payloads)):
            for index, payload in enumerate(payloads):
                if slots[index] is not None:
                    continue
                try:
                    reports.append(unpack_report(payload, codec))
                    positions.append(index)
                except ReportDecodeError as exc:
                    malformed += 1
                    self.dead_letters.add(payload, "decode", exc)
        verify_errors = 0
        if reports:
            # Pure computation outside the lock.
            try:
                with self.obs.span("verify", reports=len(reports)):
                    batch_result = verifier.verify_batch(reports)
                failed = iter(batch_result.failures)
                for index, verdict in zip(positions, batch_result.verdicts):
                    if verdict is not Verdict.PASS:
                        slots[index] = next(failed)
                self._batch_hist.observe(batch_result.elapsed_s)
            except Exception:
                # One poisoned report must not take down its batch-mates:
                # retry one by one and dead-letter only the culprit(s).
                for index, report in zip(positions, reports):
                    try:
                        result = verifier.verify(report)
                    except Exception as exc:
                        verify_errors += 1
                        self.dead_letters.add(payloads[index], "verify", exc)
                        continue
                    slots[index] = None if result.passed else result
        failures = [
            (payload, result)
            for payload, result in zip(payloads, slots)
            if result is not None
        ]
        with self._lock:
            self.processed += len(payloads) - malformed - verify_errors
            self.malformed += malformed
            self.verify_errors += verify_errors
            if failures:
                # Localization and the log share state across workers (the
                # payload map, the localizer's classes): one at a time.
                server.record_failures(failures, epoch)

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
        """Daemon-level counters plus merged per-worker verification counts.

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
            }
        merged["verified"] = merged["wire_pass"] + sum(
            v.verified_count for v in self._worker_verifiers
        )
        merged["failed"] = sum(
            v.failure_count for v in self._worker_verifiers
        )
        if "tenants" in queue_stats:
            merged["tenants"] = queue_stats["tenants"]
        merged.update(self.dead_letters.stats())
        return merged
