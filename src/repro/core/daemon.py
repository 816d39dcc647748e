"""Concurrent VeriDP server daemons.

The paper's prototype verifies ~5x10^5 reports/second single-threaded and
notes "we expect a higher throughput with multi-threading in the future"
(Section 6.4).  This module supplies that deployment shell in two shapes:

* :class:`VeriDPDaemon` — a thread pool draining a bounded queue of report
  payloads in batches (batching amortises lock traffic and clock reads via
  :meth:`~repro.core.verifier.Verifier.verify_batch`); verification
  counters and the incident log are consolidated thread-safely, and
  localization runs on the worker that caught the failure.  CPU-bound
  verification is still GIL-serialised in CPython, so threads buy
  concurrency (socket + verify overlap), not parallelism,
* :class:`ShardedVeriDPDaemon` — a ``multiprocessing`` worker pool that
  shards reports by ``(inport, outport)`` hash across processes.  Each
  worker is a queue transport over a
  :class:`~repro.core.replica.ShardReplica` — its shard of the path table
  compiled to flat arrays (no BDD manager, no topology) — which verifies
  wire payloads locally and ships its flush delta (counters, failed
  payloads) back over a result queue; the parent consolidates counters and
  runs localization/incident logging for the (rare) failures.  The cluster
  tier's nodes are the TCP transport over the same replica.  This is the
  mode that turns the GIL-flat throughput curve into a scaling one when
  cores are available,
* :class:`UdpReportListener` — an optional real UDP socket (the paper's
  transport: "tag reports ... are encapsulated with plain UDP packets")
  that feeds received datagrams into a daemon.

Resilience (the monitoring plane's own failure model — see DESIGN.md,
"Failure model of the monitoring plane"):

* ingestion queues are bounded with an explicit
  :class:`~repro.core.resilience.OverflowPolicy` and per-policy drop
  counters — overload is accounted, never silent,
* payloads that fail decoding or crash verification land in a
  :class:`~repro.core.resilience.DeadLetterQueue` with retry-then-
  quarantine semantics instead of killing a worker,
* the sharded daemon is supervised: dead or wedged worker processes are
  detected (exitcode polling + heartbeat pings) and restarted with bounded
  exponential backoff, their compiled path-table replica resynchronised
  against the current :attr:`PathTable.version`; when restarts exceed the
  budget the daemon degrades to a single-process :class:`VeriDPDaemon`
  fallback rather than wedging,
* each worker generation gets its *own* multiprocessing queues, so a
  worker killed mid-``get``/``put`` cannot poison a shared queue lock for
  its successor.

The verifying fast path shares one path table read-only; rule updates go
through ``pause_and_refresh``, which quiesces the workers, rebuilds (and
for the sharded daemon re-replicates), and resumes — the classic
read-mostly monitor structure.
"""

from __future__ import annotations

import multiprocessing
import os
import pickle
import queue
import socket
import threading
import time
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

from ..obs import DEFAULT_BUCKETS, Observability
from .ingest import (
    DEFAULT_INGEST_BATCH,
    FrameBuffer,
    drain_socket,
    dst_ips as _frame_dst_ips,
    screen_frame,
    shard_split,
)
from .replica import (
    Delta,
    ShardReplica,
    _shard_of,
    build_one_shard_spec,
    build_pair_spec,
    build_shard_specs,
    frame_batch,
    unframe_batch,
    wire_kernel,
    wire_packing,
)
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
    RestartBackoff,
    TenantQuotaQueue,
    WorkerProbe,
    WorkerSupervisor,
    drop_stat_aliases,
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

__all__ = [
    "VeriDPDaemon",
    "ShardedVeriDPDaemon",
    "UdpReportListener",
]

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
    log = getattr(persist, "log_report_frame", None)
    if log is not None:
        log(frame.payload())
    else:  # pragma: no cover - PersistentState always has log_report_frame
        persist.log_report_batch(list(frame.rows()))


class VeriDPDaemon:
    """Multi-worker report verification on top of a :class:`VeriDPServer`.

    The underlying server's verify/localize machinery is pure computation
    over a shared read-only path table; workers drain the queue in slices
    (whatever is queued, up to ``_VERIFY_MAX_ROWS`` reports: all of a
    slice's frames in one wire-kernel call, its scalar payloads
    ``batch_size`` at a time) and serialise only one counter/incident
    update per batch under a lock.

    The ingestion queue is a :class:`PolicyQueue`: ``overflow`` selects what
    a full queue does (``"block"``, ``"drop-oldest"``, ``"drop-new"``), and
    every dropped payload increments a policy-specific counter surfaced in
    :meth:`stats`.  Payloads that fail :func:`unpack_report` or crash the
    verifier are dead-lettered, not fatal.
    """

    def __init__(
        self,
        server: VeriDPServer,
        workers: int = 2,
        queue_size: int = 10_000,
        batch_size: int = 64,
        overflow: "OverflowPolicy | str" = OverflowPolicy.DROP_NEW,
        submit_timeout: Optional[float] = None,
        dead_letter_capacity: int = 1024,
        dead_letter_attempts: int = 3,
        obs: Optional[Observability] = None,
        metrics_port: Optional[int] = None,
        metrics_host: str = "127.0.0.1",
        tenant_shares: Optional[Dict[str, float]] = None,
        tenant_classify=None,
    ) -> None:
        if workers <= 0:
            raise ValueError(f"need at least one worker, got {workers}")
        if batch_size <= 0:
            raise ValueError(f"batch_size must be positive, got {batch_size}")
        self.server = server
        # Durable servers log payloads at submit time; the sharded daemon's
        # thread fallback wraps the same server and clears this flag so a
        # delegated submit is not logged twice.
        self.record_reports = True
        self.obs = obs or server.obs
        self.overflow = OverflowPolicy.coerce(overflow)
        # Per-tenant queue quotas (multi-tenant deployments): when shares or
        # a classifier are supplied — or the server carries a slice registry
        # with queue shares — the ingestion queue enforces per-tenant
        # occupancy caps so one tenant's report storm cannot consume the
        # whole buffer (see DESIGN.md §13).
        if tenant_classify is None and (
            tenant_shares is not None or getattr(server, "slices", None) is not None
        ):
            tenant_classify = self._classify_payload
        if tenant_classify is not None:
            if tenant_shares is None and getattr(server, "slices", None) is not None:
                tenant_shares = server.slices.queue_shares()
            self._queue: PolicyQueue = TenantQuotaQueue(
                queue_size,
                self.overflow,
                classify=tenant_classify,
                shares=tenant_shares,
            )
        else:
            self._queue = PolicyQueue(queue_size, self.overflow)
        self._lock = threading.Lock()
        self._threads: List[threading.Thread] = []
        self._worker_verifiers: List[Verifier] = []
        self._running = False
        self.workers = workers
        self.batch_size = batch_size
        self.submit_timeout = submit_timeout
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
        """Payloads offered to :meth:`submit` (admitted or not)."""
        return self._queue.puts

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

    def _classify_payload(self, payload: bytes) -> Optional[str]:
        """Attribute a wire payload to a tenant for queue accounting.

        Decodes just enough to LPM-probe the destination against the
        server's slice registry; undecodable payloads are unattributed
        (they will be dead-lettered downstream anyway).
        """
        registry = getattr(self.server, "slices", None)
        if registry is None:
            return None
        try:
            report = unpack_report(payload, self.server.codec)
        except ReportDecodeError:
            return None
        return registry.classify_dst(report.header.dst_ip)

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
            callback=lambda: self._queue.puts,
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
        """Enqueue one wire-format report; False if backpressure refused it.

        What "refused" means depends on the overflow policy: ``drop-new``
        rejects the new payload (UDP tail drop), ``drop-oldest`` admits it
        by evicting the oldest queued payload (the eviction is counted, the
        call still returns True), ``block`` waits up to ``submit_timeout``
        (forever when None).  Every variety of loss is visible in
        :meth:`stats` instead of silent.

        On a durable server the payload hits the WAL here, *before* queue
        admission: replay must see what arrived, including payloads the
        overflow policy then refused (a dropped report is still evidence).
        """
        persist = self.server.persist
        if persist is not None and self.record_reports:
            persist.log_report(payload)
        return self._queue.put(payload, timeout=self.submit_timeout)

    def submit_frame(self, frame: Frame) -> int:
        """Enqueue a frame of pre-screened wire reports; returns how many
        rows the overflow policy admitted.

        The frame rides the queue as one item (weighted by its row count),
        so the whole handoff costs one lock acquisition and one condvar
        signal regardless of size.  On a durable server the WAL gets one
        ``RT_REPORT_BATCH`` record per frame.  Partial admission narrows
        the frame's window instead of copying; refused rows are counted
        per report by the queue, exactly like scalar :meth:`submit`.
        """
        count = frame.count
        if count == 0:
            return 0
        persist = self.server.persist
        if persist is not None and self.record_reports:
            _log_frame(persist, frame)
        if isinstance(self._queue, TenantQuotaQueue):
            tenants = self._classify_frame(frame)
            admitted = self._queue.put_frame(
                frame, timeout=self.submit_timeout, tenants=tenants
            )
        else:
            admitted = self._queue.put_frame(frame, timeout=self.submit_timeout)
        with self._lock:
            self.frames += 1
        self._frame_rows_hist.observe(count)
        return admitted

    def _classify_frame(self, frame: Frame) -> List[Optional[str]]:
        """Per-row tenant attribution for a frame (vectorized LPM when the
        registry supports it, scalar otherwise)."""
        registry = getattr(self.server, "slices", None)
        if registry is None:
            # No slice registry to LPM against — honor whatever custom
            # classifier the quota queue was built with, row by row.
            classify = getattr(self._queue, "_classify", None)
            if classify is None:
                return [None] * frame.count
            return [classify(row) for row in frame.rows()]
        payload = frame.payload()
        if _HAVE_VECTOR:
            ips = _frame_dst_ips(payload)
        else:
            ips = [
                int.from_bytes(
                    payload[i * REPORT_SIZE + 18 : i * REPORT_SIZE + 22], "big"
                )
                for i in range(frame.count)
            ]
        batch = getattr(registry, "classify_dst_batch", None)
        if batch is not None:
            return batch(ips)
        return [registry.classify_dst(int(ip)) for ip in ips]

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
        batch_size = self.batch_size
        while True:
            # One blocking wait for the first item, then whatever is already
            # queued behind it, up to _VERIFY_MAX_ROWS reports: frames come
            # back whole, and all of a slice's frames share one kernel call,
            # so the call is as deep as the backlog and an idle daemon still
            # verifies a frame the moment it arrives.
            items = q.get_many(_VERIFY_MAX_ROWS)
            stop = False
            batch: List[bytes] = []
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
                elif isinstance(item, Frame):
                    frames.append(item)
                    done += item.count
                else:
                    batch.append(item)
                    done += 1
            for start in range(0, len(batch), batch_size):
                chunk = batch[start : start + batch_size]
                try:
                    self._process_batch(verifier, chunk)
                except Exception as exc:  # pragma: no cover - last resort
                    # A batch must never kill a worker: dead-letter it
                    # wholesale and carry on.
                    for payload in chunk:
                        self.dead_letters.add(payload, "verify", exc)
                    with self._lock:
                        self.verify_errors += len(chunk)
            if frames:
                try:
                    self._process_frames(verifier, frames)
                except Exception as exc:  # pragma: no cover - last resort
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
        records / counters are bit-identical to per-datagram ingestion."""
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

        Canonical drop keys follow :meth:`PolicyQueue.stats` (see DESIGN.md
        §8 for the alias mapping): ``dropped_new`` / ``dropped_oldest`` /
        ``block_timeouts`` with ``dropped`` as their total.  The deprecated
        ``dropped_full_queue`` alias (= ``dropped_new + block_timeouts``)
        is derived by the single :func:`drop_stat_aliases` shim.  After
        :meth:`join` the ledger closes exactly::

            submitted == processed + malformed + verify_errors + dropped
        """
        queue_stats = self._queue.stats()
        with self._lock:
            merged = {
                "submitted": queue_stats["puts"],
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
            }
        drop_stat_aliases(merged)
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


# ---------------------------------------------------------------------------
# sharded multiprocess daemon
# ---------------------------------------------------------------------------


def _shard_worker_main(
    worker_id: int,
    in_queue,
    out_queue,
    hb_queue,
    pairs: Dict[Tuple[int, int], tuple],
    packing: Tuple[Tuple[int, int], ...],
) -> None:
    """One shard worker process: the queue transport of a :class:`ShardReplica`.

    Message protocol (parent -> worker on ``in_queue``)::

        ("batch", frame, [odd])     verify a concatenated payload frame
                                    (+ wrong-sized oddballs, normally [])
        ("flush", token)            reply ("flush", Delta) on out_queue
        ("ping", seq)               reply ("pong", worker_id, seq) on hb_queue
        ("reload", pairs)           swap the compiled replica in place
        ("patch", {key: spec|None}) apply a pair delta: None drops the pair
        ("digest", token)           reply ("digest", id, token, sha1) on out_queue
        ("crash", how)              test hook: "exit" dies, "wedge" hangs
        ("stop",)                   exit cleanly

    A payload can never kill the worker (the replica counts undecodable
    payloads and ships verification crashes back as records), and a shard
    replica covers its whole hash shard, so an unknown pair is a verdict.
    The flush reply's metrics snapshot carries the ``veridp_shard_*``
    families, labelled by shard id so they never collide with the parent's.
    """
    replica = ShardReplica("shard", worker_id, packing, pairs)
    while True:
        message = in_queue.get()
        kind = message[0]
        if kind == "batch":
            replica.verify(message[1], message[2])
        elif kind == "flush":
            out_queue.put(("flush", replica.take(message[1])))
        elif kind == "ping":
            hb_queue.put(("pong", worker_id, message[1]))
        elif kind == "reload":
            replica.reload(message[1])
        elif kind == "patch":
            replica.patch(message[1])
        elif kind == "digest":
            out_queue.put(("digest", worker_id, message[1], replica.digest()))
        elif kind == "crash":  # pragma: no cover - exercised via subprocess
            if message[1] == "exit":
                os._exit(13)
            while True:  # "wedge": alive but unresponsive
                time.sleep(0.5)
        elif kind == "stop":
            return


class ShardedVeriDPDaemon:
    """Multiprocess report verification, sharded by ``(inport, outport)``.

    The parent peeks the two wire port ids out of each payload (bytes 2-6),
    hashes them to a shard, and ships payloads to that shard's worker in
    batches; each worker verifies against its own compiled path-table
    replica with no shared state, sidestepping the GIL entirely.  Each
    worker's :class:`~repro.core.replica.ShardReplica` compiles its pairs
    into the vector batch kernel (:mod:`repro.core.vector`) and verifies
    whole dispatch batches as array operations, falling back to the scalar
    matcher row by row where the input calls for it.  Failed
    payloads come back over the result queue and are re-ingested through
    :meth:`VeriDPServer.receive_report_bytes` on the parent, so
    localization, the localization cache and the incident log behave
    exactly as in the single-process server.

    ``join()`` is the consolidation point: it flushes the shard buffers,
    asks every worker for its counter deltas, and folds them in.  Call it
    before reading :meth:`stats`.

    Resilience: a :class:`WorkerSupervisor` polls worker liveness
    (``exitcode`` + heartbeat pings) and restarts dead or wedged workers
    with bounded exponential backoff, rebuilding the restarted shard's
    replica from the *current* path table (and reloading the other workers
    when :attr:`PathTable.version` moved meanwhile).  Worker restarts
    beyond ``restart_budget`` degrade the daemon to a single-process
    :class:`VeriDPDaemon` so ingestion survives a crash loop.  Per-shard
    ingress queues are bounded (``max_pending_batches``) under an explicit
    overflow policy — ``block`` (default, loss-free) or ``drop-new``
    (accounted tail drop); ``drop-oldest`` is not offered here because a
    batch handed to a worker process cannot be recalled.
    """

    def __init__(
        self,
        server: VeriDPServer,
        workers: int = 2,
        batch_size: int = 256,
        overflow: "OverflowPolicy | str" = OverflowPolicy.BLOCK,
        max_pending_batches: int = 64,
        supervise: bool = True,
        restart_budget: int = 3,
        poll_interval: float = 0.05,
        heartbeat_timeout: float = 10.0,
        backoff: Optional[RestartBackoff] = None,
        fallback_workers: int = 2,
        dead_letter_capacity: int = 1024,
        dead_letter_attempts: int = 3,
        obs: Optional[Observability] = None,
        metrics_port: Optional[int] = None,
        metrics_host: str = "127.0.0.1",
    ) -> None:
        if workers <= 0:
            raise ValueError(f"need at least one worker, got {workers}")
        if batch_size <= 0:
            raise ValueError(f"batch_size must be positive, got {batch_size}")
        if max_pending_batches <= 0:
            raise ValueError(
                f"max_pending_batches must be positive, got {max_pending_batches}"
            )
        self.overflow = OverflowPolicy.coerce(overflow)
        if self.overflow is OverflowPolicy.DROP_OLDEST:
            raise ValueError(
                "drop-oldest is not supported by the sharded daemon: batches "
                "already handed to a worker process cannot be recalled; use "
                "the threaded VeriDPDaemon for newest-wins ingestion"
            )
        self.server = server
        self.obs = obs or server.obs
        self.workers = workers
        self.batch_size = batch_size
        self.max_pending_batches = max_pending_batches
        self.fallback_workers = fallback_workers
        self.submitted = 0
        self.processed = 0
        self.malformed = 0
        self.verify_errors = 0
        self.dropped_new = 0  # sharded tail drop (canonical spelling)
        self.counters: Dict[Verdict, int] = {v: 0 for v in Verdict}
        self.dead_letters = DeadLetterQueue(
            capacity=dead_letter_capacity, max_attempts=dead_letter_attempts
        )
        self._packing = self._packing_for(server)
        #: Whether the workers' replicas compile the vector kernel.
        self.vector = wire_kernel({}, self._packing) is not None
        methods = multiprocessing.get_all_start_methods()
        self._ctx = multiprocessing.get_context(
            "fork" if "fork" in methods else None
        )
        self._processes: List = []
        self._in_queues: List = []
        self._out_queues: List = []
        self._hb_queues: List = []
        self._buffers: List[List[bytes]] = []
        self._fbuffers: List[List[bytes]] = []  # per-shard frame chunks
        self._fcounts: List[int] = []  # rows pending in _fbuffers
        self._dispatched: List[int] = []
        self._accounted: List[int] = []
        self._generations: List[int] = []
        self._last_pong: List[float] = []
        self._ping_seq = 0
        self._flush_token = 0
        self._replica_version = -1
        self._dirty_token: Optional[Tuple[int, int]] = None
        self._digest_seq = 0
        self.resyncs = 0
        self.resync_pairs = 0
        self.resync_delta_bytes = 0
        self.full_resyncs = 0
        self._running = False
        self._stopping = False
        self.degraded = False
        #: When False, dispatch skips durable report logging (re-ingest
        #: streams whose payloads are already in the WAL).
        self.record_reports = True
        self._fallback: Optional[VeriDPDaemon] = None
        self._dispatch_lock = threading.Lock()
        self._merge_lock = threading.Lock()
        self._server_mutex = threading.Lock()
        self._supervisor: Optional[WorkerSupervisor] = None
        if supervise:
            self._supervisor = WorkerSupervisor(
                probe=self._probe,
                restart=self._restart_worker,
                restart_budget=restart_budget,
                poll_interval=poll_interval,
                heartbeat_timeout=heartbeat_timeout,
                backoff=backoff,
                on_budget_exhausted=self._degrade,
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
    def metrics_address(self) -> Optional[Tuple[str, int]]:
        """``(host, port)`` of the live monitoring endpoint, if enabled."""
        return None if self._endpoint is None else self._endpoint.address

    def _health(self) -> Tuple[bool, dict]:
        detail = {
            "mode": "thread-fallback" if self.degraded else "process",
            "workers": self.workers,
        }
        # A daemon that burned its restart budget still ingests (via the
        # fallback) but is operator-attention-worthy: report unhealthy.
        return (self._running or self._fallback is not None) and not self.degraded, detail

    def _register_metrics(self) -> None:
        """Expose the consolidated parent-side view on the shared registry.

        Re-registers the ingestion families the server/threaded daemon may
        already own (latest owner wins); the per-shard ``veridp_shard_*``
        families arrive separately via worker snapshot merges in
        :meth:`_merge_flush`.  When degraded, the callbacks fold in the
        fallback daemon's figures — the fallback itself runs on a private
        registry so its own registrations cannot clobber these.
        """
        reg = self.obs.registry

        def fallback_stat(name: str) -> int:
            fallback = self._fallback
            return 0 if fallback is None else getattr(fallback, name)

        reg.counter(
            "veridp_submitted_total",
            "Report payloads offered to the daemon (admitted or not).",
            callback=lambda: self.submitted,
        )
        reg.counter(
            "veridp_processed_total",
            "Payloads fully verified by the shard workers.",
            callback=lambda: self.processed + fallback_stat("processed"),
        )
        reg.counter(
            "veridp_malformed_total",
            "Payloads the decoder rejected (dead-lettered, not fatal).",
            callback=lambda: self.malformed + fallback_stat("malformed"),
        )
        reg.counter(
            "veridp_verify_errors_total",
            "Payloads that crashed verification (dead-lettered).",
            callback=lambda: self.verify_errors + fallback_stat("verify_errors"),
        )
        reg.counter(
            "veridp_queue_dropped_total",
            "Payloads lost to backpressure, by overflow policy decision.",
            ("policy",),
            callback=lambda: {
                ("drop-new",): self.dropped_new
                + (
                    0
                    if self._fallback is None
                    else self._fallback.dropped
                ),
            },
        )
        reg.gauge(
            "veridp_queue_depth",
            "Payloads buffered parent-side awaiting dispatch.",
            callback=lambda: sum(len(b) for b in self._buffers)
            + sum(self._fcounts),
        )
        reg.counter(
            "veridp_lost_in_restart_total",
            "Payloads dispatched to a worker whose verdicts never returned.",
            callback=lambda: max(
                0, sum(self._dispatched) - sum(self._accounted)
            ),
        )
        reg.gauge(
            "veridp_workers",
            "Shard worker processes (fallback threads when degraded).",
            callback=lambda: (
                self.fallback_workers if self.degraded else self.workers
            ),
        )
        reg.gauge(
            "veridp_degraded",
            "1 when the daemon fell back to the threaded single process.",
            callback=lambda: int(self.degraded),
        )
        reg.counter(
            "veridp_verifications_total",
            "Tag reports verified, by Algorithm 3 verdict (merged fleet).",
            ("verdict",),
            callback=self._merged_verdicts,
        )
        reg.counter(
            "veridp_worker_restarts_total",
            "Shard workers the supervisor restarted (dead or wedged).",
            callback=lambda: (
                0 if self._supervisor is None else self._supervisor.restarts
            ),
        )
        reg.counter(
            "veridp_wedged_restarts_total",
            "Restarts triggered by heartbeat timeout rather than death.",
            callback=lambda: (
                0
                if self._supervisor is None
                else self._supervisor.wedged_restarts
            ),
        )
        reg.gauge(
            "veridp_restart_budget",
            "Supervisor crash-restart budget before degrading.",
            callback=lambda: (
                0
                if self._supervisor is None
                else self._supervisor.restart_budget
            ),
        )
        reg.counter(
            "veridp_dead_letters_total",
            "Payloads dead-lettered since start.",
            callback=lambda: self.dead_letters.total
            + (
                0 if self._fallback is None else self._fallback.dead_letters.total
            ),
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
        reg.counter(
            "veridp_replica_resyncs_total",
            "In-place worker replica resyncs (delta patches, no recompile).",
            callback=lambda: self.resyncs,
        )
        reg.counter(
            "veridp_replica_resync_pairs_total",
            "Path-table pairs recompiled and shipped as resync deltas.",
            callback=lambda: self.resync_pairs,
        )
        reg.counter(
            "veridp_replica_delta_bytes_total",
            "Pickled bytes of pair deltas shipped to workers on resync.",
            callback=lambda: self.resync_delta_bytes,
        )
        reg.counter(
            "veridp_replica_full_resyncs_total",
            "Resyncs that had to fall back to a full replica reload.",
            callback=lambda: self.full_resyncs,
        )

    def _merged_verdicts(self) -> Dict[tuple, int]:
        with self._merge_lock:
            merged = dict(self.counters)
        fallback = self._fallback
        if fallback is not None:
            for verifier in fallback._worker_verifiers:
                for verdict, count in verifier.counters.items():
                    merged[verdict] += count
        return {(v.value,): n for v, n in merged.items()}

    @staticmethod
    def _packing_for(server: VeriDPServer) -> Tuple[Tuple[int, int], ...]:
        return wire_packing(server.hs.layout)

    # -- lifecycle -----------------------------------------------------------

    def start(self) -> None:
        """Replicate the (compiled) path table and fork the workers."""
        if self._endpoint is not None:
            self._endpoint.start()
        if self._fallback is not None:
            self._fallback.start()
            return
        if self._running:
            return
        with self._server_mutex:
            self.server.refresh_if_dirty()
            specs = build_shard_specs(
                self.server.table, self.server.hs, self.server.codec, self.workers
            )
            self._replica_version = self.server.table.version
            self._dirty_token = self.server.table.dirty_token()
        self._processes = [None] * self.workers
        self._in_queues = [None] * self.workers
        self._out_queues = [None] * self.workers
        self._hb_queues = [None] * self.workers
        self._buffers = [[] for _ in range(self.workers)]
        self._fbuffers = [[] for _ in range(self.workers)]
        self._fcounts = [0] * self.workers
        self._dispatched = [0] * self.workers
        self._accounted = [0] * self.workers
        self._generations = [0] * self.workers
        self._last_pong = [time.monotonic()] * self.workers
        for worker_id in range(self.workers):
            self._spawn_worker(worker_id, specs[worker_id])
        self._running = True
        if self._supervisor is not None:
            self._supervisor.start()

    def _spawn_worker(self, worker_id: int, spec: Dict) -> None:
        """Fork one shard worker on a fresh generation of queues.

        Fresh queues per generation matter: a worker killed while holding a
        queue's internal lock would poison that queue for any successor.
        """
        in_queue = self._ctx.Queue(maxsize=self.max_pending_batches)
        out_queue = self._ctx.Queue()
        hb_queue = self._ctx.Queue()
        process = self._ctx.Process(
            target=_shard_worker_main,
            args=(
                worker_id,
                in_queue,
                out_queue,
                hb_queue,
                spec,
                self._packing,
            ),
            name=f"veridp-shard-{worker_id}-gen{self._generations[worker_id]}",
            daemon=True,
        )
        process.start()
        self._in_queues[worker_id] = in_queue
        self._out_queues[worker_id] = out_queue
        self._hb_queues[worker_id] = hb_queue
        self._processes[worker_id] = process
        self._last_pong[worker_id] = time.monotonic()

    def stop(self) -> None:
        """Consolidate outstanding work and terminate the workers."""
        if self._endpoint is not None:
            self._endpoint.stop()
        if self._fallback is not None:
            self._fallback.stop()
            return
        if not self._running:
            return
        self._stopping = True
        if self._supervisor is not None:
            self._supervisor.stop()
        try:
            self.join(timeout=10.0)
        except RuntimeError:  # wedged/dead workers: terminated below
            pass
        for in_queue in self._in_queues:
            try:
                in_queue.put(("stop",), timeout=0.5)
            except queue.Full:  # pragma: no cover - defensive
                pass
        for process in self._processes:
            if process is None:
                continue
            process.join(timeout=5)
            if process.is_alive():  # pragma: no cover - defensive
                process.terminate()
                process.join(timeout=1)
        for q in self._in_queues:
            q.close()
            q.cancel_join_thread()
        self._processes = []
        self._in_queues = []
        self._out_queues = []
        self._hb_queues = []
        self._running = False
        self._stopping = False

    def __enter__(self) -> "ShardedVeriDPDaemon":
        self.start()
        return self

    def __exit__(self, *exc_info) -> None:
        self.stop()

    # -- ingestion -------------------------------------------------------------

    def submit(self, payload: bytes) -> bool:
        """Route one wire-format report to its shard (buffered).

        Every call increments :attr:`submitted` exactly once — including
        post-degrade calls delegated to the fallback — so the accounting
        identity in :meth:`stats` stays closed across the daemon's whole
        life.

        Durable servers log reports at *dispatch* (one batched WAL append
        per shard batch, see :meth:`_dispatch_inner`), not here: batch
        granularity keeps the WAL off the per-report fast path, and with
        ``fsync="interval"`` the loss window is the fsync interval either
        way.  A payload buffered but never dispatched is never logged —
        and was never verified, so the incident ledger cannot cite it.
        """
        fallback = self._fallback
        if fallback is not None:
            # Degraded mode: the fallback's own logging is disabled (its
            # stream mixes salvaged already-logged payloads), so new
            # arrivals are logged here before delegation.
            persist = self.server.persist
            if persist is not None and self.record_reports:
                persist.log_report(payload)
            with self._dispatch_lock:
                self.submitted += 1
            return fallback.submit(payload)
        if not self._running:
            raise RuntimeError("daemon is not running; call start() first")
        if self.server._flush_deadline is not None:
            # Reports bypass the server here, so its coalescing window
            # would never see a tick: expire it on arrival, exactly as
            # receive_report does on the direct path.
            with self._server_mutex:
                self.server.maybe_flush_updates()
        if self.server.table.version != self._replica_version:
            # Rule churn moved the table under the fleet: patch the worker
            # replicas in place (pair deltas, no whole-table recompile)
            # before this payload can reach a stale replica.
            self.resync_replicas()
        pair_key = int.from_bytes(payload[2:6], "big")
        shard = _shard_of(pair_key, self.workers)
        take = None
        with self._dispatch_lock:
            self.submitted += 1
            self._buffers[shard].append(payload)
            if (
                len(self._buffers[shard]) + self._fcounts[shard]
                >= self.batch_size
            ):
                take = self._take_shard_locked(shard)
        if take is not None:
            return self._dispatch(shard, *take)
        return True

    def submit_frame(self, frame: Frame) -> int:
        """Split a frame across the shard buffers by pair key.

        One vectorized :func:`~repro.core.ingest.shard_split` replaces
        ``frame.count`` scalar hash/route/append rounds; each shard's chunk
        lands in a frame-chunk buffer that dispatch concatenates with any
        buffered singles (the worker protocol already ships ``(frame,
        odd)``).  Returns the rows admitted — with the same approximation
        scalar :meth:`submit` makes: a dispatch batch the overflow policy
        refuses counts wholly against the call that triggered it.
        """
        count = frame.count
        if count == 0:
            return 0
        fallback = self._fallback
        if fallback is not None:
            persist = self.server.persist
            if persist is not None and self.record_reports:
                _log_frame(persist, frame)
            with self._dispatch_lock:
                self.submitted += count
            return fallback.submit_frame(frame)
        if not self._running:
            raise RuntimeError("daemon is not running; call start() first")
        if self.server._flush_deadline is not None:
            with self._server_mutex:
                self.server.maybe_flush_updates()
        if self.server.table.version != self._replica_version:
            self.resync_replicas()
        chunks = shard_split(frame.payload(), self.workers)
        dispatch: List[Tuple[int, Tuple[List[bytes], List[bytes], int]]] = []
        with self._dispatch_lock:
            self.submitted += count
            for shard, chunk in enumerate(chunks):
                if not chunk:
                    continue
                self._fbuffers[shard].append(chunk)
                self._fcounts[shard] += len(chunk) // REPORT_SIZE
                if (
                    len(self._buffers[shard]) + self._fcounts[shard]
                    >= self.batch_size
                ):
                    dispatch.append((shard, self._take_shard_locked(shard)))
        admitted = count
        for shard, (singles, frame_chunks, rows) in dispatch:
            if not self._dispatch(shard, singles, frame_chunks, rows):
                admitted = max(0, admitted - rows)
        return admitted

    def _take_shard_locked(
        self, shard: int
    ) -> Tuple[List[bytes], List[bytes], int]:
        """Swap out a shard's pending singles and frame chunks (lock held)."""
        singles = self._buffers[shard]
        self._buffers[shard] = []
        chunks = self._fbuffers[shard]
        self._fbuffers[shard] = []
        rows = len(singles) + self._fcounts[shard]
        self._fcounts[shard] = 0
        return singles, chunks, rows

    def _dispatch(
        self,
        shard: int,
        singles: List[bytes],
        chunks: List[bytes],
        rows: int,
    ) -> bool:
        """Hand one batch to a shard worker under the overflow policy.

        Runs outside the dispatch lock: a ``block`` wait here must not
        stall other producers, and the supervisor's restart path (which
        the wait leans on for liveness) must never deadlock against us.
        """
        with self.obs.span("admit", shard=shard, reports=rows):
            return self._dispatch_inner(shard, singles, chunks, rows)

    def _dispatch_inner(
        self,
        shard: int,
        singles: List[bytes],
        chunks: List[bytes],
        rows: int,
    ) -> bool:
        sized = [p for p in singles if len(p) == REPORT_SIZE]
        odd = [p for p in singles if len(p) != REPORT_SIZE]
        frame = b"".join(chunks + sized)
        # WAL-before-verify, at batch granularity: one RT_REPORT_BATCH
        # record per frame (plus one for the rare oddballs), appended
        # before any worker can see the rows.  Logged exactly once — a
        # mid-dispatch degrade below delegates to a fallback whose own
        # logging is off.
        persist = self.server.persist
        if persist is not None and self.record_reports:
            if frame:
                persist.log_report_frame(frame)
            if odd:
                persist.log_report_batch(odd)
        while True:
            fallback = self._fallback
            if fallback is not None:  # degraded mid-dispatch
                ok = True
                if frame:
                    nrows = len(frame) // REPORT_SIZE
                    ok = fallback.submit_frame(Frame(frame)) == nrows
                for payload in odd:
                    ok = fallback.submit(payload) and ok
                return ok
            in_queue = self._in_queues[shard]
            try:
                if self.overflow is OverflowPolicy.BLOCK:
                    in_queue.put(("batch", frame, odd), timeout=0.2)
                else:
                    in_queue.put_nowait(("batch", frame, odd))
            except queue.Full:
                if self.overflow is not OverflowPolicy.BLOCK:
                    with self._merge_lock:
                        self.dropped_new += rows
                    return False
                # BLOCK: make sure a live consumer exists, then retry
                # (a restart swaps in a fresh queue; re-read it above).
                self._revive()
                continue
            with self._merge_lock:
                self._dispatched[shard] += rows
            return True

    def _revive(self) -> None:
        """Run one synchronous supervision pass (restart dead workers)."""
        if self._supervisor is not None and not self._stopping:
            self._supervisor.check_once()

    def join(self, timeout: float = 60.0) -> None:
        """Flush buffers, collect every worker's deltas, fold them in."""
        fallback = self._fallback
        if fallback is not None:
            fallback.join()
            return
        if not self._running:
            return
        with self._dispatch_lock:
            batches = [
                (shard, self._take_shard_locked(shard))
                for shard in range(self.workers)
                if self._buffers[shard] or self._fbuffers[shard]
            ]
        for shard, (singles, chunks, rows) in batches:
            self._dispatch(shard, singles, chunks, rows)
        if self._fallback is not None:  # degraded while flushing
            self._fallback.join()
            return
        self._flush_token += 1
        token = self._flush_token
        sent_generation = {}
        for shard in range(self.workers):
            self._send_flush(shard, token)
            sent_generation[shard] = self._generations[shard]
        pending = set(range(self.workers))
        deadline = time.monotonic() + timeout
        while pending:
            if self._fallback is not None:
                self._fallback.join()
                return
            progress = False
            for shard in sorted(pending):
                try:
                    message = self._out_queues[shard].get(timeout=0.05)
                except queue.Empty:
                    continue
                if message[0] != "flush":  # pragma: no cover - defensive
                    continue
                delta = message[1]
                self._merge_flush(delta)
                # Deltas are merged regardless of token age (they are real
                # work); only the matching token clears the pending slot.
                if delta.source == shard and delta.token == token:
                    pending.discard(shard)
                    progress = True
            if progress:
                continue
            # No worker answered: revive the dead, and re-send the flush
            # token to any shard whose worker generation moved (a restarted
            # worker never saw the original token).
            self._revive()
            for shard in sorted(pending):
                if self._generations[shard] != sent_generation[shard]:
                    self._send_flush(shard, token)
                    sent_generation[shard] = self._generations[shard]
            if time.monotonic() > deadline:
                raise RuntimeError(
                    f"shard workers {sorted(pending)} did not flush in time"
                )

    def _send_flush(self, shard: int, token: int) -> None:
        try:
            self._in_queues[shard].put(("flush", token), timeout=1.0)
        except queue.Full:  # pragma: no cover - resent via generation check
            pass

    def _merge_flush(self, delta: Delta) -> None:
        """Fold one worker's flush delta into the consolidated counters."""
        # Merge the worker's veridp_shard_* delta snapshot outside
        # _merge_lock: merging takes registry/metric locks, and holding
        # _merge_lock across it would serialise scrapes (whose callbacks
        # take _merge_lock) against every flush for no benefit.
        self.obs.registry.merge(delta.metrics)
        crashed = delta.crashed
        with self._merge_lock:
            self.processed += delta.processed
            self.malformed += delta.malformed
            self.verify_errors += len(crashed)
            self._accounted[delta.source] += (
                delta.processed + delta.malformed + len(crashed)
            )
            for name, count in delta.counters.items():
                self.counters[Verdict(name)] += count
        for payload, error in crashed:
            self.dead_letters.add(payload, "verify", RuntimeError(error))
        for payload in delta.malformed_sample:
            self.dead_letters.add(
                payload,
                "decode",
                ReportDecodeError("shard worker could not decode payload"),
            )
        for payload, _verdict in delta.failures:
            # Re-ingest through the server: localization (with its cache)
            # runs here, and the incident log gets the full
            # VerificationResult.  A payload the parent cannot decode
            # (e.g. corrupted port id beyond the codec) is dead-lettered.
            try:
                with self._server_mutex:
                    # record=False: already WAL-logged at submit().
                    self.server.receive_report_bytes(payload, record=False)
            except ReportDecodeError as exc:
                self.dead_letters.add(payload, "decode", exc)

    def retry_dead_letters(self) -> Tuple[int, int]:
        """Re-run pending dead letters through the parent-side pipeline."""
        def handler(payload: bytes) -> None:
            with self._server_mutex:
                self.server.receive_report_bytes(payload, record=False)

        return self.dead_letters.retry(handler)

    def dead_letter_transport(self, payload: bytes, reason: str) -> None:
        """Transport-stage reject; see :meth:`VeriDPDaemon.dead_letter_transport`."""
        self.dead_letters.add(payload, "transport", ReportDecodeError(reason))
        with self._merge_lock:
            self.malformed += 1
        persist = self.server.persist
        if persist is not None:
            persist.log_malformed(payload)

    # -- supervision -----------------------------------------------------------

    def _probe(self) -> List[WorkerProbe]:
        """Supervisor callback: ping workers, report liveness + heartbeat age."""
        now = time.monotonic()
        self._ping_seq += 1
        probes = []
        for shard in range(self.workers):
            process = self._processes[shard]
            alive = process is not None and process.is_alive()
            if alive:
                try:
                    self._in_queues[shard].put_nowait(("ping", self._ping_seq))
                except queue.Full:
                    pass  # busy worker; its batches double as liveness
            hb_queue = self._hb_queues[shard]
            while True:
                try:
                    reply = hb_queue.get_nowait()
                except queue.Empty:
                    break
                if reply[0] == "pong":
                    self._last_pong[shard] = time.monotonic()
            probes.append(
                WorkerProbe(shard, alive, now - self._last_pong[shard])
            )
        return probes

    def _restart_worker(self, shard: int) -> None:
        """Supervisor callback: replace one dead/wedged worker.

        Recovers what it can from the abandoned generation's queues
        (undelivered batches are re-dispatched, already-flushed deltas are
        merged), then forks a successor whose replica is compiled from the
        *current* path table — but only the dead shard's slice of it.  If
        the table version moved since the last replication, the survivors
        are brought up to date in place via pair deltas
        (:meth:`resync_replicas`) instead of a whole-table recompile.
        """
        old_process = self._processes[shard]
        old_in = self._in_queues[shard]
        old_out = self._out_queues[shard]
        if old_process is not None:
            if old_process.is_alive():  # wedged: take it down for real
                old_process.terminate()
                old_process.join(timeout=2)
                if old_process.is_alive():  # pragma: no cover - defensive
                    old_process.kill()
                    old_process.join(timeout=1)
            else:
                old_process.join(timeout=1)
        recovered = self._drain_abandoned(old_in, old_out)
        with self._server_mutex:
            self.server.refresh_if_dirty()
            spec = build_one_shard_spec(
                self.server.table,
                self.server.hs,
                self.server.codec,
                self.workers,
                shard,
            )
        self._generations[shard] += 1
        self._spawn_worker(shard, spec)
        # The successor's replica is already current; patch the survivors
        # (idempotent for the successor) if the table moved under the fleet.
        self.resync_replicas()
        if recovered:
            self._in_queues[shard].put(("batch",) + frame_batch(recovered))

    # -- replica resync --------------------------------------------------------

    def resync_replicas(self) -> Optional[int]:
        """Bring every worker replica up to date with the path table, in place.

        Consumes the table's dirty-pair journal: only the ``(inport,
        outport)`` pairs touched since the last replication are recompiled
        and shipped, as per-shard ``patch`` messages (``None`` drops a pair
        whose paths all vanished).  Falls back to compiling full shard
        replicas and ``reload`` messages only when the journal overflowed
        or the token went stale (e.g. the table object itself was swapped
        by a rebuild).

        Returns the number of pairs patched, ``0`` if the replicas were
        already current, or ``None`` when a full reload was required.
        """
        if self._fallback is not None or not self._running:
            return 0
        with self._server_mutex:
            table = self.server.table
            hs, codec = self.server.hs, self.server.codec
            version = table.version
            if version == self._replica_version:
                return 0
            token, dirty = table.dirty_since(self._dirty_token)
            if dirty is None:
                specs = build_shard_specs(table, hs, codec, self.workers)
                messages = [("reload", specs[w]) for w in range(self.workers)]
                patched: Optional[int] = None
            else:
                patches: List[Dict[Tuple[int, int], Optional[tuple]]] = [
                    {} for _ in range(self.workers)
                ]
                for inport, outport in dirty:
                    in_wire = codec.encode(inport)
                    out_wire = codec.encode(outport)
                    shard = _shard_of((in_wire << 16) | out_wire, self.workers)
                    patches[shard][(in_wire, out_wire)] = build_pair_spec(
                        table, hs, inport, outport
                    )
                messages = [
                    ("patch", patch) if patch else None for patch in patches
                ]
                patched = len(dirty)
            delta_bytes = sum(
                len(pickle.dumps(m[1])) for m in messages if m is not None
            )
            for worker_id, message in enumerate(messages):
                if message is None:
                    continue
                try:
                    self._in_queues[worker_id].put(message, timeout=1.0)
                except queue.Full:  # pragma: no cover - defensive
                    # Could not deliver: poison the replication state so the
                    # next resync rebuilds full replicas for everyone.
                    self._replica_version = -1
                    self._dirty_token = None
                    return None
            self._replica_version = version
            self._dirty_token = token
            with self._merge_lock:
                self.resyncs += 1
                self.resync_delta_bytes += delta_bytes
                if patched is None:
                    self.full_resyncs += 1
                else:
                    self.resync_pairs += patched
        return patched

    def replica_digests(self, timeout: float = 10.0) -> List[str]:
        """Collect every worker's replica fingerprint (ops/test hook).

        Workers answer on their result queues; any flush replies drained
        while waiting are merged rather than lost.  Two fleets whose
        digests match verify every report identically (see
        :func:`~repro.core.replica.replica_digest`).
        """
        if self._fallback is not None or not self._running:
            raise RuntimeError("no shard workers to digest")
        self._digest_seq += 1
        token = self._digest_seq
        for shard in range(self.workers):
            self._in_queues[shard].put(("digest", token), timeout=1.0)
        digests: Dict[int, str] = {}
        pending = set(range(self.workers))
        deadline = time.monotonic() + timeout
        while pending:
            for shard in sorted(pending):
                try:
                    message = self._out_queues[shard].get(timeout=0.05)
                except queue.Empty:
                    continue
                if message[0] == "flush":
                    self._merge_flush(message[1])
                elif message[0] == "digest" and message[2] == token:
                    digests[message[1]] = message[3]
                    pending.discard(shard)
            if pending and time.monotonic() > deadline:
                raise RuntimeError(
                    f"shard workers {sorted(pending)} did not answer digest"
                )
        return [digests[w] for w in range(self.workers)]

    def _drain_abandoned(self, old_in, old_out) -> List[bytes]:
        """Salvage an abandoned queue generation.

        Undelivered ``batch`` payloads come back for re-dispatch; flush
        replies the parent never consumed are merged so their work is not
        double-lost.  Anything a killed worker had dequeued but not flushed
        is unrecoverable and shows up as ``lost_in_restart``.
        """
        recovered: List[bytes] = []
        while True:
            try:
                message = old_in.get(timeout=0.05)
            except (queue.Empty, OSError):
                break
            if message[0] == "batch":
                recovered.extend(unframe_batch(message[1], message[2]))
        while True:
            try:
                message = old_out.get(timeout=0.05)
            except (queue.Empty, OSError):
                break
            if message[0] == "flush":
                self._merge_flush(message[1])
        old_in.close()
        old_in.cancel_join_thread()
        return recovered

    def _degrade(self) -> None:
        """Restart budget exhausted: fall back to the threaded daemon.

        Ingestion must survive a worker crash loop; a single-process
        :class:`VeriDPDaemon` over the same server is slower but cannot
        lose a process.  Everything salvageable — parent-side buffers and
        undelivered batches — is re-submitted to the fallback.
        """
        fallback = VeriDPDaemon(
            self.server,
            workers=self.fallback_workers,
            queue_size=max(10_000, self.batch_size * self.workers * 4),
            overflow=self.overflow,
            dead_letter_capacity=self.dead_letters.capacity,
            dead_letter_attempts=self.dead_letters.max_attempts,
            # A private Observability: the fallback's own registrations must
            # not clobber this daemon's families on the shared registry (the
            # callbacks above already fold its figures in).
            obs=Observability(),
        )
        # Payloads drained from worker queues were WAL-logged at dispatch
        # and future delegated payloads are logged by submit(); the
        # fallback must not log either a second time.  Parent-side
        # buffers are the exception — never dispatched, never logged —
        # so they are logged here before re-submission.
        fallback.record_reports = False
        fallback.start()
        for shard in range(self.workers):
            process = self._processes[shard]
            if process is not None and process.is_alive():
                process.terminate()
                process.join(timeout=2)
            recovered = self._drain_abandoned(
                self._in_queues[shard], self._out_queues[shard]
            )
            # Salvaged payloads leave the sharded ledger for the fallback's:
            # settle their dispatch debt here or they would double-count as
            # lost_in_restart *and* as fallback `processed`.
            with self._merge_lock:
                self._accounted[shard] += len(recovered)
            for payload in recovered:
                fallback.submit(payload)
        persist = self.server.persist
        with self._dispatch_lock:
            for shard in range(self.workers):
                if persist is not None and self.record_reports:
                    persist.log_report_batch(self._buffers[shard])
                    for chunk in self._fbuffers[shard]:
                        persist.log_report_frame(chunk)
                for payload in self._buffers[shard]:
                    fallback.submit(payload)
                for chunk in self._fbuffers[shard]:
                    fallback.submit_frame(Frame(chunk))
                self._buffers[shard] = []
                self._fbuffers[shard] = []
                self._fcounts[shard] = 0
            self.degraded = True
            self._fallback = fallback

    def kill_worker(self, shard: int) -> None:
        """Forcibly kill one shard worker (chaos/testing hook)."""
        if self._fallback is not None or not self._running:
            return
        process = self._processes[shard]
        if process is not None and process.is_alive():
            process.kill()
            process.join(timeout=2)

    # -- maintenance -----------------------------------------------------------

    def pause_and_refresh(self) -> bool:
        """Quiesce workers, rebuild the path table if stale, re-replicate."""
        if self._fallback is not None:
            return self._fallback.pause_and_refresh()
        was_running = self._running
        if was_running:
            self.stop()
        refreshed = self.server.refresh_if_dirty()
        if was_running:
            self.start()
        return refreshed

    def stats(self) -> Dict[str, int]:
        """Consolidated counters (call :meth:`join` first for exact figures).

        ``lost_in_restart`` counts payloads dispatched to a worker whose
        verdicts never came back — exact after :meth:`join` returns (it
        includes in-flight work mid-run).  The accounting identity after a
        completed ``join`` on a non-degraded daemon is::

            submitted == processed + malformed + verify_errors
                         + dropped_new + lost_in_restart

        ``dropped_new`` is the canonical name for sharded tail drop (the
        only policy decision this daemon can take); ``dropped_oldest``
        and ``block_timeouts`` are emitted as 0 for key uniformity, and
        the deprecated ``dropped_full_queue`` alias plus the ``dropped``
        policy-total come from the single :func:`drop_stat_aliases`
        shim, mirroring :meth:`PolicyQueue.stats` (DESIGN.md §8).
        """
        with self._dispatch_lock:
            submitted = self.submitted
        with self._merge_lock:
            processed = self.processed
            malformed = self.malformed
            verify_errors = self.verify_errors
            dropped = self.dropped_new
            counters = dict(self.counters)
            lost = max(0, sum(self._dispatched) - sum(self._accounted))
        verified = sum(counters.values())
        stats = {
            "submitted": submitted,
            "processed": processed,
            "malformed": malformed,
            "verify_errors": verify_errors,
            "workers": self.workers,
            "mode": "thread-fallback" if self.degraded else "process",
            "verified": verified,
            "failed": verified - counters[Verdict.PASS],
            "incidents": len(self.server.incidents),
            "incidents_total": self.server.incidents_total,
            "overflow_policy": self.overflow.value,
            "dropped_new": dropped,
            "dropped_oldest": 0,
            "block_timeouts": 0,
            "lost_in_restart": lost,
            "degraded": int(self.degraded),
            "vector": self.vector,
        }
        if self._supervisor is not None:
            stats.update(self._supervisor.stats())
        stats.update(self.dead_letters.stats())
        fallback = self._fallback
        if fallback is not None:
            fb = fallback.stats()
            for key in ("processed", "malformed", "verify_errors", "verified", "failed"):
                stats[key] += fb[key]
            for key in ("dropped_new", "dropped_oldest", "block_timeouts"):
                stats[key] += fb[key]
            stats["dead_lettered"] += fb["dead_lettered"]
            stats["dead_letter_quarantined"] += fb["dead_letter_quarantined"]
            stats["incidents"] = fb["incidents"]
        return drop_stat_aliases(stats)


class UdpReportListener:
    """Receive tag reports as real UDP datagrams and feed the daemon.

    Binds ``host:port`` (port 0 picks a free one; read :attr:`address`),
    runs a receive loop on a background thread.  Oversized or truncated
    datagrams are counted, not fatal — exactly how a production collector
    must treat a lossy transport.  Transient socket errors are retried
    with capped exponential backoff (rebinding the same address), and
    ``start``/``stop`` are idempotent and restart-safe: the receive loop
    wakes from ``recvfrom`` on a socket timeout, so ``stop`` can never
    hang behind a blocked read.
    """

    def __init__(
        self,
        daemon: VeriDPDaemon,
        host: str = "127.0.0.1",
        port: int = 0,
        max_socket_errors: int = 8,
        error_backoff: float = 0.05,
        max_rebinds: int = 32,
        ingest_batch: int = DEFAULT_INGEST_BATCH,
    ) -> None:
        self.daemon = daemon
        self._host = host
        self._port = port
        self.max_socket_errors = max_socket_errors
        self.error_backoff = error_backoff
        # Lifetime cap on rebinds: consecutive-error streaks reset on any
        # successful receive, so intermittent faults used to allow silent
        # rebinding forever.  Past this total the listener gives up and
        # stops (the supervisor/operator decides what happens next).
        self.max_rebinds = max_rebinds
        # Datagrams drained per socket wakeup.  > 1 selects the frame-native
        # fast path (one blocking recv, then a non-blocking drain into a
        # preallocated frame buffer, one submit_frame per drain); 1 keeps
        # the legacy one-datagram-per-submit loop.
        self.ingest_batch = max(1, int(ingest_batch))
        self._socket: Optional[socket.socket] = None
        self._open_socket()
        self._thread: Optional[threading.Thread] = None
        self._running = False
        self.received = 0
        self.malformed = 0
        self.dropped = 0
        self.wrong_size = 0  # datagrams whose length cannot be a report
        self.oversize = 0  # datagrams longer than a report (kernel-truncated)
        self.socket_errors = 0
        self.rebinds = 0
        self.obs = getattr(daemon, "obs", None) or Observability()
        self._register_metrics()

    def _register_metrics(self) -> None:
        reg = self.obs.registry
        reg.counter(
            "veridp_udp_received_total",
            "UDP datagrams received on the report socket.",
            callback=lambda: self.received,
        )
        reg.counter(
            "veridp_udp_wrong_size_total",
            "Datagrams the precheck rejected (bad size/version; dead-lettered).",
            callback=lambda: self.wrong_size,
        )
        reg.counter(
            "veridp_udp_submit_errors_total",
            "Datagrams the daemon's submit() raised on.",
            callback=lambda: self.malformed,
        )
        reg.counter(
            "veridp_udp_dropped_total",
            "Datagrams refused by daemon backpressure.",
            callback=lambda: self.dropped,
        )
        reg.counter(
            "veridp_udp_socket_errors_total",
            "Transient socket errors absorbed by the receive loop.",
            callback=lambda: self.socket_errors,
        )
        reg.counter(
            "veridp_listener_rebind_total",
            "Report-socket rebinds after transient errors (capped by "
            "max_rebinds over the listener's lifetime).",
            callback=lambda: self.rebinds,
        )
        reg.counter(
            "veridp_listener_oversize_total",
            "Datagrams longer than a wire report (kernel-truncated at the "
            "receive buffer; dead-lettered, never silently clipped).",
            callback=lambda: self.oversize,
        )
        self._drain_hist = reg.histogram(
            "veridp_ingest_drain_depth",
            "Datagrams drained from the socket per receive wakeup.",
            buckets=(1, 2, 4, 8, 16, 32, 64, 128, 256),
        ).labels()

    def _open_socket(self) -> None:
        sock = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
        if self.ingest_batch > 1:
            # The drain loop empties the socket in bursts; a deeper kernel
            # buffer rides out the gap between wakeups at high rates.
            try:
                sock.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 1 << 21)
            except OSError:  # pragma: no cover - platform-dependent cap
                pass
        sock.bind((self._host, self._port))
        # The timeout doubles as the stop() wakeup: _loop re-checks the
        # running flag at least this often, so join can never hang behind
        # a blocked recvfrom.
        sock.settimeout(0.2)
        self._socket = sock
        self.address = sock.getsockname()
        self._port = self.address[1]  # keep the same port across rebinds

    def start(self) -> None:
        """Begin receiving datagrams (idempotent; restart-safe)."""
        if self._running:
            return
        if self._socket is None:
            self._open_socket()
        self._running = True
        self._thread = threading.Thread(
            target=self._loop, name="veridp-udp-listener", daemon=True
        )
        self._thread.start()

    def stop(self) -> None:
        """Stop the receive loop and close the socket (idempotent)."""
        self._running = False
        thread = self._thread
        if thread is not None:
            thread.join(timeout=5)
            self._thread = None
        sock = self._socket
        if sock is not None:
            self._socket = None
            try:
                sock.close()
            except OSError:  # pragma: no cover - defensive
                pass

    def __enter__(self) -> "UdpReportListener":
        self.start()
        return self

    def __exit__(self, *exc_info) -> None:
        self.stop()

    def stats(self) -> Dict[str, int]:
        return {
            "received": self.received,
            "malformed": self.malformed,
            "dropped": self.dropped,
            "wrong_size": self.wrong_size,
            "oversize": self.oversize,
            "socket_errors": self.socket_errors,
            "rebinds": self.rebinds,
        }

    def _recover_socket(self, consecutive_errors: int) -> int:
        """Absorb one transient socket error: count, back off, rebind.

        Returns the updated consecutive-error count, or -1 when a budget
        (error streak or lifetime rebinds) is exhausted and the loop must
        stop.  A failed rebind leaves the count unchanged so the next pass
        backs off again.
        """
        self.socket_errors += 1
        consecutive_errors += 1
        if consecutive_errors > self.max_socket_errors:
            return -1
        if self.rebinds >= self.max_rebinds:
            # Consecutive streaks reset on success, so without this
            # lifetime cap an intermittently-failing socket rebinds
            # silently forever.  Stop loudly instead.
            return -1
        time.sleep(min(1.0, self.error_backoff * (2**consecutive_errors)))
        try:
            if self._socket is not None:
                self._socket.close()
            self._open_socket()
        except OSError:
            return consecutive_errors  # backoff again on the next pass
        self.rebinds += 1
        return consecutive_errors

    def _dead_letter_odd(self, payload: bytes, nbytes: int) -> None:
        """Route one wrong-length datagram to the DLQ with the right tag.

        A datagram of exactly ``REPORT_SIZE + 1`` bytes overflowed the
        receive slot — the kernel truncated it, so its true length is
        unknowable; it is counted as *oversize*, never silently clipped
        to a plausible report.
        """
        if nbytes == REPORT_SIZE + 1:
            self.oversize += 1
            self.daemon.dead_letter_transport(
                payload,
                f"oversize datagram truncated at {REPORT_SIZE + 1} bytes "
                f"(a wire report is {REPORT_SIZE} bytes)",
            )
        else:
            self.wrong_size += 1
            self.daemon.dead_letter_transport(
                payload,
                f"wrong size {nbytes} (a wire report is {REPORT_SIZE} bytes)",
            )

    def _loop(self) -> None:
        if self.ingest_batch > 1:
            self._loop_batched()
        else:
            self._loop_scalar()

    def _loop_scalar(self) -> None:
        """Legacy one-datagram-per-submit loop (``ingest_batch=1``).

        The receive buffer is sized from ``REPORT_SIZE`` (not a magic
        constant): one extra byte turns any oversize datagram into a
        detectable kernel truncation instead of a silent clip.
        """
        consecutive_errors = 0
        while self._running:
            sock = self._socket
            if sock is None:
                return
            try:
                payload, _ = sock.recvfrom(REPORT_SIZE + 1)
            except socket.timeout:
                continue
            except OSError:
                if not self._running:
                    return  # socket closed under us during stop()
                consecutive_errors = self._recover_socket(consecutive_errors)
                if consecutive_errors < 0:
                    self._running = False
                    return
                continue
            consecutive_errors = 0
            self.received += 1
            if len(payload) == REPORT_SIZE + 1:
                self._dead_letter_odd(payload, len(payload))
                continue
            reason = payload_precheck(payload)
            if reason is not None:
                # A datagram that *cannot* decode never reaches the queue:
                # it goes to the dead-letter queue (and the WAL's malformed
                # stream on a durable server) as evidence, not to a worker.
                self.wrong_size += 1
                self.daemon.dead_letter_transport(payload, reason)
                continue
            try:
                accepted = self.daemon.submit(payload)
            except Exception as exc:
                self.malformed += 1
                self.daemon.dead_letter_transport(
                    payload, f"submit failed: {exc}"
                )
                continue
            if accepted is False:
                self.dropped += 1

    def _loop_batched(self) -> None:
        """Frame-native receive loop: one blocking recv, then a
        non-blocking drain of up to ``ingest_batch`` datagrams into a
        preallocated frame buffer, one version screen and one
        ``submit_frame`` per drain.  A report only becomes an individual
        bytes object on the error paths (odd sizes, bad version)."""
        fb = FrameBuffer(self.ingest_batch)
        consecutive_errors = 0
        while self._running:
            sock = self._socket
            if sock is None:
                return
            try:
                nbytes = sock.recv_into(fb.slot())
            except socket.timeout:
                continue
            except OSError:
                if not self._running:
                    return  # socket closed under us during stop()
                consecutive_errors = self._recover_socket(consecutive_errors)
                if consecutive_errors < 0:
                    self._running = False
                    return
                continue
            consecutive_errors = 0
            odd: List[Tuple[bytes, int]] = []
            if nbytes == REPORT_SIZE:
                fb.commit()
            else:
                odd.append((fb.slot_bytes(nbytes), nbytes))
            # Opportunistic drain: everything already queued in the kernel,
            # without blocking (drain_socket swallows socket errors — the
            # next blocking recv surfaces them through the recovery path).
            drained = 1
            try:
                sock.settimeout(0)
                extra, more_odd = drain_socket(
                    sock, fb, self.ingest_batch - 1
                )
                drained += extra
                odd.extend(more_odd)
            finally:
                try:
                    sock.settimeout(0.2)
                except OSError:  # pragma: no cover - closed under us
                    pass
            self.received += drained
            self._drain_hist.observe(drained)
            for payload, n in odd:
                self._dead_letter_odd(payload, n)
            if not fb.rows:
                continue
            clean, rejected = screen_frame(fb.take())
            for payload, reason in rejected:
                self.wrong_size += 1
                self.daemon.dead_letter_transport(payload, reason)
            if not clean:
                continue
            frame = Frame(clean)
            count = frame.count
            try:
                admitted = self.daemon.submit_frame(frame)
            except Exception as exc:
                self.malformed += count
                for payload in frame.rows():
                    self.daemon.dead_letter_transport(
                        payload, f"submit failed: {exc}"
                    )
                continue
            if admitted < count:
                self.dropped += count - admitted
