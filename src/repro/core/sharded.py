"""The sharded daemon: shard worker processes behind a supervisor.

:class:`ShardedVeriDPDaemon` shards reports by ``(inport, outport)`` hash
across ``multiprocessing`` workers.  Each worker (:func:`_shard_worker_main`)
is a queue transport over a :class:`~repro.core.replica.ShardReplica` — its
shard of the path table as pair specs, whose node pools a forked worker
inherits and a patched one receives localized (no topology) — which
verifies frames locally and answers every batch with its
delta (counters, failed payloads) over a result pipe; the parent's
collector thread settles each delta as it arrives, sending the (rare)
failures through the server's intake, the verdict of record.
The direct daemon (in-thread) and the cluster tier's nodes (TCP) are the
other transports over the same replica.  This is the shape that turns the
GIL-flat throughput curve into a scaling one when cores are available.

Resilience: dead or wedged worker processes are detected (exitcode polling
+ heartbeat pings) and restarted with bounded exponential backoff, their
replica resynchronised against the current :attr:`PathTable.version`; when
restarts exceed the budget the daemon degrades to a single-process
:class:`~repro.core.direct.VeriDPDaemon` fallback rather than wedging.  Each
worker generation gets its *own* multiprocessing queues and result pipe, so a
worker killed mid-``get``/``put``/``send`` cannot poison a shared queue lock
or stream for its successor.
"""

from __future__ import annotations

import multiprocessing
import os
import pickle
import queue
import selectors
import socket
import threading
import time
from typing import TYPE_CHECKING, Dict, Iterable, List, Optional, Tuple

from ..obs import Observability
from .direct import VeriDPDaemon, _log_frame, settle
from .ingest import shard_split
from .replica import (
    Delta,
    ShardReplica,
    VerdictFamilies,
    _shard_of,
    build_one_shard_spec,
    resync_specs,
    wire_kernel,
    wire_packing,
)
from .reports import REPORT_SIZE, Frame, ReportDecodeError, payload_precheck
from .resilience import (
    DeadLetterQueue,
    OverflowPolicy,
    RestartBackoff,
    WorkerProbe,
    WorkerSupervisor,
)
from .server import VeriDPServer
from .verifier import Verdict

if TYPE_CHECKING:
    from ..obs.httpd import MetricsEndpoint

__all__ = ["ShardedVeriDPDaemon"]


def _shard_worker_main(
    worker_id: int,
    in_queue,
    results,
    hb_queue,
    pairs: Dict[Tuple[int, int], tuple],
    packing: Tuple[Tuple[int, int], ...],
    port_limit: int,
) -> None:
    """One shard worker process: the queue transport of a :class:`ShardReplica`.

    Message protocol (parent -> worker on ``in_queue``)::

        ("batch", frame)            verify a concatenated payload frame,
                                    reply ("batch", Delta) on results
        ("ping", seq)               reply ("pong", worker_id, seq) on hb_queue
        ("reload", pairs)           swap the compiled replica in place
        ("patch", {key: spec|None}) apply a pair delta: None drops the pair
        ("digest", token)           reply ("digest", id, token, sha1) on results
        ("crash", how)              test hook: "exit" dies, "wedge" hangs
        ("stop",)                   exit cleanly

    Replies go straight down the worker's own result pipe (no feeder
    thread): one per batch, so the parent settles verdicts as they come.
    A payload can never kill the worker (the replica counts undecodable
    payloads and ships verification crashes back as records), and a shard
    replica covers its whole hash shard, so an unknown pair is a verdict.
    The batch's :class:`~repro.core.replica.Delta` is the only reply and
    the worker keeps no metrics: the parent folds each delta's counts and
    batch figures into the ``veridp_shard_*`` families on arrival, so a
    worker killed between batches takes nothing unreported with it.
    """
    replica = ShardReplica(worker_id, packing, pairs, port_limit=port_limit)
    while True:
        message = in_queue.get()
        kind = message[0]
        if kind == "batch":
            replica.verify(message[1])
            results.send(("batch", replica.drain()))
        elif kind == "ping":
            hb_queue.put(("pong", worker_id, message[1]))
        elif kind == "reload":
            replica.reload(message[1])
        elif kind == "patch":
            replica.patch(message[1])
        elif kind == "digest":
            results.send(("digest", worker_id, message[1], replica.digest()))
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
    matcher row by row where the input calls for it.  Every batch's delta
    comes back over the result pipe and one parent collector thread
    settles it on arrival: failed payloads go through
    :meth:`VeriDPServer.receive_report_rows`, one call per batch, so
    localization, the localization cache and the incident log behave
    exactly as in the single-process server — and the counters follow the
    server's verdicts.

    ``join()`` dispatches the shard buffers and waits until no accepted row
    is left without a verdict.  Call it before reading :meth:`stats` for
    exact figures.

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
        #: Per shard: the read and write ends of the current generation's
        #: result pipe (the parent keeps the write end open, so a dead
        #: worker's pipe goes quiet instead of reading EOF forever).
        self._results: List = []
        self._result_writers: List = []
        #: Serialises reads of a result pipe between the collector and a
        #: restart salvaging the pipe it abandoned.
        self._read_lock = threading.Lock()
        self._hb_queues: List = []
        self._fbuffers: List[List[bytes]] = []  # per-shard frame chunks
        self._fcounts: List[int] = []  # rows pending in _fbuffers
        self._dispatched: List[int] = []
        self._accounted: List[int] = []
        #: Rows a restart gave up on: dispatched to a dead generation and
        #: neither answered nor recovered for its successor.
        self._written_off: List[int] = []
        self._generations: List[int] = []
        self._last_pong: List[float] = []
        self._ping_seq = 0
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
        #: The collector thread and what it recorded for waiters: the
        #: ``(token, digest)`` each shard answered.  ``_replies`` is notified
        #: after every settled batch and every digest.
        self._collector: Optional[threading.Thread] = None
        self._wake_r: Optional[socket.socket] = None
        self._wake_w: Optional[socket.socket] = None
        self._replies = threading.Condition()
        self._digests: Dict[int, Tuple[int, str]] = {}
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
        self._shard_families = VerdictFamilies(self.obs.registry, "shard")
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
        families are folded from every delta in :meth:`_settle`.  When
        degraded, the callbacks fold in the fallback daemon's figures — the
        fallback itself runs on a private registry so its own registrations
        cannot clobber these.
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
            callback=lambda: sum(self._fcounts),
        )
        reg.gauge(
            "veridp_in_flight",
            "Payloads accepted that have no verdict yet.",
            callback=self._in_flight,
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

    def _in_flight(self) -> int:
        """Rows accepted and not yet given a verdict."""
        fallback = self._fallback
        if fallback is not None:
            return fallback.stats()["queued"]
        return sum(self._owed())

    def _owed(self) -> List[int]:
        """Rows each shard owes a verdict: buffered parent-side, or
        dispatched to a live worker generation that has not answered."""
        with self._merge_lock:
            return [
                f + max(0, d - a - w)
                for f, d, a, w in zip(
                    self._fcounts, self._dispatched, self._accounted, self._written_off
                )
            ]

    def _merged_verdicts(self) -> Dict[tuple, int]:
        with self._merge_lock:
            merged = dict(self.counters)
        fallback = self._fallback
        if fallback is not None:
            for verdict, count in fallback.counters.items():
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
            sync = resync_specs(
                self.server.table, self.server.hs, self.server.codec, self.workers
            )
            self._replica_version, self._dirty_token = sync.version, sync.token
        self._processes = [None] * self.workers
        self._in_queues = [None] * self.workers
        self._results = [None] * self.workers
        self._result_writers = [None] * self.workers
        self._hb_queues = [None] * self.workers
        self._fbuffers = [[] for _ in range(self.workers)]
        self._fcounts = [0] * self.workers
        self._dispatched = [0] * self.workers
        self._accounted = [0] * self.workers
        self._written_off = [0] * self.workers
        self._generations = [0] * self.workers
        self._last_pong = [time.monotonic()] * self.workers
        self._wake_r, self._wake_w = socket.socketpair()
        for worker_id in range(self.workers):
            self._spawn_worker(worker_id, sync.specs[worker_id])
        self._running = True
        self._collector = threading.Thread(
            target=self._collect, name="veridp-shard-collector", daemon=True
        )
        self._collector.start()
        if self._supervisor is not None:
            self._supervisor.start()

    def _spawn_worker(self, worker_id: int, spec: Dict) -> None:
        """Fork one shard worker on a fresh generation of queues.

        Fresh queues per generation matter: a worker killed while holding a
        queue's internal lock would poison that queue for any successor.
        """
        in_queue = self._ctx.Queue(maxsize=self.max_pending_batches)
        results, writer = self._ctx.Pipe(duplex=False)
        hb_queue = self._ctx.Queue()
        process = self._ctx.Process(
            target=_shard_worker_main,
            args=(
                worker_id,
                in_queue,
                writer,
                hb_queue,
                spec,
                self._packing,
                # Undecodable-port rows count malformed in the shard's own
                # families, as in the daemon's books (the codec's switches
                # are the topology's, fixed when the server was built).
                self.server.codec.id_limit,
            ),
            name=f"veridp-shard-{worker_id}-gen{self._generations[worker_id]}",
            daemon=True,
        )
        process.start()
        self._in_queues[worker_id] = in_queue
        self._results[worker_id] = results
        self._result_writers[worker_id] = writer
        self._hb_queues[worker_id] = hb_queue
        self._processes[worker_id] = process
        self._last_pong[worker_id] = time.monotonic()
        self._wake()  # the collector picks up the new result pipe

    def _wake(self) -> None:
        try:
            self._wake_w.send(b"\0")
        except OSError:  # pragma: no cover - the wake buffer is full
            pass

    def stop(self) -> None:
        """Consolidate outstanding work and terminate the workers."""
        if self._endpoint is not None:
            self._endpoint.stop()
        if self._fallback is not None:
            self._fallback.stop()
            self._stop_collector()
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
        self._stop_collector()
        for q in self._in_queues:
            q.close()
            q.cancel_join_thread()
        self._processes = []
        self._in_queues = []
        for conn in [*self._results, *self._result_writers]:
            conn.close()
        self._results = []
        self._result_writers = []
        self._hb_queues = []
        self._running = False
        self._stopping = False

    def _stop_collector(self) -> None:
        collector, self._collector = self._collector, None
        if collector is not None:
            self._wake()
            collector.join(timeout=5)
            self._wake_r.close()
            self._wake_w.close()

    def __enter__(self) -> "ShardedVeriDPDaemon":
        self.start()
        return self

    def __exit__(self, *exc_info) -> None:
        self.stop()

    # -- ingestion -------------------------------------------------------------

    def submit(self, payload: bytes) -> bool:
        """Route one wire-format report to its shard as a one-row chunk.

        Every call increments :attr:`submitted` exactly once — including
        post-degrade calls delegated to the fallback — so the accounting
        identity in :meth:`stats` stays closed across the daemon's whole
        life.  A payload that is not one report long is dead-lettered here
        and counted in ``malformed``.

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
        if len(payload) != REPORT_SIZE:
            persist = self.server.persist
            if persist is not None and self.record_reports:
                persist.log_report_batch([payload])
            self.dead_letters.add(
                payload, "decode", ReportDecodeError(payload_precheck(payload))
            )
            with self._dispatch_lock:
                self.submitted += 1
            with self._merge_lock:
                self.malformed += 1
            return True
        self._catch_up()
        shard = _shard_of(int.from_bytes(payload[2:6], "big"), self.workers)
        return self._buffer([(shard, payload)], 1) == 1

    def submit_frame(self, frame: Frame) -> int:
        """Split a frame across the shard buffers by pair key.

        One vectorized :func:`~repro.core.ingest.shard_split` replaces
        ``frame.count`` scalar hash/route/append rounds; each shard's chunk
        lands in its frame-chunk buffer, which dispatch concatenates into
        one worker batch.  Returns the rows admitted: a dispatch batch the
        overflow policy refuses counts wholly against the call that
        triggered it.
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
        self._catch_up()
        chunks = shard_split(frame.payload(), self.workers)
        return self._buffer(enumerate(chunks), count)

    def _catch_up(self) -> None:
        """Bring the fleet current before new rows can reach a replica."""
        if self.server._flush_deadline is not None:
            # Reports bypass the server here, so its coalescing window
            # would never see a tick: expire it on arrival, exactly as
            # receive_report does on the direct path.
            with self._server_mutex:
                self.server.maybe_flush_updates()
        if self.server.table.version != self._replica_version:
            # Rule churn moved the table under the fleet: patch the worker
            # replicas in place (pair deltas, no whole-table recompile)
            # before a row can reach a stale replica.
            self.resync_replicas()

    def _buffer(self, chunks: Iterable[Tuple[int, bytes]], count: int) -> int:
        """Append ``(shard, chunk)`` pairs to the shard buffers and dispatch
        every buffer that reached ``batch_size``; returns rows admitted."""
        dispatch: List[Tuple[int, Tuple[List[bytes], int]]] = []
        with self._dispatch_lock:
            self.submitted += count
            for shard, chunk in chunks:
                if not chunk:
                    continue
                self._fbuffers[shard].append(chunk)
                self._fcounts[shard] += len(chunk) // REPORT_SIZE
                if self._fcounts[shard] >= self.batch_size:
                    dispatch.append((shard, self._take_shard_locked(shard)))
        admitted = count
        for shard, (pending, rows) in dispatch:
            if not self._dispatch(shard, pending, rows):
                admitted = max(0, admitted - rows)
        return admitted

    def _take_shard_locked(self, shard: int) -> Tuple[List[bytes], int]:
        """Swap out a shard's pending frame chunks (lock held)."""
        chunks = self._fbuffers[shard]
        self._fbuffers[shard] = []
        rows = self._fcounts[shard]
        self._fcounts[shard] = 0
        return chunks, rows

    def _dispatch(self, shard: int, chunks: List[bytes], rows: int) -> bool:
        """Hand one batch to a shard worker under the overflow policy.

        Runs outside the dispatch lock: a ``block`` wait here must not
        stall other producers, and the supervisor's restart path (which
        the wait leans on for liveness) must never deadlock against us.
        """
        with self.obs.span("admit", shard=shard, reports=rows):
            return self._dispatch_inner(shard, chunks, rows)

    def _dispatch_inner(self, shard: int, chunks: List[bytes], rows: int) -> bool:
        frame = b"".join(chunks)
        # WAL-before-verify, at batch granularity: one RT_REPORT_BATCH
        # record per frame, appended before any worker can see the rows.
        # Logged exactly once — a mid-dispatch degrade below delegates to a
        # fallback whose own logging is off.
        persist = self.server.persist
        if persist is not None and self.record_reports:
            persist.log_report_frame(frame)
        while True:
            fallback = self._fallback
            if fallback is not None:  # degraded mid-dispatch
                return fallback.submit_frame(Frame(frame)) == rows
            in_queue = self._in_queues[shard]
            try:
                if self.overflow is OverflowPolicy.BLOCK:
                    in_queue.put(("batch", frame), timeout=0.2)
                else:
                    in_queue.put_nowait(("batch", frame))
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
        """Dispatch the buffers and wait until every accepted row has its
        verdict (:meth:`_in_flight` reads 0), reviving dead workers while
        it waits; raises ``RuntimeError`` naming the shards still owing
        rows at the deadline."""
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
                if self._fbuffers[shard]
            ]
        for shard, (chunks, rows) in batches:
            self._dispatch(shard, chunks, rows)
        deadline = time.monotonic() + timeout
        while True:
            if self._fallback is not None:  # degraded while waiting
                self._fallback.join()
                return
            with self._replies:
                if self._replies.wait_for(
                    lambda: self._in_flight() == 0, timeout=0.05
                ):
                    return
            # A worker is slow or gone: revive the dead (a restart writes
            # off what its generation never answered).
            self._revive()
            if time.monotonic() > deadline:
                owing = [shard for shard, rows in enumerate(self._owed()) if rows]
                raise RuntimeError(f"shard workers {owing} did not answer in time")

    def _collect(self) -> None:
        """The collector thread: settle each worker reply as it arrives."""
        with selectors.DefaultSelector() as selector:
            selector.register(self._wake_r, selectors.EVENT_READ)
            pipes: List = []
            while self._collector is not None:
                current = [conn for conn in self._results if conn is not None]
                if current != pipes:  # a (re)spawn swapped a result pipe
                    for conn in pipes:
                        selector.unregister(conn)
                    for conn in current:
                        selector.register(conn, selectors.EVENT_READ, conn)
                    pipes = current
                for key, _events in selector.select(timeout=1.0):
                    if key.data is None:
                        self._wake_r.recv(4096)
                        continue
                    message = self._read(key.data)
                    if message is not None:
                        self._on_reply(message)

    def _read(self, conn, timeout: float = 0.0):
        """One message off a result pipe, or ``None`` if none is waiting."""
        with self._read_lock:
            try:
                return conn.recv() if conn.poll(timeout) else None
            except (EOFError, OSError):
                return None

    def _on_reply(self, message: tuple) -> None:
        """Handle one message off a result pipe (any generation)."""
        kind = message[0]
        if kind == "digest":
            with self._replies:
                self._digests[message[1]] = (message[2], message[3])
                self._replies.notify_all()
            return
        self._settle(message[1])
        with self._replies:
            self._replies.notify_all()

    def _settle(self, delta: Delta) -> None:
        """Fold one worker delta into the consolidated counters."""
        # Fold into the veridp_shard_* families outside _merge_lock: that
        # takes registry/metric locks, and holding _merge_lock across it
        # would serialise scrapes (whose callbacks take _merge_lock)
        # against every batch for no benefit.
        self._shard_families.fold(delta)
        if not (delta.failures or delta.crashed or delta.malformed):
            # Nothing flagged: no intake call.
            with self._merge_lock:
                self.processed += delta.processed
                self._accounted[delta.source] += delta.processed
                self.counters[Verdict.PASS] += delta.processed
            return
        with self._server_mutex:
            if delta.failures:
                # The server's verdict is the one of record: bring it
                # current first, as a report on the direct server path would.
                self.server.maybe_flush_updates()
                self.server.refresh_if_dirty()
            processed, malformed, crashed, counters, letters = settle(
                self.server, delta
            )
        with self._merge_lock:
            self.processed += processed
            self.malformed += malformed
            self.verify_errors += crashed
            self._accounted[delta.source] += processed + malformed + crashed
            for verdict, count in counters.items():
                self.counters[verdict] += count
        for letter in letters:
            self.dead_letters.add(*letter)

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
        (undelivered batches are re-dispatched, replies not yet collected
        are settled), then forks a successor whose replica is compiled from
        the *current* path table — but only the dead shard's slice of it.  If
        the table version moved since the last replication, the survivors
        are brought up to date in place via pair deltas
        (:meth:`resync_replicas`) instead of a whole-table recompile.
        """
        old_process = self._processes[shard]
        old_in = self._in_queues[shard]
        old_out = self._results[shard]
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
        with self._merge_lock:
            # What the dead generation never answered is lost, except the
            # batches recovered for its successor.
            self._written_off[shard] = (
                self._dispatched[shard]
                - self._accounted[shard]
                - len(recovered) // REPORT_SIZE
            )
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
            self._in_queues[shard].put(("batch", recovered))

    # -- replica resync --------------------------------------------------------

    def resync_replicas(self) -> Optional[int]:
        """Bring every worker replica up to date with the path table, in place.

        The pair deltas of :func:`~repro.core.replica.resync_specs` (the
        one the direct daemon and the cluster coordinator use) ship as
        per-shard ``patch`` messages, or, when the journal overflowed or
        the table was swapped, whole replicas as ``reload`` messages.

        Returns the number of pairs patched, ``0`` if the replicas were
        already current, or ``None`` when a full reload was required.
        """
        if self._fallback is not None or not self._running:
            return 0
        with self._server_mutex:
            server = self.server
            if server.table.version == self._replica_version:
                return 0
            sync = resync_specs(
                server.table, server.hs, server.codec, self.workers, self._dirty_token
            )
            if sync.full:
                messages = [("reload", spec) for spec in sync.specs]
                patched: Optional[int] = None
            else:
                messages = [("patch", spec) if spec else None for spec in sync.specs]
                patched = sum(len(spec) for spec in sync.specs)
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
            self._replica_version, self._dirty_token = sync.version, sync.token
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

        Workers answer on their result pipes, where the collector thread
        picks the digests up beside the batch replies.  Two fleets whose
        digests match verify every report identically (see
        :func:`~repro.core.replica.replica_digest`).
        """
        if self._fallback is not None or not self._running:
            raise RuntimeError("no shard workers to digest")
        self._digest_seq += 1
        token = self._digest_seq
        for shard in range(self.workers):
            self._in_queues[shard].put(("digest", token), timeout=1.0)

        def pending() -> List[int]:
            return [
                w for w in range(self.workers) if self._digests.get(w, (0,))[0] != token
            ]

        with self._replies:
            if not self._replies.wait_for(lambda: not pending(), timeout):
                raise RuntimeError(f"shard workers {pending()} did not answer digest")
            return [self._digests[w][1] for w in range(self.workers)]

    def _drain_abandoned(self, old_in, old_out) -> bytes:
        """Salvage an abandoned queue and pipe generation.

        Undelivered ``batch`` frames come back, concatenated, for
        re-dispatch; replies the collector has not taken yet are settled so
        their work is not double-lost.  Anything a killed worker had
        dequeued but not answered is unrecoverable and shows up as
        ``lost_in_restart``.
        """
        recovered: List[bytes] = []
        while True:
            try:
                message = old_in.get(timeout=0.05)
            except (queue.Empty, OSError):
                break
            if message[0] == "batch":
                recovered.append(message[1])
        while True:
            message = self._read(old_out, timeout=0.05)
            if message is None:
                break
            self._on_reply(message)
        old_in.close()
        old_in.cancel_join_thread()
        return b"".join(recovered)

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
                self._in_queues[shard], self._results[shard]
            )
            # Salvaged payloads leave the sharded ledger for the fallback's:
            # settle their dispatch debt here or they would double-count as
            # lost_in_restart *and* as fallback `processed`.
            with self._merge_lock:
                self._accounted[shard] += len(recovered) // REPORT_SIZE
                self._written_off[shard] = (
                    self._dispatched[shard] - self._accounted[shard]
                )
            fallback.submit_frame(Frame(recovered))
        persist = self.server.persist
        with self._dispatch_lock:
            for shard in range(self.workers):
                for chunk in self._fbuffers[shard]:
                    if persist is not None and self.record_reports:
                        persist.log_report_frame(chunk)
                    fallback.submit_frame(Frame(chunk))
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
        includes in-flight work mid-run).  ``in_flight`` counts payloads
        accepted that have no verdict yet; it reads 0 after :meth:`join`.
        The accounting identity after a completed ``join`` on a
        non-degraded daemon is::

            submitted == processed + malformed + verify_errors
                         + dropped_new + lost_in_restart

        ``dropped_new`` is sharded tail drop (the only policy decision
        this daemon can take); ``dropped_oldest`` and ``block_timeouts``
        are emitted as 0 for key uniformity, and ``dropped`` is their
        total, mirroring :meth:`PolicyQueue.stats` (DESIGN.md §8).
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
            "in_flight": self._in_flight(),
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
        stats["dropped"] = (
            stats["dropped_new"] + stats["dropped_oldest"] + stats["block_timeouts"]
        )
        return stats

