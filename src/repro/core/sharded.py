"""The sharded daemon: shard worker processes behind a supervisor.

:class:`ShardedVeriDPDaemon` shards reports by ``(inport, outport)`` hash
across ``multiprocessing`` workers.  Each worker (:func:`_shard_worker_main`)
is a pipe transport over a :class:`~repro.core.replica.ShardReplica` — its
shard of the path table as pair specs, whose node pools a forked worker
inherits and a patched one receives localized (no topology) — which
verifies frames locally and answers every batch with its delta (counters,
failed payloads) on the same duplex pipe; the parent's collector thread
settles each delta as it arrives, sending the (rare) failures through the
server's intake, the verdict of record.  The direct daemon (in-thread) and
the cluster tier's nodes (TCP) are the other transports over the same
replica.  This is the shape that turns the GIL-flat throughput curve into a
scaling one when cores are available.

Delivery is the cluster frontend's: each worker generation keeps a
:class:`~repro.core.delivery.DeliveryBook`, which WAL-logs a batch once at
its cut, holds it un-acked under a seq until the worker's
``drain(seq)`` reply retires it, and surrenders what is left when the
worker dies.  Resilience: dead or wedged worker processes are detected
(exitcode polling + heartbeat: any reply refreshes it, pings keep an idle
worker answering) and restarted with bounded exponential backoff, their
replica resynchronised against the current :attr:`PathTable.version`; the
successor adopts the dead generation's surrendered batches, so a worker
killed mid-batch costs no verdict.  When restarts exceed the budget the
daemon degrades to a single-process :class:`~repro.core.direct.VeriDPDaemon`
fallback, which takes the same surrender.  Each generation gets its *own*
pipe, so a worker killed mid-``recv``/``send`` cannot corrupt the stream of
its successor.
"""

from __future__ import annotations

import multiprocessing
import os
import pickle
import select
import socket
import threading
import time
from typing import TYPE_CHECKING, Dict, Iterable, List, Optional, Tuple

from ..obs import Observability
from .delivery import DeliveryBook, InFlight
from .direct import VeriDPDaemon, _log_frame, settle
from .ingest import shard_split
from .replica import (
    Delta,
    ShardReplica,
    VerdictFamilies,
    build_one_shard_spec,
    pack_specs,
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
    conn,
    pairs: Dict[Tuple[int, int], tuple],
    packing: Tuple[Tuple[int, int], ...],
    port_limit: int,
) -> None:
    """One shard worker process: the pipe transport of a :class:`ShardReplica`.

    Message protocol on ``conn``, the worker's end of its generation's
    duplex pipe, one FIFO in each direction::

        parent -> worker            worker -> parent
        ("batch", seq, frame)       replica.drain(seq), a Delta
        ("patch", blob)             -- (a pickled pack_specs pair delta:
                                        None drops the pair)
        ("reload", blob)            -- (swap in a pickled pack_specs body)
        ("digest", token)           ("digest", token, sha1)
        ("ping",)                   ("pong",)
        ("crash", how)              -- (test hook: "exit" dies, "wedge" hangs)

    A ``patch`` or ``reload`` applies before every batch behind it.  Any
    reply refreshes the parent's heartbeat for this worker.  A payload can
    never kill the worker (the replica counts undecodable payloads and
    ships verification crashes back as records), and a shard replica
    covers its whole hash shard, so an unknown pair is a verdict.  The
    worker keeps no metrics: the parent folds each delta's counts and
    batch figures into the ``veridp_shard_*`` families on arrival.
    """
    replica = ShardReplica(worker_id, packing, pairs, port_limit=port_limit)
    while True:
        try:
            message = conn.recv()
        except EOFError:
            return  # the parent is gone
        kind = message[0]
        if kind == "batch":
            replica.verify(message[2])
            conn.send(replica.drain(message[1]))
        elif kind == "ping":
            conn.send(("pong",))
        elif kind == "reload":
            replica.reload(pickle.loads(message[1]))
        elif kind == "patch":
            replica.patch(pickle.loads(message[1]))
        elif kind == "digest":
            conn.send(("digest", message[1], replica.digest()))
        elif kind == "crash":  # pragma: no cover - exercised via subprocess
            if message[1] == "exit":
                os._exit(13)
            while True:  # "wedge": alive but unresponsive
                time.sleep(0.5)


class _WorkerLink(DeliveryBook):
    """One shard worker generation: its process, the parent's end of its
    pipe, and its delivery book."""

    def __init__(self, shard: int, generation: int, process, conn, *book) -> None:
        super().__init__(*book)
        self.shard = shard
        self.generation = generation
        self.process = process
        self.conn = conn
        #: Serialises writers: a message is several writes on the pipe.
        self.send_lock = threading.Lock()
        self.last_reply = time.monotonic()

    def send(self, message) -> None:
        """Ship one message.  A dead generation drops it: its book is
        surrendered to the successor, which the restart brings current."""
        with self.send_lock:
            try:
                self.conn.send(message)
            except OSError:
                pass

    def post(self, message) -> None:
        """Ship a small message only if that cannot block (a ping): a
        wedged worker with a full pipe must not stall its supervisor."""
        if not self.send_lock.acquire(blocking=False):
            return
        try:
            if select.select([], [self.conn], [], 0)[1]:
                self.conn.send(message)
        except OSError:
            pass
        finally:
            self.send_lock.release()

    def end(self) -> None:
        """Take the process down for good, wedged or not: the replica
        holds nothing the parent lacks."""
        self.process.kill()
        self.process.join(timeout=2)


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
    comes back over the worker's pipe and one parent collector thread
    settles it on arrival: failed payloads go through
    :meth:`VeriDPServer.receive_report_rows`, one call per batch, so
    localization, the localization cache and the incident log behave
    exactly as in the single-process server — and the counters follow the
    server's verdicts.

    ``join()`` dispatches the shard buffers and waits until no accepted row
    is left without a verdict.  Call it before reading :meth:`stats` for
    exact figures.

    Resilience: a :class:`WorkerSupervisor` polls worker liveness
    (``exitcode`` + heartbeat) and restarts dead or wedged workers with
    bounded exponential backoff, rebuilding the restarted shard's replica
    from the *current* path table (and patching the other workers when
    :attr:`PathTable.version` moved meanwhile); the successor redelivers
    what its predecessor had not answered.  Worker restarts beyond
    ``restart_budget`` degrade the daemon to a single-process
    :class:`VeriDPDaemon` so ingestion survives a crash loop.  Each shard
    keeps at most ``max_pending_batches`` batches un-acked, under an
    explicit overflow policy — ``block`` (default, loss-free) or
    ``drop-new`` (accounted tail drop); ``drop-oldest`` is not offered here
    because a batch handed to a worker process cannot be recalled.
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
        self._packing = wire_packing(server.hs.layout)
        #: Whether the workers' replicas compile the vector kernel.
        self.vector = wire_kernel({}, self._packing) is not None
        methods = multiprocessing.get_all_start_methods()
        self._ctx = multiprocessing.get_context(
            "fork" if "fork" in methods else None
        )
        #: Per shard, the current worker generation (None before start).
        self._links: List[Optional[_WorkerLink]] = [None] * workers
        #: Rows accepted with no verdict yet; its condition also wakes the
        #: digest waiters.
        self._flight = InFlight()
        self._replica_version = -1
        self._dirty_token: Optional[Tuple[int, int]] = None
        self._digest_seq = 0
        self._digests: Dict[int, Tuple[int, str]] = {}
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
        #: Serialises offers against a generation swap or the degrade.
        self._dispatch_lock = threading.Lock()
        self._merge_lock = threading.Lock()
        self._server_mutex = threading.Lock()
        #: Serialises replica resyncs and respawns, held across their sends
        #: (never across a settle, which takes ``_server_mutex``).
        self._resync_lock = threading.Lock()
        self._collector: Optional[threading.Thread] = None
        self._wake_r: Optional[socket.socket] = None
        self._wake_w: Optional[socket.socket] = None
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

        def supervisor_stat(name: str) -> int:
            supervisor = self._supervisor
            return 0 if supervisor is None else getattr(supervisor, name)

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
                ("drop-new",): self.dropped_new + fallback_stat("dropped")
            },
        )
        reg.gauge(
            "veridp_queue_depth",
            "Payloads buffered parent-side awaiting dispatch.",
            callback=lambda: sum(link.rows for link in self._links if link),
        )
        reg.gauge(
            "veridp_in_flight",
            "Payloads accepted that have no verdict yet.",
            callback=self._in_flight,
        )
        reg.counter(
            "veridp_lost_in_restart_total",
            "Payloads dispatched to a worker whose verdicts never returned "
            "(0: a restart redelivers them).",
            callback=lambda: 0,
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
            callback=lambda: supervisor_stat("restarts"),
        )
        reg.counter(
            "veridp_wedged_restarts_total",
            "Restarts triggered by heartbeat timeout rather than death.",
            callback=lambda: supervisor_stat("wedged_restarts"),
        )
        reg.gauge(
            "veridp_restart_budget",
            "Supervisor crash-restart budget before degrading.",
            callback=lambda: supervisor_stat("restart_budget"),
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
        return self._flight.rows

    def _merged_verdicts(self) -> Dict[tuple, int]:
        with self._merge_lock:
            merged = dict(self.counters)
        fallback = self._fallback
        if fallback is not None:
            for verdict, count in fallback.counters.items():
                merged[verdict] += count
        return {(v.value,): n for v, n in merged.items()}

    def _log_rows(self, frame: bytes) -> None:
        """WAL-before-verify at batch granularity: a book's cut appends
        its new rows as one ``RT_REPORT_BATCH`` record."""
        persist = self.server.persist
        if persist is not None and self.record_reports:
            persist.log_report_frame(frame)

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
        self._wake_r, self._wake_w = socket.socketpair()
        for worker_id in range(self.workers):
            self._spawn(worker_id, sync.specs[worker_id])
        self._running = True
        self._collector = threading.Thread(
            target=self._collect, name="veridp-shard-collector", daemon=True
        )
        self._collector.start()
        if self._supervisor is not None:
            self._supervisor.start()

    def _spawn(self, shard: int, spec: Dict) -> None:
        """Fork the shard's next worker generation on a fresh duplex pipe.

        A fresh pipe per generation matters: a worker killed mid-message
        would corrupt the stream for any successor.  The successor adopts
        what the previous generation's book still holds (surrendered: in
        the WAL already, counted in flight) and gets it as one batch.
        """
        old = self._links[shard]
        generation = 0 if old is None else old.generation + 1
        conn, child = self._ctx.Pipe()
        process = self._ctx.Process(
            target=_shard_worker_main,
            args=(
                shard,
                child,
                spec,
                self._packing,
                # Undecodable-port rows count malformed in the shard's own
                # families, as in the daemon's books (the codec's switches
                # are the topology's, fixed when the server was built).
                self.server.codec.id_limit,
            ),
            name=f"veridp-shard-{shard}-gen{generation}",
            daemon=True,
        )
        process.start()
        child.close()  # the worker holds the only copy: its death reads EOF
        link = _WorkerLink(
            shard, generation, process, conn, self._flight, self.batch_size, self._log_rows
        )
        with self._dispatch_lock:
            self._links[shard] = link
            frames = [] if old is None else old.surrender()
        self._wake()  # the collector picks up the new pipe
        batch = link.adopt(frames) if frames else None
        if batch is not None:
            link.send(("batch", batch[0], batch[1]))

    def _wake(self) -> None:
        try:
            self._wake_w.send(b"\0")
        except OSError:  # pragma: no cover - the wake buffer is full
            pass

    def stop(self) -> None:
        """Consolidate outstanding work and terminate the workers.

        Rows still without a verdict (a failed ``join``) stay in the last
        generation's books; a later :meth:`start` hands them to its workers.
        """
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
        self._stop_collector()
        for link in self._links:
            link.end()
            link.conn.close()
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
        """Route one wire-format report to its shard as a one-row frame.

        Every call increments :attr:`submitted` exactly once — including
        post-degrade calls delegated to the fallback — so the accounting
        identity in :meth:`stats` stays closed across the daemon's whole
        life.  A payload that is not one report long is dead-lettered here
        and counted in ``malformed``.

        Durable servers log reports at the *cut* (one batched WAL append
        per shard batch, see :class:`~repro.core.delivery.DeliveryBook`),
        not here: batch granularity keeps the WAL off the per-report fast
        path, and with ``fsync="interval"`` the loss window is the fsync
        interval either way.  A payload buffered but never cut is never
        logged — and was never verified, so the incident ledger cannot
        cite it.
        """
        if len(payload) == REPORT_SIZE:
            return self.submit_frame(Frame(payload)) == 1
        if self._fallback is None and not self._running:
            raise RuntimeError("daemon is not running; call start() first")
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

    def submit_frame(self, frame: Frame) -> int:
        """Split a frame across the shard books by pair key.

        One vectorized :func:`~repro.core.ingest.shard_split` replaces
        ``frame.count`` scalar hash/route/append rounds; each shard's chunk
        lands in its book's buffer, which the cut concatenates into one
        worker batch.  Returns the rows admitted: a batch the overflow
        policy refuses counts wholly against the call that cut it.
        """
        count = frame.count
        if count == 0:
            return 0
        if self._fallback is None:
            if not self._running:
                raise RuntimeError("daemon is not running; call start() first")
            self._catch_up()
            chunks = shard_split(frame.payload(), self.workers)
            admitted = self._buffer(enumerate(chunks), count)
            if admitted is not None:
                return admitted
        # Degraded: the fallback's own logging is off (its stream mixes
        # surrendered, already-logged rows), so new arrivals are logged
        # here before delegation.
        persist = self.server.persist
        if persist is not None and self.record_reports:
            _log_frame(persist, frame)
        with self._dispatch_lock:
            self.submitted += count
        return self._fallback.submit_frame(frame)

    def _catch_up(self) -> None:
        """Bring the fleet current before new rows can reach a replica."""
        if self.server._flush_deadline is not None:
            # Reports bypass the server here, so its coalescing window
            # would never see a tick: expire it on arrival, exactly as
            # receive_report_bytes does on the direct path.
            with self._server_mutex:
                self.server.maybe_flush_updates()
        if self.server.table.version != self._replica_version:
            # Rule churn moved the table under the fleet: patch the worker
            # replicas in place (pair deltas, no whole-table recompile)
            # before a row can reach a stale replica.
            self.resync_replicas()

    def _buffer(self, chunks: Iterable[Tuple[int, bytes]], count: int) -> Optional[int]:
        """Offer ``(shard, chunk)`` pairs to the shard books and send every
        batch they cut; returns rows admitted, or None (nothing taken)
        when the daemon has degraded."""
        batches = []
        with self._dispatch_lock:
            if self._fallback is not None:
                return None
            self.submitted += count
            for shard, chunk in chunks:
                if chunk:
                    link = self._links[shard]
                    batch = link.offer(chunk, len(chunk) // REPORT_SIZE)
                    if batch is not None:
                        batches.append((link, batch))
        admitted = count
        for link, batch in batches:
            if not self._send(link, *batch):
                admitted = max(0, admitted - batch[2])
        return admitted

    def _send(self, link: _WorkerLink, seq: int, frame: bytes, rows: int) -> bool:
        """Hand one cut batch to its worker under the overflow policy.

        Runs outside the dispatch lock: a ``block`` wait here must not
        stall other producers, and the supervisor's restart path (which
        the wait leans on for liveness) must never deadlock against us.
        A batch surrendered meanwhile is its successor's to send.
        """
        window = self.max_pending_batches
        with self.obs.span("admit", shard=link.shard, reports=rows):
            if self.overflow is not OverflowPolicy.BLOCK:
                if not link.has_room(seq, window):
                    link.retire(seq)  # tail drop: no reply will come
                    with self._merge_lock:
                        self.dropped_new += rows
                    return False
            while not self._flight.wait_for(lambda: link.has_room(seq, window), 0.2):
                # BLOCK: make sure a live consumer exists, then re-check.
                self._revive()
            if not link.dead:
                link.send(("batch", seq, frame))
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
        for link in list(self._links):
            batch = link.cut()
            if batch is not None:
                self._send(link, *batch)
        deadline = time.monotonic() + timeout
        while True:
            if self._fallback is not None:  # degraded while waiting
                self._fallback.join()
                return
            if self._flight.wait_for(lambda: self._flight.rows == 0, 0.05):
                return
            # A worker is slow or gone: revive the dead (the successor
            # redelivers what its predecessor never answered).
            self._revive()
            if time.monotonic() > deadline:
                owing = [link.shard for link in self._links if link.unacked or link.rows]
                raise RuntimeError(f"shard workers {owing} did not answer in time")

    def _collect(self) -> None:
        """The collector thread: settle each worker reply as it arrives."""
        # Loaded with the first pipe anyway; a direct serve never needs it.
        from multiprocessing.connection import wait

        while self._collector is not None:
            links = {link.conn: link for link in self._links if not link.dead}
            for conn in wait([self._wake_r, *links], timeout=1.0):
                if conn is self._wake_r:  # a respawn or stop()
                    self._wake_r.recv(4096)
                    continue
                try:
                    reply = conn.recv()
                except (EOFError, OSError):
                    # The generation died: its book waits for the restart
                    # to surrender it.
                    links[conn].dead = True
                    continue
                self._on_reply(links[conn], reply)

    def _on_reply(self, link: _WorkerLink, reply) -> None:
        """Handle one reply off a worker's pipe (any reply is a heartbeat)."""
        link.last_reply = time.monotonic()
        if isinstance(reply, Delta):
            # Settled under the book's lock: a restart cannot surrender
            # the batch meanwhile, so the verdicts count once.
            link.retire(reply.seq, lambda: self._settle(reply))
        elif reply[0] == "digest":
            self._digests[link.shard] = reply[1:]
            self._flight.notify()

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
        probes = []
        for link in self._links:
            alive = link.process.is_alive()
            if alive:
                link.post(("ping",))
            probes.append(WorkerProbe(link.shard, alive, now - link.last_reply))
        return probes

    def _restart_worker(self, shard: int) -> None:
        """Supervisor callback: replace one dead/wedged worker.

        Takes the old generation down, forks a successor whose replica is
        compiled from the *current* path table — but only the dead shard's
        slice of it — and hands it everything the old generation's book
        still held: the un-acked batches (whose late replies, if any, find
        them gone) and the buffer.  If the table version moved since the
        last replication, the survivors are brought up to date in place via
        pair deltas (:meth:`resync_replicas`) instead of a whole-table
        recompile.
        """
        self._links[shard].end()
        # Under the resync lock: no resync can patch the old generation
        # between the successor's spec build and its swap-in.
        with self._resync_lock:
            with self._server_mutex:
                self.server.refresh_if_dirty()
                spec = build_one_shard_spec(
                    self.server.table,
                    self.server.hs,
                    self.server.codec,
                    self.workers,
                    shard,
                )
            self._spawn(shard, spec)
        # The successor's replica is already current; patch the survivors
        # (idempotent for the successor) if the table moved under the fleet.
        self.resync_replicas()

    # -- replica resync --------------------------------------------------------

    def resync_replicas(self) -> Optional[int]:
        """Bring every worker replica up to date with the path table, in place.

        The pair deltas of :func:`~repro.core.replica.resync_specs` (the
        one the direct daemon and the cluster coordinator use) ship as
        per-shard ``patch`` messages, or, when the journal overflowed or
        the table was swapped, whole replicas as ``reload`` messages, on
        each worker's pipe ahead of any later batch.  Each body is packed
        over one node table (:func:`~repro.core.replica.pack_specs`) and
        pickled once, and ``resync_delta_bytes`` counts those bytes.

        Returns the number of pairs patched, ``0`` if the replicas were
        already current, or ``None`` when a full reload was required.
        """
        if self._fallback is not None or not self._running:
            return 0
        with self._resync_lock:
            with self._server_mutex:
                server = self.server
                if server.table.version == self._replica_version:
                    return 0
                sync = resync_specs(
                    server.table, server.hs, server.codec, self.workers, self._dirty_token
                )
            kind = "reload" if sync.full else "patch"
            # Each body is pickled once, here: its length is the count,
            # and the pipe ships the bytes as they are.
            messages = [
                (kind, pickle.dumps(pack_specs(spec), pickle.HIGHEST_PROTOCOL))
                if spec or sync.full
                else None
                for spec in sync.specs
            ]
            for link, message in zip(self._links, messages):
                if message is not None:
                    link.send(message)
            # Current only now: a producer that saw the old version waits
            # on the lock above until every patch is ahead of its rows.
            self._replica_version, self._dirty_token = sync.version, sync.token
        patched = None if sync.full else sum(len(spec) for spec in sync.specs)
        with self._merge_lock:
            self.resyncs += 1
            self.resync_delta_bytes += sum(len(m[1]) for m in messages if m is not None)
            if patched is None:
                self.full_resyncs += 1
            else:
                self.resync_pairs += patched
        return patched

    def replica_digests(self, timeout: float = 10.0) -> List[str]:
        """Collect every worker's replica fingerprint (ops/test hook).

        Workers answer on their pipes, where the collector thread picks the
        digests up beside the batch replies.  Two fleets whose digests
        match verify every report identically (see
        :func:`~repro.core.replica.replica_digest`).
        """
        if self._fallback is not None or not self._running:
            raise RuntimeError("no shard workers to digest")
        self._digest_seq += 1
        token = self._digest_seq
        for link in self._links:
            link.send(("digest", token))

        def pending() -> List[int]:
            return [
                w for w in range(self.workers) if self._digests.get(w, (0,))[0] != token
            ]

        if not self._flight.wait_for(lambda: not pending(), timeout):
            raise RuntimeError(f"shard workers {pending()} did not answer digest")
        return [self._digests[w][1] for w in range(self.workers)]

    def _degrade(self) -> None:
        """Restart budget exhausted: fall back to the threaded daemon.

        Ingestion must survive a worker crash loop; a single-process
        :class:`VeriDPDaemon` over the same server is slower but cannot
        lose a process.  Every shard's book is surrendered to it: un-acked
        batches and parent-side buffers alike, all in the WAL by then.
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
        # Surrendered rows were WAL-logged at their cut (or by the
        # surrender), and future delegated payloads are logged by submit():
        # the fallback must not log either a second time.
        fallback.record_reports = False
        fallback.start()
        for link in self._links:
            link.end()
        with self._dispatch_lock:
            for link in self._links:
                for frame in link.surrender():
                    # The rows leave this daemon's books for the fallback's.
                    self._flight.add(-(len(frame) // REPORT_SIZE))
                    fallback.submit_frame(Frame(frame))
            self.degraded = True
            self._fallback = fallback

    def kill_worker(self, shard: int) -> None:
        """Forcibly kill one shard worker (chaos/testing hook)."""
        if self._fallback is not None or not self._running:
            return
        self._links[shard].end()

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

        ``in_flight`` counts payloads accepted that have no verdict yet; it
        reads 0 after :meth:`join`.  ``lost_in_restart`` reads 0: a worker
        restart hands every batch its predecessor had not answered to the
        successor.  The accounting identity after a completed ``join`` on a
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
            "lost_in_restart": 0,
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
