"""The sharded daemon: shard worker processes behind a supervisor.

:class:`ShardedVeriDPDaemon` shards reports by ``(inport, outport)`` hash
across ``multiprocessing`` workers.  Each worker (:func:`_shard_worker_main`)
serves a :class:`~repro.core.replica.ShardReplica` — its shard of the path
table as pair specs, whose node pools a forked worker inherits and a
patched one receives localized (no topology) — through the member loop a
cluster node runs over TCP, :func:`~repro.core.replica.serve_replica`: it
verifies frames locally and answers every batch with its delta (counters,
failed payloads) on the same duplex pipe.  The direct daemon runs the same
replica in-thread.  This is the shape that turns the GIL-flat throughput
curve into a scaling one when cores are available.

The parent side is the cluster's: one
:class:`~repro.core.dispatch.Dispatcher` sends the batches, takes every
reply on one intake thread, settles it into one set of books and handles
a member's failure, over a *pipe link* per worker generation here and a
*TCP link* per node there.  Each generation's
:class:`~repro.core.delivery.DeliveryBook` WAL-logs a batch once at its
cut, holds it un-acked under a seq until the worker's ``drain(seq)``
reply retires it, and surrenders what is left when the worker dies.
Resilience: dead or wedged worker processes are detected (exitcode
polling + heartbeat: a ping left unanswered too long) and restarted with
bounded exponential backoff, their replica resynchronised against the
current :attr:`PathTable.version`; the successor takes the dead
generation's surrendered batches, so a worker killed mid-batch costs no
verdict.  When restarts exceed the budget the daemon degrades instead of
wedging: every shard's next generation runs the same worker loop on a
thread of the parent (:class:`_ShardThread`), over the same kind of pipe,
link and book, and takes the same surrender.  Each generation gets its
*own* pipe, so a worker killed mid-``recv``/``send`` cannot corrupt the
stream of its successor.
"""

from __future__ import annotations

import multiprocessing
import os
import socket
import threading
from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Tuple

from ..obs import Observability
from .dispatch import Books, Dispatcher, Link
from .ingest import shard_split
from .replica import (
    ShardReplica,
    VerdictFamilies,
    build_one_shard_spec,
    pack_specs,
    resync_specs,
    serve_replica,
    wire_kernel,
    wire_packing,
)
from .reports import REPORT_SIZE, Frame, ReportDecodeError, payload_precheck
from .resilience import (
    OverflowPolicy,
    RestartBackoff,
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
    """One shard worker (a process, or once degraded a thread): its replica,
    served over its end of the generation's duplex pipe by
    :func:`~repro.core.replica.serve_replica`.

    A shard replica covers its whole hash shard, so an unknown pair is a
    verdict.  The loop ends when the parent closes the pipe.
    """
    replica = ShardReplica(worker_id, packing, pairs, port_limit=port_limit)
    serve_replica(replica, conn)


class _ShardThread(threading.Thread):
    """A degraded shard's member: :func:`_shard_worker_main` on a thread of
    the parent, over its end of the generation's duplex pipe.

    It looks like a worker process to its :class:`~repro.core.dispatch.Link`:
    :meth:`kill` shuts the thread's end of the pipe down, through a dup of
    its fd taken at the start (never a reused fd), so both ends read EOF as
    when a worker process dies, and the member loop ends.  A loop that
    ends for any other reason shuts it down too.
    """

    def __init__(self, name: str, args: tuple) -> None:
        super().__init__(target=_shard_worker_main, args=args, name=name, daemon=True)
        self._conn = args[1]  # the worker's end of the pipe
        self._end = socket.socket(fileno=os.dup(self._conn.fileno()))
        self._end_lock = threading.Lock()

    def run(self) -> None:
        try:
            super().run()
        finally:
            self.kill()
            self._conn.close()

    def kill(self) -> None:
        with self._end_lock:
            try:
                self._end.shutdown(socket.SHUT_RDWR)
            except OSError:  # killed before: the dup is closed
                pass
            self._end.close()


class ShardedVeriDPDaemon(Dispatcher, Books):
    """Multiprocess report verification, sharded by ``(inport, outport)``.

    The parent peeks the two wire port ids out of each payload (bytes 2-6),
    hashes them to a shard, and ships payloads to that shard's worker in
    batches; each worker verifies against its own compiled path-table
    replica with no shared state, sidestepping the GIL entirely.  Each
    worker's :class:`~repro.core.replica.ShardReplica` compiles its pairs
    into the vector batch kernel (:mod:`repro.core.vector`) and verifies
    whole dispatch batches as array operations, falling back to the scalar
    matcher row by row where the input calls for it.  Sending, the reply
    intake, the settle and member failure are the
    :class:`~repro.core.dispatch.Dispatcher`'s, shared with the cluster:
    failed payloads go through :meth:`VeriDPServer.receive_report_rows`,
    one call per batch, so localization, the localization cache and the
    incident log behave exactly as in the single-process server — and the
    counters follow the server's verdicts.

    ``join()`` dispatches the shard buffers and waits until no accepted row
    is left without a verdict.  Call it before reading :meth:`stats` for
    exact figures.

    Resilience: a :class:`WorkerSupervisor` polls worker liveness
    (``exitcode`` + heartbeat) and restarts dead or wedged workers with
    bounded exponential backoff, rebuilding the restarted shard's replica
    from the *current* path table (and patching the other workers when
    :attr:`PathTable.version` moved meanwhile); the successor is handed
    what its predecessor had not answered.  Worker restarts beyond
    ``restart_budget`` degrade the daemon: every shard is restarted once
    more, as a thread of this process running the same worker loop
    (:class:`_ShardThread`), which takes its predecessor's rows through the
    same failure path, so ingestion survives a crash loop.  Each shard
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
        overflow = OverflowPolicy.coerce(overflow)
        if overflow is OverflowPolicy.DROP_OLDEST:
            raise ValueError(
                "drop-oldest is not supported by the sharded daemon: batches "
                "already handed to a worker process cannot be recalled; use "
                "the threaded VeriDPDaemon for newest-wins ingestion"
            )
        Dispatcher.__init__(
            self, self.take, batch_size, self._log_rows, max_pending_batches, overflow
        )
        self.obs = obs or server.obs
        Books.__init__(
            self, server, VerdictFamilies(self.obs.registry, "shard"), workers
        )
        self.workers = workers
        self.max_pending_batches = max_pending_batches
        #: The next worker generation per shard (its member's name).
        self._generations = [0] * workers
        self._packing = wire_packing(server.hs.layout)
        #: Whether the workers' replicas compile the vector kernel.
        self.vector = wire_kernel({}, self._packing) is not None
        methods = multiprocessing.get_all_start_methods()
        self._ctx = multiprocessing.get_context(
            "fork" if "fork" in methods else None
        )
        self._running = False
        self._stopping = False
        #: Past the restart budget: every shard's member is a thread.
        self.degraded = False
        self._supervisor: Optional[WorkerSupervisor] = None
        if supervise:
            self._supervisor = WorkerSupervisor(
                probe=self.probes,
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
        # A daemon that burned its restart budget still ingests (on its
        # shard threads) but is operator-attention-worthy: report unhealthy.
        return self._running and not self.degraded, detail

    def _register_metrics(self) -> None:
        """Expose the consolidated parent-side view on the shared registry.

        Re-registers the ingestion families the server/threaded daemon may
        already own (latest owner wins); the books' families are
        :meth:`Books._register_books`'s, and the per-shard
        ``veridp_shard_*`` families are folded from every delta
        :meth:`Books.take` retires.
        """
        reg = self.obs.registry
        self._register_books(reg)

        def stat(key: str) -> Callable[[], int]:
            return lambda: self.stats().get(key, 0)

        for kind, name, read, text in (
            ("counter", "veridp_submitted_total", lambda: self.submitted,
             "Report payloads offered to the daemon (admitted or not)."),
            ("gauge", "veridp_queue_depth",
             lambda: sum(link.rows for link in list(self._links.values())),
             "Payloads buffered parent-side awaiting dispatch."),
            ("gauge", "veridp_in_flight", lambda: self.flight.rows,
             "Payloads accepted that have no verdict yet."),
            ("counter", "veridp_lost_in_restart_total", stat("lost_in_restart"),
             "Payloads dispatched to a worker whose verdicts never returned "
             "(0: a restart redelivers them)."),
            ("gauge", "veridp_workers", lambda: self.workers,
             "Shard workers: processes, or threads once degraded."),
            ("gauge", "veridp_degraded", stat("degraded"),
             "1 once the restart budget ran out and the shards run on threads."),
            ("counter", "veridp_worker_restarts_total", stat("restarts"),
             "Shard workers the supervisor restarted (dead or wedged)."),
            ("counter", "veridp_wedged_restarts_total", stat("wedged_restarts"),
             "Restarts triggered by heartbeat timeout rather than death."),
            ("gauge", "veridp_restart_budget", stat("restart_budget"),
             "Supervisor crash-restart budget before degrading."),
        ):
            getattr(reg, kind)(name, text, callback=read)
        reg.counter(
            "veridp_queue_dropped_total",
            "Payloads lost to backpressure, by overflow policy decision.",
            ("policy",),
            callback=lambda: {("drop-new",): self.dropped_new},
        )
        reg.counter(
            "veridp_verifications_total",
            "Tag reports verified, by Algorithm 3 verdict (merged fleet).",
            ("verdict",),
            callback=self._merged_verdicts,
        )

    def _merged_verdicts(self) -> Dict[tuple, int]:
        with self._books_lock:
            return {(v.value,): n for v, n in self.counters.items()}

    def _log_rows(self, frame: bytes) -> None:
        """WAL-before-verify at batch granularity: a book's cut appends
        its new rows as one ``RT_REPORT_BATCH`` record."""
        persist = self.server.persist
        if persist is not None:
            persist.log_report_frame(frame)

    # -- lifecycle -----------------------------------------------------------

    def start(self) -> None:
        """Replicate the (compiled) path table and fork the workers."""
        if self._endpoint is not None:
            self._endpoint.start()
        if self._running:
            return
        with self.server_lock:
            self.server.catch_up()
            sync = resync_specs(
                self.server.table, self.server.hs, self.server.codec, self.workers
            )
            self._replica_version, self._dirty_token = sync.version, sync.token
        for shard in range(self.workers):
            self._spawn(shard, sync.specs[shard])
        self._running = True
        if self._supervisor is not None and not self.degraded:
            self._supervisor.start()

    def _spawn(self, shard: int, spec: Dict) -> None:
        """Start the shard's next worker generation on a fresh duplex pipe
        — a forked process, or once degraded a :class:`_ShardThread` — and
        hand it what the previous generation's book still held.

        A fresh pipe per generation matters: a worker killed mid-message
        would corrupt the stream for any successor.
        """
        generation = self._generations[shard]
        self._generations[shard] += 1
        conn, child = self._ctx.Pipe()
        # Undecodable-port rows count malformed in the shard's own families,
        # as in the daemon's books (the codec's switches are the topology's,
        # fixed when the server was built).
        args = (shard, child, spec, self._packing, self.server.codec.id_limit)
        name = f"veridp-shard-{shard}-gen{generation}"
        if self.degraded:
            member = _ShardThread(name, args)
            member.start()
        else:
            member = self._ctx.Process(
                target=_shard_worker_main, args=args, name=name, daemon=True
            )
            member.start()
            child.close()  # the worker holds the only copy: its death reads EOF
        link = Link(shard, conn, member, self.flight, self.batch_size, self.log)
        frames = self._swap(shard, link)
        if frames:
            self.redeliver(frames)

    def stop(self) -> None:
        """Consolidate outstanding work and terminate the workers.

        Rows still without a verdict (a failed ``join``) stay in the last
        generation's books; a later :meth:`start` hands them to its workers.
        """
        if self._endpoint is not None:
            self._endpoint.stop()
        if not self._running:
            return
        self._stopping = True
        if self._supervisor is not None:
            self._supervisor.stop()
        try:
            self.join(timeout=10.0)
        except TimeoutError:  # wedged/dead workers: terminated below
            pass
        for link in list(self._links.values()):
            link.end()
        self.close()
        self._running = False
        self._stopping = False

    def __enter__(self) -> "ShardedVeriDPDaemon":
        self.start()
        return self

    def __exit__(self, *exc_info) -> None:
        self.stop()

    # -- ingestion -------------------------------------------------------------

    def submit(self, payload: bytes) -> bool:
        """Route one wire-format report to its shard as a one-row frame.

        Every call increments :attr:`submitted` exactly once, so the
        accounting identity in :meth:`stats` stays closed across the
        daemon's whole life.  A payload that is not one report long is
        dead-lettered here and counted in ``malformed``.

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
        if not self._running:
            raise RuntimeError("daemon is not running; call start() first")
        persist = self.server.persist
        if persist is not None:
            persist.log_report_batch([payload])
        self.dead_letters.add(
            payload, "decode", ReportDecodeError(payload_precheck(payload))
        )
        with self._lock:
            self.submitted += 1
        with self._books_lock:
            self.malformed += 1
        return True

    def submit_frame(self, frame: Frame) -> int:
        """Split a frame across the shard books by pair key.

        One vectorized :func:`~repro.core.ingest.shard_split` replaces
        ``frame.count`` scalar hash/route/append rounds; each shard's chunk
        lands in its book's buffer, which the cut concatenates into one
        worker batch.  The server and the worker replicas catch up first
        (:meth:`Books.catch_up`), so no row reaches a stale replica.
        Returns the rows admitted: a batch the overflow policy refuses
        counts wholly against the call that cut it.
        """
        count = frame.count
        if count == 0:
            return 0
        if not self._running:
            raise RuntimeError("daemon is not running; call start() first")
        self.catch_up()
        return self._dispatch(frame.payload(), count)

    def _route(self, clean: bytes) -> List[Tuple[Link, bytes, int]]:
        """The shard hash: each shard's rows to its current generation."""
        return [
            (self._links[shard], chunk, len(chunk) // REPORT_SIZE)
            for shard, chunk in enumerate(shard_split(clean, self.workers))
            if chunk
        ]

    def _revive(self) -> None:
        """Run one synchronous supervision pass (restart dead workers)."""
        if self._supervisor is not None and not self._stopping:
            self._supervisor.check_once()

    def join(self, timeout: float = 60.0) -> None:
        """Dispatch the buffers and wait until every accepted row has its
        verdict (``in_flight`` reads 0), reviving dead workers while it
        waits (:meth:`Dispatcher.join_rows`, which raises ``TimeoutError``
        naming the shards still owing rows)."""
        if self._running:
            self.join_rows(timeout)

    # -- member failure --------------------------------------------------------

    def _restart_worker(self, shard: int) -> None:
        """Supervisor callback: replace one dead or wedged worker.

        Takes the old generation down, starts a successor whose replica is
        compiled from the *current* path table — but only the dead shard's
        slice of it — and hands it everything the old generation's book
        still held: the un-acked batches (whose late replies, if any, find
        them gone) and the buffer.  If the table version moved since the
        last replication, the survivors are brought up to date in place
        via pair deltas (:meth:`resync_replicas`).
        """
        self._links[shard].end()
        # Under the resync lock: no resync can patch the old generation
        # between the successor's spec build and its swap-in.
        with self._resync_lock:
            with self.server_lock:
                self.server.catch_up()
                spec = build_one_shard_spec(
                    self.server.table,
                    self.server.hs,
                    self.server.codec,
                    self.workers,
                    shard,
                )
            self._spawn(shard, spec)
        self.resync_replicas()

    def _degrade(self) -> None:
        """Restart budget exhausted: serve every shard on a thread.

        Ingestion must survive a worker crash loop; a thread of this
        process is slower than a worker process but cannot lose one.  Each
        shard is restarted once more, as a :class:`_ShardThread`, and its
        successor takes the old generation's book as on any restart:
        un-acked batches and buffer alike, all in the WAL by then.
        """
        self.degraded = True
        for shard in list(self._links):
            self._restart_worker(shard)

    def kill_worker(self, shard: int) -> None:
        """Forcibly kill one shard worker (chaos/testing hook); a no-op
        once degraded."""
        if self.degraded or not self._running:
            return
        self._links[shard].end()

    # -- replica upkeep --------------------------------------------------------

    def resync_replicas(self) -> Optional[int]:
        """Bring every worker replica up to date with the path table, in
        place (:meth:`Books.resync`): a shard's pair delta, or its whole
        replica, packed over one node table
        (:func:`~repro.core.replica.pack_specs`) and pickled once on its
        pipe.  ``resync_delta_bytes`` counts those messages' bytes."""
        if not self._running:
            return 0
        return self.resync()

    def _ship_sync(self, sync) -> int:
        kind = "reload" if sync.full else "patch"
        return self.ship(
            {
                shard: (kind, pack_specs(spec), None)
                for shard, spec in enumerate(sync.specs)
                if spec or sync.full
            }
        )

    def replica_digests(self, timeout: float = 10.0) -> List[str]:
        """Collect every worker's replica fingerprint (ops/test hook).

        Two fleets whose digests match verify every report identically
        (see :func:`~repro.core.replica.replica_digest`).
        """
        if not self._running:
            raise RuntimeError("no shard workers to digest")
        digests = self.digests(timeout)
        return [digests[shard] for shard in range(self.workers)]

    # -- maintenance -----------------------------------------------------------

    def stats(self) -> Dict[str, int]:
        """Consolidated counters (call :meth:`join` first for exact figures).

        ``in_flight`` counts payloads accepted that have no verdict yet; it
        reads 0 after :meth:`join`.  ``lost_in_restart`` reads 0: a worker
        restart hands every batch its predecessor had not answered to the
        successor.  The accounting identity after a completed ``join`` on a
        daemon is::

            submitted == processed + malformed + verify_errors
                         + dropped_new + lost_in_restart

        ``dropped_new`` is sharded tail drop (the only policy decision
        this daemon can take); ``dropped_oldest`` and ``block_timeouts``
        are emitted as 0 for key uniformity, and ``dropped`` is their
        total, mirroring :meth:`PolicyQueue.stats` (DESIGN.md §8).
        """
        with self._lock:
            submitted = self.submitted
            dropped = self.dropped_new
        with self._books_lock:
            processed = self.processed
            malformed = self.malformed
            verify_errors = self.verify_errors
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
            "in_flight": self.flight.rows,
            "degraded": int(self.degraded),
            "vector": self.vector,
        }
        if self._supervisor is not None:
            stats.update(self._supervisor.stats())
        stats.update(self.dead_letters.stats())
        stats["dropped"] = dropped
        return stats
